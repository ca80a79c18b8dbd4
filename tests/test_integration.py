"""End-to-end integration tests spanning multiple subsystems."""

import numpy as np
import pytest

from repro import (
    FairnessAudit,
    UseCaseProfile,
    make_credit,
    make_hiring,
    recommend_metrics,
)
from repro.core import demographic_parity, equal_opportunity
from repro.core.config import AuditConfig
from repro.mitigation import (
    FairLogisticRegression,
    GroupThresholds,
    reweighing,
)
from repro.models import LogisticRegression, Standardizer, accuracy
from repro.proxy import ProxyDetector


class TestHiringPipeline:
    """Generate biased data → train → audit → mitigate → re-audit."""

    @pytest.fixture(scope="class")
    def splits(self):
        ds = make_hiring(
            n=4000, direct_bias=2.0, proxy_strength=0.9, random_state=21
        )
        return ds.split(test_fraction=0.3, random_state=21, stratify_by="sex")

    def test_full_mitigation_pipeline(self, splits):
        train, test = splits
        scaler = Standardizer()
        X_train = scaler.fit_transform(train.feature_matrix())
        X_test = scaler.transform(test.feature_matrix())

        # 1. baseline model inherits the label bias through the proxy
        baseline = LogisticRegression(max_iter=800).fit(X_train, train.labels())
        base_preds = baseline.predict(X_test)
        base_gap = demographic_parity(base_preds, test.column("sex")).gap
        assert base_gap > 0.08

        # 2. audit flags it
        report = FairnessAudit(
            test, predictions=base_preds, config=AuditConfig(tolerance=0.05),
        ).run()
        assert not report.is_clean

        # 3. reweighing shrinks the gap at bounded accuracy cost
        weights = reweighing(train, "sex")
        reweighed = LogisticRegression(max_iter=800).fit(
            X_train, train.labels(), sample_weight=weights
        )
        rw_preds = reweighed.predict(X_test)
        rw_gap = demographic_parity(rw_preds, test.column("sex")).gap
        assert rw_gap < base_gap
        assert accuracy(test.labels(), rw_preds) > (
            accuracy(test.labels(), base_preds) - 0.1
        )

        # 4. post-processing achieves near-exact parity
        probs = baseline.predict_proba(X_test)
        post = GroupThresholds("demographic_parity").fit(
            baseline.predict_proba(X_train), train.column("sex")
        )
        post_preds = post.predict(probs, test.column("sex"))
        post_gap = demographic_parity(post_preds, test.column("sex")).gap
        assert post_gap < 0.05

    def test_proxy_scan_matches_audit_story(self, splits):
        train, __ = splits
        report = ProxyDetector(random_state=0).scan(train, "sex")
        assert report.ranked()[0].feature == "university"
        assert report.attribute_is_reconstructible


class TestCreditPipeline:
    def test_structural_income_gap_creates_disparate_impact(self):
        ds = make_credit(
            n=5000, income_gap=1.2, redlining_strength=0.8, random_state=5
        )
        report = FairnessAudit(ds, config=AuditConfig(tolerance=0.05)).run()
        di = report.finding("race", "disparate_impact_ratio")
        assert not di.four_fifths.passes
        assert di.four_fifths.disadvantaged_group == "minority"

    def test_fair_inprocessing_on_credit(self):
        ds = make_credit(
            n=4000, income_gap=1.0, redlining_strength=0.8, random_state=6
        )
        train, test = ds.split(test_fraction=0.3, random_state=6)
        scaler = Standardizer()
        X_train = scaler.fit_transform(train.feature_matrix())
        X_test = scaler.transform(test.feature_matrix())

        plain = LogisticRegression(max_iter=800).fit(X_train, train.labels())
        fair = FairLogisticRegression(fairness_weight=30.0, max_iter=800)
        fair.fit(X_train, train.labels(), groups=train.column("race"))

        gap_plain = demographic_parity(
            plain.predict(X_test), test.column("race")
        ).gap
        gap_fair = demographic_parity(
            fair.predict(X_test), test.column("race")
        ).gap
        assert gap_fair < gap_plain


class TestCriteriaToAuditFlow:
    def test_recommended_metric_is_computable(self):
        """The criteria engine's top pick can be executed by the audit."""
        profile = UseCaseProfile(
            name="graduate hiring",
            sector="employment",
            jurisdiction="us",
            structural_bias_recognized=True,
            affirmative_action_mandated=True,
            ground_truth_reliable=False,
        )
        recs = recommend_metrics(profile)
        top = [r for r in recs if r.feasible][0]
        assert top.equality_concept == "equal_outcome"

        ds = make_hiring(n=1500, direct_bias=1.5, random_state=1)
        report = FairnessAudit(ds, config=AuditConfig(tolerance=0.05)).run()
        finding = report.finding("sex", top.metric)
        assert finding.status == "ok"

    def test_unaware_model_story_end_to_end(self):
        """IV.B narrative: the paper's central warning, fully executable."""
        ds = make_hiring(
            n=4000, direct_bias=2.5, proxy_strength=0.95, random_state=2
        )
        train, test = ds.split(test_fraction=0.3, random_state=2)
        scaler = Standardizer()
        # the model never sees `sex` (it is protected, not a feature)...
        model = LogisticRegression(max_iter=800).fit(
            scaler.fit_transform(train.feature_matrix()), train.labels()
        )
        preds = model.predict(scaler.transform(test.feature_matrix()))
        # ...yet the outcome gap persists via the university proxy
        gap = demographic_parity(preds, test.column("sex")).gap
        assert gap > 0.08


class TestLabelsVsPredictionsAudit:
    def test_error_rate_metrics_on_truly_qualified(self):
        # ground truth = qualification threshold (metadata), predictions =
        # model trained on biased labels: equal opportunity must fail
        ds = make_hiring(
            n=4000, direct_bias=2.5, proxy_strength=0.9, random_state=3
        )
        qualified = (
            ds.column("qualification") > np.median(ds.column("qualification"))
        ).astype(int)
        scaler = Standardizer()
        model = LogisticRegression(max_iter=800).fit(
            scaler.fit_transform(ds.feature_matrix()), ds.labels()
        )
        preds = model.predict(scaler.transform(ds.feature_matrix()))
        result = equal_opportunity(qualified, preds, ds.column("sex"))
        assert not result.satisfied
        assert result.disadvantaged_group() == "female"
