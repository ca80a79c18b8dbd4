"""Tests for report comparison and the fairness/accuracy frontier."""

import pytest

from repro.core import FairnessAudit
from repro.core.compare import compare_reports
from repro.core.config import AuditConfig
from repro.core.frontier import fairness_frontier
from repro.data import make_hiring
from repro.exceptions import AuditError, MetricError
from repro.mitigation import GroupThresholds
from repro.models import LogisticRegression, Standardizer


@pytest.fixture(scope="module")
def before_after_reports():
    ds = make_hiring(
        n=3000, direct_bias=2.0, proxy_strength=0.9, random_state=37
    )
    X = Standardizer().fit_transform(ds.feature_matrix())
    model = LogisticRegression(max_iter=800).fit(X, ds.labels())
    probs = model.predict_proba(X)
    preds = model.predict(X)

    post = GroupThresholds("demographic_parity").fit(probs, ds.column("sex"))
    fixed_preds = post.predict(probs, ds.column("sex"))

    before = FairnessAudit(
        ds, predictions=preds, config=AuditConfig(tolerance=0.05),
    ).run()
    after = FairnessAudit(
        ds, predictions=fixed_preds, config=AuditConfig(tolerance=0.05),
    ).run()
    return before, after


class TestCompareReports:
    def test_mitigation_shows_as_fixed_or_improved(self, before_after_reports):
        before, after = before_after_reports
        comparison = compare_reports(before, after)
        dp = [d for d in comparison.deltas
              if d.metric == "demographic_parity" and d.attribute == "sex"][0]
        assert dp.classification in ("fixed", "improved")
        assert dp.gap_change < 0

    def test_self_comparison_is_unchanged(self, before_after_reports):
        before, __ = before_after_reports
        comparison = compare_reports(before, before)
        comparable = [
            d for d in comparison.deltas
            if d.classification != "incomparable"
        ]
        assert comparable
        assert all(d.classification == "unchanged" for d in comparable)
        assert not comparison.is_strict_improvement

    def test_skipped_findings_incomparable(self, before_after_reports):
        before, after = before_after_reports
        comparison = compare_reports(before, after)
        # calibration was skipped (no probabilities passed to the audit)
        cal = [d for d in comparison.deltas
               if d.metric == "calibration_within_groups"][0]
        assert cal.classification == "incomparable"

    def test_summary_mentions_classes(self, before_after_reports):
        before, after = before_after_reports
        text = compare_reports(before, after).summary()
        assert "demographic_parity" in text

    def test_type_checked(self, before_after_reports):
        before, __ = before_after_reports
        with pytest.raises(AuditError, match="AuditReport"):
            compare_reports(before, "not a report")


class TestFairnessFrontier:
    @pytest.fixture(scope="class")
    def scored(self):
        ds = make_hiring(
            n=2500, direct_bias=2.0, proxy_strength=0.9, random_state=41
        )
        X = Standardizer().fit_transform(ds.feature_matrix())
        model = LogisticRegression(max_iter=800).fit(X, ds.labels())
        return model.predict_proba(X), ds.column("sex"), ds.labels()

    def test_frontier_is_pareto(self, scored):
        probs, groups, y = scored
        frontier = fairness_frontier(probs, groups, y, n_thresholds=11)
        gaps = [p.dp_gap for p in frontier.points]
        accs = [p.accuracy for p in frontier.points]
        assert gaps == sorted(gaps)
        assert accs == sorted(accs)  # more gap allowed → more accuracy

    def test_includes_near_zero_gap_point(self, scored):
        probs, groups, y = scored
        frontier = fairness_frontier(probs, groups, y, n_thresholds=11)
        assert frontier.points[0].dp_gap < 0.05

    def test_best_accuracy_within(self, scored):
        probs, groups, y = scored
        frontier = fairness_frontier(probs, groups, y, n_thresholds=11)
        strict = frontier.best_accuracy_within(0.02)
        loose = frontier.best_accuracy_within(0.3)
        assert strict.dp_gap <= 0.02 + 1e-12
        assert loose.accuracy >= strict.accuracy

    def test_price_of_fairness_nonnegative(self, scored):
        probs, groups, y = scored
        frontier = fairness_frontier(probs, groups, y, n_thresholds=11)
        price = frontier.price_of_fairness(0.02)
        assert price >= 0.0

    def test_impossible_gap_raises(self, scored):
        probs, groups, y = scored
        frontier = fairness_frontier(probs, groups, y, n_thresholds=5)
        with pytest.raises(MetricError, match="no frontier point"):
            frontier.best_accuracy_within(-0.5)

    def test_requires_two_groups(self):
        with pytest.raises(MetricError, match="exactly two"):
            fairness_frontier([0.5, 0.6], ["a", "a"], [0, 1])
