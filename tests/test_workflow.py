"""Tests for the Section V compliance workflow."""

import pytest

from repro.core import UseCaseProfile
from repro.core.config import AuditConfig
from repro.data import make_hiring
from repro.models import LogisticRegression, Standardizer
from repro.workflow import run_compliance_workflow


@pytest.fixture(scope="module")
def profile():
    return UseCaseProfile(
        name="graduate hiring",
        sector="employment",
        jurisdiction="eu",
        structural_bias_recognized=True,
        ground_truth_reliable=False,
        legitimate_factors=("university",),
        proxy_risk=True,
    )


@pytest.fixture(scope="module")
def biased():
    return make_hiring(
        n=2500, direct_bias=2.0, proxy_strength=0.9, random_state=47
    )


@pytest.fixture(scope="module")
def clean():
    return make_hiring(n=2500, direct_bias=0.0, random_state=47)


class TestWorkflow:
    def test_biased_data_fails(self, biased, profile):
        dossier = run_compliance_workflow(
            biased, profile,
            config=AuditConfig(tolerance=0.05, strata="university"),
        )
        assert dossier.verdict == "fail"
        assert dossier.primary_metric in {
            r.metric for r in dossier.recommendations if r.feasible
        }

    def test_clean_data_passes(self, clean, profile):
        dossier = run_compliance_workflow(
            clean, profile,
            config=AuditConfig(tolerance=0.05, strata="university"),
        )
        assert dossier.verdict == "pass"

    def test_primary_metric_is_top_feasible_evaluated(self, biased, profile):
        dossier = run_compliance_workflow(
            biased, profile,
            config=AuditConfig(tolerance=0.05, strata="university"),
        )
        feasible = [r for r in dossier.recommendations if r.feasible]
        evaluated = {
            f.metric for f in dossier.audit.all_findings()
            if f.satisfied is not None
        }
        expected = next(r.metric for r in feasible if r.metric in evaluated)
        assert dossier.primary_metric == expected

    def test_statutes_resolved_for_sex(self, biased, profile):
        dossier = run_compliance_workflow(
            biased, profile, config=AuditConfig(strata="university"),
        )
        keys = {s.key for s in dossier.statutes["sex"]}
        # from the generator's statute tags + the attribute-name lookup
        assert "title_vii" in keys
        assert "eu_2006_54" in keys

    def test_risk_flags_carried(self, biased, profile):
        dossier = run_compliance_workflow(biased, profile)
        risks = {f.risk for f in dossier.risks}
        assert "proxy_discrimination" in risks
        assert "sampling_requirements" in risks

    def test_model_predictions_path(self, biased, profile):
        X = Standardizer().fit_transform(biased.feature_matrix())
        model = LogisticRegression(max_iter=600).fit(X, biased.labels())
        dossier = run_compliance_workflow(
            biased,
            profile,
            predictions=model.predict(X),
            probabilities=model.predict_proba(X),
            config=AuditConfig(strata="university"),
        )
        assert dossier.verdict == "fail"
        cal = dossier.audit.finding("sex", "calibration_within_groups")
        assert cal.status == "ok"

    def test_markdown_rendering(self, biased, profile):
        dossier = run_compliance_workflow(
            biased, profile, config=AuditConfig(strata="university"),
        )
        text = dossier.to_markdown()
        assert "Compliance dossier" in text
        assert "verdict on primary metric: FAIL" in text
        assert "Applicable statutes" in text
        assert "Metric selection" in text
        assert "Cross-cutting risks" in text
        assert "Fairness audit report" in text
