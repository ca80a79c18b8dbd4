"""Chaos tests: the compliance workflow under injected faults.

The ISSUE's acceptance criterion: with injected faults in any single
stage, :func:`run_compliance_workflow` still returns a dossier whose
``degradations`` names the stage, and the verdict degrades to
``"inconclusive"`` — never a crash — when the primary metric's stage
failed.
"""

import pytest

from repro.core import UseCaseProfile
from repro.core.config import AuditConfig
from repro.data import make_hiring
from repro.exceptions import DegradedRunError
from repro.robustness import ExecutionPolicy
from repro.workflow import run_compliance_workflow

WORKFLOW_STAGES = (
    "statutes",
    "recommendations",
    "risk_flags",
    "audit",
    "primary_verdict",
)


@pytest.fixture(scope="module")
def hiring():
    return make_hiring(
        n=1500, direct_bias=2.0, proxy_strength=0.9, random_state=47
    )


@pytest.fixture(scope="module")
def profile():
    return UseCaseProfile(
        name="chaos hiring",
        sector="employment",
        jurisdiction="eu",
        structural_bias_recognized=True,
        ground_truth_reliable=False,
        legitimate_factors=("university",),
        proxy_risk=True,
    )


class TestEveryStageSurvivesAFault:
    @pytest.mark.parametrize("stage", WORKFLOW_STAGES)
    def test_dossier_returned_and_degradation_named(
        self, hiring, profile, stage, fault_injector
    ):
        fault_injector.inject_error(stage, RuntimeError(f"chaos in {stage}"))
        dossier = run_compliance_workflow(
            hiring, profile,
            config=AuditConfig(strata="university", faults=fault_injector),
        )
        assert dossier.degraded
        assert stage in [d["stage"].split(":")[0] for d in dossier.degradations]
        assert dossier.verdict in ("pass", "fail", "inconclusive")
        dossier.to_markdown()  # renders without crashing

    def test_audit_stage_fault_yields_inconclusive(
        self, hiring, profile, fault_injector
    ):
        fault_injector.inject_error("audit", RuntimeError("battery down"))
        dossier = run_compliance_workflow(
            hiring, profile,
            config=AuditConfig(strata="university", faults=fault_injector),
        )
        assert dossier.verdict == "inconclusive"
        assert dossier.audit.all_findings() == []

    def test_primary_verdict_fault_yields_inconclusive(
        self, hiring, profile, fault_injector
    ):
        fault_injector.inject_error(
            "primary_verdict", RuntimeError("verdict crashed")
        )
        dossier = run_compliance_workflow(
            hiring, profile,
            config=AuditConfig(strata="university", faults=fault_injector),
        )
        assert dossier.verdict == "inconclusive"
        # the primary metric is still named so the reviewer knows what
        # evidence is missing
        assert dossier.primary_metric != ""

    def test_per_metric_fault_listed_but_verdict_stands(
        self, hiring, profile, fault_injector
    ):
        # fault one non-primary metric: the dossier degrades but the
        # criteria-selected verdict is still evaluable
        fault_injector.inject_error(
            "audit:sex:treatment_equality", RuntimeError("boom")
        )
        dossier = run_compliance_workflow(
            hiring, profile,
            config=AuditConfig(strata="university", faults=fault_injector),
        )
        assert dossier.degraded
        assert dossier.verdict == "fail"  # biased data still caught
        assert "audit:sex:treatment_equality" in [
            d["stage"] for d in dossier.degradations
        ]


class TestDeadlines:
    def test_hanging_stage_cut_off_by_deadline(
        self, hiring, profile, fault_injector
    ):
        fault_injector.inject_hang("risk_flags", seconds=30.0)
        dossier = run_compliance_workflow(
            hiring, profile,
            config=AuditConfig(
                strata="university",
                policy=ExecutionPolicy(deadline=0.3),
                faults=fault_injector,
            ),
        )
        entry = next(
            d for d in dossier.degradations if d["stage"] == "risk_flags"
        )
        assert entry["status"] == "timeout"
        assert dossier.risks == []


class TestFailClosed:
    def test_fail_fast_raises_instead_of_degrading(
        self, hiring, profile, fault_injector
    ):
        fault_injector.inject_error("statutes", RuntimeError("boom"))
        with pytest.raises(DegradedRunError):
            run_compliance_workflow(
                hiring, profile,
                config=AuditConfig(
                    strata="university",
                    policy=ExecutionPolicy.strict(),
                    faults=fault_injector,
                ),
            )


class TestMarkdown:
    def test_degradations_section_rendered(
        self, hiring, profile, fault_injector
    ):
        fault_injector.inject_error("risk_flags", RuntimeError("boom"))
        dossier = run_compliance_workflow(
            hiring, profile,
            config=AuditConfig(strata="university", faults=fault_injector),
        )
        text = dossier.to_markdown()
        assert "Degradations" in text
        assert "risk_flags" in text

    def test_clean_run_has_no_degradations_section(self, hiring, profile):
        dossier = run_compliance_workflow(
            hiring, profile, config=AuditConfig(strata="university"),
        )
        assert not dossier.degraded
        assert "Degradations" not in dossier.to_markdown()
