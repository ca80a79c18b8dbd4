"""Chaos tests: the audit battery under injected faults.

Asserts the ISSUE's guarantees at the :class:`FairnessAudit` layer — a
raising metric becomes a ``status="error"`` finding with captured
traceback instead of aborting the battery, transient faults are retried,
hangs are cut off by the deadline, and fail-closed policies abort.
"""

import json

import pytest

from repro.core import FairnessAudit
from repro.core.config import AuditConfig
from repro.core.serialize import report_to_dict, report_to_json
from repro.data import make_hiring
from repro.exceptions import ConvergenceError, DegradedRunError
from repro.robustness import ExecutionPolicy


@pytest.fixture(scope="module")
def hiring():
    return make_hiring(n=1200, direct_bias=1.5, random_state=11)


class TestFaultIsolation:
    def test_raising_metric_becomes_error_finding(self, hiring, fault_injector):
        fault_injector.inject_error(
            "audit:sex:demographic_parity", RuntimeError("metric blew up")
        )
        report = FairnessAudit(
            hiring, config=AuditConfig(faults=fault_injector),
        ).run()
        finding = report.finding("sex", "demographic_parity")
        assert finding.status == "error"
        assert "RuntimeError" in finding.reason
        assert "metric blew up" in finding.traceback

    def test_rest_of_battery_still_evaluates(self, hiring, fault_injector):
        fault_injector.inject_error(
            "audit:sex:demographic_parity", RuntimeError("boom")
        )
        report = FairnessAudit(
            hiring, config=AuditConfig(faults=fault_injector),
        ).run()
        others = [
            f for f in report.findings
            if f.metric != "demographic_parity"
        ]
        assert any(f.status == "ok" for f in others)
        assert len(report.errors()) == 1

    def test_error_recorded_in_degradations(self, hiring, fault_injector):
        fault_injector.inject_error(
            "audit:sex:disparate_impact_ratio", RuntimeError("boom")
        )
        report = FairnessAudit(
            hiring, config=AuditConfig(faults=fault_injector),
        ).run()
        assert report.degraded
        stages = [d["stage"] for d in report.degradations]
        assert "audit:sex:disparate_impact_ratio" in stages

    def test_clean_run_not_degraded(self, hiring):
        report = FairnessAudit(hiring).run()
        assert not report.degraded
        assert report.errors() == []


class TestRetries:
    def test_transient_fault_retried_to_success(self, hiring, fault_injector):
        fault_injector.inject_error(
            "audit:sex:equal_opportunity",
            lambda: ConvergenceError("transient"),
            times=2,
        )
        policy = ExecutionPolicy(max_retries=3, sleep=lambda s: None)
        report = FairnessAudit(
            hiring, config=AuditConfig(policy=policy, faults=fault_injector),
        ).run()
        # the battery as a whole is clean of errors: retries absorbed it
        assert report.errors() == []
        assert fault_injector.fired_count() == 2

    def test_exhausted_retries_surface(self, hiring, fault_injector):
        fault_injector.inject_error(
            "audit:sex:demographic_parity",
            lambda: ConvergenceError("persistent"),
            times=None,
        )
        policy = ExecutionPolicy(max_retries=2, sleep=lambda s: None)
        report = FairnessAudit(
            hiring, config=AuditConfig(policy=policy, faults=fault_injector),
        ).run()
        finding = report.finding("sex", "demographic_parity")
        assert finding.status == "error"
        assert "RetryExhaustedError" in finding.reason


class TestDeadlines:
    def test_hanging_metric_cut_off(self, hiring, fault_injector):
        fault_injector.inject_hang(
            "audit:sex:demographic_parity", seconds=30.0
        )
        report = FairnessAudit(
            hiring,
            config=AuditConfig(
                policy=ExecutionPolicy(deadline=0.25),
                faults=fault_injector,
            ),
        ).run()
        finding = report.finding("sex", "demographic_parity")
        assert finding.status == "error"
        assert "StageTimeoutError" in finding.reason
        timeouts = [
            d for d in report.degradations if d["status"] == "timeout"
        ]
        assert len(timeouts) == 1


class TestFailClosed:
    def test_fail_fast_aborts_battery(self, hiring, fault_injector):
        fault_injector.inject_error(
            "audit:sex:demographic_parity", RuntimeError("boom")
        )
        audit = FairnessAudit(
            hiring,
            config=AuditConfig(
                policy=ExecutionPolicy.strict(),
                faults=fault_injector,
            ),
        )
        with pytest.raises(DegradedRunError):
            audit.run()

    def test_failure_budget_enforced(self, hiring, fault_injector):
        fault_injector.inject_error("audit", RuntimeError("boom"), times=None)
        audit = FairnessAudit(
            hiring,
            config=AuditConfig(
                policy=ExecutionPolicy(max_failures=2),
                faults=fault_injector,
            ),
        )
        with pytest.raises(DegradedRunError, match="budget"):
            audit.run()


class TestReporting:
    def test_markdown_renders_error_findings(self, hiring, fault_injector):
        fault_injector.inject_error(
            "audit:sex:demographic_parity", RuntimeError("boom")
        )
        report = FairnessAudit(
            hiring, config=AuditConfig(faults=fault_injector),
        ).run()
        text = report.to_markdown()
        assert "ERROR" in text
        assert "DEGRADED RUN" in text
        assert "errored" in text

    def test_serialisation_carries_errors(self, hiring, fault_injector):
        fault_injector.inject_error(
            "audit:sex:demographic_parity", RuntimeError("boom")
        )
        report = FairnessAudit(
            hiring, config=AuditConfig(faults=fault_injector),
        ).run()
        payload = report_to_dict(report)
        assert payload["degraded"] is True
        assert payload["counts"]["errors"] == 1
        assert payload["degradations"][0]["stage"] == (
            "audit:sex:demographic_parity"
        )
        json.loads(report_to_json(report))  # round-trips
