"""Provenance tests: fingerprints, record collection, report rendering."""

import json

import pytest

from repro.core import FairnessAudit
from repro.core.config import AuditConfig
from repro.core.report import render_markdown
from repro.core.serialize import report_to_dict
from repro.data import make_hiring, make_intersectional
from repro.observability import Tracer, use_tracer
from repro.observability.provenance import (
    ProvenanceRecord,
    dataset_fingerprint,
)
from repro.robustness import ExecutionPolicy, FaultInjector


@pytest.fixture(scope="module")
def hiring():
    return make_hiring(n=600, direct_bias=1.2, random_state=11)


class TestFingerprint:
    def test_deterministic(self, hiring):
        assert dataset_fingerprint(hiring) == dataset_fingerprint(hiring)

    def test_same_data_same_fingerprint(self):
        a = make_hiring(n=300, random_state=1)
        b = make_hiring(n=300, random_state=1)
        assert dataset_fingerprint(a) == dataset_fingerprint(b)

    def test_different_data_different_fingerprint(self):
        a = make_hiring(n=300, random_state=1)
        b = make_hiring(n=300, random_state=2)
        assert dataset_fingerprint(a) != dataset_fingerprint(b)

    def test_is_hex_sha256(self, hiring):
        fingerprint = dataset_fingerprint(hiring)
        assert len(fingerprint) == 64
        int(fingerprint, 16)

    def test_cached_on_the_dataset(self, hiring):
        dataset_fingerprint(hiring)
        assert getattr(hiring, "_repro_fingerprint", None) is not None


class TestProvenanceRecord:
    def test_audit_attaches_provenance(self, hiring):
        report = FairnessAudit(
            hiring, config=AuditConfig(tolerance=0.05),
        ).run()
        record = report.provenance
        assert isinstance(record, ProvenanceRecord)
        assert record.dataset_fingerprint == dataset_fingerprint(hiring)
        assert record.n_rows == hiring.n_rows
        # one stage per (attribute, metric) plus the power note
        stage_names = [entry["stage"] for entry in record.stages]
        assert "audit:sex:demographic_parity" in stage_names
        assert record.degraded_stages == 0
        assert record.total_elapsed >= 0.0

    def test_policy_summary_recorded(self, hiring):
        policy = ExecutionPolicy(deadline=30.0, max_retries=2)
        report = FairnessAudit(hiring, config=AuditConfig(policy=policy)).run()
        assert report.provenance.policy["deadline"] == 30.0
        assert report.provenance.policy["max_retries"] == 2

    def test_degraded_stage_counted(self, hiring):
        injector = FaultInjector()
        injector.inject_error(
            "audit:sex:demographic_parity", RuntimeError("chaos")
        )
        report = FairnessAudit(
            hiring, config=AuditConfig(faults=injector),
        ).run()
        assert report.provenance.degraded_stages == 1
        entry = next(
            e for e in report.provenance.stages
            if e["stage"] == "audit:sex:demographic_parity"
        )
        assert entry["status"] == "error"
        assert entry["error_type"] == "RuntimeError"
        assert entry["attempt_log"][0]["error_type"] == "RuntimeError"

    def test_trace_run_id_recorded_when_tracing(self, hiring):
        tracer = Tracer(run_id="prov-test")
        with use_tracer(tracer):
            report = FairnessAudit(hiring).run()
        assert report.provenance.trace_run_id == "prov-test"

    def test_no_trace_run_id_without_tracer(self, hiring):
        report = FairnessAudit(hiring).run()
        assert report.provenance.trace_run_id == ""

    def test_to_dict_is_json_able(self, hiring):
        report = FairnessAudit(hiring).run()
        payload = json.dumps(report.provenance.to_dict())
        assert "dataset_fingerprint" in payload

    def test_slowest_orders_by_elapsed(self):
        record = ProvenanceRecord(
            dataset_fingerprint="x", n_rows=1, repro_version="1",
            created_unix=0.0,
            stages=[
                {"stage": "a", "status": "ok", "elapsed": 0.1, "attempts": 1},
                {"stage": "b", "status": "ok", "elapsed": 0.9, "attempts": 1},
                {"stage": "c", "status": "ok", "elapsed": 0.5, "attempts": 1},
            ],
        )
        assert [e["stage"] for e in record.slowest(2)] == ["b", "c"]
        assert record.total_retries == 0


class TestReportRendering:
    def test_markdown_has_provenance_section(self, hiring):
        report = FairnessAudit(hiring).run()
        markdown = render_markdown(report)
        assert "## Provenance (audit trail)" in markdown
        assert report.provenance.dataset_fingerprint in markdown
        assert "supervised" in markdown

    def test_json_report_carries_provenance(self, hiring):
        report = FairnessAudit(hiring).run()
        payload = report_to_dict(report)
        assert (
            payload["provenance"]["dataset_fingerprint"]
            == report.provenance.dataset_fingerprint
        )
        assert payload["provenance"]["totals"]["stages"] == len(
            report.provenance.stages
        )
        json.dumps(payload)

    def test_workflow_dossier_has_provenance_section(self):
        from repro.core.criteria import UseCaseProfile
        from repro.workflow import run_compliance_workflow

        data = make_intersectional(n=500, random_state=3)
        profile = UseCaseProfile(
            name="prov", sector="employment", jurisdiction="eu",
            n_protected_attributes=2,
        )
        dossier = run_compliance_workflow(
            data, profile, config=AuditConfig(tolerance=0.1),
        )
        assert dossier.provenance is not None
        markdown = dossier.to_markdown()
        assert "## Provenance (audit trail)" in markdown
        assert dossier.provenance.dataset_fingerprint in markdown
