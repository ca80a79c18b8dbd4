"""The tentpole guarantee: streamed == in-memory, byte for byte.

Every test compares a streaming-engine report against the in-memory
:class:`FairnessAudit` of the concatenated data, with provenance
(per-run metadata: timings, fingerprints of the audited artifact)
neutralised on both sides.  The ``backend`` parametrisation picks what
computes the in-memory side: ``"kernel"`` is the library, and
``"reference"`` the pre-kernel battery of the test oracle
(:func:`tests.oracle.reference_battery`), so a streamed report must
also equal a whole pre-kernel audit.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np
import pytest

from repro.core.audit import FairnessAudit
from repro.core.config import AuditConfig
from repro.streaming import (
    AuditAccumulator,
    accumulator_for,
    audit_stream,
    finalize,
)

from tests.oracle import reference_battery
from tests.streaming.conftest import chunked, comparable, comparable_markdown

BACKENDS = ("kernel", "reference")


def reference_report(dataset, predictions, config, backend="kernel"):
    """The in-memory audit, on the library or on the oracle battery."""
    battery = reference_battery if backend == "reference" else nullcontext
    with battery():
        return FairnessAudit(
            dataset, predictions=predictions, config=config
        ).run()


@pytest.mark.parametrize("backend", BACKENDS)
class TestChunkedEquivalence:
    def test_model_audit_dict_identical(self, hiring, predictions, backend):
        config = AuditConfig(tolerance=0.05)
        ref = reference_report(hiring, predictions, config, backend)
        stream = audit_stream(chunked(hiring, predictions), config)
        assert comparable(stream) == comparable(ref)

    def test_model_audit_markdown_identical(
        self, hiring, predictions, backend
    ):
        config = AuditConfig(tolerance=0.05)
        ref = reference_report(hiring, predictions, config, backend)
        stream = audit_stream(chunked(hiring, predictions), config)
        assert comparable_markdown(stream) == comparable_markdown(ref)

    def test_data_audit_identical(self, hiring, backend):
        config = AuditConfig(tolerance=0.05)
        ref = reference_report(hiring, None, config, backend)
        stream = audit_stream(chunked(hiring), config)
        assert comparable(stream) == comparable(ref)
        assert comparable_markdown(stream) == comparable_markdown(ref)

    def test_stratified_audit_identical(self, hiring, predictions, backend):
        config = AuditConfig(tolerance=0.05, strata="university")
        ref = reference_report(hiring, predictions, config, backend)
        stream = audit_stream(chunked(hiring, predictions), config)
        assert comparable(stream) == comparable(ref)
        assert comparable_markdown(stream) == comparable_markdown(ref)

    def test_metric_subset_identical(self, hiring, predictions, backend):
        config = AuditConfig(
            metrics=("demographic_parity", "disparate_impact_ratio")
        )
        ref = reference_report(hiring, predictions, config, backend)
        stream = audit_stream(chunked(hiring, predictions), config)
        assert comparable(stream) == comparable(ref)


@pytest.mark.parametrize("backend", BACKENDS)
class TestShardedEquivalence:
    def test_merged_shards_identical(self, hiring, predictions, backend):
        config = AuditConfig(tolerance=0.05)
        shards = []
        bounds = [(0, 300), (300, 520), (520, 900)]
        for lo, hi in bounds:
            acc = accumulator_for(hiring)
            idx = np.arange(lo, hi)
            acc.ingest_dataset(hiring.take(idx), predictions[lo:hi])
            shards.append(acc)
        merged = AuditAccumulator.merge_all(shards)
        ref = reference_report(hiring, predictions, config, backend)
        report = finalize(merged, config)
        assert comparable(report) == comparable(ref)
        assert comparable_markdown(report) == comparable_markdown(ref)

    def test_serialised_shards_identical(
        self, hiring, predictions, backend, tmp_path
    ):
        config = AuditConfig()
        paths = []
        for shard, (lo, hi) in enumerate([(0, 450), (450, 900)]):
            acc = accumulator_for(hiring)
            acc.ingest_dataset(
                hiring.take(np.arange(lo, hi)), predictions[lo:hi]
            )
            path = tmp_path / f"shard{shard}.json"
            acc.save(path)
            paths.append(path)
        from repro.streaming import merge_states

        merged = merge_states(paths)
        ref = reference_report(hiring, predictions, config, backend)
        report = finalize(merged, config)
        assert comparable(report) == comparable(ref)


class TestChunkSizeInvariance:
    @pytest.mark.parametrize("size", (1, 7, 100, 899, 900, 5000))
    def test_any_chunking_identical(self, hiring, predictions, size):
        config = AuditConfig()
        ref = comparable(reference_report(hiring, predictions, config))
        stream = audit_stream(chunked(hiring, predictions, size=size), config)
        assert comparable(stream) == ref

    def test_backends_agree_on_stream(self, hiring, predictions):
        # finalizing a stream runs FairnessAudit, so the oracle battery
        # can finalize it too
        config = AuditConfig()
        reports = {"kernel": comparable(
            audit_stream(chunked(hiring, predictions), config)
        )}
        with reference_battery():
            reports["reference"] = comparable(
                audit_stream(chunked(hiring, predictions), config)
            )
        assert reports["kernel"] == reports["reference"]


class TestFacadeEquivalence:
    def test_facade_routes_all_three_forms(self, hiring, predictions):
        from repro import audit

        config = AuditConfig(tolerance=0.05)
        in_memory = audit(hiring, predictions=predictions, config=config)
        streamed = audit(chunked(hiring, predictions), config=config)
        acc = accumulator_for(hiring)
        acc.ingest_dataset(hiring, predictions)
        counted = audit(acc, config=config)
        assert (
            comparable(in_memory) == comparable(streamed) == comparable(counted)
        )
