"""Pool-worker telemetry: spill files, delta merges, crash tolerance."""

from __future__ import annotations

import json
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import ScanConfig
from repro.data import make_intersectional
from repro.exceptions import ValidationError
from repro.kernel import read_spills, score_chunk, score_chunk_telemetry
from repro.observability import (
    MetricsRegistry,
    TraceContext,
    Tracer,
    read_trace,
    use_metrics,
)
from repro.observability.metrics import RESERVOIR_SIZE
from repro.subgroup.auditor import audit_subgroups


class TestSpillFiles:
    def test_worker_writes_spans_and_delta(self, tmp_path):
        context = TraceContext.generate()
        result = score_chunk_telemetry(
            [(5, 20), (9, 30)], 50, 100,
            {"dir": str(tmp_path), "lo": 0, "hi": 2,
             "context": context.to_dict(), "run_id": "r1"},
        )
        assert result == score_chunk([(5, 20), (9, 30)], 50, 100)
        spills = read_spills(tmp_path)
        assert len(spills) == 1
        spans = spills[0]["spans"]
        assert any(
            s.get("name") == "subgroups.score_chunk" for s in spans
        )
        # the chunk span continues the parent's trace
        chunk = next(
            s for s in spans if s.get("name") == "subgroups.score_chunk"
        )
        assert chunk["trace_id"] == context.trace_id
        assert chunk["parent_span_id"] == context.span_id
        assert len(spills[0]["deltas"]) == 1

    def test_tracing_off_still_spills_metrics(self, tmp_path):
        score_chunk_telemetry(
            [(1, 10)], 5, 50,
            {"dir": str(tmp_path), "lo": 0, "hi": 1, "context": None},
        )
        spills = read_spills(tmp_path)
        assert len(spills) == 1
        assert spills[0]["spans"] == []
        assert spills[0]["created"] is not None
        registry = MetricsRegistry()
        registry.merge_delta(spills[0]["deltas"][0])
        snapshot = registry.snapshot()
        assert snapshot["counters"]["subgroups.chunks_scored"] == 1
        assert snapshot["counters"]["subgroups.entries_scored"] == 1

    def test_torn_spill_from_killed_worker_is_skipped(self, tmp_path):
        score_chunk_telemetry(
            [(1, 10)], 5, 50,
            {"dir": str(tmp_path), "lo": 0, "hi": 1, "context": None},
        )
        # a worker killed mid-write leaves a torn file; one killed
        # before writing leaves an empty one
        (tmp_path / "chunk-1-2.jsonl").write_text(
            '{"kind": "spill_meta", "created": 1.0, "proc'
        )
        (tmp_path / "chunk-2-3.jsonl").write_text("")
        spills = read_spills(tmp_path)
        assert len(spills) == 1

    def test_torn_delta_line_cannot_corrupt_parent(self, tmp_path):
        path = tmp_path / "chunk-0-1.jsonl"
        delta_line = json.dumps({
            "kind": "metrics_delta",
            "delta": {"counters": [
                ["subgroups.chunks_scored", {}, 1],
            ]},
        })
        path.write_text(
            json.dumps(
                {"kind": "spill_meta", "created": 1.0, "process_id": 1}
            ) + "\n" + delta_line[: len(delta_line) // 2]
        )
        spills = read_spills(tmp_path)
        registry = MetricsRegistry()
        registry.counter("subgroups.chunks_scored").inc(7)
        for spill in spills:
            for delta in spill["deltas"]:
                registry.merge_delta(delta)
        assert (
            registry.counter("subgroups.chunks_scored").value == 7
        )

    def test_missing_dir_reads_as_no_spills(self, tmp_path):
        assert read_spills(tmp_path / "never-created") == []


class TestDeltaValidation:
    def test_malformed_delta_rejected_whole(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(3)
        with pytest.raises(ValidationError):
            registry.merge_delta({
                "counters": [
                    ["a", {}, 2],
                    ["b", {}],  # no value
                ],
            })
        # all-or-nothing: the valid first entry must not have applied
        assert registry.counter("a").value == 3

    def test_histogram_bounds_mismatch_rejected_before_any_apply(self):
        parent = MetricsRegistry()
        parent.histogram("h", buckets=(1.0, 2.0)).observe(0.5)
        parent.counter("c").inc(1)

        child = MetricsRegistry()
        child.counter("c").inc(5)
        child.histogram("h", buckets=(5.0, 10.0)).observe(7.0)
        with pytest.raises(ValidationError):
            parent.merge_delta(child.delta())
        assert parent.counter("c").value == 1

    def test_valid_delta_roundtrips_through_json(self):
        child = MetricsRegistry()
        child.counter("jobs", kind="audit").inc(2)
        child.gauge("depth").set(4)
        for value in (0.01, 0.2, 1.5):
            child.observe("latency", value)
        parent = MetricsRegistry()
        parent.counter("jobs", kind="audit").inc(1)
        parent.merge_delta(json.loads(json.dumps(child.delta())))
        snapshot = parent.snapshot()
        assert snapshot["counters"]['jobs{kind="audit"}'] == 3
        assert snapshot["histograms"]["latency"]["count"] == 3


class TestConcurrentRegistry:
    def test_label_map_access_is_thread_safe(self):
        registry = MetricsRegistry()
        errors = []

        def pump(worker):
            try:
                for index in range(300):
                    registry.counter(
                        "scan.chunks", worker=str(worker % 4)
                    ).inc()
                    registry.observe(
                        "scan.latency", index / 1000.0,
                        worker=str(worker % 4),
                    )
                    registry.gauge("scan.active").set(worker)
            except Exception as exc:  # noqa: BLE001 — collected below
                errors.append(exc)

        threads = [
            threading.Thread(target=pump, args=(worker,))
            for worker in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        total = sum(
            registry.counter("scan.chunks", worker=str(w)).value
            for w in range(4)
        )
        assert total == 8 * 300

    def test_concurrent_merge_delta_and_collect(self):
        parent = MetricsRegistry()
        child = MetricsRegistry()
        child.counter("c").inc()
        child.observe("h", 0.1)
        delta = child.delta()
        errors = []

        def merger():
            try:
                for _ in range(100):
                    parent.merge_delta(delta)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        def collector():
            try:
                for _ in range(100):
                    parent.collect()
                    parent.snapshot()
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=merger) for _ in range(3)]
        threads += [threading.Thread(target=collector) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert parent.counter("c").value == 300


class TestHistogramBounds:
    def test_reservoir_memory_is_bounded(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("latency")
        for index in range(50_000):
            histogram.observe(index / 50_000.0)
        assert len(histogram._reservoir) <= RESERVOIR_SIZE
        assert histogram.count == 50_000

    def test_percentiles_within_tolerance_at_scale(self):
        rng = np.random.default_rng(11)
        values = rng.exponential(0.1, size=20_000)
        registry = MetricsRegistry()
        histogram = registry.histogram("latency")
        for value in values:
            histogram.observe(float(value))
        snapshot = histogram.snapshot()
        true_p50 = float(np.percentile(values, 50))
        true_p95 = float(np.percentile(values, 95))
        # sampled percentiles (1024-sample reservoir): 15% relative
        # tolerance is the contract; the seeded RNG keeps this exact
        assert abs(snapshot["p50"] - true_p50) / true_p50 < 0.15
        assert abs(snapshot["p95"] - true_p95) / true_p95 < 0.15
        assert snapshot["count"] == 20_000
        assert snapshot["max"] == pytest.approx(float(values.max()))

    def test_exact_percentiles_below_reservoir_capacity(self):
        histogram = MetricsRegistry().histogram("h")
        for value in range(1, 101):
            histogram.observe(float(value))
        snapshot = histogram.snapshot()
        assert snapshot["p50"] == pytest.approx(50.5, abs=1.0)
        assert snapshot["p95"] == pytest.approx(95.05, abs=1.0)


class TestParallelScanTelemetry:
    @pytest.fixture(scope="class")
    def dataset(self):
        return make_intersectional(400, random_state=3)

    def test_parallel_scan_merges_one_trace(self, dataset, tmp_path):
        tracer = Tracer(run_id="scan")
        registry = MetricsRegistry()
        with use_metrics(registry):
            with tracer.span("cli.subgroups"):
                audit_subgroups(
                    dataset.labels(), dataset,
                    scan_config=ScanConfig(jobs=2), tracer=tracer,
                )
        out = tmp_path / "trace.jsonl"
        tracer.write(out)
        lines = read_trace(out)
        spans = [l for l in lines if l.get("kind") == "span"]
        trace_ids = {s["trace_id"] for s in spans}
        assert trace_ids == {tracer.trace_id}
        # every parent_span_id resolves within the merged trace
        ids = {s["span_id"] for s in spans}
        for span in spans:
            if span.get("parent_span_id"):
                assert span["parent_span_id"] in ids
        # chunk spans come from other processes
        chunk_spans = [
            s for s in spans if s["name"] == "subgroups.score_chunk"
        ]
        assert chunk_spans
        parent_pid = next(
            l for l in lines if l.get("kind") == "trace_meta"
        )["process_id"]
        assert all(
            s["process_id"] != parent_pid for s in chunk_spans
        )

    def test_parallel_scan_merges_worker_counters(self, dataset):
        registry = MetricsRegistry()
        with use_metrics(registry):
            findings = audit_subgroups(
                dataset.labels(), dataset, scan_config=ScanConfig(jobs=2)
            )
        snapshot = registry.snapshot()
        assert snapshot["counters"]["subgroups.chunks_scored"] >= 1
        # every scored entry is a non-first-order subgroup
        assert snapshot["counters"]["subgroups.entries_scored"] > 0
        assert "subgroups.chunk_seconds" in snapshot["histograms"]
        assert len(findings) > 0
