"""End-to-end telemetry: one trace_id from the HTTP edge to the pool
workers, Prometheus exposition of merged counters, and the /events feed.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.observability import (
    EventBus,
    MetricsRegistry,
    PROM_CONTENT_TYPE,
    TraceContext,
    Tracer,
    parse_prometheus,
    read_trace,
    use_event_bus,
)
from repro.service.httpd import serve


def _request(server, path, *, method="GET", body=None, headers=None):
    request = urllib.request.Request(
        f"http://127.0.0.1:{server.port}{path}",
        data=json.dumps(body).encode() if body is not None else None,
        headers={"Content-Type": "application/json", **(headers or {})},
        method=method,
    )
    with urllib.request.urlopen(request) as response:
        return response.status, dict(response.headers), response.read()


def _wait_done(server, job_id, timeout=120):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, _, raw = _request(server, f"/jobs/{job_id}")
        job = json.loads(raw)
        if job["status"] in (
            "succeeded", "failed", "cancelled", "interrupted"
        ):
            return job
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} never finished")


class TestTracedScanEndToEnd:
    # the pool scan (jobs=4) and the serial reference scan (jobs=1) are
    # both traced end to end
    @pytest.mark.parametrize(
        "jobs",
        [pytest.param(4, id="kernel-4"), pytest.param(1, id="reference-1")],
    )
    def test_one_trace_from_post_to_pool_chunks(
        self, make_engine, hiring_csv, tmp_path, jobs
    ):
        tracer = Tracer(run_id="svc")
        registry = MetricsRegistry()
        engine = make_engine(
            f"svc-{jobs}", tracer=tracer, metrics=registry
        )
        server = serve(engine)
        incoming = TraceContext.generate()
        try:
            status, _, raw = _request(
                server, "/jobs", method="POST",
                body={
                    "kind": "subgroups",
                    "params": {"data": hiring_csv},
                    "config": {"jobs": jobs, "min_size": 5},
                },
                headers={"traceparent": incoming.to_traceparent()},
            )
            assert status == 201
            job = json.loads(raw)
            assert job["trace_id"] == incoming.trace_id
            done = _wait_done(server, job["job_id"])
            assert done["status"] == "succeeded"
        finally:
            server.shutdown()

        out = tmp_path / "trace.jsonl"
        tracer.write(out)
        lines = read_trace(out)
        spans = [l for l in lines if l.get("kind") == "span"]

        # one trace: every span carries the caller's trace_id
        assert {s["trace_id"] for s in spans} == {incoming.trace_id}

        # the parent chain is fully resolvable, up to the caller's span
        ids = {s["span_id"] for s in spans}
        for span in spans:
            parent = span.get("parent_span_id")
            assert parent in ids or parent == incoming.span_id

        # the request span heads the in-service tree...
        request_span = next(
            s for s in spans if s["name"] == "http.request"
        )
        assert request_span["parent_span_id"] == incoming.span_id
        job_span = next(s for s in spans if s["name"] == "service.job")
        assert job_span["parent_span_id"] == request_span["span_id"]

        if jobs > 1:
            # ...and the deepest chunk spans ran in pool-worker processes
            chunk_spans = [
                s for s in spans if s["name"] == "subgroups.score_chunk"
            ]
            assert chunk_spans
            meta = next(
                l for l in lines if l.get("kind") == "trace_meta"
            )
            assert all(
                s["process_id"] != meta["process_id"]
                for s in chunk_spans
            )
            # worker metric deltas merged into the engine registry
            snapshot = registry.snapshot()
            assert snapshot["counters"]["subgroups.chunks_scored"] >= 1
            assert snapshot["counters"]["subgroups.entries_scored"] >= 1
        else:
            scan_span = next(
                s for s in spans if s["name"] == "subgroups.scan"
            )
            assert scan_span["trace_id"] == incoming.trace_id

    def test_unsampled_traceparent_suppresses_spans(
        self, make_engine, hiring_csv
    ):
        tracer = Tracer(run_id="svc")
        engine = make_engine("svc-unsampled", tracer=tracer)
        server = serve(engine)
        incoming = TraceContext(
            trace_id=TraceContext.generate().trace_id,
            span_id=TraceContext.generate().span_id,
            sampled=False,
        )
        try:
            status, _, raw = _request(
                server, "/jobs", method="POST",
                body={"kind": "audit", "params": {"data": hiring_csv}},
                headers={"traceparent": incoming.to_traceparent()},
            )
            assert status == 201
            _wait_done(server, json.loads(raw)["job_id"])
        finally:
            server.shutdown()
        assert not any(
            span.name == "http.request" for span in tracer.spans
        )

    def test_sample_rate_zero_heads_no_traces(
        self, make_engine, hiring_csv
    ):
        tracer = Tracer(run_id="svc")
        engine = make_engine("svc-rate0", tracer=tracer)
        server = serve(engine, trace_sample_rate=0.0)
        try:
            status, _, raw = _request(
                server, "/jobs", method="POST",
                body={"kind": "audit", "params": {"data": hiring_csv}},
            )
            assert status == 201
            _wait_done(server, json.loads(raw)["job_id"])
        finally:
            server.shutdown()
        assert not any(
            span.name == "http.request" for span in tracer.spans
        )


class TestMetricsRoute:
    def test_prometheus_exposition_includes_scan_counters(
        self, make_engine, hiring_csv
    ):
        registry = MetricsRegistry()
        engine = make_engine("svc-prom", metrics=registry)
        server = serve(engine)
        try:
            _, _, raw = _request(
                server, "/jobs", method="POST",
                body={
                    "kind": "subgroups",
                    "params": {"data": hiring_csv},
                    "config": {"jobs": 2, "min_size": 5},
                },
            )
            _wait_done(server, json.loads(raw)["job_id"])
            status, headers, raw = _request(server, "/metrics")
            assert status == 200
            assert headers["Content-Type"] == PROM_CONTENT_TYPE
            families = parse_prometheus(raw.decode())
        finally:
            server.shutdown()
        # pool-worker counters merged on join, visible at the edge
        assert "repro_subgroups_chunks_scored_total" in families
        assert "repro_service_jobs_submitted_total" in families
        assert "repro_service_job_elapsed" in families

    def test_json_snapshot_behind_accept_header(self, make_engine):
        engine = make_engine("svc-json")
        server = serve(engine)
        try:
            status, headers, raw = _request(
                server, "/metrics",
                headers={"Accept": "application/json"},
            )
        finally:
            server.shutdown()
        assert status == 200
        assert headers["Content-Type"].startswith("application/json")
        snapshot = json.loads(raw)
        assert set(snapshot) >= {"counters", "histograms"}


class TestEventsRoute:
    def test_events_cursor_pagination_and_kind_filter(self, make_engine):
        with use_event_bus(EventBus()) as bus:
            engine = make_engine("svc-events")
            server = serve(engine)
            try:
                bus.publish("monitor.drift", stream="s1", delta=0.2)
                bus.publish("job.failed", job_id="x")
                bus.publish("job.rejected", job_kind="audit")

                _, _, raw = _request(server, "/events")
                feed = json.loads(raw)
                assert feed["last_seq"] == 3
                assert [e["kind"] for e in feed["events"]] == [
                    "monitor.drift", "job.failed", "job.rejected",
                ]

                _, _, raw = _request(server, "/events?since=1")
                assert len(json.loads(raw)["events"]) == 2

                _, _, raw = _request(server, "/events?kind=job")
                assert [
                    e["kind"] for e in json.loads(raw)["events"]
                ] == ["job.failed", "job.rejected"]

                _, _, raw = _request(server, "/events?limit=1")
                assert [
                    e["kind"] for e in json.loads(raw)["events"]
                ] == ["monitor.drift"]
            finally:
                server.shutdown()

    def test_bad_cursor_is_400(self, make_engine):
        engine = make_engine("svc-events-bad")
        server = serve(engine)
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _request(server, "/events?since=nope")
            assert excinfo.value.code == 400
        finally:
            server.shutdown()

    def test_failed_job_publishes_event(
        self, make_engine, fault_injector, hiring_csv
    ):
        fault_injector.inject_error(
            "service.job", RuntimeError("chaos"), times=1
        )
        with use_event_bus(EventBus()):
            engine = make_engine("svc-events-fail", faults=fault_injector)
            server = serve(engine)
            try:
                status, _, raw = _request(
                    server, "/jobs", method="POST",
                    body={
                        "kind": "audit",
                        "params": {"data": hiring_csv},
                    },
                )
                assert status == 201
                done = _wait_done(server, json.loads(raw)["job_id"])
                assert done["status"] == "failed"
                _, _, raw = _request(server, "/events?kind=job.failed")
                events = json.loads(raw)["events"]
            finally:
                server.shutdown()
        assert len(events) == 1
        assert events[0]["payload"]["job_id"] == done["job_id"]
        assert events[0]["payload"]["error_type"] == "RuntimeError"
