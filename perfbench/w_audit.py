"""``audit_batch``: closed loop, one client, 2M-row packed audit jobs.

Each job audits its own freshly generated and packed ``make_hiring``
population (planted ``direct_bias`` against women), stratified by
``university``: submit, poll to a terminal status, fetch the result
preview.  No job repeats a cache key.

Oracle (outside every timed region): the stored report equals an
in-memory ``repro.audit()`` of the same rows, apart from provenance,
and the planted ``sex`` disparity is flagged.
"""

from __future__ import annotations

import json
import shutil
import statistics
import time

from common import Measurement, Tally, perf_interval, run_job
from inputs import hiring
from svc import ServicePhase

N_ROWS = 2_000_000
DIRECT_BIAS = 1.0
CONFIG = {"strata": "university"}
MIN_JOBS = 3
POLL_S = 0.02


def _expected_report(dataset) -> dict:
    import repro
    from repro import AuditConfig
    from repro.core.serialize import report_to_dict

    report = report_to_dict(
        repro.audit(dataset, config=AuditConfig.from_dict(dict(CONFIG)))
    )
    report.pop("provenance", None)
    return report


def _check(client, ref, expected, tally) -> None:
    status, raw = client.get(ref["result"] + "/raw")
    if status != 200:
        tally.mismatch(f"raw result answered {status}")
        return
    report = json.loads(raw)["report"]
    report.pop("provenance", None)
    if report != expected:
        tally.mismatch("streamed report differs from the in-memory audit")
    flagged = [
        f for f in report["findings"]
        if f["attribute"] == "sex" and f["metric"] == "demographic_parity"
        and f.get("result") and f["result"]["satisfied"] is False
    ]
    if not flagged:
        tally.mismatch("planted sex disparity not flagged")


def measure(ctx, *, traced: bool, trials: int) -> Measurement:
    tally = Tally()
    phase = ServicePhase(ctx, traced=traced, trials=trials)
    latencies, spans = [], []
    first_peak = 0.0
    try:
        index = 0
        while sum(latencies) < ctx.seconds or index < MIN_JOBS:
            dataset = hiring(ctx.seed, index, N_ROWS, DIRECT_BIAS)
            path = ctx.work / f"hiring-{index}.packed"
            phase.pack(dataset, path)
            expected = _expected_report(dataset)
            del dataset

            if index == 0:
                phase.reset_peak()
            began = time.perf_counter()
            status, ref, _ = run_job(
                phase.client,
                {"kind": "audit", "params": {"data": str(path)},
                 "config": CONFIG},
                poll_s=POLL_S,
            )
            if ref is not None and ref["status"] == "succeeded":
                status, _ = phase.client.get(ref["result"])
            ended = time.perf_counter()
            latencies.append(ended - began)
            spans.append((began, ended))
            if index == 0:
                first_peak = phase.peak_now()

            if ref is None or ref["status"] != "succeeded":
                tally.fail("error", f"job ended {ref and ref['status']}")
            elif tally.http(status):
                if ref["cache_hit"]:
                    tally.mismatch("a distinct dataset hit the cache")
                phase.record("audit", ref)
                _check(phase.client, ref, expected, tally)
            shutil.rmtree(path, ignore_errors=True)
            index += 1
    finally:
        phase.close()

    m = Measurement(tally)
    jobs = len(latencies)
    scaled = [
        seconds / phase.probe.slowdown(lo, hi)
        for seconds, (lo, hi) in zip(latencies, spans)
    ]
    runs = [
        (ref["finished_at"] - ref["started_at"])
        / phase.probe.slowdown(*perf_interval(ref))
        for _, ref in phase.jobs
    ]
    job_s = statistics.median(scaled)
    setup_s, start_raw, pack_raw = phase.setup()
    m.headline = job_s
    m.e2e = {
        "setup_s": setup_s,
        "peak_rss_mb": first_peak,
        "op_ms": job_s * 1000.0,
        "op2_ms": statistics.median(runs) * 1000.0 if runs else 0.0,
        "work_per_s": N_ROWS * jobs / sum(scaled),
    }
    m.named = [
        ("setup_s", m.e2e["setup_s"], "s"),
        ("peak_rss_mb", first_peak, "MB (first job after start)"),
        ("peak_rss_mb.run", phase.peak_rss_mb, "MB (whole run)"),
        ("fail_ratio", tally.fail_ratio, "ratio"),
        ("audit.job_s_p50", job_s, f"s at reference speed (n={jobs})"),
        ("audit.rows_per_s", m.e2e["work_per_s"], "rows/s at reference speed"),
        ("audit.run_ms_p50", m.e2e["op2_ms"], "ms at reference speed"),
        ("raw.audit.job_s_p50", statistics.median(latencies), "s"),
        ("raw.audit.rows_per_s", N_ROWS * jobs / sum(latencies), "rows/s"),
        ("raw.setup.server_start_s", start_raw, "s"),
        ("raw.setup.pack_s", pack_raw, f"s (n={len(phase.packs)})"),
    ]
    m.layers = phase.outside_metrics(jobs)
    if traced:
        layers, rows = phase.trace(jobs)
        m.layers.update(layers)
        m.rows = rows
        share = _group_shares(rows)
        m.claims.append((
            "accumulator ingest + finalize is the largest share",
            share["ingest+finalize"] >= max(
                v for k, v in share.items() if k != "ingest+finalize"
            ),
        ))
        m.claims.append((
            "httpd + journal + store < 1% of job time",
            share["httpd+journal+store"] < 0.01,
        ))
    return m


def _group_shares(rows) -> dict[str, float]:
    """Job-time shares with the claim's layers grouped together."""
    from selftime import shares

    raw = shares(rows)
    grouped = {
        "ingest+finalize": sum(
            raw.get(layer, 0.0) for layer in (
                "streaming.accumulator", "streaming.stream", "core.audit",
                "kernel", "stats.batch",
            )
        ),
        "httpd+journal+store": sum(
            raw.get(layer, 0.0)
            for layer in ("service.httpd", "service.journal", "service.store")
        ),
    }
    for layer, value in raw.items():
        if layer not in (
            "streaming.accumulator", "streaming.stream", "core.audit",
            "kernel", "stats.batch", "service.httpd", "service.journal",
            "service.store",
        ):
            grouped[layer] = value
    return grouped
