"""``scan_lattice``: closed loop, one client, two scan engines per lattice.

Each distinct 12k-row lattice pack (five 7-category protected
attributes, one planted order-2 disparity) gets one default-path
``subgroups`` job (``config`` max_order 3, min_size 20, which runs the
exhaustive ``audit_subgroups``) and one inline ``scan_config``
best-first job.  Which runs first alternates from pack to pack.

Oracle (outside every timed region): both strategies return the same
flagged subgroups with the same adjusted p-values, and the planted
subgroup is flagged.
"""

from __future__ import annotations

import json
import statistics
import time

from common import Measurement, Tally, run_job
from inputs import PLANTED, lattice
from svc import ServicePhase

#: 12k rows hold ~10k lattice cells.  At 24k a pair of jobs takes
#: ~9.5 s on a 2-vCPU machine, so a run held two lattices and its
#: medians spread 9-14% from run to run; at 12k it holds three.
N_ROWS = 12_000
MAX_ORDER = 3
MIN_SIZE = 20
MIN_PACKS = 3
POLL_S = 0.02


def _bodies(path: str) -> dict:
    return {
        "exhaustive": {
            "kind": "subgroups",
            "params": {"data": path},
            "config": {"max_order": MAX_ORDER, "min_size": MIN_SIZE},
        },
        "best_first": {
            "kind": "subgroups",
            "params": {
                "data": path,
                "scan_config": {
                    "strategy": "best_first",
                    "max_order": MAX_ORDER,
                    "min_size": MIN_SIZE,
                },
            },
        },
    }


def _flagged(payload: dict) -> list:
    return sorted(
        (json.dumps(f["conditions"]), f["adjusted_p_value"])
        for f in payload["findings"]
        if f["significant"]
    )


def measure(ctx, *, traced: bool, trials: int) -> Measurement:
    tally = Tally()
    phase = ServicePhase(ctx, traced=traced, trials=trials)
    #: (start, end) of every job, submit to result preview
    latencies: dict[str, list[tuple]] = {"exhaustive": [], "best_first": []}
    evaluated_ratio = []
    planted = json.dumps([list(pair) for pair in PLANTED])
    try:
        index = 0
        while (
            sum(hi - lo for v in latencies.values() for lo, hi in v)
            < ctx.seconds
            or index < MIN_PACKS
        ):
            dataset = lattice(ctx.seed, index, N_ROWS)
            path = ctx.work / f"lattice-{index}.packed"
            phase.pack(dataset, path)
            del dataset
            bodies = _bodies(str(path))
            order = ["exhaustive", "best_first"]
            if index % 2:
                order.reverse()
            results = {}
            for strategy in order:
                began = time.perf_counter()
                status, ref, _ = run_job(
                    phase.client, bodies[strategy], poll_s=POLL_S
                )
                if ref is not None and ref["status"] == "succeeded":
                    status, _ = phase.client.get(ref["result"])
                ended = time.perf_counter()
                latencies[strategy].append((began, ended))
                if ref is None or ref["status"] != "succeeded":
                    tally.fail("error", f"{strategy} job ended "
                               f"{ref and ref['status']}")
                    continue
                if not tally.http(status):
                    continue
                phase.record(strategy, ref)
                raw_status, raw = phase.client.get(ref["result"] + "/raw")
                if raw_status != 200:
                    tally.mismatch(f"raw result answered {raw_status}")
                    continue
                results[strategy] = json.loads(raw)
            if len(results) == 2:
                flagged = _flagged(results["exhaustive"])
                if flagged != _flagged(results["best_first"]):
                    tally.mismatch("strategies disagree on flagged subgroups")
                if not any(cond == planted for cond, _ in flagged):
                    tally.mismatch("planted subgroup not flagged")
                scan = results["best_first"]["scan"]
                evaluated_ratio.append(scan["evaluated"] / scan["total"])
            index += 1
    finally:
        phase.close()

    m = Measurement(tally)
    raw = {k: [hi - lo for lo, hi in v] for k, v in latencies.items()}
    scaled = {
        k: [(hi - lo) / phase.probe.slowdown(lo, hi) for lo, hi in v]
        for k, v in latencies.items()
    }
    jobs = sum(len(v) for v in raw.values())
    best = statistics.median(scaled["best_first"])
    exhaustive = statistics.median(scaled["exhaustive"])
    setup_s, start_raw, pack_raw = phase.setup()
    m.headline = best
    m.e2e = {
        "setup_s": setup_s,
        "peak_rss_mb": phase.peak_rss_mb,
        "op_ms": best * 1000.0,
        "op2_ms": exhaustive * 1000.0,
        "work_per_s": N_ROWS * jobs / sum(map(sum, scaled.values())),
    }
    n = len(raw["best_first"])
    m.named = [
        ("setup_s", m.e2e["setup_s"], "s"),
        ("peak_rss_mb", phase.peak_rss_mb, "MB"),
        ("fail_ratio", tally.fail_ratio, "ratio"),
        ("scan.best_first_s_p50", best, f"s at reference speed (n={n})"),
        ("scan.exhaustive_s_p50", exhaustive,
         f"s at reference speed (n={len(raw['exhaustive'])})"),
        ("scan.rows_per_s", m.e2e["work_per_s"], "rows/s at reference speed"),
        ("raw.scan.best_first_s_p50", statistics.median(raw["best_first"]),
         "s"),
        ("raw.scan.exhaustive_s_p50", statistics.median(raw["exhaustive"]),
         "s"),
        ("raw.setup.server_start_s", start_raw, "s"),
        ("raw.setup.pack_s", pack_raw, f"s (n={len(phase.packs)})"),
    ]
    m.layers = phase.outside_metrics(jobs)
    m.layers["subgroup.search.evaluated_ratio"] = (
        statistics.mean(evaluated_ratio) if evaluated_ratio else 0.0
    )
    if traced:
        layers, rows = phase.trace(jobs)
        m.layers.update(layers)
        m.rows = rows
        from selftime import shares

        share = shares(rows, {"best_first"})
        checkpoint = share.get("robustness.checkpoint", 0.0)
        to_dict = _to_dict_share(phase)
        others = {
            layer: value for layer, value in share.items()
            if layer not in ("robustness.checkpoint", "streaming.accumulator")
        }
        others["streaming.accumulator (not to_dict)"] = (
            share.get("streaming.accumulator", 0.0) - to_dict
        )
        m.claims.append((
            "checkpoint + to_dict is the largest share of best-first jobs",
            checkpoint + to_dict >= max(others.values(), default=0.0),
        ))
    return m


def _to_dict_share(phase) -> float:
    """Share of best-first job time spent in ``AuditAccumulator.to_dict``."""
    from selftime import EPSILON_S

    total = spent = 0.0
    for label, ref in phase.jobs:
        if label != "best_first":
            continue
        lo = ref["started_at"] + phase.offset - EPSILON_S
        hi = ref["finished_at"] + phase.offset + EPSILON_S
        total += ref["finished_at"] - ref["started_at"]
        spent += sum(
            phase.selfs[s.id] for s in phase.spans
            if s.name == "streaming.accumulator:to_dict"
            and s.start >= lo and s.end <= hi
        )
    return spent / total if total else 0.0
