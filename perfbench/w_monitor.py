"""``monitor_fleet``: one in-process producer feeding ``MonitorFleet``.

64 streams over two protected attributes (window 500, 250-row chunks,
``spending`` and ``cusum`` detectors).  A few streams start
discriminating at a known window.  The fleet runs in its own process
(:mod:`monitor_host`) so its memory and set-up are measured apart from
the benchmark's data generation.

Oracle (outside every timed region): each pass closes exactly
rows / window windows; every drifted stream alarms within
:data:`DETECT_WITHIN` windows of its onset; and every pass over the same
seeded feed raises exactly the same alarms on the null streams.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time

import numpy as np

from common import (
    BOOT,
    CHECKOUT,
    BenchError,
    Measurement,
    SpeedProbe,
    Tally,
    child_env,
    pinned,
    highest_supported,
    percentile,
    stop_process,
)
from inputs import MONITOR_WINDOW, monitor_feeds

#: a drifted stream must alarm at its onset window or the next two
DETECT_WITHIN = 3
WANTED_TAIL = 99


def _spawn(ctx, inputs, out, spans=None):
    cmd = [sys.executable, str(BOOT)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    cmd += ["monitor", "--inputs", str(inputs), "--out", str(out),
            "--seconds", str(ctx.seconds)]
    began = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=str(CHECKOUT), env=child_env(), stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, text=True, preexec_fn=pinned(ctx.cpu),
    )
    line = proc.stdout.readline().strip()
    if line != "ready":
        stop_process(proc)
        raise BenchError(f"monitor host did not start: {line!r}")
    return proc, (began, time.perf_counter())


def _send(proc, word: str, timeout: float = 170.0) -> None:
    proc.stdin.write(word + "\n")
    proc.stdin.flush()
    try:
        code = proc.wait(timeout=timeout)
    finally:
        stop_process(proc)
    if code != 0:
        raise BenchError(f"monitor host exited with code {code}")


def measure(ctx, *, traced: bool, trials: int) -> Measurement:
    feeds, drifted = monitor_feeds(ctx.seed)
    inputs = ctx.work / "feeds.npz"
    np.savez(inputs, **{
        f"{name}_{part}": array
        for name, arrays in feeds.items()
        for part, array in zip(("y", "p", "sex", "race"), arrays)
    })
    out = ctx.work / "monitor.json"
    spans = ctx.work / "spans.json" if traced else None
    starts = []
    probe = SpeedProbe(ctx.work, ctx.cpu)
    try:
        for trial in range(trials):
            proc, interval = _spawn(ctx, inputs, out, spans)
            starts.append(interval)
            if trial < trials - 1:
                _send(proc, "stop")
        _send(proc, "go")
    finally:
        probe.stop()
    with open(out, encoding="utf-8") as handle:
        result = json.load(handle)

    tally = Tally()
    passes = result["passes"]
    expected_windows = result["rows_per_pass"] // MONITOR_WINDOW
    first = passes[0]["events"]
    null_alarms = []
    for done in passes:
        tally.ok()
        if done["windows"] != expected_windows:
            tally.mismatch(
                f"{done['windows']} windows, expected {expected_windows}"
            )
        for name, onset in drifted.items():
            alarms = done["events"][name]
            if not any(onset <= w < onset + DETECT_WITHIN for w in alarms):
                tally.mismatch(f"drift on {name} at window {onset} missed")
        nulls = {
            name: windows for name, windows in done["events"].items()
            if name not in drifted
        }
        null_alarms.append(sum(len(w) for w in nulls.values()))
        if nulls != {n: w for n, w in first.items() if n not in drifted}:
            tally.mismatch("null-stream alarms differ between passes")

    slow = [probe.slowdown(lo, hi) for lo, hi in result["intervals"]]
    scaled_ms = [
        ms / factor
        for per_pass, factor in zip(result["window_ms"], slow)
        for ms in per_pass
    ]
    scaled_s = [s / factor for s, factor in zip(result["pass_s"], slow)]
    tail = highest_supported(len(scaled_ms), WANTED_TAIL)
    rows = result["rows_per_pass"] * len(passes)
    m = Measurement(tally)
    p50 = percentile(scaled_ms, 50)
    m.headline = p50
    m.e2e = {
        "setup_s": statistics.median(
            (hi - lo) / probe.slowdown(lo, hi) for lo, hi in starts
        ),
        "peak_rss_mb": result["peak_rss_mb"],
        "op_ms": p50,
        "op2_ms": percentile(scaled_ms, tail) if tail else max(scaled_ms),
        "work_per_s": rows / sum(scaled_s),
    }
    raw_ms = [ms for per_pass in result["window_ms"] for ms in per_pass]
    m.named = [
        ("setup_s", m.e2e["setup_s"], "s"),
        ("peak_rss_mb", m.e2e["peak_rss_mb"], "MB"),
        ("fail_ratio", tally.fail_ratio, "ratio"),
        ("monitor.rows_per_s", m.e2e["work_per_s"],
         "rows/s at reference speed"),
        ("monitor.window_ms_p50", p50,
         f"ms at reference speed (n={len(scaled_ms)})"),
        (f"monitor.window_ms_p{tail or 100}", m.e2e["op2_ms"],
         "ms at reference speed"),
        ("raw.monitor.rows_per_s", rows / sum(result["pass_s"]), "rows/s"),
        ("raw.monitor.window_ms_p50", percentile(raw_ms, 50), "ms"),
        ("raw.setup_s", statistics.median(hi - lo for lo, hi in starts),
         "s"),
        ("monitor.passes", len(passes), "count"),
        ("monitor.null_alarms_per_pass", null_alarms[0], "count"),
    ]
    per_pass = 1.0 / len(passes)
    m.layers = {
        "monitor.engine.windows": expected_windows,
        "monitor.engine.drift_events":
            sum(p["n_events"] for p in passes) * per_pass,
        "monitor.engine.null_alarms": float(null_alarms[0]),
    }
    if traced:
        from selftime import attributed, load_spans, self_times, trace_metrics

        with open(spans, encoding="utf-8") as handle:
            doc = json.load(handle)
        span_list = load_spans(doc)
        selfs = self_times(span_list)
        intervals = [("pass", lo, hi) for lo, hi in result["intervals"]]
        rows_, unattributed = attributed(
            intervals, span_list, selfs, lambda lo, hi: result["thread"]
        )
        m.layers.update(trace_metrics(span_list, selfs, len(passes)))
        m.layers["trace.unattributed_share"] = unattributed
        m.rows = rows_
        from selftime import shares

        share = shares(rows_)
        m.claims.append((
            "monitor.engine is the largest share",
            share.get("monitor.engine", 0.0) >= max(share.values()),
        ))
    return m
