"""The process that hosts the monitoring fleet under test.

Started through ``boot.py monitor``.  It imports the library, loads the
generated per-stream feeds, builds the fleet, prints ``ready`` and waits
for one line on stdin: ``stop`` ends it there (a set-up trial), ``go``
runs the measurement.  A measurement is a series of passes; each pass
feeds every stream's rows through a fresh :class:`MonitorFleet` in
250-row chunks, round-robin across streams, timing every ``observe``
call.  Passes repeat until ``--seconds`` of pass time has accrued.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time

import numpy as np

from common import vm_hwm_mb
from inputs import MONITOR_CHUNK, MONITOR_WINDOW

MIN_PASSES = 2


def _fleet():
    from repro.core.config import AuditConfig, MonitorConfig
    from repro.monitor import MonitorFleet

    return MonitorFleet(
        ["sex", "race"],
        config=AuditConfig(),
        monitor=MonitorConfig(
            window=MONITOR_WINDOW, detectors=("spending", "cusum")
        ),
    )


def _chunks(inputs: str):
    with np.load(inputs) as data:
        names = sorted({key.rsplit("_", 1)[0] for key in data.files})
        arrays = {
            name: tuple(data[f"{name}_{part}"]
                        for part in ("y", "p", "sex", "race"))
            for name in names
        }
    n = len(arrays[names[0]][0])
    chunks = []
    for lo in range(0, n, MONITOR_CHUNK):
        hi = lo + MONITOR_CHUNK
        for name in names:
            y, p, sex, race = arrays[name]
            chunks.append((name, y[lo:hi], p[lo:hi],
                           {"sex": sex[lo:hi], "race": race[lo:hi]}))
    return names, chunks, n * len(names)


def main(argv, recorder=None) -> int:
    parser = argparse.ArgumentParser(prog="boot.py monitor")
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)

    names, chunks, rows_per_pass = _chunks(args.inputs)
    fleet = _fleet()
    for name in names:
        fleet.add_stream(name)
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    window_ms, pass_s, intervals, passes = [], [], [], []
    while sum(pass_s) < args.seconds or len(pass_s) < MIN_PASSES:
        fleet = _fleet()
        for name in names:
            fleet.add_stream(name)
        closing = []
        began = time.perf_counter()
        for name, y, p, protected in chunks:
            start = time.perf_counter()
            closed = fleet.observe(name, y_true=y, predictions=p,
                                   protected=protected)
            if closed:
                closing.append((time.perf_counter() - start) * 1000.0)
        ended = time.perf_counter()
        window_ms.append(closing)
        pass_s.append(ended - began)
        intervals.append((began, ended))
        passes.append({
            "windows": sum(len(fleet.stream(n).windows) for n in names),
            "events": {
                n: sorted({e.window for e in fleet.stream(n).drift_events})
                for n in names
            },
            "n_events": sum(len(fleet.stream(n).drift_events) for n in names),
        })
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump({
            "window_ms": window_ms,
            "pass_s": pass_s,
            "intervals": intervals,
            "passes": passes,
            "rows_per_pass": rows_per_pass,
            "thread": threading.get_ident(),
            "peak_rss_mb": vm_hwm_mb(os.getpid()),
        }, handle)
    return 0
