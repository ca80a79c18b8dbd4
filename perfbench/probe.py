"""A speed probe that shares the CPU of the system under test.

Usage::

    python3 perfbench/probe.py [--cpu N] --out FILE

Pinned to the same CPU as the program under test, it wakes every
:data:`PERIOD_S` seconds, times a fixed slice of interpreter work that
fits in the first-level caches (:func:`sample`), and sleeps again:
about 3% of the CPU.  Staying in cache keeps the program's own memory
traffic from slowing the probe.  On
SIGTERM it writes ``[[start, seconds], ...]`` (``perf_counter`` clock,
which every process on the machine shares) to ``FILE``.

Other tenants of a shared machine slow each CPU by up to 2x for seconds
at a time; the probe's durations tell how slow the CPU was during each
measured operation (see :class:`common.SpeedProbe`).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import time

PERIOD_S = 0.025


def sample() -> float:
    """Seconds one fixed slice of interpreter work takes."""
    began = time.perf_counter()
    total = 0
    for i in range(10_000):
        total += i * i
    return time.perf_counter() - began


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--cpu", type=int, default=None)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    stop = []
    signal.signal(signal.SIGTERM, lambda signum, frame: stop.append(1))
    samples = []
    print("ready", flush=True)
    while not stop:
        began = time.perf_counter()
        samples.append((began, sample()))
        time.sleep(PERIOD_S)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(samples, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
