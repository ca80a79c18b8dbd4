"""The repository benchmark: one outside-in command per workload.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

``--trace 0`` measures the end-to-end metrics with tracing off.
``edge_mixed`` runs by name and under ``--all`` but is not in
``BENCHMARK.json`` (see ``catalog.EXTRA_WORKLOADS``).
``--trace 1`` measures the workload twice, untraced and then through the
tracing bootstrap, and reports the per-layer metrics, including the
tracing overhead between the two.  ``--all`` runs every workload with
tracing off, each in its own process, and prints every workload's named
metrics.

Every run prints a table of named metrics and, as its last line, one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  It
exits 0 when every output was correct, 1 when an oracle found a wrong
answer or an operation failed, and 2 when it cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from catalog import (  # noqa: E402
    END_TO_END,
    EXTRA_WORKLOADS,
    PER_LAYER,
    SLOTS,
    UNATTRIBUTED_TOLERANCE,
    WORKLOADS,
)
from common import (  # noqa: E402
    CHECKOUT,
    BenchError,
    metric,
    place_processes,
    print_table,
    require_sources,
    result_line,
)

WORK_ROOT = CHECKOUT / ".bench_work"


class Context:
    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = WORK_ROOT / f"{workload}-{os.getpid()}"
        #: the CPUs the system under test and this process are pinned to
        #: (None: not pinned to a single CPU)
        self.cpu, self.bench_cpu = place_processes()


def _module(workload: str):
    import importlib

    return importlib.import_module(
        {
            "audit_batch": "w_audit",
            "scan_lattice": "w_scan",
            "monitor_fleet": "w_monitor",
            "edge_mixed": "w_edge",
        }[workload]
    )


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    require_sources()
    module = _module(workload)
    ctx = Context(workload, seed, seconds)
    shutil.rmtree(ctx.work, ignore_errors=True)
    ctx.work.mkdir(parents=True)
    try:
        if not trace:
            m = module.measure(ctx, traced=False, trials=3)
            print_table(f"{workload} (seed {seed}, tracing off)", m.named)
            _print_notes(m.tally)
            metrics = {
                name: metric(m.e2e[name], unit)
                for name, unit, _, _ in END_TO_END
            }
            print(result_line(m.tally, metrics, m.correct))
            return 0 if m.correct else 1
        base = module.measure(ctx, traced=False, trials=1)
        shutil.rmtree(ctx.work, ignore_errors=True)
        ctx.work.mkdir(parents=True)
        m = module.measure(ctx, traced=True, trials=1)
        m.layers["trace.overhead_ratio"] = (
            m.headline / base.headline if base.headline else 0.0
        )
        m.tally.merge(base.tally)
        m.claims.append((
            f"unattributed share within {UNATTRIBUTED_TOLERANCE:.0%}",
            m.layers["trace.unattributed_share"] <= UNATTRIBUTED_TOLERANCE,
        ))
        print_table(f"{workload} (seed {seed}, traced)", m.named)
        print_table("per-layer", [
            (name, float(m.layers.get(name, 0.0)), unit)
            for name, unit, _ in PER_LAYER
        ])
        _print_shares(m.rows)
        for claim, holds in m.claims:
            print(f"  claim: {claim}: {'holds' if holds else 'DOES NOT HOLD'}")
        _print_notes(m.tally)
        metrics = {
            name: metric(m.layers.get(name, 0.0), unit)
            for name, unit, _ in PER_LAYER
        }
        print(result_line(m.tally, metrics, m.correct))
        return 0 if m.correct else 1
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


def _print_notes(tally) -> None:
    for note in tally.notes:
        print(f"  failure: {note}")
    sys.stdout.flush()


def _print_shares(rows) -> None:
    """Per-operation-kind layer shares of the traced operations."""
    from selftime import shares

    for label in sorted({row[0] for row in rows}):
        picked = shares(rows, {label})
        total = sum(row[1] for row in rows if row[0] == label)
        count = sum(1 for row in rows if row[0] == label)
        print(f"== layer self-time share of {label} "
              f"({count} ops, {total:.3f} s)")
        for layer, share in sorted(picked.items(), key=lambda kv: -kv[1]):
            print(f"  {layer:<40} {share:>8.2%}")
        print(f"  {'(unattributed)':<40} "
              f"{max(0.0, 1 - sum(picked.values())):>8.2%}")
    sys.stdout.flush()


def run_all(seed: int, seconds: float) -> int:
    """Every workload, tracing off, each in a fresh process."""
    worst = 0
    summary = []
    for workload in [*WORKLOADS, *EXTRA_WORKLOADS]:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=str(CHECKOUT), stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        worst = max(worst, proc.returncode)
        try:
            summary.append((workload, json.loads(lines[-1])))
        except (IndexError, ValueError):
            summary.append((workload, None))
            worst = max(worst, 2)
    print("== all workloads")
    for workload, result in summary:
        if result is None:
            print(f"  {workload:<14} no result line")
            continue
        print(f"  {workload:<14} correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for name, unit, _, _ in END_TO_END:
            value = result["metrics"][name]["value"]
            print(f"    {name:<12} {value:>14.6g} {unit:<5} "
                  f"{SLOTS[workload][name]}")
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", choices=sorted([*WORKLOADS, *EXTRA_WORKLOADS])
    )
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=7.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        if args.all:
            return run_all(args.seed, args.seconds)
        if not args.workload:
            parser.error("--workload or --all is required")
        return run_workload(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
