"""P1 — kernel: shared-counts battery and the parallel subgroup scanner.

Two comparisons against slow reference code:

* the full audit battery on 80k rows through the joint-contingency
  engine vs the original per-group masking loops kept verbatim behind
  the ``"reference"`` backend (regression guard: kernel ≥ 3× faster);
* the subgroup scan on 80k rows with 4 protected attributes (order ≤ 4,
  ~4k subgroups) serial vs ``jobs=4`` (regression guard: parallel ≥
  1.5× faster, findings byte-identical), plus the time of the
  per-subgroup reference scan (``tests/subgroup/reference_scan.py``),
  whose findings must match too.

Results land in ``BENCH_P1.json`` (uploaded by the CI benchmark job).
"""

import os
import time

import numpy as np
import pytest

from repro.core import FairnessAudit
from repro.core.config import ScanConfig
from repro.data import Column, Schema, TabularDataset, make_hiring
from repro.kernel import use_backend
from repro.subgroup import audit_subgroups

from benchmarks.conftest import report, write_bench_json
from tests.subgroup.reference_scan import reference_findings

N_ROWS = 80_000
BATTERY_REPEATS = 3
SCAN_ATTRIBUTES = {"region": 8, "language": 8, "age_band": 6, "origin": 6}


def _battery_seconds(backend: str) -> float:
    best = float("inf")
    for repeat in range(BATTERY_REPEATS):
        # A fresh dataset per repeat keeps every kernel cache cold, so the
        # measured time includes the encode cost, not just warm lookups.
        data = make_hiring(
            n=N_ROWS, direct_bias=1.5, proxy_strength=0.8,
            random_state=repeat,
        )
        with use_backend(backend):
            start = time.perf_counter()
            FairnessAudit(data, tolerance=0.05, strata="university").run()
            best = min(best, time.perf_counter() - start)
    return best


def _scan_dataset() -> TabularDataset:
    rng = np.random.default_rng(17)
    columns, data = [], {}
    for name, n_categories in SCAN_ATTRIBUTES.items():
        categories = tuple(f"{name}{i}" for i in range(n_categories))
        columns.append(
            Column(name, kind="categorical", role="protected",
                   categories=categories)
        )
        data[name] = rng.choice(categories, size=N_ROWS)
    columns.append(Column("outcome", kind="binary", role="label"))
    # Outcome correlated with one attribute so the scan has real gaps.
    base = rng.random(N_ROWS)
    skew = np.char.endswith(data["region"].astype(str), "0") * 0.15
    data["outcome"] = (base < 0.35 + skew).astype(np.int64)
    return TabularDataset(Schema(tuple(columns)), data)


def _scan_seconds(data, predictions, jobs: int) -> tuple:
    start = time.perf_counter()
    findings = audit_subgroups(
        predictions, data,
        scan_config=ScanConfig(max_order=4, min_size=50, jobs=jobs),
    )
    return time.perf_counter() - start, findings


def _reference_scan_seconds(data, predictions) -> tuple:
    """The per-subgroup mask-and-test oracle, timed for the trajectory."""
    with use_backend("reference"):
        start = time.perf_counter()
        findings = reference_findings(
            predictions, data, max_order=4, min_size=50
        )
        return time.perf_counter() - start, findings


def _signature(findings) -> list:
    return [
        (f.subgroup.conditions, f.subgroup.size, f.rate, f.complement_rate,
         f.gap, f.ci_low, f.ci_high, f.p_value)
        for f in findings
    ]


def test_p1_battery_kernel_vs_reference(benchmark):
    def experiment():
        return _battery_seconds("kernel"), _battery_seconds("reference")

    kernel_s, reference_s = benchmark.pedantic(
        experiment, rounds=1, iterations=1
    )
    speedup = reference_s / max(kernel_s, 1e-9)
    report("P1 audit battery on 80k rows", [
        ("path", "seconds"),
        ("reference (pre-kernel)", round(reference_s, 4)),
        ("kernel (shared counts)", round(kernel_s, 4)),
        ("speedup", round(speedup, 2)),
    ])
    write_bench_json("P1_BATTERY", {
        "n_rows": N_ROWS,
        "kernel_seconds": kernel_s,
        "reference_seconds": reference_s,
        "speedup": speedup,
    })
    # Regression guard (ISSUE 3 acceptance): shared-counts battery must
    # stay ≥ 3x faster than the pre-PR masking loops.
    assert speedup >= 3.0, (
        f"kernel battery only {speedup:.2f}x faster than reference"
    )


def test_p1_parallel_scan_speedup(benchmark):
    data = _scan_dataset()
    predictions = data.labels()

    def experiment():
        serial_s, serial_findings = _scan_seconds(data, predictions, jobs=1)
        parallel_s, parallel_findings = _scan_seconds(data, predictions, jobs=4)
        reference_s, oracle_findings = _reference_scan_seconds(
            data, predictions
        )
        return (serial_s, parallel_s, reference_s,
                serial_findings, parallel_findings, oracle_findings)

    (serial_s, parallel_s, reference_s,
     serial_findings, parallel_findings, oracle_findings) = (
        benchmark.pedantic(experiment, rounds=1, iterations=1)
    )
    speedup = serial_s / max(parallel_s, 1e-9)
    cores = len(os.sched_getaffinity(0))
    report("P1 subgroup scan on 80k rows (~4k subgroups)", [
        ("path", "seconds"),
        ("reference scan (per-subgroup masks)", round(reference_s, 4)),
        ("kernel serial", round(serial_s, 4)),
        ("kernel jobs=4", round(parallel_s, 4)),
        ("parallel speedup", round(speedup, 2)),
        ("available cores", cores),
    ])
    write_bench_json("P1_SCAN", {
        "n_rows": N_ROWS,
        "n_subgroups": len(serial_findings),
        "cores": cores,
        "reference_seconds": reference_s,
        "serial_seconds": serial_s,
        "parallel_seconds": parallel_s,
        "parallel_speedup": speedup,
        "kernel_vs_reference": reference_s / max(serial_s, 1e-9),
    })
    # Byte-identical findings first — a fast wrong answer is no answer.
    assert _signature(parallel_findings) == _signature(serial_findings)
    assert _signature(oracle_findings) == _signature(serial_findings)
    # Regression guard (ISSUE 3 acceptance): 4 jobs ≥ 1.5x serial.  Real
    # process parallelism needs real cores; on a machine with fewer than
    # 4 the guard is unmeetable by any implementation, so only the
    # identity checks above apply there (CI runners have ≥ 4).
    if cores < 4:
        pytest.skip(
            f"speedup guard needs >= 4 cores, found {cores} "
            f"(identity checks passed; jobs=4 ran {speedup:.2f}x serial)"
        )
    assert speedup >= 1.5, (
        f"jobs=4 scan only {speedup:.2f}x faster than serial"
    )
