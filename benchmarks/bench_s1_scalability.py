"""S1 — scalability: audit-battery runtime vs dataset size.

Section IV.F ends on runtime complexity; this bench measures the wall
time of the full audit battery (all Section III metrics + four-fifths +
significance tests) at growing dataset sizes and asserts near-linear
scaling — the audit itself must not become the bottleneck it warns
about.

Since the kernel layer (ISSUE 3) the battery reads every group count
from one shared contingency tensor; the bench therefore reports it next
to the pre-kernel battery of the test oracle
(:func:`tests.oracle.reference_battery`, only up to 80k rows — it is the
"before" row) and emits the rows into ``BENCH_S1.json`` for the
cross-PR trajectory.
"""

import time
from contextlib import nullcontext

from repro.core import FairnessAudit
from repro.data import make_hiring

from benchmarks.conftest import report, write_bench_json
from tests.oracle import reference_battery

SIZES = (5_000, 20_000, 80_000, 320_000)
REFERENCE_SIZES = (5_000, 20_000, 80_000)


def _run_audit(n: int, backend: str) -> float:
    data = make_hiring(
        n=n, direct_bias=1.5, proxy_strength=0.8, random_state=0
    )
    battery = reference_battery if backend == "reference" else nullcontext
    with battery():
        start = time.perf_counter()
        FairnessAudit(data, tolerance=0.05, strata="university").run()
        return time.perf_counter() - start


def test_s1_audit_scaling(benchmark):
    def experiment():
        kernel = {n: _run_audit(n, "kernel") for n in SIZES}
        reference = {n: _run_audit(n, "reference") for n in REFERENCE_SIZES}
        return kernel, reference

    kernel, reference = benchmark.pedantic(experiment, rounds=1, iterations=1)
    rows = [("n", "kernel_s", "reference_s")] + [
        (n, round(kernel[n], 4),
         round(reference[n], 4) if n in reference else "—")
        for n in SIZES
    ]
    report("S1 audit-battery runtime vs n", rows)
    write_bench_json("S1", {
        "sizes": list(SIZES),
        "kernel_seconds": {str(n): kernel[n] for n in SIZES},
        "reference_seconds": {str(n): reference[n] for n in REFERENCE_SIZES},
        "speedup_80k": reference[80_000] / max(kernel[80_000], 1e-9),
    })

    # 16x data should cost far less than 64x time (i.e. subquadratic);
    # generous bound to stay robust on loaded CI machines
    assert kernel[80_000] < 40 * max(kernel[5_000], 1e-3)
    # The shared-counts path pushed the constant down enough that the new
    # 4x-larger point must stay within ~8x of the 80k time (linear with
    # CI headroom) — and even 320k rows must complete in seconds.
    assert kernel[320_000] < 8 * max(kernel[80_000], 5e-3)
    assert kernel[320_000] < 10.0
