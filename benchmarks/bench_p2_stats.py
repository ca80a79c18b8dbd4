"""P2 — stats: batched inference vs the scalar reference loop.

Three comparisons, each against the pre-batch scalar code kept verbatim
in the test oracle :mod:`tests.oracle.stats`:

* significance scoring (z-test + Wilson interval) for 4,000 subgroup
  count pairs — one :func:`batch_score_counts` call vs a Python loop
  (regression guard: batched ≥ 10× faster, payloads bit-identical);
* :func:`batch_bootstrap_ci` at ``n_resamples=2000`` vs the per-resample
  loop (guard: ≥ 5× faster, bit-identical under the same seed);
* :func:`batch_permutation_test` at ``n_permutations=2000`` vs the
  shuffle loop (guard: ≥ 5× faster; observed statistic identical,
  p-values within resampling noise — the argsort permutation matrix
  cannot reuse the in-place shuffle's random stream).

The equivalence assertions run unconditionally, before any timing
guard: a fast wrong answer must fail the bench.  Results land in
``BENCH_P2.json`` (uploaded by the CI benchmark job).
"""

import time

import numpy as np

from repro.stats import (
    batch_bootstrap_ci,
    batch_permutation_test,
    batch_score_counts,
)
from benchmarks.conftest import report, write_bench_json
from tests.oracle import stats as _reference

N_SUBGROUPS = 4_000
N_RESAMPLES = 2_000
BOOTSTRAP_N = 100
PERMUTATION_N = 30
REPEATS = 3


def _best(fn) -> tuple:
    """Best-of-REPEATS wall time plus the (deterministic) result."""
    best, result = float("inf"), None
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _subgroup_counts():
    rng = np.random.default_rng(17)
    n_inside = rng.integers(20, 2_000, N_SUBGROUPS)
    positives_inside = (rng.random(N_SUBGROUPS) * (n_inside + 1)).astype(
        np.int64
    )
    return positives_inside, n_inside, 70_000, 200_000


def _scalar_scoring_loop(positives_inside, n_inside, positives_total, n_total):
    payloads = []
    for i in range(len(n_inside)):
        pos_in, n_in = int(positives_inside[i]), int(n_inside[i])
        n_out = n_total - n_in
        pos_out = positives_total - pos_in
        _, p_value = _reference.two_proportion_z_test(
            pos_in, n_in, pos_out, n_out
        )
        ci_low, ci_high = _reference.wilson_interval(pos_in, n_in)
        rate, complement = pos_in / n_in, pos_out / n_out
        payloads.append({
            "rate": rate,
            "complement_rate": complement,
            "gap": rate - complement,
            "ci_low": float(ci_low),
            "ci_high": float(ci_high),
            "p_value": p_value,
        })
    return payloads


def test_p2_batched_scoring_speedup(benchmark):
    counts = _subgroup_counts()

    def experiment():
        scalar_s, scalar = _best(lambda: _scalar_scoring_loop(*counts))
        batch_s, batched = _best(lambda: batch_score_counts(*counts))
        return scalar_s, scalar, batch_s, batched

    scalar_s, scalar, batch_s, batched = benchmark.pedantic(
        experiment, rounds=1, iterations=1
    )
    # Equivalence first, unconditionally: the batched payloads must be
    # bit-identical to the scalar loop before speed means anything.
    assert len(batched) == len(scalar) == N_SUBGROUPS
    for got, want in zip(batched, scalar):
        assert got == want

    speedup = scalar_s / max(batch_s, 1e-9)
    report(f"P2 significance scoring, {N_SUBGROUPS} subgroups", [
        ("path", "seconds"),
        ("scalar reference loop", round(scalar_s, 4)),
        ("batch_score_counts", round(batch_s, 4)),
        ("speedup", round(speedup, 2)),
    ])
    scoring_payload = {
        "n_subgroups": N_SUBGROUPS,
        "scalar_seconds": scalar_s,
        "batch_seconds": batch_s,
        "speedup": speedup,
    }
    # Regression guard (ISSUE 5 acceptance): batched z + Wilson scoring
    # must stay ≥ 10× faster than the scalar loop at this scale.
    _merge_results({"scoring": scoring_payload})
    assert speedup >= 10.0, (
        f"batched scoring only {speedup:.2f}x faster than scalar loop"
    )


def test_p2_batch_bootstrap_speedup(benchmark):
    values = np.random.default_rng(23).normal(size=BOOTSTRAP_N)

    def experiment():
        scalar_s, scalar = _best(lambda: _reference.bootstrap_ci(
            values, n_resamples=N_RESAMPLES, random_state=11
        ))
        batch_s, batched = _best(lambda: batch_bootstrap_ci(
            values, n_resamples=N_RESAMPLES, random_state=11
        ))
        return scalar_s, scalar, batch_s, batched

    scalar_s, scalar, batch_s, batched = benchmark.pedantic(
        experiment, rounds=1, iterations=1
    )
    # Same seed, aligned random stream: exact equality, always checked.
    assert batched == scalar

    speedup = scalar_s / max(batch_s, 1e-9)
    report(f"P2 bootstrap CI, {N_RESAMPLES} resamples of n={BOOTSTRAP_N}", [
        ("path", "seconds"),
        ("per-resample loop", round(scalar_s, 4)),
        ("batch_bootstrap_ci", round(batch_s, 4)),
        ("speedup", round(speedup, 2)),
    ])
    _merge_results({"bootstrap": {
        "n_values": BOOTSTRAP_N,
        "n_resamples": N_RESAMPLES,
        "scalar_seconds": scalar_s,
        "batch_seconds": batch_s,
        "speedup": speedup,
    }})
    assert speedup >= 5.0, (
        f"batch bootstrap only {speedup:.2f}x faster than resample loop"
    )


def test_p2_batch_permutation_speedup(benchmark):
    rng = np.random.default_rng(29)
    x = (rng.random(PERMUTATION_N) < 0.6).astype(float)
    y = (rng.random(PERMUTATION_N) < 0.4).astype(float)

    def experiment():
        scalar_s, scalar = _best(lambda: _reference.permutation_test(
            x, y, n_permutations=N_RESAMPLES, random_state=7
        ))
        batch_s, batched = _best(lambda: batch_permutation_test(
            x, y, n_permutations=N_RESAMPLES, random_state=7
        ))
        return scalar_s, scalar, batch_s, batched

    scalar_s, scalar, batch_s, batched = benchmark.pedantic(
        experiment, rounds=1, iterations=1
    )
    # Observed statistic exact; p-values statistically equivalent (the
    # permutation matrices come from different stream orderings).
    assert abs(batched[0] - scalar[0]) <= 1e-12
    assert abs(batched[1] - scalar[1]) < 0.05

    speedup = scalar_s / max(batch_s, 1e-9)
    report(
        f"P2 permutation test, {N_RESAMPLES} permutations of "
        f"n={2 * PERMUTATION_N}",
        [
            ("path", "seconds"),
            ("shuffle loop", round(scalar_s, 4)),
            ("batch_permutation_test", round(batch_s, 4)),
            ("speedup", round(speedup, 2)),
        ],
    )
    _merge_results({"permutation": {
        "n_pooled": 2 * PERMUTATION_N,
        "n_permutations": N_RESAMPLES,
        "scalar_seconds": scalar_s,
        "batch_seconds": batch_s,
        "speedup": speedup,
    }})
    assert speedup >= 5.0, (
        f"batch permutation only {speedup:.2f}x faster than shuffle loop"
    )


_RESULTS: dict = {}


def _merge_results(update: dict) -> None:
    """Accumulate sections into one BENCH_P2.json across the three tests."""
    _RESULTS.update(update)
    write_bench_json("P2", dict(_RESULTS))
