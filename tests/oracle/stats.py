"""Pre-batch scalar inference, kept verbatim as a test oracle.

The public primitives of :mod:`repro.stats.tests` are thin wrappers
over the vectorized engine in :mod:`repro.stats.batch`.  These are the
scalar implementations that engine replaced, byte-for-byte as they were
before it existed.  ``tests/perf/test_batch_stats.py`` and
``benchmarks/bench_p2_stats.py`` compare the engine against them, and
the oracle metrics in :mod:`tests.oracle.metrics` use them for their
significance tests and power notes.

Nothing here should be "improved": this module is the executable
specification the batch engine is compared against.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np
from scipy import stats as sp_stats

from repro._validation import (
    check_array_1d,
    check_positive_int,
    check_probability,
    check_random_state,
)
from repro.exceptions import ValidationError

__all__ = [
    "two_proportion_z_test",
    "permutation_test",
    "bootstrap_ci",
    "wilson_interval",
    "min_detectable_gap",
]


def two_proportion_z_test(
    successes_a: int, n_a: int, successes_b: int, n_b: int
) -> tuple[float, float]:
    """Scalar (statistic, p_value) of the pooled two-proportion z-test."""
    for name, value in (
        ("successes_a", successes_a),
        ("n_a", n_a),
        ("successes_b", successes_b),
        ("n_b", n_b),
    ):
        if value < 0:
            raise ValidationError(f"{name} must be non-negative, got {value}")
    if n_a == 0 or n_b == 0:
        raise ValidationError("both groups must be non-empty")
    if successes_a > n_a or successes_b > n_b:
        raise ValidationError("successes cannot exceed group size")

    p_a = successes_a / n_a
    p_b = successes_b / n_b
    pooled = (successes_a + successes_b) / (n_a + n_b)
    variance = pooled * (1 - pooled) * (1 / n_a + 1 / n_b)
    if variance == 0:
        # Degenerate: all outcomes identical in the pooled sample.
        z = 0.0 if p_a == p_b else float("inf")
        p_value = 1.0 if p_a == p_b else 0.0
        return z, p_value
    z = (p_a - p_b) / np.sqrt(variance)
    p_value = float(2.0 * sp_stats.norm.sf(abs(z)))
    return float(z), p_value


def permutation_test(
    x,
    y,
    statistic: Callable[[np.ndarray, np.ndarray], float] | None = None,
    n_permutations: int = 2000,
    random_state: int | np.random.Generator | None = None,
) -> tuple[float, float]:
    """Scalar (observed, p_value) of the shuffle-loop permutation test."""
    x = check_array_1d(x, "x").astype(float)
    y = check_array_1d(y, "y").astype(float)
    if len(x) == 0 or len(y) == 0:
        raise ValidationError("both samples must be non-empty")
    n_permutations = check_positive_int(n_permutations, "n_permutations")
    rng = check_random_state(random_state)
    if statistic is None:
        statistic = lambda a, b: float(np.mean(a) - np.mean(b))

    observed = abs(statistic(x, y))
    pooled = np.concatenate([x, y])
    n_x = len(x)
    exceed = 0
    for __ in range(n_permutations):
        rng.shuffle(pooled)
        value = abs(statistic(pooled[:n_x], pooled[n_x:]))
        if value >= observed - 1e-15:
            exceed += 1
    p_value = (exceed + 1) / (n_permutations + 1)
    return float(observed), float(p_value)


def bootstrap_ci(
    values,
    statistic: Callable[[np.ndarray], float] | None = None,
    confidence: float = 0.95,
    n_resamples: int = 2000,
    random_state: int | np.random.Generator | None = None,
) -> tuple[float, float]:
    """Percentile bootstrap CI via the original per-resample loop."""
    values = check_array_1d(values, "values").astype(float)
    if len(values) == 0:
        raise ValidationError("values must be non-empty")
    check_probability(confidence, "confidence")
    n_resamples = check_positive_int(n_resamples, "n_resamples")
    rng = check_random_state(random_state)
    if statistic is None:
        statistic = lambda a: float(np.mean(a))

    estimates = np.empty(n_resamples)
    n = len(values)
    for i in range(n_resamples):
        estimates[i] = statistic(values[rng.integers(0, n, n)])
    alpha = 1.0 - confidence
    lo, hi = np.quantile(estimates, [alpha / 2.0, 1.0 - alpha / 2.0])
    return float(lo), float(hi)


def wilson_interval(
    successes: int, n: int, confidence: float = 0.95
) -> tuple[float, float]:
    """Wilson score interval via the original scalar arithmetic."""
    if n <= 0:
        raise ValidationError(f"n must be positive, got {n}")
    if not 0 <= successes <= n:
        raise ValidationError("successes must lie in [0, n]")
    check_probability(confidence, "confidence")
    z = float(sp_stats.norm.ppf(1.0 - (1.0 - confidence) / 2.0))
    p = successes / n
    denom = 1.0 + z**2 / n
    centre = (p + z**2 / (2 * n)) / denom
    half = (z / denom) * np.sqrt(p * (1 - p) / n + z**2 / (4 * n**2))
    return max(0.0, centre - half), min(1.0, centre + half)


def min_detectable_gap(
    n_a: int, n_b: int, base_rate: float = 0.5, alpha: float = 0.05, power: float = 0.8
) -> float:
    """Two-proportion power approximation via the original scalar code."""
    check_positive_int(n_a, "n_a")
    check_positive_int(n_b, "n_b")
    check_probability(base_rate, "base_rate")
    check_probability(alpha, "alpha")
    check_probability(power, "power")
    z_alpha = float(sp_stats.norm.ppf(1.0 - alpha / 2.0))
    z_beta = float(sp_stats.norm.ppf(power))
    variance = base_rate * (1.0 - base_rate) * (1.0 / n_a + 1.0 / n_b)
    return float((z_alpha + z_beta) * np.sqrt(variance))
