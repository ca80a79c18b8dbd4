"""Hypothesis tests and interval estimates used by fairness audits.

Section IV.C of the paper warns that sparse subgroups make bias estimates
statistically unreliable; the audit layer therefore attaches significance
information from these primitives to every finding.

The scalar functions here are thin wrappers over the vectorized engine
in :mod:`repro.stats.batch` (a scalar call is a length-1 batch).  The
pre-batch scalar implementations are kept verbatim as a test oracle in
``tests/oracle/stats.py``; ``tests/perf/test_batch_stats.py`` checks
batch ≡ scalar against it.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro._validation import check_positive_int, check_probability
from repro.exceptions import ValidationError
from repro.stats.batch import (
    batch_bootstrap_ci,
    batch_min_detectable_gap,
    batch_permutation_test,
    batch_two_proportion_z,
    batch_wilson_interval,
)

__all__ = [
    "TestResult",
    "two_proportion_z_test",
    "chi_square_independence",
    "permutation_test",
    "bootstrap_ci",
    "wilson_interval",
    "min_detectable_gap",
]


@dataclass(frozen=True)
class TestResult:
    """Statistic + p-value + human-readable method tag."""

    statistic: float
    p_value: float
    method: str

    def significant(self, alpha: float = 0.05) -> bool:
        """True when the p-value falls below ``alpha``."""
        check_probability(alpha, "alpha")
        return self.p_value < alpha


def two_proportion_z_test(
    successes_a: int, n_a: int, successes_b: int, n_b: int
) -> TestResult:
    """Two-sided pooled z-test for equality of two proportions.

    The workhorse for "is the selection-rate gap between groups real?".
    A length-1 call into :func:`repro.stats.batch.batch_two_proportion_z`.
    """
    zs, ps = batch_two_proportion_z(successes_a, n_a, successes_b, n_b)
    return TestResult(float(zs[0]), float(ps[0]), "two_proportion_z")


def chi_square_independence(table, correction: bool = True) -> TestResult:
    """Chi-square test of independence on a contingency table.

    ``correction`` toggles scipy's Yates continuity correction, which
    applies only to 2×2 tables (one degree of freedom).  The default
    ``True`` keeps the historical behaviour, but note the discrepancy it
    creates: on the same 2×2 counts the *uncorrected*
    :func:`two_proportion_z_test` satisfies ``chi2 == z**2`` with an
    identical p-value, while the Yates-corrected statistic is smaller
    (more conservative).  Pass ``correction=False`` when cross-checking
    a chi-square verdict against a z-test on the same table.

    An all-zero row or column (an empty group, or an outcome no row
    takes — constant predictions) carries no evidence either way and
    has no expected frequency, so it is left out.  When fewer than two
    rows or columns remain, the table shows no association: statistic
    0, p-value 1.
    """
    table = np.asarray(table, dtype=float)
    if table.ndim != 2 or min(table.shape) < 2:
        raise ValidationError(
            f"table must be at least 2x2, got shape {table.shape}"
        )
    if np.any(table < 0):
        raise ValidationError("table counts must be non-negative")
    if table.sum() == 0:
        raise ValidationError("table must contain observations")
    table = table[table.any(axis=1)][:, table.any(axis=0)]
    if min(table.shape) < 2:
        return TestResult(0.0, 1.0, "chi_square")
    from scipy import stats as sp_stats

    statistic, p_value, __, __ = sp_stats.chi2_contingency(
        table, correction=correction
    )
    return TestResult(float(statistic), float(p_value), "chi_square")


def permutation_test(
    x,
    y,
    statistic: Callable[[np.ndarray, np.ndarray], float] | None = None,
    n_permutations: int = 2000,
    random_state: int | np.random.Generator | None = None,
) -> TestResult:
    """Two-sided permutation test for a two-sample statistic.

    ``statistic`` defaults to the difference in means.  The p-value uses
    the add-one correction so it is never exactly zero.  Draws one
    argsort-of-random-keys permutation matrix
    (:func:`repro.stats.batch.batch_permutation_test`), so it agrees
    with a shuffle loop statistically but not draw-for-draw under one
    seed.
    """
    observed, p_value = batch_permutation_test(
        x, y, statistic=statistic, n_permutations=n_permutations,
        random_state=random_state,
    )
    return TestResult(observed, p_value, "permutation")


def bootstrap_ci(
    values,
    statistic: Callable[[np.ndarray], float] | None = None,
    confidence: float = 0.95,
    n_resamples: int = 2000,
    random_state: int | np.random.Generator | None = None,
) -> tuple[float, float]:
    """Percentile bootstrap confidence interval for a sample statistic.

    Draws the full resample index matrix at once
    (:func:`repro.stats.batch.batch_bootstrap_ci`); under the same
    ``random_state`` it is bit-identical to a per-resample loop.
    """
    return batch_bootstrap_ci(
        values, statistic=statistic, confidence=confidence,
        n_resamples=n_resamples, random_state=random_state,
    )


def wilson_interval(
    successes: int, n: int, confidence: float = 0.95
) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Preferred over the normal approximation for the small subgroup counts
    that intersectional audits produce.  Both bounds are builtin
    ``float`` (never numpy scalars), so report payloads built from them
    serialize to JSON without coercion.
    """
    lows, highs = batch_wilson_interval(successes, n, confidence)
    return float(lows[0]), float(highs[0])


def min_detectable_gap(
    n_a: int, n_b: int, base_rate: float = 0.5, alpha: float = 0.05, power: float = 0.8
) -> float:
    """Smallest selection-rate gap detectable at given sizes/α/power.

    Standard two-proportion power approximation; audits use this to label
    a "no significant disparity" finding with how large a disparity could
    still be hiding (the Section IV.C uncertainty caveat).
    """
    # Scalar-strict validation (the batch engine accepts integral floats;
    # the scalar API never did).
    check_positive_int(n_a, "n_a")
    check_positive_int(n_b, "n_b")
    gaps = batch_min_detectable_gap(
        n_a, n_b, base_rate=base_rate, alpha=alpha, power=power
    )
    return float(gaps[0])
