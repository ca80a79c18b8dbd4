"""Vectorized statistical inference: batched tests, intervals, resampling.

Section IV.C makes statistical reliability the gatekeeper of every
fairness verdict — each finding carries a significance test, a
confidence interval, and a power caveat.  PR 3 vectorized the *counting*
side of the audit; this module vectorizes the *inference* side, which
had become the wall-clock bottleneck of large subgroup scans: every
scalar primitive in :mod:`repro.stats.tests` has an array-in/array-out
counterpart here operating on whole count vectors at once, and the
resampling procedures draw their full index/permutation matrices in one
shot and reduce along an axis instead of looping in Python.

Equivalence contract
--------------------
Each batch primitive reproduces the scalar reference arithmetic
*operation for operation* (same expression order, same degenerate-case
handling), so its outputs are bit-identical to a Python loop over
the pre-batch scalar code kept as a test oracle in
``tests/oracle/stats.py`` — the property suite in
``tests/perf/test_batch_stats.py`` and the ``bench_p2_stats.py``
regression guard both assert this on every run.  For the resampling
primitives the random streams are aligned too: drawing an
``(n_resamples × n)`` index matrix consumes a numpy ``Generator``
exactly as ``n_resamples`` sequential length-``n`` draws do, so
:func:`batch_bootstrap_ci` equals the reference loop bit-for-bit under
the same seed.  (:func:`batch_permutation_test` necessarily differs
draw-for-draw from the in-place ``shuffle`` loop; its permutation
matrix comes from one argsort of random keys instead.)

Instrumentation: every batch call increments ``stats.batch_calls`` and
adds its element count to ``stats.batch_size``; the compound scoring
entry point used by subgroup scans runs inside a ``stats.infer`` span.
"""

from __future__ import annotations

from collections.abc import Callable
from contextlib import contextmanager

import numpy as np
from scipy.special import ndtr, ndtri

from repro._validation import (
    check_array_1d,
    check_positive_int,
    check_probability,
    check_random_state,
)
from repro.exceptions import ValidationError
from repro.observability.metrics import get_metrics
from repro.observability.trace import get_tracer

__all__ = [
    "batch_two_proportion_z",
    "batch_wilson_interval",
    "batch_min_detectable_gap",
    "batch_bootstrap_ci",
    "batch_permutation_test",
    "batch_score_counts",
]

#: element budget for one resampling block — caps the transient
#: ``(rows × n)`` matrices at ~128 MB of float64 regardless of inputs.
_BLOCK_ELEMENTS = 1 << 24


def _record(op: str, n: int) -> None:
    metrics = get_metrics()
    metrics.counter("stats.batch_calls").inc()
    metrics.counter("stats.batch_size").inc(int(n))


@contextmanager
def _infer_span(op: str, n: int):
    """One ``stats.infer`` span + throughput counters around a batch."""
    _record(op, n)
    with get_tracer().span("stats.infer", op=op, batch=int(n)):
        yield


def _count_array(values, name: str) -> np.ndarray:
    """Coerce counts (scalar or 1-D) to an int64 vector, exactly."""
    arr = np.asarray(values)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise ValidationError(
            f"{name} must be 1-dimensional, got shape {arr.shape}"
        )
    if arr.dtype.kind in "iu":
        return arr.astype(np.int64, copy=False)
    if arr.dtype == bool:
        return arr.astype(np.int64)
    try:
        cast = arr.astype(np.int64)
    except (TypeError, ValueError) as exc:
        raise ValidationError(
            f"{name} must be an integer, got dtype {arr.dtype}"
        ) from exc
    if arr.dtype.kind == "f" and not np.array_equal(cast, arr):
        raise ValidationError(f"{name} must be an integer, got {arr!r}")
    return cast


def _broadcast_counts(**named) -> tuple[np.ndarray, ...]:
    arrays = {
        name: _count_array(value, name) for name, value in named.items()
    }
    try:
        out = np.broadcast_arrays(*arrays.values())
    except ValueError as exc:
        detail = ", ".join(
            f"{name}={len(arr)}" for name, arr in arrays.items()
        )
        raise ValidationError(f"length mismatch: {detail}") from exc
    return tuple(np.ascontiguousarray(a) for a in out)


def _first(arr: np.ndarray, mask: np.ndarray):
    """The first offending value, for scalar-identical error messages."""
    return int(arr[mask][0])


def batch_two_proportion_z(
    successes_a, n_a, successes_b, n_b
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized pooled two-proportion z-test over count vectors.

    Array counterpart of
    :func:`repro.stats.tests.two_proportion_z_test`: element ``i`` of
    the returned ``(statistic, p_value)`` arrays is bit-identical to
    the scalar test on ``(successes_a[i], n_a[i], successes_b[i],
    n_b[i])``, including the degenerate zero-variance cells (``z = 0``
    / ``p = 1`` when both proportions agree, ``z = inf`` / ``p = 0``
    when they differ with no pooled variance).
    """
    sa, na, sb, nb = _broadcast_counts(
        successes_a=successes_a, n_a=n_a, successes_b=successes_b, n_b=n_b
    )
    for name, arr in (
        ("successes_a", sa), ("n_a", na), ("successes_b", sb), ("n_b", nb)
    ):
        negative = arr < 0
        if negative.any():
            raise ValidationError(
                f"{name} must be non-negative, got {_first(arr, negative)}"
            )
    if (na == 0).any() or (nb == 0).any():
        raise ValidationError("both groups must be non-empty")
    if (sa > na).any() or (sb > nb).any():
        raise ValidationError("successes cannot exceed group size")
    return _two_proportion_z(sa, na, sb, nb)


def _two_proportion_z(sa, na, sb, nb) -> tuple[np.ndarray, np.ndarray]:
    """The arithmetic of :func:`batch_two_proportion_z`, on int64 count
    vectors already known to be valid (callers that built the counts
    themselves skip the re-validation)."""
    with _infer_span("two_proportion_z", len(sa)):
        p_a = sa / na
        p_b = sb / nb
        pooled = (sa + sb) / (na + nb)
        variance = pooled * (1 - pooled) * (1 / na + 1 / nb)
        degenerate = variance == 0
        equal = p_a == p_b
        with np.errstate(divide="ignore", invalid="ignore"):
            z = (p_a - p_b) / np.sqrt(variance)
        z = np.where(degenerate, np.where(equal, 0.0, np.inf), z)
        p_value = np.where(
            degenerate,
            np.where(equal, 1.0, 0.0),
            2.0 * ndtr(-np.abs(z)),
        )
    return z, p_value


def batch_wilson_interval(
    successes, n, confidence: float = 0.95
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized Wilson score intervals over count vectors.

    Array counterpart of :func:`repro.stats.tests.wilson_interval`;
    bounds are clipped into [0, 1] elementwise and returned as two
    float64 arrays ``(low, high)``.
    """
    s, n = _broadcast_counts(successes=successes, n=n)
    nonpositive = n <= 0
    if nonpositive.any():
        raise ValidationError(
            f"n must be positive, got {_first(n, nonpositive)}"
        )
    if ((s < 0) | (s > n)).any():
        raise ValidationError("successes must lie in [0, n]")
    check_probability(confidence, "confidence")
    return _wilson_interval(s, n, confidence)


def _wilson_interval(s, n, confidence) -> tuple[np.ndarray, np.ndarray]:
    """The arithmetic of :func:`batch_wilson_interval`, on int64 count
    vectors and a confidence already known to be valid."""
    z = float(ndtri(1.0 - (1.0 - confidence) / 2.0))
    with _infer_span("wilson", len(s)):
        p = s / n
        denom = 1.0 + z**2 / n
        centre = (p + z**2 / (2 * n)) / denom
        half = (z / denom) * np.sqrt(p * (1 - p) / n + z**2 / (4 * n**2))
        low = np.maximum(0.0, centre - half)
        high = np.minimum(1.0, centre + half)
    return low, high


def batch_min_detectable_gap(
    n_a, n_b, base_rate=0.5, alpha: float = 0.05, power: float = 0.8
) -> np.ndarray:
    """Vectorized minimum-detectable-gap power approximation.

    Array counterpart of :func:`repro.stats.tests.min_detectable_gap`;
    ``base_rate`` may be a scalar or a vector aligned with the sizes.
    """
    na, nb = _broadcast_counts(n_a=n_a, n_b=n_b)
    for name, arr in (("n_a", na), ("n_b", nb)):
        nonpositive = arr <= 0
        if nonpositive.any():
            raise ValidationError(
                f"{name} must be positive, got {_first(arr, nonpositive)}"
            )
    rate = np.asarray(base_rate, dtype=float)
    if rate.ndim == 0:
        check_probability(float(rate), "base_rate")
    elif ((rate < 0.0) | (rate > 1.0)).any():
        bad = float(rate[(rate < 0.0) | (rate > 1.0)][0])
        raise ValidationError(f"base_rate must be in [0, 1], got {bad}")
    check_probability(alpha, "alpha")
    check_probability(power, "power")
    z_alpha = float(ndtri(1.0 - alpha / 2.0))
    z_beta = float(ndtri(power))

    with _infer_span("min_detectable_gap", len(na)):
        variance = rate * (1.0 - rate) * (1.0 / na + 1.0 / nb)
        gap = (z_alpha + z_beta) * np.sqrt(variance)
    return np.broadcast_to(gap, na.shape).astype(float, copy=False)


def _rows_per_block(n_columns: int) -> int:
    return max(1, _BLOCK_ELEMENTS // max(1, n_columns))


def batch_bootstrap_ci(
    values,
    statistic: Callable[[np.ndarray], float] | None = None,
    confidence: float = 0.95,
    n_resamples: int = 2000,
    random_state: int | np.random.Generator | None = None,
) -> tuple[float, float]:
    """Percentile bootstrap CI from one ``(n_resamples × n)`` index matrix.

    The whole resample index matrix is drawn in one shot (in row blocks
    bounded by a fixed memory budget, which leaves the random stream
    identical to sequential draws) and the default mean statistic
    reduces along axis 1 — no Python loop.  Under the same
    ``random_state`` the result is bit-identical to the scalar
    :func:`repro.stats.tests.bootstrap_ci` loop, for the default and
    for callable statistics alike.
    """
    values = check_array_1d(values, "values").astype(float)
    if len(values) == 0:
        raise ValidationError("values must be non-empty")
    check_probability(confidence, "confidence")
    n_resamples = check_positive_int(n_resamples, "n_resamples")
    rng = check_random_state(random_state)
    n = len(values)

    with _infer_span("bootstrap", n_resamples):
        estimates = np.empty(n_resamples)
        done = 0
        block = _rows_per_block(n)
        while done < n_resamples:
            rows = min(block, n_resamples - done)
            indices = rng.integers(0, n, size=(rows, n))
            resampled = values[indices]
            if statistic is None:
                estimates[done:done + rows] = resampled.mean(axis=1)
            else:
                for i in range(rows):
                    estimates[done + i] = statistic(resampled[i])
            done += rows
        alpha = 1.0 - confidence
        lo, hi = np.quantile(estimates, [alpha / 2.0, 1.0 - alpha / 2.0])
    return float(lo), float(hi)


def batch_permutation_test(
    x,
    y,
    statistic: Callable[[np.ndarray, np.ndarray], float] | None = None,
    n_permutations: int = 2000,
    random_state: int | np.random.Generator | None = None,
) -> tuple[float, float]:
    """Two-sided permutation test from one argsort-of-keys matrix.

    Replaces the per-iteration ``rng.shuffle`` + Python statistic of the
    scalar loop with a single permutation matrix: argsorting an
    ``(n_permutations × n)`` block of random keys yields one uniform
    permutation per row.  For the default difference-in-means statistic
    on binary (0/1) samples, the count-based fast path sums each row's
    first ``len(x)`` entries with ``np.add.reduceat`` over the permuted
    integer matrix — proportions then come from exact integer counts.
    For other numeric data the default statistic reduces with
    ``mean(axis=1)``; a callable ``statistic`` is applied row-by-row to
    the same permutation matrix (fallback preserved).

    Returns ``(observed, p_value)`` with the same add-one correction as
    the scalar test.  The permutation *stream* necessarily differs from
    the scalar shuffle loop, so p-values agree statistically rather
    than bitwise; the observed statistic is identical.
    """
    x = check_array_1d(x, "x").astype(float)
    y = check_array_1d(y, "y").astype(float)
    if len(x) == 0 or len(y) == 0:
        raise ValidationError("both samples must be non-empty")
    n_permutations = check_positive_int(n_permutations, "n_permutations")
    rng = check_random_state(random_state)

    if statistic is None:
        default = lambda a, b: float(np.mean(a) - np.mean(b))
        observed = abs(default(x, y))
    else:
        observed = abs(statistic(x, y))
    pooled = np.concatenate([x, y])
    n_x = len(x)
    n = len(pooled)
    n_y = n - n_x
    threshold = observed - 1e-15
    # Count-based fast path: binary pooled data under the default
    # statistic — row sums are integer success counts.
    binary = statistic is None and bool(
        np.all((pooled == 0.0) | (pooled == 1.0))
    )
    pooled_int = pooled.astype(np.int64) if binary else None

    with _infer_span("permutation", n_permutations):
        exceed = 0
        done = 0
        block = _rows_per_block(n)
        while done < n_permutations:
            rows = min(block, n_permutations - done)
            perm = np.argsort(rng.random((rows, n)), axis=1)
            if binary:
                permuted = pooled_int[perm]
                offsets = (
                    np.arange(rows)[:, None] * n + np.array([0, n_x])
                ).ravel()
                sums = np.add.reduceat(permuted.ravel(), offsets)
                stat = np.abs(sums[0::2] / n_x - sums[1::2] / n_y)
                exceed += int((stat >= threshold).sum())
            elif statistic is None:
                permuted = pooled[perm]
                stat = np.abs(
                    permuted[:, :n_x].mean(axis=1)
                    - permuted[:, n_x:].mean(axis=1)
                )
                exceed += int((stat >= threshold).sum())
            else:
                permuted = pooled[perm]
                for i in range(rows):
                    row = permuted[i]
                    if abs(statistic(row[:n_x], row[n_x:])) >= threshold:
                        exceed += 1
            done += rows
        p_value = (exceed + 1) / (n_permutations + 1)
    return float(observed), float(p_value)


def batch_score_counts(
    positives_inside, n_inside, positives_total: int, n_total: int
) -> list[dict | None]:
    """Score a whole vector of subgroups against their complements.

    The batched heart of the subgroup scan: given per-subgroup
    ``(positives_inside, n_inside)`` count vectors plus population
    totals, returns the same ``dict | None`` payloads as calling
    :func:`repro.kernel.score_counts` per subgroup — rates, signed gap,
    Wilson bounds, and the two-proportion p-value, each bit-identical
    to the scalar loop — with one z-test batch and one Wilson batch
    for the entire vector.  ``None`` marks subgroups that cover the
    whole population (no complement to compare against).
    """
    pos_in, n_in = _broadcast_counts(
        positives_inside=positives_inside, n_inside=n_inside
    )
    size = len(pos_in)
    if size == 0:
        return []
    with _infer_span("score_counts", size):
        n_out = int(n_total) - n_in
        pos_out = int(positives_total) - pos_in
        valid = n_out > 0
        payloads: list[dict | None] = [None] * size
        if valid.any():
            vi_pos, vi_n = pos_in[valid], n_in[valid]
            vo_pos, vo_n = pos_out[valid], n_out[valid]
            rate = vi_pos / vi_n
            complement = vo_pos / vo_n
            _, p_value = batch_two_proportion_z(vi_pos, vi_n, vo_pos, vo_n)
            ci_low, ci_high = batch_wilson_interval(vi_pos, vi_n)
            gap = rate - complement
            positions = np.flatnonzero(valid)
            for j, index in enumerate(positions):
                payloads[int(index)] = {
                    "rate": float(rate[j]),
                    "complement_rate": float(complement[j]),
                    "gap": float(gap[j]),
                    "ci_low": float(ci_low[j]),
                    "ci_high": float(ci_high[j]),
                    "p_value": float(p_value[j]),
                }
    return payloads
