"""Sample complexity of bias detection (paper Section IV.F).

The paper: *"These [distances] are expected to be calculated with an
accuracy increasing in the number of samples ... The relationship between
the number of samples, and the error in estimating the bias is known as
the sample complexity of bias detection."*

:func:`sample_complexity_curve` measures exactly that relationship for
any discrete distance: at each sample size it draws repeated samples from
a known distribution, estimates the distance to a reference, and records
the mean absolute estimation error against the true distance.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

import numpy as np

from repro._validation import (
    check_positive_int,
    check_random_state,
)
from repro.exceptions import ValidationError

__all__ = [
    "empirical_distribution",
    "sample_from_distribution",
    "SampleComplexityPoint",
    "SampleComplexityCurve",
    "sample_complexity_curve",
    "estimate_required_samples",
    "hoeffding_sample_bound",
    "dkw_sample_bound",
]


def hoeffding_sample_bound(epsilon: float, delta: float = 0.05) -> int:
    """Samples guaranteeing a proportion estimate within ε w.p. ≥ 1−δ.

    Hoeffding's inequality for a Bernoulli mean:
    ``n ≥ ln(2/δ) / (2 ε²)``.  This is the worst-case theoretical
    counterpart of the empirical curves from
    :func:`sample_complexity_curve` — the paper's IV.F "sample
    complexity of bias detection", in closed form for a single group
    proportion.
    """
    if epsilon <= 0 or epsilon > 1:
        raise ValidationError(f"epsilon must be in (0, 1], got {epsilon}")
    if not 0 < delta < 1:
        raise ValidationError(f"delta must be in (0, 1), got {delta}")
    return int(np.ceil(np.log(2.0 / delta) / (2.0 * epsilon**2)))


def dkw_sample_bound(epsilon: float, delta: float = 0.05) -> int:
    """Samples bounding the sup-norm CDF error (DKW inequality).

    ``n ≥ ln(2/δ) / (2 ε²)`` also bounds
    ``sup_x |F_n(x) − F(x)| ≤ ε`` with probability ≥ 1−δ
    (Dvoretzky–Kiefer–Wolfowitz with Massart's constant), which in turn
    bounds the total-variation estimate for distributions on the line
    and the 1-D Wasserstein error on a bounded range.
    """
    # same closed form; kept separate because the guarantee differs
    return hoeffding_sample_bound(epsilon, delta)


def empirical_distribution(values) -> dict:
    """Normalised value→frequency mapping of a categorical sample."""
    values = np.asarray(values)
    if values.ndim != 1 or len(values) == 0:
        raise ValidationError("values must be a non-empty 1-D array")
    uniques, counts = np.unique(values, return_counts=True)
    return {
        u: c / len(values) for u, c in zip(uniques.tolist(), counts.tolist())
    }


def _distribution_support(
    distribution: Mapping[object, float],
) -> tuple[list, np.ndarray]:
    """Validated (keys, normalised probability vector) of a mapping."""
    keys = list(distribution)
    probs = np.array([float(distribution[k]) for k in keys])
    if np.any(probs < 0) or probs.sum() <= 0:
        raise ValidationError("distribution must have non-negative mass")
    return keys, probs / probs.sum()


def _keys_array(keys: list) -> np.ndarray:
    """Keys as a 1-D array suitable for ``np.take``.

    Homogeneous keys keep their natural dtype (numeric stays numeric,
    strings stay strings); mixed-type keys get an ``object`` array so
    no value is silently coerced (``np.array(['a', 1])`` would turn the
    ``1`` into ``'1'``).
    """
    types = {type(key) for key in keys}
    if len(types) == 1 or all(
        isinstance(key, (int, float, np.number))
        and not isinstance(key, bool)
        for key in keys
    ):
        candidate = np.asarray(keys)
        if candidate.ndim == 1 and len(candidate) == len(keys):
            return candidate
    arr = np.empty(len(keys), dtype=object)
    arr[:] = keys
    return arr


def sample_from_distribution(
    distribution: Mapping[object, float],
    n: int,
    random_state: int | np.random.Generator | None = None,
) -> np.ndarray:
    """Draw ``n`` iid categorical samples from a value→probability mapping.

    The result is one vectorized ``np.take`` gather on the key array —
    homogeneous numeric keys keep their numeric dtype, mixed-type keys
    come back as ``object`` with every value preserved exactly.
    """
    n = check_positive_int(n, "n")
    rng = check_random_state(random_state)
    keys, probs = _distribution_support(distribution)
    indices = rng.choice(len(keys), size=n, p=probs)
    return np.take(_keys_array(keys), indices)


def _batched_estimates(
    distance: Callable[[Mapping, Mapping], float],
    population: Mapping[object, float],
    reference: Mapping[object, float],
    n: int,
    n_trials: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """All ``n_trials`` distance estimates at one sample size, batched.

    One ``(n_trials × n)`` categorical draw (stream-identical to
    ``n_trials`` sequential draws) and one bincount per trial row;
    empirical dicts are built in the sorted-key order
    :func:`empirical_distribution` would produce, with zero-count
    values dropped, so any distance callable sees the same input as
    with one sample per trial.  Keys with no total order (mixed types)
    keep the population's own order instead, which compares nothing.
    """
    from repro.stats.batch import _infer_span

    keys, probs = _distribution_support(population)
    n_keys = len(keys)
    with _infer_span("sample_complexity", n_trials):
        samples = rng.choice(n_keys, size=(n_trials, n), p=probs)
        counts = np.bincount(
            (np.arange(n_trials)[:, None] * n_keys + samples).ravel(),
            minlength=n_trials * n_keys,
        ).reshape(n_trials, n_keys)
        try:
            order = sorted(range(n_keys), key=lambda i: keys[i])
        except TypeError:
            order = range(n_keys)
        estimates = np.empty(n_trials)
        for t in range(n_trials):
            empirical = {
                keys[i]: counts[t, i] / n for i in order if counts[t, i]
            }
            estimates[t] = distance(empirical, reference)
    return estimates


@dataclass(frozen=True)
class SampleComplexityPoint:
    """Error statistics of a distance estimator at one sample size."""

    n: int
    mean_abs_error: float
    std_error: float
    mean_estimate: float


@dataclass(frozen=True)
class SampleComplexityCurve:
    """Error-vs-n curve for one distance estimator."""

    distance_name: str
    true_value: float
    points: tuple = field(default_factory=tuple)

    def sample_sizes(self) -> list[int]:
        return [p.n for p in self.points]

    def errors(self) -> list[float]:
        return [p.mean_abs_error for p in self.points]

    def empirical_rate(self) -> float:
        """Fitted exponent b in error ≈ a·n^(−b) (log–log least squares).

        A well-behaved plug-in estimator exhibits b ≈ 0.5 (the
        root-n rate the paper alludes to).
        """
        ns = np.array(self.sample_sizes(), dtype=float)
        errs = np.array(self.errors(), dtype=float)
        mask = errs > 0
        if mask.sum() < 2:
            return float("nan")
        slope, __ = np.polyfit(np.log(ns[mask]), np.log(errs[mask]), 1)
        return float(-slope)


def sample_complexity_curve(
    distance: Callable[[Mapping, Mapping], float],
    population: Mapping[object, float],
    reference: Mapping[object, float],
    sample_sizes: list[int],
    n_trials: int = 30,
    distance_name: str = "distance",
    random_state: int | np.random.Generator | None = None,
) -> SampleComplexityCurve:
    """Measure estimation error of ``distance`` as sample size grows.

    At each n, draws ``n_trials`` samples of size n from ``population``,
    computes ``distance(empirical_sample, reference)``, and compares to the
    true ``distance(population, reference)``.

    All trials for one ``n`` are drawn as a single ``(n_trials × n)``
    categorical sample and reduced to empirical distributions with one
    bincount per trial row.  That consumes the random stream exactly as
    one sample per trial would, so a seeded curve equals the
    one-sample-per-trial loop kept as a test oracle in
    ``tests/oracle/sampling.py``.
    """
    if not sample_sizes:
        raise ValidationError("sample_sizes must be non-empty")
    n_trials = check_positive_int(n_trials, "n_trials")
    rng = check_random_state(random_state)
    true_value = float(distance(population, reference))

    points = []
    for n in sorted(set(int(s) for s in sample_sizes)):
        check_positive_int(n, "sample size")
        estimates = _batched_estimates(
            distance, population, reference, n, n_trials, rng
        )
        errors = np.abs(estimates - true_value)
        points.append(
            SampleComplexityPoint(
                n=n,
                mean_abs_error=float(errors.mean()),
                std_error=float(errors.std()),
                mean_estimate=float(estimates.mean()),
            )
        )
    return SampleComplexityCurve(
        distance_name=distance_name,
        true_value=true_value,
        points=tuple(points),
    )


def estimate_required_samples(
    curve: SampleComplexityCurve, target_error: float
) -> int:
    """Extrapolate the sample size needed to reach ``target_error``.

    Uses the fitted power law of :meth:`SampleComplexityCurve.empirical_rate`.
    """
    if target_error <= 0:
        raise ValidationError(f"target_error must be positive, got {target_error}")
    ns = np.array(curve.sample_sizes(), dtype=float)
    errs = np.array(curve.errors(), dtype=float)
    mask = errs > 0
    if mask.sum() < 2:
        raise ValidationError("curve has too few informative points to fit")
    slope, intercept = np.polyfit(np.log(ns[mask]), np.log(errs[mask]), 1)
    if slope >= 0:
        raise ValidationError(
            "estimation error does not decrease with n; cannot extrapolate"
        )
    log_n = (np.log(target_error) - intercept) / slope
    return int(np.ceil(np.exp(log_n)))
