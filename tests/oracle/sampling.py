"""Reference sample-complexity curve: one sample per trial.

:func:`repro.stats.sampling.sample_complexity_curve` draws all trials
for one sample size as a single ``(n_trials × n)`` matrix.  This is the
loop it replaced, kept verbatim: one categorical sample per trial,
reduced with :func:`~repro.stats.sampling.empirical_distribution`.  It
consumes the random stream identically, so a seeded curve must match
the library's exactly.  Population keys with no total order (mixed
types) cannot go through ``empirical_distribution``'s sort; their
empirical dicts follow the population's own order, as the library's do.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro._validation import check_positive_int, check_random_state
from repro.exceptions import ValidationError
from repro.stats.sampling import (
    SampleComplexityCurve,
    SampleComplexityPoint,
    empirical_distribution,
    sample_from_distribution,
)


def sample_complexity_curve(
    distance,
    population,
    reference,
    sample_sizes,
    n_trials=30,
    distance_name="distance",
    random_state=None,
) -> SampleComplexityCurve:
    if not sample_sizes:
        raise ValidationError("sample_sizes must be non-empty")
    n_trials = check_positive_int(n_trials, "n_trials")
    rng = check_random_state(random_state)
    true_value = float(distance(population, reference))

    points = []
    for n in sorted(set(int(s) for s in sample_sizes)):
        check_positive_int(n, "sample size")
        estimates = np.empty(n_trials)
        for t in range(n_trials):
            sample = sample_from_distribution(population, n, rng)
            estimates[t] = distance(_empirical(sample, population), reference)
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


def _empirical(sample, population):
    try:
        return empirical_distribution(sample)
    except TypeError:
        counts = Counter(sample.tolist())
        return {
            key: counts[key] / len(sample) for key in population if counts[key]
        }
