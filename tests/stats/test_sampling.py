"""Tests for repro.stats.sampling (Section IV.F sample complexity)."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.stats import (
    DISTANCE_REGISTRY,
    dkw_sample_bound,
    empirical_distribution,
    estimate_required_samples,
    hoeffding_sample_bound,
    sample_complexity_curve,
    sample_from_distribution,
)
from tests.oracle.sampling import sample_complexity_curve as oracle_curve


POPULATION = {"male": 0.5, "female": 0.5}
SKEWED = {"male": 0.8, "female": 0.2}


class TestEmpiricalDistribution:
    def test_counts(self):
        dist = empirical_distribution(["a", "a", "b", "a"])
        assert dist == {"a": 0.75, "b": 0.25}

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            empirical_distribution([])


class TestSampleFromDistribution:
    def test_respects_probabilities(self):
        sample = sample_from_distribution(SKEWED, 20000, random_state=0)
        share = np.mean(sample == "male")
        assert share == pytest.approx(0.8, abs=0.01)

    def test_deterministic(self):
        a = sample_from_distribution(POPULATION, 50, random_state=3)
        b = sample_from_distribution(POPULATION, 50, random_state=3)
        np.testing.assert_array_equal(a, b)

    def test_bad_distribution_rejected(self):
        with pytest.raises(ValidationError):
            sample_from_distribution({"a": -1.0, "b": 2.0}, 10)

    def test_numeric_keys_keep_numeric_dtype(self):
        sample = sample_from_distribution({0: 0.5, 1: 0.5}, 40, random_state=1)
        assert np.issubdtype(sample.dtype, np.integer)
        sample = sample_from_distribution(
            {0.25: 0.5, 0.75: 0.5}, 40, random_state=1
        )
        assert np.issubdtype(sample.dtype, np.floating)

    def test_string_keys_unchanged(self):
        sample = sample_from_distribution(POPULATION, 40, random_state=1)
        assert set(np.unique(sample)) <= {"male", "female"}

    def test_mixed_keys_not_coerced(self):
        # np.array(["a", 1]) would silently stringify the int; the
        # sampler must keep heterogeneous keys as objects instead.
        sample = sample_from_distribution({"a": 0.5, 1: 0.5}, 60,
                                          random_state=2)
        assert sample.dtype == object
        assert set(sample.tolist()) <= {"a", 1}
        assert any(isinstance(v, int) for v in sample.tolist())


class TestSampleComplexityCurve:
    @pytest.mark.parametrize("name", sorted(DISTANCE_REGISTRY))
    def test_error_decreases_with_n(self, name):
        curve = sample_complexity_curve(
            DISTANCE_REGISTRY[name],
            population=SKEWED,
            reference=POPULATION,
            sample_sizes=[30, 300, 3000],
            n_trials=25,
            distance_name=name,
            random_state=0,
        )
        errors = curve.errors()
        assert errors[0] > errors[-1]
        assert curve.true_value > 0

    def test_rate_near_root_n(self):
        curve = sample_complexity_curve(
            DISTANCE_REGISTRY["total_variation"],
            population=SKEWED,
            reference=POPULATION,
            sample_sizes=[50, 200, 800, 3200],
            n_trials=40,
            random_state=1,
        )
        rate = curve.empirical_rate()
        assert 0.3 < rate < 0.8  # ≈ 0.5 up to noise

    def test_required_samples_extrapolation(self):
        curve = sample_complexity_curve(
            DISTANCE_REGISTRY["total_variation"],
            population=SKEWED,
            reference=POPULATION,
            sample_sizes=[50, 200, 800],
            n_trials=30,
            random_state=2,
        )
        target = curve.errors()[-1] / 4
        needed = estimate_required_samples(curve, target)
        assert needed > 800

    def test_empty_sizes_rejected(self):
        with pytest.raises(ValidationError, match="non-empty"):
            sample_complexity_curve(
                DISTANCE_REGISTRY["hellinger"], SKEWED, POPULATION, []
            )

    @pytest.mark.parametrize("name", sorted(DISTANCE_REGISTRY))
    def test_seeded_curve_matches_per_trial_oracle(self, name):
        # the batched trials consume the random stream exactly as one
        # sample per trial does, so the seeded curves are identical
        args = (DISTANCE_REGISTRY[name], {"a": 0.6, "b": 0.3, "c": 0.1},
                POPULATION, [5, 40, 300])
        kwargs = dict(n_trials=12, distance_name=name, random_state=3)
        assert sample_complexity_curve(*args, **kwargs) == (
            oracle_curve(*args, **kwargs)
        )

    def test_bad_target_rejected(self):
        curve = sample_complexity_curve(
            DISTANCE_REGISTRY["hellinger"], SKEWED, POPULATION,
            [50, 100], n_trials=5, random_state=0,
        )
        with pytest.raises(ValidationError, match="positive"):
            estimate_required_samples(curve, 0.0)


class TestTheoreticalBounds:
    def test_hoeffding_known_value(self):
        # ln(2/0.05)/(2*0.01^2) ≈ 18444.4
        assert hoeffding_sample_bound(0.01, 0.05) == 18445

    def test_bound_shrinks_with_looser_epsilon(self):
        assert hoeffding_sample_bound(0.1) < hoeffding_sample_bound(0.01)

    def test_bound_grows_with_confidence(self):
        assert hoeffding_sample_bound(0.05, delta=0.001) > (
            hoeffding_sample_bound(0.05, delta=0.1)
        )

    def test_dkw_matches_hoeffding_form(self):
        assert dkw_sample_bound(0.02, 0.05) == hoeffding_sample_bound(0.02, 0.05)

    def test_bound_dominates_empirical_error(self):
        # at the bound's sample size, the observed error should be within
        # epsilon (with margin to spare, since Hoeffding is worst-case)
        epsilon = 0.05
        n = hoeffding_sample_bound(epsilon, delta=0.05)
        curve = sample_complexity_curve(
            DISTANCE_REGISTRY["total_variation"],
            population={"a": 0.7, "b": 0.3},
            reference={"a": 0.5, "b": 0.5},
            sample_sizes=[n],
            n_trials=15,
            random_state=0,
        )
        assert curve.errors()[0] < epsilon

    def test_validation(self):
        import pytest as _pytest
        from repro.exceptions import ValidationError as _VE

        with _pytest.raises(_VE):
            hoeffding_sample_bound(0.0)
        with _pytest.raises(_VE):
            hoeffding_sample_bound(0.1, delta=1.5)
