"""Tests for multiple-testing corrections and their subgroup integration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ScanConfig
from repro.data import make_intersectional
from repro.exceptions import AuditError, ValidationError
from repro.stats import benjamini_hochberg, holm_bonferroni
from repro.subgroup import adjust_for_multiple_testing, audit_subgroups


class TestHolmBonferroni:
    def test_single_test_unchanged(self):
        np.testing.assert_allclose(holm_bonferroni([0.03]), [0.03])

    def test_known_example(self):
        # sorted p: 0.01, 0.02, 0.04 with m=3:
        # 3*0.01=0.03, 2*0.02=0.04, 1*0.04=0.04
        adjusted = holm_bonferroni([0.04, 0.01, 0.02])
        np.testing.assert_allclose(adjusted, [0.04, 0.03, 0.04])

    def test_monotone_in_input_order_of_sorted(self):
        adjusted = holm_bonferroni([0.001, 0.01, 0.05, 0.2])
        assert np.all(np.diff(adjusted) >= 0)

    def test_capped_at_one(self):
        adjusted = holm_bonferroni([0.5] * 10)
        assert np.all(adjusted == 1.0)

    def test_validation(self):
        with pytest.raises(ValidationError):
            holm_bonferroni([])
        with pytest.raises(ValidationError):
            holm_bonferroni([1.5])


class TestBenjaminiHochberg:
    def test_known_example(self):
        # sorted p: 0.01, 0.02, 0.03, 0.04 with m=4:
        # 4*0.01/1=0.04, 4*0.02/2=0.04, 4*0.03/3=0.04, 4*0.04/4=0.04
        adjusted = benjamini_hochberg([0.01, 0.02, 0.03, 0.04])
        np.testing.assert_allclose(adjusted, [0.04] * 4)

    def test_less_conservative_than_holm(self):
        p = [0.001, 0.008, 0.039, 0.041, 0.1]
        holm = holm_bonferroni(p)
        bh = benjamini_hochberg(p)
        assert np.all(bh <= holm + 1e-12)

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_adjusted_at_least_raw_and_bounded(self, p_values):
        for method in (holm_bonferroni, benjamini_hochberg):
            adjusted = method(p_values)
            assert np.all(adjusted >= np.asarray(p_values) - 1e-12)
            assert np.all(adjusted <= 1.0 + 1e-12)

    @given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=20),
           st.integers(0, 100))
    @settings(max_examples=40, deadline=None)
    def test_permutation_equivariance(self, p_values, seed):
        rng = np.random.default_rng(seed)
        order = rng.permutation(len(p_values))
        p = np.asarray(p_values)
        for method in (holm_bonferroni, benjamini_hochberg):
            direct = method(p)[order]
            permuted = method(p[order])
            np.testing.assert_allclose(direct, permuted)


class TestSubgroupIntegration:
    @pytest.fixture(scope="class")
    def findings(self):
        ds = make_intersectional(n=6000, subgroup_penalty=0.3, random_state=0)
        return audit_subgroups(
            ds.labels(), ds, attributes=["gender", "race"],
            scan_config=ScanConfig(max_order=2),
        )

    def test_adjustment_attaches_values(self, findings):
        adjusted = adjust_for_multiple_testing(findings)
        assert len(adjusted) == len(findings)
        for before, after in zip(findings, adjusted):
            assert before.adjusted_p_value is None
            assert after.adjusted_p_value is not None
            assert after.adjusted_p_value >= before.p_value - 1e-12
            assert after.subgroup.label() == before.subgroup.label()

    def test_planted_disparity_survives_correction(self, findings):
        adjusted = adjust_for_multiple_testing(findings, method="holm")
        crossed = [
            f for f in adjusted
            if f.subgroup.label() == "gender=female ∧ race=caucasian"
        ][0]
        assert crossed.significant()

    def test_marginal_noise_does_not_survive(self, findings):
        adjusted = adjust_for_multiple_testing(findings)
        marginals = [f for f in adjusted if f.subgroup.order == 1]
        assert all(not f.significant() for f in marginals)

    def test_bh_method(self, findings):
        adjusted = adjust_for_multiple_testing(findings, method="bh")
        assert all(f.adjusted_p_value is not None for f in adjusted)

    def test_unknown_method_raises(self, findings):
        with pytest.raises(AuditError, match="unknown correction"):
            adjust_for_multiple_testing(findings, method="magic")

    def test_empty_input(self):
        assert adjust_for_multiple_testing([]) == []
