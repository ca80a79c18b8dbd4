"""Tests for the multi-group admissions generator and 3-group auditing."""

import numpy as np
import pytest

from repro.core import FairnessAudit, demographic_parity, four_fifths_rule
from repro.core.config import ScanConfig
from repro.data import ETHNICITY_GROUPS, make_admissions
from repro.exceptions import ValidationError
from repro.mitigation import QuantileRepair
from repro.subgroup import audit_subgroups


class TestGenerator:
    def test_schema(self):
        ds = make_admissions(n=300, random_state=0)
        assert set(ds.schema.protected_names) == {"ethnicity", "sex"}
        assert ds.schema.label_name == "admitted"
        assert ds.schema["ethnicity"].categories == ETHNICITY_GROUPS

    def test_shares_respected(self):
        ds = make_admissions(
            n=20000, ethnicity_shares=(0.5, 0.3, 0.2), random_state=0
        )
        eth = ds.column("ethnicity")
        assert np.mean(eth == "group_x") == pytest.approx(0.5, abs=0.02)
        assert np.mean(eth == "group_z") == pytest.approx(0.2, abs=0.02)

    def test_per_group_bias(self):
        ds = make_admissions(
            n=20000, ethnicity_bias=(0.0, 0.8, 1.6), random_state=0
        )
        eth = ds.column("ethnicity")
        admitted = ds.column("admitted")
        rates = {g: admitted[eth == g].mean() for g in ETHNICITY_GROUPS}
        assert rates["group_x"] > rates["group_y"] > rates["group_z"]

    def test_no_bias_near_parity(self):
        ds = make_admissions(n=20000, random_state=0)
        result = demographic_parity(
            ds.column("admitted"), ds.column("ethnicity")
        )
        assert result.gap < 0.03

    def test_validation(self):
        with pytest.raises(ValidationError, match="three entries"):
            make_admissions(ethnicity_shares=(0.5, 0.5))
        with pytest.raises(ValidationError, match="sum to 1"):
            make_admissions(ethnicity_shares=(0.5, 0.5, 0.5))


class TestThreeGroupAuditing:
    @pytest.fixture(scope="class")
    def biased(self):
        return make_admissions(
            n=8000, ethnicity_bias=(0.0, 0.8, 1.6), sex_bias=0.5,
            random_state=3,
        )

    def test_parity_over_all_pairs(self, biased):
        result = demographic_parity(
            biased.column("admitted"), biased.column("ethnicity"),
            with_significance=True,
        )
        # gap is max-min over the three groups; chi-square significance
        assert not result.satisfied
        assert result.significance.method == "chi_square"
        assert result.disadvantaged_group() == "group_z"

    def test_four_fifths_picks_extremes(self, biased):
        result = demographic_parity(
            biased.column("admitted"), biased.column("ethnicity")
        )
        finding = four_fifths_rule(result.rates())
        assert finding.reference_group == "group_x"
        assert finding.disadvantaged_group == "group_z"
        assert not finding.passes

    def test_audit_runs_both_attributes_and_intersection(self, biased):
        report = FairnessAudit(biased, tolerance=0.05).run()
        assert report.finding("ethnicity", "demographic_parity").satisfied is False
        assert report.finding("sex", "demographic_parity").satisfied is False
        # 3 × 2 = 6 intersectional cells audited
        inter = [
            f for f in report.intersectional_findings
            if f.metric == "demographic_parity"
        ][0]
        assert len(inter.result.group_stats) == 6

    def test_subgroup_scan_finds_worst_cell(self, biased):
        findings = audit_subgroups(
            biased.labels(), biased,
            attributes=["ethnicity", "sex"],
            scan_config=ScanConfig(max_order=2, min_size=30),
        )
        worst = findings[0]
        assert ("ethnicity", "group_z") in worst.subgroup.conditions

    def test_multigroup_quantile_repair(self, biased):
        # repair a score across three groups at once
        rng = np.random.default_rng(0)
        eth = biased.column("ethnicity")
        scores = rng.normal(0, 1, biased.n_rows)
        scores = scores - 0.8 * (eth == "group_y") - 1.6 * (eth == "group_z")
        repaired = QuantileRepair().fit_transform(scores, eth)
        means = [repaired[eth == g].mean() for g in ETHNICITY_GROUPS]
        assert max(means) - min(means) < 0.1
