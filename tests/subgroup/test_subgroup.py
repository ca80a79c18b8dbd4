"""Tests for repro.subgroup (Section IV.C)."""

import numpy as np
import pytest

from repro.core.config import ScanConfig
from repro.data import make_intersectional
from repro.exceptions import AuditError, ValidationError
from repro.subgroup import (
    GerrymanderingAuditor,
    audit_subgroups,
    enumerate_subgroups,
    subgroup_space_size,
)


@pytest.fixture(scope="module")
def intersectional():
    return make_intersectional(n=6000, subgroup_penalty=0.3, random_state=0)


class TestSpaceSize:
    def test_order_one(self):
        # two binary attributes: 2 + 2 = 4 order-1 subgroups
        assert subgroup_space_size([2, 2], max_order=1) == 4

    def test_order_two(self):
        # + 2*2 = 4 order-2 conjunctions
        assert subgroup_space_size([2, 2], max_order=2) == 8

    def test_exponential_growth(self):
        # ten 5-category attributes at order 5: the IV.C blow-up
        size = subgroup_space_size([5] * 10, max_order=5)
        assert size > 500_000

    def test_order_capped_at_attribute_count(self):
        assert subgroup_space_size([2, 2], max_order=10) == 8


class TestEnumeration:
    def test_order_one_and_two(self, intersectional):
        subgroups = enumerate_subgroups(
            intersectional, ["gender", "race"], max_order=2
        )
        labels = {s.label() for s in subgroups}
        assert "gender=female" in labels
        assert "gender=female ∧ race=caucasian" in labels
        assert len(subgroups) == 8

    def test_masks_partition_at_fixed_order(self, intersectional):
        subgroups = enumerate_subgroups(
            intersectional, ["gender", "race"], max_order=2
        )
        order2 = [s for s in subgroups if s.order == 2]
        total = sum(s.size for s in order2)
        assert total == intersectional.n_rows

    def test_min_size_filter(self, intersectional):
        subgroups = enumerate_subgroups(
            intersectional, ["gender", "race"], max_order=2,
            min_size=10**9,
        )
        assert subgroups == []

    def test_budget_enforced(self, intersectional):
        with pytest.raises(AuditError, match="exceeding budget"):
            enumerate_subgroups(
                intersectional, ["gender", "race"], max_order=2, budget=3
            )

    def test_non_discrete_rejected(self, intersectional):
        with pytest.raises(AuditError, match="discrete"):
            enumerate_subgroups(intersectional, ["score"])

    def test_empty_attributes_rejected(self, intersectional):
        with pytest.raises(ValidationError):
            enumerate_subgroups(intersectional, [])


class TestAuditSubgroups:
    def test_crossed_subgroups_most_disparate(self, intersectional):
        findings = audit_subgroups(
            intersectional.labels(), intersectional,
            attributes=["gender", "race"],
            scan_config=ScanConfig(max_order=2),
        )
        # top findings (by |gap|) must be the order-2 crossed subgroups
        top_labels = {f.subgroup.label() for f in findings[:4]}
        assert "gender=male ∧ race=non_caucasian" in top_labels
        assert "gender=female ∧ race=caucasian" in top_labels

    def test_marginal_subgroups_near_parity(self, intersectional):
        findings = audit_subgroups(
            intersectional.labels(), intersectional,
            attributes=["gender", "race"],
            scan_config=ScanConfig(max_order=1),
        )
        assert all(abs(f.gap) < 0.05 for f in findings)

    def test_disadvantaged_crossed_groups_significant(self, intersectional):
        findings = audit_subgroups(
            intersectional.labels(), intersectional,
            attributes=["gender", "race"],
            scan_config=ScanConfig(max_order=2),
        )
        crossed = [
            f for f in findings
            if f.subgroup.label() == "gender=female ∧ race=caucasian"
        ][0]
        # subgroup rate ≈ 0.2; complement mixes the other three cells
        # (≈ 0.6), so the expected gap is ≈ −0.4
        assert crossed.gap < -0.35
        assert crossed.significant()
        assert crossed.ci_low < crossed.rate < crossed.ci_high

    def test_prediction_length_checked(self, intersectional):
        with pytest.raises(AuditError, match="length"):
            audit_subgroups([1, 0], intersectional)

    def test_min_size_excludes_sparse(self, intersectional):
        findings = audit_subgroups(
            intersectional.labels(), intersectional,
            attributes=["gender", "race"],
            scan_config=ScanConfig(min_size=10**9),
        )
        assert findings == []


class TestGerrymanderingAuditor:
    def test_finds_crossed_subgroup(self, intersectional):
        auditor = GerrymanderingAuditor(max_depth=3)
        finding = auditor.find_worst_subgroup(
            intersectional.labels(), intersectional,
        )
        # the oracle should isolate (a union of) the two crossed cells:
        # gap magnitude close to the planted 0.6
        assert abs(finding.gap) > 0.4
        assert finding.significant()

    def test_constant_predictions_rejected(self, intersectional):
        auditor = GerrymanderingAuditor()
        with pytest.raises(AuditError, match="constant"):
            auditor.find_worst_subgroup(
                np.ones(intersectional.n_rows, dtype=int), intersectional
            )

    def test_leaf_conditions_describe_subgroup(self, intersectional):
        auditor = GerrymanderingAuditor(max_depth=2)
        finding = auditor.find_worst_subgroup(
            intersectional.labels(), intersectional,
        )
        for attribute, value in finding.subgroup.conditions:
            assert attribute in ("gender", "race")

    def test_scales_where_enumeration_cannot(self):
        # Build a dataset with many protected attributes; enumeration at
        # high order would explode, the oracle still runs.
        rng = np.random.default_rng(0)
        from repro.data import Column, Schema, TabularDataset

        n = 3000
        columns = []
        data = {}
        for i in range(8):
            name = f"attr{i}"
            columns.append(Column(
                name, kind="categorical", role="protected",
                categories=("x", "y"),
            ))
            data[name] = rng.choice(["x", "y"], n)
        columns.append(Column("outcome", kind="binary", role="label"))
        # plant disparity on attr0=x ∧ attr1=y
        planted = (data["attr0"] == "x") & (data["attr1"] == "y")
        data["outcome"] = np.where(
            planted, (rng.random(n) < 0.2), (rng.random(n) < 0.7)
        ).astype(int)
        ds = TabularDataset(Schema(tuple(columns)), data)

        finding = GerrymanderingAuditor(max_depth=3).find_worst_subgroup(
            ds.labels(), ds
        )
        assert abs(finding.gap) > 0.3
