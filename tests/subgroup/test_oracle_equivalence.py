"""``audit_subgroups`` and the leaf auditor against the test oracle.

The scan engine counts joint cells once and scores every subgroup in
vectorized batches; the oracle in :mod:`tests.oracle.subgroup`
builds each subgroup's member mask and runs the scalar tests.  Their
findings must agree exactly — values, order and sizes — whether the
data is in memory or packed, the scan serial or ``jobs=2``, at either
subgroup size floor.  Likewise :class:`GerrymanderingAuditor` scores all
of its tree's leaves in one batch, and must pick the leaf the oracle's
one-leaf-at-a-time loop picks.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import ScanConfig
from repro.data import make_intersectional, open_dataset, pack_dataset
from repro.subgroup import GerrymanderingAuditor, audit_subgroups
from tests.oracle.subgroup import find_worst_subgroup, reference_findings


def signature(findings):
    return [
        (f.subgroup.conditions, f.subgroup.size, f.rate, f.complement_rate,
         f.gap, f.ci_low, f.ci_high, f.p_value, f.adjusted_p_value)
        for f in findings
    ]


@pytest.fixture(scope="module")
def sources(tmp_path_factory):
    data = make_intersectional(n=4000, random_state=21)
    path = tmp_path_factory.mktemp("oracle") / "intersectional"
    pack_dataset(data, path, chunk_rows=900)
    return {"mem": data, "packed": open_dataset(path, chunk_rows=900)}


@pytest.mark.parametrize("min_size", [1, 40])
@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("representation", ["mem", "packed"])
def test_audit_subgroups_matches_reference_scan(
    sources, representation, jobs, min_size
):
    dataset = sources[representation]
    expected = reference_findings(
        np.asarray(sources["mem"].labels()), sources["mem"],
        max_order=2, min_size=min_size,
    )
    assert expected  # the oracle scored something
    findings = audit_subgroups(
        dataset.labels(), dataset,
        scan_config=ScanConfig(max_order=2, min_size=min_size, jobs=jobs),
    )
    assert signature(findings) == signature(expected)


@pytest.mark.parametrize("max_depth,min_leaf_fraction", [
    (1, 0.02), (3, 0.02), (4, 0.0), (6, 0.05),
])
def test_worst_leaf_matches_per_leaf_oracle(
    sources, max_depth, min_leaf_fraction
):
    # the batched leaf scoring picks the same leaf, with the same
    # statistics, as the oracle's one-leaf-at-a-time loop
    data = sources["mem"]
    rng = np.random.default_rng(max_depth)
    predictions = np.where(
        rng.random(data.n_rows) < 0.9, data.labels(), 1 - data.labels()
    )
    auditor = GerrymanderingAuditor(
        max_depth=max_depth, min_leaf_fraction=min_leaf_fraction
    )
    found = auditor.find_worst_subgroup(predictions, data)
    expected = find_worst_subgroup(auditor, predictions, data)
    assert (found.subgroup.conditions, found.subgroup.size) == (
        expected.subgroup.conditions, expected.subgroup.size
    )
    assert np.array_equal(found.subgroup.mask, expected.subgroup.mask)
    assert signature([found]) == signature([expected])
