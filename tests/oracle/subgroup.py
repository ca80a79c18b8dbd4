"""Reference subgroup scoring: one mask, one scalar test per subgroup.

The executable specification the scan engine and the learned-oracle
auditor are checked against.  :func:`reference_findings` builds every
enumerated subgroup's member mask and splits the predictions into
inside and outside; :func:`find_worst_subgroup` fits the same tree as
:meth:`repro.subgroup.GerrymanderingAuditor.find_worst_subgroup` and
scores its leaves one at a time.  Both score with the scalar tests in
:mod:`tests.oracle.stats`.  Slow by design (O(n) per subgroup) and kept
out of the library; only tests and benchmarks call it.
"""

from __future__ import annotations

import numpy as np

from repro._validation import check_binary_array
from repro.exceptions import AuditError
from repro.models.preprocessing import OneHotEncoder
from repro.models.tree import DecisionTree
from repro.subgroup import SubgroupFinding, enumerate_subgroups
from repro.subgroup.enumeration import Subgroup
from tests.oracle.stats import two_proportion_z_test, wilson_interval


def _finding(subgroup, inside, outside) -> SubgroupFinding:
    rate = float(inside.mean())
    complement = float(outside.mean())
    _, p_value = two_proportion_z_test(
        int(inside.sum()), len(inside), int(outside.sum()), len(outside)
    )
    lo, hi = wilson_interval(int(inside.sum()), len(inside))
    return SubgroupFinding(
        subgroup=subgroup,
        rate=rate,
        complement_rate=complement,
        gap=rate - complement,
        ci_low=float(lo),
        ci_high=float(hi),
        p_value=p_value,
    )


def reference_findings(
    predictions, dataset, attributes=None, max_order=2, min_size=10
) -> list[SubgroupFinding]:
    """Raw-p-value findings, most disparate first, like
    ``audit_subgroups`` with the same lattice settings."""
    predictions = check_binary_array(predictions, "predictions")
    if attributes is None:
        attributes = dataset.schema.protected_names
    findings = []
    for subgroup in enumerate_subgroups(
        dataset, attributes, max_order=max_order, min_size=min_size
    ):
        inside = predictions[subgroup.mask]
        outside = predictions[~subgroup.mask]
        if len(outside) > 0:
            findings.append(_finding(subgroup, inside, outside))
    findings.sort(key=lambda f: (-abs(f.gap), f.subgroup.label()))
    return findings


def find_worst_subgroup(
    auditor, predictions, dataset, attributes=None
) -> SubgroupFinding:
    """``auditor.find_worst_subgroup`` with the per-leaf scoring loop."""
    predictions = check_binary_array(predictions, "predictions")
    if len(predictions) != dataset.n_rows:
        raise AuditError("predictions length does not match dataset")
    if attributes is None:
        attributes = dataset.schema.protected_names
    if not attributes:
        raise AuditError("no attributes to audit")

    blocks = []
    feature_names: list[tuple[str, object]] = []
    for attribute in attributes:
        encoder = OneHotEncoder()
        blocks.append(encoder.fit_transform(dataset.column(attribute)))
        feature_names.extend(
            (attribute, category) for category in encoder.categories
        )
    X = np.hstack(blocks)

    min_leaf = max(1, int(auditor.min_leaf_fraction * dataset.n_rows))
    tree = DecisionTree(max_depth=auditor.max_depth, min_samples_leaf=min_leaf)
    if len(np.unique(predictions)) < 2:
        raise AuditError(
            "predictions are constant; no subgroup disparity can exist"
        )
    tree.fit(X, predictions)
    leaf_probs = tree.predict_proba(X)

    best: SubgroupFinding | None = None
    for leaf_value in np.unique(leaf_probs):
        mask = leaf_probs == leaf_value
        inside = predictions[mask]
        outside = predictions[~mask]
        if len(inside) < min_leaf or len(outside) == 0:
            continue
        conditions = auditor._describe_leaf(X, mask, feature_names)
        finding = _finding(
            Subgroup(conditions=conditions, size=int(mask.sum()), mask=mask),
            inside,
            outside,
        )
        if best is None or abs(finding.gap) > abs(best.gap):
            best = finding
    if best is None:
        raise AuditError("oracle produced no usable leaves")
    return best
