"""Reference subgroup scan: one mask, one scalar test per subgroup.

The executable specification the scan engine is checked against: every
enumerated subgroup's member mask splits the predictions into inside
and outside, scored with the scalar :func:`two_proportion_z_test` and
:func:`wilson_interval`.  Slow by design (O(n) per subgroup) and kept
out of the library; only tests and benchmarks call it.
"""

from __future__ import annotations

from repro._validation import check_binary_array
from repro.stats.tests import two_proportion_z_test, wilson_interval
from repro.subgroup import SubgroupFinding, enumerate_subgroups


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
            rate = float(inside.mean())
            complement = float(outside.mean())
            test = two_proportion_z_test(
                int(inside.sum()), len(inside),
                int(outside.sum()), len(outside),
            )
            lo, hi = wilson_interval(int(inside.sum()), len(inside))
            findings.append(
                SubgroupFinding(
                    subgroup=subgroup,
                    rate=rate,
                    complement_rate=complement,
                    gap=rate - complement,
                    ci_low=lo,
                    ci_high=hi,
                    p_value=test.p_value,
                )
            )
    findings.sort(key=lambda f: (-abs(f.gap), f.subgroup.label()))
    return findings
