"""The pre-kernel audit battery, swapped into :class:`FairnessAudit`.

:func:`reference_battery` points every name the audit looks up — the
metric functions imported by :mod:`repro.core.audit`, its label-metric
table, :func:`~repro.core.audit.intersection_column` and
``FairnessAudit._power_note`` — at the oracle versions for the duration
of a ``with`` block.  A whole audit (or a streamed one, which finalizes
through :class:`FairnessAudit`) then runs on the per-group masking
loops, so full-battery equivalence tests and the BENCH_P1/S1
"reference" rows compare and time a complete pre-kernel audit.  The
library knows nothing of this: it is plain attribute patching, undone
on exit.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from unittest import mock

import numpy as np

from repro.core import audit
from repro.data.dataset import TabularDataset
from repro.exceptions import AuditError
from tests.oracle import metrics as oracle_metrics
from tests.oracle.stats import min_detectable_gap

#: every metric function :mod:`repro.core.audit` imports by name
BATTERY_FUNCTIONS = (
    "calibration_within_groups",
    "conditional_demographic_disparity",
    "conditional_statistical_parity",
    "demographic_disparity",
    "demographic_parity",
    "disparate_impact_ratio",
    "equal_opportunity",
    "equalized_odds",
    "false_positive_rate_parity",
    "overall_accuracy_equality",
    "predictive_parity",
    "treatment_equality",
)


def intersection_column(
    dataset: TabularDataset, attributes: list[str], separator: str = "×"
) -> np.ndarray:
    """Per-row string joins of the protected columns."""
    if len(attributes) < 2:
        raise AuditError("intersection requires at least two attributes")
    parts = [dataset.column(a).astype(str) for a in attributes]
    combined = parts[0]
    for part in parts[1:]:
        combined = np.char.add(np.char.add(combined, separator), part)
    return combined


def power_note(self, attribute: str) -> dict:
    """Minimum detectable gap for this attribute's two largest groups."""
    _values, counts = np.unique(
        self.dataset.column(attribute), return_counts=True
    )
    if len(counts) < 2:
        return {}
    top = np.sort(counts)[-2:]
    base_rate = self._power_base_rate()
    return {
        "n_a": int(top[1]),
        "n_b": int(top[0]),
        "min_detectable_gap": min_detectable_gap(
            int(top[1]), int(top[0]), base_rate=base_rate
        ),
    }


@contextmanager
def reference_battery():
    """Run every :class:`FairnessAudit` inside the block on the oracle."""
    with ExitStack() as stack:
        for name in BATTERY_FUNCTIONS:
            stack.enter_context(
                mock.patch.object(audit, name, getattr(oracle_metrics, name))
            )
        stack.enter_context(mock.patch.dict(audit._LABEL_METRICS, {
            name: getattr(oracle_metrics, name) for name in audit._LABEL_METRICS
        }))
        stack.enter_context(
            mock.patch.object(audit, "intersection_column", intersection_column)
        )
        stack.enter_context(
            mock.patch.object(audit.FairnessAudit, "_power_note", power_note)
        )
        yield
