"""Joint-contingency engine: all group confusion counts in one bincount.

Combining a group code ``g`` with binary outcome/label codes folds the
whole (group × label × prediction) contingency table into a single flat
code per row; one ``np.bincount`` over those codes then yields the full
confusion-matrix counts of *every* group at once.  Demographic parity,
equal opportunity, equalized odds, predictive parity, treatment
equality, FPR parity, accuracy equality, and the conditional variants
all read from this one shared count tensor instead of re-masking the
arrays per metric per group.

Counts are exact integers, so every derived rate (``positives / n``)
is bit-identical to the per-group-mask computation of the test oracle
(``tests/oracle/metrics.py``).  The
engine's latency feeds the ``kernel.contingency`` histogram; count
tensors are cached by array identity next to the code tables.
"""

from __future__ import annotations

import numpy as np

from repro.kernel.codes import CodeTable, cache_get, cache_put, codes_for
from repro.observability.metrics import get_metrics

__all__ = [
    "GroupCounts",
    "StratifiedCounts",
    "combined_codes",
    "joint_counts",
    "group_counts",
    "stratified_counts",
]


def combined_codes(tables: list[CodeTable]) -> tuple[np.ndarray, int]:
    """Fold several code tables into one joint code per row.

    Returns ``(codes, n_cells)`` where cell ``(c_1, ..., c_k)`` maps to
    ``((c_1 * |T_2| + c_2) * |T_3| + c_3) ...`` — row-major order over
    the tables' category axes.  Any ``-1`` component leaves the joint
    code negative, so out-of-table rows stay identifiable.
    """
    codes = tables[0].codes
    n_cells = tables[0].n_categories
    for table in tables[1:]:
        negative = (codes < 0) | (table.codes < 0)
        codes = codes * table.n_categories + table.codes
        if negative.any():
            codes = np.where(negative, -1, codes)
        n_cells *= table.n_categories
    return codes, n_cells


def joint_counts(codes: np.ndarray, n_cells: int, *binary: np.ndarray) -> np.ndarray:
    """Contingency counts over joint codes crossed with binary arrays.

    With no binary arrays the result has shape ``(n_cells,)``; each
    additional binary (0/1 int) array appends an axis of length 2, e.g.
    ``joint_counts(g, G, y, r)[g, y, r]`` is the number of rows in group
    ``g`` with label ``y`` and prediction ``r``.  Rows with negative
    codes are excluded.
    """
    with get_metrics().timer("kernel.contingency"):
        if np.any(codes < 0):
            valid = codes >= 0
            codes = codes[valid]
            binary = tuple(b[valid] for b in binary)
        combined = codes
        for b in binary:
            combined = combined * 2 + b
        cells = n_cells * (2 ** len(binary))
        counts = np.bincount(combined, minlength=cells)
    return counts.reshape((n_cells,) + (2,) * len(binary))


class GroupCounts:
    """Per-group confusion counts for one protected attribute.

    All fields are plain Python ints aligned with ``categories`` (the
    repr-sorted group order).  The label-side fields (``tp`` etc.) are
    ``None`` when built without ``y_true``.
    """

    __slots__ = ("categories", "n", "pred_pos", "tp", "fp", "fn", "tn")

    def __init__(self, categories, counts: np.ndarray):
        self.categories = categories
        if counts.ndim == 2:  # (group, prediction)
            self.n = [int(x) for x in counts.sum(axis=1)]
            self.pred_pos = [int(x) for x in counts[:, 1]]
            self.tp = self.fp = self.fn = self.tn = None
        else:  # (group, label, prediction)
            self.n = [int(x) for x in counts.sum(axis=(1, 2))]
            self.tp = [int(x) for x in counts[:, 1, 1]]
            self.fn = [int(x) for x in counts[:, 1, 0]]
            self.fp = [int(x) for x in counts[:, 0, 1]]
            self.tn = [int(x) for x in counts[:, 0, 0]]
            self.pred_pos = [t + f for t, f in zip(self.tp, self.fp)]


class StratifiedCounts:
    """Per-(stratum, group) positive-prediction counts.

    ``counts[s, g, r]`` is the number of rows in stratum ``s`` (order of
    ``strata_table.categories``) and group ``g`` with prediction ``r``.
    """

    __slots__ = ("strata_table", "group_table", "counts")

    def __init__(self, strata_table: CodeTable, group_table: CodeTable, counts: np.ndarray):
        self.strata_table = strata_table
        self.group_table = group_table
        self.counts = counts


def group_counts(protected, predictions, y_true=None) -> GroupCounts:
    """Confusion counts per protected group, cached by array identity."""
    arrays = (protected, predictions) if y_true is None else (protected, predictions, y_true)
    cacheable = all(isinstance(a, np.ndarray) for a in arrays)
    extra = ("group_counts", len(arrays))
    if cacheable:
        cached = cache_get(arrays, extra)
        if cached is not None:
            return cached
    table = codes_for(protected)
    binary = (predictions,) if y_true is None else (y_true, predictions)
    counts = joint_counts(table.codes, table.n_categories, *binary)
    result = GroupCounts(table.categories, counts)
    if cacheable:
        cache_put(arrays, extra, result)
    return result


def stratified_counts(strata, protected, predictions) -> StratifiedCounts:
    """Per-(stratum, group) prediction counts, cached by array identity."""
    arrays = (strata, protected, predictions)
    cacheable = all(isinstance(a, np.ndarray) for a in arrays)
    extra = ("stratified_counts",)
    if cacheable:
        cached = cache_get(arrays, extra)
        if cached is not None:
            return cached
    strata_table = codes_for(strata)
    group_table = codes_for(protected)
    codes, n_cells = combined_codes([strata_table, group_table])
    counts = joint_counts(codes, n_cells, predictions).reshape(
        strata_table.n_categories, group_table.n_categories, 2
    )
    result = StratifiedCounts(strata_table, group_table, counts)
    if cacheable:
        cache_put(arrays, extra, result)
    return result
