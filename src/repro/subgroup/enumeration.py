"""Subgroup enumeration with explicit complexity accounting (paper IV.C).

The paper: *"computational issues arise when trying to drill down to more
granular subgroups, since complexity increases exponentially."*  The
enumerator makes that cost visible: it reports, for each conjunction
order, how many subgroups exist, and refuses to enumerate past an
explicit budget instead of silently hanging.

Sizing is done by the kernel's joint-contingency engine: one
``np.bincount`` over combined codes counts every value combination of an
attribute subset at once, instead of one O(n) mask build per subgroup.
Member masks are materialised lazily from the kernel's cached
per-category masks (``np.logical_and.reduce``) only when actually read.
"""

from __future__ import annotations

from itertools import combinations, product

import numpy as np

from repro._validation import check_positive_int
from repro.data.dataset import TabularDataset
from repro.exceptions import AuditError, ValidationError
from repro.kernel import combined_codes, joint_counts

__all__ = ["Subgroup", "enumerate_subgroups", "subgroup_space_size"]


class Subgroup:
    """A conjunction of attribute=value conditions and its member mask.

    ``mask`` is computed on first access when the subgroup was built with
    a ``mask_factory`` (the enumerator's cached-mask conjunction); scans
    that never touch the mask — the kernel path scores from counts —
    skip the O(n) materialisation entirely.
    """

    __slots__ = ("conditions", "size", "_mask", "_mask_factory")

    def __init__(self, conditions: tuple, size: int, mask=None, mask_factory=None):
        self.conditions = tuple(conditions)
        self.size = int(size)
        if mask is None and mask_factory is None:
            raise ValidationError("Subgroup requires a mask or a mask_factory")
        self._mask = mask
        self._mask_factory = mask_factory

    @property
    def mask(self) -> np.ndarray:
        """Boolean member mask (materialised lazily, then kept)."""
        if self._mask is None:
            self._mask = self._mask_factory()
        return self._mask

    @property
    def order(self) -> int:
        """Number of conjoined conditions."""
        return len(self.conditions)

    def label(self) -> str:
        """Readable label like ``gender=female ∧ race=caucasian``."""
        return " ∧ ".join(f"{a}={v}" for a, v in self.conditions)

    def __repr__(self) -> str:
        return f"Subgroup({self.label()}, n={self.size})"


def subgroup_space_size(category_counts: list[int], max_order: int) -> int:
    """Number of subgroups definable by conjunctions up to ``max_order``.

    ``category_counts`` holds the number of categories per attribute.
    For attributes with c_1..c_k categories, order-m conjunctions number
    sum over m-subsets of the product of their category counts — the
    exponential blow-up the paper warns about.
    """
    if any(c < 1 for c in category_counts):
        raise ValidationError("category counts must be positive")
    check_positive_int(max_order, "max_order")
    total = 0
    k = len(category_counts)
    for order in range(1, min(max_order, k) + 1):
        for subset in combinations(range(k), order):
            size = 1
            for index in subset:
                size *= category_counts[index]
            total += size
    return total


def _conjunction_factory(tables: list, values: tuple):
    """Deferred AND over the tables' cached per-category masks."""

    def build(tables=tables, values=values) -> np.ndarray:
        if len(tables) == 1:
            return tables[0].mask(values[0])
        return np.logical_and.reduce(
            [table.mask(value) for table, value in zip(tables, values)]
        )

    return build


def enumerate_subgroups(
    dataset: TabularDataset,
    attributes: list[str],
    max_order: int = 2,
    min_size: int = 1,
    budget: int = 100_000,
) -> list[Subgroup]:
    """All attribute-conjunction subgroups up to ``max_order``.

    Parameters
    ----------
    attributes:
        Discrete columns to conjoin (typically the protected ones, but
        legitimate factors can be included for context strata).
    min_size:
        Subgroups with fewer members are dropped (they would be
        statistically unusable anyway; see Section IV.C).
    budget:
        Upper bound on the subgroup-space size; exceeding it raises
        :class:`AuditError` with the computed size, so callers confront
        the exponential cost explicitly.
    """
    if not attributes:
        raise ValidationError("attributes must be non-empty")
    check_positive_int(max_order, "max_order")
    categories: dict[str, list] = {}
    for attribute in attributes:
        column = dataset.schema[attribute]
        if not column.is_discrete:
            raise AuditError(
                f"subgroup enumeration requires discrete columns; "
                f"{attribute!r} is {column.kind}"
            )
        categories[attribute] = dataset.present_categories(attribute)

    space = subgroup_space_size(
        [len(categories[a]) for a in attributes], max_order
    )
    if space > budget:
        raise AuditError(
            f"subgroup space has {space} members, exceeding budget {budget}; "
            "raise the budget explicitly or lower max_order (paper IV.C: "
            "complexity increases exponentially)"
        )

    tables = {a: dataset.codes(a) for a in attributes}
    chunked_counts = getattr(dataset, "subset_counts", None)
    subgroups: list[Subgroup] = []
    for order in range(1, min(max_order, len(attributes)) + 1):
        for attrs in combinations(attributes, order):
            attr_tables = [tables[a] for a in attrs]
            if chunked_counts is not None:
                # bounded-memory accumulation over the packed code
                # files; bit-identical to the one-shot bincount below.
                sizes = chunked_counts(attrs)
            else:
                codes, n_cells = combined_codes(attr_tables)
                sizes = joint_counts(codes, n_cells)
            for values in product(*(categories[a] for a in attrs)):
                cell = 0
                for table, value in zip(attr_tables, values):
                    cell = cell * table.n_categories + table.index[value]
                size = int(sizes[cell])
                if size < min_size:
                    continue
                subgroups.append(
                    Subgroup(
                        conditions=tuple(zip(attrs, values)),
                        size=size,
                        mask_factory=_conjunction_factory(attr_tables, values),
                    )
                )
    return subgroups
