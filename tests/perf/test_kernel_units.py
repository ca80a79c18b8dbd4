"""Unit behavior of the kernel primitives themselves."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import Column, Schema, TabularDataset
from repro.kernel import (
    CodeTable,
    codes_for,
    combined_codes,
    encode,
    group_counts,
    joint_counts,
)


def test_encode_orders_categories_by_repr():
    table = encode(np.array([10, 1, 2, 1, 10]))
    assert table.categories == [1, 10, 2]
    assert table.codes.tolist() == [1, 0, 2, 0, 1]
    assert table.counts().tolist() == [2, 2, 1]


def test_encode_with_explicit_categories_marks_unknowns():
    table = encode(np.array(["a", "b", "c"]), categories=["b", "a"])
    assert table.codes.tolist() == [1, 0, -1]
    assert table.counts().tolist() == [1, 1]


def test_masks_are_cached_and_read_only():
    table = encode(np.array(["x", "y", "x"]))
    mask = table.mask("x")
    assert mask.tolist() == [True, False, True]
    assert mask is table.mask("x")
    with pytest.raises(ValueError):
        mask[0] = False
    assert table.mask("missing").tolist() == [False, False, False]


def test_codes_for_returns_same_table_for_same_array():
    values = np.array(["a", "b", "a"])
    assert codes_for(values) is codes_for(values)
    # A different array with equal content is a different cache entry.
    assert codes_for(values) is not codes_for(values.copy())


def test_joint_counts_equal_manual_confusion_matrix():
    rng = np.random.default_rng(3)
    groups = rng.choice(["g0", "g1", "g2"], size=500)
    y_true = rng.integers(0, 2, size=500)
    predictions = rng.integers(0, 2, size=500)
    counts = group_counts(groups, predictions, y_true)
    for index, group in enumerate(counts.categories):
        member = groups == group
        assert counts.tp[index] == int(((y_true == 1) & (predictions == 1) & member).sum())
        assert counts.fn[index] == int(((y_true == 1) & (predictions == 0) & member).sum())
        assert counts.fp[index] == int(((y_true == 0) & (predictions == 1) & member).sum())
        assert counts.tn[index] == int(((y_true == 0) & (predictions == 0) & member).sum())
        assert counts.n[index] == int(member.sum())


def test_combined_codes_drop_out_of_table_rows():
    left = encode(np.array(["a", "a", "b"]), categories=["a"])
    right = encode(np.array(["x", "y", "x"]))
    codes, n_cells = combined_codes([left, right])
    assert n_cells == 2
    assert codes.tolist() == [0, 1, -1]
    assert joint_counts(codes, n_cells).tolist() == [1, 1]


def test_dataset_codes_cached_per_fingerprint():
    schema = Schema((
        Column("sex", kind="categorical", role="protected",
               categories=("male", "female")),
        Column("hired", kind="binary", role="label"),
    ))
    data = TabularDataset(schema, {
        "sex": ["male", "female", "female"], "hired": [1, 0, 1],
    })
    table = data.codes("sex")
    assert isinstance(table, CodeTable)
    assert table is data.codes("sex")
    assert data.category_mask("sex", "female").tolist() == [False, True, True]
