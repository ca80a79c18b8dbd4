"""Encode once: how many times each path encodes a discrete column.

A dataset encodes each discrete column exactly once, when it is built
(``encode_declared``, which also validates the column).  Everything
downstream reuses those codes: packing writes them as they are, and an
in-memory audit finds them through the dataset (``codes``) or, for the
bare column arrays the metric functions receive, through the kernel's
identity cache, where the dataset registered them.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

import repro
from repro import AuditConfig
from repro.data import dataset as dataset_module
from repro.data.generators import make_hiring, make_intersectional
from repro.data.ooc import open_dataset, pack_dataset
from repro.kernel import codes as kernel_codes


@pytest.fixture
def encodes(monkeypatch):
    """Count encoder calls; ``encoded`` keeps each ``encode`` input."""
    calls = Counter()
    encoded: list = []
    real_declared = kernel_codes.encode_declared
    real_encode = kernel_codes.encode

    def declared(values, categories, name):
        calls["encode_declared"] += 1
        return real_declared(values, categories, name)

    def encode(values, categories=None):
        calls["encode"] += 1
        encoded.append(values)
        return real_encode(values, categories)

    monkeypatch.setattr(dataset_module, "encode_declared", declared)
    monkeypatch.setattr(kernel_codes, "encode_declared", declared)
    monkeypatch.setattr(kernel_codes, "encode", encode)
    calls.encoded = encoded
    return calls


def _discrete(dataset) -> list[str]:
    return [col.name for col in dataset.schema if col.is_discrete]


def test_construction_encodes_each_discrete_column_once(encodes):
    data = make_hiring(2_000, random_state=3)
    assert encodes["encode_declared"] == len(_discrete(data)) == 3
    assert encodes["encode"] == 0


def test_pack_encodes_nothing(encodes, tmp_path):
    data = make_hiring(2_000, random_state=3)
    encodes.clear()
    path = pack_dataset(data, tmp_path / "h.packed", chunk_rows=300)
    assert encodes == Counter()
    # the codes it wrote are the dataset's, and reading them back as
    # chunks encodes nothing either
    pack = open_dataset(path)
    for chunk in pack.iter_chunks(700):
        for name in _discrete(data):
            chunk.codes(name)
    assert encodes == Counter()
    for name in _discrete(data):
        np.testing.assert_array_equal(pack.codes(name).codes, data.codes(name).codes)


@pytest.mark.parametrize(
    "make, config",
    [
        (lambda: make_hiring(3_000, direct_bias=1.0, random_state=1),
         AuditConfig(strata="university")),
        (lambda: make_intersectional(n=2_000, random_state=1), AuditConfig()),
    ],
)
def test_in_memory_audit_encodes_no_dataset_column(encodes, make, config):
    data = make()
    columns = [data.column(name) for name in data.schema.names()]
    encodes.clear()
    encodes.encoded.clear()
    repro.audit(data, config=config)
    assert encodes["encode_declared"] == 0
    assert not [
        values for values in encodes.encoded
        if any(values is column for column in columns)
    ]


def test_derived_datasets_encode_only_new_columns(encodes):
    from repro.data import Column

    data = make_hiring(1_000, random_state=2)
    encodes.clear()
    half = data.take(np.arange(0, 1_000, 2))
    half.concat(data.take(np.arange(1, 1_000, 2)))
    data.filter(sex="female")
    data.split(0.3, random_state=0, stratify_by="sex")
    data.drop_column("university").with_role("sex", "metadata")
    assert encodes == Counter()
    data.with_column(
        Column("band", kind="categorical", categories=("lo", "hi")),
        np.where(data.column("experience") > 5, "hi", "lo"),
    )
    assert encodes == Counter({"encode_declared": 1})
