"""Properties of the one encoder and of the codes that ride along.

``encode_declared`` validates a discrete column and encodes it in one
pass; its table must equal ``encode`` of the column field for field.
Every dataset derived from an encoded one carries tables with the same
property, and the packed writer, which copies those codes instead of
re-encoding, must write files byte-identical to the two-pass encoding
it replaced (``tests/oracle/pack.py``).
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.data import Column, Schema, TabularDataset
from repro.data.dataset import _as_column_array
from repro.data.ooc import PackedWriter, open_dataset, pack_dataset
from repro.exceptions import DatasetError
from repro.kernel.codes import encode, encode_declared
from tests.oracle.pack import check_categories, write_codes_two_pass

#: declared-category pools; 2 vs 10 (and -3 vs 100) sort differently by
#: repr than by value, and string lengths vary so widths differ
POOLS = {
    "str": ("a", "bb", "Z", "c", "ab", "a longer value"),
    "int": (0, 2, 10, 7, -3, 100),
    "bool": (False, True),
}
DTYPES = {"str": str, "int": np.int64, "bool": bool}


def assert_table_is_encode(table, values) -> None:
    fresh = encode(np.asarray(values))
    assert table.categories == fresh.categories
    assert [type(c) for c in table.categories] == [
        type(c) for c in fresh.categories
    ]
    assert table.categories_array.dtype == fresh.categories_array.dtype
    np.testing.assert_array_equal(table.categories_array, fresh.categories_array)
    assert table.codes.dtype == fresh.codes.dtype
    np.testing.assert_array_equal(table.codes, fresh.codes)


@st.composite
def declared_columns(draw, min_rows=0):
    """``(kind, declared categories, values drawn from them)``; some
    declared categories may never occur, and a column may be empty."""
    kind = draw(st.sampled_from(sorted(POOLS)))
    declared = tuple(draw(st.lists(
        st.sampled_from(POOLS[kind]), min_size=1, max_size=len(POOLS[kind]),
        unique=True,
    )))
    used = draw(st.lists(
        st.sampled_from(declared), min_size=min_rows, max_size=40
    ))
    return kind, declared, np.array(used, dtype=DTYPES[kind])


class TestEncoder:
    @given(declared_columns())
    @settings(max_examples=150, deadline=None)
    def test_table_equals_encode(self, drawn):
        kind, declared, values = drawn
        column = Column("g", kind="categorical", categories=declared)
        arr, table = _as_column_array(values, column)
        assert_table_is_encode(table, arr)

    @pytest.mark.parametrize("declared, values", [
        ((2, 10), [10, 2, 2]),
        ((10, 2, 7), [7, 7]),
        (("only",), ["only"] * 5),
        ((False, True), [True, True]),
        (("a", "b"), np.array([], dtype=str)),
        ((0, 1), np.array([], dtype=np.int64)),
        (("a", "b"), []),
        ((0.5, 1.5), [1.5, 0.5]),
        ((2, 5, True), [2, 5, 1]),
    ])
    def test_edge_cases_equal_encode(self, declared, values):
        column = Column("g", kind="categorical", categories=declared)
        arr, table = _as_column_array(values, column)
        assert_table_is_encode(table, arr)

    @given(declared_columns(min_rows=1), st.data())
    @settings(max_examples=100, deadline=None)
    def test_out_of_category_values_raise_the_old_text(self, drawn, data):
        kind, declared, values = drawn
        outside = [c for c in POOLS[kind] if c not in declared]
        assume(outside or kind != "bool")
        outside = outside or (["not declared"] if kind == "str" else [999])
        extra = data.draw(st.lists(st.sampled_from(outside), min_size=1))
        bad = np.array(values.tolist() + extra, dtype=DTYPES[kind])
        column = Column("g", kind="categorical", categories=declared)
        with pytest.raises(DatasetError) as expected:
            check_categories(bad, column)
        with pytest.raises(DatasetError) as raised:
            encode_declared(bad, column.categories, column.name)
        assert str(raised.value) == str(expected.value)

    def test_mismatched_kinds_raise_the_old_text(self):
        column = Column("g", kind="categorical", categories=("1", "2"))
        values = np.array([1, 2])
        with pytest.raises(DatasetError) as expected:
            check_categories(values, column)
        with pytest.raises(DatasetError) as raised:
            _as_column_array(values, column)
        assert str(raised.value) == str(expected.value)


@st.composite
def datasets(draw):
    """A dataset with two discrete columns and a numeric one."""
    kind, declared, values = draw(declared_columns(min_rows=1))
    n = len(values)
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    schema = Schema((
        Column("x", kind="numeric"),
        Column("g", kind="categorical", role="protected", categories=declared),
        Column("y", kind="binary", role="label"),
    ))
    return TabularDataset(schema, {
        "x": np.arange(n, dtype=float), "g": values, "y": labels,
    })


def assert_tables_are_encode(dataset) -> None:
    for col in dataset.schema:
        if col.is_discrete:
            assert_table_is_encode(dataset.codes(col.name), dataset.column(col.name))


class TestDerivedTables:
    @given(datasets(), st.data())
    @settings(max_examples=120, deadline=None)
    def test_every_derived_dataset(self, data, draw):
        n = data.n_rows
        indices = draw.draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
        mask = np.array(draw.draw(
            st.lists(st.booleans(), min_size=n, max_size=n)
        ))
        other = draw.draw(datasets())
        value = data.column("g")[0].item()
        derived = [
            data,
            data.take(np.array(indices, dtype=np.int64)),
            data.take(mask),
            data.filter(g=value),
            *data.split(0.5, random_state=0),
            *data.split(0.5, random_state=1, stratify_by="g"),
            data.drop_column("x"),
            data.with_role("g", "metadata"),
            data.with_column(
                Column("b", kind="binary"), (data.column("x") % 2).astype(int)
            ),
            data.with_column(
                Column("g", kind="categorical", categories=("p", "q")),
                np.where(data.column("y") == 1, "p", "q"),
            ),
            data.concat(data.take(np.array(indices, dtype=np.int64))),
        ]
        if other.schema.names() == data.schema.names():
            try:
                derived.append(data.concat(other))
            except DatasetError:
                pass  # other's categories fall outside this schema's
        for dataset in derived:
            assert_tables_are_encode(dataset)

    @given(datasets(), datasets())
    @settings(max_examples=60, deadline=None)
    def test_concat_of_identical_schemas(self, left, right):
        right = TabularDataset(left.schema, {
            "x": right.column("x"),
            "g": np.resize(left.column("g")[::-1], right.n_rows),
            "y": right.column("y"),
        })
        assert_tables_are_encode(left.concat(right))
        assert_tables_are_encode(right.concat(left))


def _assert_pack_matches_oracle(path: Path, chunk_rows: int) -> None:
    sidecar = json.loads((path / "dataset.json").read_text())
    with tempfile.TemporaryDirectory() as scratch:
        for entry in sidecar["columns"]:
            if entry["codes"] is None:
                continue
            oracle_codes = Path(scratch) / entry["codes"]["file"]
            expected = write_codes_two_pass(
                path / entry["file"], oracle_codes, chunk_rows
            )
            assert entry["codes"]["categories"] == expected["categories"]
            assert entry["codes"]["counts"] == expected["counts"]
            assert (path / entry["codes"]["file"]).read_bytes() == (
                oracle_codes.read_bytes()
            )


class TestPackBytes:
    @given(datasets(), st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_pack_dataset_matches_the_two_pass_oracle(self, data, chunk_rows):
        with tempfile.TemporaryDirectory() as directory:
            path = pack_dataset(data, Path(directory) / "d.packed",
                                chunk_rows=chunk_rows)
            _assert_pack_matches_oracle(path, chunk_rows)
            pack = open_dataset(path, verify=True)
            assert pack.fingerprint() == data.fingerprint()
            assert_tables_are_encode(pack)
            for chunk in pack.iter_chunks(chunk_rows):
                assert_tables_are_encode(chunk)
            picked = np.arange(data.n_rows)[::-2]
            assert_tables_are_encode(pack.take(picked))

    @given(datasets(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_writer_chunks_in_any_arrival_order(self, data, draw):
        """Mapping and dataset chunks, empty ones included, whose
        categories arrive out of repr order: the writer renumbers on
        close and still matches the oracle byte for byte."""
        n = data.n_rows
        cuts = sorted(draw.draw(st.lists(st.integers(0, n), max_size=4)))
        order = np.argsort(data.column("g")[::-1], kind="stable")
        shuffled = data.take(order)
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "d.packed"
            with PackedWriter(path, data.schema, chunk_rows=3) as writer:
                for i, (lo, hi) in enumerate(zip([0, *cuts], [*cuts, n])):
                    piece = shuffled.take(np.arange(lo, hi))
                    writer.append(piece if i % 2 else {
                        name: piece.column(name) for name in data.schema.names()
                    })
            _assert_pack_matches_oracle(path, 3)
            pack = open_dataset(path, verify=True)
            assert pack.fingerprint() == shuffled.fingerprint()
            assert_tables_are_encode(pack)
