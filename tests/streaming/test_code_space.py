"""Code-space counting: every ingest route lands in the same cells.

``AuditAccumulator`` has one counting entry, ``ingest_codes``.  Raw
values (``ingest``), caller-supplied ``(categories, codes)`` pairs and
the codes a packed dataset stores all reach it, so the three must give
byte-identical state whatever the chunking, the value types, or the
point at which new categories appear.  ``materialize`` registers each
column's kernel code table itself; those tables must equal what
``encode`` of the same column builds, field by field.
"""

from __future__ import annotations

import json
import tempfile
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import Column, Schema, TabularDataset
from repro.data.ooc import PackedChunk, _NpyReader, open_dataset, pack_dataset
from repro.exceptions import AuditError
from repro.kernel import codes as kernel_codes
from repro.kernel.codes import CategoryTable, codes_for, encode
from repro.streaming import AuditAccumulator, accumulator_for

#: value pools per dtype kind; ints include 10 so repr order differs
#: from numeric order
POOLS = {
    "int": [0, 3, 10, 7],
    "float": [0.5, 1.5, 2.25, -1.0],
    "bool": [False, True],
    "str": ["a", "bb", "c", "Z"],
    "object": ["x", "yy", "z"],
}


def _array(values, kind):
    return np.array(values, dtype=object if kind == "object" else None)


@st.composite
def streams(draw, kinds=tuple(POOLS)):
    """Rows of (g, s, y, p) plus a chunk size; late rows may carry
    categories the early rows never showed."""
    kind = draw(st.sampled_from(kinds))
    pool = POOLS[kind]
    n = draw(st.integers(1, 40))
    early = draw(st.integers(1, len(pool)))
    split = draw(st.integers(0, n))
    g = [
        draw(st.sampled_from(pool[:early] if i < split else pool))
        for i in range(n)
    ]
    s = draw(st.lists(st.sampled_from(["u", "v", "w"]), min_size=n, max_size=n))
    y = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    p = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    size = draw(st.integers(1, n))
    return kind, g, s, y, p, size


def _new():
    return AuditAccumulator(["g"], strata="s", label="y")


def _bounds(n, size):
    return [(lo, min(lo + size, n)) for lo in range(0, n, size)]


def _by_values(kind, g, s, y, p, size):
    acc = _new()
    for lo, hi in _bounds(len(g), size):
        acc.ingest(
            y_true=np.array(y[lo:hi]),
            predictions=np.array(p[lo:hi]),
            protected={"g": _array(g[lo:hi], kind)},
            strata=np.array(s[lo:hi]),
        )
    return acc


def _by_codes(kind, g, s, y, p, size, seed=0):
    """Codes against fixed, deliberately shuffled category lists."""
    rng = np.random.default_rng(seed)
    columns = [g, s, y, p]
    categories = []
    for values in columns:
        distinct = list(dict.fromkeys(values))
        categories.append([distinct[i] for i in rng.permutation(len(distinct))])
    acc = _new()
    for lo, hi in _bounds(len(g), size):
        acc.ingest_codes([
            (cats, np.array([cats.index(v) for v in values[lo:hi]],
                            dtype=np.int64))
            for cats, values in zip(categories, columns)
        ])
    return acc


def _packed(g, s, y, p):
    schema = Schema((
        Column("g", kind="categorical", role="protected",
               categories=tuple(dict.fromkeys(g))),
        Column("s", kind="categorical", role="feature",
               categories=("u", "v", "w")),
        Column("y", kind="binary", role="label"),
    ))
    return TabularDataset(schema, {"g": g, "s": s, "y": y})


def _by_pack(g, s, y, p, size, directory):
    path = f"{directory}/d{size}.packed"
    pack = open_dataset(pack_dataset(_packed(g, s, y, p), path))
    acc = _new()
    predictions = np.array(p)
    for chunk, (lo, hi) in zip(pack.iter_chunks(size), _bounds(len(g), size)):
        assert isinstance(chunk, PackedChunk)
        acc.ingest_dataset(chunk, predictions[lo:hi])
    return acc


def _state(acc) -> str:
    return json.dumps(acc.to_dict(), sort_keys=True)


class TestIngestRoutesAgree:
    @given(streams())
    @settings(max_examples=80, deadline=None)
    def test_values_and_codes_identical(self, stream):
        kind, g, s, y, p, size = stream
        by_values = _by_values(*stream)
        assert _state(by_values) == _state(_by_codes(*stream))
        # and both equal a plain tally of the rows
        tally = Counter(zip(g, s, y, p))
        assert dict(by_values._cells) == dict(tally)
        assert by_values.n_rows == len(g)

    @given(streams(kinds=("int", "float", "bool", "str")))
    @settings(max_examples=25, deadline=None)
    def test_packed_codes_identical(self, stream):
        kind, g, s, y, p, size = stream
        with tempfile.TemporaryDirectory() as directory:
            by_pack = _by_pack(g, s, y, p, size, directory)
        assert _state(by_pack) == _state(_by_values(*stream))

    def test_chunk_sizes_one_to_n(self):
        g = ["a", "b", "c", "a", "c", "b", "d"]
        s = ["u", "v", "u", "w", "v", "u", "u"]
        y = [1, 0, 1, 1, 0, 0, 1]
        p = [0, 0, 1, 1, 1, 0, 1]
        with tempfile.TemporaryDirectory() as directory:
            for size in range(1, len(g) + 1):
                stream = ("str", g, s, y, p, size)
                expected = _state(_by_values(*stream))
                assert _state(_by_codes(*stream)) == expected
                assert _state(_by_pack(g, s, y, p, size, directory)) == expected

    def test_sparse_chunks_over_a_wide_category_space(self):
        # 1500 x 1500 x 2 x 2 cells exceeds the dense bound once the
        # tables know every value: later chunks are re-coded per axis
        acc = AuditAccumulator(["g", "h"], label="y")
        values = np.arange(1500)
        rng = np.random.default_rng(3)
        rows = []
        for lo, hi in [(0, 1500), (1500, 1510), (1510, 1511)]:
            g = values[rng.permutation(1500)][: hi - lo] if lo else values
            h = values[::-1][: hi - lo]
            y = rng.integers(0, 2, hi - lo)
            p = rng.integers(0, 2, hi - lo)
            acc.ingest(y_true=y, predictions=p, protected={"g": g, "h": h})
            rows.extend(zip(g.tolist(), h.tolist(), y.tolist(), p.tolist()))
        assert dict(acc._cells) == dict(Counter(rows))
        assert acc.n_rows == len(rows)


class TestIngestCodesContract:
    def test_rejects_out_of_range_codes(self):
        acc = AuditAccumulator(["g"], label="y")
        with pytest.raises(AuditError, match="indexing"):
            acc.ingest_codes([
                (["a"], np.array([1])), ([0, 1], np.array([0])),
                ([0, 1], np.array([0])),
            ])
        with pytest.raises(AuditError, match="indexing"):
            acc.ingest_codes([
                (["a"], np.array([-1])), ([0, 1], np.array([0])),
                ([0, 1], np.array([0])),
            ])
        assert acc.n_rows == 0 and not acc._cells

    @pytest.mark.parametrize("dtype", [np.int32, np.uint8, np.uint64])
    def test_any_integer_code_dtype(self, dtype):
        acc = AuditAccumulator(["g"], label="y")
        acc.ingest_codes([
            (["a", "b"], np.array([0, 1, 1], dtype=dtype)),
            ([0, 1], np.array([1, 1, 0], dtype=dtype)),
            ([0, 1], np.array([0, 1, 1], dtype=dtype)),
        ])
        assert acc._cells == {("a", 1, 0): 1, ("b", 1, 1): 1, ("b", 0, 1): 1}

    def test_rejects_float_codes(self):
        acc = AuditAccumulator(["g"], label="y")
        with pytest.raises(AuditError, match="integers"):
            acc.ingest_codes([
                (["a"], np.array([0.0])), ([0, 1], np.array([0])),
                ([0, 1], np.array([0])),
            ])

    def test_rejects_wrong_axis_count(self):
        acc = AuditAccumulator(["g"], label="y")
        with pytest.raises(AuditError, match="one per axis"):
            acc.ingest_codes([(["a"], np.array([0]))])

    def test_rejects_ragged_codes(self):
        acc = AuditAccumulator(["g"], label="y")
        with pytest.raises(AuditError, match="share one length"):
            acc.ingest_codes([
                (["a"], np.array([0, 0])), ([0, 1], np.array([0])),
                ([0, 1], np.array([0])),
            ])

    def test_category_table_codes_stay_valid_as_it_grows(self):
        table = CategoryTable()
        first = table.encode(np.array(["m", "f", "m"]))
        assert table.categories == ["f", "m"]
        second = table.encode(np.array(["x", "f"]))
        assert table.categories == ["f", "m", "x"]
        assert [table.categories[c] for c in first] == ["m", "f", "m"]
        assert [table.categories[c] for c in second] == ["x", "f"]

    def test_category_table_finds_values_past_the_learned_prefix(self):
        values = np.array(["a", "b"] * 1500 + ["late"] + ["a"] * 10)
        table = CategoryTable()
        codes = table.encode(values)
        assert table.categories == ["a", "b", "late"]
        assert [table.categories[c] for c in codes] == values.tolist()

    def test_category_table_never_conflates_types(self):
        table = CategoryTable()
        table.encode(np.array([1, 2]))
        codes = table.encode(np.array(["1", "2", "1"]))
        assert table.categories == [1, 2, "1", "2"]
        decoded = [table.categories[c] for c in codes]
        assert decoded == ["1", "2", "1"]
        assert all(type(v) is str for v in decoded)
        again = table.encode(np.array([2, 1]))
        assert [table.categories[c] for c in again] == [2, 1]


class TestPackedChunks:
    def test_reads_only_the_counted_code_files(self, monkeypatch):
        g = ["a", "b"] * 5
        s = ["u", "v", "w", "u", "v"] * 2
        y = [0, 1] * 5
        read = []
        real_read = _NpyReader.read

        def recording(self, lo, hi):
            read.append(self.path.name)
            return real_read(self, lo, hi)

        with tempfile.TemporaryDirectory() as directory:
            data = _packed(g, s, y, [0] * 10)
            path = pack_dataset(data, f"{directory}/d.packed")
            pack = open_dataset(path)
            monkeypatch.setattr(_NpyReader, "read", recording)
            acc = AuditAccumulator(["g"], label="y", audits_labels=True)
            for chunk in pack.iter_chunks(4):
                acc.ingest_dataset(chunk)
        # files are "<position>-<column>.npy"; the strata column "s" is
        # never counted, so never read
        assert {name.split("-", 1)[1] for name in read} == {
            "g.codes.npy", "y.codes.npy"
        }
        assert acc.n_rows == 10

    def test_no_row_sort_from_ingest_to_code_tables(self, monkeypatch):
        g = ["a", "b", "c"] * 20
        s = ["u", "v", "w", "u"] * 15
        y = [0, 1, 1] * 20
        with tempfile.TemporaryDirectory() as directory:
            path = pack_dataset(_packed(g, s, y, [0]), f"{directory}/d.packed")
            pack = open_dataset(path)

            def forbidden(values, *args, **kwargs):
                # per-cell arrays (at most 18 cells here) may be sorted;
                # a chunk (25 rows) or a column (60) may not
                if np.asarray(values).size >= 25:
                    raise AssertionError(
                        f"sorted an array of {np.asarray(values).size} rows"
                    )
                return real_unique(values, *args, **kwargs)

            real_unique = np.unique
            monkeypatch.setattr(np, "unique", forbidden)
            acc = accumulator_for(pack, strata="s", audits_labels=True)
            for chunk in pack.iter_chunks(25):
                acc.ingest_dataset(chunk)
            dataset, _ = acc.materialize()
            for name in dataset.schema.names():
                dataset.codes(name)
        assert acc.n_rows == 60


def _assert_tables_match_encode(dataset):
    for name in dataset.schema.names():
        column = dataset.column(name)
        registered = codes_for(column)
        fresh = encode(np.array(column))
        assert registered.categories == fresh.categories
        assert [type(c) for c in registered.categories] == [
            type(c) for c in fresh.categories
        ]
        assert registered.categories_array.dtype == fresh.categories_array.dtype
        np.testing.assert_array_equal(
            registered.categories_array, fresh.categories_array
        )
        assert registered.codes.dtype == fresh.codes.dtype
        np.testing.assert_array_equal(registered.codes, fresh.codes)


class TestMaterializedCodeTables:
    @given(streams(kinds=("int", "float", "bool", "str")))
    @settings(max_examples=60, deadline=None)
    def test_registered_tables_equal_encode(self, stream):
        dataset, predictions = _by_values(*stream).materialize()
        _assert_tables_match_encode(dataset)
        assert len(predictions) == dataset.n_rows

    def test_mixed_int_and_bool_categories(self):
        # repr order of the cell values (2 < True) differs from the
        # order of the cast int column (1 < 2): the table follows the
        # column, exactly as encode would
        acc = AuditAccumulator(["g"], label="y", audits_labels=True)
        acc.ingest(y_true=[1, 0], protected={"g": np.array([2, 5])})
        acc.ingest(y_true=[1], protected={"g": np.array([True])})
        dataset, _ = acc.materialize()
        _assert_tables_match_encode(dataset)

    def test_codes_for_never_re_encodes(self, monkeypatch):
        acc = _by_values("str", list("abcab"), list("uvwuv"), [1, 0, 1, 0, 1],
                         [0, 0, 1, 1, 0], 2)
        dataset, _ = acc.materialize()

        def forbidden(*args, **kwargs):
            raise AssertionError("materialized column was re-encoded")

        monkeypatch.setattr(kernel_codes, "encode", forbidden)
        for name in dataset.schema.names():
            assert dataset.codes(name).n_rows == dataset.n_rows
