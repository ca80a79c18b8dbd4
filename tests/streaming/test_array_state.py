"""The accumulator's array state against the dict state it replaced.

``AuditAccumulator`` keeps its joint cells as a code matrix plus a
counts vector.  :class:`tests.oracle.accumulator.DictAccumulator` is the
``dict[tuple, int]`` implementation it replaced, kept verbatim.  Fed
the same chunks — random layouts, str/int/bool categories (ints whose
repr order differs from their numeric order), random chunkings and
ingest routes — the two must serialise to the same bytes, hold the
same cells, merge and diff alike, roll back alike, reconstruct the same
dataset and refuse the same corrupt state with the same error text.

Two deliberate differences.  The array state codes each axis against
one category table, so values that are equal but of different types
(``1`` and ``True``) share one category per axis, where the dict kept
each cell's own key object; no axis here mixes bool and int.  And a
state file that repeats a cell key has that key's counts added up,
where the dict kept the last one.
"""

from __future__ import annotations

import json
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import AuditError
from repro.streaming import AuditAccumulator
from repro.subgroup.search import _Lattice, _restored_counts

from tests.oracle.accumulator import DictAccumulator

#: category pools of the protected and strata axes; "mixed" holds str
#: and int values in one axis ("10" vs 10), ints include 2 and 10 so
#: repr order differs from numeric order
POOLS = {
    "str": ["a", "bb", "Z", "c"],
    "int": [2, 10, 0, 7, 11],
    "bool": [False, True],
    "mixed": ["a", 2, "10", 10],
}
#: pools of the label and prediction axes
BINARY = {"int": [0, 1], "bool": [False, True]}


@st.composite
def streams(draw, max_rows=40):
    """A layout, its per-axis pools, and chunks of rows over them."""
    n_protected = draw(st.integers(1, 3))
    strata = draw(st.booleans())
    label = draw(st.booleans())
    audits_labels = label and draw(st.booleans())
    layout = {
        "protected": [f"p{i}" for i in range(n_protected)],
        "strata": "s" if strata else None,
        "label": "y" if label else None,
        "audits_labels": audits_labels,
    }
    pools = [
        POOLS[draw(st.sampled_from(sorted(POOLS)))]
        for _axis in range(n_protected + strata)
    ]
    pools += [
        BINARY[draw(st.sampled_from(sorted(BINARY)))]
        for _axis in range(label + (not audits_labels))
    ]
    return layout, pools, draw(chunkings(pools, max_rows))


@st.composite
def chunkings(draw, pools, max_rows=40):
    """Rows over ``pools``, cut into chunks each with an ingest route."""
    n = draw(st.integers(0, max_rows))
    rows = [tuple(draw(st.sampled_from(pool)) for pool in pools)
            for _row in range(n)]
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=5)))
    return [
        (rows[lo:hi], draw(st.sampled_from(["codes", "values"])),
         draw(st.randoms(use_true_random=False)))
        for lo, hi in zip([0, *cuts], [*cuts, n])
    ]


def _new(cls, layout):
    return cls(
        layout["protected"], strata=layout["strata"], label=layout["label"],
        audits_labels=layout["audits_labels"],
    )


def _ingest(acc, layout, pools, chunk) -> None:
    """Feed one chunk by its route; the same call for either class."""
    rows, route, rnd = chunk
    columns = [list(axis) for axis in zip(*rows)] or [[] for _pool in pools]
    if route == "codes":
        pairs = []
        for values, pool in zip(columns, pools):
            # the chunk's values plus unused ones, in a shuffled order
            categories = list(dict.fromkeys(values + rnd.sample(pool, 1)))
            rnd.shuffle(categories)
            codes = np.array([categories.index(v) for v in values],
                             dtype=np.int64)
            pairs.append((categories, codes))
        acc.ingest_codes(pairs)
        return
    columns = iter(columns)
    protected = {name: next(columns) for name in layout["protected"]}
    strata = next(columns) if layout["strata"] else None
    y_true = next(columns) if layout["label"] else None
    predictions = None if layout["audits_labels"] else next(columns)
    acc.ingest(y_true=y_true, predictions=predictions,
               protected=protected, strata=strata)


def _both(stream):
    layout, pools, chunks = stream
    acc, oracle = _new(AuditAccumulator, layout), _new(DictAccumulator, layout)
    for chunk in chunks:
        _ingest(acc, layout, pools, chunk)
        _ingest(oracle, layout, pools, chunk)
    return acc, oracle


def _outcome(call):
    """A call's result, or its exception's type and text."""
    try:
        return "ok", call()
    except Exception as exc:  # noqa: BLE001 — compared, not swallowed
        return type(exc).__name__, str(exc)


def _reconstruction(acc):
    dataset, predictions = acc.materialize()
    columns = {}
    for name in dataset.schema.names():
        values = dataset.column(name)
        table = dataset.codes(name)
        columns[name] = (
            values.dtype.str, values.tolist(), table.categories,
            table.categories_array.tolist(), table.codes.tolist(),
        )
    if predictions is not None:
        predictions = (predictions.dtype.str, predictions.tolist())
    return dataset.schema, columns, predictions


class TestAgainstTheDictState:
    @given(streams())
    @settings(max_examples=100, deadline=None)
    def test_ingest_serialises_and_reconstructs_alike(self, stream):
        acc, oracle = _both(stream)
        assert acc.to_json() == oracle.to_json()
        assert dict(acc._cells) == oracle._cells
        assert acc.n_cells == len(oracle._cells)
        assert repr(acc) == repr(oracle).replace("Dict", "Audit")
        if acc.n_rows:
            assert _outcome(lambda: _reconstruction(acc)) == _outcome(
                lambda: _reconstruction(oracle)
            )

    @given(streams(), st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_merge_in_any_order(self, stream, rnd):
        layout, pools, chunks = stream
        shard_of = [rnd.randrange(3) for _chunk in chunks]
        order = list(range(3))
        rnd.shuffle(order)
        merged = []
        for cls in (AuditAccumulator, DictAccumulator):
            shards = [_new(cls, layout) for _shard in range(3)]
            for chunk, shard in zip(chunks, shard_of):
                _ingest(shards[shard], layout, pools, chunk)
            merged.append(cls.merge_all([shards[i] for i in order]))
            # folding into a non-empty accumulator, itself included
            shards[order[0]].merge(shards[order[1]]).merge(shards[order[0]])
            merged.append(shards[order[0]])
        acc, acc_folded, oracle, oracle_folded = merged
        assert acc.to_json() == oracle.to_json()
        assert acc_folded.to_json() == oracle_folded.to_json()

    @given(streams())
    @settings(max_examples=50, deadline=None)
    def test_diff_against_every_prefix(self, stream):
        layout, pools, chunks = stream
        full, oracle_full = _both(stream)
        for k in range(len(chunks) + 1):
            prefix, oracle_prefix = _both((layout, pools, chunks[:k]))
            delta = full.diff(prefix)
            assert delta.to_json() == oracle_full.diff(oracle_prefix).to_json()
            assert delta.merge(prefix).to_json() == full.to_json()
            if prefix.n_rows < full.n_rows:
                assert _outcome(lambda: prefix.diff(full)) == _outcome(
                    lambda: oracle_prefix.diff(oracle_full)
                )

    @given(streams(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_diff_refuses_a_non_prefix_alike(self, stream, data):
        layout, pools, _chunks = stream
        other = (layout, pools, data.draw(chunkings(pools)))
        (acc, oracle), (base, oracle_base) = _both(stream), _both(other)

        def template(outcome):
            kind, text = outcome
            if kind == "ok":
                return kind, text.to_json()
            return kind, re.sub(r"\(.*\)|\d+", "_", text)

        assert template(_outcome(lambda: acc.diff(base))) == template(
            _outcome(lambda: oracle.diff(oracle_base))
        )

    @given(streams(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_snapshot_restore_around_a_failed_chunk(self, stream, data):
        layout, pools, chunks = stream
        failed = data.draw(st.integers(0, len(chunks)))
        states = []
        for cls in (AuditAccumulator, DictAccumulator):
            acc = _new(cls, layout)
            for i, chunk in enumerate(chunks):
                before = acc.snapshot()
                _ingest(acc, layout, pools, chunk)
                if i == failed:  # counted, then the chunk failed
                    acc.restore(before)
            with pytest.raises(AuditError, match="indexing"):
                before = acc.snapshot()
                acc.ingest_codes([([], np.array([0]))] * len(pools))
            acc.restore(before)
            states.append(acc.to_json())
        assert states[0] == states[1]


def _corrupt(payload, kind, rnd):
    cells = payload["cells"]
    i = rnd.randrange(len(cells)) if cells else None
    if kind == "version":
        payload["version"] = 2
    elif kind == "not_a_list":
        payload["cells"] = {"a": 1}
    elif kind == "n_rows":
        payload["n_rows"] += rnd.choice([-1, 1])
    elif i is None:
        return payload
    elif kind == "width":
        key = cells[i][0]
        cells[i][0] = key[:-1] if rnd.random() < 0.5 else key + ["x"]
    elif kind == "negative":
        cells[i][1] = -cells[i][1]
    elif kind == "zero":
        payload["n_rows"] -= cells[i][1]
        cells[i][1] = 0
    elif kind == "repeat":
        count = rnd.randrange(1, 5)
        payload["n_rows"] += count
        cells.append([list(cells[i][0]), count])
    elif kind == "pair":
        cells[i] = cells[i][:1] if rnd.random() < 0.5 else cells[i] + [0]
    elif kind == "unhashable":
        cells[i][0][0] = [cells[i][0][0]]
    return payload


class TestFromDict:
    @given(
        streams(),
        st.sampled_from(["none", "version", "not_a_list", "n_rows", "width",
                         "negative", "zero", "repeat", "pair", "unhashable"]),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=120, deadline=None)
    def test_same_state_or_same_error(self, stream, kind, rnd):
        _acc, oracle = _both(stream)
        payload = _corrupt(oracle.to_dict(), kind, rnd)
        expected = json.loads(json.dumps(payload))
        if kind == "repeat" and payload["cells"]:
            # the counts of a repeated key add up, where the dict kept
            # the last one
            key, count = expected["cells"].pop()
            next(c for c in expected["cells"] if c[0] == key)[1] += count

        def load(cls, payload):
            return lambda: cls.from_dict(payload).to_json()

        assert _outcome(load(AuditAccumulator, payload)) == _outcome(
            load(DictAccumulator, expected)
        )


class TestLatticeCells:
    """``_restored_counts`` reads the cells through ``lattice_cells``."""

    @given(
        st.lists(st.tuples(st.integers(0, 11), st.integers(0, 2),
                           st.integers(0, 1)), min_size=1, max_size=30),
        st.sampled_from([12, -1, "3", 1.5, None]),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_a_cell_outside_the_lattice_is_named(self, rows, bad, data):
        lattice = _Lattice.__new__(_Lattice)
        lattice.attributes, lattice.radix = ["a", "b"], [12, 3]
        lattice.bounds = (12, 3, 2)
        acc = AuditAccumulator(["a", "b"], label=None)
        acc.ingest_codes(
            [(list(range(bound)), np.array(axis))
             for bound, axis in zip(lattice.bounds, zip(*rows))]
        )
        keys, counts = acc.lattice_cells(lattice.bounds)
        assert dict(zip(map(tuple, keys.tolist()), counts.tolist())) == dict(
            Counter(rows)
        )
        payload = acc.to_dict()
        assert _restored_counts(payload, lattice, len(rows)).to_json() == (
            acc.to_json()
        )
        cell = data.draw(st.integers(0, len(payload["cells"]) - 1))
        axis = data.draw(st.integers(0, 2))
        key = payload["cells"][cell][0]
        key[axis] = bad
        with pytest.raises(
            ValueError,
            match=re.escape(f"cell {tuple(key)!r} lies outside the lattice"),
        ):
            _restored_counts(payload, lattice, len(rows))


class TestCounting:
    @pytest.mark.parametrize("columns,distinct", [(4, 2000), (8, 1000)])
    def test_high_cardinality_chunk(self, columns, distinct):
        # the product of the chunk's category counts is far past int64:
        # the chunk is counted by sorting its rows, not by a bincount
        rng = np.random.default_rng(columns)
        names = [f"a{i}" for i in range(columns)]
        values = {
            name: rng.permutation([f"{name}-{v}" for v in range(distinct)])
            for name in names
        }
        predictions = rng.integers(0, 2, distinct)
        acc = AuditAccumulator(names, label=None)
        acc.ingest(predictions=predictions, protected=values)
        half = distinct // 2  # a second chunk repeating half the rows
        acc.ingest(predictions=predictions[:half],
                   protected={k: v[:half] for k, v in values.items()})
        rows = list(zip(*(values[name].tolist() for name in names),
                        predictions.tolist()))
        assert dict(acc._cells) == dict(Counter(rows + rows[:half]))
        assert acc.n_rows == distinct + half

    @given(streams(max_rows=30), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_weights_count_rows_that_many_times(self, stream, rnd):
        layout, pools, chunks = stream
        rows = [row for chunk in chunks for row in chunk[0]]
        weights = [rnd.randrange(4) for _row in rows]
        categories = [list(pool) for pool in pools]
        acc = _new(AuditAccumulator, layout)
        assert acc.ingest_codes(
            [(cats, np.array([cats.index(v) for v in axis], dtype=np.int64))
             for cats, axis in zip(categories, zip(*rows))]
            if rows else [(cats, np.zeros(0, np.int64)) for cats in categories],
            weights=np.array(weights, dtype=np.int64),
        ) == (sum(weights) if rows else 0)
        expected = Counter()
        for row, weight in zip(rows, weights):
            if weight:
                expected[row] += weight
        assert dict(acc._cells) == dict(expected)
        assert acc.n_rows == sum(weights)

    def test_weights_are_checked(self):
        acc = AuditAccumulator(["g"], label=None)
        pairs = [(["a"], np.array([0, 0])), ([0, 1], np.array([0, 1]))]
        for weights in ([1], [1, -1], [0.5, 1]):
            with pytest.raises(AuditError, match="non-negative integers"):
                acc.ingest_codes(pairs, weights=np.array(weights))
        assert acc.n_rows == 0 and not acc._cells
