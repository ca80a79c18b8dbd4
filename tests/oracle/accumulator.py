"""The dict-of-cells accumulator the array state replaced.

Until the accumulator's state of record became a code matrix plus a
counts vector, :class:`~repro.streaming.AuditAccumulator` kept its joint
contingency cells in a ``dict[tuple, int]``: ``_count`` looped over the
chunk's nonzero cells to add into it, ``merge`` and ``diff`` looped over
the other dict, ``from_dict`` validated and inserted cell by cell, and
``to_dict``/``materialize`` sorted the items on a tuple of ``repr``
strings.  That class is kept here verbatim (renamed
:class:`DictAccumulator`) as the comparator of the property tests in
``tests/streaming/test_array_state.py``: same serialised bytes, same
error texts, same reconstruction, same cells.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from repro.data.dataset import TabularDataset, _as_column_array
from repro.data.schema import Column, ColumnKind, ColumnRole, Schema
from repro.exceptions import AuditError, CheckpointError
from repro.kernel.codes import CategoryTable, CodeTable
from repro.observability.metrics import get_metrics
from repro.robustness.checkpoint import load_checkpoint, save_checkpoint

__all__ = ["DictAccumulator"]

#: accumulator state format version (bumped on layout changes)
STATE_VERSION = 1

#: joint cell spaces up to this size are counted densely whatever the
#: chunk length; larger ones are first narrowed to the chunk's categories
_DENSE_CELLS = 1 << 20


class DictAccumulator:
    """Additive audit state over ``(y_true, predictions, protected)`` chunks.

    Parameters
    ----------
    protected:
        Ordered protected-attribute names; the order fixes the audit's
        attribute iteration (match the source schema's order to get
        byte-identical reports).
    strata:
        Optional legitimate conditioning column tracked alongside the
        protected values (enables the conditional metrics downstream).
    label:
        Name of the ground-truth column in the reconstructed dataset;
        ``None`` for streams that carry predictions but no labels.
    audits_labels:
        ``True`` for a *data audit* — the stream carries labels only and
        the audit evaluates them directly (chunks must not pass
        ``predictions``).

    Examples
    --------
    >>> acc = DictAccumulator(["sex"], label="hired")
    >>> acc.ingest(y_true=[1, 0], predictions=[1, 1],
    ...            protected={"sex": ["f", "m"]})
    2
    >>> acc.n_rows
    2
    """

    def __init__(
        self,
        protected,
        *,
        strata: str | None = None,
        label: str | None = "outcome",
        audits_labels: bool = False,
    ):
        self.protected = tuple(protected)
        if not self.protected:
            raise AuditError("accumulator requires protected attributes")
        self.strata = strata
        self.label = label
        self.audits_labels = bool(audits_labels)
        if self.audits_labels and self.label is None:
            raise AuditError("a data audit (audits_labels) requires a label")
        self._cells: dict[tuple, int] = {}
        #: append-only per-axis category tables :meth:`ingest` encodes
        #: raw values against; a cache only — the cells are the state
        self._tables = tuple(CategoryTable() for _dim in self._dims)
        self.n_rows = 0
        self.chunks_ingested = 0

    # -- layout --------------------------------------------------------------

    @property
    def _dims(self) -> tuple[str, ...]:
        """Cell-key axes, in order: protected, strata, label, prediction."""
        dims = list(self.protected)
        if self.strata is not None:
            dims.append("__strata__")
        if self.label is not None:
            dims.append("__label__")
        if not self.audits_labels:
            dims.append("__prediction__")
        return tuple(dims)

    def layout(self) -> dict:
        """The identity of this accumulator's cell space."""
        return {
            "protected": list(self.protected),
            "strata": self.strata,
            "label": self.label,
            "audits_labels": self.audits_labels,
        }

    def fingerprint(self) -> str:
        """sha256 of the layout — merge/resume compatibility key."""
        return hashlib.sha256(
            json.dumps(self.layout(), sort_keys=True).encode()
        ).hexdigest()

    # -- ingest --------------------------------------------------------------

    def ingest(
        self, y_true=None, predictions=None, protected=None, strata=None
    ) -> int:
        """Add one chunk of aligned arrays; returns the rows ingested.

        ``protected`` maps each configured attribute name to its values;
        ``y_true``/``predictions``/``strata`` follow the accumulator's
        layout (a data audit takes ``y_true`` only; a label-free stream
        takes ``predictions`` only).
        """
        if protected is None:
            raise AuditError("ingest requires the protected value arrays")
        columns: list[np.ndarray] = []
        for name in self.protected:
            if name not in protected:
                raise AuditError(f"chunk is missing protected column {name!r}")
            columns.append(np.asarray(protected[name]))
        if self.strata is not None:
            if strata is None:
                raise AuditError(
                    f"accumulator tracks strata {self.strata!r} but the "
                    "chunk passed none"
                )
            columns.append(np.asarray(strata))
        elif strata is not None:
            raise AuditError("accumulator tracks no strata column")
        if self.label is not None:
            if y_true is None:
                raise AuditError("accumulator tracks labels; pass y_true")
            columns.append(np.asarray(y_true))
        elif y_true is not None:
            raise AuditError("accumulator tracks no label column")
        return self._ingest_columns(columns, predictions)

    def ingest_dataset(self, chunk: TabularDataset, predictions=None) -> int:
        """Ingest one :class:`~repro.data.dataset.TabularDataset` chunk.

        Columns are pulled by the accumulator's configured names; for a
        model audit ``predictions`` is the aligned binary array (or
        ``None`` for a data audit).  A discrete column is counted from
        the chunk's code table (``chunk.codes(name)``), which every
        dataset holds from construction and a packed chunk reads from
        its pack: its values are never read or re-encoded.
        """
        names = [*self.protected, *filter(None, (self.strata, self.label))]
        return self._ingest_columns([
            chunk.codes(name) if chunk.schema[name].is_discrete
            else chunk.column(name)
            for name in names
        ], predictions)

    def _ingest_columns(self, columns: list, predictions) -> int:
        """Encode raw-value columns against the append-only category
        tables and count the chunk through :meth:`ingest_codes`;
        ``CodeTable`` columns pass through as they are."""
        if self.audits_labels:
            if predictions is not None:
                raise AuditError(
                    "a data audit evaluates the labels themselves; "
                    "do not pass predictions"
                )
        elif predictions is None:
            raise AuditError("pass the predictions to audit")
        else:
            columns.append(np.asarray(predictions))
        if any(np.ndim(column) != 1 for column in columns
               if not isinstance(column, CodeTable)):
            raise AuditError("chunk arrays must be 1-D and share one length")
        with get_metrics().timer("streaming.chunk_ingest"):
            return self.ingest_codes([
                (column.categories, column.codes)
                if isinstance(column, CodeTable)
                else (table.categories, table.encode(column))
                for column, table in zip(columns, self._tables)
            ])

    def ingest_codes(self, columns) -> int:
        """Count one chunk given in code space; returns the rows ingested.

        The one counting entry.  ``columns`` holds one ``(categories,
        codes)`` pair per :attr:`_dims` axis: ``codes`` is an int array
        indexing the ``categories`` list, whose plain Python values
        become the cell keys.  One ``bincount`` over the joint code
        folds the chunk into the cells.
        """
        columns = [(cats, np.asarray(codes)) for cats, codes in columns]
        if len(columns) != len(self._dims):
            raise AuditError(
                f"ingest_codes takes {len(self._dims)} (categories, codes) "
                f"pairs, one per axis of {self._dims}; got {len(columns)}"
            )
        n = len(columns[0][1])
        for cats, arr in columns:
            if arr.ndim != 1 or len(arr) != n:
                raise AuditError("chunk arrays must be 1-D and share one length")
        if n == 0:
            return 0
        for axis, (cats, arr) in enumerate(columns):
            if arr.dtype.kind in "iu":
                arr = arr.astype(np.int64, copy=False)
            # one reduction bounds both ends: negatives wrap to huge
            # unsigned values
            if arr.dtype != np.int64 or arr.view(np.uint64).max() >= len(cats):
                raise AuditError(
                    f"codes must be integers in [0, {len(cats)}) indexing "
                    "their categories"
                )
            columns[axis] = (cats, arr)
        self._count(columns, n)
        self.n_rows += n
        self.chunks_ingested += 1
        metrics = get_metrics()
        metrics.counter("streaming.chunks_ingested").inc()
        metrics.counter("streaming.rows_ingested").inc(n)
        return n

    def _count(self, columns: list, n: int) -> None:
        """One bincount over the chunk's joint code → cell increments."""
        categories = [cats for cats, _codes in columns]
        codes = [arr for _cats, arr in columns]
        sizes = [len(cats) for cats in categories]
        if math.prod(sizes) > max(n, _DENSE_CELLS):
            # a chunk far sparser than its category space: re-code each
            # axis over the categories this chunk uses, so the bincount
            # stays O(chunk) — one bincount per axis, no sort
            for axis, arr in enumerate(codes):
                used = np.flatnonzero(np.bincount(arr, minlength=sizes[axis]))
                recode = np.zeros(sizes[axis], dtype=np.int64)
                recode[used] = np.arange(len(used))
                codes[axis] = recode[arr]
                categories[axis] = [categories[axis][c] for c in used.tolist()]
                sizes[axis] = len(used)
        joint = codes[0]
        for arr, size in zip(codes[1:], sizes[1:]):
            joint = joint * size + arr
        counts = np.bincount(joint, minlength=math.prod(sizes))
        nonzero = np.flatnonzero(counts)
        values = [
            [cats[code] for code in axis.tolist()]
            for cats, axis in zip(categories, np.unravel_index(nonzero, sizes))
        ]
        cells = self._cells
        for key, count in zip(zip(*values), counts[nonzero].tolist()):
            cells[key] = cells.get(key, 0) + count

    #: former name, kept for span hooks that wrap it (perfbench/layers.py)
    ingest_counts = ingest_codes

    def snapshot(self) -> tuple:
        """The mutable counting state, cheaply copied.

        Supervised ingest takes one before each attempt so a retry after
        an error that escaped mid-count (cells partially incremented)
        starts from exact pre-attempt state instead of double-counting.
        Cell values are ints, so a shallow dict copy is a full copy.
        """
        return dict(self._cells), self.n_rows, self.chunks_ingested

    def restore(self, state: tuple) -> None:
        """Reset the counting state to a :meth:`snapshot`."""
        cells, n_rows, chunks_ingested = state
        self._cells = dict(cells)
        self.n_rows = n_rows
        self.chunks_ingested = chunks_ingested

    # -- merge ---------------------------------------------------------------

    def merge(self, other: "DictAccumulator") -> "DictAccumulator":
        """Fold another accumulator's counts into this one (in place).

        The two must share a layout — same protected attributes in the
        same order, same strata/label configuration; shard-local
        accumulators built from one stream config always do.
        """
        if not isinstance(other, DictAccumulator):
            raise AuditError(
                f"cannot merge {type(other).__name__} into an accumulator"
            )
        if self.layout() != other.layout():
            raise AuditError(
                "cannot merge accumulators with different layouts: "
                f"{self.layout()} vs {other.layout()}"
            )
        for key, count in other._cells.items():
            self._cells[key] = self._cells.get(key, 0) + count
        self.n_rows += other.n_rows
        self.chunks_ingested += other.chunks_ingested
        get_metrics().counter("streaming.merges").inc()
        return self

    def diff(self, base: "DictAccumulator") -> "DictAccumulator":
        """The cell-wise delta that grew ``base`` into this accumulator.

        Returns a fresh accumulator with ``result.merge(base) == self``
        in counts — the inverse of :meth:`merge`, and the input the
        incremental subgroup scan (:func:`repro.subgroup.search.rescan`)
        re-scores from.  Requires ``base`` to be a true predecessor:
        same layout, and no cell where ``base`` counts more than
        ``self`` (append-only growth).  Anything else raises
        :class:`~repro.exceptions.AuditError` rather than returning a
        negative count.
        """
        if not isinstance(base, DictAccumulator):
            raise AuditError(
                f"cannot diff an accumulator against {type(base).__name__}"
            )
        if self.layout() != base.layout():
            raise AuditError(
                "cannot diff accumulators with different layouts: "
                f"{self.layout()} vs {base.layout()}"
            )
        if base.n_rows > self.n_rows:
            raise AuditError(
                f"diff base has {base.n_rows} rows but this accumulator "
                f"has {self.n_rows}; the base must be a prefix"
            )
        delta = DictAccumulator(
            self.protected,
            strata=self.strata,
            label=self.label,
            audits_labels=self.audits_labels,
        )
        for key, count in self._cells.items():
            remaining = count - base._cells.get(key, 0)
            if remaining < 0:
                raise AuditError(
                    f"diff base counts {base._cells[key]} in cell {key!r} "
                    f"but this accumulator has only {count}; the base is "
                    "not a prefix of this state"
                )
            if remaining:
                delta._cells[key] = remaining
        missing = [key for key in base._cells if key not in self._cells]
        if missing:
            raise AuditError(
                f"diff base has cells absent from this accumulator "
                f"(e.g. {missing[0]!r}); the base is not a prefix"
            )
        delta.n_rows = self.n_rows - base.n_rows
        delta.chunks_ingested = max(
            self.chunks_ingested - base.chunks_ingested, 0
        )
        return delta

    @classmethod
    def merge_all(cls, accumulators) -> "DictAccumulator":
        """Merge shard accumulators into one fresh accumulator."""
        accumulators = list(accumulators)
        if not accumulators:
            raise AuditError("merge_all requires at least one accumulator")
        first = accumulators[0]
        merged = cls(
            first.protected,
            strata=first.strata,
            label=first.label,
            audits_labels=first.audits_labels,
        )
        for accumulator in accumulators:
            merged.merge(accumulator)
        return merged

    # -- serialisation -------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-able state: layout + cells, deterministically ordered."""
        return {
            "version": STATE_VERSION,
            **self.layout(),
            "n_rows": self.n_rows,
            "chunks_ingested": self.chunks_ingested,
            "cells": [
                [list(key), count] for key, count in self._sorted_cells()
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "DictAccumulator":
        """Rebuild an accumulator serialised with :meth:`to_dict`."""
        if not isinstance(payload, dict):
            raise AuditError(
                "accumulator state must be a JSON object, got "
                f"{type(payload).__name__}"
            )
        version = payload.get("version")
        if version != STATE_VERSION:
            raise AuditError(
                f"accumulator state has version {version!r}; this build "
                f"reads {STATE_VERSION}"
            )
        accumulator = cls(
            payload["protected"],
            strata=payload.get("strata"),
            label=payload.get("label"),
            audits_labels=payload.get("audits_labels", False),
        )
        width = len(accumulator._dims)
        if not isinstance(payload["cells"], list):
            raise AuditError(
                "accumulator state cells must be a list, got "
                f"{type(payload['cells']).__name__}"
            )
        for key, count in payload["cells"]:
            if len(key) != width:
                raise AuditError(f"cell {key!r} has {len(key)} parts, not {width}")
            if int(count) < 0:
                raise AuditError(f"cell {key!r} has negative count {count}")
            if int(count):
                accumulator._cells[tuple(key)] = int(count)
        accumulator.n_rows = int(payload["n_rows"])
        total = sum(accumulator._cells.values())
        if accumulator.n_rows != total:
            raise AuditError(
                f"accumulator state declares n_rows={accumulator.n_rows} "
                f"but its cells count {total} rows"
            )
        accumulator.chunks_ingested = int(payload.get("chunks_ingested", 0))
        return accumulator

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "DictAccumulator":
        return cls.from_dict(json.loads(text))

    def save(self, path) -> None:
        """Atomically persist state (checkpoint envelope + fingerprint)."""
        save_checkpoint(path, self.to_dict(), fingerprint=self.fingerprint())

    @classmethod
    def load(cls, path, *, expected: "DictAccumulator | None" = None):
        """Load state saved with :meth:`save`.

        ``expected`` (an accumulator with the required layout) turns on
        fingerprint verification: state written under any other layout
        raises :class:`~repro.exceptions.CheckpointError`.

        Every corruption mode — truncated or garbled JSON, a valid
        checkpoint envelope whose payload is not accumulator state — is
        reported as a :class:`~repro.exceptions.CheckpointError` carrying
        the path and the underlying cause, never a raw ``json`` or
        ``KeyError``.
        """
        fingerprint = None if expected is None else expected.fingerprint()
        payload = load_checkpoint(path, fingerprint)
        try:
            return cls.from_dict(payload)
        except (AuditError, KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"accumulator state {path} has the wrong layout: "
                f"{type(exc).__name__}: {exc}",
                path=path,
            ) from exc

    # -- reconstruction ------------------------------------------------------

    def _sorted_cells(self):
        """Cells in deterministic repr order (process-independent)."""
        return sorted(
            self._cells.items(),
            key=lambda item: tuple(repr(v) for v in item[0]),
        )

    def materialize(self) -> tuple[TabularDataset, np.ndarray | None]:
        """Reconstruct ``(dataset, predictions)`` from the counts.

        The dataset has one run of identical rows per cell, cells in
        repr-sorted order; ``predictions`` is the aligned binary array
        (``None`` for a data audit, where the audit reads the labels).
        Every battery statistic of this reconstruction equals the
        statistic of the original concatenated stream.

        No ``n_rows`` array is sorted or re-validated: each column is
        validated and encoded over its per-cell values, then
        ``np.repeat``-ed, and so are its codes — every cell holds rows,
        so the repeated table is field-identical to ``encode`` of the
        column.  The dataset is built with those tables attached;
        categories come from the cells, so ``TabularDataset._trusted``
        is safe.
        """
        if self.n_rows == 0:
            raise AuditError("accumulator is empty; ingest chunks first")
        cells = self._sorted_cells()
        counts = np.fromiter(
            (count for _key, count in cells), dtype=np.int64, count=len(cells)
        )

        def cell_values(axis):
            return [key[axis] for key, _count in cells]

        roles = [(name, ColumnRole.PROTECTED) for name in self.protected]
        if self.strata is not None:
            roles.append((self.strata, ColumnRole.FEATURE))
        schema_columns = []
        pairs = {}
        for axis, (name, role) in enumerate(roles):
            schema_columns.append(
                Column(
                    name,
                    kind=ColumnKind.CATEGORICAL,
                    role=role,
                    categories=tuple(
                        sorted(set(cell_values(axis)), key=repr)
                    ),
                )
            )
        if self.label is not None:
            schema_columns.append(
                Column(
                    self.label, kind=ColumnKind.BINARY, role=ColumnRole.LABEL
                )
            )
        for axis, column in enumerate(schema_columns):
            per_cell, table = _as_column_array(cell_values(axis), column)
            values = np.repeat(per_cell, counts)
            values.setflags(write=False)
            pairs[column.name] = values, CodeTable(
                table.categories,
                table.categories_array,
                np.repeat(table.codes, counts),
            )
        dataset = TabularDataset._trusted(Schema(tuple(schema_columns)), pairs)
        predictions = (
            None
            if self.audits_labels
            else np.repeat(np.asarray(cell_values(-1)), counts)
        )
        return dataset, predictions

    def __repr__(self) -> str:
        return (
            f"DictAccumulator(protected={list(self.protected)}, "
            f"strata={self.strata!r}, n_rows={self.n_rows}, "
            f"cells={len(self._cells)}, chunks={self.chunks_ingested})"
        )
