"""Immutable tabular dataset used throughout the library.

:class:`TabularDataset` is a small column store: a :class:`~repro.data.schema.Schema`
plus one numpy array per column.  It is deliberately immutable — every
transformation returns a new dataset — so that audits, mitigations, and
simulations can never silently corrupt each other's inputs.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Iterable, Mapping

import numpy as np

from repro._validation import check_probability, check_random_state
from repro.data.schema import Column, ColumnKind, ColumnRole, Schema
from repro.exceptions import DatasetError, SchemaError
from repro.kernel.codes import CodeTable, cache_put, codes_for, encode_declared
from repro.observability.metrics import get_metrics

__all__ = ["TabularDataset"]


def _as_column_array(values, column: Column) -> tuple[np.ndarray, CodeTable | None]:
    """A column's canonical array and, if discrete, its code table —
    validated and encoded in one pass (``encode_declared``)."""
    if column.kind == ColumnKind.NUMERIC:
        arr = np.asarray(values, dtype=float)
    else:
        arr = np.asarray(values)
        if arr.dtype.kind in "fiub" and all(
            isinstance(c, (int, float, bool, np.integer, np.floating))
            for c in column.categories
        ):
            arr = arr.astype(np.asarray(column.categories).dtype)
    if arr.ndim != 1:
        raise DatasetError(
            f"column {column.name!r} must be 1-dimensional, got shape {arr.shape}"
        )
    table = (
        encode_declared(arr, column.categories, column.name)
        if column.is_discrete
        else None
    )
    arr = arr.copy()
    arr.setflags(write=False)
    return arr, table


class TabularDataset:
    """A schema-validated, immutable table of fairness-analysis data.

    Parameters
    ----------
    schema:
        Column definitions (see :class:`repro.data.schema.Schema`).
    data:
        Mapping from column name to a 1-D sequence.  Every schema column
        must be present and all columns must share one length.

    Examples
    --------
    >>> from repro.data import Column, Schema, TabularDataset
    >>> schema = Schema((
    ...     Column("experience", kind="numeric"),
    ...     Column("sex", kind="categorical", role="protected",
    ...            categories=("male", "female")),
    ...     Column("hired", kind="binary", role="label"),
    ... ))
    >>> ds = TabularDataset(schema, {
    ...     "experience": [3.0, 5.0], "sex": ["female", "male"],
    ...     "hired": [0, 1],
    ... })
    >>> ds.n_rows
    2
    """

    def __init__(self, schema: Schema, data: Mapping[str, Iterable]):
        if not isinstance(schema, Schema):
            raise DatasetError(f"schema must be a Schema, got {type(schema).__name__}")
        missing = [c.name for c in schema if c.name not in data]
        if missing:
            raise DatasetError(f"data missing columns declared in schema: {missing}")
        extra = [name for name in data if name not in schema]
        if extra:
            raise DatasetError(f"data has columns absent from schema: {extra}")
        self._assemble(schema, {
            col.name: _as_column_array(data[col.name], col) for col in schema
        })

    def _assemble(self, schema: Schema, pairs: dict) -> None:
        """Set up from ``name → (canonical array, CodeTable or None)``."""
        lengths = {name: len(arr) for name, (arr, _table) in pairs.items()}
        if len(set(lengths.values())) > 1:
            raise DatasetError(f"columns have mismatched lengths: {lengths}")
        self._schema = schema
        self._columns = {name: arr for name, (arr, _table) in pairs.items()}
        self._n_rows = next(iter(lengths.values())) if lengths else 0
        #: column name → CodeTable; discrete columns from the start
        self._tables = {
            name: table for name, (_arr, table) in pairs.items()
            if table is not None
        }
        for name, table in self._tables.items():
            # metric functions receive bare column arrays: let the
            # kernel's identity cache find the table for them too
            cache_put((self._columns[name],), ("codes", None), table)

    @classmethod
    def _trusted(cls, schema: Schema, pairs: dict) -> "TabularDataset":
        """Build a dataset from already-canonical columns and their tables.

        Internal fast path for operations whose outputs are canonical by
        construction (``take``/``concat`` of validated columns, packed
        chunk reads, reconstructions): skips the per-column validation,
        encoding *and the copy* of ``__init__``.  Callers guarantee the
        arrays are 1-D, read-only and dtype-canonical, and pair every
        discrete column with exactly the table ``encode`` would build.
        """
        ds = object.__new__(cls)
        ds._assemble(schema, pairs)
        return ds

    def _pair(self, column: Column) -> tuple:
        """A column's array and, if discrete, its code table."""
        name = column.name
        return self.column(name), self.codes(name) if column.is_discrete else None

    def _derive(self, schema: Schema, column: Column | None = None, values=None):
        """This dataset's rows under ``schema``, carrying every column and
        table it shares with ``self``; only ``column`` (new or replaced)
        is validated and encoded."""
        return TabularDataset._trusted(schema, {
            col.name: _as_column_array(values, column)
            if column is not None and col.name == column.name
            else self._pair(col)
            for col in schema
        })

    # -- basic access ------------------------------------------------------

    @property
    def schema(self) -> Schema:
        """The dataset schema."""
        return self._schema

    @property
    def n_rows(self) -> int:
        """Number of rows."""
        return self._n_rows

    def __len__(self) -> int:
        return self._n_rows

    def __contains__(self, name: str) -> bool:
        return name in self._schema

    def column(self, name: str) -> np.ndarray:
        """The (read-only) array for one column."""
        if name not in self._columns:
            raise SchemaError(
                f"unknown column {name!r}; available: {self._schema.names()}"
            )
        return self._columns[name]

    def __getitem__(self, name: str) -> np.ndarray:
        return self.column(name)

    def labels(self) -> np.ndarray:
        """The label column, when the schema declares one."""
        name = self._schema.label_name
        if name is None:
            raise DatasetError("dataset has no label column")
        return self.column(name)

    def protected(self, name: str | None = None) -> np.ndarray:
        """A protected column; defaults to the single protected column."""
        if name is None:
            protected = self._schema.protected_names
            if len(protected) != 1:
                raise DatasetError(
                    "protected() without a name requires exactly one "
                    f"protected column, dataset has {protected}"
                )
            name = protected[0]
        if self._schema[name].role != ColumnRole.PROTECTED:
            raise DatasetError(f"column {name!r} is not protected")
        return self.column(name)

    def feature_matrix(self, encode_categoricals: bool = True) -> np.ndarray:
        """Feature columns stacked into a 2-D float matrix.

        Categorical feature columns are one-hot encoded (one column per
        category, in the schema's category order) unless
        ``encode_categoricals`` is False, in which case categorical
        features raise.
        """
        blocks: list[np.ndarray] = []
        for col in self._schema.by_role(ColumnRole.FEATURE):
            arr = self._columns[col.name]
            if col.kind == ColumnKind.NUMERIC:
                blocks.append(arr.astype(float).reshape(-1, 1))
            elif col.kind == ColumnKind.BINARY:
                blocks.append(arr.astype(float).reshape(-1, 1))
            elif encode_categoricals:
                onehot = np.zeros((self._n_rows, len(col.categories)))
                for j, cat in enumerate(col.categories):
                    onehot[:, j] = (arr == cat).astype(float)
                blocks.append(onehot)
            else:
                raise DatasetError(
                    f"categorical feature {col.name!r} requires encoding"
                )
        if not blocks:
            return np.zeros((self._n_rows, 0))
        return np.hstack(blocks)

    def feature_matrix_names(self) -> list[str]:
        """Column names of :meth:`feature_matrix`, expanding one-hots."""
        names: list[str] = []
        for col in self._schema.by_role(ColumnRole.FEATURE):
            if col.kind == ColumnKind.CATEGORICAL:
                names.extend(f"{col.name}={cat}" for cat in col.categories)
            else:
                names.append(col.name)
        return names

    # -- row selection -----------------------------------------------------

    def _indices(self, indices) -> np.ndarray:
        """Row positions from an index array or a boolean mask."""
        indices = np.asarray(indices)
        if indices.dtype == bool:
            if len(indices) != self._n_rows:
                raise DatasetError(
                    f"boolean mask length {len(indices)} != n_rows {self._n_rows}"
                )
            indices = np.flatnonzero(indices)
        if indices.ndim != 1:
            raise DatasetError(
                f"take indices must be 1-dimensional, got shape {indices.shape}"
            )
        return indices

    def take(self, indices) -> "TabularDataset":
        """A new dataset containing the rows at ``indices`` (in order)."""
        indices = self._indices(indices)
        # fancy indexing of already-canonical columns yields canonical
        # arrays (dtype preserved, fresh contiguous copy), and gathering
        # the codes yields their tables, so the re-validating
        # constructor — its encoding and second full copy — is
        # unnecessary here.
        pairs = {}
        for col in self._schema:
            arr, table = self._pair(col)
            picked = arr[indices]
            picked.setflags(write=False)
            pairs[col.name] = picked, None if table is None else (
                CodeTable.from_codes(table.categories_array, table.codes[indices])
            )
        return TabularDataset._trusted(self._schema, pairs)

    def filter(self, **conditions) -> "TabularDataset":
        """Rows where every ``column=value`` condition holds.

        >>> ds.filter(sex="female", hired=1)  # doctest: +SKIP
        """
        mask = np.ones(self._n_rows, dtype=bool)
        for name, value in conditions.items():
            mask &= self.column(name) == value
        return self.take(mask)

    def split(
        self,
        test_fraction: float = 0.25,
        random_state: int | np.random.Generator | None = None,
        stratify_by: str | None = None,
    ) -> tuple["TabularDataset", "TabularDataset"]:
        """Random (train, test) split.

        When ``stratify_by`` names a discrete column, the split preserves
        that column's group proportions — important when sensitive groups
        are small, per the paper's Section IV.C sparsity warning.
        """
        check_probability(test_fraction, "test_fraction")
        rng = check_random_state(random_state)
        if stratify_by is None:
            order = rng.permutation(self._n_rows)
            n_test = int(round(test_fraction * self._n_rows))
            return self.take(order[n_test:]), self.take(order[:n_test])
        values = self.column(stratify_by)
        train_idx: list[int] = []
        test_idx: list[int] = []
        for value in np.unique(values):
            members = np.flatnonzero(values == value)
            members = rng.permutation(members)
            n_test = int(round(test_fraction * len(members)))
            test_idx.extend(members[:n_test])
            train_idx.extend(members[n_test:])
        train, test = (np.sort(np.array(rows, dtype=np.int64))
                       for rows in (train_idx, test_idx))
        return self.take(train), self.take(test)

    def groupby(self, name: str):
        """Yield ``(value, subset)`` pairs for each distinct column value."""
        values = self.column(name)
        col = self._schema[name]
        ordered = (
            [c for c in col.categories if c in set(values.tolist())]
            if col.is_discrete
            else sorted(np.unique(values).tolist())
        )
        for value in ordered:
            yield value, self.take(values == value)

    # -- column transformation ----------------------------------------------

    def with_column(self, column: Column, values) -> "TabularDataset":
        """A new dataset with ``column`` added (or replaced if same-named)."""
        if column.name in self._schema:
            schema = self._schema.replace_column(column)
        else:
            schema = self._schema.add(column)
        return self._derive(schema, column, values)

    def with_predictions(
        self, values, name: str = "prediction"
    ) -> "TabularDataset":
        """Attach a binary prediction column (role ``prediction``)."""
        column = Column(name, kind=ColumnKind.BINARY, role=ColumnRole.PREDICTION)
        return self.with_column(column, values)

    def drop_column(self, name: str) -> "TabularDataset":
        """A new dataset without the named column."""
        return self._derive(self._schema.drop(name))

    def with_role(self, name: str, role: str) -> "TabularDataset":
        """A new dataset in which column ``name`` has a different role.

        The canonical use is *fairness through unawareness* experiments:
        demote a protected column to metadata so models cannot see it.
        """
        column = self._schema[name].with_role(role)
        return self._derive(self._schema.replace_column(column))

    def concat(self, other: "TabularDataset") -> "TabularDataset":
        """Row-wise concatenation; schemas must declare identical columns."""
        if self._schema.names() != other.schema.names():
            raise DatasetError(
                "cannot concat datasets with different columns: "
                f"{self._schema.names()} vs {other.schema.names()}"
            )
        if other.schema == self._schema:
            # identical schemas mean both sides' columns are already
            # canonical for *this* schema and carry their tables;
            # concatenate once and skip the validating constructor's
            # encoding and second full copy.
            pairs = {}
            for col in self._schema:
                (arr, table), (more, more_table) = self._pair(col), other._pair(col)
                joined = np.concatenate([arr, more])
                joined.setflags(write=False)
                pairs[col.name] = joined, None if table is None else (
                    CodeTable.from_codes(
                        np.concatenate([table.categories_array,
                                        more_table.categories_array]),
                        np.concatenate([table.codes,
                                        more_table.codes + table.n_categories]),
                    )
                )
            return TabularDataset._trusted(self._schema, pairs)
        data = {
            name: np.concatenate([self.column(name), other.column(name)])
            for name in self._schema.names()
        }
        return TabularDataset(self._schema, data)

    # -- interchange ---------------------------------------------------------

    def to_dict(self) -> dict[str, list]:
        """Plain dict-of-lists representation."""
        return {name: arr.tolist() for name, arr in self._columns.items()}

    @classmethod
    def from_rows(cls, schema: Schema, rows: Iterable[Mapping]) -> "TabularDataset":
        """Build a dataset from an iterable of row mappings."""
        rows = list(rows)
        data = {
            col.name: [row[col.name] for row in rows] for col in schema
        }
        return cls(schema, data)

    def to_csv(self) -> str:
        """Serialise to a CSV string (header row + one row per record)."""
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        names = self._schema.names()
        writer.writerow(names)
        for i in range(self._n_rows):
            writer.writerow([self._columns[name][i] for name in names])
        return buffer.getvalue()

    @classmethod
    def from_csv(cls, schema: Schema, text: str) -> "TabularDataset":
        """Parse a CSV string produced by :meth:`to_csv` under ``schema``."""
        reader = csv.reader(io.StringIO(text))
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetError("CSV input is empty") from None
        if header != schema.names():
            raise DatasetError(
                f"CSV header {header} does not match schema {schema.names()}"
            )
        raw_rows = [row for row in reader if row]
        data: dict[str, list] = {name: [] for name in header}
        for row in raw_rows:
            if len(row) != len(header):
                raise DatasetError(f"malformed CSV row: {row}")
            for name, cell in zip(header, row):
                data[name].append(_parse_cell(cell, schema[name]))
        return cls(schema, data)

    # -- kernel integration ----------------------------------------------------

    def fingerprint(self) -> str:
        """sha256 content fingerprint (schema layout + column bytes)."""
        from repro.observability.provenance import dataset_fingerprint

        return dataset_fingerprint(self)

    def codes(self, name: str) -> CodeTable:
        """The kernel :class:`~repro.kernel.CodeTable` for a column.

        A discrete column's table comes with the dataset (encoded when
        it was validated, or carried from the dataset it derives from)
        and is served as a ``kernel.cache_hit``.  Only numeric columns
        go through the identity cache (``codes_for``) on first use.
        """
        table = self._tables.get(name)
        if table is None:
            table = self._tables[name] = self._encode(name)
        else:
            get_metrics().counter("kernel.cache_hit").inc()
        return table

    def _encode(self, name: str) -> CodeTable:
        """Build a table :meth:`codes` does not hold yet."""
        return codes_for(self.column(name))

    def present_categories(self, name: str) -> list:
        """A discrete column's declared categories that occur, in
        declared order — read off its code table, not the rows."""
        index = self.codes(name).index
        return [c for c in self._schema[name].categories if c in index]

    def category_mask(self, name: str, value) -> np.ndarray:
        """Cached read-only boolean mask of rows where ``column == value``."""
        return self.codes(name).mask(value)

    # -- summaries -------------------------------------------------------------

    def rate(self, column: str, value=1, where: np.ndarray | None = None) -> float:
        """P(column == value), optionally restricted to a boolean mask."""
        arr = self.column(column)
        if where is not None:
            arr = arr[np.asarray(where, dtype=bool)]
        if len(arr) == 0:
            raise DatasetError(f"rate over empty selection for column {column!r}")
        return float(np.mean(arr == value))

    def describe(self) -> dict[str, dict]:
        """Per-column summary: counts for discrete, moments for numeric."""
        summary: dict[str, dict] = {}
        for col in self._schema:
            arr = self._columns[col.name]
            if col.is_discrete:
                values, counts = np.unique(arr, return_counts=True)
                summary[col.name] = {
                    "kind": col.kind,
                    "role": col.role,
                    "counts": dict(zip(values.tolist(), counts.tolist())),
                }
            else:
                summary[col.name] = {
                    "kind": col.kind,
                    "role": col.role,
                    "mean": float(np.mean(arr)) if len(arr) else float("nan"),
                    "std": float(np.std(arr)) if len(arr) else float("nan"),
                    "min": float(np.min(arr)) if len(arr) else float("nan"),
                    "max": float(np.max(arr)) if len(arr) else float("nan"),
                }
        return summary

    def __repr__(self) -> str:
        roles = {
            "features": len(self._schema.feature_names),
            "protected": len(self._schema.protected_names),
        }
        return (
            f"TabularDataset(n_rows={self._n_rows}, "
            f"n_features={roles['features']}, n_protected={roles['protected']}, "
            f"label={self._schema.label_name!r})"
        )


def _parse_cell(cell: str, column: Column):
    """Parse one CSV cell according to its column definition."""
    if column.kind == ColumnKind.NUMERIC:
        return float(cell)
    if column.categories and all(
        isinstance(c, (int, np.integer)) for c in column.categories
    ):
        return int(cell)
    if column.categories and all(
        isinstance(c, (float, np.floating)) for c in column.categories
    ):
        return float(cell)
    return cell
