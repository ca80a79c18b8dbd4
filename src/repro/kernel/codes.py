"""Categorical code tables: encode once, mask lazily.

Every group-wise computation in the library reduces to "which rows
belong to category c of column A".  The pre-kernel implementation
(kept as the test oracle in ``tests/oracle/metrics.py``) re-derives
that from scratch (``np.unique`` + one equality scan per
group per metric); a :class:`CodeTable` instead encodes the column once
into int64 codes whose order matches the library-wide deterministic
group order (sorted by ``repr``), and materialises per-category boolean
masks lazily, caching them on the table.

A discrete dataset column is encoded once, by :func:`encode_declared`
when its dataset is built, and its table travels with it through every
derived dataset, pack and chunk (``TabularDataset.codes``).  The raw
arrays public metric functions receive are served by :func:`codes_for`,
cached by array identity (a weakref evicts an entry when its array
dies); datasets register their columns' tables there too.  Cache
traffic counts as ``kernel.cache_hit`` / ``kernel.cache_miss``.
"""

from __future__ import annotations

import threading
import weakref

import numpy as np

from repro.exceptions import DatasetError, ValidationError
from repro.observability.metrics import get_metrics

__all__ = [
    "CodeTable", "CategoryTable", "encode", "encode_declared", "codes_for",
    "cache_get", "cache_put", "clear_cache",
]


class CodeTable:
    """One column encoded to int codes, with lazy per-category masks.

    ``categories`` lists the category values as Python scalars in the
    deterministic library order (sorted by ``repr``, matching
    ``_group_order`` in :mod:`repro.core.metrics`); ``codes[i]`` is the
    position of row ``i``'s value in that list, or ``-1`` for values
    outside an explicitly supplied category set.
    """

    __slots__ = ("categories", "categories_array", "codes", "index", "_masks")

    def __init__(self, categories: list, categories_array: np.ndarray, codes: np.ndarray):
        self.categories = categories
        self.categories_array = categories_array
        self.codes = codes
        self.index = {category: code for code, category in enumerate(categories)}
        self._masks: dict = {}

    @property
    def n_categories(self) -> int:
        return len(self.categories)

    @property
    def n_rows(self) -> int:
        return len(self.codes)

    def counts(self) -> np.ndarray:
        """Row count per category, aligned with ``categories``."""
        valid = self.codes[self.codes >= 0] if (self.codes < 0).any() else self.codes
        return np.bincount(valid, minlength=self.n_categories)

    def mask(self, category) -> np.ndarray:
        """Read-only boolean mask of rows equal to ``category`` (cached)."""
        cached = self._masks.get(category)
        if cached is not None:
            return cached
        code = self.index.get(category)
        if code is None:
            mask = np.zeros(self.n_rows, dtype=bool)
        else:
            mask = self.codes == code
        mask.setflags(write=False)
        self._masks[category] = mask
        return mask

    @classmethod
    def from_codes(cls, values: np.ndarray, codes: np.ndarray) -> "CodeTable":
        """The table :func:`encode` builds for ``values[codes]``, from codes.

        Only the values ``codes`` uses become categories, merged when
        equal, repr-sorted and renumbered: one pass over the codes and at
        most one integer ``take``; no row's value is compared or sorted.
        """
        if len(codes) and len(values) <= 2:  # min and max tell which occur
            used = np.unique([codes.min(), codes.max()])
        else:
            seen = np.zeros(len(values), dtype=bool)
            seen[codes] = True
            used = np.flatnonzero(seen)
        present = values[used].tolist()
        first: dict = {}
        for position, value in zip(used.tolist(), present):
            first.setdefault(value, position)
        categories = sorted(first, key=repr)
        code = {category: i for i, category in enumerate(categories)}
        remap = np.full(len(values), -1, dtype=np.int64)
        remap[used] = [code[value] for value in present]
        if np.array_equal(remap, np.arange(len(values))):
            return cls(categories, values, codes)
        return cls(
            categories, values[[first[c] for c in categories]], remap[codes]
        )

    def __repr__(self) -> str:
        return f"CodeTable(n_rows={self.n_rows}, categories={self.categories!r})"


def encode(values, categories: list | None = None) -> CodeTable:
    """Encode a 1-D array into a :class:`CodeTable`.

    With ``categories=None`` the table's categories are the distinct
    values present, repr-sorted.  An explicit ``categories`` list fixes
    the code assignment (e.g. a schema's declared order); values outside
    it encode to ``-1``.
    """
    values = np.asarray(values)
    if values.ndim != 1:
        raise ValidationError(
            f"encode requires a 1-D array, got shape {values.shape}"
        )
    uniques, inverse = np.unique(values, return_inverse=True)
    unique_list = uniques.tolist()
    if categories is None:
        order = sorted(range(len(unique_list)), key=lambda i: repr(unique_list[i]))
        cats = [unique_list[i] for i in order]
        cats_array = uniques[order]
        remap = np.empty(len(unique_list), dtype=np.int64)
        for position, unique_index in enumerate(order):
            remap[unique_index] = position
    else:
        cats = list(categories)
        positions = {category: code for code, category in enumerate(cats)}
        remap = np.array(
            [positions.get(u, -1) for u in unique_list], dtype=np.int64
        )
        try:
            cats_array = np.asarray(cats, dtype=values.dtype)
        except (TypeError, ValueError):
            cats_array = np.asarray(cats, dtype=object)
    codes = remap[inverse] if len(unique_list) else np.zeros(0, dtype=np.int64)
    return CodeTable(cats, cats_array, codes)


def encode_declared(values: np.ndarray, categories, name: str) -> CodeTable:
    """Check a column against its declared categories and encode it.

    The one encoder of discrete dataset columns: one ``searchsorted``
    probe of the value-sorted declared categories plus an equality check
    both validates and encodes, and the table equals ``encode(values)``
    field for field.  Float and object values and mixed-type categories
    take the sort-based path.  A value outside ``categories`` raises
    :class:`~repro.exceptions.DatasetError`.
    """
    declared = np.asarray(categories)
    kind = values.dtype.kind
    if (
        (kind in "biu" and values.dtype == declared.dtype)
        or kind == declared.dtype.kind == "U"
    ) and declared.tolist() == list(categories):
        ordered = np.sort(declared)
        positions = ordered.searchsorted(values).astype(np.int64, copy=False)
        np.minimum(positions, len(ordered) - 1, out=positions)
        if (ordered[positions] == values).all():
            return CodeTable.from_codes(ordered.astype(values.dtype), positions)
    extra = set(np.unique(values).tolist()) - set(categories)
    if extra:
        raise DatasetError(
            f"column {name!r} contains values outside its declared "
            f"categories {categories}: {sorted(extra, key=repr)}"
        )
    return encode(values)


#: rows an empty :class:`CategoryTable` learns from before its first probe
_PREFIX_ROWS = 1024


class CategoryTable:
    """An append-only category list that encodes chunks against itself.

    Codes index :attr:`categories` in append order, so a code stays
    valid however the table grows; new values append in repr order.
    Encoding is one O(n log k) ``searchsorted`` probe against the
    value-sorted categories, not a sort of the chunk: an empty table
    first learns from a short prefix, and only the rows a probe misses
    are sorted for new values.  Categories of mixed types, and values
    the probe cannot compare, fall back to :func:`encode` (a sort).
    """

    __slots__ = ("categories", "_codes", "_lookup")

    def __init__(self):
        self.categories: list = []
        #: category → code (its position in :attr:`categories`)
        self._codes: dict = {}
        #: (value-sorted categories, sorted position → code) or None
        self._lookup: tuple | None = None

    def encode(self, values) -> np.ndarray:
        """int64 codes of ``values`` into :attr:`categories`."""
        arr = np.asarray(values)
        if not self.categories:
            self._learn(arr[:_PREFIX_ROWS])
        for _probe in range(2):
            if self._lookup is None:
                break
            sorted_cats, remap = self._lookup
            try:
                pos = sorted_cats.searchsorted(arr)
                np.minimum(pos, len(sorted_cats) - 1, out=pos)
                hit = sorted_cats[pos] == arr
            except (TypeError, ValueError):  # incomparable values
                break
            if not isinstance(hit, np.ndarray) or hit.shape != arr.shape:
                break
            if hit.all():
                return remap[pos]
            self._learn(arr[~hit])
        self._learn(arr)
        return encode(arr, categories=self.categories).codes

    def index(self, values: list) -> np.ndarray:
        """int64 codes of ``values``; unseen ones are appended first, in
        repr order, and the probe is rebuilt.  Equal values share a code."""
        codes = self._codes
        new = [v for v in dict.fromkeys(values) if v not in codes]
        if new:
            for value in sorted(new, key=repr):
                value = value.item() if hasattr(value, "item") else value
                codes[value] = len(self.categories)
                self.categories.append(value)
            self._lookup = None
            if len({type(v) for v in self.categories}) == 1:
                cats_array = np.asarray(self.categories)
                if cats_array.dtype != object:
                    order = np.argsort(cats_array)
                    self._lookup = cats_array[order], order.astype(np.int64)
        return np.fromiter(
            map(codes.__getitem__, values), dtype=np.int64, count=len(values)
        )

    def _learn(self, values) -> None:
        """Append the values of an array not yet known."""
        self.index(np.unique(values).tolist())


#: the identity cache: ``(id of each key array..., extra) → (weakrefs,
#: value)``.  An entry dies with any of its key arrays, so a recycled
#: ``id`` can never alias a live entry; lookups re-check the weakrefs.
_entries: dict = {}
_lock = threading.Lock()


def _evict(key) -> None:
    with _lock:
        _entries.pop(key, None)


def cache_get(arrays: tuple, extra):
    """Fetch a kernel cache entry, counting ``kernel.cache_hit/miss``."""
    key = tuple(id(a) for a in arrays) + (extra,)
    with _lock:
        entry = _entries.get(key)
    if entry is not None and any(
        ref() is not array for ref, array in zip(entry[0], arrays)
    ):
        _evict(key)
        entry = None
    hit = "kernel.cache_miss" if entry is None else "kernel.cache_hit"
    get_metrics().counter(hit).inc()
    return None if entry is None else entry[1]


def cache_put(arrays: tuple, extra, value):
    """Store a kernel cache entry (no-op for unweakrefable inputs)."""
    key = tuple(id(a) for a in arrays) + (extra,)
    try:
        refs = tuple(
            weakref.ref(array, lambda _ref, key=key: _evict(key))
            for array in arrays
        )
    except TypeError:
        return value
    with _lock:
        _entries[key] = (refs, value)
    return value


def clear_cache() -> None:
    """Drop every cached table/count tensor and published shm segment.

    Shared-memory segments published for ``jobs=N`` scans (see
    :mod:`repro.kernel.shm`) are part of the code-table cache lifecycle:
    clearing the cache must also unlink them, or every cleared scan
    would leak a ``/dev/shm`` file until interpreter exit.
    """
    with _lock:
        _entries.clear()
    from repro.kernel import shm

    shm.release_all()


def codes_for(values) -> CodeTable:
    """The :class:`CodeTable` for an array, cached by array identity."""
    if isinstance(values, np.ndarray):
        table = cache_get((values,), ("codes", None))
        if table is not None:
            return table
        return cache_put((values,), ("codes", None), encode(values))
    return encode(values)
