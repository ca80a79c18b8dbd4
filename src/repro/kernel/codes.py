"""Categorical code tables: encode once, mask lazily, cache by identity.

Every group-wise computation in the library reduces to "which rows
belong to category c of column A".  The pre-kernel implementation
(kept as the test oracle in ``tests/oracle/metrics.py``) re-derives
that from scratch (``np.unique`` + one equality scan per
group per metric); a :class:`CodeTable` instead encodes the column once
into int64 codes whose order matches the library-wide deterministic
group order (sorted by ``repr``), and materialises per-category boolean
masks lazily, caching them on the table.

Tables themselves are cached by *array identity* (:func:`codes_for`):
dataset columns are stable, read-only arrays, so the ``id`` of the
array — held via a weakref that evicts the entry when the array dies —
is a sound cache key.  Cache traffic is counted in the PR 2 metrics
registry as ``kernel.cache_hit`` / ``kernel.cache_miss``.
"""

from __future__ import annotations

import threading
import weakref

import numpy as np

from repro.exceptions import ValidationError
from repro.observability.metrics import get_metrics

__all__ = [
    "CodeTable", "CategoryTable", "encode", "codes_for", "cache_get",
    "cache_put", "clear_cache",
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

    __slots__ = ("categories", "_seen", "_lookup")

    def __init__(self):
        self.categories: list = []
        self._seen: set = set()
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

    def _learn(self, values) -> None:
        """Append the values not yet known and rebuild the probe."""
        seen = self._seen
        new = [v for v in np.unique(values).tolist() if v not in seen]
        for value in sorted(new, key=repr):
            value = value.item() if hasattr(value, "item") else value
            seen.add(value)
            self.categories.append(value)
        self._lookup = None
        if len({type(v) for v in self.categories}) == 1:
            cats_array = np.asarray(self.categories)
            if cats_array.dtype != object:
                order = np.argsort(cats_array)
                self._lookup = cats_array[order], order.astype(np.int64)


class _IdentityCache:
    """Weakref-evicted cache keyed by the ids of input arrays.

    An entry dies with any of its key arrays, so a recycled ``id`` can
    never alias a live entry; :meth:`get` additionally re-verifies the
    weakrefs still point at the arrays passed in.
    """

    def __init__(self):
        self._entries: dict = {}
        self._lock = threading.Lock()

    def get(self, arrays: tuple, extra):
        key = tuple(id(a) for a in arrays) + (extra,)
        with self._lock:
            entry = self._entries.get(key)
        if entry is None:
            return None
        refs, value = entry
        if any(ref() is not array for ref, array in zip(refs, arrays)):
            with self._lock:
                self._entries.pop(key, None)
            return None
        return value

    def put(self, arrays: tuple, extra, value):
        key = tuple(id(a) for a in arrays) + (extra,)

        def evict(_ref, key=key):
            with self._lock:
                self._entries.pop(key, None)

        try:
            refs = tuple(weakref.ref(array, evict) for array in arrays)
        except TypeError:
            return value
        with self._lock:
            self._entries[key] = (refs, value)
        return value

    def clear(self):
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


_cache = _IdentityCache()


def cache_get(arrays: tuple, extra):
    """Fetch a kernel cache entry, counting ``kernel.cache_hit/miss``."""
    value = _cache.get(arrays, extra)
    if value is None:
        get_metrics().counter("kernel.cache_miss").inc()
    else:
        get_metrics().counter("kernel.cache_hit").inc()
    return value


def cache_put(arrays: tuple, extra, value):
    """Store a kernel cache entry (no-op for unweakrefable inputs)."""
    return _cache.put(arrays, extra, value)


def clear_cache() -> None:
    """Drop every cached table/count tensor and published shm segment.

    Shared-memory segments published for ``jobs=N`` scans (see
    :mod:`repro.kernel.shm`) are part of the code-table cache lifecycle:
    clearing the cache must also unlink them, or every cleared scan
    would leak a ``/dev/shm`` file until interpreter exit.
    """
    _cache.clear()
    from repro.kernel import shm

    shm.release_all()


def codes_for(values, categories: list | None = None) -> CodeTable:
    """The :class:`CodeTable` for an array, cached by array identity."""
    categories_key = None if categories is None else tuple(categories)
    if isinstance(values, np.ndarray):
        table = cache_get((values,), ("codes", categories_key))
        if table is not None:
            return table
        table = encode(values, categories)
        return cache_put((values,), ("codes", categories_key), table)
    return encode(values, categories)
