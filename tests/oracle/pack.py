"""The two-pass pack encoding the library's writer replaced.

Before discrete columns carried their codes from construction, the
packed writer collected each chunk's distinct values with ``np.unique``
while appending, then on close re-read every value file it had just
written and encoded it again, chunk by chunk, with ``return_inverse``.
That pass is kept here as the comparator: the codes file and sidecar
entry it derives from a pack's value file are what the library's writer
must produce.

The category check of the old ``_as_column_array`` — ``np.unique``
plus a set difference — is kept beside it, for its exact error text.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.data.ooc import _npy_header
from repro.exceptions import DatasetError


def check_categories(values: np.ndarray, column) -> None:
    """Raise the old ``DatasetError`` for values outside the declared set."""
    allowed = set(column.categories)
    present = set(np.unique(values).tolist())
    extra = present - allowed
    if extra:
        raise DatasetError(
            f"column {column.name!r} contains values outside its declared "
            f"categories {column.categories}: {sorted(extra, key=repr)}"
        )


def write_codes_two_pass(
    value_path: Path, codes_path: Path, chunk_rows: int
) -> dict:
    """Encode a packed value file to a codes file the two-pass way.

    Returns the sidecar ``codes`` entry (``categories``, ``counts``);
    categories are the distinct values present, repr-sorted —
    byte-identical to what ``encode`` derives from the whole column.
    """
    values = np.load(value_path, mmap_mode="r")
    n_rows = len(values)
    chunks = [
        np.array(values[lo:min(lo + chunk_rows, n_rows)])
        for lo in range(0, n_rows, chunk_rows)
    ]
    uniques: set = set()
    for chunk in chunks:
        uniques.update(np.unique(chunk).tolist())
    categories = sorted(uniques, key=repr)
    index = {category: code for code, category in enumerate(categories)}
    counts = np.zeros(len(categories), dtype=np.int64)
    with open(codes_path, "wb") as handle:
        handle.write(_npy_header("<i8", n_rows))
        for chunk in chunks:
            chunk_uniques, inverse = np.unique(chunk, return_inverse=True)
            remap = np.array(
                [index[u] for u in chunk_uniques.tolist()], dtype=np.int64
            )
            codes = remap[inverse] if len(chunk_uniques) else np.zeros(0, np.int64)
            counts += np.bincount(codes, minlength=len(categories))
            handle.write(np.ascontiguousarray(codes).tobytes())
    return {"categories": categories, "counts": counts.tolist()}
