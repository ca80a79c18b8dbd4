"""Out-of-core columnar datasets: packed ``.npy`` columns + memmap access.

The paper's legal argument (Section IV) only carries weight when audits
cover the *whole* affected population, which routinely exceeds RAM.
This module adds a packed on-disk dataset format and a
:class:`MemmapDataset` that satisfies the :class:`~repro.data.dataset.
TabularDataset` interface used by the audit paths without materialising
columns.

Format (``repro.packed`` version 1) — a directory containing:

``dataset.json``
    Sidecar with the schema (roles, categories, statute tags), row
    count, per-column file layout, pre-encoded category tables for
    discrete columns, and a sha256 content fingerprint **identical** to
    :func:`repro.observability.provenance.dataset_fingerprint` of the
    equivalent in-memory dataset — so checkpoints, provenance records,
    and content-addressed service cache keys agree across
    representations.

``NNN-<column>.npy``
    One plain, memmap-openable ``.npy`` file per column, written with a
    fixed-size rewritable header so :class:`PackedWriter` can append
    chunks without knowing the final row count up front.

``NNN-<column>.codes.npy``
    For discrete columns, the int64 code array produced by
    :func:`repro.kernel.codes.encode` (categories repr-sorted), written
    at pack time so audits never re-encode a packed column.

Bounded-memory readers deliberately use :func:`numpy.fromfile` (plain
buffered reads) rather than slicing memmaps: pages read through a
memmap stay resident in the process and are charged to ``ru_maxrss``,
while buffered reads only populate the kernel page cache.  Memmaps are
still used where the caller wants a lazily-touched whole-column array
(``column()``), which is what the ``TabularDataset`` interface promises.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import numpy as np

from repro.data.dataset import TabularDataset, _as_column_array
from repro.data.schema import Schema
from repro.exceptions import DatasetError, SchemaError

__all__ = [
    "PACK_FORMAT",
    "PACK_VERSION",
    "PACK_SIDECAR",
    "DEFAULT_CHUNK_ROWS",
    "PackedWriter",
    "pack_dataset",
    "open_dataset",
    "is_packed",
    "packed_fingerprint",
    "MemmapDataset",
    "PackedChunk",
    "stream_chunks",
]

PACK_FORMAT = "repro.packed"
PACK_VERSION = 1
PACK_SIDECAR = "dataset.json"
#: default rows per I/O chunk (1 MiB of int64 per column)
DEFAULT_CHUNK_ROWS = 1 << 20

_MAGIC = b"\x93NUMPY"
#: fixed header size: large enough for any 1-D little-endian descr and a
#: 20-digit row count, small enough to keep data page-aligned at 128.
_HEADER_BYTES = 128


# -- low-level .npy plumbing -------------------------------------------------


def _npy_header(descr: str, n_rows: int) -> bytes:
    """A fixed-size (``_HEADER_BYTES``) v1.0 ``.npy`` header.

    Space-padded and newline-terminated per the format spec; writing it
    at a fixed size lets :class:`PackedWriter` rewrite the shape in
    place once the final row count is known.
    """
    header = "{'descr': %r, 'fortran_order': False, 'shape': (%d,), }" % (
        descr,
        n_rows,
    )
    body = header.encode("latin1")
    room = _HEADER_BYTES - len(_MAGIC) - 2 - 2 - 1  # magic, version, hlen, \n
    if len(body) > room:
        raise DatasetError(
            f"dtype descr {descr!r} does not fit the fixed {_HEADER_BYTES}-byte "
            "npy header"
        )
    body = body + b" " * (room - len(body)) + b"\n"
    return _MAGIC + bytes((1, 0)) + len(body).to_bytes(2, "little") + body


def _read_npy_layout(path: Path) -> tuple[str, tuple, int]:
    """``(descr, shape, data_offset)`` from a ``.npy`` header.

    Any structural problem — missing file, wrong magic, garbled header
    dict — becomes a :exc:`DatasetError` naming the file.
    """
    try:
        with open(path, "rb") as handle:
            version = np.lib.format.read_magic(handle)
            if version == (1, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_1_0(handle)
            elif version == (2, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_2_0(handle)
            else:
                raise DatasetError(
                    f"unsupported .npy format version {version} in {path}"
                )
            offset = handle.tell()
    except FileNotFoundError:
        raise DatasetError(f"packed column file is missing: {path}") from None
    except DatasetError:
        raise
    except (ValueError, OSError, KeyError) as exc:
        raise DatasetError(f"garbled .npy header in {path}: {exc}") from exc
    if fortran:
        raise DatasetError(f"packed column file {path} is fortran-ordered")
    return np.lib.format.dtype_to_descr(dtype), shape, offset


class _NpyReader:
    """Bounded-memory row-range reader over one packed ``.npy`` file."""

    __slots__ = ("path", "dtype", "offset", "n_rows")

    def __init__(self, path: Path, descr: str, offset: int, n_rows: int):
        self.path = Path(path)
        self.dtype = np.dtype(descr)
        self.offset = offset
        self.n_rows = n_rows

    def read(self, lo: int, hi: int) -> np.ndarray:
        """Rows ``[lo, hi)`` as a fresh in-memory array (one buffered read)."""
        count = hi - lo
        arr = np.fromfile(
            self.path,
            dtype=self.dtype,
            count=count,
            offset=self.offset + lo * self.dtype.itemsize,
        )
        if len(arr) != count:
            raise DatasetError(
                f"short read from {self.path}: wanted rows [{lo}, {hi}), "
                f"got {len(arr)}"
            )
        return arr

    def manifest(self) -> dict:
        """Pickle-cheap description a worker can re-open by path."""
        return {
            "kind": "npy",
            "path": str(self.path),
            "dtype": np.lib.format.dtype_to_descr(self.dtype),
            "offset": self.offset,
            "n_rows": self.n_rows,
        }


def _iter_file_chunks(reader: _NpyReader, chunk_rows: int):
    for lo in range(0, reader.n_rows, chunk_rows):
        yield reader.read(lo, min(lo + chunk_rows, reader.n_rows))


def _layout_digest(schema: Schema, n_rows: int) -> "hashlib._Hash":
    """The digest seeded exactly like ``dataset_fingerprint``'s layout."""
    digest = hashlib.sha256()
    layout = {
        "n_rows": n_rows,
        "columns": [[col.name, str(col.kind), str(col.role)] for col in schema],
    }
    digest.update(json.dumps(layout, sort_keys=True).encode())
    return digest


def _safe_stem(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]", "_", name)


# -- writer ------------------------------------------------------------------


class PackedWriter:
    """Chunked writer for the packed columnar format.

    Append any number of row chunks (mappings or datasets); ``close()``
    rewrites the fixed headers with the final row count, encodes the
    discrete columns' code tables, computes the content fingerprint in
    one sequential pass, and atomically writes the sidecar.  A directory
    without its ``dataset.json`` is therefore never a valid packed
    dataset — a crash mid-pack cannot leave a readable-but-wrong one.

    Note on chunked string columns: the first chunk fixes each column's
    dtype (later chunks must cast safely), so a stream whose widest
    string appears late must pre-widen its arrays.  :func:`pack_dataset`
    slices a validated dataset and is immune.
    """

    def __init__(self, path, schema: Schema, *, chunk_rows: int = DEFAULT_CHUNK_ROWS):
        if not isinstance(schema, Schema):
            raise DatasetError(
                f"schema must be a Schema, got {type(schema).__name__}"
            )
        self.path = Path(path)
        self.schema = schema
        self.chunk_rows = int(chunk_rows)
        if self.chunk_rows <= 0:
            raise DatasetError(f"chunk_rows must be positive, got {chunk_rows}")
        self.path.mkdir(parents=True, exist_ok=True)
        if (self.path / PACK_SIDECAR).exists():
            raise DatasetError(
                f"{self.path} already holds a packed dataset; pack elsewhere "
                "or remove it first"
            )
        self._handles: dict = {}
        self._meta: dict[str, dict] = {}
        self._uniques: dict[str, set] = {}
        self._n_rows = 0
        self._closed = False
        for position, col in enumerate(schema):
            file_name = f"{position:03d}-{_safe_stem(col.name)}.npy"
            handle = open(self.path / file_name, "wb")
            handle.write(b"\x00" * _HEADER_BYTES)  # rewritten on close
            self._handles[col.name] = handle
            self._meta[col.name] = {"file": file_name, "dtype": None}
            if col.is_discrete:
                self._uniques[col.name] = set()

    # -- context manager: close on success, abort on error -----------------

    def __enter__(self) -> "PackedWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()

    def append(self, data) -> int:
        """Validate and write one chunk of rows; returns total rows so far."""
        if self._closed:
            raise DatasetError(f"PackedWriter for {self.path} is already closed")
        if isinstance(data, TabularDataset):
            data = {col.name: data.column(col.name) for col in self.schema}
        arrays: dict[str, np.ndarray] = {}
        length = None
        for col in self.schema:
            if col.name not in data:
                raise DatasetError(
                    f"chunk is missing column {col.name!r} declared in schema"
                )
            arr = _as_column_array(data[col.name], col)
            if length is None:
                length = len(arr)
            elif len(arr) != length:
                raise DatasetError(
                    f"chunk columns have mismatched lengths: {col.name!r} has "
                    f"{len(arr)}, expected {length}"
                )
            arrays[col.name] = arr
        for col in self.schema:
            arr = arrays[col.name]
            meta = self._meta[col.name]
            if meta["dtype"] is None:
                if arr.dtype.hasobject:
                    raise DatasetError(
                        f"column {col.name!r} has object dtype "
                        f"{arr.dtype}; not packable"
                    )
                if col.is_discrete and arr.dtype.kind == "S":
                    raise DatasetError(
                        f"column {col.name!r} has bytes categories; pack "
                        "expects str or numeric categories"
                    )
                meta["dtype"] = arr.dtype
            elif arr.dtype != meta["dtype"]:
                if not np.can_cast(arr.dtype, meta["dtype"], casting="safe"):
                    raise DatasetError(
                        f"chunk dtype {arr.dtype} for column {col.name!r} "
                        f"cannot safely cast to the established {meta['dtype']}"
                    )
                arr = arr.astype(meta["dtype"])
            if col.is_discrete:
                self._uniques[col.name].update(np.unique(arr).tolist())
            self._handles[col.name].write(np.ascontiguousarray(arr).tobytes())
        self._n_rows += int(length)
        return self._n_rows

    def abort(self) -> None:
        """Discard the partial pack (files removed, no sidecar written)."""
        if self._closed:
            return
        self._closed = True
        for handle in self._handles.values():
            handle.close()
        for meta in self._meta.values():
            (self.path / meta["file"]).unlink(missing_ok=True)

    def close(self) -> Path:
        """Finalise headers, code tables, fingerprint, and sidecar."""
        if self._closed:
            raise DatasetError(f"PackedWriter for {self.path} is already closed")
        if self._n_rows == 0:
            self.abort()
            raise DatasetError(
                f"cannot finalise an empty packed dataset at {self.path}"
            )
        self._closed = True
        for col in self.schema:
            meta = self._meta[col.name]
            handle = self._handles[col.name]
            descr = np.lib.format.dtype_to_descr(meta["dtype"])
            meta["descr"] = descr
            handle.seek(0)
            handle.write(_npy_header(descr, self._n_rows))
            handle.flush()
            handle.close()

        # fingerprint: ONE running digest over layout + columns in schema
        # order, exactly mirroring provenance.dataset_fingerprint.
        digest = _layout_digest(self.schema, self._n_rows)
        column_entries = []
        for col in self.schema:
            meta = self._meta[col.name]
            reader = _NpyReader(
                self.path / meta["file"], meta["descr"], _HEADER_BYTES, self._n_rows
            )
            for chunk in _iter_file_chunks(reader, self.chunk_rows):
                digest.update(np.ascontiguousarray(chunk).tobytes())
            codes_entry = None
            if col.is_discrete:
                codes_entry = self._write_codes(col.name, reader)
            column_entries.append(
                {
                    "name": col.name,
                    "file": meta["file"],
                    "dtype": meta["descr"],
                    "codes": codes_entry,
                }
            )
        fingerprint = digest.hexdigest()

        from repro.data.io import schema_to_dict
        from repro.robustness.checkpoint import atomic_write_text

        sidecar = {
            "format": PACK_FORMAT,
            "version": PACK_VERSION,
            "n_rows": self._n_rows,
            "fingerprint": fingerprint,
            "schema": schema_to_dict(self.schema),
            "columns": column_entries,
        }
        atomic_write_text(
            self.path / PACK_SIDECAR, json.dumps(sidecar, indent=2, sort_keys=True)
        )
        return self.path

    def _write_codes(self, name: str, value_reader: _NpyReader) -> dict:
        """Encode one discrete column to codes, chunk by chunk.

        Categories are the distinct values present, repr-sorted —
        byte-identical to what :func:`repro.kernel.codes.encode` derives
        from the whole column at once.
        """
        categories = sorted(self._uniques[name], key=repr)
        index = {category: code for code, category in enumerate(categories)}
        counts = np.zeros(len(categories), dtype=np.int64)
        codes_file = self._meta[name]["file"].replace(".npy", ".codes.npy")
        with open(self.path / codes_file, "wb") as handle:
            handle.write(_npy_header("<i8", self._n_rows))
            for chunk in _iter_file_chunks(value_reader, self.chunk_rows):
                uniques, inverse = np.unique(chunk, return_inverse=True)
                remap = np.array(
                    [index[u] for u in uniques.tolist()], dtype=np.int64
                )
                codes = remap[inverse] if len(uniques) else np.zeros(0, np.int64)
                counts += np.bincount(codes, minlength=len(categories))
                handle.write(np.ascontiguousarray(codes).tobytes())
        return {
            "file": codes_file,
            "categories": categories,
            "counts": counts.tolist(),
        }


def pack_dataset(
    dataset: TabularDataset, path, *, chunk_rows: int = DEFAULT_CHUNK_ROWS
) -> Path:
    """Pack an in-memory dataset into the columnar format at ``path``.

    The resulting directory opens as a :class:`MemmapDataset` whose
    fingerprint equals ``dataset.fingerprint()``.
    """
    with PackedWriter(path, dataset.schema, chunk_rows=chunk_rows) as writer:
        for lo in range(0, dataset.n_rows, chunk_rows):
            hi = min(lo + chunk_rows, dataset.n_rows)
            writer.append(
                {
                    col.name: dataset.column(col.name)[lo:hi]
                    for col in dataset.schema
                }
            )
    return Path(path)


# -- opening -----------------------------------------------------------------


def is_packed(path) -> bool:
    """True when ``path`` is a packed-dataset directory."""
    path = Path(path)
    return path.is_dir() and (path / PACK_SIDECAR).is_file()


def _load_sidecar(path: Path) -> dict:
    sidecar = path / PACK_SIDECAR
    try:
        text = sidecar.read_text()
    except FileNotFoundError:
        raise DatasetError(
            f"{path} is not a packed dataset: missing {PACK_SIDECAR}"
        ) from None
    except OSError as exc:
        raise DatasetError(f"cannot read packed sidecar {sidecar}: {exc}") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DatasetError(
            f"corrupt packed sidecar {sidecar}: {exc.msg} at byte offset {exc.pos}"
        ) from exc
    if not isinstance(payload, dict) or payload.get("format") != PACK_FORMAT:
        raise DatasetError(
            f"{sidecar} is not a {PACK_FORMAT} sidecar "
            f"(format={payload.get('format')!r})"
            if isinstance(payload, dict)
            else f"{sidecar} does not hold a JSON object"
        )
    if payload.get("version") != PACK_VERSION:
        raise DatasetError(
            f"{sidecar} has unsupported pack version {payload.get('version')!r}; "
            f"this build reads version {PACK_VERSION}"
        )
    for key in ("n_rows", "fingerprint", "schema", "columns"):
        if key not in payload:
            raise DatasetError(f"packed sidecar {sidecar} lacks the {key!r} key")
    return payload


def packed_fingerprint(path) -> str:
    """The content fingerprint recorded in a packed dataset's sidecar.

    Reads only the sidecar — this is what content-addressed cache keys
    (service job store) use, so submitting a job against a huge packed
    dataset stays O(1).
    """
    payload = _load_sidecar(Path(path))
    fingerprint = payload["fingerprint"]
    if not isinstance(fingerprint, str) or not fingerprint:
        raise DatasetError(
            f"packed sidecar {Path(path) / PACK_SIDECAR} holds an invalid "
            f"fingerprint: {fingerprint!r}"
        )
    return fingerprint


def open_dataset(
    path, *, verify: bool = False, chunk_rows: int = DEFAULT_CHUNK_ROWS
) -> "MemmapDataset":
    """Open a packed dataset directory as a :class:`MemmapDataset`.

    Structural integrity is always checked — every column file must
    exist, parse, match the sidecar's dtype, declare exactly ``n_rows``,
    and be byte-complete on disk (truncation is caught from file sizes
    without reading data).  ``verify=True`` additionally re-hashes the
    column bytes chunk-wise and compares against the recorded
    fingerprint, catching silent post-pack edits.
    """
    path = Path(path)
    payload = _load_sidecar(path)
    try:
        from repro.data.io import schema_from_dict

        schema = schema_from_dict(payload["schema"])
    except SchemaError as exc:
        raise DatasetError(f"packed sidecar {path / PACK_SIDECAR}: {exc}") from exc
    n_rows = int(payload["n_rows"])
    if n_rows <= 0:
        raise DatasetError(
            f"packed sidecar {path / PACK_SIDECAR} declares n_rows={n_rows}"
        )
    entries = payload["columns"]
    names = [entry.get("name") for entry in entries]
    if names != schema.names():
        raise DatasetError(
            f"packed sidecar {path / PACK_SIDECAR} column list {names} does "
            f"not match its schema {schema.names()}"
        )
    meta: dict[str, dict] = {}
    for entry in entries:
        file_path = path / entry["file"]
        descr, shape, offset = _read_npy_layout(file_path)
        if descr != entry["dtype"]:
            raise DatasetError(
                f"column file {file_path} holds dtype {descr}, sidecar "
                f"declares {entry['dtype']}"
            )
        _check_length(file_path, shape, offset, descr, n_rows)
        codes_meta = None
        if entry.get("codes") is not None:
            codes = entry["codes"]
            codes_path = path / codes["file"]
            codes_descr, codes_shape, codes_offset = _read_npy_layout(codes_path)
            if np.dtype(codes_descr) != np.dtype(np.int64):
                raise DatasetError(
                    f"codes file {codes_path} holds dtype {codes_descr}, "
                    "expected int64"
                )
            _check_length(codes_path, codes_shape, codes_offset, codes_descr, n_rows)
            codes_meta = {
                "path": codes_path,
                "offset": codes_offset,
                "categories": list(codes["categories"]),
                "counts": list(codes["counts"]),
            }
        meta[entry["name"]] = {
            "path": file_path,
            "dtype": descr,
            "offset": offset,
            "codes": codes_meta,
        }
    dataset = MemmapDataset(
        path, schema, n_rows, meta, payload["fingerprint"], chunk_rows
    )
    if verify:
        digest = _layout_digest(schema, n_rows)
        for col in schema:
            for chunk in _iter_file_chunks(dataset.open_column(col.name), chunk_rows):
                digest.update(np.ascontiguousarray(chunk).tobytes())
        actual = digest.hexdigest()
        if actual != payload["fingerprint"]:
            raise DatasetError(
                f"stale fingerprint for packed dataset {path}: sidecar records "
                f"{payload['fingerprint'][:12]}…, column bytes hash to "
                f"{actual[:12]}… (files changed after packing)"
            )
    return dataset


def _check_length(
    file_path: Path, shape: tuple, offset: int, descr: str, n_rows: int
) -> None:
    if shape != (n_rows,):
        raise DatasetError(
            f"column file {file_path} declares shape {shape}, sidecar "
            f"declares n_rows={n_rows}"
        )
    expected = offset + n_rows * np.dtype(descr).itemsize
    actual = file_path.stat().st_size
    if actual != expected:
        kind = "truncated" if actual < expected else "overlong"
        raise DatasetError(
            f"{kind} column file {file_path}: {actual} bytes on disk, header "
            f"declares {expected}"
        )


# -- the dataset -------------------------------------------------------------


class _LazyColumns(dict):
    """Column dict that memmaps files on first access.

    Iteration-style accessors force-load everything so generic
    ``TabularDataset`` methods (``to_dict``, ``concat``, …) see the full
    column set; loading is an ``mmap`` call, not a read.
    """

    def __init__(self, names: list[str], loader):
        super().__init__()
        self._names = names
        self._loader = loader

    def __missing__(self, name: str) -> np.ndarray:
        if name not in self._names:
            raise KeyError(name)
        array = self._loader(name)
        self[name] = array
        return array

    def _ensure_all(self) -> None:
        for name in self._names:
            self[name]

    def __contains__(self, name) -> bool:
        return name in self._names

    def __iter__(self):
        self._ensure_all()
        return super().__iter__()

    def __len__(self) -> int:
        return len(self._names)

    def keys(self):
        self._ensure_all()
        return super().keys()

    def values(self):
        self._ensure_all()
        return super().values()

    def items(self):
        self._ensure_all()
        return super().items()


class MemmapDataset(TabularDataset):
    """A packed dataset opened without materialising any column.

    Satisfies the ``TabularDataset`` interface used by the audit paths:
    ``column()`` returns a read-only memmap, ``codes()`` serves the
    pre-encoded pack-time table, ``take()`` of a contiguous range is a
    bounded buffered read, and the extra out-of-core hooks
    (``open_column``, ``codes_reader``, ``subset_counts``,
    ``present_categories``, ``reader_for``) let the subgroup auditor and
    enumerator run whole scans without ever holding a full column.
    """

    def __init__(
        self,
        path: Path,
        schema: Schema,
        n_rows: int,
        meta: dict,
        fingerprint: str,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
    ):
        self._path = Path(path)
        self._schema = schema
        self._n_rows = int(n_rows)
        self._meta = meta
        self._columns = _LazyColumns(schema.names(), self._load_column)
        self._packed_tables: dict = {}
        self.chunk_rows = int(chunk_rows)
        # pre-seed the provenance cache: dataset_fingerprint() and
        # fingerprint() read this attribute instead of hashing 100M rows.
        self._repro_fingerprint = fingerprint

    # -- loading ------------------------------------------------------------

    @property
    def path(self) -> Path:
        """The packed directory this dataset reads from."""
        return self._path

    def _require(self, name: str) -> dict:
        if name not in self._schema:
            raise SchemaError(
                f"unknown column {name!r}; available: {self._schema.names()}"
            )
        return self._meta[name]

    def _load_column(self, name: str) -> np.ndarray:
        meta = self._require(name)
        try:
            return np.load(meta["path"], mmap_mode="r")
        except (ValueError, OSError) as exc:
            raise DatasetError(
                f"cannot memmap packed column file {meta['path']}: {exc}"
            ) from exc

    def column(self, name: str) -> np.ndarray:
        if name not in self._schema:
            raise SchemaError(
                f"unknown column {name!r}; available: {self._schema.names()}"
            )
        return self._columns[name]

    # -- out-of-core hooks ---------------------------------------------------

    def open_column(self, name: str) -> _NpyReader:
        """A bounded-memory row-range reader over one column file."""
        meta = self._require(name)
        return _NpyReader(meta["path"], meta["dtype"], meta["offset"], self._n_rows)

    def codes_reader(self, name: str) -> _NpyReader:
        """A bounded-memory reader over a discrete column's code file."""
        meta = self._require(name)
        if meta["codes"] is None:
            raise DatasetError(
                f"column {name!r} in {self._path} has no packed code table "
                "(not a discrete column)"
            )
        return _NpyReader(meta["codes"]["path"], "<i8", meta["codes"]["offset"], self._n_rows)

    def reader_for(self, array: np.ndarray) -> _NpyReader | None:
        """The reader behind a column array previously served by ``column()``.

        Lets callers handed a whole-column memmap (e.g. ``labels()``)
        recover the bounded-read path instead of touching the mapping.
        """
        for name, loaded in list(dict.items(self._columns)):
            if loaded is array:
                return self.open_column(name)
        return None

    def present_categories(self, name: str) -> list:
        """Declared categories actually present, in declared order.

        Served from the sidecar's pack-time counts — the enumeration
        layer uses this instead of scanning the column.
        """
        meta = self._require(name)
        if meta["codes"] is None:
            raise DatasetError(
                f"column {name!r} in {self._path} is not discrete"
            )
        present = set(meta["codes"]["categories"])
        declared = self._schema[name].categories
        return [c for c in declared if c in present]

    def codes(self, name: str, categories: list | None = None):
        """The kernel code table, served from the pack-time encoding.

        With the default category order this is zero-cost: categories
        come from the sidecar and the code array is the memmapped
        ``.codes.npy``.  Explicit ``categories`` fall back to the base
        encode-on-demand path.
        """
        from repro.observability.metrics import get_metrics

        meta = self._require(name)
        if categories is not None or meta["codes"] is None:
            return super().codes(name, categories)
        table = self._packed_tables.get(name)
        if table is not None:
            get_metrics().counter("kernel.cache_hit").inc()
            return table
        from repro.kernel.codes import CodeTable

        cats = list(meta["codes"]["categories"])
        try:
            cats_array = np.asarray(cats, dtype=np.dtype(meta["dtype"]))
        except (TypeError, ValueError):
            cats_array = np.asarray(cats, dtype=object)
        codes_array = np.lib.format.open_memmap(
            meta["codes"]["path"], mode="r"
        )
        table = CodeTable(cats, cats_array, codes_array)
        self._packed_tables[name] = table
        return table

    def subset_counts(
        self, attributes: tuple, predictions=None
    ) -> np.ndarray:
        """Joint category-cell counts over an attribute subset, chunked.

        Row-major combined codes (matching
        :func:`repro.kernel.contingency.combined_codes`) accumulated one
        chunk at a time.  With ``predictions`` (an ``_NpyReader`` or an
        array) the result has shape ``(n_cells, 2)`` like
        :func:`joint_counts`; without, shape ``(n_cells,)``.
        """
        tables = [self.codes(name) for name in attributes]
        readers = [self.codes_reader(name) for name in attributes]
        n_cells = 1
        for table in tables:
            n_cells *= table.n_categories
        with_pred = predictions is not None
        totals = np.zeros(n_cells * (2 if with_pred else 1), dtype=np.int64)
        for lo in range(0, self._n_rows, self.chunk_rows):
            hi = min(lo + self.chunk_rows, self._n_rows)
            combined = readers[0].read(lo, hi)
            for reader, table in zip(readers[1:], tables[1:]):
                combined *= table.n_categories
                combined += reader.read(lo, hi)
            if with_pred:
                if isinstance(predictions, _NpyReader):
                    chunk = predictions.read(lo, hi)
                else:
                    chunk = np.asarray(predictions[lo:hi], dtype=np.int64)
                combined *= 2
                combined += chunk
            totals += np.bincount(combined, minlength=len(totals))
        return totals.reshape(n_cells, 2) if with_pred else totals

    # -- row selection -------------------------------------------------------

    def take(self, indices) -> TabularDataset:
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
        if len(indices):
            lo = int(indices[0])
            hi = lo + len(indices)
            if (
                lo >= 0
                and hi <= self._n_rows
                and int(indices[-1]) == hi - 1
                and (len(indices) == 1 or bool(np.all(np.diff(indices) == 1)))
            ):
                return PackedChunk(self, lo, hi)
        columns: dict[str, np.ndarray] = {}
        for col in self._schema:
            picked = self.column(col.name)[indices]
            picked.setflags(write=False)
            columns[col.name] = picked
        return TabularDataset._trusted(self._schema, columns, len(indices))

    def iter_chunks(self, chunk_rows: int | None = None):
        """Yield contiguous row chunks (:class:`PackedChunk`) of the pack."""
        step = int(chunk_rows or self.chunk_rows)
        for lo in range(0, self._n_rows, step):
            yield PackedChunk(self, lo, min(lo + step, self._n_rows))

    # -- column transformation: materialise, then delegate -------------------

    def _thaw(self) -> TabularDataset:
        """A fully-materialised (memmap-backed) in-memory view."""
        columns = {col.name: self.column(col.name) for col in self._schema}
        return TabularDataset._trusted(self._schema, columns, self._n_rows)

    def with_column(self, column, values) -> TabularDataset:
        return self._thaw().with_column(column, values)

    def drop_column(self, name: str) -> TabularDataset:
        return self._thaw().drop_column(name)

    def with_role(self, name: str, role: str) -> TabularDataset:
        return self._thaw().with_role(name, role)

    def __repr__(self) -> str:
        return (
            f"MemmapDataset(path={str(self._path)!r}, n_rows={self._n_rows}, "
            f"n_columns={len(self._schema)})"
        )


class PackedChunk(TabularDataset):
    """Rows ``[lo, hi)`` of a pack; each column is read on first access.

    :meth:`stored_codes` serves a discrete column's pack-time codes, so
    a consumer that only counts categories
    (:meth:`repro.streaming.AuditAccumulator.ingest_dataset`) reads the
    code slices as stored — never the values, nor a column it skips.
    """

    def __init__(self, pack: MemmapDataset, lo: int, hi: int):
        self._schema = pack.schema
        self._n_rows = hi - lo
        self._columns = _LazyColumns(pack.schema.names(), self._read)
        self._pack = pack
        self._lo = lo
        self._hi = hi

    def _read(self, name: str) -> np.ndarray:
        arr = self._pack.open_column(name).read(self._lo, self._hi)
        arr.setflags(write=False)
        return arr

    def stored_codes(self, name: str):
        """``(categories, codes)`` for a discrete column; ``None`` otherwise."""
        meta = self._pack._require(name)
        if meta["codes"] is None:
            return None
        codes = self._pack.codes_reader(name).read(self._lo, self._hi)
        return meta["codes"]["categories"], codes


def stream_chunks(source, chunk_rows: int | None = None):
    """Yield bounded in-memory chunks from a packed path or dataset.

    The bridge into :func:`repro.streaming.audit_stream`: feed a packed
    directory straight through —
    ``audit_stream(stream_chunks("corpus.packed"))`` — and the audit
    runs in ``O(chunk)`` memory however large the corpus.
    """
    if isinstance(source, (str, Path)):
        source = open_dataset(source)
    if isinstance(source, MemmapDataset):
        yield from source.iter_chunks(chunk_rows)
        return
    step = int(chunk_rows or DEFAULT_CHUNK_ROWS)
    for lo in range(0, source.n_rows, step):
        yield source.take(np.arange(lo, min(lo + step, source.n_rows)))
