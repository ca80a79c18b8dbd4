"""Packed columnar format: roundtrip fidelity and corruption handling.

Every corruption mode — truncated column file, garbled header, length
mismatch against the sidecar, silently edited bytes — must surface as a
:class:`DatasetError` naming the offending path, never a raw numpy or
JSON error mid-audit.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.data import (
    MemmapDataset,
    PackedWriter,
    is_packed,
    make_hiring,
    make_intersectional,
    open_dataset,
    pack_dataset,
    packed_fingerprint,
)
from repro.data.io import load_dataset, save_dataset
from repro.data.ooc import PACK_SIDECAR
from repro.exceptions import DatasetError
from repro.observability.provenance import dataset_fingerprint


@pytest.fixture(scope="module")
def source():
    return make_intersectional(n=2500, random_state=3)


@pytest.fixture()
def packed(source, tmp_path):
    path = tmp_path / "packed"
    pack_dataset(source, path)
    return path


def test_roundtrip_preserves_columns_schema_and_fingerprint(source, packed):
    data = open_dataset(packed)
    assert isinstance(data, MemmapDataset)
    assert data.schema == source.schema
    assert data.n_rows == source.n_rows
    for name in source.schema.names():
        original = source.column(name)
        loaded = data.column(name)
        assert loaded.dtype == original.dtype
        np.testing.assert_array_equal(np.asarray(loaded), original)
    # The packed fingerprint is the in-memory fingerprint — cache keys
    # and resume checkpoints transfer between representations.
    assert packed_fingerprint(packed) == dataset_fingerprint(source)
    assert dataset_fingerprint(data) == dataset_fingerprint(source)


def test_roundtrip_preserves_code_tables(source, packed):
    data = open_dataset(packed)
    for name in ("gender", "race", "promoted"):
        original = source.codes(name)
        loaded = data.codes(name)
        assert loaded.categories == original.categories
        np.testing.assert_array_equal(
            np.asarray(loaded.codes), original.codes
        )
        declared = source.schema[name].categories
        present = {v for v in np.asarray(source.column(name)).tolist()}
        assert data.present_categories(name) == [
            c for c in declared if c in present
        ]


def test_verify_passes_on_clean_pack(packed):
    open_dataset(packed, verify=True)  # must not raise


def test_is_packed_and_load_dataset_dispatch(source, packed, tmp_path):
    assert is_packed(packed)
    assert not is_packed(tmp_path / "nowhere")
    loaded = load_dataset(packed)
    assert isinstance(loaded, MemmapDataset)

    csv_path = tmp_path / "flat.csv"
    save_dataset(source, csv_path)
    assert not is_packed(csv_path)
    assert not isinstance(load_dataset(csv_path), MemmapDataset)


def test_chunked_writer_matches_single_shot(source, tmp_path):
    whole = tmp_path / "whole"
    chunked = tmp_path / "chunked"
    pack_dataset(source, whole)
    with PackedWriter(chunked, source.schema) as writer:
        for lo in range(0, source.n_rows, 400):
            chunk = source.take(np.arange(lo, min(lo + 400, source.n_rows)))
            writer.append(chunk)
    assert packed_fingerprint(chunked) == packed_fingerprint(whole)
    a, b = open_dataset(whole), open_dataset(chunked)
    for name in source.schema.names():
        np.testing.assert_array_equal(
            np.asarray(a.column(name)), np.asarray(b.column(name))
        )


# -- corruption modes --------------------------------------------------------


def _column_file(packed, index=0):
    payload = json.loads((packed / PACK_SIDECAR).read_text())
    return packed / payload["columns"][index]["file"]


def test_truncated_column_file(packed):
    victim = _column_file(packed)
    blob = victim.read_bytes()
    victim.write_bytes(blob[:-16])
    with pytest.raises(DatasetError, match="truncated") as excinfo:
        open_dataset(packed)
    assert str(victim) in str(excinfo.value)


def test_overlong_column_file(packed):
    victim = _column_file(packed)
    with victim.open("ab") as handle:
        handle.write(b"\0" * 24)
    with pytest.raises(DatasetError, match="overlong") as excinfo:
        open_dataset(packed)
    assert str(victim) in str(excinfo.value)


def test_garbled_npy_header(packed):
    victim = _column_file(packed)
    original = victim.read_bytes()
    blob = bytearray(original)
    blob[:6] = b"\x93NOPE\0"
    victim.write_bytes(bytes(blob))
    with pytest.raises(DatasetError, match="garbled .npy header") as excinfo:
        open_dataset(packed)
    assert str(victim) in str(excinfo.value)
    # every single-bit flip of the header dict: numpy tokenizes and
    # literal-evaluates it, so a flip can surface as a tokenizer or
    # syntax error — each must still be a DatasetError naming the file
    # (a flip inside the padding may leave the header valid)
    header_end = 10 + int.from_bytes(original[8:10], "little")
    for byte in range(10, header_end):
        for bit in range(8):
            blob = bytearray(original)
            blob[byte] ^= 1 << bit
            victim.write_bytes(bytes(blob))
            try:
                open_dataset(packed)
            except DatasetError as exc:
                assert str(victim) in str(exc), (byte, bit)


def test_missing_column_file(packed):
    victim = _column_file(packed, index=2)
    victim.unlink()
    with pytest.raises(DatasetError, match="missing") as excinfo:
        open_dataset(packed)
    assert str(victim) in str(excinfo.value)


def test_sidecar_length_mismatch(packed):
    sidecar = packed / PACK_SIDECAR
    payload = json.loads(sidecar.read_text())
    payload["n_rows"] -= 5
    sidecar.write_text(json.dumps(payload))
    with pytest.raises(DatasetError, match="n_rows"):
        open_dataset(packed)


def test_sidecar_dtype_mismatch(packed):
    sidecar = packed / PACK_SIDECAR
    payload = json.loads(sidecar.read_text())
    payload["columns"][0]["dtype"] = "<i2"
    sidecar.write_text(json.dumps(payload))
    with pytest.raises(DatasetError, match="dtype"):
        open_dataset(packed)


def test_corrupt_sidecar_json(packed):
    sidecar = packed / PACK_SIDECAR
    text = sidecar.read_text()
    sidecar.write_text(text[:-20])
    with pytest.raises(DatasetError, match="byte offset") as excinfo:
        open_dataset(packed)
    assert str(sidecar) in str(excinfo.value)
    # bytes that are not UTF-8 at all
    sidecar.write_bytes(b"\xff\xfe" + text.encode())
    with pytest.raises(DatasetError, match="not UTF-8") as excinfo:
        open_dataset(packed)
    assert str(sidecar) in str(excinfo.value)


def test_missing_sidecar_is_not_a_packed_dataset(tmp_path):
    (tmp_path / "empty").mkdir()
    with pytest.raises(DatasetError, match="not a packed dataset"):
        open_dataset(tmp_path / "empty")
    assert not is_packed(tmp_path / "empty")


def test_stale_fingerprint_detected_by_verify(packed):
    victim = _column_file(packed)
    blob = bytearray(victim.read_bytes())
    blob[-1] ^= 0xFF  # flip data bits without changing the length
    victim.write_bytes(bytes(blob))
    open_dataset(packed)  # length/dtype checks alone cannot see this
    with pytest.raises(DatasetError, match="stale fingerprint") as excinfo:
        open_dataset(packed, verify=True)
    assert str(packed) in str(excinfo.value)


# -- writer misuse -----------------------------------------------------------


def test_writer_refuses_existing_pack(source, packed):
    with pytest.raises(DatasetError, match="already holds"):
        PackedWriter(packed, source.schema)


def test_writer_rejects_append_after_close(source, tmp_path):
    writer = PackedWriter(tmp_path / "w", source.schema)
    writer.append(source)
    writer.close()
    with pytest.raises(DatasetError, match="already closed"):
        writer.append(source)


def test_writer_rejects_mismatched_chunk_lengths(source, tmp_path):
    writer = PackedWriter(tmp_path / "w", source.schema)
    chunk = {name: np.asarray(source.column(name)) for name in source.schema.names()}
    chunk["score"] = chunk["score"][:-3]
    with pytest.raises(DatasetError, match="mismatched lengths"):
        writer.append(chunk)
    writer.abort()


def test_empty_pack_is_refused_and_cleaned_up(source, tmp_path):
    path = tmp_path / "w"
    writer = PackedWriter(path, source.schema)
    with pytest.raises(DatasetError, match="empty"):
        writer.close()
    assert not (path / PACK_SIDECAR).exists()
    assert list(path.iterdir()) == []  # placeholders removed


def test_context_manager_aborts_on_error(source, tmp_path):
    path = tmp_path / "w"
    with pytest.raises(RuntimeError, match="boom"):
        with PackedWriter(path, source.schema) as writer:
            writer.append(source)
            raise RuntimeError("boom")
    assert not (path / PACK_SIDECAR).exists()
    assert list(path.iterdir()) == []


def test_pack_other_generators_roundtrip(tmp_path):
    data = make_hiring(n=800, random_state=1)
    pack_dataset(data, tmp_path / "h")
    loaded = open_dataset(tmp_path / "h", verify=True)
    assert dataset_fingerprint(loaded) == dataset_fingerprint(data)


def test_empty_first_chunk_fixes_no_dtype(tmp_path):
    # an empty list is float64 to numpy: were it to fix the column's
    # dtype, the string chunk after it could not be cast
    from repro.data import Column, Schema

    schema = Schema((
        Column("g", kind="categorical", role="protected",
               categories=("a", "b")),
        Column("y", kind="binary", role="label"),
    ))
    chunks = [{"g": ["a", "b", "a"], "y": [1, 0, 1]}, {"g": ["b"], "y": [0]}]
    with PackedWriter(tmp_path / "plain", schema) as writer:
        for chunk in chunks:
            writer.append(chunk)
    with PackedWriter(tmp_path / "empty", schema) as writer:
        writer.append({"g": [], "y": []})
        writer.append(chunks[0])
        assert writer.append({"g": [], "y": []}) == 3
        writer.append(chunks[1])
    plain, empty = open_dataset(tmp_path / "plain"), open_dataset(tmp_path / "empty")
    assert packed_fingerprint(tmp_path / "empty") == packed_fingerprint(
        tmp_path / "plain"
    )
    for name in ("g", "y"):
        np.testing.assert_array_equal(empty.column(name), plain.column(name))
        assert empty.column(name).dtype == plain.column(name).dtype
    assert empty.codes("g").categories == ["a", "b"]
