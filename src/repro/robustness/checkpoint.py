"""Atomic JSON checkpoints and append-only record logs for resumable work.

A checkpoint is a JSON file with a format version, a caller-supplied
*fingerprint* of the run configuration, and an opaque payload.  Writes
are atomic (write-to-temp then :func:`os.replace`), so a kill mid-write
leaves the previous checkpoint intact rather than a truncated file.
Loads verify both the JSON and the fingerprint and raise
:class:`~repro.exceptions.CheckpointError` — with path and byte offset
when the file is corrupt — instead of letting a raw ``json`` error
escape into an audit.

Records that accumulate over a run go to an :class:`AppendLog` instead
— one JSON record per line, flushed and fsynced before the append
returns, so a kill loses at most a torn final line.  The service's job
journal is one.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from repro.exceptions import CheckpointError

__all__ = [
    "CHECKPOINT_VERSION",
    "AppendLog",
    "atomic_write_text",
    "encode_record",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_VERSION = 1


def atomic_write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``).

    The temp file lives in the destination directory so the final rename
    never crosses a filesystem boundary.
    """
    path = Path(path)
    handle, temp_name = tempfile.mkstemp(
        prefix=f".{path.name}.", suffix=".tmp", dir=path.parent or "."
    )
    try:
        with os.fdopen(handle, "w") as stream:
            stream.write(text)
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise


def save_checkpoint(path, payload: dict, fingerprint: str = "") -> None:
    """Atomically persist ``payload`` with its run fingerprint."""
    envelope = {
        "version": CHECKPOINT_VERSION,
        "fingerprint": fingerprint,
        "payload": payload,
    }
    try:
        text = json.dumps(envelope)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(
            f"checkpoint payload is not JSON-serialisable: {exc}", path=path
        ) from exc
    atomic_write_text(path, text)


def load_checkpoint(path, fingerprint: str | None = None) -> dict:
    """Load and validate a checkpoint; return its payload.

    Raises :class:`~repro.exceptions.CheckpointError` when the file is
    missing, truncated/corrupt (message carries the byte offset), from an
    incompatible format version, or — when ``fingerprint`` is given —
    written by a run with different configuration.
    """
    path = Path(path)
    try:
        text = path.read_bytes().decode("utf-8")
    except FileNotFoundError:
        raise CheckpointError(
            f"no checkpoint at {path}", path=path
        ) from None
    except OSError as exc:
        raise CheckpointError(
            f"cannot read checkpoint {path}: {exc}", path=path
        ) from exc
    except UnicodeDecodeError as exc:
        raise CheckpointError(
            f"corrupt checkpoint {path}: not UTF-8 at byte offset "
            f"{exc.start}",
            path=path,
        ) from exc
    try:
        envelope = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckpointError(
            f"corrupt checkpoint {path}: {exc.msg} at byte offset {exc.pos}",
            path=path,
        ) from exc
    if not isinstance(envelope, dict) or "payload" not in envelope:
        raise CheckpointError(
            f"corrupt checkpoint {path}: not a checkpoint envelope",
            path=path,
        )
    if envelope.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has format version "
            f"{envelope.get('version')!r}; this build reads "
            f"{CHECKPOINT_VERSION}",
            path=path,
        )
    if fingerprint is not None and envelope.get("fingerprint") != fingerprint:
        raise CheckpointError(
            f"checkpoint {path} was written by a different run "
            "configuration; refusing to resume from it",
            path=path,
        )
    return envelope["payload"]


# ---------------------------------------------------------------------------
# append-only record logs
# ---------------------------------------------------------------------------


def encode_record(record: dict) -> bytes:
    """One log line: sorted-key JSON, UTF-8, newline-terminated."""
    return (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")


def _decode_record(line: bytes) -> dict:
    record = json.loads(line)
    if not isinstance(record, dict):
        raise ValueError("log records must be JSON objects")
    return record


class AppendLog:
    """Append-only JSON-lines file: durable appends, torn-tail-aware reads.

    :meth:`append` flushes (and, with ``fsync``, syncs) before it
    returns, so a ``kill -9`` loses at most the line being written.
    That torn final line has no newline and :meth:`replay` drops it
    unless it still parses; a malformed *complete* line raises
    :class:`~repro.exceptions.CheckpointError` with the path and 1-based
    line number.  Not thread-safe: callers that share a log lock it.
    """

    def __init__(self, path, *, fsync: bool = True):
        self.path = Path(path)
        self.fsync = fsync
        self._handle = None

    def append(self, records) -> bytes:
        """Durably append ``records``, one line each; return the bytes."""
        data = b"".join(encode_record(record) for record in records)
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "ab")
        if data:
            self._handle.write(data)
            self._handle.flush()
            if self.fsync:
                os.fsync(self._handle.fileno())
        return data

    def lines(self) -> list[bytes]:
        """Every line, newline kept; a torn final line has none.

        Raises :class:`FileNotFoundError` when the log does not exist.
        """
        data = self.path.read_bytes()
        lines = [line + b"\n" for line in data.split(b"\n")]
        tail = lines.pop()[:-1]  # whatever follows the last newline
        if tail:
            lines.append(tail)
        return lines

    def replay(self) -> list[dict]:
        """Parse every record, tolerating only a torn tail."""
        if not self.path.exists():
            return []
        records: list[dict] = []
        for number, line in enumerate(self.lines(), start=1):
            try:
                records.append(_decode_record(line))
            except ValueError as exc:
                if not line.endswith(b"\n"):
                    break  # crash mid-append: the record never happened
                raise CheckpointError(
                    f"corrupt log {self.path} at line {number}: {exc}",
                    path=self.path,
                ) from exc
        return records

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
