"""Crash-safe append-only job journal with atomic rotation.

The journal is the service's write-ahead log: every job transition is
one JSON line, flushed and fsynced before the engine acts on it, so a
``kill -9`` at any instant loses at most the line being written — and a
torn final line (no trailing newline) is recognised and discarded on
replay, exactly the failure a mid-write crash produces.  Corruption
anywhere *else* is a different animal — it means the file was edited or
the disk lied — and raises :class:`~repro.exceptions.CheckpointError`
with the path and line number rather than silently skipping evidence.
Those append and replay mechanics are
:class:`~repro.robustness.checkpoint.AppendLog`'s.

Rotation keeps the log bounded: the engine periodically compacts the
event history into one ``snapshot`` event per live job and rewrites the
file through :func:`~repro.robustness.checkpoint.atomic_write_text`, so
a crash during rotation leaves the previous complete journal intact.
"""

from __future__ import annotations

import threading

from repro.robustness.checkpoint import (
    AppendLog,
    atomic_write_text,
    encode_record,
)

__all__ = ["JOURNAL_VERSION", "JobJournal"]

JOURNAL_VERSION = 1

_HEADER = {"event": "journal", "version": JOURNAL_VERSION}


class JobJournal:
    """Append-only JSON-lines event log for one engine root.

    Parameters
    ----------
    path:
        The journal file; created (with a version header event) on
        first append if missing.
    fsync:
        Force every appended line to disk before returning.  ``True``
        (the default) is what makes recovery exact under ``kill -9``;
        benchmarks may turn it off to measure the engine without the
        disk in the loop.
    """

    def __init__(self, path, *, fsync: bool = True):
        self._log = AppendLog(path, fsync=fsync)
        self.path = self._log.path
        self._lock = threading.Lock()
        self.entries_written = 0

    # -- writing -------------------------------------------------------------

    def append(self, event: dict) -> None:
        """Durably append one event (flushed + fsynced under the lock)."""
        with self._lock:
            events = [event] if self.path.exists() else [_HEADER, event]
            self._log.append(events)
            self.entries_written += len(events)

    # -- replay --------------------------------------------------------------

    def replay(self) -> list[dict]:
        """Parse every journaled event, tolerating only a torn tail.

        A final line without its newline is the signature of a crash
        mid-append and is dropped; a malformed *complete* line raises
        :class:`~repro.exceptions.CheckpointError` with the path and
        1-based line number.
        """
        return self._log.replay()

    # -- rotation ------------------------------------------------------------

    def rotate(self, events: list[dict]) -> None:
        """Atomically replace the journal with a compacted event list."""
        with self._lock:
            lines = [encode_record(event) for event in [_HEADER, *events]]
            self._log.close()
            atomic_write_text(self.path, b"".join(lines).decode("utf-8"))
            self.entries_written = len(lines)

    def close(self) -> None:
        with self._lock:
            self._log.close()
