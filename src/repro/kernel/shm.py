"""Shared-memory publication of kernel arrays for zero-copy workers.

A parallel subgroup scan (``scan_subgroups`` with ``jobs=N``) counts
rows in its pool workers, which means they need the code arrays and the
prediction vector.  Those must not cross the pickle boundary (an N-row
array per chunk per worker is exactly the copy storm this layer exists
to avoid), so the parent *publishes* each array once into a POSIX
shared-memory segment and ships only a tiny manifest (``{"kind":
"shm", "name": ..., "dtype": ..., "shape": ...}``); workers attach by
name and read the same pages.

Lifecycle rules (the no-``/dev/shm``-leak contract):

* publications are cached by array identity — one segment per array,
  however many scans reuse it — and evicted (segment unlinked) when the
  source array is garbage-collected;
* :func:`release_all` unlinks everything; it runs from
  :func:`repro.kernel.clear_cache` and at interpreter exit;
* attachers call :func:`attach`, which keeps the attach *out of* the
  attaching process's ``resource_tracker``.  Otherwise a pool worker
  exiting (normally or not) could let a tracker unlink the parent-owned
  segment out from under every other worker — the classic CPython
  < 3.13 shared-memory footgun.  A worker killed ``-9`` simply drops
  its mapping; the parent still owns, and eventually unlinks, the
  segment.
"""

from __future__ import annotations

import atexit
import threading
import uuid
import weakref
from multiprocessing import resource_tracker, shared_memory

import numpy as np

__all__ = [
    "publish",
    "attach",
    "attach_array",
    "release",
    "release_all",
    "active_segments",
]

#: every segment this library creates carries this name prefix, so leak
#: checks (tests/perf) can enumerate ``/dev/shm`` unambiguously.
SEGMENT_PREFIX = "repro_shm_"

_lock = threading.Lock()
#: id(array) -> (weakref-to-array, SharedMemory, manifest)
_published: dict[int, tuple] = {}


def _unlink_quietly(segment: shared_memory.SharedMemory) -> None:
    try:
        segment.close()
    except OSError:  # pragma: no cover — buffer already released
        pass
    try:
        segment.unlink()
    except (FileNotFoundError, OSError):  # pragma: no cover
        pass


def publish(array: np.ndarray) -> dict:
    """Copy ``array`` into a shared-memory segment once; return its manifest.

    Idempotent per array object: repeat calls for the same (alive) array
    return the existing manifest without touching the segment.  The
    manifest is plain JSON-able data — safe to pickle to workers.
    """
    arr = np.ascontiguousarray(array)
    key = id(array)
    with _lock:
        entry = _published.get(key)
        if entry is not None:
            ref, _segment, manifest = entry
            if ref() is array:
                return manifest
            # recycled id; the evict callback is about to drop it anyway
            _published.pop(key, None)

    segment = shared_memory.SharedMemory(
        create=True,
        size=max(1, arr.nbytes),
        name=f"{SEGMENT_PREFIX}{uuid.uuid4().hex[:16]}",
    )
    view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=segment.buf)
    view[...] = arr
    manifest = {
        "kind": "shm",
        "name": segment.name,
        "dtype": np.lib.format.dtype_to_descr(arr.dtype),
        "shape": list(arr.shape),
    }

    def _evict(_ref, key=key):
        with _lock:
            entry = _published.pop(key, None)
        if entry is not None:
            _unlink_quietly(entry[1])

    try:
        ref = weakref.ref(array, _evict)
    except TypeError:
        # unweakrefable input: keep the segment until release_all()
        ref = lambda: array  # noqa: E731 — constant closure stands in
    with _lock:
        _published[key] = (ref, segment, manifest)
    return manifest


def attach(name: str) -> shared_memory.SharedMemory:
    """Attach to a published segment by name (worker side).

    The attach is *not* registered with the ``resource_tracker``:
    attachers borrow the segment, they do not own it, and their exit —
    normal or abnormal — must never unlink it.  (Registering and then
    unregistering would race a fork-shared tracker: a worker's
    unregister removes the parent's registration, and the parent's
    eventual ``unlink`` then KeyErrors inside the tracker process.
    CPython grew ``track=False`` for exactly this in 3.13; this is the
    portable equivalent.)
    """
    with _lock:
        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            segment = shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original
    return segment


def attach_array(manifest: dict) -> tuple[np.ndarray, shared_memory.SharedMemory]:
    """Attach a manifest and view it as a read-only ndarray.

    Returns ``(array, segment)``; the caller must keep ``segment`` alive
    as long as the array is in use, and ``segment.close()`` when done.
    """
    segment = attach(manifest["name"])
    array = np.ndarray(
        tuple(manifest["shape"]),
        dtype=np.dtype(manifest["dtype"]),
        buffer=segment.buf,
    )
    array.setflags(write=False)
    return array, segment


def release(array: np.ndarray) -> bool:
    """Unlink the segment published for ``array``; True if one existed."""
    with _lock:
        entry = _published.pop(id(array), None)
    if entry is None:
        return False
    _unlink_quietly(entry[1])
    return True


def release_all() -> None:
    """Unlink every published segment (``clear_cache`` / atexit hook)."""
    with _lock:
        entries = list(_published.values())
        _published.clear()
    for _ref, segment, _manifest in entries:
        _unlink_quietly(segment)


def active_segments() -> list[str]:
    """Names of currently published segments (leak-check helper)."""
    with _lock:
        return sorted(entry[2]["name"] for entry in _published.values())


atexit.register(release_all)
