"""Shared-memory segment lifecycle: publish/attach/release, no leaks.

The zero-copy parallel scan publishes code arrays into ``/dev/shm`` and
ships only names to workers.  These tests pin the leak contract:
``clear_cache()`` (or garbage collection of the source array) unlinks
every published segment, and a worker dying — cleanly or ``kill -9`` —
never takes a parent-owned segment down with it.
"""

from __future__ import annotations

import gc
import glob
import json
import os
import signal
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.core.config import ScanConfig
from repro.data import make_intersectional
from repro.kernel import clear_cache
from repro.kernel.shm import (
    SEGMENT_PREFIX,
    active_segments,
    attach_array,
    publish,
    release,
    release_all,
)
from repro.subgroup import audit_subgroups

_SHM_GLOB = f"/dev/shm/{SEGMENT_PREFIX}*"


def _shm_files() -> set[str]:
    return set(glob.glob(_SHM_GLOB))


@pytest.fixture(autouse=True)
def leak_guard():
    """Fail any test in this module that leaks a ``/dev/shm`` segment."""
    before = _shm_files()
    yield
    clear_cache()
    leaked = _shm_files() - before
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"


def test_publish_attach_roundtrip_and_release():
    array = np.arange(1024, dtype=np.int64)
    manifest = publish(array)
    assert manifest["kind"] == "shm"
    assert manifest["name"].startswith(SEGMENT_PREFIX)
    assert manifest["name"] in active_segments()
    assert os.path.exists(f"/dev/shm/{manifest['name']}")

    view, segment = attach_array(manifest)
    try:
        np.testing.assert_array_equal(view, array)
        assert not view.flags.writeable
    finally:
        del view
        segment.close()

    assert release(array)
    assert manifest["name"] not in active_segments()
    assert not os.path.exists(f"/dev/shm/{manifest['name']}")
    assert not release(array)  # second release is a no-op


def test_publish_is_cached_by_array_identity():
    array = np.arange(64, dtype=np.int64)
    first = publish(array)
    second = publish(array)
    assert second["name"] == first["name"]
    # A distinct array with equal contents gets its own segment.
    twin = array.copy()
    other = publish(twin)
    assert other["name"] != first["name"]
    assert len(active_segments()) == 2
    release_all()
    assert active_segments() == []


def test_garbage_collected_array_evicts_its_segment():
    array = np.arange(256, dtype=np.int64)
    name = publish(array)["name"]
    assert os.path.exists(f"/dev/shm/{name}")
    del array
    gc.collect()
    assert name not in active_segments()
    assert not os.path.exists(f"/dev/shm/{name}")


def test_clear_cache_unlinks_published_segments():
    arrays = [np.arange(16, dtype=np.int64) + i for i in range(3)]
    names = [publish(a)["name"] for a in arrays]
    assert len(set(names)) == 3
    clear_cache()
    assert active_segments() == []
    for name in names:
        assert not os.path.exists(f"/dev/shm/{name}")


_ATTACH_SCRIPT = textwrap.dedent(
    """
    import json, os, signal, sys
    import numpy as np
    from repro.kernel.shm import attach_array

    manifest = json.loads(sys.argv[1])
    view, segment = attach_array(manifest)
    assert int(view.sum()) == int(sys.argv[2])
    del view
    if sys.argv[3] == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    segment.close()
    """
)


@pytest.mark.parametrize("exit_mode", ["clean", "kill"])
def test_worker_exit_leaves_parent_segment_intact(exit_mode):
    """A borrowing process exiting — even ``kill -9`` — must not unlink."""
    array = np.arange(4096, dtype=np.int64)
    manifest = publish(array)

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ["src", env.get("PYTHONPATH", "")] if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _ATTACH_SCRIPT,
         json.dumps(manifest), str(int(array.sum())), exit_mode],
        env=env, cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
        capture_output=True, text=True, timeout=60,
    )
    if exit_mode == "clean":
        assert proc.returncode == 0, proc.stderr
    else:
        assert proc.returncode == -signal.SIGKILL

    # Parent still owns the segment; the data is untouched.
    assert manifest["name"] in active_segments()
    view, segment = attach_array(manifest)
    try:
        np.testing.assert_array_equal(view, array)
    finally:
        del view
        segment.close()
    release_all()


def test_parallel_scan_then_clear_cache_leaves_no_segments():
    data = make_intersectional(n=3000, random_state=11)
    predictions = data.labels()
    audit_subgroups(
        predictions, data,
        scan_config=ScanConfig(max_order=2, min_size=5, jobs=2),
    )
    assert active_segments() != []  # the scan published code arrays
    clear_cache()
    assert active_segments() == []
    assert not {f for f in _shm_files()}
