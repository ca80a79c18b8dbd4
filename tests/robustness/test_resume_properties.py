"""Kill-at-every-save resume, as properties over generated scans.

Every subgroup scan — ``audit_subgroups`` and ``scan_subgroups`` under
each strategy — must resume a killed run to exactly what an
uninterrupted run produces: the same findings, the same flagged set,
and byte-identical final checkpoint files — whether the kill landed
after the first save, the last, or any in between, and whether the
killed and the resuming run were serial or ``jobs=2``.  A damaged
checkpoint, or one in a retired layout, must fail closed with a
:class:`~repro.exceptions.CheckpointError`, never a raw
``KeyError``/``JSONDecodeError``/``IndexError``.
"""

from __future__ import annotations

import json
import tempfile
from concurrent.futures import Future
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ScanConfig
from repro.data import Column, Schema, TabularDataset
from repro.exceptions import CheckpointError
from repro.robustness import checkpoint as checkpoint_module
from repro.streaming.accumulator import AuditAccumulator
from repro.subgroup import (
    adjust_for_multiple_testing,
    audit_subgroups,
    scan_subgroups,
)
from repro.subgroup import search as search_module


class Killed(RuntimeError):
    """Simulates the process dying right after a checkpoint save."""


class _InlineExecutor:
    """A deterministic in-process 'pool' for the ``jobs=2`` code paths."""

    def __init__(self, jobs=None):
        pass

    def submit(self, fn, *args, **kwargs) -> Future:
        future: Future = Future()
        future.set_result(fn(*args, **kwargs))
        return future

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def _lattice_dataset(seed: int, n: int = 900) -> TabularDataset:
    """Three 3-category protected attributes: 36 subgroups at order 2."""
    rng = np.random.default_rng(seed)
    cats = ("a", "b", "c")
    columns, data = [], {}
    for i in range(3):
        name = f"g{i}"
        columns.append(
            Column(name, kind="categorical", role="protected", categories=cats)
        )
        data[name] = rng.choice(cats, size=n)
    columns.append(Column("y", kind="binary", role="label"))
    rate = 0.4 + 0.3 * ((data["g0"] == "a") & (data["g1"] == "b"))
    data["y"] = (rng.random(n) < rate).astype(int)
    return TabularDataset(Schema(tuple(columns)), data)


DATASETS = {seed: _lattice_dataset(seed) for seed in (0, 1, 2)}


def _keys(findings):
    return [
        (f.subgroup.label(), f.subgroup.size, f.rate, f.complement_rate,
         f.gap, f.ci_low, f.ci_high, f.p_value, f.adjusted_p_value)
        for f in findings
    ]


def _flagged(findings):
    return sorted(f.subgroup.label() for f in findings if f.significant())


@contextmanager
def _kill_after(owner, name: str, k: int | None):
    """Let the ``k``-th call of ``owner.name`` finish, then raise Killed;
    count calls only when ``k`` is None.  Yields the call counter."""
    original = getattr(owner, name)
    calls = [0]

    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        calls[0] += 1
        if calls[0] == k:
            raise Killed(f"killed after save {k}")
        return result

    with mock.patch.object(owner, name, wrapper):
        yield calls


# ---------------------------------------------------------------------------
# audit_subgroups: the exhaustive scan through its keyword front
# ---------------------------------------------------------------------------


def _audit(dataset, path, every, jobs, *, resume=False):
    return audit_subgroups(
        dataset.labels(), dataset,
        scan_config=ScanConfig(
            max_order=2, min_size=10, checkpoint_every=every, jobs=jobs
        ),
        checkpoint_path=str(path),
        resume=resume,
        executor_factory=_InlineExecutor if jobs > 1 else None,
    )


class TestExhaustiveResume:
    @given(
        seed=st.sampled_from(sorted(DATASETS)),
        every=st.integers(1, 6),
        chunk_rows=st.integers(100, 500),
        jobs_killed=st.sampled_from([1, 2]),
        jobs_resumed=st.sampled_from([1, 2]),
    )
    @settings(max_examples=8, deadline=None)
    def test_kill_after_every_save_resumes_byte_identically(
        self, seed, every, chunk_rows, jobs_killed, jobs_resumed
    ):
        dataset = DATASETS[seed]
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
            search_module, "_INGEST_CHUNK_ROWS", chunk_rows
        ):
            tmp = Path(tmp)
            full_path = tmp / "full.json"
            with _kill_after(search_module, "save_checkpoint", None) as saves:
                full = _audit(dataset, full_path, every, jobs_killed)
            expected = full_path.read_bytes()
            assert saves[0] >= 2  # at least one ingest save and the result
            for k in range(1, saves[0] + 1):
                path = tmp / f"killed-{k}.json"
                with _kill_after(search_module, "save_checkpoint", k):
                    with pytest.raises(Killed):
                        _audit(dataset, path, every, jobs_killed)
                resumed = _audit(
                    dataset, path, every, jobs_resumed, resume=True
                )
                assert _keys(resumed) == _keys(full)
                assert _flagged(
                    adjust_for_multiple_testing(resumed)
                ) == _flagged(adjust_for_multiple_testing(full))
                assert path.read_bytes() == expected


def _killed_checkpoint(tmp: Path, dataset, k: int) -> Path:
    path = tmp / "scan.json"
    with mock.patch.object(search_module, "_INGEST_CHUNK_ROWS", 100):
        with _kill_after(search_module, "save_checkpoint", k):
            with pytest.raises(Killed):
                _audit(dataset, path, 2, 1)
    return path


def _resume_outcome(dataset, path):
    """Resume, returning the findings or the CheckpointError raised."""
    try:
        return _audit(dataset, path, 2, 1, resume=True)
    except CheckpointError as exc:
        return exc


class TestFindingsLogCorruption:
    """Damaged checkpoints, and the layouts that kept findings in the
    checkpoint or a ``.findings`` log beside it, fail closed."""

    @given(
        k=st.integers(1, 10),
        blob=st.binary(max_size=300),
        cut=st.floats(0.0, 1.0, exclude_max=True),
        truncate=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_damaged_envelope_fails_closed(self, k, blob, cut, truncate):
        dataset = DATASETS[0]
        with tempfile.TemporaryDirectory() as tmp:
            path = _killed_checkpoint(Path(tmp), dataset, k)
            if truncate:
                text = path.read_bytes()
                path.write_bytes(text[: int(len(text) * cut)])
            else:
                path.write_bytes(blob)
            assert isinstance(_resume_outcome(dataset, path), CheckpointError)

    @staticmethod
    def _retired(path: Path, payload: dict) -> None:
        """Rewrite ``path`` with ``payload`` under its own fingerprint, so
        only the layout can refuse it."""
        fingerprint = json.loads(path.read_text())["fingerprint"]
        checkpoint_module.save_checkpoint(path, payload, fingerprint)

    def test_inline_findings_layout_refused(self, tmp_path):
        # the first layout: every finding inline in the envelope
        path = _killed_checkpoint(tmp_path, DATASETS[0], 3)
        full = _audit(DATASETS[0], tmp_path / "full.json", 2, 1)
        self._retired(path, {
            "next_index": 4,
            "total": 36,
            "complete": False,
            "findings": [
                {"conditions": [list(c) for c in f.subgroup.conditions],
                 "p_value": f.p_value}
                for f in full[:4]
            ],
        })
        with pytest.raises(CheckpointError, match="wrong layout"):
            _audit(DATASETS[0], path, 2, 1, resume=True)

    def test_findings_log_layout_refused(self, tmp_path):
        # the second layout: a small envelope naming a .findings log
        path = _killed_checkpoint(tmp_path, DATASETS[0], 3)
        log = Path(f"{path}.findings")
        log.write_bytes(b'{"p_value": 0.5}\n')
        for next_index, complete in ((4, False), (36, True)):
            self._retired(path, {
                "next_index": next_index,
                "total": 36,
                "complete": complete,
                "log_records": 1,
                "log_sha256": "0" * 64,
            })
            with pytest.raises(CheckpointError, match="wrong layout"):
                _audit(DATASETS[0], path, 2, 1, resume=True)
        # a fresh run is not confused by the leftover log
        assert _keys(_audit(DATASETS[0], path, 2, 1)) == _keys(
            _audit(DATASETS[0], tmp_path / "fresh.json", 2, 1)
        )


# ---------------------------------------------------------------------------
# pruned scanner: ingest checkpoints + the canonical completed payload
# ---------------------------------------------------------------------------


def _scan(dataset, path, strategy, jobs, *, resume=False):
    return scan_subgroups(
        dataset.labels(), dataset,
        config=ScanConfig(
            strategy=strategy, max_order=2, min_size=10,
            checkpoint_every=3, jobs=jobs,
        ),
        checkpoint_path=str(path),
        resume=resume,
        executor_factory=_InlineExecutor if jobs > 1 else None,
    )


class TestScanSubgroupsResume:
    @given(
        seed=st.sampled_from(sorted(DATASETS)),
        strategy=st.sampled_from(["best_first", "exhaustive"]),
        chunk_rows=st.integers(100, 500),
        jobs_killed=st.sampled_from([1, 2]),
        jobs_resumed=st.sampled_from([1, 2]),
    )
    @settings(max_examples=12, deadline=None)
    def test_kill_after_every_save_resumes_byte_identically(
        self, seed, strategy, chunk_rows, jobs_killed, jobs_resumed
    ):
        dataset = DATASETS[seed]
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
            search_module, "_INGEST_CHUNK_ROWS", chunk_rows
        ):
            tmp = Path(tmp)
            with _kill_after(search_module, "save_checkpoint", None) as saves:
                full = _scan(dataset, tmp / "full.json", strategy, jobs_killed)
            expected = (tmp / "full.json").read_bytes()
            for k in range(1, saves[0] + 1):
                path = tmp / f"killed-{k}.json"
                with _kill_after(search_module, "save_checkpoint", k):
                    with pytest.raises(Killed):
                        _scan(dataset, path, strategy, jobs_killed)
                resumed = _scan(
                    dataset, path, strategy, jobs_resumed, resume=True
                )
                assert _keys(resumed.findings) == _keys(full.findings)
                assert _keys(resumed.flagged) == _keys(full.flagged)
                assert path.read_bytes() == expected


# ---------------------------------------------------------------------------
# checkpoint cost stays linear in progress
# ---------------------------------------------------------------------------


class TestCheckpointCost:
    def test_exhaustive_saves_do_not_scale_with_scoring_batches(
        self, tmp_path
    ):
        # checkpoints follow ingest chunks: one counts save per chunk and
        # one result save, however small the scoring batch
        written = {}
        for every in (1, 64):
            saves = []
            atomic = checkpoint_module.atomic_write_text

            def count_envelope(path, text, saves=saves, atomic=atomic):
                saves.append(len(text.encode()))
                return atomic(path, text)

            with mock.patch.object(
                checkpoint_module, "atomic_write_text", count_envelope
            ), mock.patch.object(search_module, "_INGEST_CHUNK_ROWS", 300):
                findings = _audit(
                    DATASETS[0], tmp_path / f"scan-{every}.json", every, 1
                )
            assert len(findings) > 20
            written[every] = saves
        assert len(written[1]) == 900 // 300 + 1
        assert written[1] == written[64]

    def test_best_first_serialises_the_accumulator_once(self, tmp_path):
        calls = []
        to_dict = AuditAccumulator.to_dict

        def counting(self):
            calls.append(1)
            return to_dict(self)

        with mock.patch.object(AuditAccumulator, "to_dict", counting):
            result = _scan(
                DATASETS[0], tmp_path / "scan.json", "best_first", 1
            )
        assert result.evaluated > 3  # several scoring intervals ran
        assert len(calls) == 1
