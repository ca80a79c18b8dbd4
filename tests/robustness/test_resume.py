"""Chaos tests: anytime subgroup enumeration, checkpoints, and resume.

The ISSUE's acceptance criterion: a killed subgroup enumeration resumed
from its checkpoint produces the identical finding set as an
uninterrupted run.
"""

import json
from pathlib import Path

import pytest

from repro.core.config import ScanConfig
from repro.data import make_intersectional
from repro.exceptions import CheckpointError
from repro.subgroup import search
from repro.subgroup.auditor import audit_subgroups

SCAN = ScanConfig(max_order=2, min_size=10)


class Killed(RuntimeError):
    """Simulates the process being killed mid-scan."""


@pytest.fixture(scope="module")
def data():
    return make_intersectional(n=1500, random_state=3)


@pytest.fixture(scope="module")
def baseline(data):
    """The uninterrupted scan every resumed scan must reproduce."""
    return audit_subgroups(data.labels(), data, scan_config=SCAN)


def finding_keys(findings):
    return [
        (f.subgroup.label(), f.subgroup.size, round(f.gap, 12),
         round(f.p_value, 12), round(f.ci_low, 12), round(f.ci_high, 12))
        for f in findings
    ]


def kill_after(n):
    def hook(evaluated, total):
        if evaluated == n:
            raise Killed(f"killed after {evaluated}/{total}")
    return hook


class TestResumeEquivalence:
    @pytest.mark.parametrize("kill_at,every", [(2, 1), (5, 2), (7, 3)])
    def test_killed_scan_resumes_identically(
        self, data, baseline, tmp_path, kill_at, every
    ):
        ckpt = tmp_path / "scan.ckpt.json"
        with pytest.raises(Killed):
            audit_subgroups(
                data.labels(), data,
                scan_config=SCAN.replace(checkpoint_every=every),
                checkpoint_path=ckpt,
                on_progress=kill_after(kill_at),
            )
        assert ckpt.exists()
        resumed = audit_subgroups(
            data.labels(), data,
            scan_config=SCAN.replace(checkpoint_every=every),
            checkpoint_path=ckpt, resume=True,
        )
        assert finding_keys(resumed) == finding_keys(baseline)

    def test_resume_of_completed_scan_is_identical(
        self, data, baseline, tmp_path
    ):
        ckpt = tmp_path / "scan.ckpt.json"
        audit_subgroups(
            data.labels(), data, scan_config=SCAN,
            checkpoint_path=ckpt,
        )
        resumed = audit_subgroups(
            data.labels(), data, scan_config=SCAN,
            checkpoint_path=ckpt, resume=True,
        )
        assert finding_keys(resumed) == finding_keys(baseline)

    def test_resume_without_checkpoint_starts_fresh(
        self, data, baseline, tmp_path
    ):
        findings = audit_subgroups(
            data.labels(), data, scan_config=SCAN,
            checkpoint_path=tmp_path / "never-written.json", resume=True,
        )
        assert finding_keys(findings) == finding_keys(baseline)

    def test_resume_skips_completed_work(self, data, tmp_path, monkeypatch):
        ckpt = tmp_path / "scan.ckpt.json"
        with pytest.raises(Killed):
            audit_subgroups(
                data.labels(), data,
                scan_config=SCAN.replace(checkpoint_every=1),
                checkpoint_path=ckpt, on_progress=kill_after(6),
            )
        ingested = []
        real_ingest = search._ingest_range

        def counting_ingest(*args, **kwargs):
            ingested.append(args[4:6])
            return real_ingest(*args, **kwargs)

        monkeypatch.setattr(search, "_ingest_range", counting_ingest)
        evaluations = []
        audit_subgroups(
            data.labels(), data,
            scan_config=SCAN.replace(checkpoint_every=1),
            checkpoint_path=ckpt, resume=True,
            on_progress=lambda done, total: evaluations.append(done),
        )
        # the checkpoint already holds every row's counts: the resumed
        # run reads no rows and re-scores the whole lattice from them
        assert ingested == []
        assert evaluations == list(range(1, len(evaluations) + 1))
        audit_subgroups(
            data.labels(), data, scan_config=SCAN,
            checkpoint_path=tmp_path / "fresh.json",
        )
        assert ingested == [(0, data.n_rows)]


class TestCheckpointSafety:
    def test_resume_requires_checkpoint_path(self, data):
        with pytest.raises(CheckpointError, match="checkpoint_path"):
            audit_subgroups(
                data.labels(), data, scan_config=SCAN, resume=True
            )

    def test_corrupt_checkpoint_refused(self, data, tmp_path):
        ckpt = tmp_path / "scan.ckpt.json"
        with pytest.raises(Killed):
            audit_subgroups(
                data.labels(), data,
                scan_config=SCAN.replace(checkpoint_every=1),
                checkpoint_path=ckpt,
                on_progress=kill_after(4),
            )
        text = ckpt.read_text()
        ckpt.write_text(text[: len(text) // 2])  # simulated torn write
        with pytest.raises(CheckpointError, match="byte offset"):
            audit_subgroups(
                data.labels(), data, scan_config=SCAN,
                checkpoint_path=ckpt, resume=True,
            )

    def test_checkpoint_from_different_dataset_refused(self, data, tmp_path):
        ckpt = tmp_path / "scan.ckpt.json"
        audit_subgroups(
            data.labels(), data, scan_config=SCAN,
            checkpoint_path=ckpt,
        )
        other = make_intersectional(n=1500, random_state=99)
        with pytest.raises(CheckpointError, match="different run"):
            audit_subgroups(
                other.labels(), other, scan_config=SCAN,
                checkpoint_path=ckpt, resume=True,
            )

    def test_checkpoint_from_different_parameters_refused(
        self, data, tmp_path
    ):
        ckpt = tmp_path / "scan.ckpt.json"
        audit_subgroups(
            data.labels(), data, scan_config=SCAN,
            checkpoint_path=ckpt,
        )
        with pytest.raises(CheckpointError, match="different run"):
            audit_subgroups(
                data.labels(), data, scan_config=SCAN.replace(max_order=1),
                checkpoint_path=ckpt, resume=True,
            )

    def test_checkpoint_is_valid_json_at_every_interval(
        self, data, tmp_path, monkeypatch
    ):
        ckpt = tmp_path / "scan.ckpt.json"
        seen = []
        real_save = search.save_checkpoint

        def save_and_read(path, payload, fingerprint=""):
            real_save(path, payload, fingerprint=fingerprint)
            seen.append(json.loads(Path(path).read_text())["payload"])

        monkeypatch.setattr(search, "_INGEST_CHUNK_ROWS", 400)
        monkeypatch.setattr(search, "save_checkpoint", save_and_read)
        audit_subgroups(
            data.labels(), data, scan_config=SCAN, checkpoint_path=ckpt,
        )
        # one parseable counts checkpoint per ingest chunk, then the result
        assert [p["rows_done"] for p in seen[:-1]] == [400, 800, 1200, 1500]
        assert seen[-1]["complete"] is True
