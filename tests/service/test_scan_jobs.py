"""Service integration for ScanConfig scan jobs, incl. kill -9 recovery.

Covers the PR 9 service surface: inline ``scan_config`` params (and the
top-level HTTP sugar), cache-key separation from legacy jobs, durable
ScanState journaling for incremental jobs, and the chaos path — a
killed incremental scan recovers from its checkpoint and later rescans
a grown dataset from the delta.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import AuditConfig, ScanConfig
from repro.data import Column, Schema, TabularDataset, make_intersectional
from repro.data.io import save_dataset
from repro.data.ooc import pack_dataset
from repro.exceptions import ValidationError
from repro.observability.metrics import MetricsRegistry
from repro.service import JobEngine, serve

_SRC = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture
def intersectional_csv(tmp_path):
    path = tmp_path / "intersectional.csv"
    save_dataset(make_intersectional(1200, random_state=7), path)
    return str(path)


class TestScanJobSubmission:
    def test_inline_scan_config_runs_best_first(
        self, make_engine, intersectional_csv
    ):
        engine = make_engine()
        job = engine.submit(
            "subgroups",
            {"data": intersectional_csv,
             "scan_config": {"strategy": "best_first"}},
        )
        record = engine.wait(job.job_id, timeout=120)
        assert record.status == "succeeded"
        payload = engine.result(record)
        assert payload["strategy"] == "best_first"
        assert payload["scan"]["pruned"] > 0
        assert payload["n_significant"] == len(
            [f for f in payload["findings"] if f["significant"]]
        )

    def test_scan_config_changes_cache_key(
        self, make_engine, intersectional_csv
    ):
        engine = make_engine()
        legacy = engine.submit("subgroups", {"data": intersectional_csv})
        scan = engine.submit(
            "subgroups",
            {"data": intersectional_csv,
             "scan_config": {"strategy": "best_first"}},
        )
        assert engine._job_key(legacy) != engine._job_key(scan)
        engine.wait(legacy.job_id, timeout=120)
        engine.wait(scan.job_id, timeout=120)
        # legacy payloads are byte-stable: no scan-era keys appear
        assert "strategy" not in engine.result(legacy)

    def test_flagged_set_matches_legacy_job(
        self, make_engine, intersectional_csv
    ):
        engine = make_engine()
        legacy = engine.wait(
            engine.submit("subgroups", {"data": intersectional_csv}).job_id,
            timeout=120,
        )
        scan = engine.wait(
            engine.submit(
                "subgroups",
                {"data": intersectional_csv,
                 "scan_config": {"strategy": "best_first"}},
            ).job_id,
            timeout=120,
        )

        def flagged(record):
            return sorted(
                (str(f["conditions"]), f["adjusted_p_value"])
                for f in engine.result(record)["findings"]
                if f["significant"]
            )

        assert flagged(legacy) == flagged(scan)

    def test_audit_config_scan_drives_strategy(
        self, make_engine, intersectional_csv
    ):
        engine = make_engine()
        job = engine.submit(
            "subgroups",
            {"data": intersectional_csv},
            config=AuditConfig(scan=ScanConfig(strategy="best_first")),
        )
        record = engine.wait(job.job_id, timeout=120)
        assert engine.result(record)["strategy"] == "best_first"

    def test_invalid_scan_config_rejected_at_submit(
        self, make_engine, intersectional_csv
    ):
        engine = make_engine()
        with pytest.raises(ValidationError, match="scan_config"):
            engine.submit(
                "subgroups",
                {"data": intersectional_csv,
                 "scan_config": {"strategy": "bogus"}},
            )
        with pytest.raises(ValidationError, match="scan_config"):
            engine.submit(
                "subgroups",
                {"data": intersectional_csv,
                 "scan_config": {"checkpoint_every": 0}},
            )

    def test_unsafe_state_name_rejected(
        self, make_engine, intersectional_csv
    ):
        engine = make_engine()
        for name in ("../escape", "a/b", ".hidden", ""):
            with pytest.raises(ValidationError, match="state"):
                engine.submit(
                    "subgroups",
                    {"data": intersectional_csv,
                     "scan_config": {"strategy": "incremental"},
                     "state": name},
                )

    def test_incremental_job_journals_state_and_keeps_it(
        self, make_engine, intersectional_csv
    ):
        engine = make_engine()
        job = engine.submit(
            "subgroups",
            {"data": intersectional_csv,
             "scan_config": {"strategy": "incremental"},
             "state": "grower"},
        )
        record = engine.wait(job.job_id, timeout=120)
        assert record.status == "succeeded"
        state_path = Path(engine.result(record)["state_path"])
        assert state_path.name == "grower.scanstate.json"
        # the durable state survives the post-success checkpoint cleanup
        assert state_path.exists()
        assert not (
            engine.checkpoint_dir / f"{job.job_id}.scan.json"
        ).exists()
        events = [
            event for event in engine.journal.replay()
            if event.get("event") == "scan_state"
        ]
        assert events and events[0]["path"] == str(state_path)
        assert events[0]["job_id"] == job.job_id


class TestScanJobsHTTP:
    @pytest.fixture
    def server(self, make_engine):
        httpd = serve(make_engine())
        yield httpd
        httpd.shutdown()

    def _post(self, httpd, body, expect=201):
        request = urllib.request.Request(
            f"http://127.0.0.1:{httpd.port}/jobs",
            data=json.dumps(body).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request) as response:
                assert response.status == expect
                return json.loads(response.read())
        except urllib.error.HTTPError as error:
            assert error.code == expect, error.read()
            return json.loads(error.read())

    def test_top_level_scan_config_accepted(
        self, server, intersectional_csv
    ):
        ref = self._post(server, {
            "kind": "subgroups",
            "params": {"data": intersectional_csv},
            "scan_config": {"strategy": "best_first"},
        })
        record = server.engine.wait(ref["job_id"], timeout=120)
        assert record.status == "succeeded"
        assert server.engine.result(record)["strategy"] == "best_first"

    def test_bad_scan_config_is_a_400(self, server, intersectional_csv):
        self._post(server, {
            "kind": "subgroups",
            "params": {"data": intersectional_csv},
            "scan_config": {"strategy": "bogus"},
        }, expect=400)
        self._post(server, {
            "kind": "subgroups",
            "params": {"data": intersectional_csv},
            "scan_config": ["not", "an", "object"],
        }, expect=400)


#: the planted order-2 subgroup of :func:`_planted_lattice`
_PLANTED = (("g0", "c0"), ("g1", "c1"))


def _planted_lattice(n_rows=5000, seed=0):
    """Five 7-category protected attributes with one planted order-2 gap:
    rows inside ``_PLANTED`` are labelled positive far more often."""
    rng = np.random.default_rng(seed)
    cats = tuple(f"c{i}" for i in range(7))
    columns, data = [], {}
    for i in range(5):
        name = f"g{i}"
        columns.append(
            Column(name, kind="categorical", role="protected", categories=cats)
        )
        data[name] = rng.choice(np.array(cats), size=n_rows)
    columns.append(Column("y", kind="binary", role="label"))
    (a, va), (b, vb) = _PLANTED
    rate = 0.5 + 0.3 * ((data[a] == va) & (data[b] == vb))
    data["y"] = (rng.random(n_rows) < rate).astype(np.int64)
    return TabularDataset(Schema(tuple(columns)), data)


class TestLatticeStrategiesAgree:
    """The default-path and best-first scans of one packed lattice return
    the result fields clients read, agree on every flagged subgroup and
    its adjusted p-value, and flag the planted subgroup."""

    def test_default_and_best_first_jobs_agree(self, make_engine, tmp_path):
        path = str(pack_dataset(_planted_lattice(), tmp_path / "lat.packed"))
        engine = make_engine()
        jobs = {
            "default": engine.submit(
                "subgroups", {"data": path},
                config={"max_order": 3, "min_size": 20},
            ),
            "best_first": engine.submit("subgroups", {
                "data": path,
                "scan_config": {
                    "strategy": "best_first", "max_order": 3, "min_size": 20,
                },
            }),
        }
        flagged = {}
        for name, job in jobs.items():
            record = engine.wait(job.job_id, timeout=120)
            assert record.status == "succeeded", record.error
            raw = json.loads(engine.store.get_bytes(record.result_key))
            assert raw["findings"]
            for finding in raw["findings"]:
                assert {"conditions", "adjusted_p_value", "significant"} \
                    <= set(finding)
            flagged[name] = sorted(
                (json.dumps(f["conditions"]), f["adjusted_p_value"])
                for f in raw["findings"] if f["significant"]
            )
            if name == "best_first":
                assert 0 < raw["scan"]["evaluated"] <= raw["scan"]["total"]
        assert flagged["default"] == flagged["best_first"]
        planted = json.dumps([list(pair) for pair in _PLANTED])
        assert planted in {conditions for conditions, _p in flagged["default"]}


def _wide_pair(prefix_path, full_path, n_prefix=60000, n_full=80000, seed=0):
    """One draw, two files: ``prefix`` is the first rows of ``full``."""
    rng = np.random.default_rng(seed)
    cats = tuple("abcde")
    columns = [Column("score", kind="numeric")]
    data = {"score": rng.normal(size=n_full)}
    for name in ("g1", "g2", "g3", "g4"):
        columns.append(
            Column(name, kind="categorical", role="protected",
                   categories=cats)
        )
        data[name] = rng.choice(cats, size=n_full)
    columns.append(Column("y", kind="binary", role="label"))
    data["y"] = (
        rng.random(n_full) < 0.4 + 0.2 * (data["g1"] == "a")
    ).astype(int)
    full = TabularDataset(Schema(tuple(columns)), data)
    save_dataset(full.take(np.arange(n_prefix)), prefix_path)
    save_dataset(full, full_path)


_SCAN_CONFIG = {
    "strategy": "incremental",
    "max_order": 3,
    "min_size": 25,
    "checkpoint_every": 8,
    # threshold >= 1 keeps every cell scored, so the kill window is as
    # wide as the legacy chaos test's exhaustive scan
    "bound_slack": 1.0,
}

_DRIVER = textwrap.dedent("""
    import json, sys, time
    from repro.service import JobEngine

    root, data = sys.argv[1], sys.argv[2]
    engine = JobEngine(root, workers=1)
    job = engine.submit(
        "subgroups",
        {"data": data, "state": "grower",
         "scan_config": %s},
    )
    print(json.dumps({"job_id": job.job_id}), flush=True)
    time.sleep(300)  # killed long before this returns
""") % json.dumps(_SCAN_CONFIG)


@pytest.mark.slow
class TestIncrementalKillNine:
    def test_killed_incremental_job_recovers_then_rescans_delta(
        self, tmp_path
    ):
        prefix = tmp_path / "prefix.csv"
        full = tmp_path / "full.csv"
        _wide_pair(prefix, full)
        root = tmp_path / "victim"
        driver = tmp_path / "driver.py"
        driver.write_text(_DRIVER)
        env = dict(os.environ, PYTHONPATH=_SRC)
        proc = subprocess.Popen(
            [sys.executable, str(driver), str(root), str(prefix)],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        try:
            job_id = json.loads(proc.stdout.readline())["job_id"]
            checkpoint = root / "checkpoints" / f"{job_id}.scan.json"
            deadline = time.monotonic() + 60
            while not checkpoint.exists():
                assert proc.poll() is None, "driver died before checkpointing"
                assert time.monotonic() < deadline, "scan never checkpointed"
                time.sleep(0.01)
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait()
        assert checkpoint.exists()

        # the journal recorded where the durable scan state will live,
        # before the kill
        engine = JobEngine(root, workers=1, metrics=MetricsRegistry())
        state_events = [
            event for event in engine.journal.replay()
            if event.get("event") == "scan_state"
        ]
        assert state_events
        state_path = Path(state_events[0]["path"])

        # recovery: the requeued job resumes from the checkpoint and
        # finishes the incremental scan, leaving the state behind
        record = engine.wait(job_id, timeout=300)
        assert record.status == "succeeded"
        assert record.recovered
        assert state_path.exists()
        first = engine.result(record)
        assert first["strategy"] == "incremental"
        assert first["scan"]["rescored"] == 0

        # the grown dataset re-scores from the delta through the same
        # named state...
        grown = engine.wait(
            engine.submit(
                "subgroups",
                {"data": str(full), "state": "grower",
                 "scan_config": dict(_SCAN_CONFIG)},
            ).job_id,
            timeout=300,
        )
        assert grown.status == "succeeded"
        delta = engine.result(grown)
        assert delta["scan"]["rescored"] > 0

        # ...and lands on exactly the findings of a from-scratch scan
        scratch = engine.wait(
            engine.submit(
                "subgroups",
                {"data": str(full), "state": "scratch",
                 "scan_config": dict(_SCAN_CONFIG)},
            ).job_id,
            timeout=300,
        )
        assert engine.result(scratch)["findings"] == delta["findings"]
        engine.shutdown()
