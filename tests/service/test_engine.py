"""Job-engine behaviour: execution, caching, admission, drain, recovery."""

from __future__ import annotations

import time

import pytest

from repro import AuditConfig, audit, make_hiring
from repro.core.serialize import report_to_dict
from repro.exceptions import (
    AdmissionError,
    CheckpointError,
    EngineClosedError,
    ValidationError,
)
from repro.service import JobEngine, JobJournal, JobRecord, file_fingerprint


def _wait_status(engine, job_id, status, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if engine.get(job_id).status == status:
            return
        time.sleep(0.01)
    raise AssertionError(
        f"job {job_id} never reached {status!r}; "
        f"stuck at {engine.get(job_id).status!r}"
    )


class TestExecution:
    def test_inline_audit_matches_direct_audit(self, make_engine):
        engine = make_engine()
        dataset = make_hiring(300, random_state=3)
        job = engine.wait(engine.submit("audit", dataset=dataset).job_id)
        assert job.status == "succeeded"
        direct = report_to_dict(audit(dataset))
        stored = engine.result(job)["report"]
        assert stored["findings"] == direct["findings"]
        assert stored["counts"] == direct["counts"]

    def test_path_audit_job(self, make_engine, hiring_csv):
        engine = make_engine()
        job = engine.wait(engine.submit("audit", {"data": hiring_csv}).job_id)
        assert job.status == "succeeded"
        assert job.resumable
        assert engine.result(job)["kind"] == "audit"

    def test_chunked_submission_shares_cache_with_in_memory(
        self, make_engine, hiring_csv
    ):
        # chunk_size shapes execution, not the result, so it is not part
        # of the content address: the streamed resubmission is a hit.
        engine = make_engine()
        plain = engine.wait(engine.submit("audit", {"data": hiring_csv}).job_id)
        chunked = engine.submit(
            "audit", {"data": hiring_csv, "chunk_size": 64}
        )
        assert chunked.cache_hit
        assert chunked.result_key == plain.result_key

    def test_subgroups_job(self, make_engine, hiring_csv):
        engine = make_engine()
        job = engine.wait(
            engine.submit(
                "subgroups", {"data": hiring_csv},
                config=AuditConfig(max_order=2, min_size=10),
            ).job_id,
            timeout=60,
        )
        assert job.status == "succeeded"
        result = engine.result(job)
        assert result["n_subgroups"] == len(result["findings"]) > 0
        assert all("adjusted_p_value" in f for f in result["findings"])

    def test_succeeded_subgroups_job_leaves_no_checkpoint_files(
        self, make_engine, hiring_csv
    ):
        # the exhaustive scan checkpoints into an envelope plus a
        # findings log; success must delete both
        engine = make_engine()
        job = engine.wait(
            engine.submit(
                "subgroups", {"data": hiring_csv, "checkpoint_every": 1},
                config=AuditConfig(max_order=2, min_size=10),
            ).job_id,
            timeout=60,
        )
        assert job.status == "succeeded"
        assert list(engine.checkpoint_dir.glob(f"{job.job_id}*")) == []

    def test_workflow_job(self, make_engine, hiring_csv):
        engine = make_engine()
        job = engine.wait(
            engine.submit(
                "workflow",
                {"data": hiring_csv, "profile": {"name": "tenant A"}},
            ).job_id,
            timeout=60,
        )
        assert job.status == "succeeded"
        assert engine.result(job)["verdict"] in ("pass", "fail", "inconclusive")

    def test_unknown_kind_rejected(self, make_engine):
        with pytest.raises(ValidationError, match="kind"):
            make_engine().submit("nonsense", {"data": "x.csv"})

    def test_pathless_submission_rejected(self, make_engine):
        with pytest.raises(ValidationError, match="data"):
            make_engine().submit("audit", {})


class TestResultCache:
    def test_resubmission_hits_without_recompute(self, make_engine, hiring_csv):
        engine = make_engine()
        first = engine.wait(engine.submit("audit", {"data": hiring_csv}).job_id)
        second = engine.submit("audit", {"data": hiring_csv})
        assert second.cache_hit and second.status == "succeeded"
        assert second.result_key == first.result_key
        # byte-identical report, and no second execution happened
        assert engine.store.get_bytes(first.result_key) == (
            engine.store.get_bytes(second.result_key)
        )
        assert engine.metrics.counter("service.jobs_submitted").value == 1
        assert engine.metrics.counter("service.cache_hits").value == 1

    def test_config_change_misses(self, make_engine, hiring_csv):
        engine = make_engine()
        a = engine.wait(engine.submit("audit", {"data": hiring_csv}).job_id)
        b = engine.submit(
            "audit", {"data": hiring_csv}, config=AuditConfig(tolerance=0.2)
        )
        assert not b.cache_hit

    def test_data_change_misses(self, make_engine, tmp_path, hiring_csv):
        engine = make_engine()
        engine.wait(engine.submit("audit", {"data": hiring_csv}).job_id)
        with open(hiring_csv, "a") as handle:
            handle.write("")  # touch without change: still a hit
        assert engine.submit("audit", {"data": hiring_csv}).cache_hit
        from repro.data.io import load_dataset, save_dataset

        save_dataset(make_hiring(301, random_state=8), hiring_csv)
        assert not engine.submit("audit", {"data": hiring_csv}).cache_hit

    def test_different_inline_predictions_miss(self, make_engine):
        # regression: the prediction array is part of the content
        # address — the same (dataset, config) audited against other
        # predictions is a different audit, never a cache hit
        import numpy as np

        engine = make_engine()
        dataset = make_hiring(200, random_state=5)
        ones = np.ones(dataset.n_rows, dtype=int)
        zeros = np.zeros(dataset.n_rows, dtype=int)
        first = engine.wait(
            engine.submit("audit", dataset=dataset, predictions=ones).job_id
        )
        second = engine.submit("audit", dataset=dataset, predictions=zeros)
        assert not second.cache_hit
        second = engine.wait(second.job_id)
        assert second.result_key != first.result_key
        assert engine.result(second) != engine.result(first)

    def test_predictions_and_label_audits_do_not_collide(self, make_engine):
        import numpy as np

        engine = make_engine()
        dataset = make_hiring(200, random_state=5)
        labels_only = engine.wait(engine.submit("audit", dataset=dataset).job_id)
        ones = np.ones(dataset.n_rows, dtype=int)
        with_preds = engine.submit("audit", dataset=dataset, predictions=ones)
        assert not with_preds.cache_hit
        with_preds = engine.wait(with_preds.job_id)
        assert with_preds.result_key != labels_only.result_key
        # identical resubmission *with* the same predictions still hits
        again = engine.submit("audit", dataset=dataset, predictions=ones)
        assert again.cache_hit
        assert again.result_key == with_preds.result_key


class TestAdmissionControl:
    def test_saturated_queue_rejects_with_retry_after(
        self, make_engine, fault_injector
    ):
        fault_injector.inject_hang("service.job", seconds=60, times=None)
        engine = make_engine(
            workers=1, queue_limit=3, faults=fault_injector
        )
        datasets = [make_hiring(120, random_state=i) for i in range(4)]
        first = engine.submit("audit", dataset=datasets[0])
        _wait_status(engine, first.job_id, "running")
        engine.submit("audit", dataset=datasets[1])
        engine.submit("audit", dataset=datasets[2])
        with pytest.raises(AdmissionError) as excinfo:
            engine.submit("audit", dataset=datasets[3])
        rejection = excinfo.value
        assert rejection.retry_after > 0
        assert rejection.active == 3
        assert rejection.queue_limit == 3
        assert rejection.to_dict()["retry_after"] == rejection.retry_after
        assert engine.metrics.counter("service.jobs_rejected").value == 1
        # the engine survives rejection: release the hang, drain, resubmit
        fault_injector.release()
        for job in engine.jobs():
            assert engine.wait(job.job_id, timeout=30).status == "succeeded"
        accepted = engine.submit("audit", dataset=datasets[3])
        assert engine.wait(accepted.job_id, timeout=30).status == "succeeded"

    def test_cache_hits_bypass_admission(self, make_engine, fault_injector):
        dataset = make_hiring(120, random_state=0)
        engine = make_engine(workers=1, queue_limit=1)
        done = engine.wait(engine.submit("audit", dataset=dataset).job_id)
        assert done.status == "succeeded"
        # saturate the queue with a hanging job...
        fault_injector.inject_hang("service.job", seconds=60, times=None)
        engine.faults = fault_injector
        blocker = engine.submit(
            "audit", dataset=make_hiring(120, random_state=1)
        )
        _wait_status(engine, blocker.job_id, "running")
        # ...and the repeat audit is still answered, from the store
        hit = engine.submit("audit", dataset=dataset)
        assert hit.cache_hit
        fault_injector.release()


class TestCancellation:
    def test_cancel_queued_job(self, make_engine, fault_injector):
        fault_injector.inject_hang("service.job", seconds=60, times=None)
        engine = make_engine(workers=1, faults=fault_injector)
        blocker = engine.submit(
            "audit", dataset=make_hiring(120, random_state=0)
        )
        _wait_status(engine, blocker.job_id, "running")
        queued = engine.submit(
            "audit", dataset=make_hiring(120, random_state=1)
        )
        engine.cancel(queued.job_id)
        fault_injector.release()
        record = engine.wait(queued.job_id, timeout=30)
        assert record.status == "cancelled"
        assert record.result_key is None

    def test_cancel_running_job(self, make_engine, fault_injector):
        fault_injector.inject_hang("service.job", seconds=60, times=None)
        engine = make_engine(workers=1, faults=fault_injector)
        job = engine.submit("audit", dataset=make_hiring(120, random_state=0))
        _wait_status(engine, job.job_id, "running")
        engine.cancel(job.job_id)
        fault_injector.release()
        record = engine.wait(job.job_id, timeout=30)
        assert record.status == "cancelled"
        assert record.error_type == "JobCancelledError"

    def test_cancel_terminal_job_is_noop(self, make_engine, hiring_csv):
        engine = make_engine()
        job = engine.wait(engine.submit("audit", {"data": hiring_csv}).job_id)
        assert engine.cancel(job.job_id).status == "succeeded"

    def test_cancel_unknown_job_raises(self, make_engine):
        with pytest.raises(ValidationError, match="unknown job"):
            make_engine().cancel("nope")


class TestDrainAndRecovery:
    def test_shutdown_drains_running_and_keeps_queued_pending(
        self, tmp_path, hiring_csv, fault_injector
    ):
        from repro.observability.metrics import MetricsRegistry

        root = tmp_path / "drain"
        fault_injector.inject_hang("service.job", seconds=60, times=None)
        engine = JobEngine(
            root, workers=1, faults=fault_injector,
            metrics=MetricsRegistry(), journal_fsync=False,
        )
        running = engine.submit("audit", {"data": hiring_csv})
        _wait_status(engine, running.job_id, "running")
        queued = engine.submit(
            "audit", {"data": hiring_csv}, config=AuditConfig(tolerance=0.2)
        )
        # release the hang and drain: the running job completes, the
        # queued one must stay journaled as pending work
        fault_injector.release()
        engine.shutdown(drain=True, timeout=30)
        assert engine.get(running.job_id).status == "succeeded"
        assert engine.get(queued.job_id).status == "queued"
        with pytest.raises(EngineClosedError):
            engine.submit("audit", {"data": hiring_csv})
        # a fresh engine over the same root picks the pending job up
        second = JobEngine(
            root, workers=1, metrics=MetricsRegistry(), journal_fsync=False
        )
        record = second.wait(queued.job_id, timeout=30)
        assert record.status == "succeeded"
        assert record.recovered
        assert second.metrics.counter("service.jobs_recovered").value == 1
        second.shutdown()

    def test_running_resumable_job_requeued_after_crash(
        self, tmp_path, hiring_csv
    ):
        from repro.observability.metrics import MetricsRegistry

        root = tmp_path / "crashed"
        root.mkdir()
        schema = hiring_csv + ".schema.json"
        record = JobRecord(
            job_id="deadbeef0001",
            kind="audit",
            params={"data": hiring_csv, "schema": schema},
            config=AuditConfig().to_dict(),
            status="running",
            submitted_at=1.0,
            started_at=2.0,
            dataset_fingerprint=file_fingerprint(hiring_csv, schema),
            config_fingerprint=AuditConfig().fingerprint(),
        )
        journal = JobJournal(root / "journal.jsonl", fsync=False)
        journal.append({"event": "submitted", "job": record.to_dict()})
        journal.close()
        engine = JobEngine(root, metrics=MetricsRegistry(), journal_fsync=False)
        job = engine.wait("deadbeef0001", timeout=30)
        assert job.status == "succeeded"
        assert job.recovered
        engine.shutdown()

    def test_running_inline_job_marked_interrupted(self, tmp_path):
        from repro.observability.metrics import MetricsRegistry

        root = tmp_path / "inline-crash"
        root.mkdir()
        record = JobRecord(
            job_id="deadbeef0002",
            kind="audit",
            status="running",
            submitted_at=1.0,
            resumable=False,
            dataset_fingerprint="ab" * 32,
            config_fingerprint="cd" * 32,
        )
        journal = JobJournal(root / "journal.jsonl", fsync=False)
        journal.append({"event": "submitted", "job": record.to_dict()})
        journal.close()
        engine = JobEngine(root, metrics=MetricsRegistry(), journal_fsync=False)
        job = engine.get("deadbeef0002")
        assert job.status == "interrupted"
        assert "process died" in job.error
        engine.shutdown()
        # the verdict is durable: a third engine replays it unchanged
        third = JobEngine(root, metrics=MetricsRegistry(), journal_fsync=False)
        assert third.get("deadbeef0002").status == "interrupted"
        third.shutdown()

    def test_queued_inline_job_marked_interrupted(self, tmp_path):
        # regression: a *queued* non-resumable job must settle as
        # interrupted, not be requeued — its dataset object died with
        # the process, so a requeue could only fail on the missing
        # params["data"] with a raw KeyError
        from repro.observability.metrics import MetricsRegistry

        root = tmp_path / "inline-queued-crash"
        root.mkdir()
        record = JobRecord(
            job_id="deadbeef0003",
            kind="audit",
            status="queued",
            submitted_at=1.0,
            resumable=False,
            dataset_fingerprint="ab" * 32,
            config_fingerprint="cd" * 32,
        )
        journal = JobJournal(root / "journal.jsonl", fsync=False)
        journal.append({"event": "submitted", "job": record.to_dict()})
        journal.close()
        engine = JobEngine(root, metrics=MetricsRegistry(), journal_fsync=False)
        job = engine.get("deadbeef0003")
        assert job.status == "interrupted"
        assert job.error_type == "InterruptedJob"
        assert "queued" in job.error
        assert engine.metrics.counter("service.jobs_interrupted").value == 1
        engine.shutdown()

    def test_invalid_journal_record_raises_checkpoint_error(self, tmp_path):
        root = tmp_path / "bad-journal"
        root.mkdir()
        journal = JobJournal(root / "journal.jsonl", fsync=False)
        journal.append({"event": "submitted", "job": {"job_id": "x"}})
        journal.close()
        with pytest.raises(CheckpointError, match="invalid job record"):
            JobEngine(root, journal_fsync=False)


class TestWorkerResilience:
    def test_store_failure_fails_job_and_keeps_worker_alive(
        self, make_engine, hiring_csv
    ):
        # regression: an exception outside the supervised runner (here
        # a full disk under store.put) must settle the job as failed —
        # not kill the worker thread and strand the job running forever
        engine = make_engine(workers=1)
        original_put = engine.store.put
        calls = {"n": 0}

        def flaky_put(key, payload):
            calls["n"] += 1
            if calls["n"] == 1:
                raise OSError("disk full")
            return original_put(key, payload)

        engine.store.put = flaky_put
        first = engine.wait(engine.submit("audit", {"data": hiring_csv}).job_id)
        assert first.status == "failed"
        assert first.error_type == "OSError"
        assert "disk full" in first.error
        assert engine.metrics.counter("service.worker_errors").value == 1
        # the lone worker survived: the next job still executes
        second = engine.wait(
            engine.submit(
                "audit", {"data": hiring_csv},
                config=AuditConfig(tolerance=0.2),
            ).job_id
        )
        assert second.status == "succeeded"


class TestMultiTenant:
    def test_concurrent_tenants_do_not_cross_contaminate(self, make_engine):
        engine = make_engine(workers=4, queue_limit=16)
        tenants = {
            seed: make_hiring(200 + seed, random_state=seed, direct_bias=bias)
            for seed, bias in [(1, 0.0), (2, 0.2), (3, 0.4), (4, 0.6)]
        }
        jobs = {
            seed: engine.submit("audit", dataset=dataset)
            for seed, dataset in tenants.items()
        }
        for seed, job in jobs.items():
            record = engine.wait(job.job_id, timeout=60)
            assert record.status == "succeeded"
            expected = report_to_dict(audit(tenants[seed]))
            assert engine.result(record)["report"]["findings"] == (
                expected["findings"]
            ), f"tenant {seed} got someone else's findings"


class TestJournalRotation:
    def test_journal_compacts_past_threshold(self, make_engine, hiring_csv):
        engine = make_engine(rotate_after=8, history_limit=2)
        keys = set()
        for tolerance in (0.05, 0.1, 0.15, 0.2, 0.25):
            job = engine.wait(
                engine.submit(
                    "audit", {"data": hiring_csv},
                    config=AuditConfig(tolerance=tolerance),
                ).job_id
            )
            keys.add(job.result_key)
        events = engine.journal.replay()
        # rotation happened: far fewer lines than transitions written
        assert len(events) < 5 * 3
        # but results are never rotated away — they live in the store
        assert all(engine.store.has(key) for key in keys)
