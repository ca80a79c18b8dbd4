"""The supervised job engine: audits as fault-tolerant background jobs.

A :class:`JobEngine` owns three durable artifacts under one root
directory — the append-only :class:`~repro.service.journal.JobJournal`
(``journal.jsonl``), the content-addressed
:class:`~repro.service.store.ResultStore` (``results/``), and a
``checkpoints/`` directory of per-job resume state — plus a pool of
worker threads that execute jobs under the same
:class:`~repro.robustness.StageRunner` supervision audits use
everywhere else in this library.

The design commitments, in the order the ISSUE states them:

* **Every transition is journaled before it matters.**  Submissions,
  starts, finishes, requeues: each appends one fsynced JSON line
  carrying the full :class:`~repro.service.jobs.JobRecord`, so a
  ``kill -9`` at any instant is recoverable.  On construction the
  engine replays the journal: path-based jobs that were *running* are
  requeued (their checkpoints make re-execution a resume, not a
  restart) and *queued* ones re-enqueued; active jobs whose dataset
  lived only in the dead process are marked ``interrupted`` whether
  they had started or not.

* **Results are content-addressed.**  A job's result key is a sha256
  over ``(kind, dataset fingerprint, config fingerprint, shaping
  params)``; resubmitting an identical audit is answered at submit
  time from the store — a cache hit, byte-identical to the first
  computation, no recomputation, no queue slot consumed.

* **Admission control, not collapse.**  Active (queued + running) jobs
  are counted against ``queue_limit``; a submission over the limit
  raises :class:`~repro.exceptions.AdmissionError` with a structured
  ``retry_after`` hint while running jobs continue unharmed.

* **Supervision is two-level.**  The engine's own ``policy`` governs
  the *job* (whole-job retries, a deadline that turns a hang into a
  timeout); the job's ``config.policy`` governs the audit *stages*
  inside it, exactly as it would in-process — so a job whose metric
  stages degrade completes as ``succeeded`` with ``degraded=True``,
  the service analogue of the CLI's exit code 3.

* **Shutdown drains.**  ``shutdown()`` stops accepting work, lets
  running jobs finish, and leaves still-queued jobs journaled as
  ``queued`` — the next engine over the same root picks them up.
"""

from __future__ import annotations

import queue
import threading
import time
from pathlib import Path

from repro.core.config import AuditConfig, ScanConfig
from repro.core.criteria import UseCaseProfile
from repro.core.serialize import report_to_dict
from repro.data.io import load_dataset
from repro.data.ooc import stream_chunks
from repro.exceptions import (
    AdmissionError,
    AuditError,
    CheckpointError,
    DegradedRunError,
    EngineClosedError,
    JobCancelledError,
    ServiceError,
    ValidationError,
)
from repro.observability.context import TraceContext
from repro.observability.events import get_event_bus
from repro.observability.metrics import get_metrics
from repro.observability.provenance import dataset_fingerprint
from repro.observability.trace import get_tracer
from repro.robustness.policy import ExecutionPolicy
from repro.robustness.runner import StageRunner
from repro.service.jobs import JOB_KINDS, JobRecord, new_job_id
from repro.service.journal import JobJournal
from repro.service.store import (
    ResultStore,
    array_fingerprint,
    cache_key,
    file_fingerprint,
)
from repro.streaming.stream import finalize, ingest_stream
from repro.subgroup.auditor import _finding_to_payload
from repro.subgroup.search import scan_subgroups
from repro.workflow import _dataclass_from_dict, run_compliance_workflow

__all__ = ["JobEngine"]

RESULT_SCHEMA_VERSION = 1


class JobEngine:
    """Run audit jobs on worker threads with journaled, cached results.

    Parameters
    ----------
    root:
        Directory owning this engine's durable state (journal, result
        store, checkpoints).  A second engine constructed over the same
        root — typically after a crash — recovers the first one's jobs.
    workers:
        Worker thread count.
    queue_limit:
        Maximum active (queued + running) jobs before submissions are
        rejected with :class:`~repro.exceptions.AdmissionError`.
    policy:
        Job-level :class:`~repro.robustness.ExecutionPolicy` (retries,
        deadline, backoff for the *whole job*).  Defaults to no retries
        and no deadline.  List :class:`StageTimeoutError` in its
        ``retryable`` to have hung jobs retried before failing.
    faults:
        Optional :class:`~repro.robustness.FaultInjector` fired at
        stage ``service.job:<kind>`` — the chaos hook for the engine
        itself (job configs carry their own injectors for audit-stage
        chaos).
    retry_after:
        Base of the ``retry_after`` hint on rejections; the hint scales
        with backlog depth.
    journal_fsync:
        Passed to the journal; leave ``True`` for crash-exactness.
    rotate_after / history_limit:
        Compact the journal once it holds this many lines, keeping at
        most ``history_limit`` terminal jobs of history.
    """

    def __init__(
        self,
        root,
        *,
        workers: int = 2,
        queue_limit: int = 16,
        policy: ExecutionPolicy | None = None,
        faults=None,
        tracer=None,
        metrics=None,
        retry_after: float = 1.0,
        journal_fsync: bool = True,
        rotate_after: int = 4096,
        history_limit: int = 1000,
    ):
        if workers < 1:
            raise ValidationError("workers must be >= 1")
        if queue_limit < 1:
            raise ValidationError("queue_limit must be >= 1")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.checkpoint_dir = self.root / "checkpoints"
        self.checkpoint_dir.mkdir(exist_ok=True)
        self.journal = JobJournal(self.root / "journal.jsonl", fsync=journal_fsync)
        self.store = ResultStore(self.root / "results")
        self.policy = policy if policy is not None else ExecutionPolicy()
        self.faults = faults
        self.tracer = tracer
        self.metrics = metrics
        self.queue_limit = queue_limit
        self.retry_after = retry_after
        self.rotate_after = rotate_after
        self.history_limit = history_limit
        self._jobs: dict[str, JobRecord] = {}
        self._inline: dict[str, tuple] = {}
        self._cancel: dict[str, threading.Event] = {}
        self._queue: queue.Queue = queue.Queue()
        self._lock = threading.RLock()
        self._state = threading.Condition(self._lock)
        self._closed = False
        self._draining = threading.Event()
        self._recover()
        self.journal.append({"event": "engine_started", "ts": time.time()})
        self._workers = [
            threading.Thread(
                target=self._worker_loop, daemon=True, name=f"repro-job-{i}"
            )
            for i in range(workers)
        ]
        for worker in self._workers:
            worker.start()

    # -- plumbing ------------------------------------------------------------

    def _metrics(self):
        return self.metrics if self.metrics is not None else get_metrics()

    def _tracer(self):
        return self.tracer if self.tracer is not None else get_tracer()

    @staticmethod
    def _check_cancel(cancel, job_id: str) -> None:
        if cancel is not None and cancel.is_set():
            raise JobCancelledError(f"job {job_id} cancelled")

    @staticmethod
    def _cache_extra(kind: str, params: dict, correction: str) -> dict:
        """The kind-specific parameters that shape the result bytes.

        ``chunk_size`` is deliberately absent: streamed and in-memory
        audits of the same rows produce the same report, so they share
        a cache entry.
        """
        if kind == "subgroups":
            attributes = params.get("attributes")
            extra = {
                "attributes": list(attributes) if attributes else None,
                "adjust": params.get("adjust", correction),
            }
            scan_payload = params.get("scan_config")
            if scan_payload is not None:
                # an inline ScanConfig shapes the result bytes exactly
                # like AuditConfig.scan does through config_fingerprint,
                # so it must enter the content address the same way
                extra["scan"] = ScanConfig.from_dict(
                    dict(scan_payload)
                ).fingerprint()
            return extra
        if kind == "workflow":
            return {"profile": dict(params.get("profile") or {})}
        return {}

    def _job_key(self, job: JobRecord) -> str:
        """Recompute a job's content address from its durable record."""
        extra = self._cache_extra(
            job.kind, job.params, job.config.get("correction", "holm")
        )
        if job.predictions_fingerprint:
            # inline predictions change the result, so they must change
            # the address — a label-only submission of the same dataset
            # keys the bare extra and stays a distinct entry
            extra = {**extra, "predictions": job.predictions_fingerprint}
        return cache_key(
            job.kind,
            job.dataset_fingerprint,
            job.config_fingerprint,
            extra=extra,
        )

    # -- submission ----------------------------------------------------------

    def submit(
        self,
        kind: str,
        params: dict | None = None,
        *,
        config: AuditConfig | dict | None = None,
        dataset=None,
        predictions=None,
        trace_context: TraceContext | None = None,
    ) -> JobRecord:
        """Enqueue one job (or answer it from the result cache).

        Path-based submissions (``params["data"]`` + optional
        ``params["schema"]``) are durable: they survive a crash and are
        resumed from their checkpoints.  In-process submissions
        (``dataset=``) run identically but are marked
        ``resumable=False`` — a crash leaves them ``interrupted``
        because the journal cannot reload an object that died with the
        process.

        Cache hits bypass admission control — they consume no queue
        slot, so a saturated engine still answers repeat audits.

        ``trace_context`` continues the submitter's trace: the job's
        ``service.job`` span (and everything inside it, down to
        pool-worker chunk spans) parents to the submitting request's
        span.  The context rides in the journaled record, so even a
        crash-recovered rerun stays attached to the originating trace.
        """
        if kind not in JOB_KINDS:
            raise ValidationError(
                f"unknown job kind {kind!r}; use one of {JOB_KINDS}"
            )
        params = dict(params or {})
        if params.get("scan_config") is not None:
            # validate at admission and journal the canonical full dict,
            # so recovery re-materialises exactly the scan that was
            # admitted (and a bad strategy fails the request, not the job)
            try:
                params["scan_config"] = ScanConfig.from_dict(
                    dict(params["scan_config"])
                ).to_dict()
            except (AuditError, ValueError, TypeError) as exc:
                raise ValidationError(f"invalid scan_config: {exc}") from exc
        if params.get("state") is not None:
            self._scan_state_name(params["state"])  # validate early
        if isinstance(config, AuditConfig):
            config_obj = config
        elif config is not None:
            config_obj = AuditConfig.from_dict(dict(config))
        else:
            config_obj = AuditConfig()
        if dataset is not None:
            ds_fp = dataset_fingerprint(dataset)
            resumable = False
        else:
            data = params.get("data")
            if not data:
                raise ValidationError(
                    "submit() needs params['data'] (a dataset path) or an "
                    "in-process dataset= argument"
                )
            if Path(str(data)).is_dir():
                # packed columnar dataset: its sidecar already records
                # the content fingerprint, so the cache key costs one
                # JSON read however many rows the pack holds.
                from repro.data.ooc import packed_fingerprint

                try:
                    ds_fp = packed_fingerprint(data)
                except DatasetError as exc:
                    raise ValidationError(str(exc)) from exc
            else:
                schema = params.get("schema")
                if schema is None:
                    sidecar = Path(str(data) + ".schema.json")
                    schema = str(sidecar) if sidecar.exists() else None
                ds_fp = file_fingerprint(data, schema)
            resumable = True
            predictions = None  # path jobs audit the labels on disk
        job = JobRecord(
            job_id=new_job_id(),
            kind=kind,
            params=params,
            config=config_obj.to_dict(),
            submitted_at=time.time(),
            resumable=resumable,
            dataset_fingerprint=ds_fp,
            config_fingerprint=config_obj.fingerprint(),
            predictions_fingerprint=(
                array_fingerprint(predictions)
                if predictions is not None
                else None
            ),
            trace=(
                trace_context.to_dict()
                if trace_context is not None and trace_context.sampled
                else None
            ),
        )
        key = self._job_key(job)
        if self.store.has(key):
            job.status = "succeeded"
            job.cache_hit = True
            job.finished_at = job.submitted_at
            job.result_key = key
            job.degraded = bool(self.store.get(key).get("degraded", False))
            with self._lock:
                if self._closed:
                    raise EngineClosedError(
                        "engine is shut down; no new submissions"
                    )
                self._jobs[job.job_id] = job
            self.journal.append({"event": "submitted", "job": job.to_dict()})
            self._metrics().counter("service.cache_hits").inc()
            self._maybe_rotate()
            return job
        with self._lock:
            if self._closed:
                raise EngineClosedError("engine is shut down; no new submissions")
            active = sum(1 for j in self._jobs.values() if j.active)
            if active >= self.queue_limit:
                self._metrics().counter("service.jobs_rejected").inc()
                hint = self.retry_after * max(
                    1.0, active / max(1, len(self._workers))
                )
                get_event_bus().publish(
                    "job.rejected",
                    job_kind=kind,
                    active=active,
                    queue_limit=self.queue_limit,
                    retry_after=round(hint, 3),
                )
                raise AdmissionError(
                    f"queue saturated: {active} active jobs at limit "
                    f"{self.queue_limit}; retry after {hint:.1f}s",
                    retry_after=round(hint, 3),
                    active=active,
                    queue_limit=self.queue_limit,
                )
            self._jobs[job.job_id] = job
            self._cancel[job.job_id] = threading.Event()
            if dataset is not None:
                self._inline[job.job_id] = (dataset, predictions, config_obj)
        self.journal.append({"event": "submitted", "job": job.to_dict()})
        self._metrics().counter("service.jobs_submitted").inc()
        self._queue.put(job.job_id)
        self._maybe_rotate()
        return job

    # -- inspection ----------------------------------------------------------

    def get(self, job_id: str) -> JobRecord | None:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self, status: str | None = None) -> list[JobRecord]:
        """All known jobs, oldest first, optionally filtered by status."""
        with self._lock:
            records = sorted(
                self._jobs.values(), key=lambda j: (j.submitted_at, j.job_id)
            )
        if status is not None:
            records = [j for j in records if j.status == status]
        return records

    def result(self, job: JobRecord | str) -> dict:
        """A finished job's stored result object."""
        record = self.get(job) if isinstance(job, str) else job
        if record is None or not record.result_key:
            raise ServiceError("job has no stored result")
        return self.store.get(record.result_key)

    def wait(self, job_id: str, timeout: float = 30.0) -> JobRecord:
        """Block until the job reaches a terminal status."""
        deadline = time.monotonic() + timeout
        with self._state:
            while True:
                job = self._jobs.get(job_id)
                if job is None:
                    raise ValidationError(f"unknown job {job_id!r}")
                if job.terminal:
                    return job
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ServiceError(
                        f"timed out after {timeout:g}s waiting for job "
                        f"{job_id} (status {job.status!r})"
                    )
                # _finish() notify_alls under this lock, so a plain wait
                # suffices — no periodic wakeups stealing cycles from the
                # worker threads on small machines
                self._state.wait(remaining)

    # -- cancellation --------------------------------------------------------

    def cancel(self, job_id: str) -> JobRecord:
        """Request cooperative cancellation; returns the current record.

        A queued job is cancelled before it starts; a running job stops
        at its next cancellation point (chunk boundary, subgroup
        progress callback).  Terminal jobs are returned unchanged.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise ValidationError(f"unknown job {job_id!r}")
            if job.terminal:
                return job
            event = self._cancel.get(job_id)
            if event is not None:
                event.set()
        self._metrics().counter("service.cancel_requests").inc()
        return job

    # -- lifecycle -----------------------------------------------------------

    def shutdown(self, *, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop accepting work; optionally wait for running jobs.

        With ``drain=True`` (the default) running jobs finish and are
        journaled terminal; jobs still queued when the workers exit
        remain journaled as ``queued`` — pending work for the next
        engine over this root.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._draining.set()
        if drain:
            for worker in self._workers:
                worker.join(timeout)
        self.journal.append({"event": "engine_stopped", "ts": time.time()})
        self.journal.close()

    def __enter__(self) -> "JobEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- recovery ------------------------------------------------------------

    def _recover(self) -> None:
        """Replay the journal and requeue or settle what the crash left."""
        events = self.journal.replay()
        jobs: dict[str, JobRecord] = {}
        for index, event in enumerate(events, start=1):
            record = event.get("job")
            if not isinstance(record, dict):
                continue
            try:
                jobs[record["job_id"]] = JobRecord.from_dict(record)
            except (KeyError, TypeError, ValidationError) as exc:
                raise CheckpointError(
                    f"journal {self.journal.path} event {index} holds an "
                    f"invalid job record: {type(exc).__name__}: {exc}",
                    path=self.journal.path,
                ) from exc
        self._jobs = jobs
        if not jobs:
            return
        metrics = self._metrics()
        now = time.time()
        for job in sorted(jobs.values(), key=lambda j: (j.submitted_at, j.job_id)):
            if not job.active:
                continue
            if not job.resumable:
                # queued or running, the inline dataset object died with
                # the crashed process — requeueing would only fail on a
                # missing params["data"]
                was = job.status
                job.status = "interrupted"
                job.finished_at = now
                job.error = (
                    f"process died while the job was {was}; its dataset "
                    "lived only in that process"
                )
                job.error_type = "InterruptedJob"
                self.journal.append({"event": "interrupted", "job": job.to_dict()})
                metrics.counter("service.jobs_interrupted").inc()
                get_event_bus().publish(
                    "job.interrupted",
                    job_id=job.job_id,
                    job_kind=job.kind,
                    error=job.error,
                    error_type=job.error_type,
                )
                continue
            job.status = "queued"
            job.recovered = True
            job.started_at = None
            self._cancel[job.job_id] = threading.Event()
            self.journal.append({"event": "requeued", "job": job.to_dict()})
            metrics.counter("service.jobs_recovered").inc()
            self._queue.put(job.job_id)

    def _maybe_rotate(self) -> None:
        if self.journal.entries_written < self.rotate_after:
            return
        with self._lock:
            records = sorted(
                self._jobs.values(), key=lambda j: (j.submitted_at, j.job_id)
            )
            terminal = [j for j in records if j.terminal]
            if len(terminal) > self.history_limit:
                for job in terminal[: -self.history_limit]:
                    del self._jobs[job.job_id]
                records = [j for j in records if j.job_id in self._jobs]
            self.journal.rotate(
                [{"event": "snapshot", "job": j.to_dict()} for j in records]
            )

    # -- execution -----------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            try:
                job_id = self._queue.get(timeout=0.1)
            except queue.Empty:
                if self._draining.is_set():
                    return
                continue
            if self._draining.is_set():
                # Drained before starting: the job stays journaled as
                # queued and the next engine over this root runs it.
                return
            try:
                self._run_job(job_id)
            except Exception as exc:  # noqa: BLE001 — worker must survive
                self._settle_crashed_job(job_id, exc)

    def _run_job(self, job_id: str) -> None:
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.status != "queued":
                return
            cancel = self._cancel.get(job_id)
            if cancel is not None and cancel.is_set():
                self._finish(
                    job, "cancelled",
                    error="cancelled while queued",
                    error_type="JobCancelledError",
                )
                return
            job.status = "running"
            job.started_at = time.time()
        metrics = self._metrics()
        metrics.observe(
            "service.queue_wait", job.started_at - job.submitted_at
        )
        self.journal.append({"event": "started", "job": job.to_dict()})
        runner = StageRunner(
            self.policy, faults=self.faults,
            tracer=self.tracer, metrics=self.metrics,
        )
        # A journaled context may predate this build or be hand-edited;
        # a bad one must not fail the job it annotates.
        context = None
        if job.trace:
            try:
                context = TraceContext.from_dict(job.trace)
            except ValidationError:
                context = None
        with self._tracer().span(
            "service.job", context=context, job_id=job_id, kind=job.kind,
            recovered=job.recovered,
        ):
            with metrics.timer("service.job_elapsed"):
                try:
                    outcome = runner.run(
                        f"service.job:{job.kind}", self._execute, job, cancel
                    )
                except DegradedRunError as exc:
                    self._finish(
                        job, "failed",
                        error=str(exc), error_type="DegradedRunError",
                        attempts=runner.outcomes[-1].attempts
                        if runner.outcomes else 1,
                    )
                    return
        if outcome.ok:
            payload, degraded = outcome.value
            key = self._job_key(job)
            self.store.put(key, payload)
            self._cleanup_checkpoints(job_id)
            job.degraded = degraded
            job.result_key = key
            if degraded:
                metrics.counter("service.jobs_degraded").inc()
            self._finish(job, "succeeded", attempts=outcome.attempts)
        elif outcome.error_type == "JobCancelledError":
            self._finish(
                job, "cancelled",
                error=outcome.error, error_type=outcome.error_type,
                attempts=outcome.attempts,
            )
        else:
            self._finish(
                job, "failed",
                error=outcome.error, error_type=outcome.error_type,
                attempts=outcome.attempts,
            )

    def _settle_crashed_job(self, job_id: str, exc: Exception) -> None:
        """Settle a job whose engine-side plumbing raised.

        ``runner.run`` captures errors inside the job body; anything
        that still escapes ``_run_job`` — result serialisation, a full
        disk under ``store.put`` or a journal append — must not kill
        the worker thread (the pool would silently shrink) or strand
        the job ``running`` forever (``wait()`` would only time out).
        """
        self._metrics().counter("service.worker_errors").inc()
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.terminal:
                return
        error = f"engine error after the job body ran: {exc}"
        try:
            self._finish(
                job, "failed", error=error, error_type=type(exc).__name__
            )
        except Exception:  # noqa: BLE001 — journal may be the failing part
            # settle in memory so waiters unblock even if the journal
            # itself cannot record the failure
            with self._state:
                job.status = "failed"
                job.finished_at = time.time()
                job.error = error
                job.error_type = type(exc).__name__
                self._inline.pop(job.job_id, None)
                self._cancel.pop(job.job_id, None)
                self._state.notify_all()

    def _finish(
        self,
        job: JobRecord,
        status: str,
        *,
        error: str = "",
        error_type: str = "",
        attempts: int | None = None,
    ) -> None:
        with self._state:
            job.status = status
            job.finished_at = time.time()
            if attempts is not None:
                job.attempts = attempts
            job.error = error
            job.error_type = error_type
            self._inline.pop(job.job_id, None)
            self._cancel.pop(job.job_id, None)
            self._state.notify_all()
        self.journal.append({"event": status, "job": job.to_dict()})
        self._metrics().counter(f"service.jobs_{status}").inc()
        if status in ("failed", "interrupted"):
            get_event_bus().publish(
                f"job.{status}",
                job_id=job.job_id,
                job_kind=job.kind,
                error=error,
                error_type=error_type,
            )
        self._maybe_rotate()

    def _cleanup_checkpoints(self, job_id: str) -> None:
        # mid-run resume state only; ``.scanstate.json`` files are the
        # durable output of incremental scans and must survive the job
        # that wrote them — the next rescan over grown data starts there
        for suffix in (".state.json", ".scan.json"):
            (self.checkpoint_dir / f"{job_id}{suffix}").unlink(missing_ok=True)

    @staticmethod
    def _scan_state_name(value) -> str:
        """Validate a client-supplied scan-state name (no path tricks)."""
        name = str(value)
        ok = name and len(name) <= 100 and not name.startswith(".") and all(
            c.isalnum() or c in "._-" for c in name
        )
        if not ok:
            raise ValidationError(
                "params['state'] must be a plain name (letters, digits, "
                "'.', '_', '-'; not starting with '.')"
            )
        return name

    def _scan_state_path(self, job: JobRecord) -> Path:
        """Where an incremental job's ScanState lives.

        A client-chosen ``params['state']`` name lets successive jobs
        over a growing dataset share one state file; without it the
        job id keys the state, which still lets a crash-recovered rerun
        of the *same* job resume its delta re-score.
        """
        named = job.params.get("state")
        key = self._scan_state_name(named) if named is not None else job.job_id
        return self.checkpoint_dir / f"{key}.scanstate.json"

    # -- job bodies ----------------------------------------------------------

    def _materialize(self, job: JobRecord):
        """(dataset, predictions, config) for one attempt of a job."""
        with self._lock:
            inline = self._inline.get(job.job_id)
        if inline is not None:
            return inline
        config = AuditConfig.from_dict(dict(job.config))
        dataset = load_dataset(job.params["data"], job.params.get("schema"))
        return dataset, None, config

    def _execute(self, job: JobRecord, cancel) -> tuple[dict, bool]:
        """One supervised attempt; returns ``(result payload, degraded)``."""
        self._check_cancel(cancel, job.job_id)
        dataset, predictions, config = self._materialize(job)
        self._check_cancel(cancel, job.job_id)
        if job.kind == "audit":
            return self._run_audit(job, dataset, predictions, config, cancel)
        if job.kind == "subgroups":
            return self._run_subgroups(job, dataset, config, cancel)
        return self._run_workflow(job, dataset, config)

    def _run_audit(self, job, dataset, predictions, config, cancel):
        chunk_size = job.params.get("chunk_size")
        if not chunk_size and hasattr(dataset, "chunk_rows"):
            # packed datasets default to chunked ingestion: a full-
            # population audit must never materialise the pack, and the
            # streaming path is byte-identical to the in-memory one.
            chunk_size = dataset.chunk_rows
        if not chunk_size:
            from repro.api import audit as run_audit

            report = run_audit(dataset, predictions=predictions, config=config)
        else:
            chunk_size = int(chunk_size)
            if chunk_size < 1:
                raise ValidationError("chunk_size must be >= 1")
            checkpoint = self.checkpoint_dir / f"{job.job_id}.state.json"
            n_rows = dataset.n_rows

            def chunk_iter():
                pieces = stream_chunks(dataset, chunk_size)
                for low, piece in zip(range(0, n_rows, chunk_size), pieces):
                    self._check_cancel(cancel, job.job_id)
                    if predictions is None:
                        yield piece
                    else:
                        yield piece, predictions[low:low + chunk_size]

            accumulator = ingest_stream(
                chunk_iter(),
                config,
                checkpoint=str(checkpoint),
                checkpoint_every=int(job.params.get("checkpoint_every", 1)),
                resume=checkpoint.exists(),
            )
            report = finalize(accumulator, config)
        payload = {
            "schema_version": RESULT_SCHEMA_VERSION,
            "kind": "audit",
            "degraded": bool(report.degraded),
            "is_clean": bool(report.is_clean),
            "report": report_to_dict(report),
        }
        return payload, bool(report.degraded)

    def _run_subgroups(self, job, dataset, config, cancel):
        checkpoint = self.checkpoint_dir / f"{job.job_id}.scan.json"
        attributes = job.params.get("attributes") or None

        def progress(done, total):
            self._check_cancel(cancel, job.job_id)

        scan_kwargs = {}
        if self.tracer is not None:
            # the engine's own tracer (not the process-global one) holds
            # the service.job span this scan must nest under
            scan_kwargs["tracer"] = self.tracer
        if self.metrics is not None:
            # likewise: pool-worker deltas must merge into the registry
            # GET /metrics actually serves
            scan_kwargs["metrics"] = self.metrics
        scan_payload = job.params.get("scan_config")
        legacy = scan_payload is None and config.scan is None
        if legacy:
            # the default path: the exhaustive scan over the config's
            # loose knobs, its payload byte-identical to the payloads
            # written before ScanConfig existed
            adjust = job.params.get("adjust", config.correction)
            scan = ScanConfig.from_audit(config).replace(
                checkpoint_every=int(job.params.get("checkpoint_every", 64)),
                correction=adjust or "none",
            )
        else:
            scan = (
                ScanConfig.from_dict(dict(scan_payload))
                if scan_payload is not None
                else config.scan
            )
            if job.params.get("adjust") is not None:
                # one semantic for both payload shapes: the job-level
                # correction override also governs a ScanConfig scan
                scan = scan.replace(correction=job.params["adjust"])
            adjust = scan.correction
        state_path = None
        if scan.strategy == "incremental":
            state_path = self._scan_state_path(job)
            # journal the durable state location before the scan so
            # a kill -9 recovery knows where the delta re-score left
            # its per-subgroup counts and scores
            self.journal.append(
                {
                    "event": "scan_state",
                    "job_id": job.job_id,
                    "path": str(state_path),
                    "ts": time.time(),
                }
            )
        result = scan_subgroups(
            dataset.labels(),
            dataset,
            attributes=list(attributes) if attributes else None,
            config=scan,
            checkpoint_path=str(checkpoint),
            resume=checkpoint.exists(),
            state_path=str(state_path) if state_path else None,
            on_progress=progress,
            **scan_kwargs,
        )
        payload = {
            "schema_version": RESULT_SCHEMA_VERSION,
            "kind": "subgroups",
            "degraded": False,
            "alpha": scan.alpha,
            "adjust": adjust,
        }
        if not legacy:
            payload.update(
                strategy=scan.strategy,
                scan=result.summary(),
                state_path=str(state_path) if state_path else None,
            )
        payload.update(
            n_subgroups=len(result.findings),
            n_significant=len(result.flagged),
            findings=[
                {
                    **_finding_to_payload(finding),
                    "adjusted_p_value": finding.adjusted_p_value,
                    "significant": finding.significant(scan.alpha),
                }
                for finding in result.findings
            ],
        )
        return payload, False

    def _run_workflow(self, job, dataset, config):
        profile_payload = dict(job.params.get("profile") or {})
        profile_payload.setdefault("name", f"service job {job.job_id}")
        profile = _dataclass_from_dict(UseCaseProfile, profile_payload)
        dossier = run_compliance_workflow(dataset, profile, config=config)
        payload = {
            "schema_version": RESULT_SCHEMA_VERSION,
            "kind": "workflow",
            "degraded": bool(dossier.degraded),
            "verdict": dossier.verdict,
            "primary_metric": dossier.primary_metric,
            "dossier": dossier.to_dict(),
        }
        return payload, bool(dossier.degraded)
