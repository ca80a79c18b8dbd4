"""One measured phase against one ``repro serve`` child.

Holds what the service workloads share: the speed probes, starting the
service (three cold starts for set-up time, or one traced start),
packing inputs, the client connection, the counters read from outside
(``GET /metrics`` JSON, job reference timestamps, on-disk growth of the
state root, VmHWM), and the trace roll-up of a traced phase.
"""

from __future__ import annotations

import json
import statistics
import time

from common import Client, Server, SpeedProbe, start_service, vm_hwm_mb
from selftime import (
    attributed,
    job_thread,
    load_spans,
    self_times,
    trace_metrics,
)


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


class ServicePhase:
    """Probes and service for one phase; call :meth:`close` at the end.

    ``probe`` samples the CPU the service runs on and ``bench_probe`` the
    benchmark's own CPU, where inputs are packed.
    """

    def __init__(self, ctx, *, traced: bool, trials: int):
        self.traced = traced
        self.spans_path = ctx.work / "spans.json" if traced else None
        self.probe = SpeedProbe(ctx.work, ctx.cpu, "sut")
        self.bench_probe = SpeedProbe(ctx.work, ctx.bench_cpu, "bench")
        #: (start, end) of every server start and every input pack
        self.starts: list[tuple[float, float]] = []
        self.packs: list[tuple[float, float]] = []
        self.server = None
        try:
            if traced:
                self.server = Server(
                    ctx.work / "troot", spans=self.spans_path, cpu=ctx.cpu
                )
                self.server.start()
                self.starts = [self.server.started]
            else:
                self.server, self.starts = start_service(
                    ctx.work, trials, ctx.cpu
                )
            self.client = Client(self.server.port)
            self.before = self.client.metrics()["counters"]
        except BaseException:
            self.probe.stop()
            self.bench_probe.stop()
            if self.server is not None:
                self.server.stop()
            raise
        #: (label, terminal job reference) of every computed job
        self.jobs: list[tuple[str, dict]] = []
        self.after: dict = {}
        self.disk: dict = {}
        #: a traced phase's spans, self times and wall-to-span clock
        #: offset, set by :meth:`trace`
        self.spans: list = []
        self.selfs: dict = {}
        self.offset = 0.0

    def record(self, label: str, ref: dict) -> None:
        if ref and not ref.get("cache_hit") and ref.get("started_at"):
            self.jobs.append((label, ref))

    def pack(self, dataset, path) -> None:
        """Pack one input (program set-up), timing it."""
        from repro.data.ooc import pack_dataset

        began = time.perf_counter()
        pack_dataset(dataset, path)
        self.packs.append((began, time.perf_counter()))

    def close(self) -> None:
        """Read the outside counters, then stop the service and probes."""
        try:
            self.after = self.client.metrics()["counters"]
            self.disk = self.server.disk_bytes()
        finally:
            self.client.close()
            self.probe.stop()
            self.bench_probe.stop()
            self.server.stop()

    def setup(self) -> tuple[float, float, float]:
        """``(setup_s, raw start s, raw pack s)``.

        ``setup_s`` is the median server start plus the median pack,
        each at reference speed; the raw medians are printed beside it.
        """
        starts = [(hi - lo) / self.probe.slowdown(lo, hi)
                  for lo, hi in self.starts]
        packs = [(hi - lo) / self.bench_probe.slowdown(lo, hi)
                 for lo, hi in self.packs]
        return (
            statistics.median(starts) + statistics.median(packs),
            statistics.median(hi - lo for lo, hi in self.starts),
            statistics.median(hi - lo for lo, hi in self.packs),
        )

    @property
    def peak_rss_mb(self) -> float:
        return self.server.peak_rss_mb

    def reset_peak(self) -> None:
        """Restart the service's VmHWM from its current resident set."""
        with open(f"/proc/{self.server.proc.pid}/clear_refs", "w") as handle:
            handle.write("5")

    def peak_now(self) -> float:
        return vm_hwm_mb(self.server.proc.pid)

    def counter(self, name: str) -> float:
        return float(self.after.get(name, 0) - self.before.get(name, 0))

    def run_ms(self) -> list[float]:
        return [
            (ref["finished_at"] - ref["started_at"]) * 1000.0
            for _, ref in self.jobs
        ]

    def outside_metrics(self, n_ops: int) -> dict[str, float]:
        """Per-layer numbers the program already exposes."""
        per = 1.0 / max(1, n_ops)
        hits = self.counter("kernel.cache_hit")
        misses = self.counter("kernel.cache_miss")
        return {
            "kernel.cache_hit_ratio":
                hits / (hits + misses) if hits + misses else 0.0,
            "service.httpd.rejections":
                self.counter("service.http_rejections"),
            "service.engine.queue_wait_ms_p50": _median([
                (ref["started_at"] - ref["submitted_at"]) * 1000.0
                for _, ref in self.jobs
            ]),
            "service.engine.run_ms_p50": _median(self.run_ms()),
            "service.journal.bytes": self.disk.get("journal", 0) * per,
            "service.store.bytes": self.disk.get("results", 0) * per,
        }

    def trace(self, n_ops: int):
        """Trace-derived metrics and per-job layer breakdowns.

        Returns ``(metrics, rows)``; ``rows`` holds one
        ``(label, seconds, {layer: self seconds})`` per computed job, and
        ``metrics["trace.unattributed_share"]`` is the share of job run
        time that no layer's self time accounts for.
        """
        with open(self.spans_path, encoding="utf-8") as handle:
            doc = json.load(handle)
        spans = self.spans = load_spans(doc)
        selfs = self.selfs = self_times(spans)
        offset = self.offset = doc["pc0"] - doc["wall0"]
        intervals = [
            (label, ref["started_at"] + offset, ref["finished_at"] + offset)
            for label, ref in self.jobs
        ]
        rows, unattributed = attributed(
            intervals, spans, selfs, lambda lo, hi: job_thread(spans, lo, hi)
        )
        metrics = trace_metrics(spans, selfs, n_ops)
        metrics["trace.unattributed_share"] = unattributed
        return metrics, rows
