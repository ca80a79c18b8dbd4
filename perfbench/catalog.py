"""The benchmark's metric catalogue: one source for names and units.

``BENCHMARK.json`` at the checkout root repeats these lists; the
self-tests check that the two agree.

End-to-end metrics are the same five on every workload.  Each workload
fills the two latency slots and the rate with its own headline numbers
(:data:`SLOTS`); every run also prints the workload's named metrics
(``audit.job_s_p50``, ``edge.hit_ms_p50``...) in a table above its
result line.
"""

from __future__ import annotations

WORKLOADS = {
    "audit_batch": (
        "2M-row packed audit jobs, one distinct dataset each: ingest and "
        "finalize own nearly all of a job, the HTTP edge, journal and "
        "store almost none"
    ),
    "scan_lattice": (
        "12k-row 5x7 lattices, one exhaustive and one best-first subgroup "
        "job each: checkpoints, the per-cell fold and stats.batch; many "
        "cells, few rows"
    ),
    "monitor_fleet": (
        "MonitorFleet.observe on 64 streams, some drifting, in-process: "
        "window scoring, drift resolution, accumulator diffs; no service"
    ),
}

#: runnable by name and by ``--all``, but not in BENCHMARK.json: its
#: latencies, bound by fsync and thread wake-ups that the speed probe
#: cannot scale, spread 20-26% between sets of ten runs on the shared
#: machine the benchmark was built on, more than any bound allows
EXTRA_WORKLOADS = {
    "edge_mixed": (
        "open loop of small new audits, cache-hit resubmits, result and "
        "findings reads and polls: the HTTP edge, engine, journal fsync "
        "and store dominate"
    ),
}

#: (name, unit, better, bound)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("op_ms", "ms", "lower", 0.2),
    ("op2_ms", "ms", "lower", 0.25),
    ("work_per_s", "1/s", "higher", 0.2),
)

#: what each end-to-end slot measures on each workload, by the names
#: the workload's own metric table prints.
#: Timings on audit_batch, scan_lattice and monitor_fleet are at the
#: reference speed of the speed probe (see README.md).
SLOTS = {
    "audit_batch": {
        "setup_s": "median server start to /healthz + median pack of "
                   "one 2M-row input",
        "peak_rss_mb": "VmHWM of repro serve over its first job",
        "op_ms": "audit.job_s_p50: submit to result preview (ms)",
        "op2_ms": "audit.run_ms_p50: job run time from the job reference",
        "work_per_s": "audit.rows_per_s",
    },
    "scan_lattice": {
        "setup_s": "median server start to /healthz + median lattice pack",
        "peak_rss_mb": "VmHWM of repro serve over the run",
        "op_ms": "scan.best_first_s_p50 (ms)",
        "op2_ms": "scan.exhaustive_s_p50 (ms)",
        "work_per_s": "scan.rows_per_s: lattice rows scanned per second",
    },
    "monitor_fleet": {
        "setup_s": "median monitor host start to ready, inputs loaded",
        "peak_rss_mb": "VmHWM of the monitor host over the run",
        "op_ms": "monitor.window_ms_p50",
        "op2_ms": "monitor.window_ms_p99",
        "work_per_s": "monitor.rows_per_s",
    },
    "edge_mixed": {
        "setup_s": "median server start to /healthz + median small pack",
        "peak_rss_mb": "VmHWM of repro serve over the run",
        "op_ms": "edge.job_ms_p50: due time to the finished_at in the "
                 "job reference",
        "op2_ms": "edge.job_ms_p90, replaced by p75: 7 s give 45 new "
                  "jobs, p90 needs 100 for ten samples beyond it",
        "work_per_s": "edge.requests_per_s: scheduled requests answered "
                      "per second (offered 16)",
    },
}

#: (name, unit, better); times and counts are per headline operation
#: (audit job, scan job, monitor pass, edge new job)
PER_LAYER = (
    ("data.ooc.read_s", "s", "lower"),
    ("data.ooc.bytes_read", "bytes", "lower"),
    ("streaming.accumulator.ingest_s", "s", "lower"),
    ("streaming.accumulator.rows", "count", "lower"),
    ("streaming.accumulator.cells", "count", "lower"),
    ("streaming.accumulator.materialize_s", "s", "lower"),
    ("streaming.accumulator.to_dict_s", "s", "lower"),
    ("streaming.accumulator.diff_s", "s", "lower"),
    ("streaming.stream.finalize_s", "s", "lower"),
    ("kernel.encode_s", "s", "lower"),
    ("kernel.count_s", "s", "lower"),
    ("kernel.cache_hit_ratio", "ratio", "higher"),
    ("core.audit.battery_s", "s", "lower"),
    ("robustness.checkpoint.saves", "count", "lower"),
    ("robustness.checkpoint.save_s", "s", "lower"),
    ("robustness.checkpoint.bytes", "bytes", "lower"),
    ("subgroup.search.self_s", "s", "lower"),
    ("subgroup.search.evaluated_ratio", "ratio", "lower"),
    ("subgroup.auditor.self_s", "s", "lower"),
    ("stats.batch.calls", "count", "lower"),
    ("stats.batch.mean_size", "count", "higher"),
    ("stats.batch.self_s", "s", "lower"),
    ("monitor.engine.observe_self_s", "s", "lower"),
    ("monitor.engine.windows", "count", "higher"),
    ("monitor.engine.drift_events", "count", "higher"),
    ("monitor.engine.null_alarms", "count", "lower"),
    ("service.httpd.handler_ms_p50", "ms", "lower"),
    ("service.httpd.rejections", "count", "lower"),
    ("service.engine.queue_wait_ms_p50", "ms", "lower"),
    ("service.engine.run_ms_p50", "ms", "lower"),
    ("service.journal.appends", "count", "lower"),
    ("service.journal.append_ms_p50", "ms", "lower"),
    ("service.journal.bytes", "bytes", "lower"),
    ("service.store.put_ms_p50", "ms", "lower"),
    ("service.store.get_ms_p50", "ms", "lower"),
    ("service.store.bytes", "bytes", "lower"),
    ("robustness.runner.self_ms", "ms", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

#: the unattributed share a traced run must stay under on every workload
UNATTRIBUTED_TOLERANCE = 0.10

#: which end-to-end metric each layer metric should move, on which
#: workload ("moves"), and where it should not ("flat").  Later
#: performance changes state their predictions against this table.
EFFECTS = (
    (("data.ooc.read_s", "data.ooc.bytes_read"),
     "audit.rows_per_s (work_per_s)", "audit_batch", "moves"),
    (("streaming.accumulator.ingest_s", "streaming.accumulator.rows",
      "streaming.accumulator.cells"),
     "audit.job_s_p50 (op_ms)", "audit_batch", "moves"),
    (("streaming.accumulator.ingest_s", "streaming.accumulator.rows",
      "streaming.accumulator.cells"),
     "scan.best_first_s_p50, scan.exhaustive_s_p50", "scan_lattice", "moves"),
    (("streaming.accumulator.ingest_s",),
     "edge.job_ms_p50 (op_ms)", "edge_mixed", "flat"),
    (("streaming.accumulator.materialize_s", "streaming.stream.finalize_s",
      "kernel.encode_s", "kernel.count_s", "kernel.cache_hit_ratio",
      "core.audit.battery_s"),
     "audit.job_s_p50 (op_ms)", "audit_batch", "moves"),
    (("streaming.accumulator.to_dict_s", "robustness.checkpoint.saves",
      "robustness.checkpoint.save_s", "robustness.checkpoint.bytes"),
     "scan.best_first_s_p50 (op_ms), scan.exhaustive_s_p50 (op2_ms)",
     "scan_lattice", "moves"),
    (("subgroup.search.self_s", "subgroup.search.evaluated_ratio",
      "subgroup.auditor.self_s", "stats.batch.calls", "stats.batch.mean_size",
      "stats.batch.self_s"),
     "scan.best_first_s_p50, scan.exhaustive_s_p50", "scan_lattice", "moves"),
    (("subgroup.search.self_s", "subgroup.auditor.self_s"),
     "audit.job_s_p50", "audit_batch", "flat"),
    (("monitor.engine.observe_self_s", "monitor.engine.windows",
      "monitor.engine.drift_events", "monitor.engine.null_alarms",
      "streaming.accumulator.diff_s", "stats.batch.calls"),
     "monitor.rows_per_s, monitor.window_ms_p50, monitor.window_ms_p99",
     "monitor_fleet", "moves"),
    (("service.httpd.handler_ms_p50", "service.httpd.rejections",
      "service.engine.queue_wait_ms_p50", "service.engine.run_ms_p50",
      "service.journal.appends", "service.journal.append_ms_p50",
      "service.journal.bytes", "service.store.put_ms_p50",
      "service.store.get_ms_p50", "service.store.bytes",
      "robustness.runner.self_ms"),
     "edge.submit_ms_p50, edge.hit_ms_p50, edge.job_ms_p50, edge.job_ms_p90, "
     "edge.read_ms_p50", "edge_mixed", "moves"),
    (("service.httpd.handler_ms_p50", "service.journal.append_ms_p50",
      "service.store.put_ms_p50"),
     "audit.job_s_p50", "audit_batch", "flat"),
    (("trace.unattributed_share", "trace.overhead_ratio"),
     "(attribution completeness and tracing cost)", "every workload", "flat"),
)
