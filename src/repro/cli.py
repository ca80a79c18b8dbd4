"""Command-line interface: generate workloads, audit files, get advice.

Usage::

    python -m repro generate --workload hiring --n 2000 --out data.csv
    python -m repro audit --data data.csv --tolerance 0.05 --format json
    python -m repro audit --data data.csv --chunk-size 500 \\
        --checkpoint stream.ckpt.json --state-out shard0.state.json
    python -m repro merge-state shard*.state.json --audit
    python -m repro monitor --data data.csv --window 500 \\
        --drift-threshold 0.1
    python -m repro recommend --sector employment --jurisdiction eu \\
        --structural-bias --no-reliable-labels
    python -m repro statutes --attribute sex --sector employment \\
        --jurisdiction us
    python -m repro subgroups --data data.csv --checkpoint scan.ckpt.json \\
        --resume --jobs 4
    python -m repro subgroups --data data.csv --strategy incremental \\
        --state scan.state.json

Every subcommand prints to stdout.  Exit codes:

* ``0`` — clean completion;
* ``1`` — the audit/workflow found violations (CI pipelines gate on it);
* ``2`` — usage error, unreadable input, or a fail-closed abort
  (:class:`~repro.exceptions.DegradedRunError` under ``--fail-fast``);
* ``3`` — *completed degraded*: the run finished and found no violation,
  but one or more stages errored or timed out, so the result is partial
  evidence, not a clean pass.

The audit-style subcommands accept an execution policy (``--deadline``
seconds per stage, ``--retries`` for transient faults, ``--fail-fast``
for fail-closed semantics); ``subgroups`` adds ``--checkpoint`` /
``--resume`` for anytime enumeration, ``--jobs N`` for a parallel
scan whose findings and checkpoints stay byte-identical to serial,
and ``--strategy``/``--scan-config``/``--state`` for the bound-pruned
and incremental scanners (see ``docs/subgroups.md``; identical flagged
set either way).

Streaming (see ``docs/streaming.md``): ``audit --chunk-size N`` runs
the same audit through the streaming engine (byte-identical report),
with ``--checkpoint``/``--resume`` for interruption-safe ingest and
``--state-out`` to export mergeable accumulator state; ``merge-state``
folds shard states together; ``monitor`` replays a dataset as a
windowed stream and flags fairness drift (Section IV.E).

Out-of-core (see ``docs/performance.md``): ``repro data pack`` converts
a CSV into the packed columnar format (one memmap-openable ``.npy`` per
column + ``dataset.json`` sidecar) and ``repro data inspect`` summarises
or re-verifies a pack; every ``--data`` flag accepts a packed directory
in place of a CSV, so full-population audits run in bounded memory.

Observability (see ``docs/observability.md``): global ``-v``/``-q``
control log verbosity and ``--log-json`` switches stderr logging to
JSON lines; the audit-style subcommands take ``--trace-out PATH`` to
write a span trace of the run, and ``repro trace summarize PATH``
renders a per-stage timing/retry table from such a file.
"""

from __future__ import annotations

import argparse
import logging
import sys

from repro.core.audit import FairnessAudit
from repro.core.config import AuditConfig
from repro.core.criteria import UseCaseProfile, recommend_metrics, risk_flags
from repro.core.legal import statutes_protecting
from repro.core.report import render_markdown, render_text
from repro.core.serialize import report_to_json
from repro.data.generators import (
    make_credit,
    make_hiring,
    make_housing,
    make_intersectional,
    make_recidivism,
)
from repro.data.io import load_dataset, save_dataset
from repro.data.ooc import stream_chunks
from repro.exceptions import ReproError
from repro.observability import Tracer, configure_logging, use_tracer
from repro.robustness import ExecutionPolicy

__all__ = ["main", "build_parser", "EXIT_DEGRADED"]

_LOG = logging.getLogger(__name__)

#: exit code for "completed, but degraded" — distinct from both a clean
#: pass (0) and a fairness violation (1) so CI can treat partial
#: evidence as its own signal.
EXIT_DEGRADED = 3

_WORKLOADS = {
    "hiring": make_hiring,
    "credit": make_credit,
    "housing": make_housing,
    "recidivism": make_recidivism,
    "intersectional": make_intersectional,
}


def _add_policy_flags(sub) -> None:
    """Execution-policy flags shared by the audit-style subcommands."""
    sub.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget per audit stage; hung stages are cut "
        "off and reported as degradations",
    )
    sub.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="retries (with exponential backoff) for transient stage "
        "failures such as convergence errors",
    )
    sub.add_argument(
        "--fail-fast", action="store_true",
        help="fail-closed: abort on the first stage failure instead of "
        "degrading (exit code 2)",
    )


def _add_trace_flag(sub) -> None:
    """The observability flag shared by the audit-style subcommands."""
    sub.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write a JSON-lines span trace of the run here (one span "
        "per audit stage; summarise with 'repro trace summarize PATH')",
    )


def _policy_from_args(args) -> ExecutionPolicy | None:
    """Build a policy from CLI flags; None when every flag is default."""
    if (
        args.deadline is None
        and args.retries == 0
        and not args.fail_fast
    ):
        return None
    return ExecutionPolicy(
        deadline=args.deadline,
        max_retries=args.retries,
        fail_fast=args.fail_fast,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fairness auditing at the intersection of algorithms "
        "and law (ICDE 2024 workshop paper reproduction).",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="increase log verbosity (-v info, -vv debug); logs go to "
        "stderr, never mixed into report output",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true",
        help="only log errors",
    )
    parser.add_argument(
        "--log-json", action="store_true",
        help="emit logs as JSON lines (machine-readable stderr)",
    )
    # The same diagnostics flags are accepted *after* the subcommand
    # too ("repro serve -v" and "repro -v serve" both work).  SUPPRESS
    # defaults keep the subparser from clobbering a value the root
    # parser already set when the flag only appears up front.
    late = argparse.ArgumentParser(add_help=False)
    late.add_argument(
        "-v", "--verbose", action="count", default=argparse.SUPPRESS,
        help="increase log verbosity (-v info, -vv debug)",
    )
    late.add_argument(
        "-q", "--quiet", action="store_true", default=argparse.SUPPRESS,
        help="only log errors",
    )
    late.add_argument(
        "--log-json", action="store_true", default=argparse.SUPPRESS,
        help="emit logs as JSON lines",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic workload")
    gen.add_argument("--workload", choices=sorted(_WORKLOADS), required=True)
    gen.add_argument("--n", type=int, default=2000)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--bias", type=float, default=0.0,
                     help="direct label-bias strength (hiring workload)")
    gen.add_argument("--proxy", type=float, default=0.0,
                     help="proxy strength (hiring workload)")
    gen.add_argument("--out", required=True,
                     help="CSV output path (schema sidecar written next to it)")

    audit = sub.add_parser("audit", help="audit a dataset CSV")
    audit.add_argument("--data", required=True, help="CSV written by generate")
    audit.add_argument("--schema", default=None,
                       help="schema JSON (default: <data>.schema.json)")
    audit.add_argument("--tolerance", type=float, default=0.05)
    audit.add_argument("--strata", default=None,
                       help="legitimate conditioning column")
    audit.add_argument("--format", choices=("markdown", "text", "json"),
                       default="markdown")
    audit.add_argument("--metric", action="append", default=[],
                       help="restrict the battery to this metric "
                       "(repeatable; default: the full battery)")
    audit.add_argument("--chunk-size", type=int, default=None, metavar="N",
                       help="stream the dataset through the audit in "
                       "chunks of N rows (byte-identical report; "
                       "see docs/streaming.md)")
    audit.add_argument("--checkpoint", default=None, metavar="PATH",
                       help="with --chunk-size: write accumulator state "
                       "here after every chunk (atomic)")
    audit.add_argument("--resume", action="store_true",
                       help="with --chunk-size: resume ingest from "
                       "--checkpoint after an interrupted run")
    audit.add_argument("--state-out", default=None, metavar="PATH",
                       help="with --chunk-size: export the final "
                       "accumulator state for merge-state")
    _add_policy_flags(audit)
    _add_trace_flag(audit)

    merge = sub.add_parser(
        "merge-state",
        help="merge streaming accumulator states from parallel shards",
    )
    merge.add_argument("states", nargs="+",
                       help="state files written by audit --state-out")
    merge.add_argument("--out", default=None, metavar="PATH",
                       help="write the merged state here")
    merge.add_argument("--audit", action="store_true",
                       help="audit the merged counts and print the report")
    merge.add_argument("--tolerance", type=float, default=0.05)
    merge.add_argument("--format", choices=("markdown", "text", "json"),
                       default="markdown")
    _add_trace_flag(merge)

    mon = sub.add_parser(
        "monitor",
        parents=[late],
        help="replay a dataset as a windowed stream and flag fairness "
        "drift (Section IV.E), or 'monitor serve' a shard spool",
    )
    mon_sub = mon.add_subparsers(dest="monitor_command")
    mserve = mon_sub.add_parser(
        "serve",
        help="tail a spool of append-only shard files (one "
        "subdirectory per stream) into a monitoring fleet and "
        "expose /metrics, /events, /healthz over HTTP",
    )
    mserve.add_argument("--root", required=True, metavar="DIR",
                        help="spool root; each subdirectory is one "
                        "named stream of shard files (CSV or packed)")
    mserve.add_argument("--schema", required=True,
                        help="schema JSON describing the shards "
                        "(protected attributes, label)")
    mserve.add_argument("--prediction-column", default=None, metavar="NAME",
                        help="shard column holding model decisions; "
                        "without it the labels themselves are monitored")
    mserve.add_argument("--monitor-config", default=None, metavar="PATH",
                        help="JSON MonitorConfig file; explicit flags "
                        "below override its fields")
    mserve.add_argument("--window", type=int, default=None, metavar="N",
                        help="rows per evaluation window (default 500)")
    mserve.add_argument("--drift-threshold", type=float, default=None,
                        help="gap change vs the running baseline that "
                        "raises a drift event (default 0.1)")
    mserve.add_argument("--detectors", default=None, metavar="LIST",
                        help="comma-separated drift detectors: "
                        "threshold, spending, cusum (default: threshold)")
    mserve.add_argument("--tolerance", type=float, default=0.05)
    mserve.add_argument("--metric", action="append", default=[],
                        help="restrict each window's battery (repeatable)")
    mserve.add_argument("--host", default="127.0.0.1")
    mserve.add_argument("--port", type=int, default=8300)
    mserve.add_argument("--poll-interval", type=float, default=0.5,
                        metavar="SECONDS",
                        help="seconds between spool scans")
    mserve.add_argument("--chunk-rows", type=int, default=None, metavar="N",
                        help="rows per in-memory chunk when reading "
                        "a shard")
    mserve.add_argument("--once", action="store_true",
                        help="ingest the shards present now, flush "
                        "partial windows, print the fleet summary, "
                        "and exit (no HTTP server)")
    mserve.add_argument("--format", choices=("markdown", "json"),
                        default="markdown")
    mserve.add_argument("--events-out", default=None, metavar="PATH",
                        help="append alerting events here as JSON "
                        "lines; follow with 'repro events tail PATH'")
    _add_trace_flag(mserve)
    mon.add_argument("--data", default=None, help="CSV written by generate")
    mon.add_argument("--schema", default=None,
                     help="schema JSON (default: <data>.schema.json)")
    mon.add_argument("--model", default=None,
                     help="JSON pipeline written by train; without it the "
                     "labels themselves are monitored")
    mon.add_argument("--window", type=int, default=500, metavar="N",
                     help="rows per evaluation window")
    mon.add_argument("--drift-threshold", type=float, default=0.1,
                     help="gap change vs the running baseline that "
                     "raises a drift event")
    mon.add_argument("--tolerance", type=float, default=0.05)
    mon.add_argument("--metric", action="append", default=[],
                     help="restrict each window's battery (repeatable)")
    mon.add_argument("--format", choices=("markdown", "json"),
                     default="markdown")
    mon.add_argument("--stream-name", default="default", metavar="NAME",
                     help="stream label on published monitor.drift "
                     "events (default: 'default')")
    mon.add_argument("--events-out", default=None, metavar="PATH",
                     help="append drift events here as JSON lines "
                     "(inspect with 'repro events tail PATH')")
    _add_trace_flag(mon)

    scan = sub.add_parser(
        "subgroups",
        help="subgroup disparity scan (exhaustive, bound-pruned, or "
        "incremental) with checkpoint/resume",
    )
    scan.add_argument("--data", required=True, help="CSV written by generate")
    scan.add_argument("--schema", default=None,
                      help="schema JSON (default: <data>.schema.json)")
    scan.add_argument("--attribute", action="append", default=[],
                      help="attribute to conjoin (repeatable; default: "
                      "all protected attributes)")
    scan.add_argument("--strategy",
                      choices=("exhaustive", "best_first", "incremental"),
                      default=None,
                      help="scan strategy (default exhaustive; best_first "
                      "prunes via statistical bounds with identical "
                      "findings; incremental persists --state for delta "
                      "re-scoring)")
    scan.add_argument("--scan-config", default=None, metavar="PATH",
                      help="JSON ScanConfig file; explicit flags below "
                      "override its fields")
    scan.add_argument("--state", default=None, metavar="PATH",
                      help="ScanState path for --strategy incremental "
                      "(created on first run, re-scored from the data "
                      "delta afterwards)")
    scan.add_argument("--max-order", type=int, default=None,
                      help="maximum conjunction order (default 2)")
    scan.add_argument("--min-size", type=int, default=None,
                      help="minimum subgroup size scored (default 10)")
    scan.add_argument("--alpha", type=float, default=None,
                      help="significance level (default 0.05)")
    scan.add_argument("--adjust", choices=("holm", "bh", "none"),
                      default=None,
                      help="multiple-testing correction for significance "
                      "(default holm)")
    scan.add_argument("--bound-slack", type=float, default=None,
                      help="extra prune-threshold headroom for "
                      "best_first/incremental (default 0.0)")
    scan.add_argument("--top", type=int, default=10,
                      help="findings to print (most disparate first)")
    scan.add_argument("--checkpoint", default=None, metavar="PATH",
                      help="write an atomic JSON checkpoint here: the "
                      "counts after each ingest chunk, then the result "
                      "(anytime scan)")
    scan.add_argument("--checkpoint-every", type=int, default=None,
                      help="subgroups per scoring batch (default 64)")
    scan.add_argument("--resume", action="store_true",
                      help="resume from --checkpoint after a killed run")
    scan.add_argument("--jobs", type=int, default=None, metavar="N",
                      help="worker processes for the scan (default 1 = "
                      "serial; results and checkpoints are byte-identical "
                      "either way)")
    _add_trace_flag(scan)

    rec = sub.add_parser("recommend",
                         help="rank fairness metrics for a use case")
    rec.add_argument("--name", default="cli use case")
    rec.add_argument("--sector", default="employment")
    rec.add_argument("--jurisdiction", choices=("eu", "us"), default="eu")
    rec.add_argument("--structural-bias", action="store_true")
    rec.add_argument("--affirmative-action", action="store_true")
    rec.add_argument("--no-labels", action="store_true")
    rec.add_argument("--no-reliable-labels", action="store_true")
    rec.add_argument("--legitimate-factor", action="append", default=[])
    rec.add_argument("--causal-model", action="store_true")
    rec.add_argument("--punitive", action="store_true")
    rec.add_argument("--protected-attributes", type=int, default=1)
    rec.add_argument("--proxy-risk", action="store_true")
    rec.add_argument("--feedback-risk", action="store_true")
    rec.add_argument("--manipulation-risk", action="store_true")

    stat = sub.add_parser("statutes",
                          help="look up statutes protecting an attribute")
    stat.add_argument("--attribute", required=True)
    stat.add_argument("--sector", default=None)
    stat.add_argument("--jurisdiction", choices=("eu", "us"), default=None)

    train = sub.add_parser("train", help="train a linear model on a CSV")
    train.add_argument("--data", required=True)
    train.add_argument("--schema", default=None)
    train.add_argument("--model-out", required=True,
                       help="JSON output path for the fitted pipeline")
    train.add_argument("--max-iter", type=int, default=800)

    predict = sub.add_parser(
        "predict",
        help="score a CSV with a trained model and audit the decisions",
    )
    predict.add_argument("--data", required=True)
    predict.add_argument("--schema", default=None)
    predict.add_argument("--model", required=True,
                         help="JSON pipeline written by train")
    predict.add_argument("--tolerance", type=float, default=0.05)
    predict.add_argument("--format", choices=("markdown", "text", "json"),
                         default="markdown")
    _add_policy_flags(predict)
    _add_trace_flag(predict)

    definition = sub.add_parser(
        "define", help="look up a legal/technical term from the paper"
    )
    definition.add_argument("term", nargs="+",
                            help="the term, e.g. 'disparate impact'")

    wf = sub.add_parser(
        "workflow",
        help="run the full compliance workflow on a dataset CSV",
    )
    wf.add_argument("--data", required=True)
    wf.add_argument("--schema", default=None)
    wf.add_argument("--tolerance", type=float, default=0.05)
    wf.add_argument("--strata", default=None)
    wf.add_argument("--name", default="cli use case")
    wf.add_argument("--sector", default="employment")
    wf.add_argument("--jurisdiction", choices=("eu", "us"), default="eu")
    wf.add_argument("--structural-bias", action="store_true")
    wf.add_argument("--affirmative-action", action="store_true")
    wf.add_argument("--no-reliable-labels", action="store_true")
    wf.add_argument("--proxy-risk", action="store_true")
    _add_policy_flags(wf)
    _add_trace_flag(wf)

    srv = sub.add_parser(
        "serve",
        parents=[late],
        help="run the fault-tolerant audit service (HTTP/JSON job API)",
    )
    srv.add_argument(
        "--root", required=True, metavar="DIR",
        help="service state directory (journal, result store, "
        "checkpoints); a restart over the same root recovers "
        "interrupted jobs",
    )
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument(
        "--port", type=int, default=0,
        help="TCP port; 0 (the default) binds a free port and prints it",
    )
    srv.add_argument(
        "--workers", type=int, default=2,
        help="worker threads executing jobs (default: 2)",
    )
    srv.add_argument(
        "--queue-limit", type=int, default=16,
        help="max active jobs before submissions get 429 + Retry-After "
        "(default: 16)",
    )
    srv.add_argument(
        "--no-fsync", action="store_true",
        help="skip the per-event journal fsync (faster; weakens the "
        "crash guarantee to what the OS flushes)",
    )
    srv.add_argument(
        "--trace-sample-rate", type=float, default=1.0, metavar="P",
        help="head-sampling probability for request traces when the "
        "client sends no traceparent header (default: 1.0 — trace "
        "everything)",
    )
    srv.add_argument(
        "--events-out", default=None, metavar="PATH",
        help="append alerting events (drift, job failures, admission "
        "rejections) here as JSON lines; follow with "
        "'repro events tail PATH'",
    )
    _add_policy_flags(srv)
    _add_trace_flag(srv)

    trace = sub.add_parser(
        "trace",
        help="inspect a trace file written with --trace-out",
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    summ = trace_sub.add_parser(
        "summarize",
        help="per-stage timing/retry table from a trace file",
    )
    summ.add_argument("path", help="JSON-lines trace written by --trace-out")
    summ.add_argument("--top", type=int, default=None, metavar="N",
                      help="show only the N stages with the largest total "
                      "time (default: all)")
    summ.add_argument("--group", action="store_true",
                      help="group stages by prefix (all audit:* stages "
                      "become one row)")
    summ.add_argument("--by-process", action="store_true",
                      help="one table per producing process — a "
                      "parallel scan merges child worker spans into "
                      "the parent trace file")

    ev = sub.add_parser(
        "events",
        help="inspect an event log written with --events-out",
    )
    ev_sub = ev.add_subparsers(dest="events_command", required=True)
    tail = ev_sub.add_parser(
        "tail",
        help="print events from a JSON-lines event log",
    )
    tail.add_argument("path", help="JSON-lines sink written by --events-out")
    tail.add_argument("--since", type=int, default=0, metavar="SEQ",
                      help="only events with seq > SEQ (default: all)")
    tail.add_argument("--kind", default=None, metavar="KIND",
                      help="filter by kind, exact or dotted prefix "
                      "('job' matches job.failed and job.rejected)")
    tail.add_argument("--stream", default=None, metavar="NAME",
                      help="only events whose payload carries this "
                      "monitoring stream label")
    tail.add_argument("--follow", "-f", action="store_true",
                      help="keep polling the file for new events "
                      "(Ctrl-C to stop)")
    tail.add_argument("--json", action="store_true", dest="as_json",
                      help="print raw JSON lines instead of the "
                      "formatted view")

    data = sub.add_parser(
        "data",
        help="pack/inspect out-of-core columnar datasets",
    )
    data_sub = data.add_subparsers(dest="data_command", required=True)
    pack = data_sub.add_parser(
        "pack",
        help="pack a CSV dataset into the columnar on-disk format "
        "(one memmap-openable .npy per column + dataset.json sidecar)",
    )
    pack.add_argument("--data", required=True, help="CSV written by generate")
    pack.add_argument("--schema", default=None,
                      help="schema JSON (default: <data>.schema.json)")
    pack.add_argument("--out", required=True, metavar="DIR",
                      help="output directory for the packed dataset")
    pack.add_argument("--chunk-rows", type=int, default=None, metavar="N",
                      help="rows per packed write chunk (default 1Mi)")
    inspect = data_sub.add_parser(
        "inspect",
        help="summarise a packed dataset's sidecar (rows, schema, "
        "fingerprint) without reading column data",
    )
    inspect.add_argument("path", help="packed dataset directory")
    inspect.add_argument("--verify", action="store_true",
                         help="re-hash the column bytes against the "
                         "recorded fingerprint (reads the whole pack)")
    inspect.add_argument("--format", choices=("text", "json"),
                         default="text")

    return parser


def _cmd_generate(args) -> int:
    factory = _WORKLOADS[args.workload]
    kwargs = {"n": args.n, "random_state": args.seed}
    if args.workload == "hiring":
        kwargs["direct_bias"] = args.bias
        kwargs["proxy_strength"] = args.proxy
    dataset = factory(**kwargs)
    save_dataset(dataset, args.out)
    print(f"wrote {dataset.n_rows} rows to {args.out} "
          f"(+ schema sidecar)")
    return 0


def _report_exit_code(report) -> int:
    """0 clean, 1 violations, EXIT_DEGRADED for errored-but-clean."""
    if not report.is_clean:
        return 1
    return EXIT_DEGRADED if report.degraded else 0


def _print_report(report, fmt: str) -> None:
    if fmt == "json":
        print(report_to_json(report))
    elif fmt == "text":
        print(render_text(report))
    else:
        print(render_markdown(report))


def _cmd_audit(args) -> int:
    from repro.exceptions import AuditError

    dataset = load_dataset(args.data, args.schema)
    config = AuditConfig(
        tolerance=args.tolerance,
        strata=args.strata,
        metrics=tuple(args.metric) or None,
        policy=_policy_from_args(args),
    )
    if args.chunk_size is None:
        for flag in ("checkpoint", "state_out"):
            if getattr(args, flag):
                raise AuditError(
                    f"--{flag.replace('_', '-')} requires --chunk-size"
                )
        report = FairnessAudit(dataset, config=config).run()
    else:
        from repro.streaming import finalize, ingest_stream

        if args.chunk_size < 1:
            raise AuditError("--chunk-size must be >= 1")
        accumulator = ingest_stream(
            stream_chunks(dataset, args.chunk_size),
            config,
            checkpoint=args.checkpoint,
            resume=args.resume,
        )
        if args.state_out:
            accumulator.save(args.state_out)
            _LOG.info("accumulator state written to %s", args.state_out)
        report = finalize(accumulator, config)
    _print_report(report, args.format)
    return _report_exit_code(report)


def _cmd_merge_state(args) -> int:
    from repro.streaming import finalize, merge_states

    merged = merge_states(args.states)
    print(f"merged {len(args.states)} shard states: {merged.n_rows} rows, "
          f"{len(merged._cells)} cells, "
          f"{merged.chunks_ingested} chunks ingested")
    if args.out:
        merged.save(args.out)
        print(f"merged state written to {args.out}")
    if not args.audit:
        return 0
    config = AuditConfig(tolerance=args.tolerance, strata=merged.strata)
    report = finalize(merged, config)
    _print_report(report, args.format)
    return _report_exit_code(report)


def _cmd_monitor(args) -> int:
    if getattr(args, "monitor_command", None) == "serve":
        return _cmd_monitor_serve(args)
    from repro.streaming import FairnessMonitor

    if not args.data:
        raise SystemExit("repro monitor: --data is required (or use "
                         "'repro monitor serve --root DIR')")
    dataset = load_dataset(args.data, args.schema)
    predictions = None
    if args.model:
        from repro.models.persistence import LinearPipeline

        predictions = LinearPipeline.load(args.model).predict(dataset)
    config = AuditConfig(
        tolerance=args.tolerance, metrics=tuple(args.metric) or None
    )
    monitor = FairnessMonitor(
        dataset.schema.protected_names,
        config=config,
        window=args.window,
        drift_threshold=args.drift_threshold,
        label=dataset.schema.label_name,
        audits_labels=predictions is None,
        name=args.stream_name,
    )
    from contextlib import ExitStack

    with ExitStack() as stack:
        if args.events_out:
            from repro.observability import EventBus, use_event_bus

            bus = EventBus(sink=args.events_out)
            stack.callback(bus.close)
            stack.enter_context(use_event_bus(bus))
        monitor.observe(
            y_true=dataset.labels(),
            predictions=predictions,
            protected={
                name: dataset.column(name)
                for name in dataset.schema.protected_names
            },
        )
        monitor.flush()
    if args.format == "json":
        import json as _json

        print(_json.dumps(monitor.summary(), indent=2))
    else:
        print(monitor.markdown())
    return 1 if monitor.drift_events else 0


def _cmd_monitor_serve(args) -> int:
    """Tail a shard spool into a monitoring fleet until SIGTERM."""
    import json as _json
    import signal
    import threading
    from contextlib import ExitStack

    from repro.core.config import MonitorConfig
    from repro.data.io import schema_from_dict
    from repro.monitor import MonitorFleet, MonitorService, serve_http

    with open(args.schema, encoding="utf-8") as handle:
        schema = schema_from_dict(_json.load(handle))
    if args.monitor_config:
        with open(args.monitor_config, encoding="utf-8") as handle:
            base = MonitorConfig.from_dict(_json.load(handle))
    else:
        base = MonitorConfig()
    overrides = {
        name: value
        for name, value in (
            ("window", args.window),
            ("drift_threshold", args.drift_threshold),
            (
                "detectors",
                tuple(
                    part.strip()
                    for part in args.detectors.split(",")
                    if part.strip()
                )
                if args.detectors
                else None,
            ),
        )
        if value is not None
    }
    monitor_config = base.replace(**overrides) if overrides else base
    fleet = MonitorFleet(
        schema.protected_names,
        config=AuditConfig(
            tolerance=args.tolerance, metrics=tuple(args.metric) or None
        ),
        monitor=monitor_config,
        label=schema.label_name,
        audits_labels=args.prediction_column is None,
    )
    with ExitStack() as stack:
        if args.events_out:
            from repro.observability import EventBus, use_event_bus

            bus = EventBus(sink=args.events_out)
            stack.callback(bus.close)
            stack.enter_context(use_event_bus(bus))
        service = MonitorService(
            fleet,
            args.root,
            schema=args.schema,
            prediction_column=args.prediction_column,
            **(
                {"chunk_rows": args.chunk_rows}
                if args.chunk_rows is not None
                else {}
            ),
            poll_interval=args.poll_interval,
        )
        if args.once:
            service.scan_once()
            fleet.flush()
        else:
            server = serve_http(service, host=args.host, port=args.port)
            print(
                f"repro monitor fleet tailing {args.root} on "
                f"http://{args.host}:{server.port} "
                f"(window {monitor_config.window}, detectors "
                f"{', '.join(monitor_config.detectors)})",
                flush=True,
            )
            stop = threading.Event()

            def _request_stop(signum, frame):
                stop.set()

            signal.signal(signal.SIGTERM, _request_stop)
            signal.signal(signal.SIGINT, _request_stop)
            try:
                service.run(stop)
            finally:
                server.shutdown()
                fleet.flush()
    if args.format == "json":
        print(_json.dumps(fleet.summary(), indent=2))
    else:
        print(fleet.markdown())
    drifted = any(
        fleet.stream(name).drift_events for name in fleet.stream_names
    )
    return 1 if drifted else 0


def _cmd_subgroups(args) -> int:
    import json as _json

    from repro.core.config import ScanConfig
    from repro.subgroup.search import scan_subgroups

    dataset = load_dataset(args.data, args.schema)
    if args.scan_config:
        with open(args.scan_config, encoding="utf-8") as handle:
            base = ScanConfig.from_dict(_json.load(handle))
    else:
        base = ScanConfig()
    overrides = {
        name: value
        for name, value in (
            ("strategy", args.strategy),
            ("max_order", args.max_order),
            ("min_size", args.min_size),
            ("alpha", args.alpha),
            ("correction", args.adjust),
            ("checkpoint_every", args.checkpoint_every),
            ("jobs", args.jobs),
            ("bound_slack", args.bound_slack),
        )
        if value is not None
    }
    scan = base.replace(**overrides) if overrides else base
    result = scan_subgroups(
        dataset.labels(),
        dataset,
        attributes=args.attribute or None,
        config=scan,
        checkpoint_path=args.checkpoint,
        resume=args.resume,
        state_path=args.state,
    )
    findings = result.findings
    stats = ""
    if scan.strategy != "exhaustive":
        stats = (f"; {scan.strategy}: {result.evaluated} scored, "
                 f"{result.pruned} pruned "
                 f"({result.pruned_fraction:.0%} of {result.total})")
        if result.rescored:
            stats += f", {result.rescored} re-scored from delta"
    significant = [f for f in findings if f.significant(scan.alpha)]
    print(f"scanned {len(findings)} subgroups "
          f"({len(significant)} significant at alpha={scan.alpha:g}, "
          f"{scan.correction} correction{stats})")
    for finding in findings[: args.top]:
        flag = "!" if finding.significant(scan.alpha) else " "
        print(f" {flag} {finding.subgroup.label()}: "
              f"rate {finding.rate:.3f} vs {finding.complement_rate:.3f} "
              f"(gap {finding.gap:+.3f}, n={finding.subgroup.size}, "
              f"p={finding.p_value:.4f})")
    return 1 if significant else 0


def _cmd_recommend(args) -> int:
    profile = UseCaseProfile(
        name=args.name,
        sector=args.sector,
        jurisdiction=args.jurisdiction,
        structural_bias_recognized=args.structural_bias,
        affirmative_action_mandated=args.affirmative_action,
        labels_available=not args.no_labels,
        ground_truth_reliable=not args.no_reliable_labels,
        legitimate_factors=tuple(args.legitimate_factor),
        causal_model_available=args.causal_model,
        punitive_context=args.punitive,
        n_protected_attributes=args.protected_attributes,
        proxy_risk=args.proxy_risk,
        feedback_loop_risk=args.feedback_risk,
        manipulation_risk=args.manipulation_risk,
    )
    print(f"Recommendations for {profile.name!r}:")
    for rec in recommend_metrics(profile):
        marker = " " if rec.feasible else "✗"
        print(f" {marker} {rec.score:+5.1f}  {rec.metric} "
              f"[{rec.equality_concept}]")
        for reason in rec.rationale:
            print(f"          · {reason}")
        for blocker in rec.blockers:
            print(f"          ✗ {blocker}")
    print("\nRisk flags:")
    for flag in risk_flags(profile):
        print(f"  [{flag.paper_section}] {flag.risk}: {flag.advice}")
    return 0


def _cmd_statutes(args) -> int:
    statutes = statutes_protecting(
        args.attribute, sector=args.sector, jurisdiction=args.jurisdiction
    )
    if not statutes:
        print(f"no cataloged statute protects {args.attribute!r} "
              f"(sector={args.sector}, jurisdiction={args.jurisdiction})")
        return 0
    for statute in statutes:
        sectors = ", ".join(statute.sectors) if statute.sectors else "general"
        print(f"- [{statute.jurisdiction.upper()}] {statute.name} "
              f"({statute.year}); sectors: {sectors}")
        if statute.notes:
            print(f"    {statute.notes}")
    return 0


def _cmd_train(args) -> int:
    from repro.models.persistence import LinearPipeline

    dataset = load_dataset(args.data, args.schema)
    pipeline = LinearPipeline(max_iter=args.max_iter).fit(dataset)
    pipeline.save(args.model_out)
    preds = pipeline.predict(dataset)
    train_accuracy = float((preds == dataset.labels()).mean())
    print(f"trained on {dataset.n_rows} rows "
          f"({len(pipeline.feature_names)} feature columns); "
          f"training accuracy {train_accuracy:.3f}; "
          f"model written to {args.model_out}")
    return 0


def _cmd_predict(args) -> int:
    from repro.models.persistence import LinearPipeline

    dataset = load_dataset(args.data, args.schema)
    pipeline = LinearPipeline.load(args.model)
    predictions = pipeline.predict(dataset)
    probabilities = pipeline.predict_proba(dataset)
    report = FairnessAudit(
        dataset,
        predictions=predictions,
        probabilities=probabilities,
        config=AuditConfig(
            tolerance=args.tolerance, policy=_policy_from_args(args)
        ),
    ).run()
    _print_report(report, args.format)
    return _report_exit_code(report)


def _cmd_define(args) -> int:
    from repro.core.glossary import define, related_terms

    term = " ".join(args.term)
    entry = define(term)
    print(f"{entry.term}  [{entry.discipline}; paper §{entry.paper_section}]")
    print(f"  {entry.definition}")
    related = related_terms(entry.term)
    if related:
        print("  see also: " + ", ".join(e.term for e in related))
    return 0


def _cmd_trace(args) -> int:
    from repro.observability import (
        render_summary_table,
        summarize_trace,
        summarize_trace_by_process,
    )

    if args.by_process:
        sections = summarize_trace_by_process(
            args.path, group_prefix=args.group
        )
        if not sections:
            print(f"trace {args.path} contains no spans")
            return 0
        for label, summaries in sections:
            print(f"## {label}")
            print()
            print(render_summary_table(summaries, top=args.top))
            print()
        return 0
    summaries = summarize_trace(args.path, group_prefix=args.group)
    if not summaries:
        print(f"trace {args.path} contains no spans")
        return 0
    print(render_summary_table(summaries, top=args.top))
    return 0


def _format_event(event: dict) -> str:
    """One human-readable line per event for the tail view."""
    import datetime

    stamp = datetime.datetime.fromtimestamp(
        float(event.get("ts", 0.0))
    ).strftime("%H:%M:%S")
    payload = event.get("payload") or {}
    detail = " ".join(f"{key}={value}" for key, value in payload.items())
    return (
        f"[{event.get('seq', '?'):>5}] {stamp} "
        f"{event.get('kind', '?'):<24} {detail}"
    )


def _cmd_events(args) -> int:
    import time as time_module

    from repro.observability import read_events

    cursor = args.since
    try:
        while True:
            for event in read_events(
                args.path, since=cursor, kind=args.kind,
                stream=getattr(args, "stream", None),
            ):
                cursor = max(cursor, int(event.get("seq", cursor)))
                if args.as_json:
                    import json as json_module

                    print(json_module.dumps(event), flush=True)
                else:
                    print(_format_event(event), flush=True)
            if not args.follow:
                return 0
            time_module.sleep(0.2)
    except KeyboardInterrupt:  # pragma: no cover — interactive only
        return 0
    except BrokenPipeError:
        # the reader (head, less) hung up mid-tail; leave quietly
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def _cmd_workflow(args) -> int:
    from repro.core.criteria import UseCaseProfile
    from repro.workflow import run_compliance_workflow

    dataset = load_dataset(args.data, args.schema)
    legitimate = (args.strata,) if args.strata else ()
    profile = UseCaseProfile(
        name=args.name,
        sector=args.sector,
        jurisdiction=args.jurisdiction,
        structural_bias_recognized=args.structural_bias,
        affirmative_action_mandated=args.affirmative_action,
        ground_truth_reliable=not args.no_reliable_labels,
        legitimate_factors=legitimate,
        n_protected_attributes=max(
            1, len(dataset.schema.protected_names)
        ),
        proxy_risk=args.proxy_risk,
    )
    dossier = run_compliance_workflow(
        dataset, profile,
        config=AuditConfig(
            tolerance=args.tolerance,
            strata=args.strata,
            policy=_policy_from_args(args),
        ),
    )
    print(dossier.to_markdown())
    if dossier.verdict == "fail":
        return 1
    if dossier.degraded or dossier.verdict == "inconclusive":
        return EXIT_DEGRADED
    return 0


def _cmd_serve(args) -> int:
    """Run the audit service until SIGTERM/SIGINT, then drain."""
    import signal
    import threading
    from contextlib import ExitStack

    from repro.service import JobEngine
    from repro.service.httpd import serve as start_http

    stack = ExitStack()
    if args.events_out:
        from repro.observability import EventBus, use_event_bus

        bus = EventBus(sink=args.events_out)
        stack.callback(bus.close)
        stack.enter_context(use_event_bus(bus))
    # The bus is installed before the engine starts so crash-recovery
    # events from a restart land in the sink too.
    engine = JobEngine(
        args.root,
        workers=args.workers,
        queue_limit=args.queue_limit,
        policy=_policy_from_args(args),
        journal_fsync=not args.no_fsync,
    )
    server = start_http(
        engine, host=args.host, port=args.port,
        trace_sample_rate=args.trace_sample_rate,
    )
    print(
        f"repro audit service listening on http://{args.host}:{server.port} "
        f"(root {args.root}, {args.workers} workers, "
        f"queue limit {args.queue_limit})",
        flush=True,
    )
    stop = threading.Event()

    def _request_stop(signum, frame):
        stop.set()

    signal.signal(signal.SIGTERM, _request_stop)
    signal.signal(signal.SIGINT, _request_stop)
    try:
        while not stop.wait(0.2):
            pass
    finally:
        server.shutdown()
        engine.shutdown(drain=True)
        stack.close()
    print("drained running jobs; service stopped", flush=True)
    return 0


def _cmd_data(args) -> int:
    import json as json_module
    from pathlib import Path

    from repro.data.ooc import (
        DEFAULT_CHUNK_ROWS,
        PACK_SIDECAR,
        open_dataset,
        pack_dataset,
        packed_fingerprint,
    )

    if args.data_command == "pack":
        dataset = load_dataset(args.data, args.schema)
        chunk_rows = args.chunk_rows or DEFAULT_CHUNK_ROWS
        path = pack_dataset(dataset, args.out, chunk_rows=chunk_rows)
        print(
            f"packed {dataset.n_rows} rows x {len(list(dataset.schema))} "
            f"columns -> {path}"
        )
        print(f"fingerprint {packed_fingerprint(path)}")
        return 0

    dataset = open_dataset(args.path, verify=args.verify)
    payload = json_module.loads((Path(args.path) / PACK_SIDECAR).read_text())
    if args.format == "json":
        print(json_module.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"packed dataset {dataset.path}")
    print(f"rows           {dataset.n_rows}")
    print(f"fingerprint    {payload['fingerprint']}")
    if args.verify:
        print("verify         OK (column bytes match the fingerprint)")
    print()
    print(f"{'column':<24} {'kind':<12} {'role':<12} {'dtype':<8} categories")
    for entry in payload["columns"]:
        col = dataset.schema[entry["name"]]
        codes = entry.get("codes")
        cats = (
            ", ".join(repr(c) for c in codes["categories"])
            if codes
            else "-"
        )
        print(
            f"{entry['name']:<24} {col.kind:<12} {col.role:<12} "
            f"{entry['dtype']:<8} {cats}"
        )
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "audit": _cmd_audit,
    "merge-state": _cmd_merge_state,
    "monitor": _cmd_monitor,
    "subgroups": _cmd_subgroups,
    "train": _cmd_train,
    "predict": _cmd_predict,
    "recommend": _cmd_recommend,
    "statutes": _cmd_statutes,
    "define": _cmd_define,
    "workflow": _cmd_workflow,
    "serve": _cmd_serve,
    "trace": _cmd_trace,
    "events": _cmd_events,
    "data": _cmd_data,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(
        verbosity=-1 if args.quiet else args.verbose,
        json_lines=args.log_json,
    )
    import json

    trace_out = getattr(args, "trace_out", None)
    tracer = Tracer() if trace_out else None
    snapshot: dict = {}
    try:
        if tracer is None:
            return _COMMANDS[args.command](args)
        # A traced run gets its own metrics registry so the snapshot in
        # the trace file covers exactly this invocation.
        from repro.observability import use_metrics

        with use_tracer(tracer), use_metrics() as registry:
            try:
                return _COMMANDS[args.command](args)
            finally:
                snapshot = registry.snapshot()
    except ReproError as exc:
        _LOG.error("%s", exc)
        return 2
    except FileNotFoundError as exc:
        _LOG.error("%s", exc)
        return 2
    except json.JSONDecodeError as exc:
        _LOG.error("malformed JSON input: %s", exc)
        return 2
    finally:
        if tracer is not None:
            # The trace is evidence: write it even when the run degraded
            # or aborted, with the metrics snapshot appended.
            tracer.write(
                trace_out, extra=[{"kind": "metrics", **snapshot}]
            )
            _LOG.info("trace written to %s", trace_out)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
