"""Self-time and per-layer roll-up of recorded spans.

A span's self time is its duration minus the part of it that its child
spans on the same thread cover.  Spans are recorded per thread with a
per-thread stack (see :mod:`layers`), so a span's children always run
on its own thread; a span on another thread never reduces it, even when
the two overlap in time.

A layer is the part of a span name before ``":"``
(``"streaming.accumulator:ingest"`` belongs to
``streaming.accumulator``).  Summing self time by layer never counts a
nested call twice, so the layer times of one interval add up to at most
the interval.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import NamedTuple

#: slack when testing whether a span lies inside a job's interval; the
#: job timestamps come from the wall clock, the spans from perf_counter
EPSILON_S = 0.002


class Span(NamedTuple):
    id: int
    parent: int
    thread: int
    name: str
    start: float
    end: float
    attrs: dict | None = None

    @property
    def layer(self) -> str:
        return self.name.split(":", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def load_spans(doc: dict) -> list[Span]:
    return [Span(*row) for row in doc["spans"]]


def self_times(spans) -> dict[int, float]:
    """Map span id -> self seconds (children on the same thread only)."""
    by_id = {span.id: span for span in spans}
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        parent = by_id.get(span.parent)
        if parent is None or parent.thread != span.thread:
            continue
        lo = max(span.start, parent.start)
        hi = min(span.end, parent.end)
        if hi > lo:
            covered[parent.id] += hi - lo
    return {
        span.id: max(0.0, span.duration - covered[span.id]) for span in spans
    }


def layer_self(spans, selfs, *, thread=None, lo=None, hi=None):
    """Self seconds per layer, optionally within one thread and interval."""
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        if thread is not None and span.thread != thread:
            continue
        if lo is not None and span.start < lo - EPSILON_S:
            continue
        if hi is not None and span.end > hi + EPSILON_S:
            continue
        totals[span.layer] += selfs[span.id]
    return dict(totals)


def job_thread(spans, lo: float, hi: float, stage_prefix="service.job:"):
    """The thread whose supervising runner span ran the job in [lo, hi]."""
    for span in spans:
        if (
            span.name == "robustness.runner:run"
            and span.attrs
            and str(span.attrs.get("stage", "")).startswith(stage_prefix)
            and span.start >= lo - EPSILON_S
            and span.end <= hi + EPSILON_S
        ):
            return span.thread
    return None


def outermost(spans, layer: str):
    """Spans of ``layer`` whose parent span is not of the same layer."""
    by_id = {span.id: span for span in spans}
    picked = []
    for span in spans:
        if span.layer != layer:
            continue
        parent = by_id.get(span.parent)
        if parent is not None and parent.layer == layer:
            continue
        picked.append(span)
    return picked


def attributed(intervals, spans, selfs, thread_of):
    """Per-interval layer breakdowns and the unattributed share.

    ``intervals`` holds ``(label, lo, hi)`` on the span clock;
    ``thread_of(lo, hi)`` names the thread that did the interval's work.
    Returns ``(rows, unattributed_share)`` where each row is
    ``(label, seconds, {layer: self seconds})``.
    """
    rows = []
    total = unexplained = 0.0
    for label, lo, hi in intervals:
        thread = thread_of(lo, hi)
        layers = (
            layer_self(spans, selfs, thread=thread, lo=lo, hi=hi)
            if thread is not None
            else {}
        )
        seconds = hi - lo
        rows.append((label, seconds, layers))
        total += seconds
        unexplained += max(0.0, seconds - sum(layers.values()))
    return rows, (unexplained / total if total > 0 else 1.0)


def median_ms(spans) -> float:
    durations = [span.duration * 1000.0 for span in spans]
    return float(statistics.median(durations)) if durations else 0.0


def shares(rows, labels=None) -> dict[str, float]:
    """Mean share of interval time per layer over the selected rows."""
    picked = [row for row in rows if labels is None or row[0] in labels]
    total = sum(row[1] for row in picked)
    sums: dict[str, float] = defaultdict(float)
    for _, _, layers in picked:
        for layer, seconds in layers.items():
            sums[layer] += seconds
    return {
        layer: seconds / total for layer, seconds in sums.items()
    } if total > 0 else {}


def trace_metrics(spans, selfs, n_ops: int) -> dict[str, float]:
    """Per-layer metrics readable from spans alone, per headline op."""
    per = 1.0 / max(1, n_ops)

    def self_of(name_or_layer, by_name=False):
        return sum(
            selfs[s.id] for s in spans
            if (s.name if by_name else s.layer) == name_or_layer
        )

    def named(name):
        return [s for s in spans if s.name == name]

    def attr_sum(items, key):
        return sum((s.attrs or {}).get(key, 0) for s in items)

    ingest = named("streaming.accumulator:ingest")
    saves = named("robustness.checkpoint:save")
    batches = outermost(spans, "stats.batch")
    sizes = [(s.attrs or {}).get("size", 0) for s in batches]
    runner = [s for s in spans if s.layer == "robustness.runner"]
    return {
        "data.ooc.read_s": self_of("data.ooc") * per,
        "data.ooc.bytes_read": attr_sum(named("data.ooc:read"), "bytes") * per,
        "streaming.accumulator.ingest_s":
            self_of("streaming.accumulator:ingest", True) * per,
        "streaming.accumulator.rows": attr_sum(ingest, "rows") * per,
        "streaming.accumulator.cells": float(max(
            [(s.attrs or {}).get("cells", 0) for s in ingest] or [0]
        )),
        "streaming.accumulator.materialize_s":
            self_of("streaming.accumulator:materialize", True) * per,
        "streaming.accumulator.to_dict_s":
            self_of("streaming.accumulator:to_dict", True) * per,
        "streaming.accumulator.diff_s":
            self_of("streaming.accumulator:diff", True) * per,
        "streaming.stream.finalize_s":
            self_of("streaming.stream:finalize", True) * per,
        "kernel.encode_s": self_of("kernel:encode", True) * per,
        "kernel.count_s": self_of("kernel:count", True) * per,
        "core.audit.battery_s": self_of("core.audit") * per,
        "robustness.checkpoint.saves": len(saves) * per,
        "robustness.checkpoint.save_s": self_of("robustness.checkpoint") * per,
        "robustness.checkpoint.bytes": attr_sum(saves, "bytes") * per,
        "subgroup.search.self_s": self_of("subgroup.search") * per,
        "subgroup.auditor.self_s": self_of("subgroup.auditor") * per,
        "stats.batch.calls": len(batches) * per,
        "stats.batch.mean_size":
            float(statistics.mean(sizes)) if sizes else 0.0,
        "stats.batch.self_s": self_of("stats.batch") * per,
        "monitor.engine.observe_self_s": self_of("monitor.engine") * per,
        "service.httpd.handler_ms_p50":
            median_ms(outermost(spans, "service.httpd")),
        "service.journal.appends": len(named("service.journal:append")) * per,
        "service.journal.append_ms_p50":
            median_ms(named("service.journal:append")),
        "service.store.put_ms_p50": median_ms(named("service.store:put")),
        "service.store.get_ms_p50": median_ms([
            s for s in outermost(spans, "service.store")
            if s.name == "service.store:get"
        ]),
        "robustness.runner.self_ms":
            sum(selfs[s.id] for s in runner) * 1000.0 * per,
    }
