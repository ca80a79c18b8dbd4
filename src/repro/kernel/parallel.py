"""Parallel subgroup-scan workers: cheap to ship, identical to serial.

The subgroup scan (:func:`repro.subgroup.search.scan_subgroups`) runs
two pool phases.  Ingest workers (:func:`count_cells_chunk`) attach to
the column sources by name and return sparse joint-cell counts.
Scoring is embarrassingly parallel once each subgroup is reduced to two
integers (positives inside, members inside): scoring workers
(:func:`score_chunk`, or :func:`score_chunk_telemetry` in a real
process pool) receive count tuples only, so dispatch cost is a few
bytes per subgroup.  Chunk boundaries are aligned to absolute multiples
of the scoring batch (:func:`chunk_ranges`), so serial and parallel
scans batch — and merge — identically.

Scoring is *batched*: :func:`score_chunk` hands its whole chunk of
count pairs to :func:`repro.stats.batch.batch_score_counts`, which runs
one vectorized z-test and one Wilson batch for the entire chunk instead
of two scalar calls per subgroup — the payloads stay bit-identical to
the per-subgroup scalar loop (the property suite in
``tests/perf/test_batch_stats.py`` holds the equivalence).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.stats.batch import batch_score_counts

__all__ = [
    "score_counts",
    "score_chunk",
    "score_chunk_telemetry",
    "count_cells_chunk",
    "read_spills",
    "chunk_ranges",
    "pruned_ranges",
]


def score_counts(
    positives_inside: int, n_inside: int, positives_total: int, n_total: int
) -> dict | None:
    """Disparity statistics for one subgroup from its count pair.

    A length-1 batch through :func:`batch_score_counts`: the rates are
    the same integer divisions, and the z-test/Wilson interval see the
    same integer inputs as the scalar scoring ever did.  Returns
    ``None`` when the subgroup covers the whole population (no
    complement to compare against).
    """
    return batch_score_counts(
        positives_inside, n_inside, positives_total, n_total
    )[0]


def score_chunk(
    entries: list[tuple[int, int]], positives_total: int, n_total: int
) -> list[dict | None]:
    """Score a chunk of ``(positives_inside, n_inside)`` pairs in order.

    One batch call for the whole chunk: the count pairs are folded into
    two int64 vectors and every subgroup's z-test, Wilson interval, and
    rate arithmetic runs as a single vectorized pass.
    """
    if not entries:
        return []
    positives = np.fromiter(
        (entry[0] for entry in entries), dtype=np.int64, count=len(entries)
    )
    sizes = np.fromiter(
        (entry[1] for entry in entries), dtype=np.int64, count=len(entries)
    )
    return batch_score_counts(positives, sizes, positives_total, n_total)


def score_chunk_telemetry(
    entries: list[tuple[int, int]],
    positives_total: int,
    n_total: int,
    spill: dict,
) -> list[dict | None]:
    """:func:`score_chunk` plus a telemetry *spill file* for the parent.

    The pool-worker entry point of the unified telemetry pipeline:
    the chunk is scored inside a ``subgroups.score_chunk`` span that
    continues the parent's :class:`~repro.observability.context.
    TraceContext` (one trace_id from the HTTP edge to here), and the
    worker's metric deltas — chunk/entry counters, scoring latency —
    are recorded into a fresh registry instead of the worker process's
    throwaway default.  Both are written to
    ``<spill.dir>/chunk-<lo>-<hi>.jsonl`` for the parent to merge on
    join.

    ``spill`` keys: ``dir`` (spill directory), ``lo``/``hi`` (chunk
    range, used for the file name and span attrs), optional ``context``
    (a ``TraceContext.to_dict()`` payload; absent means tracing is off)
    and ``run_id``.

    The spill write is deliberately *non-atomic* (a killed worker leaves
    a torn file); the parent-side reader (:func:`read_spills`) is
    tolerant, and metric deltas apply all-or-nothing, so a partial spill
    can never corrupt the parent's registry.  Scoring results are
    returned through the future as usual — a lost spill loses telemetry,
    never data.
    """
    from repro.observability.context import TraceContext
    from repro.observability.metrics import MetricsRegistry, use_metrics
    from repro.observability.trace import Tracer, use_tracer

    registry = MetricsRegistry()
    context = spill.get("context")
    tracer = (
        Tracer(
            run_id=spill.get("run_id", ""),
            context=TraceContext.from_dict(context),
        )
        if context
        else None
    )
    lo, hi = spill["lo"], spill["hi"]
    with use_metrics(registry):
        registry.counter("subgroups.chunks_scored").inc()
        registry.counter("subgroups.entries_scored").inc(len(entries))
        if tracer is not None:
            with use_tracer(tracer), tracer.span(
                "subgroups.score_chunk", lo=lo, hi=hi, size=len(entries)
            ), registry.timer("subgroups.chunk_seconds"):
                result = score_chunk(entries, positives_total, n_total)
        else:
            with registry.timer("subgroups.chunk_seconds"):
                result = score_chunk(entries, positives_total, n_total)

    lines = tracer.to_lines() if tracer is not None else [
        {
            "kind": "spill_meta",
            "created": time.time(),
            "process_id": os.getpid(),
        }
    ]
    lines.append({"kind": "metrics_delta", "delta": registry.delta()})
    path = Path(spill["dir"]) / f"chunk-{lo}-{hi}.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(
            "\n".join(json.dumps(line, sort_keys=True) for line in lines)
            + "\n"
        )
    return result


# -- zero-copy counting workers (out-of-core data plane) ---------------------
#
# Ingest workers receive *source manifests* — ``{"kind": "shm", ...}``
# naming a shared-memory segment published by :mod:`repro.kernel.shm`,
# or ``{"kind": "npy", ...}`` locating a packed column file — and count
# the rows themselves.  No column-sized array ever crosses the pickle
# boundary.

#: per-process source cache, keyed by the scan token: attached segments
#: and their array views.  Reset whenever a different scan's token
#: arrives, so a long-lived pool worker holds at most one scan's
#: attachments.
_WORKER_SOURCES: dict = {
    "token": None,
    "segments": {},
    "arrays": {},
}


def _reset_worker_sources() -> None:
    for segment in _WORKER_SOURCES["segments"].values():
        try:
            segment.close()
        except OSError:  # pragma: no cover — mapping already gone
            pass
    _WORKER_SOURCES.update(token=None, segments={}, arrays={})


def _ensure_token(token: str) -> None:
    if _WORKER_SOURCES["token"] != token:
        _reset_worker_sources()
        _WORKER_SOURCES["token"] = token


def _read_int64(manifest: dict, lo: int, hi: int, fresh: bool) -> np.ndarray:
    """Rows ``[lo, hi)`` of a source manifest as int64.

    ``fresh=True`` guarantees a private writable array (the accumulator
    the caller mutates in place); ``fresh=False`` may return a read-only
    view into shared memory (used only as a right-hand side).
    """
    if manifest["kind"] == "shm":
        arrays = _WORKER_SOURCES["arrays"]
        array = arrays.get(manifest["name"])
        if array is None:
            from repro.kernel import shm as _shm

            array, segment = _shm.attach_array(manifest)
            _WORKER_SOURCES["segments"][manifest["name"]] = segment
            arrays[manifest["name"]] = array
        chunk = array[lo:hi]
        return np.array(chunk, dtype=np.int64) if fresh else chunk
    dtype = np.dtype(manifest["dtype"])
    count = hi - lo
    chunk = np.fromfile(
        manifest["path"],
        dtype=dtype,
        count=count,
        offset=manifest["offset"] + lo * dtype.itemsize,
    )
    if len(chunk) != count:
        raise OSError(
            f"short read from {manifest['path']}: wanted rows [{lo}, {hi}), "
            f"got {len(chunk)}"
        )
    return chunk if chunk.dtype == np.int64 else chunk.astype(np.int64)


def count_cells_chunk(
    sources: dict, lo: int, hi: int
) -> tuple[list[int], list[int]]:
    """Sparse joint-cell counts for rows ``[lo, hi)`` of a scan's sources.

    The ingest worker of the lattice scan (:mod:`repro.subgroup.search`):
    folds every protected column plus the prediction column into one
    row-major combined code per row — the same mixed-radix fold as
    :func:`repro.kernel.contingency.combined_codes` — and returns the
    observed ``(code, count)`` pairs.  ``sources`` carries the scan
    ``token``, per-column manifests under ``columns``, their full-schema
    ``n_categories``, and a ``predictions`` manifest.  Counts are plain
    integers, so the parent's merge (integer addition per cell) is
    independent of how rows were chunked across workers.
    """
    _ensure_token(sources["token"])
    manifests = sources["columns"]
    n_categories = sources["n_categories"]
    combined = _read_int64(manifests[0], lo, hi, fresh=True)
    for manifest, n_cats in zip(manifests[1:], n_categories[1:]):
        combined *= n_cats
        combined += _read_int64(manifest, lo, hi, fresh=False)
    combined *= 2
    combined += _read_int64(sources["predictions"], lo, hi, fresh=False)
    codes, counts = np.unique(combined, return_counts=True)
    return [int(c) for c in codes], [int(c) for c in counts]


def read_spills(spill_dir) -> list[dict]:
    """Parse every spill file in a directory, tolerantly.

    Returns one ``{"created": float | None, "spans": [...], "deltas":
    [...]}`` per readable file.  Torn lines (killed workers) are
    skipped; a file that contributed nothing parseable is omitted.  The
    parent pairs this with :meth:`Tracer.absorb` (``created`` gives the
    wall-clock offset) and :meth:`MetricsRegistry.merge_delta`.
    """
    spills = []
    try:
        paths = sorted(Path(spill_dir).glob("chunk-*.jsonl"))
    except OSError:
        return []
    for path in paths:
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            continue
        created = None
        spans: list[dict] = []
        deltas: list[dict] = []
        for raw in text.splitlines():
            if not raw.strip():
                continue
            try:
                line = json.loads(raw)
            except json.JSONDecodeError:
                continue  # torn by a killed worker
            if not isinstance(line, dict):
                continue
            kind = line.get("kind")
            if kind in ("trace_meta", "spill_meta"):
                if created is None and isinstance(
                    line.get("created"), (int, float)
                ):
                    created = float(line["created"])
            elif kind == "span":
                spans.append(line)
            elif kind == "metrics_delta" and isinstance(
                line.get("delta"), dict
            ):
                deltas.append(line["delta"])
        if created is None and not spans and not deltas:
            continue
        spills.append({"created": created, "spans": spans, "deltas": deltas})
    return spills


def chunk_ranges(start: int, total: int, chunk: int) -> list[tuple[int, int]]:
    """Half-open index ranges covering [start, total), aligned so every
    boundary (except possibly ``start``) is an absolute multiple of
    ``chunk`` — the alignment that keeps parallel batches identical to
    serial ones."""
    ranges = []
    index = start
    while index < total:
        end = min(((index // chunk) + 1) * chunk, total)
        ranges.append((index, end))
        index = end
    return ranges


def pruned_ranges(
    keep: list[bool], chunk: int, start: int = 0
) -> list[tuple[int, int]]:
    """:func:`chunk_ranges` minus the ranges with nothing left to score.

    The bound-aware scheduler of the scan: boundaries stay on the same
    absolute multiples of ``chunk`` whatever was pruned, but a range
    whose every subgroup was pruned is never dispatched, so with
    ``jobs=N`` the workers only ever receive chunks that contain live
    work.
    """
    return [
        (lo, hi)
        for lo, hi in chunk_ranges(start, len(keep), chunk)
        if any(keep[lo:hi])
    ]
