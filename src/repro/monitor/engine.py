"""The monitoring fleet engine: many streams, one vectorized data plane.

Section IV.E of the paper (and Wachter et al., PAPERS.md) frame
compliance as a standing obligation: summary statistics must be
re-evaluated continuously as the population drifts.  The legacy
:class:`~repro.streaming.monitor.FairnessMonitor` met the letter of
that — one stream, windows buffered through Python lists, a fresh
accumulator rebuilt per window, a naive per-window threshold test — but
not the scale.  :class:`MonitorFleet` is the production engine behind
it:

* **Vectorized ingest.**  Chunks stay numpy arrays end to end: each
  observed chunk is encoded *once, at ingest* into joint-contingency
  code space (one fleet-persistent
  :class:`~repro.kernel.codes.CategoryTable` per axis, shared by every
  stream), so closing a window is slicing integer code arrays plus one
  ``bincount`` folded into the stream's *cumulative*
  :class:`~repro.streaming.accumulator.AuditAccumulator` via
  :meth:`~repro.streaming.accumulator.AuditAccumulator.ingest_codes`.
  Windows close by subtracting the previous base state
  (:meth:`~repro.streaming.accumulator.AuditAccumulator.diff`), and
  eligible configs are scored straight from the cell delta
  (:meth:`MonitorFleet._evaluate_cells`), so window evaluation is
  O(cells), not O(rows), and no row is ever re-encoded.

* **Fleet multiplexing.**  N named streams share the code tables and
  one entry point (:meth:`observe`); ready windows close round-robin
  and the drift statistics for *all* of them are computed in one
  :mod:`repro.stats.batch` call over a (windows × metrics × groups)
  matrix rather than per-stream scalar loops.

* **Sequential-testing-aware alerts.**  Repeated window tests inflate
  false alarms (Weerts et al., PAPERS.md); the
  :class:`~repro.core.config.MonitorConfig` detectors temper that:
  ``"threshold"`` is the legacy rule (bit-identical), ``"spending"``
  is an alpha-spending sequential z-test (Pocock-style per-window
  budgets, Bonferroni across groups) on the batched statistics, and
  ``"cusum"`` accumulates small sustained gap shifts.  At most one
  :class:`~repro.streaming.monitor.DriftEvent` fires per
  (window, metric), attributed to the first alarming detector in
  :data:`~repro.core.config.MONITOR_DETECTORS` order.

Equivalence is the design anchor: with the default
``detectors=("threshold",)`` a fleet's per-stream window gaps,
violations, and drift events are byte-identical to N independent
legacy monitors run serially on the same per-stream data
(``benchmarks/bench_m1_monitor.py`` asserts this before any timing
guard).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.core.config import (
    MONITOR_DETECTORS,
    AuditConfig,
    MonitorConfig,
)
from repro.exceptions import AuditError
from repro.kernel.codes import CategoryTable
from repro.observability.metrics import get_metrics
from repro.observability.trace import get_tracer
from repro.stats.batch import batch_two_proportion_z, batch_wilson_interval
from repro.streaming.accumulator import AuditAccumulator
from repro.streaming.monitor import DriftEvent, WindowResult
from repro.streaming.stream import finalize

__all__ = ["MonitorFleet", "StreamState"]

#: battery metrics the O(cells) window scorer reproduces straight from
#: a cell delta.  The conditional metrics and calibration are listed
#: because without a strata column or probability scores — the only
#: regime the fast path accepts — the materialised audit records them
#: as skipped findings with no result, exactly what omitting them does.
_FAST_SAFE_METRICS = frozenset({
    "demographic_parity",
    "conditional_statistical_parity",
    "equal_opportunity",
    "equalized_odds",
    "demographic_disparity",
    "conditional_demographic_disparity",
    "predictive_parity",
    "treatment_equality",
    "false_positive_rate_parity",
    "overall_accuracy_equality",
    "disparate_impact_ratio",
    "calibration_within_groups",
})


#: numerator/denominator pieces of the one-rate-per-group confusion
#: metrics: (denominator tally indices, numerator tally index)
_RATE_PIECES = {
    "equal_opportunity": ((2, 3), 2),
    "predictive_parity": ((2, 4), 2),
    "treatment_equality": ((3, 4), 3),
    "false_positive_rate_parity": ((4, 5), 4),
}


def _fast_metric(metric, groups, tallies, multi, has_label):
    """Score one battery metric over one attribute's per-group tallies.

    ``tallies[group]`` is ``[n, pred_pos, tp, fn, fp, tn]`` and
    ``groups`` is repr-sorted — the library-wide deterministic group
    order, so rates divide the same Python ints in the same order as
    the kernel-backed metric functions and every float is bit-identical
    to a materialised audit.  Returns ``(gap, contrast_rows)`` or
    ``None`` where the audit would record a skipped finding with no
    result: fewer than two groups, missing labels, or a group with an
    empty denominator (:class:`~repro.exceptions.InsufficientDataError`
    territory).
    """
    if metric in ("demographic_parity", "disparate_impact_ratio"):
        if not multi:
            return None
        stats = [(g, tallies[g][0], tallies[g][1]) for g in groups]
        rates = [p / n for _g, n, p in stats]
        return float(max(rates) - min(rates)), tuple(stats)
    if metric == "demographic_disparity":
        stats = [(g, tallies[g][0], tallies[g][1]) for g in groups]
        worst = 0.0
        for _g, n, p in stats:
            short = 0.5 - p / n
            if short > worst:
                worst = short
        return float(worst), tuple(stats)
    if not has_label or not multi:
        return None
    if metric == "equalized_odds":
        tpr, fpr, stats = [], [], []
        for g in groups:
            t = tallies[g]
            pos, neg = t[2] + t[3], t[4] + t[5]
            if pos == 0 or neg == 0:
                return None
            tpr.append(t[2] / pos)
            fpr.append(t[4] / neg)
            stats.append((g, pos, t[2]))
        gap = max(max(tpr) - min(tpr), max(fpr) - min(fpr))
        return float(gap), tuple(stats)
    if metric == "overall_accuracy_equality":
        stats = [
            (g, tallies[g][0], tallies[g][2] + tallies[g][5]) for g in groups
        ]
        rates = [p / n for _g, n, p in stats]
        return float(max(rates) - min(rates)), tuple(stats)
    pieces = _RATE_PIECES.get(metric)
    if pieces is None:
        return None  # conditional_* / calibration: skipped in this regime
    (a, b), num = pieces
    stats = []
    for g in groups:
        t = tallies[g]
        n = t[a] + t[b]
        if n == 0:
            return None
        stats.append((g, n, t[num]))
    rates = [p / n for _g, n, p in stats]
    return float(max(rates) - min(rates)), tuple(stats)


class StreamState:
    """Per-stream monitoring state inside a :class:`MonitorFleet`.

    Exposed read-only through :meth:`MonitorFleet.stream`; mutate it
    only through the fleet.  ``windows`` and ``drift_events`` are the
    stream's full histories, ``rows_seen`` counts rows already folded
    into closed windows, ``buffered`` the rows queued for the next one.
    """

    __slots__ = (
        "name",
        "acc",
        "base",
        "queue",
        "buffered",
        "rows_seen",
        "windows_closed",
        "windows",
        "drift_events",
        "gap_history",
        "gap_buffer",
        "baseline_counts",
        "looks",
        "cusum_hi",
        "cusum_lo",
    )

    def __init__(self, name: str, acc: AuditAccumulator):
        self.name = name
        #: cumulative contingency state over every row ever observed
        self.acc = acc
        #: the cumulative state at the last window close (diff base)
        self.base = acc.copy()
        #: FIFO of pending chunk dicts (dim name -> numpy array)
        self.queue: deque = deque()
        self.buffered = 0
        self.rows_seen = 0
        self.windows_closed = 0
        self.windows: list[WindowResult] = []
        self.drift_events: list[DriftEvent] = []
        #: per-metric gap trajectory (threshold/cusum baselines)
        self.gap_history: dict[str, list[float]] = {}
        #: gap_history mirrored into amortised float64 buffers so the
        #: running-baseline sum never reconverts the list: key ->
        #: [buffer, filled]; buffer[:filled] == gap_history[key]
        self.gap_buffer: dict[str, list] = {}
        #: per-metric cumulative {group: [n, positives]} (spending baseline)
        self.baseline_counts: dict[str, dict] = {}
        #: per-metric sequential-test look counters (alpha spending)
        self.looks: dict[str, int] = {}
        self.cusum_hi: dict[str, float] = {}
        self.cusum_lo: dict[str, float] = {}

    def __repr__(self) -> str:
        return (
            f"StreamState(name={self.name!r}, rows_seen={self.rows_seen}, "
            f"buffered={self.buffered}, windows={len(self.windows)}, "
            f"drift_events={len(self.drift_events)})"
        )


class _Pending:
    """One closed-but-unresolved window awaiting the batched drift pass."""

    __slots__ = (
        "state",
        "index",
        "start",
        "end",
        "gaps",
        "violations",
        "contrasts",
        "decisions",
        "events",
    )

    def __init__(self, state, index, start, end, gaps, violations, contrasts):
        self.state = state
        self.index = index
        self.start = start
        self.end = end
        self.gaps = gaps
        self.violations = violations
        #: per metric key: ((group, n, positives), ...) from the window
        self.contrasts = contrasts
        self.decisions: dict[str, dict] = {}
        self.events: list[DriftEvent] = []


class MonitorFleet:
    """N named monitoring streams over one vectorized data plane.

    Parameters
    ----------
    protected:
        Ordered protected-attribute names, shared by every stream.
    config:
        Audit configuration for each window's battery run; window
        audits and offline audits share one config type by design.
        ``config.monitor`` supplies the monitoring settings unless
        ``monitor`` is passed explicitly.
    monitor:
        The :class:`~repro.core.config.MonitorConfig` governing window
        size and drift detectors (overrides ``config.monitor``).
    label / audits_labels:
        As on :class:`~repro.streaming.accumulator.AuditAccumulator`.

    Examples
    --------
    >>> fleet = MonitorFleet(["sex"], monitor=MonitorConfig(window=200))
    >>> closed = fleet.observe("checkout", y_true=y, predictions=p,
    ...                        protected={"sex": sex})  # doctest: +SKIP
    """

    def __init__(
        self,
        protected,
        *,
        config: AuditConfig | None = None,
        monitor: MonitorConfig | None = None,
        label: str | None = "outcome",
        audits_labels: bool = False,
    ):
        self.config = config if config is not None else AuditConfig()
        if monitor is None:
            monitor = self.config.monitor
        self.monitor = monitor if monitor is not None else MonitorConfig()
        self.protected = tuple(protected)
        if not self.protected:
            raise AuditError("fleet requires protected attributes")
        self.label = label
        self.audits_labels = bool(audits_labels)
        if self.audits_labels and self.label is None:
            raise AuditError("a data audit (audits_labels) requires a label")
        self._dims = self._new_accumulator()._dims
        # shared append-only tables: codes stay valid across windows and
        # streams
        self._tables = {dim: CategoryTable() for dim in self._dims}
        self._streams: dict[str, StreamState] = {}
        # window scoring strategy: when the config rules out everything
        # the O(cells) scorer cannot reproduce — fault injection, a
        # strata column, battery metrics outside _FAST_SAFE_METRICS —
        # windows are scored straight from their cell deltas; otherwise
        # each delta is materialised through the full audit battery
        battery: tuple | None = None
        if self.config.faults is None and self.config.strata is None:
            candidate = self.config.battery()
            if all(metric in _FAST_SAFE_METRICS for metric in candidate):
                battery = candidate
        self._battery = battery
        # the subset the fast scorer actually iterates: metrics that
        # _fast_metric unconditionally skips in this fleet's layout
        # (conditional_*/calibration always; the confusion-matrix
        # metrics when no separate label is tracked) never score, so
        # drop them once here instead of re-deciding every window
        self._fast_battery: tuple = ()
        if battery is not None:
            has_label = self.label is not None and not self.audits_labels
            scoreable = frozenset(
                ("demographic_parity", "disparate_impact_ratio",
                 "demographic_disparity")
            ) | (
                frozenset(
                    ("equal_opportunity", "equalized_odds",
                     "predictive_parity", "treatment_equality",
                     "false_positive_rate_parity",
                     "overall_accuracy_equality")
                ) if has_label else frozenset()
            )
            self._fast_battery = tuple(
                metric for metric in battery if metric in scoreable
            )

    # -- stream registry -----------------------------------------------------

    def _new_accumulator(self) -> AuditAccumulator:
        return AuditAccumulator(
            self.protected,
            strata=self.config.strata,
            label=self.label,
            audits_labels=self.audits_labels,
        )

    def add_stream(self, name: str) -> StreamState:
        """Register (or fetch) the named stream and return its state."""
        if not isinstance(name, str) or not name:
            raise AuditError("stream name must be a non-empty string")
        state = self._streams.get(name)
        if state is None:
            state = StreamState(name, self._new_accumulator())
            self._streams[name] = state
        return state

    def stream(self, name: str) -> StreamState:
        """The named stream's state; raises for unknown streams."""
        state = self._streams.get(name)
        if state is None:
            raise AuditError(f"unknown stream {name!r}")
        return state

    @property
    def stream_names(self) -> tuple[str, ...]:
        return tuple(self._streams)

    # -- ingestion -----------------------------------------------------------

    def observe(
        self,
        stream: str,
        y_true=None,
        predictions=None,
        protected=None,
        strata=None,
    ) -> list[WindowResult]:
        """Queue aligned arrays on a stream; return the windows it closed.

        Unknown stream names auto-register.  Arrays are queued as numpy
        chunks — never converted to Python lists — and folded into code
        space only when a window closes.
        """
        state = self.add_stream(stream)
        columns = self._validate_chunk(y_true, predictions, protected, strata)
        n = len(next(iter(columns.values())))
        if n:
            state.queue.append(self._encode_chunk(columns))
            state.buffered += n
            get_metrics().counter(
                "streaming.monitor_rows", stream=state.name
            ).inc(n)
        closed = self.poll()
        return [w for w in closed if w.stream == state.name]

    def _validate_chunk(self, y_true, predictions, protected, strata):
        if protected is None:
            raise AuditError("observe requires the protected value arrays")
        columns: dict[str, np.ndarray] = {}
        for name in self.protected:
            if name not in protected:
                raise AuditError(f"missing protected column {name!r}")
            columns[name] = np.asarray(protected[name])
        if self.config.strata is not None:
            if strata is None:
                raise AuditError(
                    f"monitor tracks strata {self.config.strata!r}; "
                    "pass the strata array"
                )
            columns["__strata__"] = np.asarray(strata)
        if self.label is not None:
            if y_true is None:
                raise AuditError("monitor tracks labels; pass y_true")
            columns["__label__"] = np.asarray(y_true)
        if not self.audits_labels:
            if predictions is None:
                raise AuditError("pass the predictions to monitor")
            columns["__prediction__"] = np.asarray(predictions)
        lengths = {len(arr) for arr in columns.values()}
        if len(lengths) != 1:
            raise AuditError("observed arrays must share one length")
        return columns

    def poll(self) -> list[WindowResult]:
        """Close every ready window, round-robin across streams.

        Each sweep closes at most one window per stream so no stream
        starves another; all windows closed in one call share a single
        batched drift-statistics pass.
        """
        window = self.monitor.window
        pending: list[_Pending] = []
        progressed = True
        while progressed:
            progressed = False
            for state in self._streams.values():
                if state.buffered >= window:
                    pending.append(self._close_window(state, window))
                    progressed = True
        return self._finalize_pending(pending)

    def flush(self, stream: str | None = None):
        """Close the partial window left on one stream (or on all).

        With a ``stream`` name returns that stream's
        :class:`~repro.streaming.monitor.WindowResult` or ``None``;
        with no argument flushes every stream and returns the list of
        closed windows.
        """
        if stream is not None:
            names = [self.stream(stream).name]
        else:
            names = list(self._streams)
        pending = []
        for name in names:
            state = self._streams[name]
            if state.buffered > 0:
                pending.append(self._close_window(state, state.buffered))
        results = self._finalize_pending(pending)
        if stream is not None:
            return results[0] if results else None
        return results

    # -- window evaluation ---------------------------------------------------

    def _take(self, state: StreamState, size: int) -> dict[str, np.ndarray]:
        """Dequeue exactly ``size`` rows as one array per dimension."""
        parts: dict[str, list] = {dim: [] for dim in self._dims}
        remaining = size
        queue = state.queue
        first = self._dims[0]
        while remaining > 0:
            chunk = queue[0]
            n = len(chunk[first])
            if n <= remaining:
                queue.popleft()
                for dim in self._dims:
                    parts[dim].append(chunk[dim])
                remaining -= n
            else:
                for dim in self._dims:
                    parts[dim].append(chunk[dim][:remaining])
                queue[0] = {
                    dim: chunk[dim][remaining:] for dim in self._dims
                }
                remaining = 0
        state.buffered -= size
        return {
            dim: (
                chunks[0]
                if len(chunks) == 1
                else np.concatenate(chunks)
            )
            for dim, chunks in parts.items()
        }

    def _encode_chunk(
        self, columns: dict[str, np.ndarray]
    ) -> dict[str, np.ndarray]:
        """Encode a whole observed chunk into fleet-shared code space.

        Chunks are encoded *once, at ingest* — the fleet's category
        tables only ever append, so the codes stay valid no matter how
        many windows later they are folded, and window closes reduce to
        slicing integer arrays.  Encoding whole chunks instead of
        window slices also amortises every per-call cost over the full
        chunk length.
        """
        return {dim: self._tables[dim].encode(columns[dim]) for dim in self._dims}

    def _fold(self, state: StreamState, codes: dict[str, np.ndarray]):
        """Count a window of codes against the tables' *current* categories
        — valid even after another stream grew a table, since categories
        only ever append."""
        state.acc.ingest_codes(
            [(self._tables[dim].categories, codes[dim]) for dim in self._dims]
        )

    def _close_window(self, state: StreamState, size: int) -> _Pending:
        arrays = self._take(state, size)
        index = state.windows_closed
        state.windows_closed += 1
        start = state.rows_seen
        state.rows_seen += size
        tracer = (
            self.config.tracer
            if self.config.tracer is not None
            else get_tracer()
        )
        with tracer.span(
            "streaming.window", stream=state.name, index=index, rows=size
        ):
            self._fold(state, arrays)
            delta = state.acc.diff(state.base)
            state.base.restore(state.acc.snapshot())
            gaps, violations, contrasts = self._evaluate(delta)
        return _Pending(
            state, index, start, state.rows_seen, gaps, violations, contrasts
        )

    def _evaluate(self, delta: AuditAccumulator):
        """Score one window's cell delta.

        When the config admits it (``self._battery`` is set) the delta
        is scored in O(cells) by :meth:`_evaluate_cells` — bit-identical
        gaps and contrasts without materialising rows or re-running the
        significance machinery the monitor discards.  Anything the fast
        scorer cannot faithfully reproduce (fault injection, strata,
        exotic battery subsets, non-binary outcome values) runs the full
        materialised audit instead.
        """
        if self._battery is not None:
            scored = self._evaluate_cells(delta)
            if scored is not None:
                return scored
        report = finalize(delta, self.config)
        gaps: dict[str, float] = {}
        violations: list[str] = []
        contrasts: dict[str, tuple] = {}
        for finding in report.findings:
            if finding.result is None:
                continue
            key = f"{finding.attribute}/{finding.metric}"
            gaps[key] = float(finding.result.gap)
            if finding.status == "violation":
                violations.append(key)
            group_stats = getattr(finding.result, "group_stats", ()) or ()
            contrasts[key] = tuple(
                (gs.group, int(gs.n), int(gs.positives))
                for gs in group_stats
            )
        return gaps, tuple(violations), contrasts

    def _evaluate_cells(self, delta: AuditAccumulator):
        """O(cells) window scorer: the battery straight from the delta.

        One pass over the delta's cells marginalises the joint counts
        into per-attribute ``[n, pred_pos, tp, fn, fp, tn]`` tallies;
        :func:`_fast_metric` then reproduces each battery metric's gap
        and group contrasts from the same integer counts the
        materialised audit would derive, in the same repr-sorted group
        order, so every float matches bit for bit.  Returns ``None`` —
        deferring to the materialised audit — when an outcome or label
        value is not binary, since the full battery's validation
        behaviour is the contract there.
        """
        dims = delta._dims
        n_attrs = len(self.protected)
        pred_axis = len(dims) - 1
        has_label = self.label is not None and not self.audits_labels
        label_axis = dims.index("__label__") if has_label else None
        tallies: list[dict] = [{} for _ in range(n_attrs)]
        for key, count in delta._cells.items():
            pred = key[pred_axis]
            if pred != 0 and pred != 1:
                return None
            y = None
            if has_label:
                y = key[label_axis]
                if y != 0 and y != 1:
                    return None
            for axis in range(n_attrs):
                tally = tallies[axis].get(key[axis])
                if tally is None:
                    tally = tallies[axis][key[axis]] = [0, 0, 0, 0, 0, 0]
                tally[0] += count
                if pred == 1:
                    tally[1] += count
                if y is not None:
                    if y == 1:
                        if pred == 1:
                            tally[2] += count
                        else:
                            tally[3] += count
                    elif pred == 1:
                        tally[4] += count
                    else:
                        tally[5] += count
        gaps: dict[str, float] = {}
        contrasts: dict[str, tuple] = {}
        for axis, attribute in enumerate(self.protected):
            by_group = tallies[axis]
            groups = sorted(by_group, key=repr)
            multi = len(groups) >= 2
            for metric in self._fast_battery:
                scored = _fast_metric(
                    metric, groups, by_group, multi, has_label
                )
                if scored is None:
                    continue
                gap, stats = scored
                key = f"{attribute}/{metric}"
                gaps[key] = gap
                contrasts[key] = stats
        return gaps, (), contrasts

    # -- drift resolution ----------------------------------------------------

    def _resolve_drift(self, pending: list[_Pending]) -> None:
        """Decide drift for every closed window in one batched pass.

        Pass 1 walks windows in close order doing the inherently
        sequential bookkeeping — running baselines, alpha-spending look
        counters, CUSUM state — while collecting every
        (window × metric × group) contrast into flat count vectors.
        One :func:`~repro.stats.batch.batch_two_proportion_z` +
        :func:`~repro.stats.batch.batch_wilson_interval` call then
        scores them all, and pass 2 turns the scores into per-window
        detector decisions.
        """
        cfg = self.monitor
        detectors = cfg.detectors
        use_threshold = "threshold" in detectors
        use_spending = "spending" in detectors
        use_cusum = "cusum" in detectors
        cusum_k = cfg.resolved_cusum_k()
        cusum_h = cfg.resolved_cusum_h()

        successes_w: list[int] = []
        trials_w: list[int] = []
        successes_b: list[int] = []
        trials_b: list[int] = []
        tests: list[tuple[dict, list[int], float]] = []

        for p in pending:
            state = p.state
            for key, gap in p.gaps.items():
                history = state.gap_history.setdefault(key, [])
                buf_entry = state.gap_buffer.get(key)
                if buf_entry is None:
                    buf_entry = state.gap_buffer[key] = [np.empty(16), 0]
                if history:
                    # same pairwise sum np.mean performs over the same
                    # float64 values, minus its dispatch overhead and
                    # the per-window list conversion — bit-identical
                    # baselines at a fraction of the cost
                    buf, filled = buf_entry
                    baseline = float(
                        np.add.reduce(buf[:filled]) / filled
                    )
                    delta = gap - baseline
                    # decisions are sparse: a dict materialises only
                    # when a detector fires (or a spending test queues),
                    # so null windows cost pass 2 nothing
                    decision = None
                    if use_threshold and abs(delta) > cfg.drift_threshold:
                        decision = {
                            "gap": gap, "baseline": baseline,
                            "delta": delta, "threshold": True,
                        }
                    if use_cusum:
                        hi = max(
                            0.0,
                            state.cusum_hi.get(key, 0.0) + delta - cusum_k,
                        )
                        lo = max(
                            0.0,
                            state.cusum_lo.get(key, 0.0) - delta - cusum_k,
                        )
                        if max(hi, lo) > cusum_h:
                            if decision is None:
                                decision = {
                                    "gap": gap, "baseline": baseline,
                                    "delta": delta,
                                }
                            decision["cusum"] = hi if hi >= lo else -lo
                            hi = lo = 0.0
                        state.cusum_hi[key] = hi
                        state.cusum_lo[key] = lo
                    if use_spending:
                        baseline_counts = state.baseline_counts.get(key, {})
                        rows: list[int] = []
                        for group, n, positives in p.contrasts.get(key, ()):
                            base = baseline_counts.get(group)
                            if n > 0 and base is not None and base[0] > 0:
                                rows.append(len(trials_w))
                                successes_w.append(positives)
                                trials_w.append(n)
                                successes_b.append(base[1])
                                trials_b.append(base[0])
                        if rows:
                            look = state.looks.get(key, 0) + 1
                            state.looks[key] = look
                            if decision is None:
                                decision = {
                                    "gap": gap, "baseline": baseline,
                                    "delta": delta,
                                }
                            tests.append(
                                (decision, rows, cfg.spending_allowance(look))
                            )
                    if decision is not None:
                        p.decisions[key] = decision
                history.append(gap)
                buf, filled = buf_entry
                if filled == len(buf):
                    grown = np.empty(2 * filled)
                    grown[:filled] = buf
                    buf_entry[0] = buf = grown
                buf[filled] = gap
                buf_entry[1] = filled + 1
                if use_spending:
                    bucket = state.baseline_counts.setdefault(key, {})
                    for group, n, positives in p.contrasts.get(key, ()):
                        entry = bucket.setdefault(group, [0, 0])
                        entry[0] += n
                        entry[1] += positives

        if tests:
            z, p_values = batch_two_proportion_z(
                successes_w, trials_w, successes_b, trials_b
            )
            ci_low, ci_high = batch_wilson_interval(successes_w, trials_w)
            for decision, rows, allowance in tests:
                best = max(rows, key=lambda r: abs(float(z[r])))
                # Bonferroni across the metric's groups keeps the
                # per-look spend within its allowance
                p_adj = min(1.0, float(p_values[best]) * len(rows))
                if p_adj <= allowance:
                    decision["spending"] = (
                        float(z[best]),
                        p_adj,
                        float(ci_low[best]),
                        float(ci_high[best]),
                    )

        order = [d for d in MONITOR_DETECTORS if d in detectors]
        for p in pending:
            for key, decision in p.decisions.items():
                attribute, metric = key.split("/", 1)
                for detector in order:
                    event = None
                    if detector == "threshold" and decision.get("threshold"):
                        event = DriftEvent(
                            window=p.index,
                            attribute=attribute,
                            metric=metric,
                            value=decision["gap"],
                            baseline=decision["baseline"],
                            delta=decision["delta"],
                        )
                    elif detector == "spending" and "spending" in decision:
                        statistic, p_adj, low, high = decision["spending"]
                        event = DriftEvent(
                            window=p.index,
                            attribute=attribute,
                            metric=metric,
                            value=decision["gap"],
                            baseline=decision["baseline"],
                            delta=decision["delta"],
                            reason="spending",
                            statistic=statistic,
                            p_value=p_adj,
                            ci_low=low,
                            ci_high=high,
                        )
                    elif detector == "cusum" and "cusum" in decision:
                        event = DriftEvent(
                            window=p.index,
                            attribute=attribute,
                            metric=metric,
                            value=decision["gap"],
                            baseline=decision["baseline"],
                            delta=decision["delta"],
                            reason="cusum",
                            statistic=decision["cusum"],
                        )
                    if event is not None:
                        p.events.append(event)
                        break

    def _finalize_pending(
        self, pending: list[_Pending]
    ) -> list[WindowResult]:
        if not pending:
            return []
        self._resolve_drift(pending)
        metrics = get_metrics()
        results: list[WindowResult] = []
        for p in pending:
            state = p.state
            result = WindowResult(
                index=p.index,
                start_row=p.start,
                end_row=p.end,
                gaps=p.gaps,
                violations=p.violations,
                drift=tuple(p.events),
                stream=state.name,
            )
            state.windows.append(result)
            state.drift_events.extend(p.events)
            metrics.counter(
                "streaming.windows_evaluated", stream=state.name
            ).inc()
            if p.events:
                metrics.counter(
                    "streaming.drift_events", stream=state.name
                ).inc(len(p.events))
                from repro.observability.events import get_event_bus

                bus = get_event_bus()
                for event in p.events:
                    bus.publish(
                        "monitor.drift",
                        stream=state.name,
                        rows=[p.start, p.end],
                        **event.to_dict(),
                    )
            results.append(result)
        return results

    # -- reporting -----------------------------------------------------------

    def summary(self) -> dict:
        """JSON-able digest of the whole fleet's session so far."""
        streams = {
            name: {
                "windows": len(state.windows),
                "rows_seen": state.rows_seen,
                "drift_events": [
                    event.to_dict() for event in state.drift_events
                ],
                "results": [window.to_dict() for window in state.windows],
            }
            for name, state in self._streams.items()
        }
        return {
            "streams": streams,
            "window_size": self.monitor.window,
            "drift_threshold": self.monitor.drift_threshold,
            "detectors": list(self.monitor.detectors),
            "windows": sum(len(s.windows) for s in self._streams.values()),
            "drift_events": sum(
                len(s.drift_events) for s in self._streams.values()
            ),
        }

    def markdown(self) -> str:
        """A short fleet monitoring report (Section IV.E evidence trail)."""
        total_windows = sum(
            len(s.windows) for s in self._streams.values()
        )
        total_events = sum(
            len(s.drift_events) for s in self._streams.values()
        )
        lines = [
            "# Fleet monitoring report",
            "",
            f"- streams: {len(self._streams)}",
            f"- windows evaluated: {total_windows} "
            f"(window size {self.monitor.window})",
            f"- drift threshold: {self.monitor.drift_threshold}",
            f"- detectors: {', '.join(self.monitor.detectors)}",
            f"- drift events: {total_events}",
        ]
        for name, state in self._streams.items():
            if not state.drift_events:
                continue
            lines.append("")
            lines.append(f"## Stream `{name}`")
            lines.append("")
            for event in state.drift_events:
                suffix = (
                    "" if event.reason == "threshold"
                    else f" [{event.reason}]"
                )
                lines.append(
                    f"- window {event.window}: `{event.attribute}` "
                    f"{event.metric} gap {event.value:.4f} vs baseline "
                    f"{event.baseline:.4f} (Δ {event.delta:+.4f}){suffix}"
                )
        lines.append("")
        if total_events:
            lines.append(
                "Drifted metrics mean the last full audit no longer "
                "describes the live system; Section IV.E calls for a "
                "re-audit."
            )
        else:
            lines.append(
                "No metric drifted beyond the threshold; the standing "
                "audit remains representative."
            )
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return (
            f"MonitorFleet(protected={list(self.protected)}, "
            f"streams={len(self._streams)}, "
            f"window={self.monitor.window}, "
            f"detectors={list(self.monitor.detectors)})"
        )
