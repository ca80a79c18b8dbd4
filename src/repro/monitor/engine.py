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
  stream), so closing a window is slicing integer code arrays.
  Eligible configs score a window straight from those codes
  (:meth:`MonitorFleet._evaluate_cells`): one ``bincount`` gives a
  dense (group × outcome cell) count delta over the tables' current
  sizes, and every metric's per-group rates are one matrix product of
  it.  Anything else builds the window's
  :class:`~repro.streaming.accumulator.AuditAccumulator` from the same
  codes and runs the full audit battery.

* **Fleet multiplexing.**  N named streams share the code tables and
  one entry point (:meth:`observe`); ready windows close round-robin
  and the drift statistics for *all* of them are computed in one
  :mod:`repro.stats.batch` call over a (windows × metrics × groups)
  matrix rather than per-stream scalar loops.

* **Drift state as arrays.**  Each stream's detector state — a
  (keys × windows) gap history whose row-wise means are the running
  baselines, CUSUM sums, look counters, per-group spending baselines —
  is indexed by (attribute, metric) key and group code, so resolving a
  window is a handful of vector operations (:class:`StreamState`).

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
from repro.stats.batch import _two_proportion_z, _wilson_interval
from repro.streaming.accumulator import AuditAccumulator
from repro.streaming.monitor import DriftEvent, WindowResult
from repro.streaming.stream import finalize

__all__ = ["MonitorFleet", "StreamState"]

#: per scored metric, the [denominator, numerator] of each group's rate
#: as weights over its outcome cells ``2 * label_bit + prediction_bit``
#: — [tn, fp, fn, tp]; a fleet without a separate label has only the
#: first two, [prediction 0, prediction 1].  equalized_odds contrasts on
#: its true-positive rate and also spreads the false-positive rate.
_RATES = {
    "demographic_parity": ((1, 1, 1, 1), (0, 1, 0, 1)),
    "disparate_impact_ratio": ((1, 1, 1, 1), (0, 1, 0, 1)),
    "demographic_disparity": ((1, 1, 1, 1), (0, 1, 0, 1)),
    "overall_accuracy_equality": ((1, 1, 1, 1), (1, 0, 0, 1)),
    "equal_opportunity": ((0, 0, 1, 1), (0, 0, 0, 1)),
    "equalized_odds": ((0, 0, 1, 1), (0, 0, 0, 1)),
    "predictive_parity": ((0, 1, 0, 1), (0, 0, 0, 1)),
    "treatment_equality": ((0, 1, 1, 0), (0, 0, 1, 0)),
    "false_positive_rate_parity": ((1, 1, 0, 0), (0, 1, 0, 0)),
}

#: the rate metrics that need no label distinct from the outcome
_LABEL_FREE = ("demographic_parity", "disparate_impact_ratio",
               "demographic_disparity")

#: battery metrics the array scorer reproduces: the rate metrics, and
#: those the materialised audit records as skipped with no result in
#: its regime (no strata column, no probability scores)
_FAST_SAFE_METRICS = frozenset(_RATES) | {
    "conditional_statistical_parity", "conditional_demographic_disparity",
    "calibration_within_groups",
}

#: signs of a gap delta in the CUSUM upper and lower sums
_SIDES = np.array([[1.0], [-1.0]])


class StreamState:
    """Per-stream monitoring state inside a :class:`MonitorFleet`.

    Exposed read-only through :meth:`MonitorFleet.stream`; mutate it
    only through the fleet.  ``windows`` and ``drift_events`` are the
    stream's full histories, ``rows_seen`` counts rows already folded
    into closed windows, ``buffered`` the rows queued for the next one.

    Detector state is held in arrays over the fleet's metric ``keys``
    (``"attribute/metric"``): row ``k`` of ``gap_history`` holds key
    ``k``'s gaps in its first ``filled[k]`` columns, ``cusum[:, k]`` its
    CUSUM high and low, and ``look_counts[k]`` its alpha-spending looks.
    Key ``k`` is metric ``k % n_metrics`` of attribute ``k // n_metrics``;
    ``baseline_counts[a, g, m]`` is the spending baseline of that metric:
    the cumulative ``[n, positives]`` of the group with code ``g`` in
    attribute ``a``'s category table.
    """

    __slots__ = (
        "name", "keys", "queue", "buffered", "rows_seen", "windows_closed",
        "windows", "drift_events", "gap_history", "filled", "cusum",
        "look_counts", "baseline_counts",
    )

    def __init__(self, name: str, keys: tuple[str, ...], n_attributes: int):
        self.name = name
        self.keys = keys
        #: FIFO of pending chunk dicts (dim name -> code array)
        self.queue: deque = deque()
        self.buffered = 0
        self.rows_seen = 0
        self.windows_closed = 0
        self.windows: list[WindowResult] = []
        self.drift_events: list[DriftEvent] = []
        self.gap_history = np.empty((len(keys), 16))
        self.filled = np.zeros(len(keys), dtype=np.int64)
        self.cusum = np.zeros((2, len(keys)))
        self.look_counts = np.zeros(len(keys), dtype=np.int64)
        self.baseline_counts = np.zeros(
            (n_attributes, 0, len(keys) // n_attributes, 2), dtype=np.int64
        )

    @property
    def looks(self) -> dict[str, int]:
        """Alpha-spending looks per metric key; untested keys are absent."""
        return {
            self.keys[k]: int(self.look_counts[k])
            for k in np.flatnonzero(self.look_counts).tolist()
        }

    def __repr__(self) -> str:
        return (
            f"StreamState(name={self.name!r}, rows_seen={self.rows_seen}, "
            f"buffered={self.buffered}, windows={len(self.windows)}, "
            f"drift_events={len(self.drift_events)})"
        )


class _Pending:
    """One closed-but-unresolved window awaiting the batched drift pass."""

    __slots__ = (
        "state", "index", "start", "end", "violations", "rows", "gaps",
        "contrasts", "baseline", "delta", "fired", "cusum", "spending",
        "events",
    )

    def __init__(self, state, index, start, end, violations, rows, gaps,
                 contrasts):
        self.state = state
        self.index = index
        self.start = start
        self.end = end
        self.violations = violations
        #: the key row of each scored metric, and its gap, in key order
        self.rows = rows
        self.gaps = gaps
        #: (attribute, group code, [n, positives] per metric, whether
        #: the metric scored the group non-empty) of each group present,
        #: attribute-major in group order
        self.contrasts = contrasts
        #: which of MONITOR_DETECTORS fired, per gap position, and gap
        #: position -> (z, adjusted p, ci_low, ci_high) of spending alarms
        self.fired = None
        self.spending: dict[int, tuple] = {}
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
        #: the label/prediction axes the array scorer maps to 0/1 bits
        self._outcomes = tuple(
            dim for dim in self._dims if dim in ("__label__", "__prediction__")
        )
        self._streams: dict[str, StreamState] = {}
        # every (attribute, metric) a window can score, in battery order;
        # streams index their detector state by position in this list
        metrics = self.config.battery()
        self._pairs = tuple(
            (attribute, metric)
            for attribute in self.protected for metric in metrics
        )
        self._keys = tuple(f"{a}/{m}" for a, m in self._pairs)
        self._rows = {pair: row for row, pair in enumerate(self._pairs)}
        #: key row of each (metric, attribute), metric-major
        self._metric_major = np.arange(len(self._pairs)).reshape(
            len(self.protected), -1).T.ravel()
        #: spending allowance per look position in the horizon, grown
        #: on demand (the allowance has period ``horizon``)
        self._allowances = np.empty(0)
        # windows are scored straight from their codes unless the config
        # asks for what the array scorer cannot reproduce (fault
        # injection, a strata column, metrics outside _FAST_SAFE_METRICS)
        battery: tuple | None = None
        if self.config.faults is None and self.config.strata is None:
            if all(metric in _FAST_SAFE_METRICS for metric in metrics):
                battery = metrics
        self._battery = battery
        # one rate per battery metric, plus the false-positive rate
        # equalized_odds spreads alongside its own; metrics the array
        # scorer never scores (conditional, calibration, label metrics
        # without a separate label) get zero weights, so empty
        # denominators leave them unscored
        has_label = self.label is not None and not self.audits_labels
        rates = [
            metric if metric in _RATES
            and (has_label or metric in _LABEL_FREE) else None
            for metric in metrics
        ] + ["false_positive_rate_parity"]
        #: (outcome cells × rates) weights, one [denominator, numerator]
        #: column pair per rate
        self._weights = np.array([
            [_RATES[m][side][cell] if m else 0
             for m in rates for side in (0, 1)]
            for cell in range(2 ** len(self._outcomes))
        ], dtype=np.int64)
        self._dd = rates.index("demographic_disparity") \
            if "demographic_disparity" in rates else None
        #: the rate spread alongside each metric's own: equalized_odds
        #: takes the larger of its two
        self._partner = np.array([
            len(metrics) if m == "equalized_odds" else i
            for i, m in enumerate(rates[:-1])
        ], dtype=np.int64)
        #: the code-space layout the array scorer reads (see
        #: :meth:`_layout`), rebuilt whenever a table has grown
        self._cached_layout: tuple | None = None

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
            state = StreamState(name, self._keys, len(self.protected))
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
        chunks — never converted to Python lists — and encoded into
        code space once, here; windows close over those codes.
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

        The category tables only ever append, so the codes stay valid
        however many windows later they are counted; encoding whole
        chunks amortises every per-call cost over the chunk length.
        """
        return {dim: self._tables[dim].encode(columns[dim]) for dim in self._dims}

    def _layout(self) -> tuple:
        """``(sizes, offsets, order, attribute, code, cells)``: the array
        scorer's view of the tables at their current sizes.

        Row ``offsets[a] + c`` of the stacked count table is code ``c``
        of attribute ``a``; ``order`` lists the rows attribute-major and
        repr-sorted (the library-wide group order), ``attribute`` and
        ``code`` name each listed row.  ``cells`` maps outcome codes to
        the cell ``2 * label_bit + prediction_bit``, -1 if not binary.
        """
        sizes = tuple(len(table.categories) for table in self._tables.values())
        if self._cached_layout is None or self._cached_layout[0] != sizes:
            n_attrs = len(self.protected)
            offsets = np.cumsum((0,) + sizes[:n_attrs - 1], dtype=np.int64)
            order = np.concatenate([offset + np.argsort(np.array(
                [repr(v) for v in self._tables[name].categories], dtype=str
            ), kind="stable") for offset, name in zip(offsets, self.protected)])
            attribute = np.repeat(np.arange(n_attrs), sizes[:n_attrs])
            cells = np.zeros((), dtype=np.int64)
            for dim in self._outcomes:
                bits = np.array([
                    1 if v == 1 else 0 if v == 0 else -1
                    for v in self._tables[dim].categories
                ], dtype=np.int64)
                cells = np.where(
                    (cells[..., None] < 0) | (bits < 0), -1,
                    2 * cells[..., None] + bits,
                )
            self._cached_layout = (
                sizes, offsets[:, None], order, attribute,
                order - offsets[attribute], cells,
            )
        return self._cached_layout

    def _close_window(self, state: StreamState, size: int) -> _Pending:
        codes = self._take(state, size)
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
            scored = self._evaluate(codes)
        return _Pending(state, index, start, state.rows_seen, *scored)

    def _evaluate(self, codes: dict[str, np.ndarray]):
        """Score one window's codes: ``(violations, key rows, gaps,
        contrasts)`` as :class:`_Pending` holds them.

        When the config admits it (``self._battery`` is set) the array
        scorer :meth:`_evaluate_cells` reproduces the gaps and contrasts
        bit for bit.  Anything it cannot (fault injection, strata,
        non-binary outcome values) runs the full audit on an
        accumulator of the same codes instead.
        """
        if self._battery is not None:
            scored = self._evaluate_cells(codes)
            if scored is not None:
                return scored
        delta = self._new_accumulator()
        delta.ingest_codes(
            [(self._tables[dim].categories, codes[dim]) for dim in self._dims]
        )
        report = finalize(delta, self.config)
        _sizes, offsets, order, attribute, code, _cells = self._layout()
        n_metrics = len(self._pairs) // len(self.protected)
        violations, rows, gaps = [], [], []
        # contrasts over the stacked group rows, as the array scorer has
        tallies = np.zeros((len(order), n_metrics, 2), dtype=np.int64)
        scored = np.zeros((len(order), n_metrics), dtype=bool)
        for finding in report.findings:
            if finding.result is None:
                continue
            row = self._rows[(finding.attribute, finding.metric)]
            if finding.status == "violation":
                violations.append(self._keys[row])
            axis, metric = divmod(row, n_metrics)
            categories = self._tables[finding.attribute].categories
            for gs in getattr(finding.result, "group_stats", ()) or ():
                group = offsets[axis, 0] + categories.index(gs.group)
                tallies[group, metric] = gs.n, gs.positives
                scored[group, metric] = gs.n > 0
            rows.append(row)
            gaps.append(float(finding.result.gap))
        present = scored[order].any(axis=1)
        order = order[present]
        return (
            tuple(violations),
            np.array(rows, dtype=np.int64),
            np.array(gaps, dtype=float),
            (attribute[present], code[present], tallies[order], scored[order]),
        )

    def _evaluate_cells(self, codes: dict[str, np.ndarray]):
        """Array window scorer: the battery straight from a window's codes.

        One ``bincount`` of (group row, outcome cell) is the window's
        dense count delta; its present groups, in repr order, times the
        :data:`_RATES` weights give every metric's per-group
        denominators and numerators, and segmented min/max reductions
        each attribute's gaps.  Rates divide the same integers as the
        kernel-backed metric functions, so every gap matches the
        materialised audit bit for bit.  Metrics the audit records as
        skipped — fewer than two groups, an empty denominator — are left
        out.  Returns ``None``, deferring to the materialised audit,
        when an outcome or label value is not binary.
        """
        sizes, offsets, order, attribute, code, cells = self._layout()
        n_attrs = len(self.protected)
        cell = cells[tuple(codes[dim] for dim in self._outcomes)]
        if (cell < 0).any():
            return None
        width = len(self._weights)
        joint = np.array([codes[name] for name in self.protected])
        joint = (joint + offsets) * width + cell
        counts = np.bincount(
            joint.ravel(), minlength=sum(sizes[:n_attrs]) * width
        ).reshape(-1, width)[order]
        present = counts.any(axis=1)
        groups = list(sizes[:n_attrs])
        if not present.all():
            counts = counts[present]
            attribute, code = attribute[present], code[present]
            groups = np.bincount(attribute, minlength=n_attrs).tolist()
        # per group and rate: [denominator, numerator]
        tallies = (counts @ self._weights).reshape(len(counts), -1, 2)
        dens, nums = tallies[..., 0], tallies[..., 1]
        # an empty denominator never scores, so dividing it by 1 instead
        # changes no gap
        rates = nums / np.maximum(dens, 1)
        starts = [sum(groups[:axis]) for axis in range(n_attrs)]
        low = np.minimum.reduceat(rates, starts)
        spread = np.maximum.reduceat(rates, starts) - low
        scored = np.minimum.reduceat(dens, starts) > 0
        if min(groups) < 2:
            scored[np.array(groups) < 2] = False
        gaps = np.maximum(spread[:, :-1], spread[:, self._partner])
        scored = scored[:, :-1] & scored[:, self._partner]
        if self._dd is not None:
            # max(0.5 - rate) is 0.5 - min(rate): the subtraction is
            # monotone, so the two round alike
            gaps[:, self._dd] = np.maximum(0.5 - low[:, self._dd], 0.0)
            scored[:, self._dd] = True
        # scored[a, m] is key row a * n_metrics + m
        return (
            (), np.flatnonzero(scored), gaps[scored],
            (attribute, code, tallies[:, :-1], scored[attribute]),
        )

    # -- drift resolution ----------------------------------------------------

    def _allowance(self, looks: np.ndarray) -> np.ndarray:
        """The spending allowance of each 1-based look number, computed
        once per position in the horizon (the allowance's period)."""
        positions = (looks - 1) % self.monitor.horizon
        known = len(self._allowances)
        last = int(positions.max())
        if last >= known:
            self._allowances = np.concatenate([self._allowances, [
                self.monitor.spending_allowance(look)
                for look in range(known + 1, last + 2)
            ]])
        return self._allowances[positions]

    def _resolve_drift(self, pending: list[_Pending]) -> None:
        """Decide drift for every closed window in one batched pass.

        Pass 1 walks windows in close order doing the sequential
        bookkeeping — running baselines, look counters, CUSUM sums — as
        array operations over each window's keys, collecting every
        tested (window × metric × group) contrast.  One z-test batch
        scores them all (and one Wilson batch the alarms), and pass 2
        turns alarms into per-window drift events.
        """
        cfg = self.monitor
        detectors = cfg.detectors
        cusum_k = cfg.resolved_cusum_k()
        cusum_h = cfg.resolved_cusum_h()
        n_attrs = len(self.protected)
        #: per tested window: (window, tested gap positions, test sizes,
        #: allowances)
        tests: list[tuple] = []
        #: per tested window: [n, positives, base n, base positives] rows
        samples: list[np.ndarray] = []

        for p in pending:
            state = p.state
            rows, gaps = p.rows, p.gaps
            if not len(rows):
                continue
            filled = state.filled[rows]
            lengths = set(filled.tolist())
            seen = filled > 0
            # the running baseline: the same pairwise sum np.mean takes
            # over each key's gap history, one row-wise reduce per
            # history length
            baseline = np.zeros(len(rows))
            for length in lengths - {0}:
                pick = filled == length
                baseline[pick] = np.add.reduce(
                    state.gap_history[rows[pick], :length], axis=1
                ) / length
            p.baseline = baseline
            p.delta = delta = gaps - baseline
            p.fired = fired = np.zeros(
                (len(MONITOR_DETECTORS), len(rows)), dtype=bool
            )
            if "threshold" in detectors:
                fired[0] = seen & (np.abs(delta) > cfg.drift_threshold)
            if "cusum" in detectors:
                # rows: the upper and lower one-sided sums
                before = state.cusum[:, rows]
                track = before + delta * _SIDES - cusum_k
                track = np.where(track > 0.0, track, 0.0)
                fired[2] = alarm = seen & (track > cusum_h).any(axis=0)
                if alarm.any():
                    p.cusum = np.where(
                        track[0] >= track[1], track[0], -track[1]
                    )
                    track[:, alarm] = 0.0
                state.cusum[:, rows] = np.where(seen, track, before)
            if "spending" in detectors:
                attribute, code, tallies, scored = p.contrasts
                counts = state.baseline_counts
                grow = max(len(self._tables[a].categories)
                           for a in self.protected) - counts.shape[1]
                if grow > 0:
                    state.baseline_counts = counts = np.pad(counts, (
                        (0, 0), (0, max(grow, counts.shape[1])), (0, 0), (0, 0)
                    ))
                base = counts[attribute, code]
                # a scored group is non-empty, and one with baseline
                # counts implies its key has a gap history
                tested = scored & (base[..., 0] > 0)
                if tested.any():
                    # metric-major, then group rows (attribute-major):
                    # each tested key's rows form one contiguous run
                    metric, group = np.nonzero(tested.T)
                    runs = np.bincount(metric * n_attrs + attribute[group])
                    looked = np.flatnonzero(runs)
                    keys = self._metric_major[looked]
                    looks = state.look_counts[keys] + 1
                    state.look_counts[keys] = looks
                    # gap order is key order, so positions are ranks
                    tests.append((
                        p, np.searchsorted(rows, keys), runs[looked],
                        self._allowance(looks),
                    ))
                    samples.append(np.concatenate(
                        (tallies, base), axis=2
                    )[group, metric].T)
                # (attribute, group) rows are unique within a window
                counts[attribute, code] = base + tallies * scored[..., None]
            if max(lengths) == state.gap_history.shape[1]:
                state.gap_history = np.pad(
                    state.gap_history, ((0, 0), (0, max(lengths)))
                )
            state.gap_history[rows, filled] = gaps
            state.filled[rows] = filled + 1

        if tests:
            n, positives, base_n, base_positives = np.concatenate(
                samples, axis=1
            )
            z, p_values = _two_proportion_z(
                positives, n, base_positives, base_n
            )
            sizes = np.concatenate([size for _p, _at, size, _a in tests])
            starts = np.cumsum(sizes) - sizes
            # the first row of each test with the largest |z|
            magnitude = np.abs(z)
            peak = np.maximum.reduceat(magnitude, starts)
            best = np.minimum.reduceat(
                np.where(
                    magnitude == np.repeat(peak, sizes),
                    np.arange(len(z)), len(z),
                ),
                starts,
            )
            # Bonferroni across the metric's groups keeps the per-look
            # spend within its allowance
            adjusted = p_values[best] * sizes
            adjusted = np.where(adjusted < 1.0, adjusted, 1.0)
            allowances = np.concatenate([a for _p, _at, _s, a in tests])
            alarms = np.flatnonzero(adjusted <= allowances)
            if len(alarms):
                # only an alarm reports its window's Wilson interval
                best = best[alarms]
                ci_low, ci_high = _wilson_interval(
                    positives[best], n[best], 0.95
                )
                where = [(p, i) for p, at, _s, _a in tests for i in at]
                for j, t in enumerate(alarms.tolist()):
                    p, position = where[t]
                    p.fired[1, position] = True
                    p.spending[position] = (
                        float(z[best[j]]), float(adjusted[t]),
                        float(ci_low[j]), float(ci_high[j]),
                    )

        for p in pending:
            if p.fired is None or not p.fired.any():
                continue
            reasons = p.fired.argmax(axis=0)
            for i in np.flatnonzero(p.fired.any(axis=0)).tolist():
                attribute, metric = self._pairs[p.rows[i]]
                reason = MONITOR_DETECTORS[reasons[i]]
                extra = {}
                if reason == "spending":
                    statistic, p_adj, low, high = p.spending[i]
                    extra = dict(reason=reason, statistic=statistic,
                                 p_value=p_adj, ci_low=low, ci_high=high)
                elif reason == "cusum":
                    extra = dict(reason=reason, statistic=float(p.cusum[i]))
                p.events.append(DriftEvent(
                    window=p.index,
                    attribute=attribute,
                    metric=metric,
                    value=float(p.gaps[i]),
                    baseline=float(p.baseline[i]),
                    delta=float(p.delta[i]),
                    **extra,
                ))

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
                gaps=dict(zip(
                    [self._keys[row] for row in p.rows.tolist()],
                    p.gaps.tolist(),
                )),
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
