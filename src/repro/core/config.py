"""One frozen configuration object for every audit entry point.

Before this module, audit knobs were scattered across call signatures:
``FairnessAudit.__init__`` took tolerance/strata/policy/faults/tracer,
``audit_subgroups`` took max_order/min_size/alpha/jobs, and
``run_compliance_workflow`` repeated the audit subset again.  An
:class:`AuditConfig` captures all of them once, immutably, so batch
(:func:`repro.audit`), streaming (:func:`repro.streaming.audit_stream`),
monitoring (:class:`repro.streaming.FairnessMonitor`), and the subgroup
scan share one contract — and so a configuration can be fingerprinted,
serialised next to checkpoint state, and compared across runs.

The battery itself (which metrics run) is selected by name against the
canonical registry in :mod:`repro.core.audit` (``BATTERY_REGISTRY``);
``metrics=None`` means the full battery.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass

from repro._validation import (
    check_membership,
    check_nonnegative,
    check_positive_int,
    check_probability,
)
from repro.exceptions import AuditError
from repro.robustness import ExecutionPolicy

__all__ = [
    "AuditConfig",
    "MonitorConfig",
    "ScanConfig",
    "MONITOR_DETECTORS",
    "SCAN_STRATEGIES",
]

#: Subgroup-scan strategies accepted by :class:`ScanConfig`.
SCAN_STRATEGIES = ("exhaustive", "best_first", "incremental")

#: Drift detectors accepted by :class:`MonitorConfig`, in precedence
#: order (when several fire on one window/metric, the event records the
#: first).
MONITOR_DETECTORS = ("threshold", "spending", "cusum")

#: ExecutionPolicy fields that an AuditConfig round-trips through JSON.
_POLICY_FIELDS = (
    "deadline",
    "max_retries",
    "backoff_base",
    "backoff_factor",
    "backoff_cap",
    "backoff_jitter",
    "max_failures",
    "fail_fast",
)


@dataclass(frozen=True)
class ScanConfig:
    """Immutable settings for one subgroup-lattice scan.

    Mirrors :class:`AuditConfig` for the subgroup scanner: validated at
    construction, frozen, serialisable, and fingerprintable so results
    produced under different strategies never collide in caches.

    Parameters
    ----------
    strategy:
        ``"exhaustive"`` visits every subgroup; ``"best_first"`` runs
        the bound-driven branch-and-bound (provably the same flagged
        set); ``"incremental"`` additionally persists a
        :class:`~repro.subgroup.search.ScanState` so a grown dataset can
        be re-scored from the delta.
    max_order:
        Maximum conjunction order (number of attributes combined).
    min_size:
        Minimum subgroup size scored (and counted in the correction
        family).
    alpha:
        Significance level for flagging after correction.
    correction:
        Multiple-testing correction: ``"holm"``, ``"bh"``, or ``"none"``.
    checkpoint_every:
        Subgroups per scoring batch (and per pool dispatch with
        ``jobs > 1``); checkpoints are written per ingest chunk, not
        per batch (must be >= 1).
    jobs:
        Worker processes for counting/scoring (>= 1).
    bound_slack:
        Non-negative widening of the prune threshold: a subgroup is
        pruned only when its p-value lower bound exceeds
        ``alpha + bound_slack``.  ``0.0`` is already sound; slack buys
        extra headroom against floating-point edge effects at the cost
        of fewer pruned subgroups.
    """

    strategy: str = "exhaustive"
    max_order: int = 2
    min_size: int = 10
    alpha: float = 0.05
    correction: str = "holm"
    checkpoint_every: int = 64
    jobs: int = 1
    bound_slack: float = 0.0

    def __post_init__(self):
        check_membership(self.strategy, "strategy", SCAN_STRATEGIES)
        check_positive_int(self.max_order, "max_order")
        check_positive_int(self.min_size, "min_size")
        check_probability(self.alpha, "alpha")
        check_membership(self.correction, "correction", ("holm", "bh", "none"))
        check_positive_int(self.checkpoint_every, "checkpoint_every")
        check_positive_int(self.jobs, "jobs")
        check_nonnegative(self.bound_slack, "bound_slack")

    # -- derivation ----------------------------------------------------------

    def replace(self, **changes) -> "ScanConfig":
        """A new config with ``changes`` applied (the object is frozen)."""
        return dataclasses.replace(self, **changes)

    @classmethod
    def from_audit(cls, config: "AuditConfig", **overrides) -> "ScanConfig":
        """Derive a scan config from an :class:`AuditConfig`.

        When the audit config already carries an explicit ``scan``, that
        object (with ``overrides`` applied) wins; otherwise the shared
        subgroup knobs (``max_order``/``min_size``/``alpha``/
        ``correction``/``jobs``) are lifted into a fresh
        :class:`ScanConfig`.
        """
        if config.scan is not None:
            return config.scan.replace(**overrides) if overrides else config.scan
        base = cls(
            max_order=config.max_order,
            min_size=config.min_size,
            alpha=config.alpha,
            correction=config.correction,
            jobs=config.jobs,
        )
        return base.replace(**overrides) if overrides else base

    # -- serialisation -------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-able dict of every field."""
        return {
            "strategy": self.strategy,
            "max_order": self.max_order,
            "min_size": self.min_size,
            "alpha": self.alpha,
            "correction": self.correction,
            "checkpoint_every": self.checkpoint_every,
            "jobs": self.jobs,
            "bound_slack": self.bound_slack,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ScanConfig":
        """Rebuild a config written by :meth:`to_dict`."""
        payload = dict(payload)
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise AuditError(
                f"unknown ScanConfig fields: {sorted(unknown)}"
            )
        return cls(**payload)

    def fingerprint(self) -> str:
        """sha256 over every field — the result-cache key component.

        Includes ``strategy``, so exhaustive and best-first results are
        cached under distinct keys even for identical lattice settings.
        """
        return hashlib.sha256(
            json.dumps(self.to_dict(), sort_keys=True).encode()
        ).hexdigest()

    def equivalence_key(self) -> dict:
        """The fields that determine the flagged set and final findings.

        Strategy, parallelism, checkpoint cadence, and bound slack are
        execution details — two scans agreeing on this key must produce
        identical findings, corrections, and final checkpoint bytes.
        Scan checkpoints embed a hash of this key so state written under
        one lattice configuration refuses to resume under another.
        """
        return {
            "max_order": self.max_order,
            "min_size": self.min_size,
            "alpha": self.alpha,
            "correction": self.correction,
        }


@dataclass(frozen=True)
class MonitorConfig:
    """Immutable settings for continuous fairness monitoring.

    Mirrors :class:`ScanConfig` for the monitoring fleet
    (:class:`repro.monitor.MonitorFleet`): validated at construction,
    frozen, serialisable, and fingerprintable, so a monitoring session's
    alerting semantics can be recorded next to its evidence.

    Parameters
    ----------
    window:
        Rows per evaluation window.
    drift_threshold:
        Absolute change in a metric's gap, relative to the running
        baseline (mean of that metric's gap over previous windows),
        that the ``"threshold"`` detector flags.
    detectors:
        Which drift detectors run, a non-empty subset of
        :data:`MONITOR_DETECTORS`.  ``"threshold"`` is the legacy
        per-window rule; ``"spending"`` is an alpha-spending sequential
        z-test (Pocock-style per-window budgets over ``horizon``
        windows, so repeated testing does not inflate false alarms);
        ``"cusum"`` accumulates small sustained gap shifts in a
        CUSUM-style tracker.  At most one
        :class:`~repro.monitor.DriftEvent` fires per (window, metric),
        attributed to the first detector in this order that alarmed.
    alpha:
        Total type-I error budget the ``"spending"`` detector spreads
        over each ``horizon``-window cycle.
    horizon:
        Windows per alpha-spending cycle (the budget refreshes after
        ``horizon`` tested windows per metric).
    cusum_k:
        CUSUM drift allowance per window (the slack subtracted from
        each deviation before it accumulates).  ``None`` derives
        ``drift_threshold / 2``.
    cusum_h:
        CUSUM decision interval: an alarm fires when the accumulated
        one-sided deviation exceeds it.  ``None`` derives
        ``2 * drift_threshold``.
    """

    window: int = 500
    drift_threshold: float = 0.1
    detectors: tuple[str, ...] = ("threshold",)
    alpha: float = 0.05
    horizon: int = 200
    cusum_k: float | None = None
    cusum_h: float | None = None

    def __post_init__(self):
        check_positive_int(self.window, "window")
        if not 0 < self.drift_threshold <= 1:
            raise AuditError(
                f"drift_threshold must be in (0, 1], got "
                f"{self.drift_threshold!r}"
            )
        detectors = tuple(self.detectors)
        object.__setattr__(self, "detectors", detectors)
        if not detectors:
            raise AuditError("detectors must name at least one detector")
        for detector in detectors:
            check_membership(detector, "detectors", MONITOR_DETECTORS)
        if len(set(detectors)) != len(detectors):
            raise AuditError(f"duplicate detectors: {list(detectors)}")
        check_probability(self.alpha, "alpha")
        check_positive_int(self.horizon, "horizon")
        if self.cusum_k is not None:
            check_nonnegative(self.cusum_k, "cusum_k")
        if self.cusum_h is not None and self.cusum_h <= 0:
            raise AuditError(
                f"cusum_h must be positive, got {self.cusum_h!r}"
            )

    # -- derived detector parameters -----------------------------------------

    def resolved_cusum_k(self) -> float:
        """The CUSUM per-window allowance, defaulted off the threshold."""
        return (
            self.drift_threshold / 2.0
            if self.cusum_k is None
            else float(self.cusum_k)
        )

    def resolved_cusum_h(self) -> float:
        """The CUSUM decision interval, defaulted off the threshold."""
        return (
            2.0 * self.drift_threshold
            if self.cusum_h is None
            else float(self.cusum_h)
        )

    def spending_allowance(self, look: int) -> float:
        """The alpha budget window number ``look`` (1-based) may spend.

        Pocock-style spending function
        ``alpha(t) = alpha * ln(1 + (e - 1) * t)`` with ``t`` the
        fraction of the horizon consumed; the allowance is the budget
        *increment* between consecutive looks, so the alarms of a whole
        ``horizon``-window cycle spend at most ``alpha`` in total.
        Looks beyond the horizon start a fresh cycle.
        """
        import math

        if look < 1:
            raise AuditError(f"look must be >= 1, got {look}")
        position = (look - 1) % self.horizon + 1

        def spent(t: float) -> float:
            return self.alpha * math.log(1.0 + (math.e - 1.0) * t)

        return spent(position / self.horizon) - spent(
            (position - 1) / self.horizon
        )

    # -- derivation ----------------------------------------------------------

    def replace(self, **changes) -> "MonitorConfig":
        """A new config with ``changes`` applied (the object is frozen)."""
        return dataclasses.replace(self, **changes)

    # -- serialisation -------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-able dict of every field."""
        return {
            "window": self.window,
            "drift_threshold": self.drift_threshold,
            "detectors": list(self.detectors),
            "alpha": self.alpha,
            "horizon": self.horizon,
            "cusum_k": self.cusum_k,
            "cusum_h": self.cusum_h,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "MonitorConfig":
        """Rebuild a config written by :meth:`to_dict`."""
        payload = dict(payload)
        detectors = payload.pop("detectors", None)
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise AuditError(
                f"unknown MonitorConfig fields: {sorted(unknown)}"
            )
        if detectors is not None:
            payload["detectors"] = tuple(detectors)
        return cls(**payload)

    def fingerprint(self) -> str:
        """sha256 over every field — stable across processes."""
        return hashlib.sha256(
            json.dumps(self.to_dict(), sort_keys=True).encode()
        ).hexdigest()


@dataclass(frozen=True)
class AuditConfig:
    """Immutable settings shared by every audit entry point.

    Parameters
    ----------
    tolerance:
        Gap accepted as fair for every parity metric.
    strata:
        Name of a legitimate conditioning column for the conditional
        definitions; they are skipped when ``None``.
    metrics:
        Battery subset as a tuple of metric names from
        :data:`repro.core.audit.BATTERY_REGISTRY`; ``None`` runs the
        full battery.  Unknown names raise at construction time.
    min_stratum_group_size:
        Minimum per-group count within a stratum (Section IV.C guard).
    policy:
        :class:`~repro.robustness.ExecutionPolicy` supervising each
        stage; ``None`` uses the default fail-open policy.
    faults:
        Optional :class:`~repro.robustness.FaultInjector` (chaos hook).
        Not serialised by :meth:`to_dict`.
    tracer:
        Optional :class:`~repro.observability.Tracer`; ``None`` uses the
        process-current tracer.  Not serialised by :meth:`to_dict`.
    max_order / min_size / alpha / correction / jobs:
        Subgroup-scan knobs (:func:`repro.subgroup.audit_subgroups`):
        conjunction order, minimum subgroup size, significance level,
        multiple-testing correction (``"holm"``/``"bh"``/``"none"``),
        and worker processes.
    scan:
        Optional :class:`ScanConfig` controlling subgroup-scan strategy
        (exhaustive / best-first / incremental).  When set it wins over
        the loose subgroup knobs above; when ``None`` the scan derives
        its settings from them (see :meth:`ScanConfig.from_audit`).
        Omitted from :meth:`to_dict` when ``None`` so fingerprints of
        pre-existing configurations are unchanged.
    monitor:
        Optional :class:`MonitorConfig` for continuous monitoring
        (:class:`repro.monitor.MonitorFleet` and the legacy
        :class:`repro.streaming.FairnessMonitor` wrapper): window size,
        drift threshold, and the sequential-testing detectors.  Like
        ``scan``, omitted from :meth:`to_dict` when ``None``.
    """

    tolerance: float = 0.05
    strata: str | None = None
    metrics: tuple[str, ...] | None = None
    min_stratum_group_size: int = 5
    policy: ExecutionPolicy | None = None
    faults: object = None
    tracer: object = None
    max_order: int = 2
    min_size: int = 10
    alpha: float = 0.05
    correction: str = "holm"
    jobs: int = 1
    scan: ScanConfig | None = None
    monitor: MonitorConfig | None = None

    def __post_init__(self):
        if self.scan is not None and not isinstance(self.scan, ScanConfig):
            if isinstance(self.scan, dict):
                object.__setattr__(self, "scan", ScanConfig.from_dict(self.scan))
            else:
                raise AuditError(
                    "scan must be a ScanConfig (or a ScanConfig.to_dict() "
                    f"mapping), got {type(self.scan).__name__}"
                )
        if self.monitor is not None and not isinstance(
            self.monitor, MonitorConfig
        ):
            if isinstance(self.monitor, dict):
                object.__setattr__(
                    self, "monitor", MonitorConfig.from_dict(self.monitor)
                )
            else:
                raise AuditError(
                    "monitor must be a MonitorConfig (or a "
                    "MonitorConfig.to_dict() mapping), got "
                    f"{type(self.monitor).__name__}"
                )
        check_probability(self.tolerance, "tolerance")
        check_probability(self.alpha, "alpha")
        check_positive_int(self.jobs, "jobs")
        check_positive_int(self.max_order, "max_order")
        check_positive_int(self.min_size, "min_size")
        check_positive_int(
            self.min_stratum_group_size, "min_stratum_group_size"
        )
        if self.correction not in ("holm", "bh", "none"):
            raise AuditError(
                f"unknown correction {self.correction!r}; "
                "use 'holm', 'bh', or 'none'"
            )
        if self.metrics is not None:
            from repro.core.audit import battery_metrics

            battery_metrics(tuple(self.metrics))
            object.__setattr__(self, "metrics", tuple(self.metrics))

    # -- battery -------------------------------------------------------------

    def battery(self) -> tuple[str, ...]:
        """The metric names this configuration runs, registry-validated.

        Names resolve against the canonical
        :data:`repro.core.audit.BATTERY_REGISTRY`; ``metrics=None`` runs
        the full battery in registry order, an explicit subset runs in
        the order given (deduplicated).
        """
        from repro.core.audit import battery_metrics

        return battery_metrics(self.metrics)

    # -- derivation ----------------------------------------------------------

    def replace(self, **changes) -> "AuditConfig":
        """A new config with ``changes`` applied (the object is frozen)."""
        return dataclasses.replace(self, **changes)

    # -- serialisation -------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-able dict of every serialisable field.

        ``faults`` and ``tracer`` are process-local objects and are
        deliberately dropped; ``policy`` round-trips through its scalar
        fields (custom ``retryable``/``sleep``/``rng``/``stage_overrides``
        do not survive — they are process-local too).
        """
        payload = {
            "tolerance": self.tolerance,
            "strata": self.strata,
            "metrics": None if self.metrics is None else list(self.metrics),
            "min_stratum_group_size": self.min_stratum_group_size,
            "max_order": self.max_order,
            "min_size": self.min_size,
            "alpha": self.alpha,
            "correction": self.correction,
            "jobs": self.jobs,
            "policy": (
                None
                if self.policy is None
                else {
                    name: getattr(self.policy, name)
                    for name in _POLICY_FIELDS
                }
            ),
        }
        if self.scan is not None:
            payload["scan"] = self.scan.to_dict()
        if self.monitor is not None:
            payload["monitor"] = self.monitor.to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "AuditConfig":
        """Rebuild a config written by :meth:`to_dict`."""
        payload = dict(payload)
        policy = payload.pop("policy", None)
        metrics = payload.pop("metrics", None)
        scan = payload.pop("scan", None)
        monitor = payload.pop("monitor", None)
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise AuditError(
                f"unknown AuditConfig fields: {sorted(unknown)}"
            )
        return cls(
            metrics=None if metrics is None else tuple(metrics),
            policy=None if policy is None else ExecutionPolicy(**policy),
            scan=None if scan is None else ScanConfig.from_dict(scan),
            monitor=(
                None if monitor is None else MonitorConfig.from_dict(monitor)
            ),
            **payload,
        )

    def fingerprint(self) -> str:
        """sha256 over the serialisable fields — stable across processes.

        Streaming checkpoints embed this so accumulator state written
        under one configuration refuses to resume under another.
        """
        return hashlib.sha256(
            json.dumps(self.to_dict(), sort_keys=True).encode()
        ).hexdigest()
