"""Fairness audit engine: metric batteries over datasets and models.

A :class:`FairnessAudit` evaluates a configurable battery of the paper's
metrics over every protected attribute of a dataset (and, when more than
one protected attribute exists, over their intersection — the Section
IV.C drill-down), attaching statistical significance and legal screens to
each finding.  The output :class:`AuditReport` renders to markdown via
:mod:`repro.core.report`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from repro._validation import check_binary_array
from repro.core.config import AuditConfig
from repro.core.legal import FourFifthsFinding, four_fifths_rule
from repro.core.metrics import (
    calibration_within_groups,
    conditional_demographic_disparity,
    conditional_statistical_parity,
    demographic_disparity,
    demographic_parity,
    disparate_impact_ratio,
    equal_opportunity,
    equalized_odds,
    false_positive_rate_parity,
    overall_accuracy_equality,
    predictive_parity,
    treatment_equality,
)
from repro.core.types import ConditionalMetricResult, MetricResult
from repro.data.dataset import TabularDataset
from repro.exceptions import AuditError, InsufficientDataError, MetricError
from repro.observability.provenance import ProvenanceRecord
from repro.robustness import ExecutionPolicy, StageRunner

__all__ = [
    "AuditFinding",
    "AuditReport",
    "BatteryMetric",
    "BATTERY_REGISTRY",
    "FairnessAudit",
    "battery_metrics",
    "intersection_column",
]


@dataclass(frozen=True)
class BatteryMetric:
    """Registry entry for one battery metric: name plus what it needs.

    The flags drive the audit's skip decisions and let callers (CLI,
    docs, config validation) reason about a metric without importing its
    implementation.
    """

    name: str
    paper_section: str
    needs_labels: bool = False
    needs_strata: bool = False
    needs_probabilities: bool = False
    description: str = ""


#: Canonical registry of every battery metric, in canonical report
#: order.  This is the *single* source of battery names: AuditConfig
#: subsets, ``FairnessAudit.run``, the intersectional drill-down, and
#: the CLI ``--metric`` flag all validate against it.
BATTERY_REGISTRY: dict[str, BatteryMetric] = {
    entry.name: entry
    for entry in (
        BatteryMetric(
            "demographic_parity", "III.A",
            description="equal positive-prediction rates across groups",
        ),
        BatteryMetric(
            "conditional_statistical_parity", "III.B", needs_strata=True,
            description="parity within each legitimate stratum",
        ),
        BatteryMetric(
            "equal_opportunity", "III.C", needs_labels=True,
            description="equal true-positive rates across groups",
        ),
        BatteryMetric(
            "equalized_odds", "III.D", needs_labels=True,
            description="equal TPR and FPR across groups",
        ),
        BatteryMetric(
            "demographic_disparity", "III.E",
            description="share-of-positives vs share-of-population gap",
        ),
        BatteryMetric(
            "conditional_demographic_disparity", "III.F", needs_strata=True,
            description="demographic disparity within strata",
        ),
        BatteryMetric(
            "predictive_parity", "III.D", needs_labels=True,
            description="equal precision across groups",
        ),
        BatteryMetric(
            "treatment_equality", "III.D", needs_labels=True,
            description="equal FN/FP ratios across groups",
        ),
        BatteryMetric(
            "false_positive_rate_parity", "III.D", needs_labels=True,
            description="equal false-positive rates across groups",
        ),
        BatteryMetric(
            "overall_accuracy_equality", "III.D", needs_labels=True,
            description="equal accuracy across groups",
        ),
        BatteryMetric(
            "disparate_impact_ratio", "II.B",
            description="selection-rate ratio with the four-fifths screen",
        ),
        BatteryMetric(
            "calibration_within_groups", "III.D", needs_labels=True,
            needs_probabilities=True,
            description="equal score calibration across groups",
        ),
    )
}

#: legacy alias — the full battery as a name tuple
_BATTERY = tuple(BATTERY_REGISTRY)


def battery_metrics(subset=None) -> tuple[str, ...]:
    """Validate a battery subset against :data:`BATTERY_REGISTRY`.

    ``None`` returns the full battery in canonical order; an explicit
    subset keeps the caller's order (deduplicated) so existing reports
    that relied on a custom evaluation order stay stable.  Unknown
    names raise :class:`~repro.exceptions.AuditError`.
    """
    if subset is None:
        return _BATTERY
    names = list(dict.fromkeys(subset))
    unknown = [name for name in names if name not in BATTERY_REGISTRY]
    if unknown:
        raise AuditError(
            f"unknown battery metrics {unknown}; "
            f"known: {list(BATTERY_REGISTRY)}"
        )
    if not names:
        raise AuditError("battery subset is empty")
    return tuple(names)


#: battery metrics that compare predictions against ground-truth labels
_LABEL_METRICS = {
    "equal_opportunity": equal_opportunity,
    "equalized_odds": equalized_odds,
    "predictive_parity": predictive_parity,
    "treatment_equality": treatment_equality,
    "false_positive_rate_parity": false_positive_rate_parity,
    "overall_accuracy_equality": overall_accuracy_equality,
}


@dataclass(frozen=True)
class AuditFinding:
    """One (attribute, metric) evaluation within an audit.

    ``status`` is ``"ok"`` when the metric evaluated, ``"skipped"`` when
    it could not be computed (with the reason recorded), or ``"error"``
    when the metric *raised* — the supervised runner isolates the fault,
    captures its traceback here, and the rest of the battery continues.
    Audits never let one metric abort the whole battery; they surface it.
    """

    attribute: str
    metric: str
    status: str
    result: MetricResult | ConditionalMetricResult | None = None
    reason: str = ""
    four_fifths: FourFifthsFinding | None = None
    traceback: str = ""

    @property
    def satisfied(self) -> bool | None:
        """Metric verdict; None when the finding was skipped."""
        if self.result is None:
            return None
        return self.result.satisfied

    def to_dict(self) -> dict:
        """JSON-able dict (see :func:`repro.core.serialize.finding_to_dict`)."""
        from repro.core.serialize import finding_to_dict

        return finding_to_dict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "AuditFinding":
        """Rebuild a finding written by :meth:`to_dict`."""
        from repro.core.serialize import finding_from_dict

        return finding_from_dict(payload)


@dataclass
class AuditReport:
    """All findings of one audit run, with convenience accessors."""

    dataset_summary: dict
    tolerance: float
    findings: list = field(default_factory=list)
    intersectional_findings: list = field(default_factory=list)
    power_notes: dict = field(default_factory=dict)
    degradations: list = field(default_factory=list)
    provenance: ProvenanceRecord | None = None

    def all_findings(self) -> list[AuditFinding]:
        return list(self.findings) + list(self.intersectional_findings)

    def violations(self) -> list[AuditFinding]:
        """Findings whose metric evaluated and is violated."""
        return [f for f in self.all_findings() if f.satisfied is False]

    def passes(self) -> list[AuditFinding]:
        return [f for f in self.all_findings() if f.satisfied is True]

    def skipped(self) -> list[AuditFinding]:
        return [f for f in self.all_findings() if f.status == "skipped"]

    def errors(self) -> list[AuditFinding]:
        """Findings whose metric raised or timed out under supervision."""
        return [f for f in self.all_findings() if f.status == "error"]

    @property
    def degraded(self) -> bool:
        """True when any stage errored or timed out (paper V: a partial
        audit must say so)."""
        return bool(self.errors()) or bool(self.degradations)

    def finding(self, attribute: str, metric: str) -> AuditFinding:
        """Look up one finding by attribute and metric name."""
        for f in self.all_findings():
            if f.attribute == attribute and f.metric == metric:
                return f
        raise AuditError(
            f"no finding for attribute={attribute!r}, metric={metric!r}"
        )

    @property
    def is_clean(self) -> bool:
        """True when no evaluated metric is violated."""
        return not self.violations()

    def to_markdown(self) -> str:
        """Render via :func:`repro.core.report.render_markdown`."""
        from repro.core.report import render_markdown

        return render_markdown(self)

    def to_dict(self) -> dict:
        """JSON-able dict (see :func:`repro.core.serialize.report_to_dict`)."""
        from repro.core.serialize import report_to_dict

        return report_to_dict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "AuditReport":
        """Rebuild a report written by :meth:`to_dict`."""
        from repro.core.serialize import report_from_dict

        return report_from_dict(payload)


def _skip_reason(exc: Exception) -> str:
    """Human-readable skip reason, with the structured sparse-group
    evidence (paper IV.C) that :class:`InsufficientDataError` carries."""
    reason = str(exc)
    if isinstance(exc, InsufficientDataError) and exc.group is not None:
        reason += f" [group={exc.group}, n={exc.count}]"
    return reason


def intersection_column(
    dataset: TabularDataset, attributes: list[str], separator: str = "×"
) -> np.ndarray:
    """Combine protected columns into one subgroup label per row.

    ``["gender", "race"]`` → values like ``"female×caucasian"``.
    """
    if len(attributes) < 2:
        raise AuditError("intersection requires at least two attributes")
    # Concatenate the (few) category labels, not the (many) rows:
    # one lookup-table index per row instead of per-row string joins.
    tables = [dataset.codes(a) for a in attributes]
    labels = tables[0].categories_array.astype(str)
    codes = tables[0].codes
    for table in tables[1:]:
        part = table.categories_array.astype(str)
        labels = np.char.add(
            np.char.add(labels[:, None], separator), part[None, :]
        ).ravel()
        codes = codes * table.n_categories + table.codes
    combined = labels[codes]
    # Pre-register the combined column's CodeTable, derived from the
    # (few) cross-product labels instead of the (many) rows: without
    # it, the first metric over `combined` np.unique-sorts an n-row
    # string array — the dominant time *and* transient-memory cost
    # of a large audit.  `from_codes` builds exactly what
    # encode(combined) would: only labels present in the rows, in
    # repr-sorted order.
    from repro.kernel.codes import CodeTable, cache_put

    cache_put((combined,), ("codes", None), CodeTable.from_codes(labels, codes))
    return combined


#: sentinel distinguishing "legacy kwarg passed" from its default
_UNSET = object()

_LEGACY_KWARGS_MESSAGE = (
    "passing audit settings ({names}) as individual keywords is "
    "deprecated; bundle them into an AuditConfig and pass config=... "
    "(or call the repro.audit() façade)"
)


def _resolve_config(config: AuditConfig | None, legacy: dict) -> AuditConfig:
    """Merge deprecated per-keyword settings into an AuditConfig.

    ``legacy`` maps config field names to values, with :data:`_UNSET`
    for keywords the caller did not pass.  Any explicitly-passed legacy
    keyword emits one :class:`DeprecationWarning` naming the offending
    keywords, then overrides the corresponding config field.
    """
    passed = {k: v for k, v in legacy.items() if v is not _UNSET}
    if passed:
        warnings.warn(
            _LEGACY_KWARGS_MESSAGE.format(names=", ".join(sorted(passed))),
            DeprecationWarning,
            stacklevel=3,
        )
        return (config if config is not None else AuditConfig()).replace(
            **passed
        )
    return config if config is not None else AuditConfig()


class FairnessAudit:
    """Configure and run a fairness-metric battery.

    Parameters
    ----------
    dataset:
        The audited dataset; protected attributes are taken from its
        schema.
    predictions:
        Binary model outputs aligned with the dataset rows.  When omitted,
        the audit evaluates the dataset's *labels* instead — a data audit
        rather than a model audit (detects historical bias in Y itself).
    probabilities:
        Optional model scores enabling the calibration metric.
    config:
        An :class:`~repro.core.config.AuditConfig` carrying every
        setting: tolerance, strata column, battery subset,
        ``min_stratum_group_size``, the supervising
        :class:`~repro.robustness.ExecutionPolicy`, the chaos-testing
        :class:`~repro.robustness.FaultInjector`, and the
        :class:`~repro.observability.Tracer`.  ``None`` uses the
        defaults.

    .. deprecated:: 1.3
        The individual ``tolerance``/``strata``/``min_stratum_group_size``
        /``policy``/``faults``/``tracer`` keywords still work but emit a
        :class:`DeprecationWarning`; pass ``config=AuditConfig(...)``
        (they override the matching config fields when both are given).
    """

    def __init__(
        self,
        dataset: TabularDataset,
        predictions=None,
        tolerance=_UNSET,
        strata=_UNSET,
        probabilities=None,
        min_stratum_group_size=_UNSET,
        policy=_UNSET,
        faults=_UNSET,
        tracer=_UNSET,
        *,
        config: AuditConfig | None = None,
    ):
        config = _resolve_config(
            config,
            {
                "tolerance": tolerance,
                "strata": strata,
                "min_stratum_group_size": min_stratum_group_size,
                "policy": policy,
                "faults": faults,
                "tracer": tracer,
            },
        )
        self.config = config
        self.dataset = dataset
        self.protected_attributes = dataset.schema.protected_names
        if not self.protected_attributes:
            raise AuditError("dataset declares no protected attributes")
        if predictions is None:
            if dataset.schema.label_name is None:
                raise AuditError(
                    "no predictions given and dataset has no label column"
                )
            predictions = dataset.labels()
            self.audits_labels = True
        else:
            self.audits_labels = False
        self.predictions = check_binary_array(predictions, "predictions")
        self._power_notes_cache: dict | None = None
        if len(self.predictions) != dataset.n_rows:
            raise AuditError(
                f"predictions length {len(self.predictions)} != dataset rows "
                f"{dataset.n_rows}"
            )
        self.tolerance = config.tolerance
        if config.strata is not None and config.strata not in dataset.schema:
            raise AuditError(
                f"strata column {config.strata!r} not in dataset"
            )
        self.strata = config.strata
        self.probabilities = (
            None if probabilities is None else np.asarray(probabilities, float)
        )
        if (
            self.probabilities is not None
            and len(self.probabilities) != dataset.n_rows
        ):
            raise AuditError("probabilities length does not match dataset")
        self.min_stratum_group_size = int(config.min_stratum_group_size)
        self.policy = (
            config.policy if config.policy is not None else ExecutionPolicy()
        )
        self.faults = config.faults
        self.tracer = config.tracer

    @classmethod
    def from_prediction_column(
        cls,
        dataset: TabularDataset,
        prediction_column: str = "prediction",
        **kwargs,
    ) -> "FairnessAudit":
        """Audit predictions stored as a dataset column.

        Convenience for datasets built with
        :meth:`TabularDataset.with_predictions`: the named column is used
        as the audited outcomes and excluded from the label side.
        """
        if prediction_column not in dataset.schema:
            raise AuditError(
                f"dataset has no column {prediction_column!r}"
            )
        return cls(
            dataset, predictions=dataset.column(prediction_column), **kwargs
        )

    # -- battery pieces ------------------------------------------------------

    def _labels(self) -> np.ndarray | None:
        name = self.dataset.schema.label_name
        return None if name is None else self.dataset.labels()

    def _evaluate(self, metric: str, attribute: str) -> AuditFinding:
        groups = self.dataset.column(attribute)
        strata = (
            self.dataset.column(self.strata) if self.strata is not None else None
        )
        labels = self._labels()
        tol = self.tolerance
        try:
            if metric == "demographic_parity":
                result = demographic_parity(
                    self.predictions, groups, tolerance=tol, with_significance=True
                )
            elif metric == "conditional_statistical_parity":
                if strata is None:
                    return AuditFinding(
                        attribute, metric, "skipped",
                        reason="no strata column configured",
                    )
                result = conditional_statistical_parity(
                    self.predictions, groups, strata, tolerance=tol,
                    min_stratum_group_size=self.min_stratum_group_size,
                )
            elif metric in _LABEL_METRICS:
                if labels is None or self.audits_labels:
                    return AuditFinding(
                        attribute, metric, "skipped",
                        reason="requires ground-truth labels distinct from "
                        "the audited outcomes",
                    )
                if metric == "equal_opportunity":
                    result = equal_opportunity(
                        labels, self.predictions, groups, tolerance=tol,
                        with_significance=True,
                    )
                else:
                    result = _LABEL_METRICS[metric](
                        labels, self.predictions, groups, tolerance=tol
                    )
            elif metric == "demographic_disparity":
                result = demographic_disparity(
                    self.predictions, groups, tolerance=tol
                )
            elif metric == "conditional_demographic_disparity":
                if strata is None:
                    return AuditFinding(
                        attribute, metric, "skipped",
                        reason="no strata column configured",
                    )
                result = conditional_demographic_disparity(
                    self.predictions, groups, strata, tolerance=tol,
                    min_stratum_group_size=self.min_stratum_group_size,
                )
            elif metric == "disparate_impact_ratio":
                result = disparate_impact_ratio(self.predictions, groups)
                return AuditFinding(
                    attribute, metric, "ok", result=result,
                    four_fifths=four_fifths_rule(result.rates()),
                )
            elif metric == "calibration_within_groups":
                if self.probabilities is None or labels is None:
                    return AuditFinding(
                        attribute, metric, "skipped",
                        reason="requires probability scores and labels",
                    )
                result = calibration_within_groups(
                    labels, self.probabilities, groups
                )
            else:
                raise AuditError(f"unknown battery metric {metric!r}")
        except (InsufficientDataError, MetricError) as exc:
            return AuditFinding(
                attribute, metric, "skipped", reason=_skip_reason(exc)
            )
        return AuditFinding(attribute, metric, "ok", result=result)

    def _power_note(self, attribute: str) -> dict:
        """Minimum detectable gap for this attribute's two largest groups."""
        return dict(self._power_note_table().get(attribute, {}))

    def _power_base_rate(self) -> float:
        base_rate = float(np.mean(self.predictions))
        return min(max(base_rate, 0.05), 0.95)

    def _power_note_table(self) -> dict:
        """Power notes for every protected attribute, one batched call.

        Group sizes come from the cached kernel code tables and the
        minimum detectable gaps for all attributes are computed with a
        single :func:`~repro.stats.batch.batch_min_detectable_gap` —
        values bit-identical to a per-attribute scalar
        :func:`~repro.stats.tests.min_detectable_gap`.  Cached for the
        audit's lifetime.
        """
        if self._power_notes_cache is not None:
            return self._power_notes_cache
        from repro.stats.batch import batch_min_detectable_gap

        eligible: list[str] = []
        pairs: list[tuple[int, int]] = []
        for attribute in self.protected_attributes:
            counts = self.dataset.codes(attribute).counts()
            if len(counts) < 2:
                continue
            top = np.sort(counts)[-2:]
            eligible.append(attribute)
            pairs.append((int(top[1]), int(top[0])))
        table: dict = {}
        if pairs:
            gaps = batch_min_detectable_gap(
                np.array([big for big, _ in pairs], dtype=np.int64),
                np.array([small for _, small in pairs], dtype=np.int64),
                base_rate=self._power_base_rate(),
            )
            for attribute, (big, small), gap in zip(eligible, pairs, gaps):
                table[attribute] = {
                    "n_a": big,
                    "n_b": small,
                    "min_detectable_gap": float(gap),
                }
        self._power_notes_cache = table
        return table

    # -- the run -----------------------------------------------------------------

    def run(self, metrics: tuple | None = None) -> AuditReport:
        """Execute the battery and return an :class:`AuditReport`.

        ``metrics`` defaults to the config's battery subset (the full
        battery unless ``AuditConfig.metrics`` narrowed it); an explicit
        tuple is validated against :data:`BATTERY_REGISTRY` and
        evaluated in the given order.

        Every (attribute, metric) evaluation runs as a supervised stage
        under this audit's :class:`~repro.robustness.ExecutionPolicy`:
        a raising metric becomes a ``status="error"`` finding (with
        captured traceback) rather than aborting the battery, transient
        failures are retried, and a deadline — when configured — cuts
        off hangs.  Only a fail-closed policy (``fail_fast`` or an
        exhausted ``max_failures`` budget) raises, as
        :class:`~repro.exceptions.DegradedRunError`.
        """
        from repro.observability.trace import get_tracer

        metrics = (
            self.config.battery()
            if metrics is None
            else battery_metrics(metrics)
        )

        tracer = self.tracer if self.tracer is not None else get_tracer()
        report = AuditReport(
            dataset_summary={
                "n_rows": self.dataset.n_rows,
                "protected_attributes": list(self.protected_attributes),
                "audits_labels": self.audits_labels,
                "strata": self.strata,
            },
            tolerance=self.tolerance,
        )
        runner = StageRunner(self.policy, faults=self.faults, tracer=tracer)
        with tracer.span(
            "audit.run",
            n_rows=self.dataset.n_rows,
            attributes=list(self.protected_attributes),
            tolerance=self.tolerance,
            audits_labels=self.audits_labels,
        ):
            for attribute in self.protected_attributes:
                for metric in metrics:
                    outcome = runner.run(
                        f"audit:{attribute}:{metric}",
                        self._evaluate, metric, attribute,
                    )
                    if outcome.ok:
                        report.findings.append(outcome.value)
                    else:
                        report.findings.append(
                            AuditFinding(
                                attribute, metric, "error",
                                reason=f"{outcome.error_type}: {outcome.error}",
                                traceback=outcome.traceback,
                            )
                        )
                note = runner.run(
                    f"power:{attribute}", self._power_note, attribute
                )
                report.power_notes[attribute] = note.value if note.ok else {}

            if len(self.protected_attributes) >= 2:
                name = "×".join(self.protected_attributes)
                outcome = runner.run(
                    "audit:intersection", self._intersectional, metrics
                )
                if outcome.ok:
                    report.intersectional_findings.extend(outcome.value)
                else:
                    report.intersectional_findings.append(
                        AuditFinding(
                            name, "intersection", "error",
                            reason=f"{outcome.error_type}: {outcome.error}",
                            traceback=outcome.traceback,
                        )
                    )
        report.degradations = runner.degradations
        report.provenance = ProvenanceRecord.collect(
            self.dataset, self.policy, runner, tracer=tracer
        )
        return report

    def _intersectional(self, metrics: tuple) -> list[AuditFinding]:
        """Re-run the outcome metrics over the crossed subgroups (IV.C)."""
        combined = intersection_column(self.dataset, self.protected_attributes)
        name = "×".join(self.protected_attributes)
        findings = []
        wanted = [
            m
            for m in ("demographic_parity", "disparate_impact_ratio")
            if m in metrics
        ]
        for metric in wanted:
            try:
                if metric == "demographic_parity":
                    result = demographic_parity(
                        self.predictions, combined, tolerance=self.tolerance,
                        with_significance=True,
                    )
                    findings.append(AuditFinding(name, metric, "ok", result=result))
                else:
                    result = disparate_impact_ratio(self.predictions, combined)
                    findings.append(
                        AuditFinding(
                            name, metric, "ok", result=result,
                            four_fifths=four_fifths_rule(result.rates()),
                        )
                    )
            except (InsufficientDataError, MetricError) as exc:
                findings.append(
                    AuditFinding(
                        name, metric, "skipped", reason=_skip_reason(exc)
                    )
                )
        return findings
