"""Intersectional subgroup auditing (paper Section IV.C).

Two complementary strategies:

* :func:`audit_subgroups` — exhaustive scan over enumerated attribute
  conjunctions, each finding carrying a Wilson confidence interval and a
  two-proportion significance test against the complement (the paper's
  sparsity caveat, made explicit);
* :class:`GerrymanderingAuditor` — a learned-oracle search in the spirit
  of Kearns et al.'s fairness-gerrymandering auditor: instead of
  enumerating conjunctions, fit a shallow decision tree to the model's
  outputs over the protected attributes and read the most disparate
  leaves as candidate subgroups.  Scales past the exponential enumeration
  wall at the cost of completeness.

:func:`audit_subgroups` is the keyword-compatible front of the one scan
engine, :func:`repro.subgroup.search.scan_subgroups`: counting, scoring,
parallel dispatch, checkpoints and resume all happen there, so the
exhaustive scan is *anytime* in the same way as the pruned one (a
killed run resumed with ``resume=True`` re-scores from the saved counts
and returns the identical findings).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._validation import (
    check_binary_array,
    check_positive_int,
    check_probability,
)
from repro.core.config import AuditConfig
from repro.data.dataset import TabularDataset
from repro.exceptions import AuditError
from repro.models.preprocessing import OneHotEncoder
from repro.models.tree import DecisionTree
from repro.subgroup.enumeration import Subgroup

__all__ = [
    "SubgroupFinding",
    "audit_subgroups",
    "adjust_for_multiple_testing",
    "GerrymanderingAuditor",
]


@dataclass(frozen=True)
class SubgroupFinding:
    """Disparity evidence for one subgroup versus its complement.

    ``adjusted_p_value`` is populated by
    :func:`adjust_for_multiple_testing`; when present, it is what
    :meth:`significant` checks — a scan over many subgroups must not
    treat raw per-test p-values as findings (paper IV.C).
    """

    subgroup: Subgroup
    rate: float
    complement_rate: float
    gap: float
    ci_low: float
    ci_high: float
    p_value: float
    adjusted_p_value: float | None = None

    def significant(self, alpha: float = 0.05) -> bool:
        """Is the disparity significant at ``alpha`` (adjusted when
        available)?"""
        p = self.p_value if self.adjusted_p_value is None else self.adjusted_p_value
        return p < alpha

    def __repr__(self) -> str:
        return (
            f"SubgroupFinding({self.subgroup.label()}, rate={self.rate:.3f} "
            f"vs {self.complement_rate:.3f}, gap={self.gap:+.3f}, "
            f"p={self.p_value:.4f})"
        )


def _jsonable(value):
    """Coerce numpy scalars to native Python for checkpoint payloads."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.str_):
        return str(value)
    return value


def _finding_to_payload(finding: SubgroupFinding) -> dict:
    return {
        "conditions": [
            [attribute, _jsonable(value)]
            for attribute, value in finding.subgroup.conditions
        ],
        "size": finding.subgroup.size,
        "rate": finding.rate,
        "complement_rate": finding.complement_rate,
        "gap": finding.gap,
        "ci_low": finding.ci_low,
        "ci_high": finding.ci_high,
        "p_value": finding.p_value,
    }


#: sentinel distinguishing "keyword passed" from "take it from config"
_FROM_CONFIG = object()

#: sentinel distinguishing "legacy kwarg passed" from its default
_UNSET = object()

_LEGACY_KWARGS_MESSAGE = (
    "passing scan settings ({names}) as individual keywords is "
    "deprecated; bundle them into a ScanConfig and pass scan_config=... "
    "(or set AuditConfig.scan)"
)


def _resolve_scan_config(scan_config, config, legacy: dict):
    """Merge deprecated per-keyword scan settings into a ScanConfig.

    Precedence, lowest to highest: defaults < ``AuditConfig`` (loose
    subgroup knobs, or its explicit ``scan``) < ``scan_config=`` <
    explicitly-passed legacy keywords.  Any legacy keyword emits one
    :class:`DeprecationWarning` naming the offending keywords — the
    same shim contract :func:`repro.core.audit._resolve_config`
    established for :class:`AuditConfig` — then overrides the
    corresponding field.  The override goes through
    :meth:`ScanConfig.replace`, so legacy values get ScanConfig's
    validation (``checkpoint_every < 1``, ``max_order < 1``, … raise a
    ``ValueError`` naming the field).
    """
    import warnings

    from repro.core.config import ScanConfig

    if scan_config is not None:
        base = scan_config
    elif config is not None:
        base = ScanConfig.from_audit(config)
    else:
        base = ScanConfig()
    passed = {k: v for k, v in legacy.items() if v is not _UNSET}
    if passed:
        warnings.warn(
            _LEGACY_KWARGS_MESSAGE.format(names=", ".join(sorted(passed))),
            DeprecationWarning,
            stacklevel=3,
        )
        base = base.replace(**passed)
    return base


def audit_subgroups(
    predictions,
    dataset: TabularDataset,
    attributes: list[str] | None = None,
    max_order: int = _UNSET,
    min_size: int = _UNSET,
    alpha: float = _UNSET,
    checkpoint_path=None,
    checkpoint_every: int = _UNSET,
    resume: bool = False,
    on_progress=None,
    tracer=_FROM_CONFIG,
    jobs: int = _UNSET,
    executor_factory=None,
    *,
    metrics=None,
    config: AuditConfig | None = None,
    scan_config=None,
    state_path=None,
) -> list[SubgroupFinding]:
    """Exhaustive subgroup disparity scan, most disparate first.

    Each subgroup's selection rate is compared to the rate of everyone
    *outside* the subgroup; gaps are signed (negative = subgroup
    disadvantaged).  Subgroups below ``min_size`` are not audited at all:
    the paper's Section IV.C position is that findings on such groups are
    statistically meaningless, so we surface the threshold rather than
    the noise.

    Parameters
    ----------
    checkpoint_path:
        When given, the scan checkpoints its joint counts here after
        each ingest chunk and its canonical result at the end (see
        :mod:`repro.subgroup.search`), making the scan *anytime* — a
        killed run resumes without re-reading the rows it counted.
    resume:
        Restart from the checkpoint at ``checkpoint_path``.  A missing
        checkpoint starts a fresh scan; a corrupt one, one written by a
        different configuration/dataset, or one in an older layout
        raises :class:`~repro.exceptions.CheckpointError` rather than
        silently mixing runs.
    on_progress:
        Optional callable ``(evaluated, total)`` invoked after each
        subgroup — a cancellation/reporting hook for long scans.
    tracer:
        Optional :class:`~repro.observability.Tracer` (defaults to the
        config's, then the process-current one).  The whole scan
        becomes one ``subgroups.scan`` span with ``checkpoint`` events;
        checkpoint writes are individually timed into the
        ``subgroups.checkpoint_write`` histogram, and the
        ``subgroups.evaluated`` counter tracks scan throughput.
    jobs:
        Number of worker processes for the scan.  The default ``1`` runs
        serially; a higher value counts rows and scores subgroups in a
        ``concurrent.futures`` pool, merging results in enumeration
        order — findings, p-values, and checkpoint files are
        byte-identical to the serial scan, so serial and parallel runs
        can resume each other's checkpoints.  Workers attach to the
        scan's sources by name — shared
        memory segments for in-memory datasets, packed column files for
        :class:`~repro.data.ooc.MemmapDataset` — so no column array is
        ever pickled to a worker.
    executor_factory:
        Callable ``(jobs) -> Executor`` overriding the default
        ``ProcessPoolExecutor`` — a chaos/testing hook for injecting
        thread pools or failing workers.
    metrics:
        Optional :class:`~repro.observability.MetricsRegistry` the
        scan's counters (and merged pool-worker deltas) record into;
        defaults to the process-current registry.
    config:
        An :class:`~repro.core.config.AuditConfig` supplying defaults
        for ``max_order``, ``min_size``, ``alpha``, ``jobs``, and
        ``tracer`` — the same object every other audit entry point
        takes.  When it carries an explicit ``scan``
        (:class:`~repro.core.config.ScanConfig`), that wins over the
        loose knobs.
    scan_config:
        A :class:`~repro.core.config.ScanConfig` controlling the scan
        outright — strategy, lattice shape, significance, checkpoint
        cadence, parallelism.  Overrides ``config``; overridden only by
        explicitly-passed legacy keywords (which are deprecated: each
        use emits a :class:`DeprecationWarning` asking for a
        ``ScanConfig``).  The exhaustive strategy returns raw p-values
        whatever the config's ``correction`` (apply
        :func:`adjust_for_multiple_testing` yourself).  With
        ``strategy="best_first"`` or ``"incremental"`` the findings come
        back with adjusted p-values already attached; do **not** run
        :func:`adjust_for_multiple_testing` on that result (the censored
        correction cannot be re-derived from the surviving findings
        alone).
    state_path:
        Where an ``"incremental"`` scan persists its
        :class:`~repro.subgroup.search.ScanState` (required for that
        strategy; ignored otherwise).
    """
    scan = _resolve_scan_config(
        scan_config,
        config,
        {
            "max_order": max_order,
            "min_size": min_size,
            "alpha": alpha,
            "checkpoint_every": checkpoint_every,
            "jobs": jobs,
        },
    )
    if tracer is _FROM_CONFIG:
        tracer = config.tracer if config is not None else None
    if scan.strategy == "exhaustive":
        # This function's contract is raw p-values: the caller applies
        # adjust_for_multiple_testing.
        scan = scan.replace(correction="none")
    from repro.subgroup.search import scan_subgroups

    return scan_subgroups(
        predictions,
        dataset,
        attributes,
        config=scan,
        checkpoint_path=checkpoint_path,
        resume=resume,
        state_path=state_path,
        on_progress=on_progress,
        tracer=tracer,
        metrics=metrics,
        executor_factory=executor_factory,
    ).findings


def adjust_for_multiple_testing(
    findings: list[SubgroupFinding], method: str = "holm"
) -> list[SubgroupFinding]:
    """Attach multiplicity-adjusted p-values to a subgroup scan.

    ``method`` is ``"holm"`` (family-wise control; the defensible default
    for legal findings) or ``"bh"`` (Benjamini–Hochberg FDR control).
    Returns new findings in the original order; ``significant()`` then
    checks the adjusted values.
    """
    from dataclasses import replace

    from repro.stats.multiple_testing import (
        benjamini_hochberg,
        holm_bonferroni,
    )

    if not findings:
        return []
    if method == "holm":
        adjusted = holm_bonferroni([f.p_value for f in findings])
    elif method == "bh":
        adjusted = benjamini_hochberg([f.p_value for f in findings])
    else:
        raise AuditError(
            f"unknown correction method {method!r}; use 'holm' or 'bh'"
        )
    return [
        replace(finding, adjusted_p_value=float(p))
        for finding, p in zip(findings, adjusted)
    ]


class GerrymanderingAuditor:
    """Learned-oracle subgroup search (Kearns et al. style).

    Fits a shallow :class:`DecisionTree` to the audited predictions using
    one-hot encodings of the protected attributes as inputs; tree leaves
    are regions of the protected space where the model's selection rate is
    internally homogeneous and maximally different from elsewhere — i.e.
    candidate gerrymandered subgroups.  The most disparate leaf is
    returned as the audit's certificate.
    """

    def __init__(
        self,
        max_depth: int = 3,
        min_leaf_fraction: float = 0.02,
    ):
        self.max_depth = check_positive_int(max_depth, "max_depth")
        self.min_leaf_fraction = check_probability(
            min_leaf_fraction, "min_leaf_fraction"
        )

    def find_worst_subgroup(
        self,
        predictions,
        dataset: TabularDataset,
        attributes: list[str] | None = None,
    ) -> SubgroupFinding:
        """The leaf subgroup with the largest absolute selection-rate gap."""
        predictions = check_binary_array(predictions, "predictions")
        if len(predictions) != dataset.n_rows:
            raise AuditError("predictions length does not match dataset")
        if attributes is None:
            attributes = dataset.schema.protected_names
        if not attributes:
            raise AuditError("no attributes to audit")

        blocks, encoders = [], {}
        feature_names: list[tuple[str, object]] = []
        for attribute in attributes:
            encoder = OneHotEncoder()
            blocks.append(encoder.fit_transform(dataset.column(attribute)))
            encoders[attribute] = encoder
            feature_names.extend(
                (attribute, category) for category in encoder.categories
            )
        X = np.hstack(blocks)

        min_leaf = max(1, int(self.min_leaf_fraction * dataset.n_rows))
        oracle = DecisionTree(
            max_depth=self.max_depth, min_samples_leaf=min_leaf
        )
        if len(np.unique(predictions)) < 2:
            raise AuditError(
                "predictions are constant; no subgroup disparity can exist"
            )
        oracle.fit(X, predictions)

        # Assign every row to its leaf and compare leaf rates.
        leaf_probs = oracle.predict_proba(X)
        # One bincount pass yields every leaf's size and positive count,
        # and a single batched inference call scores all candidate
        # leaves at once — bit-identical to the per-leaf scalar loop
        # kept as a test oracle in ``tests/oracle/subgroup.py``.
        from repro.stats.batch import batch_score_counts

        leaf_values, leaf_codes = np.unique(leaf_probs, return_inverse=True)
        n_in = np.bincount(leaf_codes, minlength=len(leaf_values))
        pos_in = np.bincount(
            leaf_codes, weights=predictions, minlength=len(leaf_values)
        ).astype(np.int64)
        n_total = len(predictions)
        candidates = np.flatnonzero(
            (n_in >= min_leaf) & (n_total - n_in > 0)
        )
        if len(candidates) == 0:
            raise AuditError("oracle produced no usable leaves")
        payloads = batch_score_counts(
            pos_in[candidates], n_in[candidates],
            int(predictions.sum()), n_total,
        )
        gaps = np.array([payload["gap"] for payload in payloads])
        position = int(np.argmax(np.abs(gaps)))
        winner = int(candidates[position])
        mask = leaf_codes == winner
        conditions = self._describe_leaf(X, mask, feature_names)
        return SubgroupFinding(
            subgroup=Subgroup(
                conditions=conditions, size=int(n_in[winner]), mask=mask
            ),
            **payloads[position],
        )

    @staticmethod
    def _describe_leaf(
        X: np.ndarray, mask: np.ndarray, feature_names: list
    ) -> tuple:
        """Conditions (attribute, value) constant across all leaf members."""
        conditions = []
        members = X[mask]
        for j, (attribute, value) in enumerate(feature_names):
            column = members[:, j]
            if np.all(column == 1.0):
                conditions.append((attribute, value))
        return tuple(conditions)
