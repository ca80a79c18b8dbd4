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

The exhaustive scan is *anytime*: pass ``checkpoint_path`` and it
checkpoints every ``checkpoint_every`` subgroups, so a killed
enumeration resumed with ``resume=True`` picks up from its last
frontier and produces the identical finding set as an uninterrupted
run.  A save costs O(findings since the last save): the new findings
are appended to ``<checkpoint_path>.findings`` (JSON lines, fsynced),
then a small envelope holding the frontier, the record count and the
log's sha256 atomically replaces the old one (see
:class:`~repro.robustness.checkpoint.LoggedCheckpoint`).  Checkpoints
carry a fingerprint of the run configuration and are refused
(``CheckpointError``) when data or parameters changed, when the log is
missing, short, corrupt or does not match the envelope's digest, and
when the envelope has the older layout with every finding inline.
"""

from __future__ import annotations

import hashlib
import json
import uuid
from dataclasses import dataclass

import numpy as np

from repro._validation import (
    check_binary_array,
    check_positive_int,
    check_probability,
)
from repro.core.config import AuditConfig
from repro.data.dataset import TabularDataset
from repro.exceptions import AuditError, CheckpointError
from repro.kernel import (
    chunk_ranges,
    combined_codes,
    count_score_chunk,
    get_backend,
    joint_counts,
    read_spills,
    score_chunk,
)
from repro.kernel.shm import publish as shm_publish
from repro.models.preprocessing import OneHotEncoder
from repro.models.tree import DecisionTree
from repro.robustness.checkpoint import LoggedCheckpoint
from repro.stats.tests import two_proportion_z_test, wilson_interval
from repro.subgroup.enumeration import Subgroup, enumerate_subgroups

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


def _finding_from_payload(payload: dict, dataset: TabularDataset) -> SubgroupFinding:
    conditions = tuple(
        (attribute, value) for attribute, value in payload["conditions"]
    )

    def build_mask(conditions=conditions, dataset=dataset) -> np.ndarray:
        masks = [
            dataset.codes(attribute).mask(value)
            for attribute, value in conditions
        ]
        return masks[0] if len(masks) == 1 else np.logical_and.reduce(masks)

    return SubgroupFinding(
        subgroup=Subgroup(
            conditions=conditions,
            size=int(payload["size"]),
            mask_factory=build_mask,
        ),
        rate=float(payload["rate"]),
        complement_rate=float(payload["complement_rate"]),
        gap=float(payload["gap"]),
        ci_low=float(payload["ci_low"]),
        ci_high=float(payload["ci_high"]),
        p_value=float(payload["p_value"]),
    )


#: the exhaustive scan's findings log sits next to its checkpoint
FINDINGS_LOG_SUFFIX = ".findings"

#: rows hashed/validated/counted per bounded-memory pass over a reader
_READER_CHUNK_ROWS = 1 << 20


def _hash_source(digest, source) -> None:
    """Feed a column source — array or bounded reader — into a digest.

    Chunked sha256 updates produce the same hex digest as one whole-array
    update, so packed and in-memory scans of identical content agree.
    """
    if isinstance(source, np.ndarray):
        digest.update(np.ascontiguousarray(source).tobytes())
        return
    for lo in range(0, source.n_rows, _READER_CHUNK_ROWS):
        chunk = source.read(lo, min(lo + _READER_CHUNK_ROWS, source.n_rows))
        digest.update(np.ascontiguousarray(chunk).tobytes())


def _scan_fingerprint(
    pred_source,
    dataset: TabularDataset,
    attributes: list[str],
    max_order: int,
    min_size: int,
) -> str:
    """Hash of everything that determines the scan's enumeration order
    and results — a checkpoint from a different run must not resume.

    ``pred_source`` may be the prediction array or, for packed datasets,
    a bounded column reader; either way the bytes (and so the digest)
    match, keeping checkpoints resumable across representations.
    """
    digest = hashlib.sha256()
    digest.update(
        json.dumps(
            {
                "n_rows": dataset.n_rows,
                "attributes": list(attributes),
                "max_order": max_order,
                "min_size": min_size,
            },
            sort_keys=True,
        ).encode()
    )
    _hash_source(digest, pred_source)
    open_column = getattr(dataset, "open_column", None)
    for attribute in attributes:
        if open_column is not None:
            _hash_source(digest, open_column(attribute))
        else:
            digest.update(np.asarray(dataset.column(attribute)).tobytes())
    return digest.hexdigest()


def _validate_binary_reader(reader, name: str = "predictions") -> int:
    """Chunked 0/1 validation of a packed column; returns the positive count.

    The bounded-memory stand-in for :func:`check_binary_array`: same
    rejections, but never materialises the column or full-size
    temporaries.
    """
    from repro.exceptions import ValidationError

    if reader.dtype.kind not in "iub":
        raise ValidationError(
            f"{name} must be an integer/boolean array, got dtype {reader.dtype}"
        )
    positives = 0
    for lo in range(0, reader.n_rows, _READER_CHUNK_ROWS):
        chunk = reader.read(lo, min(lo + _READER_CHUNK_ROWS, reader.n_rows))
        bad = (chunk != 0) & (chunk != 1)
        if bad.any():
            raise ValidationError(
                f"{name} must contain only 0/1 values, found "
                f"{np.unique(chunk[bad]).tolist()[:5]}"
            )
        positives += int(chunk.sum())
    return positives


def _inside_counts(
    predictions: np.ndarray,
    dataset: TabularDataset,
    subgroups: list[Subgroup],
) -> list[tuple[int, int]]:
    """(positives_inside, n_inside) per subgroup from joint contingencies.

    One ``np.bincount`` per attribute subset covers every subgroup of
    that subset, so the whole enumeration is counted in O(n · subsets)
    instead of O(n · subgroups).
    """
    by_subset: dict = {}
    entries: list[tuple[int, int]] = []
    for subgroup in subgroups:
        attrs = tuple(attribute for attribute, _ in subgroup.conditions)
        cached = by_subset.get(attrs)
        if cached is None:
            tables = [dataset.codes(attribute) for attribute in attrs]
            codes, n_cells = combined_codes(tables)
            cached = (tables, joint_counts(codes, n_cells, predictions))
            by_subset[attrs] = cached
        tables, counts = cached
        cell = 0
        for table, (_, value) in zip(tables, subgroup.conditions):
            cell = cell * table.n_categories + table.index[value]
        entries.append((int(counts[cell, 1]), subgroup.size))
    return entries


def _inside_counts_ooc(
    pred_source,
    dataset,
    subgroups: list[Subgroup],
) -> list[tuple[int, int]]:
    """:func:`_inside_counts` for packed datasets, in bounded memory.

    ``dataset.subset_counts`` accumulates each attribute subset's joint
    contingency chunk by chunk (integer bincounts, so bit-identical to
    the in-memory tensor); only the ``(n_cells, 2)`` tensors are held.
    """
    by_subset: dict = {}
    entries: list[tuple[int, int]] = []
    for subgroup in subgroups:
        attrs = tuple(attribute for attribute, _ in subgroup.conditions)
        cached = by_subset.get(attrs)
        if cached is None:
            tables = [dataset.codes(attribute) for attribute in attrs]
            cached = (tables, dataset.subset_counts(attrs, pred_source))
            by_subset[attrs] = cached
        tables, counts = cached
        cell = 0
        for table, (_, value) in zip(tables, subgroup.conditions):
            cell = cell * table.n_categories + table.index[value]
        entries.append((int(counts[cell, 1]), subgroup.size))
    return entries


def _scan_sources(
    pred_source,
    dataset,
    subgroups: list[Subgroup],
    token: str,
    chunk_rows: int,
) -> tuple[dict, list[tuple[int, int, int]]]:
    """Build the zero-copy worker sources and per-subgroup work items.

    Packed datasets contribute ``npy`` manifests (workers re-open the
    column files themselves); in-memory datasets have their code arrays
    and predictions published once into shared memory (``shm``
    manifests).  Either way a work item is three integers — no column
    array crosses the pickle boundary.
    """
    packed = hasattr(dataset, "codes_reader")

    def column_manifest(attribute: str) -> dict:
        if packed:
            return dataset.codes_reader(attribute).manifest()
        return shm_publish(dataset.codes(attribute).codes)

    if isinstance(pred_source, np.ndarray):
        pred_manifest = shm_publish(pred_source)
    else:
        pred_manifest = pred_source.manifest()

    subset_index: dict[tuple, int] = {}
    subsets: list[dict] = []
    items: list[tuple[int, int, int]] = []
    for subgroup in subgroups:
        attrs = tuple(attribute for attribute, _ in subgroup.conditions)
        position = subset_index.get(attrs)
        if position is None:
            tables = [dataset.codes(attribute) for attribute in attrs]
            position = len(subsets)
            subset_index[attrs] = position
            subsets.append(
                {
                    "columns": [column_manifest(a) for a in attrs],
                    "n_categories": [t.n_categories for t in tables],
                    "tables": tables,
                }
            )
        tables = subsets[position]["tables"]
        cell = 0
        for table, (_, value) in zip(tables, subgroup.conditions):
            cell = cell * table.n_categories + table.index[value]
        items.append((position, cell, subgroup.size))
    sources = {
        "token": token,
        "n_rows": dataset.n_rows,
        "chunk_rows": int(chunk_rows),
        "predictions": pred_manifest,
        "subsets": [
            {k: v for k, v in subset.items() if k != "tables"}
            for subset in subsets
        ],
    }
    return sources, items


def _merge_spills(tracer, metrics, spill_dir) -> None:
    """Fold pool-worker telemetry spills into the parent tracer/registry.

    Tolerant by construction: :func:`repro.kernel.read_spills` already
    skips torn lines from killed workers, and a delta that fails
    :meth:`~repro.observability.MetricsRegistry.merge_delta` validation
    is dropped whole — worker telemetry is best-effort evidence and must
    never corrupt the parent's, or fail a scan that scored correctly.
    """
    from repro.exceptions import ValidationError

    for spill in read_spills(spill_dir):
        if spill["spans"] and getattr(tracer, "enabled", False):
            offset = 0.0
            if spill["created"] is not None:
                offset = spill["created"] - tracer.created
            tracer.absorb(spill["spans"], clock_offset=offset)
        for delta in spill["deltas"]:
            try:
                metrics.merge_delta(delta)
            except ValidationError:
                continue


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
        When given, the scan frontier is checkpointed here every
        ``checkpoint_every`` subgroups, with the findings so far in the
        append-only log ``checkpoint_path + ".findings"``, making the
        scan *anytime* — a killed run loses at most one checkpoint
        interval of work.
    resume:
        Restart from the checkpoint at ``checkpoint_path``.  A missing
        checkpoint starts a fresh scan; a corrupt one, or one written by
        a different configuration/dataset, raises
        :class:`~repro.exceptions.CheckpointError` rather than silently
        mixing runs.
    on_progress:
        Optional callable ``(evaluated, total)`` invoked after each
        subgroup — a cancellation/reporting hook for long scans.
    tracer:
        Optional :class:`~repro.observability.Tracer` (defaults to the
        process-current one).  The whole scan becomes one
        ``subgroups.scan`` span with progress events at each checkpoint
        interval; checkpoint writes are individually timed into the
        ``subgroups.checkpoint_write`` histogram, and the
        ``subgroups.evaluated`` counter tracks scan throughput.
    jobs:
        Number of worker processes for the scan.  The default ``1`` runs
        serially; any higher value partitions the enumeration into
        chunks aligned to the checkpoint interval and dispatches them to
        a ``concurrent.futures`` pool, merging results in enumeration
        order — findings, p-values, and checkpoint files are
        byte-identical to the serial scan, so serial and parallel runs
        can resume each other's checkpoints.  Requires the ``"kernel"``
        backend.  Workers attach to the scan's sources by name — shared
        memory segments for in-memory datasets, packed column files for
        :class:`~repro.data.ooc.MemmapDataset` — and derive their own
        counts; no column array is ever pickled to a worker.
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
        ``ScanConfig``).  With ``strategy="best_first"`` or
        ``"incremental"`` the call dispatches to
        :func:`repro.subgroup.search.scan_subgroups` and returns its
        findings — the same flagged set, with adjusted p-values already
        attached; do **not** run :func:`adjust_for_multiple_testing`
        on that result (the censored correction cannot be re-derived
        from the surviving findings alone).
    state_path:
        Where an ``"incremental"`` scan persists its
        :class:`~repro.subgroup.search.ScanState` (required for that
        strategy; ignored otherwise).
    """
    from repro.observability.metrics import get_metrics
    from repro.observability.trace import get_tracer

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
    base = config if config is not None else AuditConfig()
    tracer = base.tracer if tracer is _FROM_CONFIG else tracer
    tracer = tracer if tracer is not None else get_tracer()
    metrics = metrics if metrics is not None else get_metrics()
    if scan.strategy != "exhaustive":
        # Strategy dispatch: the lattice-pruned / incremental engine
        # returns the provably-identical flagged set with corrections
        # already attached (its censored family bookkeeping cannot be
        # re-derived from the surviving findings alone — do not run
        # adjust_for_multiple_testing on this result).
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
    max_order = scan.max_order
    min_size = scan.min_size
    alpha = scan.alpha
    jobs = scan.jobs
    checkpoint_every = scan.checkpoint_every
    # A packed dataset hands out memmapped columns; when the predictions
    # are one of them (``dataset.labels()``), recover the bounded reader
    # behind it and validate/hash/count through buffered reads instead
    # of materialising the mapping.
    pred_reader = None
    reader_for = getattr(dataset, "reader_for", None)
    if reader_for is not None and isinstance(predictions, np.ndarray):
        pred_reader = reader_for(predictions)
    if pred_reader is not None:
        positives_total = _validate_binary_reader(pred_reader, "predictions")
        n_total = dataset.n_rows
    else:
        predictions = check_binary_array(predictions, "predictions")
        if len(predictions) != dataset.n_rows:
            raise AuditError("predictions length does not match dataset")
        n_total = len(predictions)
        positives_total = int(predictions.sum())
    check_probability(alpha, "alpha")
    check_positive_int(checkpoint_every, "checkpoint_every")
    check_positive_int(jobs, "jobs")
    if jobs > 1 and get_backend() != "kernel":
        raise AuditError(
            "jobs > 1 requires the 'kernel' backend; the reference path "
            "is serial-only (repro.kernel.set_backend)"
        )
    if attributes is None:
        attributes = dataset.schema.protected_names
    if not attributes:
        raise AuditError("no attributes to audit")
    if resume and checkpoint_path is None:
        raise CheckpointError("resume=True requires a checkpoint_path")

    subgroups = enumerate_subgroups(
        dataset, attributes, max_order=max_order, min_size=min_size
    )
    fingerprint = ""
    if checkpoint_path is not None:
        fingerprint = _scan_fingerprint(
            pred_reader if pred_reader is not None else predictions,
            dataset,
            attributes,
            max_order,
            min_size,
        )

    total = len(subgroups)
    start = 0
    findings: list[SubgroupFinding] = []
    checkpoint = None
    if checkpoint_path is not None:
        checkpoint = LoggedCheckpoint(
            checkpoint_path, fingerprint, suffix=FINDINGS_LOG_SUFFIX
        )
        # A missing checkpoint means nothing was saved yet: fresh scan.
        # A corrupt or foreign checkpoint raises — never mix runs.
        restored = checkpoint.resume() if resume else None
        if restored is None:
            checkpoint.start()
        else:
            payload, records = restored
            # A payload that passed the envelope, fingerprint and log
            # digest checks can still be structurally wrong (hand-edited,
            # wrong producer); surface that as a CheckpointError, not a
            # raw KeyError.
            try:
                start = int(payload["next_index"])
                if not 0 <= start <= total:
                    raise ValueError(f"next_index {start} outside [0, {total}]")
                findings = [
                    _finding_from_payload(entry, dataset) for entry in records
                ]
            except (KeyError, TypeError, ValueError) as exc:
                raise CheckpointError(
                    f"scan checkpoint {checkpoint_path} has the wrong "
                    f"layout: {type(exc).__name__}: {exc}",
                    path=checkpoint_path,
                ) from exc

    use_kernel = get_backend() == "kernel"
    # Count pairs are derived up front only for the serial kernel scan;
    # the parallel path ships source manifests and lets workers count
    # (see _scan_sources / count_score_chunk).
    entries = None
    if use_kernel and jobs == 1:
        if hasattr(dataset, "subset_counts"):
            entries = _inside_counts_ooc(
                pred_reader if pred_reader is not None else predictions,
                dataset,
                subgroups,
            )
        else:
            entries = _inside_counts(predictions, dataset, subgroups)

    with tracer.span(
        "subgroups.scan",
        total=total,
        resumed_from=start,
        max_order=max_order,
        min_size=min_size,
        jobs=jobs,
    ) as scan_span:

        def write_checkpoint(evaluated: int) -> None:
            if checkpoint is not None and (
                evaluated % checkpoint_every == 0 or evaluated == total
            ):
                with metrics.timer("subgroups.checkpoint_write"):
                    checkpoint.save(
                        {
                            "next_index": evaluated,
                            "total": total,
                            "complete": evaluated == total,
                        },
                        map(
                            _finding_to_payload,
                            findings[checkpoint.records:],
                        ),
                    )
                scan_span.event("checkpoint", evaluated=evaluated, total=total)

        if jobs == 1:
            # One vectorized inference batch scores the whole remaining
            # scan (z-tests + Wilson intervals for every subgroup at
            # once); the loop below only assembles findings and keeps
            # the checkpoint/progress cadence identical to the
            # pre-batch per-subgroup scoring.
            payloads = (
                score_chunk(entries[start:], positives_total, n_total)
                if use_kernel
                else None
            )
            for index in range(start, total):
                subgroup = subgroups[index]
                if use_kernel:
                    payload = payloads[index - start]
                    if payload is not None:
                        findings.append(
                            SubgroupFinding(subgroup=subgroup, **payload)
                        )
                else:
                    inside = predictions[subgroup.mask]
                    outside = predictions[~subgroup.mask]
                    if len(outside) > 0:
                        rate = float(inside.mean())
                        complement = float(outside.mean())
                        test = two_proportion_z_test(
                            int(inside.sum()), len(inside),
                            int(outside.sum()), len(outside),
                        )
                        lo, hi = wilson_interval(int(inside.sum()), len(inside))
                        findings.append(
                            SubgroupFinding(
                                subgroup=subgroup,
                                rate=rate,
                                complement_rate=complement,
                                gap=rate - complement,
                                ci_low=lo,
                                ci_high=hi,
                                p_value=test.p_value,
                            )
                        )
                evaluated = index + 1
                metrics.counter("subgroups.evaluated").inc()
                write_checkpoint(evaluated)
                if on_progress is not None:
                    on_progress(evaluated, total)
        else:
            import shutil
            import tempfile
            from concurrent.futures import ProcessPoolExecutor

            factory = executor_factory or (
                lambda n: ProcessPoolExecutor(max_workers=n)
            )
            # Workers spill their telemetry (chunk spans continuing this
            # scan's trace context, plus metric deltas) to files the
            # parent merges on join — but only for the real process
            # pool: an injected executor may run chunks as threads in
            # this very process, where the spill's registry/tracer swaps
            # would race the parent's.
            spill_dir = None
            scan_context = None
            if executor_factory is None:
                spill_dir = tempfile.mkdtemp(prefix="repro-scan-spill-")
                context = tracer.current_context()
                scan_context = context.to_dict() if context else None
            # Chunk boundaries sit on absolute multiples of the checkpoint
            # interval, so the parallel scan checkpoints at exactly the
            # serial cadence and the files interleave/resume either way.
            # Without a checkpoint there is no cadence to preserve, so
            # chunks grow to amortise the per-dispatch round trip.
            dispatch = checkpoint_every
            if checkpoint_path is None:
                dispatch = max(dispatch, -(-(total - start) // (jobs * 4)))
            # Workers attach to the scan's sources by name (shared
            # memory for in-memory datasets, packed files on disk) and
            # derive their own count pairs: a submitted chunk is source
            # manifests plus (subset, cell, size) integer triples —
            # never a column array.  The token keys each worker's
            # per-scan source cache.
            scan_token = fingerprint or uuid.uuid4().hex
            sources, items = _scan_sources(
                pred_reader if pred_reader is not None else predictions,
                dataset,
                subgroups,
                scan_token,
                getattr(dataset, "chunk_rows", _READER_CHUNK_ROWS),
            )
            ranges = chunk_ranges(start, total, dispatch)
            try:
                with factory(jobs) as pool:
                    futures = [
                        pool.submit(
                            count_score_chunk,
                            sources, items[lo:hi], positives_total, n_total,
                            {
                                "dir": spill_dir,
                                "lo": lo,
                                "hi": hi,
                                "context": scan_context,
                                "run_id": getattr(tracer, "run_id", ""),
                            }
                            if spill_dir is not None
                            else None,
                        )
                        for lo, hi in ranges
                    ]
                    for (lo, hi), future in zip(ranges, futures):
                        for offset, payload in enumerate(future.result()):
                            if payload is not None:
                                findings.append(
                                    SubgroupFinding(
                                        subgroup=subgroups[lo + offset],
                                        **payload,
                                    )
                                )
                        metrics.counter("subgroups.evaluated").inc(hi - lo)
                        write_checkpoint(hi)
                        if on_progress is not None:
                            for index in range(lo, hi):
                                on_progress(index + 1, total)
            finally:
                if spill_dir is not None:
                    _merge_spills(tracer, metrics, spill_dir)
                    shutil.rmtree(spill_dir, ignore_errors=True)
        scan_span.set(evaluated=total - start)

    findings.sort(key=lambda f: (-abs(f.gap), f.subgroup.label()))
    return findings


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
        if get_backend() == "reference":
            return self._best_leaf_reference(
                predictions, leaf_probs, min_leaf, X, feature_names
            )
        # Kernel path: one bincount pass yields every leaf's size and
        # positive count, and a single batched inference call scores all
        # candidate leaves at once — bit-identical to the per-leaf
        # scalar loop kept behind the reference backend.
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

    def _best_leaf_reference(
        self,
        predictions: np.ndarray,
        leaf_probs: np.ndarray,
        min_leaf: int,
        X: np.ndarray,
        feature_names: list,
    ) -> SubgroupFinding:
        """Pre-batch per-leaf scoring loop, kept verbatim as the
        executable specification for the batched leaf scoring."""
        best: SubgroupFinding | None = None
        for leaf_value in np.unique(leaf_probs):
            mask = leaf_probs == leaf_value
            inside = predictions[mask]
            outside = predictions[~mask]
            if len(inside) < min_leaf or len(outside) == 0:
                continue
            rate = float(inside.mean())
            complement = float(outside.mean())
            gap = rate - complement
            test = two_proportion_z_test(
                int(inside.sum()), len(inside), int(outside.sum()), len(outside)
            )
            lo, hi = wilson_interval(int(inside.sum()), len(inside))
            conditions = self._describe_leaf(X, mask, feature_names)
            finding = SubgroupFinding(
                subgroup=Subgroup(
                    conditions=conditions, size=int(mask.sum()), mask=mask
                ),
                rate=rate,
                complement_rate=complement,
                gap=gap,
                ci_low=lo,
                ci_high=hi,
                p_value=test.p_value,
            )
            if best is None or abs(finding.gap) > abs(best.gap):
                best = finding
        if best is None:
            raise AuditError("oracle produced no usable leaves")
        return best

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
