"""The subgroup scan engine (paper Section IV.C).

:func:`scan_subgroups` is the one implementation of the subgroup scan
behind the :class:`~repro.core.config.ScanConfig` API;
:func:`repro.subgroup.audit_subgroups` is its keyword-compatible front.
``strategy="exhaustive"`` scores every subgroup of the lattice.  The
other two strategies bound the work:

* **Pruning** (``strategy="best_first"``) — for every subgroup cell the
  positives inside are bracketed by its lattice parents' marginal
  counts: a child of ``gender=f ∧ race=a`` can contain at most
  ``min(pos(gender=f), pos(race=a))`` positives and at least
  ``n − min(neg(gender=f), neg(race=a))``.  The two-proportion z
  statistic is monotone in the positives count (the pooled variance
  depends only on the subgroup *size*, which is known exactly), so
  evaluating the test at the two bracket endpoints yields a sound lower
  bound on the subgroup's p-value — computed with the *same float
  arithmetic* as the real scoring, so the bound holds in floating point,
  not just on paper.  Cells whose p-value lower bound exceeds
  ``alpha + bound_slack`` can never be significant (every supported
  correction only adjusts p-values upward) and are skipped without
  scoring; subsets are then processed best-bound-first so the most
  disparate subgroups surface earliest.

* **Incrementality** (``strategy="incremental"``) — the scan's joint
  cell counts live in an :class:`~repro.streaming.AuditAccumulator`
  (protected attributes × prediction), persisted as a
  :class:`ScanState` together with every subgroup's counts and scores.
  :func:`rescan` ingests only the appended rows, diffs the accumulator
  states, folds the delta marginals into the stored per-subgroup
  counts, and re-derives the findings — the counting cost is
  proportional to the delta, and the result is byte-identical to a
  from-scratch scan of the grown dataset.

Checkpoints
-----------
A mid-run checkpoint holds the joint-cell accumulator, written after
each ingest chunk; the last (``rows_done == n_rows``) is the frozen
count state scoring reads.  Scoring writes nothing, because a resumed
scan reloads those counts and re-scores from them.  The completed scan
overwrites the file with the canonical payload described below.  A file
without a ``format`` payload — such as the envelope-plus-``.findings``
log layout of the retired per-subgroup scanner — is refused with a
:class:`~repro.exceptions.CheckpointError`.

Parallelism
-----------
With ``jobs > 1`` both phases run in a process pool.  Ingest workers
attach to the columns by name (shared memory for in-memory datasets,
packed column files otherwise) and return sparse cell counts; scoring
workers receive count pairs only.  Pool workers spill their telemetry
(``subgroups.score_chunk`` spans, chunk counters) to files merged into
the caller's tracer and registry when the pool joins.

Equivalence contract
--------------------
All strategies agree exactly: the same flagged set, identical p-values
and adjusted p-values on every finding they share, and byte-identical
*final* checkpoint files (the canonical completed-scan payload written
under a strategy-independent fingerprint).  The correction family size
``m`` always counts every subgroup of the full lattice (pruning skips
*scoring*, never family membership), and the Holm / Benjamini–Hochberg
adjusted values are reproduced operation-for-operation from the
censored prefix: every p-value at or below ``alpha + bound_slack`` is
evaluated, so its global rank — and therefore its adjusted value — is
exact.  Adjusted values that land above the threshold are conservative
upper bounds for BH (exact for Holm); they can never flip a flag.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import tempfile
from concurrent.futures import wait as futures_wait
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

import numpy as np

from repro._validation import check_binary_array
from repro.core.config import ScanConfig
from repro.data.dataset import TabularDataset
from repro.exceptions import AuditError, CheckpointError
from repro.robustness.checkpoint import load_checkpoint, save_checkpoint
from repro.stats.batch import batch_score_counts, batch_two_proportion_z
from repro.streaming.accumulator import AuditAccumulator
from repro.subgroup.auditor import (
    SubgroupFinding,
    _finding_to_payload,
    adjust_for_multiple_testing,
)
from repro.subgroup.enumeration import Subgroup, subgroup_space_size

__all__ = ["ScanResult", "ScanState", "scan_subgroups", "rescan"]

#: format version of scan checkpoints and ScanState files
SCAN_FORMAT = 1

#: rows ingested per bounded-memory chunk (in-memory datasets)
_INGEST_CHUNK_ROWS = 1 << 20


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------


def _hash_source(digest, source) -> None:
    """Feed a column source — array or bounded reader — into a digest.

    Chunked sha256 updates produce the same hex digest as one whole-array
    update, so packed and in-memory scans of identical content agree.
    """
    if isinstance(source, np.ndarray):
        digest.update(np.ascontiguousarray(source).tobytes())
        return
    for lo in range(0, source.n_rows, _INGEST_CHUNK_ROWS):
        chunk = source.read(lo, min(lo + _INGEST_CHUNK_ROWS, source.n_rows))
        digest.update(np.ascontiguousarray(chunk).tobytes())


def _scan_fingerprint(
    pred_source,
    dataset: TabularDataset,
    attributes: list[str],
    max_order: int,
    min_size: int,
) -> str:
    """Hash of the data bytes, attributes and lattice shape of a scan.

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


def _result_fingerprint(data_fingerprint: str, config: ScanConfig) -> str:
    """Checkpoint-envelope fingerprint, strategy-independent by design.

    Covers the data bytes, attributes, and lattice shape (via
    :func:`_scan_fingerprint`) plus the equivalence key — everything that
    determines the findings — and deliberately nothing about *how* the
    scan ran (strategy, jobs, cadence, slack), so exhaustive,
    best-first, serial, and parallel scans write and resume each other's
    checkpoints byte-for-byte.
    """
    return hashlib.sha256(
        json.dumps(
            {"data": data_fingerprint, **config.equivalence_key()},
            sort_keys=True,
        ).encode()
    ).hexdigest()


def _state_fingerprint(attributes: list[str], config: ScanConfig) -> str:
    """ScanState-envelope fingerprint.

    Unlike the checkpoint fingerprint this must *not* hash the data:
    the whole point of a state file is to be resumed against a grown
    dataset.  Layout compatibility (attributes + equivalence key) is
    what it pins; the append-only prefix contract is documented, not
    hashed.
    """
    return hashlib.sha256(
        json.dumps(
            {"attributes": list(attributes), **config.equivalence_key()},
            sort_keys=True,
        ).encode()
    ).hexdigest()


# ---------------------------------------------------------------------------
# lattice geometry
# ---------------------------------------------------------------------------


class _Lattice:
    """Static geometry of one scan: attributes, code tables, subsets.

    A *subset* is a tuple of attribute positions; its cell space is the
    row-major mixed-radix product of the full (schema-declared) category
    counts, exactly matching :func:`repro.kernel.combined_codes` — so a
    cell index decodes to category codes and back without touching data.
    """

    def __init__(self, dataset: TabularDataset, attributes: list[str], max_order: int):
        self.attributes = list(attributes)
        self.tables = [dataset.codes(a) for a in attributes]
        self.radix = [t.n_categories for t in self.tables]
        k = len(attributes)
        self.subsets: list[tuple[int, ...]] = [
            positions
            for order in range(1, min(max_order, k) + 1)
            for positions in combinations(range(k), order)
        ]

    def shape(self, positions: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(self.radix[i] for i in positions)

    def n_cells(self, positions: tuple[int, ...]) -> int:
        n = 1
        for i in positions:
            n *= self.radix[i]
        return n

    def conditions(self, positions: tuple[int, ...], cell: int) -> tuple:
        """(attribute, value) conjunction for one cell index."""
        conditions = []
        for i in reversed(positions):  # row-major: the last axis is fastest
            cell, digit = divmod(cell, self.radix[i])
            value = self.tables[i].categories[digit]
            conditions.append((self.attributes[i], value))
        return tuple(reversed(conditions))

    def mask_factory(self, positions: tuple[int, ...], conditions: tuple):
        """Deferred conjunction of the tables' cached category masks."""
        tables = [self.tables[i] for i in positions]

        def build(tables=tables, conditions=conditions) -> np.ndarray:
            masks = [
                table.mask(value) for table, (_, value) in zip(tables, conditions)
            ]
            return masks[0] if len(masks) == 1 else np.logical_and.reduce(masks)

        return build


def _cells_arrays(accumulator: AuditAccumulator) -> tuple[np.ndarray, np.ndarray]:
    """The accumulator's sparse cells as aligned (keys, counts) arrays.

    Keys are sorted so every derived quantity is independent of dict
    insertion order (serial vs parallel ingest, resumed vs fresh).
    """
    items = sorted(accumulator._cells.items())
    if not items:
        return np.zeros((0, 1), dtype=np.int64), np.zeros(0, dtype=np.int64)
    keys = np.asarray([key for key, _ in items], dtype=np.int64)
    counts = np.asarray([count for _, count in items], dtype=np.int64)
    return keys, counts


class _Marginals:
    """Dense per-subset (sizes, positives) tensors from sparse joint cells.

    One weighted bincount per attribute subset marginalises the joint
    cells exactly (counts are integers far below 2**53, so the float64
    accumulation is exact); this replaces the legacy per-subset O(n)
    column passes with O(observed cells) work.
    """

    def __init__(self, lattice: _Lattice, keys: np.ndarray, counts: np.ndarray):
        self.lattice = lattice
        self._keys = keys
        self._counts = counts.astype(np.float64)
        self._cache: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}

    def subset(self, positions: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """(sizes, positives) int64 vectors over the subset's full cell space."""
        cached = self._cache.get(positions)
        if cached is not None:
            return cached
        n_cells = self.lattice.n_cells(positions)
        if len(self._keys) == 0:
            empty = np.zeros(n_cells, dtype=np.int64)
            self._cache[positions] = (empty, empty.copy())
            return self._cache[positions]
        combined = self._keys[:, positions[0]].copy()
        for i in positions[1:]:
            combined *= self.lattice.radix[i]
            combined += self._keys[:, i]
        combined *= 2
        combined += self._keys[:, -1]  # prediction axis
        totals = np.bincount(
            combined, weights=self._counts, minlength=n_cells * 2
        ).reshape(n_cells, 2)
        sizes = totals.sum(axis=1).astype(np.int64)
        positives = totals[:, 1].astype(np.int64)
        self._cache[positions] = (sizes, positives)
        return sizes, positives


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def _bound_keep(
    lattice: _Lattice,
    marginals: _Marginals,
    positions: tuple[int, ...],
    eligible: np.ndarray,
    sizes: np.ndarray,
    positives: np.ndarray,
    positives_total: int,
    n_total: int,
    threshold: float,
) -> np.ndarray:
    """Which eligible cells of one subset *might* be significant.

    Two nested interval bounds on each cell's positives-inside count
    ``a``, coarse to tight:

    1. *Parent interval* — ``a`` is at most the smallest positives
       count among the cell's direct lattice parents (and the
       population) and at least ``n`` minus their smallest negatives
       count.  This is the classic branch-and-bound bound: it needs
       only lower-order marginals.
    2. *Own marginal* — the subset's joint counts are already folded
       (the correction family needs every subgroup's exact size), so
       the interval collapses to the observed count itself: the
       width-zero bracket whose bound *is* the p-value the scoring
       would compute.

    The z statistic is monotone in ``a`` for fixed ``n`` (the pooled
    variance depends only on ``n``) — including after float rounding,
    since the float image of a monotone real function is monotone — so
    each interval's p-value lower bound is attained at an endpoint,
    evaluated here with the very same :func:`batch_two_proportion_z`
    the real scoring uses.  A cell whose bound still exceeds
    ``threshold`` is provably never significant (every supported
    correction only adjusts p-values upward), so skipping its scoring
    and finding construction cannot change the flagged set.

    Returns a boolean keep-mask aligned with the full cell space
    (False everywhere ``eligible`` is False).
    """
    keep = np.zeros(len(sizes), dtype=bool)
    if not eligible.any():
        return keep
    idx = np.flatnonzero(eligible)
    n = sizes[idx]
    # Degenerate population (no positives, or all positives): every
    # subgroup's rate equals its complement's, p = 1 everywhere.
    if positives_total == 0 or positives_total == n_total:
        return keep if threshold < 1.0 else _fill(keep, idx)
    shape = lattice.shape(positions)
    digits = np.unravel_index(idx, shape)
    upper = np.full(len(idx), positives_total, dtype=np.int64)
    lower_neg = np.full(len(idx), n_total - positives_total, dtype=np.int64)
    for drop in range(len(positions)):
        parent = positions[:drop] + positions[drop + 1 :]
        if not parent:
            continue
        parent_sizes, parent_pos = marginals.subset(parent)
        parent_cells = np.zeros(len(idx), dtype=np.int64)
        for j, i in enumerate(parent):
            parent_cells *= lattice.radix[i]
            parent_cells += digits[j if j < drop else j + 1]
        np.minimum(upper, parent_pos[parent_cells], out=upper)
        np.minimum(
            lower_neg,
            parent_sizes[parent_cells] - parent_pos[parent_cells],
            out=lower_neg,
        )
    a_hi = np.minimum(upper, n)
    a_lo = np.maximum(0, n - lower_neg)
    _, p_lo = batch_two_proportion_z(
        a_lo, n, positives_total - a_lo, n_total - n
    )
    _, p_hi = batch_two_proportion_z(
        a_hi, n, positives_total - a_hi, n_total - n
    )
    survivors = np.minimum(p_lo, p_hi) <= threshold
    if survivors.any():
        live = idx[survivors]
        a = positives[live]
        _, p_exact = batch_two_proportion_z(
            a, sizes[live], positives_total - a, n_total - sizes[live]
        )
        keep[live] = p_exact <= threshold
    return keep


def _fill(mask: np.ndarray, idx: np.ndarray) -> np.ndarray:
    mask[idx] = True
    return mask


# ---------------------------------------------------------------------------
# censored multiple-testing corrections
# ---------------------------------------------------------------------------


def _censored_corrections(
    findings: list[SubgroupFinding],
    method: str,
    family: int,
    threshold: float,
) -> list[SubgroupFinding]:
    """Holm / BH adjusted p-values from a censored scan, exactly.

    ``findings`` are the evaluated subgroups; every member of the
    size-``family`` correction family with a p-value at or below
    ``threshold`` is among them (the pruning guarantee), so for those
    entries the global mergesort rank equals the rank within this
    prefix and the legacy expressions — ``min(1, (m − rank) · p)``
    running-max for Holm, ``min(1, m · p / (rank + 1))`` reverse
    running-min for BH — reproduce :mod:`repro.stats.multiple_testing`
    bit for bit.  Entries whose p-value exceeds the threshold keep
    ``adjusted_p_value=None`` (their raw p already exceeds α); BH
    prefix entries whose censored running-min exceeds the threshold get
    that value as a conservative upper bound (the true minimum could
    involve a pruned tail rank, but every tail candidate also exceeds
    the threshold, so the flag verdict is unaffected).
    """
    if method == "none" or not findings:
        return findings
    if method not in ("holm", "bh"):
        raise AuditError(
            f"unknown correction method {method!r}; use 'holm' or 'bh'"
        )
    prefix = [i for i, f in enumerate(findings) if f.p_value <= threshold]
    adjusted: dict[int, float] = {}
    if prefix:
        p = np.asarray([findings[i].p_value for i in prefix], dtype=float)
        order = np.argsort(p, kind="mergesort")
        if method == "holm":
            running = 0.0
            for rank, position in enumerate(order):
                value = min(1.0, (family - rank) * p[position])
                running = max(running, value)
                adjusted[prefix[int(position)]] = running
        else:
            running = 1.0
            for rank in range(len(order) - 1, -1, -1):
                position = order[rank]
                value = min(1.0, family * p[position] / (rank + 1))
                running = min(running, value)
                adjusted[prefix[int(position)]] = running
    return [
        (
            dataclasses.replace(f, adjusted_p_value=float(adjusted[i]))
            if i in adjusted
            else f
        )
        for i, f in enumerate(findings)
    ]


# ---------------------------------------------------------------------------
# results and state
# ---------------------------------------------------------------------------


@dataclass
class ScanResult:
    """Outcome of one :func:`scan_subgroups` / :func:`rescan` run.

    ``findings`` are the evaluated subgroups — all of them for an
    exhaustive scan, the bound-survivors otherwise — sorted most
    disparate first with adjusted p-values attached per the configured
    correction.  ``flagged`` is the significant subset, provably
    identical across strategies.  ``total`` counts the enumerated
    lattice (subgroups at or above ``min_size``), ``family`` the
    multiple-testing family ``m`` (enumerated subgroups with a
    non-empty complement).
    """

    findings: list[SubgroupFinding]
    flagged: list[SubgroupFinding]
    config: ScanConfig
    total: int
    family: int
    evaluated: int
    pruned: int
    rescored: int = 0
    state: "ScanState | None" = field(default=None, repr=False)

    @property
    def pruned_fraction(self) -> float:
        return self.pruned / self.total if self.total else 0.0

    def summary(self) -> dict:
        return {
            "strategy": self.config.strategy,
            "total": self.total,
            "family": self.family,
            "evaluated": self.evaluated,
            "pruned": self.pruned,
            "rescored": self.rescored,
            "pruned_fraction": round(self.pruned_fraction, 4),
            "flagged": len(self.flagged),
        }


@dataclass
class ScanState:
    """Persisted sufficient statistics of a completed incremental scan.

    Everything :func:`rescan` needs to re-score a grown dataset from
    its delta: the joint-cell accumulator, and per-subgroup counts and
    scores (dense per attribute subset, aligned with the subset's full
    cell space).  Saved through the atomic checkpoint writer under a
    layout fingerprint, so state from a different attribute set or
    lattice configuration refuses to load.
    """

    attributes: list[str]
    config: ScanConfig
    accumulator: AuditAccumulator
    n_rows: int
    positives_total: int
    subsets: dict[tuple[int, ...], dict]

    def to_payload(self) -> dict:
        accumulator = self.accumulator.to_dict()
        # How many chunks built the cells is an artifact of ingest
        # chunking, not of the data; zero it so a rescan's state file is
        # byte-identical to a from-scratch scan's.
        accumulator["chunks_ingested"] = 0
        return {
            "format": SCAN_FORMAT,
            "attributes": list(self.attributes),
            "config": self.config.to_dict(),
            "n_rows": int(self.n_rows),
            "positives_total": int(self.positives_total),
            "accumulator": accumulator,
            "subsets": [
                {
                    "positions": list(positions),
                    "sizes": [int(v) for v in entry["sizes"]],
                    "positives": [int(v) for v in entry["positives"]],
                    "p_values": [
                        None if p is None else float(p)
                        for p in entry["p_values"]
                    ],
                }
                for positions, entry in sorted(self.subsets.items())
            ],
        }

    def save(self, path) -> None:
        save_checkpoint(
            path,
            self.to_payload(),
            fingerprint=_state_fingerprint(self.attributes, self.config),
        )

    @classmethod
    def load(cls, path, *, attributes=None, config: ScanConfig | None = None):
        """Load a state file, optionally pinned to a layout.

        With ``attributes`` and ``config`` the envelope fingerprint is
        verified — state written for a different attribute set or
        equivalence key raises :class:`CheckpointError`.
        """
        fingerprint = None
        if attributes is not None and config is not None:
            fingerprint = _state_fingerprint(list(attributes), config)
        payload = load_checkpoint(path, fingerprint)
        try:
            if payload["format"] != SCAN_FORMAT:
                raise AuditError(
                    f"scan state has format {payload['format']!r}; this "
                    f"build reads {SCAN_FORMAT}"
                )
            return cls(
                attributes=list(payload["attributes"]),
                config=ScanConfig.from_dict(payload["config"]),
                accumulator=AuditAccumulator.from_dict(payload["accumulator"]),
                n_rows=int(payload["n_rows"]),
                positives_total=int(payload["positives_total"]),
                subsets={
                    tuple(entry["positions"]): {
                        "sizes": np.asarray(entry["sizes"], dtype=np.int64),
                        "positives": np.asarray(
                            entry["positives"], dtype=np.int64
                        ),
                        "p_values": list(entry["p_values"]),
                    }
                    for entry in payload["subsets"]
                },
            )
        except (AuditError, KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"scan state {path} has the wrong layout: "
                f"{type(exc).__name__}: {exc}",
                path=path,
            ) from exc


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------


def _validate_binary_reader(reader) -> int:
    """Chunked 0/1 validation of a packed prediction column.

    The bounded-memory stand-in for :func:`check_binary_array`: same
    rejections, but never materialises the column or full-size
    temporaries.  Returns the positive count.
    """
    from repro.exceptions import ValidationError

    if reader.dtype.kind not in "iub":
        raise ValidationError(
            "predictions must be an integer/boolean array, got dtype "
            f"{reader.dtype}"
        )
    positives = 0
    for lo in range(0, reader.n_rows, _INGEST_CHUNK_ROWS):
        chunk = reader.read(lo, min(lo + _INGEST_CHUNK_ROWS, reader.n_rows))
        bad = (chunk != 0) & (chunk != 1)
        if bad.any():
            raise ValidationError(
                "predictions must contain only 0/1 values, found "
                f"{np.unique(chunk[bad]).tolist()[:5]}"
            )
        positives += int(chunk.sum())
    return positives


def _prediction_source(predictions, dataset: TabularDataset):
    """Validated predictions as ``(source, positives, n_rows)``.

    A packed dataset hands out memmapped columns; when the predictions
    are one of them (``dataset.labels()``), the source is the bounded
    reader behind it, validated, hashed and counted through buffered
    reads instead of materialising the mapping.
    """
    reader = None
    reader_for = getattr(dataset, "reader_for", None)
    if reader_for is not None and isinstance(predictions, np.ndarray):
        reader = reader_for(predictions)
    if reader is not None:
        return reader, _validate_binary_reader(reader), dataset.n_rows
    predictions = check_binary_array(predictions, "predictions")
    if len(predictions) != dataset.n_rows:
        raise AuditError("predictions length does not match dataset")
    return predictions, int(predictions.sum()), len(predictions)


def _code_sources(dataset: TabularDataset, attributes: list[str], pred_source):
    """Per-row readers: ``read(lo, hi) -> int64 codes`` per column + preds."""
    packed = hasattr(dataset, "codes_reader")

    def column_reader(attribute):
        if packed:
            reader = dataset.codes_reader(attribute)
            return lambda lo, hi, reader=reader: reader.read(lo, hi)
        codes = dataset.codes(attribute).codes
        return lambda lo, hi, codes=codes: codes[lo:hi]

    if isinstance(pred_source, np.ndarray):
        pred = lambda lo, hi: np.asarray(pred_source[lo:hi], dtype=np.int64)  # noqa: E731
    else:
        pred = lambda lo, hi: pred_source.read(lo, hi)  # noqa: E731
    return [column_reader(a) for a in attributes], pred


def _ingest_range(
    accumulator: AuditAccumulator,
    dataset: TabularDataset,
    attributes: list[str],
    pred_source,
    lo: int,
    hi: int,
    on_chunk=None,
) -> None:
    """Ingest rows ``[lo, hi)`` as code arrays, chunked and bounded.

    Cell keys are *category codes* (ints), not values — compact,
    JSON-stable, and identical across in-memory and packed
    representations of the same data.  The codes go straight to
    :meth:`~repro.streaming.AuditAccumulator.ingest_codes`, each axis
    over the categories ``range(radix)``; nothing is re-encoded.
    """
    readers, pred = _code_sources(dataset, attributes, pred_source)
    categories = [
        list(range(dataset.codes(attribute).n_categories))
        for attribute in attributes
    ]
    step = int(getattr(dataset, "chunk_rows", _INGEST_CHUNK_ROWS))
    for start in range(lo, hi, step):
        end = min(start + step, hi)
        accumulator.ingest_codes([
            *(
                (cats, reader(start, end))
                for cats, reader in zip(categories, readers)
            ),
            ([0, 1], pred(start, end)),
        ])
        if on_chunk is not None:
            on_chunk(end)


def _ingest_parallel(
    accumulator: AuditAccumulator,
    dataset: TabularDataset,
    attributes: list[str],
    pred_source,
    lattice: _Lattice,
    lo: int,
    pool,
    on_chunk=None,
) -> None:
    """Parallel joint-cell ingest: workers count rows, the parent merges.

    Workers receive zero-copy source manifests (shared memory for
    in-memory datasets, packed column files otherwise) and return
    sparse ``(combined code, count)`` pairs; integer addition makes the
    merged cells identical to a serial ingest regardless of chunking.
    A task is one ingest chunk, as in the serial ingest, so a worker
    holds one chunk's codes however large the dataset.
    """
    import uuid

    from repro.kernel.parallel import chunk_ranges, count_cells_chunk
    from repro.kernel.shm import publish as shm_publish

    packed = hasattr(dataset, "codes_reader")

    def manifest(attribute):
        if packed:
            return dataset.codes_reader(attribute).manifest()
        return shm_publish(dataset.codes(attribute).codes)

    sources = {
        "token": uuid.uuid4().hex,
        "columns": [manifest(a) for a in attributes],
        "n_categories": list(lattice.radix),
        "predictions": (
            pred_source.manifest()
            if not isinstance(pred_source, np.ndarray)
            else shm_publish(pred_source)
        ),
    }
    n_rows = dataset.n_rows
    step = int(getattr(dataset, "chunk_rows", _INGEST_CHUNK_ROWS))
    ranges = chunk_ranges(lo, n_rows, step)
    shape = tuple(lattice.radix) + (2,)
    futures = [
        pool.submit(count_cells_chunk, sources, lo_, hi_)
        for lo_, hi_ in ranges
    ]
    for (lo_, hi_), future in zip(ranges, futures):
        codes, counts = future.result()
        if codes:
            digits = np.unravel_index(np.asarray(codes, dtype=np.int64), shape)
            cells = accumulator._cells
            for position, count in enumerate(counts):
                key = tuple(int(axis[position]) for axis in digits)
                cells[key] = cells.get(key, 0) + int(count)
        accumulator.n_rows += hi_ - lo_
        accumulator.chunks_ingested += 1
        if on_chunk is not None:
            on_chunk(hi_)


# ---------------------------------------------------------------------------
# the scan engine
# ---------------------------------------------------------------------------


def _restored_counts(
    state, lattice: _Lattice, n_total: int
) -> AuditAccumulator:
    """A counts checkpoint's accumulator, checked against this lattice.

    The fingerprint already pins the data and the lattice, so a
    mismatch here means the file was edited: every cell key must be a
    code inside the lattice's radix (and a 0/1 prediction), and no more
    rows may be counted than exist.  Violations raise ``ValueError``
    for the caller to report as a :class:`CheckpointError`.
    """
    if not isinstance(state, dict):
        raise ValueError("accumulator state is not a JSON object")
    accumulator = AuditAccumulator.from_dict(state)
    if (
        accumulator.protected != tuple(lattice.attributes)
        or accumulator.strata is not None
        or accumulator.label is not None
    ):
        raise ValueError("accumulator layout does not match the lattice")
    bounds = (*lattice.radix, 2)
    for key in accumulator._cells:
        if not all(
            type(code) is int and 0 <= code < bound
            for code, bound in zip(key, bounds)
        ):
            raise ValueError(f"cell {key!r} lies outside the lattice")
    if accumulator.n_rows > n_total:
        raise ValueError(
            f"{accumulator.n_rows} rows counted, the dataset has {n_total}"
        )
    return accumulator


def _merge_spills(tracer, metrics, spill_dir) -> None:
    """Fold pool-worker telemetry spills into the parent tracer/registry.

    Tolerant by construction: :func:`repro.kernel.read_spills` already
    skips torn lines from killed workers, and a delta that fails
    :meth:`~repro.observability.MetricsRegistry.merge_delta` validation
    is dropped whole — worker telemetry is best-effort evidence and must
    never corrupt the parent's, or fail a scan that scored correctly.
    """
    from repro.exceptions import ValidationError
    from repro.kernel.parallel import read_spills

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


def _canonical_payload(
    flagged: list[SubgroupFinding], total: int, family: int
) -> dict:
    """The strategy-independent completed-scan checkpoint payload."""
    ordered = sorted(flagged, key=lambda f: (-abs(f.gap), f.subgroup.label()))
    return {
        "format": SCAN_FORMAT,
        "complete": True,
        "total": int(total),
        "family": int(family),
        "flagged": [
            {
                **_finding_to_payload(f),
                "adjusted_p_value": (
                    None
                    if f.adjusted_p_value is None
                    else float(f.adjusted_p_value)
                ),
            }
            for f in ordered
        ],
    }


def _score_and_correct(
    lattice: _Lattice,
    marginals_by_subset: dict[tuple[int, ...], dict],
    config: ScanConfig,
    positives_total: int,
    n_total: int,
    *,
    metrics,
    tracer,
    on_progress=None,
    pool=None,
    spill: bool = False,
    subset_order: list[tuple[int, ...]] | None = None,
) -> tuple[list[SubgroupFinding], list[SubgroupFinding], dict]:
    """Score the kept cells, attach corrections, compute the flag set.

    ``marginals_by_subset`` maps each subset to dense ``sizes``,
    ``positives``, ``eligible`` (size ≥ min_size with a non-empty
    complement), and ``keep`` (eligible minus pruned) vectors.  Scoring
    walks subsets in ``subset_order`` (enumeration order by default),
    batching through :func:`batch_score_counts` in checkpoint-interval
    chunks — dispatched to ``pool`` via bound-aware ranges when one is
    given — so the numbers are bit-identical to the per-subgroup scalar
    arithmetic.  ``spill`` routes pool workers through
    :func:`score_chunk_telemetry` (only for a real process pool: an
    injected executor may run chunks as threads in this very process,
    where the spill's registry/tracer swaps would race ours).
    ``on_progress`` hears about every subgroup in processing order,
    pruned ones included, once its chunk is scored.
    """
    from repro.kernel.parallel import (
        pruned_ranges,
        score_chunk,
        score_chunk_telemetry,
    )

    order = subset_order if subset_order is not None else list(
        marginals_by_subset
    )
    # Flatten the processing order into aligned per-subgroup vectors.
    flat: list[tuple[tuple[int, ...], int, int, int]] = []  # positions, cell, pos, n
    keep_flags: list[bool] = []
    total = family = pruned = 0
    for positions in order:
        entry = marginals_by_subset[positions]
        sizes, positives = entry["sizes"], entry["positives"]
        enumerated = np.flatnonzero(entry["enumerated"])
        eligible, keep = entry["eligible"], entry["keep"]
        total += len(enumerated)
        family += int(eligible.sum())
        for cell in enumerated:
            cell = int(cell)
            if eligible[cell] and not keep[cell]:
                pruned += 1
            flat.append(
                (positions, cell, int(positives[cell]), int(sizes[cell]))
            )
            keep_flags.append(bool(keep[cell]))
    if pruned:
        metrics.counter("subgroups.pruned").inc(pruned)

    findings: list[SubgroupFinding] = []
    evaluated = 0
    ranges = pruned_ranges(keep_flags, config.checkpoint_every)
    chunks = [
        [i for i in range(lo, hi) if keep_flags[i]] for lo, hi in ranges
    ]
    work = [[(flat[i][2], flat[i][3]) for i in kept] for kept in chunks]
    futures, spill_dir = [], None
    if pool is None:
        results = (score_chunk(e, positives_total, n_total) for e in work)
    else:
        if spill:
            # chunk spans continue this scan's trace; spans and metric
            # deltas come back as files merged once the chunks are done
            spill_dir = tempfile.mkdtemp(prefix="repro-scan-spill-")
            context = tracer.current_context()
        for (lo, hi), entries in zip(ranges, work):
            if spill_dir is None:
                futures.append(pool.submit(
                    score_chunk, entries, positives_total, n_total
                ))
            else:
                futures.append(pool.submit(
                    score_chunk_telemetry, entries, positives_total, n_total,
                    {
                        "dir": spill_dir,
                        "lo": lo,
                        "hi": hi,
                        "context": context.to_dict() if context else None,
                        "run_id": getattr(tracer, "run_id", ""),
                    },
                ))
        results = (future.result() for future in futures)
    done = 0
    try:
        for (lo, hi), kept, payloads in zip(ranges, chunks, results):
            for i, payload in zip(kept, payloads):
                positions, cell, pos, n = flat[i]
                if payload is None:  # pragma: no cover — keep excludes n == N
                    continue
                conditions = lattice.conditions(positions, cell)
                findings.append(
                    SubgroupFinding(
                        subgroup=Subgroup(
                            conditions=conditions,
                            size=n,
                            mask_factory=lattice.mask_factory(
                                positions, conditions
                            ),
                        ),
                        **payload,
                    )
                )
            evaluated += len(kept)
            metrics.counter("subgroups.evaluated").inc(len(kept))
            if on_progress is not None:
                for position in range(done, hi):
                    on_progress(position + 1, len(flat))
            done = hi
    finally:
        if spill_dir is not None:
            # no worker may still be writing when the files are merged
            for future in futures:
                future.cancel()
            futures_wait(futures)
            _merge_spills(tracer, metrics, spill_dir)
            shutil.rmtree(spill_dir, ignore_errors=True)
    if on_progress is not None:
        for position in range(done, len(flat)):
            on_progress(position + 1, len(flat))

    findings.sort(key=lambda f: (-abs(f.gap), f.subgroup.label()))
    threshold = config.alpha + config.bound_slack
    if config.strategy == "exhaustive" or pruned == 0:
        # Nothing censored: the legacy full-family correction applies
        # verbatim (family == len(findings) + zero-complement cells
        # never scored by either path).
        if config.correction != "none" and findings:
            findings = adjust_for_multiple_testing(findings, config.correction)
    else:
        findings = _censored_corrections(
            findings, config.correction, family, threshold
        )
    flagged = [f for f in findings if f.significant(config.alpha)]
    stats = {
        "total": total,
        "family": family,
        "evaluated": evaluated,
        "pruned": pruned,
    }
    return findings, flagged, stats


def _prepare_marginals(
    lattice: _Lattice,
    marginals: _Marginals,
    config: ScanConfig,
    positives_total: int,
    n_total: int,
    metrics,
) -> dict[tuple[int, ...], dict]:
    """Dense per-subset vectors: sizes, positives, eligibility, keep."""
    prune = config.strategy in ("best_first", "incremental")
    threshold = config.alpha + config.bound_slack
    out: dict[tuple[int, ...], dict] = {}
    for positions in lattice.subsets:
        sizes, positives = marginals.subset(positions)
        enumerated = sizes >= config.min_size
        eligible = enumerated & (sizes < n_total)
        if prune:
            with metrics.timer("scan.bound_check"):
                keep = _bound_keep(
                    lattice,
                    marginals,
                    positions,
                    eligible,
                    sizes,
                    positives,
                    positives_total,
                    n_total,
                    threshold,
                )
        else:
            keep = eligible.copy()
        out[positions] = {
            "sizes": sizes,
            "positives": positives,
            "enumerated": enumerated,
            "eligible": eligible,
            "keep": keep,
        }
    return out


def _subset_priority(
    marginals_by_subset: dict[tuple[int, ...], dict],
    positives_total: int,
    n_total: int,
) -> list[tuple[int, ...]]:
    """Best-first processing order: most promising subsets first.

    Priority is the subset's smallest surviving p-value bound proxy —
    implemented as the largest absolute gap achievable among its kept
    cells, with the enumeration position as a deterministic tiebreak.
    Order affects *when* subgroups are scored (the anytime property:
    checkpoints fill with the most disparate candidates first), never
    *what* the completed scan returns.
    """
    ranked = []
    for index, (positions, entry) in enumerate(marginals_by_subset.items()):
        keep = entry["keep"]
        if keep.any():
            sizes = entry["sizes"][keep].astype(np.float64)
            pos = entry["positives"][keep].astype(np.float64)
            rate = pos / sizes
            rest = (positives_total - pos) / (n_total - sizes)
            score = float(np.max(np.abs(rate - rest)))
        else:
            score = -1.0
        ranked.append((-score, index, positions))
    ranked.sort()
    return [positions for _, _, positions in ranked]


def scan_subgroups(
    predictions,
    dataset: TabularDataset,
    attributes: list[str] | None = None,
    *,
    config: ScanConfig | None = None,
    checkpoint_path=None,
    resume: bool = False,
    state_path=None,
    on_progress=None,
    tracer=None,
    metrics=None,
    executor_factory=None,
) -> ScanResult:
    """One subgroup-lattice scan under a :class:`ScanConfig`.

    The strategy-aware front door: ``"exhaustive"`` scores the whole
    lattice, ``"best_first"`` prunes bound-certified subgroups and
    processes the rest most-promising-first, ``"incremental"``
    additionally persists (and, when ``state_path`` already holds state
    for this lattice, *resumes from*) a :class:`ScanState`, re-scoring
    only from the appended delta.

    All strategies return the same flagged set and write byte-identical
    completed checkpoints (see the module docstring for the proof
    obligations).  With ``checkpoint_path`` the scan checkpoints its
    counts after each ingest chunk and its canonical result at the
    end; ``resume`` restarts from the last of those, skipping the
    ingest already performed and re-scoring from the saved counts.
    """
    from repro.kernel import get_backend
    from repro.observability.metrics import get_metrics
    from repro.observability.trace import get_tracer

    config = config if config is not None else ScanConfig()
    tracer = tracer if tracer is not None else get_tracer()
    metrics = metrics if metrics is not None else get_metrics()
    jobs = config.jobs
    if jobs > 1 and get_backend() != "kernel":
        raise AuditError(
            "jobs > 1 requires the 'kernel' backend; the reference path "
            "is serial-only (repro.kernel.set_backend)"
        )
    if resume and checkpoint_path is None:
        raise CheckpointError("resume=True requires a checkpoint_path")
    if config.strategy == "incremental" and state_path is None:
        raise AuditError(
            "strategy 'incremental' requires a state_path to persist "
            "ScanState between audits"
        )

    pred_source, positives_total, n_total = _prediction_source(
        predictions, dataset
    )
    if attributes is None:
        attributes = dataset.schema.protected_names
    if not attributes:
        raise AuditError("no attributes to audit")
    attributes = list(attributes)
    for attribute in attributes:
        column = dataset.schema[attribute]
        if not column.is_discrete:
            raise AuditError(
                f"subgroup scans require discrete columns; {attribute!r} "
                f"is {column.kind}"
            )

    # Incremental fast path: reuse persisted state when it matches this
    # lattice and the dataset has only grown.
    if config.strategy == "incremental" and Path(state_path).exists():
        state = ScanState.load(
            state_path, attributes=attributes, config=config
        )
        if state.n_rows > dataset.n_rows:
            raise CheckpointError(
                f"scan state {state_path} covers {state.n_rows} rows but "
                f"the dataset has {dataset.n_rows}; incremental scans "
                "require append-only growth",
                path=state_path,
            )
        return rescan(
            state,
            predictions,
            dataset,
            attributes=attributes,
            checkpoint_path=checkpoint_path,
            state_path=state_path,
            tracer=tracer,
            metrics=metrics,
            on_progress=on_progress,
        )

    lattice = _Lattice(dataset, attributes, config.max_order)
    space = subgroup_space_size(list(lattice.radix), config.max_order)
    if space > 100_000:
        raise AuditError(
            f"subgroup space has {space} members, exceeding budget 100000; "
            "lower max_order (paper IV.C: complexity increases "
            "exponentially)"
        )

    fingerprint = ""
    if checkpoint_path is not None:
        fingerprint = _result_fingerprint(
            _scan_fingerprint(
                pred_source, dataset, attributes,
                config.max_order, config.min_size,
            ),
            config,
        )

    accumulator = AuditAccumulator(attributes, label=None)
    rows_done = 0
    if resume and Path(checkpoint_path).exists():
        payload = load_checkpoint(checkpoint_path, fingerprint)
        try:
            if not isinstance(payload, dict) or (
                payload.get("format") != SCAN_FORMAT
            ):
                raise CheckpointError(
                    f"scan checkpoint {checkpoint_path} has the wrong "
                    f"layout: no format {SCAN_FORMAT} payload (checkpoints "
                    "that keep findings in a .findings log predate this "
                    "scanner and cannot be resumed; rerun without resume)",
                    path=checkpoint_path,
                )
            if payload.get("complete"):
                # Canonical completed checkpoint: it stores the flagged
                # payloads, not the cells, so re-derive the full result
                # fresh (same bytes will be rewritten at the end).
                pass
            else:
                accumulator = _restored_counts(
                    payload["accumulator"], lattice, n_total
                )
                rows_done = accumulator.n_rows
        except CheckpointError:
            raise
        except (KeyError, TypeError, ValueError, AuditError) as exc:
            raise CheckpointError(
                f"scan checkpoint {checkpoint_path} has the wrong layout: "
                f"{type(exc).__name__}: {exc}",
                path=checkpoint_path,
            ) from exc

    # One pool serves both phases; ProcessPoolExecutor starts its
    # workers on the first submit, so a phase with no work spawns none.
    if jobs == 1:
        pool_ctx = nullcontext()
    elif executor_factory is not None:
        pool_ctx = executor_factory(jobs)
    else:
        from concurrent.futures import ProcessPoolExecutor

        pool_ctx = ProcessPoolExecutor(max_workers=jobs)
    with tracer.span(
        "subgroups.scan",
        strategy=config.strategy,
        max_order=config.max_order,
        min_size=config.min_size,
        jobs=jobs,
        resumed_rows=rows_done,
    ) as span, pool_ctx as pool:

        def ingest_checkpoint(rows: int) -> None:
            if checkpoint_path is not None:
                with metrics.timer("subgroups.checkpoint_write"):
                    save_checkpoint(
                        checkpoint_path,
                        {
                            "format": SCAN_FORMAT,
                            "complete": False,
                            "phase": "ingest",
                            "rows_done": int(rows),
                            "accumulator": accumulator.to_dict(),
                        },
                        fingerprint=fingerprint,
                    )
                span.event("checkpoint", phase="ingest", rows=rows)

        if rows_done < n_total:
            if pool is not None:
                _ingest_parallel(
                    accumulator, dataset, attributes, pred_source, lattice,
                    rows_done, pool,
                    on_chunk=ingest_checkpoint if checkpoint_path else None,
                )
            else:
                _ingest_range(
                    accumulator, dataset, attributes, pred_source,
                    rows_done, n_total,
                    on_chunk=ingest_checkpoint if checkpoint_path else None,
                )
        if accumulator.n_rows != n_total:  # pragma: no cover — defensive
            raise AuditError(
                f"ingest covered {accumulator.n_rows} rows, expected {n_total}"
            )

        keys, counts = _cells_arrays(accumulator)
        marginals = _Marginals(lattice, keys, counts)
        by_subset = _prepare_marginals(
            lattice, marginals, config, positives_total, n_total, metrics
        )
        subset_order = (
            _subset_priority(by_subset, positives_total, n_total)
            if config.strategy in ("best_first", "incremental")
            else list(by_subset)
        )

        findings, flagged, stats = _score_and_correct(
            lattice, by_subset, config, positives_total, n_total,
            metrics=metrics, tracer=tracer, on_progress=on_progress,
            pool=pool, spill=pool is not None and executor_factory is None,
            subset_order=subset_order,
        )
        span.set(**stats)

        state = None
        if config.strategy == "incremental":
            state = _build_state(
                lattice, attributes, config, accumulator, n_total,
                positives_total, by_subset, findings,
            )
            state.save(state_path)

        if checkpoint_path is not None:
            with metrics.timer("subgroups.checkpoint_write"):
                save_checkpoint(
                    checkpoint_path,
                    _canonical_payload(
                        flagged, stats["total"], stats["family"]
                    ),
                    fingerprint=fingerprint,
                )
            span.event("checkpoint", phase="complete")

    return ScanResult(
        findings=findings,
        flagged=flagged,
        config=config,
        state=state,
        **stats,
    )


def _build_state(
    lattice: _Lattice,
    attributes,
    config,
    accumulator,
    n_rows,
    positives_total,
    by_subset,
    findings,
) -> ScanState:
    """Assemble the persistable per-subgroup counts + scores.

    Scored p-values are written back into each subset's dense cell
    vector (``None`` for subgroups that were pruned or below
    ``min_size``); :func:`rescan` re-scores whatever changed, so the
    stored scores serve inspection and the unchanged-subgroup ledger.
    """
    subsets: dict[tuple[int, ...], dict] = {}
    for positions in sorted(by_subset):
        entry = by_subset[positions]
        subsets[positions] = {
            "sizes": entry["sizes"],
            "positives": entry["positives"],
            "p_values": [None] * len(entry["sizes"]),
        }
    position_of = {name: i for i, name in enumerate(attributes)}
    for f in findings:
        conditions = f.subgroup.conditions
        positions = tuple(position_of[a] for a, _ in conditions)
        cell = 0
        for i, (_, value) in zip(positions, conditions):
            cell = cell * lattice.radix[i] + lattice.tables[i].index[value]
        subsets[positions]["p_values"][cell] = float(f.p_value)
    return ScanState(
        attributes=list(attributes),
        config=config,
        accumulator=accumulator,
        n_rows=int(n_rows),
        positives_total=int(positives_total),
        subsets=subsets,
    )


def rescan(
    state: ScanState,
    predictions,
    dataset: TabularDataset,
    attributes: list[str] | None = None,
    *,
    checkpoint_path=None,
    state_path=None,
    on_progress=None,
    tracer=None,
    metrics=None,
) -> ScanResult:
    """Re-score a grown dataset from its delta against a ScanState.

    The contract is append-only growth: rows ``[0, state.n_rows)`` of
    ``dataset`` are the rows the state was built from, unchanged.  Only
    the appended rows are ingested; the accumulator diff's marginals
    are folded into the stored per-subgroup counts, the
    ``subgroups.rescored`` counter records how many subgroups' counts
    actually changed, and scoring/corrections re-run over the merged
    counts — the result (and any completed checkpoint written) is
    byte-identical to a from-scratch scan of the grown dataset under
    the same configuration.
    """
    from repro.observability.metrics import get_metrics
    from repro.observability.trace import get_tracer

    tracer = tracer if tracer is not None else get_tracer()
    metrics = metrics if metrics is not None else get_metrics()
    config = state.config

    pred_source, positives_total, n_total = _prediction_source(
        predictions, dataset
    )
    if attributes is None:
        attributes = list(state.attributes)
    if list(attributes) != list(state.attributes):
        raise AuditError(
            f"scan state covers attributes {state.attributes}, "
            f"rescan asked for {list(attributes)}"
        )
    if n_total < state.n_rows:
        raise AuditError(
            f"dataset has {n_total} rows but the scan state covers "
            f"{state.n_rows}; incremental scans require append-only growth"
        )

    lattice = _Lattice(dataset, attributes, config.max_order)
    with tracer.span(
        "subgroups.rescan",
        delta_rows=n_total - state.n_rows,
        base_rows=state.n_rows,
    ) as span:
        # 1. Ingest only the delta into a fresh accumulator …
        delta = AuditAccumulator(attributes, label=None)
        if n_total > state.n_rows:
            _ingest_range(
                delta, dataset, attributes, pred_source, state.n_rows, n_total
            )
        # 2. … merge it into the stored cells (integer addition — the
        # merged accumulator equals a full ingest of the grown data).
        merged = AuditAccumulator.from_dict(state.accumulator.to_dict())
        merged.merge(delta)

        # 3. Fold the delta's marginals into the stored per-subgroup
        # counts — O(observed delta cells) per subset, no full recount.
        delta_keys, delta_counts = _cells_arrays(delta)
        delta_marginals = _Marginals(lattice, delta_keys, delta_counts)
        by_subset: dict[tuple[int, ...], dict] = {}
        rescored = 0
        for positions in lattice.subsets:
            d_sizes, d_pos = delta_marginals.subset(positions)
            stored = state.subsets.get(positions)
            if stored is None or len(stored["sizes"]) != len(d_sizes):
                raise CheckpointError(
                    "scan state does not cover this lattice (schema or "
                    "category space changed); run a fresh incremental scan"
                )
            sizes = stored["sizes"] + d_sizes
            positives = stored["positives"] + d_pos
            changed = (d_sizes != 0) | (d_pos != 0)
            rescored += int(
                (changed & (sizes >= config.min_size) & (sizes < n_total)).sum()
            )
            by_subset[positions] = {"sizes": sizes, "positives": positives}
        metrics.counter("subgroups.rescored").inc(rescored)

        # 4. Bounds + scoring + corrections over the merged counts —
        # identical, by construction, to a from-scratch scan.
        keys, counts = _cells_arrays(merged)
        marginals = _Marginals(lattice, keys, counts)
        threshold = config.alpha + config.bound_slack
        prune = config.strategy in ("best_first", "incremental")
        for positions, entry in by_subset.items():
            sizes = entry["sizes"]
            enumerated = sizes >= config.min_size
            eligible = enumerated & (sizes < n_total)
            if prune:
                with metrics.timer("scan.bound_check"):
                    keep = _bound_keep(
                        lattice, marginals, positions, eligible, sizes,
                        entry["positives"], positives_total, n_total,
                        threshold,
                    )
            else:
                keep = eligible.copy()
            entry.update(enumerated=enumerated, eligible=eligible, keep=keep)

        fingerprint = ""
        if checkpoint_path is not None:
            fingerprint = _result_fingerprint(
                _scan_fingerprint(
                    pred_source, dataset, attributes,
                    config.max_order, config.min_size,
                ),
                config,
            )
        subset_order = _subset_priority(by_subset, positives_total, n_total)
        findings, flagged, stats = _score_and_correct(
            lattice, by_subset, config, positives_total, n_total,
            metrics=metrics, tracer=tracer, on_progress=on_progress,
            subset_order=subset_order,
        )
        stats["rescored"] = rescored
        span.set(**stats)

        new_state = _build_state(
            lattice, attributes, config, merged, n_total, positives_total,
            by_subset, findings,
        )
        if state_path is not None:
            new_state.save(state_path)
        if checkpoint_path is not None:
            with metrics.timer("subgroups.checkpoint_write"):
                save_checkpoint(
                    checkpoint_path,
                    _canonical_payload(
                        flagged, stats["total"], stats["family"]
                    ),
                    fingerprint=fingerprint,
                )

    return ScanResult(
        findings=findings,
        flagged=flagged,
        config=config,
        state=new_state,
        **stats,
    )
