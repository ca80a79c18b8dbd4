"""Provenance records: what evidence a fairness verdict rests on.

The paper's position (after Wachter et al.) is that automated fairness
metrics are *summary evidence for human judicial review* — so every
verdict must be able to answer: which data (byte-exact), which code
version, under which execution policy, how long each stage took, what
was retried, and what degraded.  A :class:`ProvenanceRecord` is that
answer, attached to every :class:`~repro.core.audit.AuditReport` and
:class:`~repro.workflow.ComplianceDossier` and rendered into their
markdown/JSON reports.

The dataset fingerprint is a sha256 over the schema layout and every
column's bytes — the same construction the subgroup scan uses to refuse
foreign checkpoints — cached on the (immutable) dataset so repeated
audits of one dataset hash it once.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field

import numpy as np

__all__ = ["ProvenanceRecord", "dataset_fingerprint"]

_FINGERPRINT_ATTR = "_repro_fingerprint"


def dataset_fingerprint(dataset) -> str:
    """sha256 fingerprint of a dataset's schema layout and column bytes.

    Two datasets share a fingerprint iff they have identical column
    names/roles and byte-identical column arrays — the property a legal
    evidence trail needs ("this verdict was computed on exactly this
    data").  Cached on the dataset instance; `TabularDataset` is
    immutable, so the cache can never go stale.
    """
    cached = getattr(dataset, _FINGERPRINT_ATTR, None)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    layout = {
        "n_rows": dataset.n_rows,
        "columns": [
            [column.name, str(column.kind), str(column.role)]
            for column in dataset.schema
        ],
    }
    digest.update(json.dumps(layout, sort_keys=True).encode())
    for column in dataset.schema:
        # hash the array's buffer in place: ``tobytes()`` would copy it
        digest.update(np.ascontiguousarray(dataset.column(column.name)).data)
    fingerprint = digest.hexdigest()
    try:
        setattr(dataset, _FINGERPRINT_ATTR, fingerprint)
    except AttributeError:  # slotted/foreign dataset: just skip the cache
        pass
    return fingerprint


def _policy_summary(policy) -> dict:
    """The audit-relevant fields of an ExecutionPolicy, JSON-able."""
    if policy is None:
        return {}
    return {
        "deadline": policy.deadline,
        "max_retries": policy.max_retries,
        "max_failures": policy.max_failures,
        "fail_fast": policy.fail_fast,
    }


@dataclass
class ProvenanceRecord:
    """The audit trail behind one verdict.

    ``stages`` carries one entry per supervised stage — name, status,
    elapsed seconds, attempts, and the retry history — in execution
    order; aggregate properties summarise it for report rendering.
    """

    dataset_fingerprint: str
    n_rows: int
    repro_version: str
    created_unix: float
    policy: dict = field(default_factory=dict)
    stages: list = field(default_factory=list)
    trace_run_id: str = ""

    @classmethod
    def collect(cls, dataset, policy, runner, tracer=None) -> "ProvenanceRecord":
        """Build a record from a finished run's dataset, policy, and runner."""
        from repro import __version__

        stages = []
        for outcome in runner.outcomes:
            entry = {
                "stage": outcome.stage,
                "status": outcome.status,
                "elapsed": round(outcome.elapsed, 6),
                "attempts": outcome.attempts,
            }
            if outcome.attempt_log:
                entry["attempt_log"] = list(outcome.attempt_log)
            if not outcome.ok:
                entry["error_type"] = outcome.error_type
            stages.append(entry)
        run_id = ""
        if tracer is not None and getattr(tracer, "enabled", False):
            run_id = tracer.run_id
        return cls(
            dataset_fingerprint=dataset_fingerprint(dataset),
            n_rows=dataset.n_rows,
            repro_version=__version__,
            created_unix=time.time(),
            policy=_policy_summary(policy),
            stages=stages,
            trace_run_id=run_id,
        )

    # -- aggregates ----------------------------------------------------------

    @property
    def total_elapsed(self) -> float:
        return float(sum(entry["elapsed"] for entry in self.stages))

    @property
    def total_retries(self) -> int:
        return sum(max(0, entry["attempts"] - 1) for entry in self.stages)

    @property
    def degraded_stages(self) -> int:
        return sum(1 for entry in self.stages if entry["status"] != "ok")

    def slowest(self, top: int = 5) -> list[dict]:
        """The ``top`` longest stages, slowest first."""
        return sorted(
            self.stages, key=lambda entry: -entry["elapsed"]
        )[:top]

    # -- rendering -----------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "dataset_fingerprint": self.dataset_fingerprint,
            "n_rows": self.n_rows,
            "repro_version": self.repro_version,
            "created_unix": self.created_unix,
            "policy": dict(self.policy),
            "trace_run_id": self.trace_run_id,
            "totals": {
                "stages": len(self.stages),
                "elapsed": round(self.total_elapsed, 6),
                "retries": self.total_retries,
                "degraded_stages": self.degraded_stages,
            },
            "stages": list(self.stages),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ProvenanceRecord":
        """Rebuild a record written by :meth:`to_dict`.

        ``totals`` is derived from ``stages`` and ignored on input, so
        ``ProvenanceRecord.from_dict(r.to_dict()).to_dict() ==
        r.to_dict()``.
        """
        return cls(
            dataset_fingerprint=payload["dataset_fingerprint"],
            n_rows=int(payload["n_rows"]),
            repro_version=payload["repro_version"],
            created_unix=float(payload["created_unix"]),
            policy=dict(payload.get("policy", {})),
            stages=[dict(entry) for entry in payload.get("stages", [])],
            trace_run_id=payload.get("trace_run_id", ""),
        )

    def markdown_lines(self) -> list[str]:
        """The report's Provenance section (without the heading)."""
        policy = self.policy
        policy_text = (
            "default (fail-open, no deadline, no retries)"
            if not policy or not any(
                policy.get(key) for key in
                ("deadline", "max_retries", "max_failures", "fail_fast")
            )
            else ", ".join(
                f"{key}={policy[key]}" for key in
                ("deadline", "max_retries", "max_failures", "fail_fast")
                if policy.get(key)
            )
        )
        lines = [
            f"- dataset sha256: `{self.dataset_fingerprint}` "
            f"({self.n_rows} rows)",
            f"- repro version: {self.repro_version}",
            f"- execution policy: {policy_text}",
            f"- stages: {len(self.stages)} supervised, "
            f"{self.total_elapsed:.3f}s total, "
            f"{self.total_retries} retried, "
            f"{self.degraded_stages} degraded",
        ]
        if self.trace_run_id:
            lines.append(f"- trace run id: `{self.trace_run_id}`")
        slowest = [s for s in self.slowest(3) if s["elapsed"] > 0]
        if slowest:
            slow = ", ".join(
                f"`{entry['stage']}` {entry['elapsed']:.3f}s"
                for entry in slowest
            )
            lines.append(f"- slowest stages: {slow}")
        return lines
