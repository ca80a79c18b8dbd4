"""Resilient audit execution: supervision, checkpoints, fault injection.

The paper's deployment guidelines (Section V) ask for audits dependable
enough to carry legal weight.  This package is the execution layer that
delivers that: every stage of an audit or compliance run is supervised
under an :class:`ExecutionPolicy` (deadline, retries, failure budget,
fail-open vs fail-closed), long-running work checkpoints atomically and
resumes, and a deterministic :class:`FaultInjector` lets the chaos-test
suite keep every one of those guarantees honest.
"""

from repro.robustness.checkpoint import (
    AppendLog,
    atomic_write_text,
    load_checkpoint,
    save_checkpoint,
)
from repro.robustness.faults import Fault, FaultInjector
from repro.robustness.policy import TRANSIENT_ERRORS, ExecutionPolicy
from repro.robustness.runner import StageOutcome, StageRunner

__all__ = [
    "ExecutionPolicy",
    "TRANSIENT_ERRORS",
    "StageOutcome",
    "StageRunner",
    "Fault",
    "FaultInjector",
    "AppendLog",
    "atomic_write_text",
    "save_checkpoint",
    "load_checkpoint",
]
