"""Span recording around the layers' public entry points.

:func:`install` wraps the functions and methods listed in
:data:`TARGETS` so that every call records one span: its name
(``"<layer>:<entry>"``), the calling thread, the span that was open on
that thread when it started (its parent), start and end on the
``perf_counter`` clock, and a few counts read from the call's arguments
or result.  Spans stay in memory; :meth:`Recorder.dump` writes them once,
at shutdown.

Module functions are replaced at *every* binding inside the ``repro``
package, because ``from x import f`` copies the name into the importing
module; class methods are replaced on the class.  The wrappers only
observe: arguments, results and exceptions pass through unchanged.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time


class Recorder:
    """In-memory span store with a per-thread stack of open spans."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.wall0 = time.time()
        self.pc0 = time.perf_counter()

    def wrap(self, name: str, fn, measure=None):
        spans = self.spans
        ids = self._ids
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                attrs = None
                if measure is not None:
                    try:
                        attrs = measure(args, kwargs, result)
                    except Exception:  # noqa: BLE001 — never break the call
                        attrs = None
                spans.append((span_id, parent, threading.get_ident(), name,
                              start, end, attrs))

        return traced

    def dump(self, path) -> None:
        """Write every span (and the clock anchor) as one JSON document."""
        payload = {
            "wall0": self.wall0,
            "pc0": self.pc0,
            "spans": list(self.spans),
        }
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(tmp, path)


# -- what a call counts -------------------------------------------------------


def _nbytes(args, kwargs, result):
    return {"bytes": int(result.nbytes)}


def _ingest(args, kwargs, result):
    return {"rows": int(result), "cells": len(args[0]._cells)}


def _saved(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _stage(args, kwargs, result):
    return {"stage": str(args[1])}


def _closed(args, kwargs, result):
    return {"windows": len(result)}


def _batch_size(args, kwargs, result):
    for value in list(args) + list(kwargs.values()):
        size = getattr(value, "size", None)
        if size is not None:
            return {"size": int(size)}
        if isinstance(value, (list, tuple)):
            return {"size": len(value)}
    return {"size": 0}


#: (module, class or None, attribute, span name, measure)
TARGETS = (
    ("repro.service.httpd", "_Handler", "do_GET", "service.httpd:GET", None),
    ("repro.service.httpd", "_Handler", "do_POST", "service.httpd:POST", None),
    ("repro.service.engine", "JobEngine", "submit", "service.engine:submit",
     None),
    # the engine's job-body boundary: everything a job does below the
    # supervising runner and above the compute layers is engine glue
    ("repro.service.engine", "JobEngine", "_execute", "service.engine:execute",
     None),
    ("repro.service.journal", "JobJournal", "append", "service.journal:append",
     None),
    ("repro.service.store", "ResultStore", "put", "service.store:put", None),
    ("repro.service.store", "ResultStore", "get", "service.store:get", None),
    ("repro.service.store", "ResultStore", "get_bytes", "service.store:get",
     None),
    ("repro.robustness.runner", "StageRunner", "run", "robustness.runner:run",
     _stage),
    ("repro.robustness.checkpoint", None, "save_checkpoint",
     "robustness.checkpoint:save", _saved),
    ("repro.data.ooc", None, "open_dataset", "data.ooc:open", None),
    ("repro.data.ooc", "MemmapDataset", "take", "data.ooc:take", None),
    ("repro.data.ooc", "_NpyReader", "read", "data.ooc:read", _nbytes),
    ("repro.streaming.stream", None, "ingest_stream",
     "streaming.stream:ingest", None),
    ("repro.streaming.stream", None, "finalize", "streaming.stream:finalize",
     None),
    ("repro.streaming.accumulator", "AuditAccumulator", "ingest",
     "streaming.accumulator:ingest", _ingest),
    ("repro.streaming.accumulator", "AuditAccumulator", "ingest_counts",
     "streaming.accumulator:ingest", _ingest),
    ("repro.streaming.accumulator", "AuditAccumulator", "materialize",
     "streaming.accumulator:materialize", None),
    ("repro.streaming.accumulator", "AuditAccumulator", "to_dict",
     "streaming.accumulator:to_dict", None),
    ("repro.streaming.accumulator", "AuditAccumulator", "diff",
     "streaming.accumulator:diff", None),
    ("repro.kernel.codes", None, "encode", "kernel:encode", None),
    ("repro.kernel.codes", None, "codes_for", "kernel:encode", None),
    ("repro.kernel.contingency", None, "combined_codes", "kernel:count", None),
    ("repro.kernel.contingency", None, "joint_counts", "kernel:count", None),
    ("repro.kernel.contingency", None, "group_counts", "kernel:count", None),
    ("repro.kernel.contingency", None, "stratified_counts", "kernel:count",
     None),
    ("repro.core.audit", "FairnessAudit", "run", "core.audit:battery", None),
    # the battery's stage bodies, which the battery's own StageRunner
    # calls: without them the metric work would count as supervision
    ("repro.core.audit", "FairnessAudit", "_evaluate", "core.audit:metric",
     None),
    ("repro.core.audit", "FairnessAudit", "_power_note", "core.audit:power",
     None),
    ("repro.core.audit", "FairnessAudit", "_intersectional",
     "core.audit:intersection", None),
    ("repro.subgroup.search", None, "scan_subgroups", "subgroup.search:scan",
     None),
    ("repro.subgroup.auditor", None, "audit_subgroups",
     "subgroup.auditor:audit", None),
    ("repro.monitor.engine", "MonitorFleet", "observe",
     "monitor.engine:observe", _closed),
)

#: every public batched-statistics entry point is a stats.batch span
BATCH_MODULE = "repro.stats.batch"

#: imported up front so every binding exists before patching
PRELOAD = (
    "repro", "repro.api", "repro.cli", "repro.service", "repro.service.httpd",
    "repro.monitor", "repro.subgroup", "repro.subgroup.search",
    "repro.streaming", "repro.kernel", "repro.stats", "repro.data.ooc",
    "repro.data.io", "repro.core.audit", "repro.core.metrics",
)


def _rebind(original, replacement) -> int:
    """Replace ``original`` at every ``repro`` module binding."""
    count = 0
    for name, module in list(sys.modules.items()):
        if module is None or name.split(".")[0] != "repro":
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                count += 1
    return count


def install(recorder: Recorder) -> int:
    """Wrap every target; returns the number of bindings replaced."""
    import importlib

    for name in PRELOAD:
        importlib.import_module(name)
    replaced = 0
    for module_name, class_name, attr, span, measure in TARGETS:
        module = sys.modules[module_name]
        if class_name is None:
            original = getattr(module, attr)
            wrapper = recorder.wrap(span, original, measure)
            replaced += _rebind(original, wrapper)
        else:
            owner = getattr(module, class_name)
            original = owner.__dict__[attr]
            setattr(owner, attr, recorder.wrap(span, original, measure))
            replaced += 1
    batch = sys.modules[BATCH_MODULE]
    for attr in getattr(batch, "__all__", ()):
        original = getattr(batch, attr)
        if callable(original):
            replaced += _rebind(
                original,
                recorder.wrap(f"stats.batch:{attr}", original, _batch_size),
            )
    return replaced
