"""Compute kernel: shared group statistics for metrics and scans.

The kernel is the library's hot path (ROADMAP: "fast as the hardware
allows").  It has three parts:

* **code tables** (:mod:`repro.kernel.codes`) — each discrete column
  encoded once, when its dataset is built, and carried by the dataset
  (``TabularDataset.codes``); raw arrays are cached by array identity;
* **joint contingency** (:mod:`repro.kernel.contingency`) — one
  ``np.bincount`` over combined (group × outcome × label) codes yields
  the confusion counts of every group at once, shared by all of the
  Section III metrics;
* **parallel scan** (:mod:`repro.kernel.parallel`) — the pool workers of
  :func:`repro.subgroup.scan_subgroups` with ``jobs=N``: joint-cell
  counting from shared sources (:mod:`repro.kernel.shm`) and chunked
  scoring from count pairs, merged in order so results stay
  byte-identical to serial.

Everything is instrumented through the metrics registry
(``kernel.cache_hit`` / ``kernel.cache_miss`` counters, the
``kernel.contingency`` latency histogram).  The kernel is the only
implementation in the library.  The per-group masking loops it replaced
live outside it, as the test oracle in ``tests/oracle/``; the
equivalence suites (``tests/perf/test_kernel_equivalence.py`` and
``tests/streaming/test_equivalence.py``) and BENCH_P1/S1 compare
against it.
"""

from repro.kernel.codes import CategoryTable, CodeTable, clear_cache, codes_for, encode
from repro.kernel.contingency import (
    GroupCounts,
    StratifiedCounts,
    combined_codes,
    group_counts,
    joint_counts,
    stratified_counts,
)
from repro.kernel.parallel import (
    chunk_ranges,
    count_cells_chunk,
    pruned_ranges,
    read_spills,
    score_chunk,
    score_chunk_telemetry,
    score_counts,
)
from repro.kernel.shm import attach_array, publish, release_all

__all__ = [
    "CodeTable",
    "CategoryTable",
    "encode",
    "codes_for",
    "clear_cache",
    "GroupCounts",
    "StratifiedCounts",
    "combined_codes",
    "joint_counts",
    "group_counts",
    "stratified_counts",
    "score_counts",
    "score_chunk",
    "score_chunk_telemetry",
    "count_cells_chunk",
    "read_spills",
    "chunk_ranges",
    "pruned_ranges",
    "publish",
    "attach_array",
    "release_all",
]
