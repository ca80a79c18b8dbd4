"""Compute kernel: shared group statistics for metrics and scans.

The kernel is the library's hot path (ROADMAP: "fast as the hardware
allows").  It has three parts:

* **code tables** (:mod:`repro.kernel.codes`) — each sensitive column
  encoded once to int codes, per-category boolean masks computed lazily
  and cached; tables are cached by array identity and, on datasets, by
  the dataset's sha256 fingerprint (``TabularDataset.codes``);
* **joint contingency** (:mod:`repro.kernel.contingency`) — one
  ``np.bincount`` over combined (group × outcome × label) codes yields
  the confusion counts of every group at once, shared by all of the
  Section III metrics;
* **parallel scan** (:mod:`repro.kernel.parallel`) — chunked scoring of
  the subgroup enumeration for ``audit_subgroups(jobs=N)``, merged in
  enumeration order so results stay byte-identical to serial.

Everything is instrumented through the PR 2 metrics registry
(``kernel.cache_hit`` / ``kernel.cache_miss`` counters, the
``kernel.contingency`` latency histogram), and the original slow paths
remain available behind the ``"reference"`` backend
(:func:`use_backend`) for equivalence testing and honest benchmarking.
"""

from repro.kernel._backend import BACKENDS, get_backend, set_backend, use_backend
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
    count_score_chunk,
    pruned_ranges,
    read_spills,
    score_chunk,
    score_chunk_telemetry,
    score_counts,
)
from repro.kernel.shm import attach_array, publish, release_all

__all__ = [
    "BACKENDS",
    "get_backend",
    "set_backend",
    "use_backend",
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
    "count_score_chunk",
    "count_cells_chunk",
    "read_spills",
    "chunk_ranges",
    "pruned_ranges",
    "publish",
    "attach_array",
    "release_all",
]
