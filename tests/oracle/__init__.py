"""Test-only oracle: the pre-kernel implementations, kept verbatim.

The library has one implementation of every metric and test.  The code
it replaced lives here, outside ``src/``, as the executable
specification the library is compared against:

* :mod:`tests.oracle.stats` — the scalar z-test, Wilson interval,
  bootstrap, permutation test and power approximation that
  :mod:`repro.stats.batch` vectorized;
* :mod:`tests.oracle.metrics` — the per-group masking loop of every
  Section III metric that the :mod:`repro.kernel` contingency counts
  replaced;
* :mod:`tests.oracle.audit` — :func:`reference_battery`, which swaps
  those metrics (plus the per-row ``intersection_column`` and the scalar
  power note) into :class:`~repro.core.audit.FairnessAudit`;
* :mod:`tests.oracle.subgroup` — the per-subgroup mask scan and the
  per-leaf scoring loop of the learned-oracle auditor;
* :mod:`tests.oracle.sampling` — the one-sample-per-trial loop of the
  sample-complexity curve;
* :mod:`tests.oracle.pack` — the packed writer's two-pass encoding
  (``np.unique`` while appending, then re-read and re-encode on close)
  and the old category check with its error text.
* :mod:`tests.oracle.accumulator` — the ``dict[tuple, int]`` cell state
  of :class:`~repro.streaming.AuditAccumulator` that its code matrix and
  counts vector replaced.

Nothing in ``src/`` imports or knows about this package.
"""

from tests.oracle.audit import reference_battery

__all__ = ["reference_battery"]
