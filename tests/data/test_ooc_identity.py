"""Packed datasets are bit-for-bit interchangeable with in-memory ones.

The acceptance bar for the out-of-core data plane: the full audit
battery, the subgroup scan (both backends, serial and ``jobs=N``),
multiplicity corrections, and resume checkpoints produce *identical*
results whether the input is an in-memory :class:`TabularDataset`, a
packed :class:`MemmapDataset`, or a chunk stream over the pack — and no
column-sized array ever crosses the worker pickle boundary.
"""

from __future__ import annotations

from concurrent.futures import Future

import numpy as np
import pytest

from repro.core.audit import FairnessAudit
from repro.core.config import ScanConfig
from repro.core.serialize import report_to_dict
from repro.data import make_intersectional, open_dataset, pack_dataset
from repro.streaming import audit_stream
from repro.data.ooc import stream_chunks
from repro.subgroup import adjust_for_multiple_testing, audit_subgroups
from tests.oracle.subgroup import reference_findings


def finding_signature(finding):
    return (
        finding.subgroup.conditions,
        finding.subgroup.size,
        finding.rate,
        finding.complement_rate,
        finding.gap,
        finding.ci_low,
        finding.ci_high,
        finding.p_value,
        finding.adjusted_p_value,
    )


def signatures(findings):
    return [finding_signature(f) for f in findings]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    data = make_intersectional(n=5000, random_state=13)
    predictions = (np.asarray(data.column("score")) > 0.55).astype(np.int64)
    path = tmp_path_factory.mktemp("pack") / "intersectional"
    pack_dataset(data, path, chunk_rows=700)  # multi-chunk on purpose
    packed = open_dataset(path, chunk_rows=700)
    return data, packed, predictions


def strip_provenance(report_dict):
    report_dict.pop("provenance", None)
    return report_dict


def test_audit_battery_identical_across_representations(inputs):
    data, packed, _ = inputs
    in_memory = strip_provenance(report_to_dict(FairnessAudit(data).run()))
    memmapped = strip_provenance(report_to_dict(FairnessAudit(packed).run()))
    streamed = strip_provenance(
        report_to_dict(audit_stream(stream_chunks(packed)))
    )
    assert memmapped == in_memory
    assert streamed == in_memory


def test_stream_chunks_accepts_path_and_dataset(inputs):
    data, packed, _ = inputs
    from_path = list(stream_chunks(packed.path, chunk_rows=700))
    from_mm = list(stream_chunks(packed))
    from_mem = list(stream_chunks(data, chunk_rows=700))
    assert (
        len(from_path) == len(from_mm) == len(from_mem) == (5000 + 699) // 700
    )
    for a, b, c in zip(from_path, from_mm, from_mem):
        for name in data.schema.names():
            np.testing.assert_array_equal(np.asarray(a.column(name)),
                                          np.asarray(b.column(name)))
            np.testing.assert_array_equal(np.asarray(a.column(name)),
                                          np.asarray(c.column(name)))


@pytest.mark.parametrize("backend", ["kernel", "reference"])
def test_serial_scan_identical_across_representations(inputs, backend):
    # "kernel": the packed scan equals the in-memory scan; "reference":
    # it equals the oracle's per-subgroup mask scan of the in-memory data
    data, packed, predictions = inputs
    if backend == "reference":
        reference = reference_findings(
            predictions, data, max_order=2, min_size=5
        )
    else:
        reference = audit_subgroups(
            predictions, data,
            scan_config=ScanConfig(max_order=2, min_size=5),
        )
    memmapped = audit_subgroups(
        predictions, packed,
        scan_config=ScanConfig(max_order=2, min_size=5),
    )
    assert signatures(memmapped) == signatures(reference)


@pytest.mark.parametrize("method", ["holm", "bh"])
def test_adjusted_p_values_identical(inputs, method):
    data, packed, predictions = inputs
    reference = adjust_for_multiple_testing(
        audit_subgroups(
            predictions, data,
            scan_config=ScanConfig(max_order=2, min_size=5),
        ),
        method=method,
    )
    memmapped = adjust_for_multiple_testing(
        audit_subgroups(
            predictions, packed,
            scan_config=ScanConfig(max_order=2, min_size=5),
        ),
        method=method,
    )
    assert signatures(memmapped) == signatures(reference)


def test_checkpoints_byte_identical_across_representation_and_jobs(
    inputs, tmp_path
):
    data, packed, predictions = inputs
    texts = {}
    for source, rep in ((data, "mem"), (packed, "packed")):
        for jobs in (1, 2):
            path = tmp_path / f"{rep}-{jobs}.json"
            findings = audit_subgroups(
                predictions, source,
                scan_config=ScanConfig(
                    max_order=2, min_size=5, jobs=jobs, checkpoint_every=3
                ),
                checkpoint_path=path,
            )
            texts[(rep, jobs)] = path.read_text()
            if (rep, jobs) != ("mem", 1):
                assert signatures(findings) == reference_signatures
            else:
                reference_signatures = signatures(findings)
    assert len(set(texts.values())) == 1  # all four byte-identical


def test_interrupted_scan_resumes_across_representations(inputs, tmp_path):
    """A checkpoint written from memory resumes against the pack."""
    data, packed, predictions = inputs

    class Stop(Exception):
        pass

    def stop_after(evaluated, total):
        if evaluated >= 6:
            raise Stop

    reference = audit_subgroups(
        predictions, data,
        scan_config=ScanConfig(max_order=2, min_size=5),
    )
    path = tmp_path / "cross.json"
    with pytest.raises(Stop):
        audit_subgroups(
            predictions, data,
            scan_config=ScanConfig(
                max_order=2, min_size=5, checkpoint_every=3
            ),
            checkpoint_path=path, on_progress=stop_after,
        )
    resumed = audit_subgroups(
        predictions, packed,
        scan_config=ScanConfig(
            max_order=2, min_size=5, jobs=2, checkpoint_every=3
        ),
        checkpoint_path=path, resume=True,
    )
    assert signatures(resumed) == signatures(reference)


class _PickleBoundaryExecutor:
    """Inline executor that rejects any column-sized array in submits.

    Stands in for the process pool: whatever reaches ``submit`` is what
    would be pickled to a worker, so finding an ndarray bigger than a
    few dozen elements there means a column crossed the boundary.
    """

    def __init__(self):
        self.submits = 0

    def _scan(self, obj, path="args"):
        if isinstance(obj, np.ndarray):
            assert obj.size <= 64, (
                f"column-sized array ({obj.size} elements) crossed the "
                f"pickle boundary at {path}"
            )
        elif isinstance(obj, dict):
            for key, value in obj.items():
                self._scan(value, f"{path}[{key!r}]")
        elif isinstance(obj, (list, tuple)):
            for i, value in enumerate(obj):
                self._scan(value, f"{path}[{i}]")

    def submit(self, fn, *args, **kwargs) -> Future:
        self.submits += 1
        self._scan(args)
        self._scan(kwargs)
        future: Future = Future()
        future.set_result(fn(*args, **kwargs))
        return future

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


@pytest.mark.parametrize("representation", ["mem", "packed"])
def test_no_column_array_crosses_the_pickle_boundary(inputs, representation):
    data, packed, predictions = inputs
    source = data if representation == "mem" else packed
    serial = audit_subgroups(
        predictions, data,
        scan_config=ScanConfig(max_order=2, min_size=5),
    )
    executor = _PickleBoundaryExecutor()
    parallel = audit_subgroups(
        predictions, source,
        scan_config=ScanConfig(max_order=2, min_size=5, jobs=2),
        executor_factory=lambda n: executor,
    )
    assert executor.submits > 0
    assert signatures(parallel) == signatures(serial)


def test_real_pool_identical_for_packed_input(inputs):
    data, packed, predictions = inputs
    serial = audit_subgroups(
        predictions, data,
        scan_config=ScanConfig(max_order=2, min_size=5),
    )
    parallel = audit_subgroups(
        predictions, packed,
        scan_config=ScanConfig(max_order=2, min_size=5, jobs=2),
    )
    assert signatures(parallel) == signatures(serial)
