"""Parallel subgroup scanner: identical results, identical checkpoints.

The ``jobs=N`` scan must be indistinguishable from serial in everything
but wall time: findings (values, ordering), multiplicity-adjusted
p-values, checkpoint files, and resume fingerprints.  The chaos case
kills a worker mid-scan and requires resume to reproduce the serial
result exactly.
"""

from __future__ import annotations

from concurrent.futures import Future

import pytest

from repro.core.config import ScanConfig
from repro.data import make_intersectional
from repro.exceptions import AuditError
from repro.kernel import chunk_ranges, use_backend
from repro.subgroup import adjust_for_multiple_testing, audit_subgroups
from tests.subgroup.reference_scan import reference_findings


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


@pytest.fixture(scope="module")
def scan_inputs():
    data = make_intersectional(n=6000, random_state=5)
    return data, data.labels()


class _ThreadlessExecutor:
    """Deterministic in-process 'pool': chunks run inline at submit time.

    Lets the parallel code path run without real processes, and lets the
    chaos test fail an exact chunk.
    """

    def __init__(self, fail_from_call: int | None = None):
        self.calls = 0
        self.fail_from_call = fail_from_call

    def submit(self, fn, *args, **kwargs) -> Future:
        self.calls += 1
        future: Future = Future()
        if self.fail_from_call is not None and self.calls >= self.fail_from_call:
            future.set_exception(RuntimeError("worker died"))
        else:
            future.set_result(fn(*args, **kwargs))
        return future

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def test_chunk_ranges_align_to_checkpoint_interval():
    assert chunk_ranges(0, 10, 4) == [(0, 4), (4, 8), (8, 10)]
    # Resuming mid-interval realigns to absolute multiples immediately.
    assert chunk_ranges(5, 10, 4) == [(5, 8), (8, 10)]
    assert chunk_ranges(10, 10, 4) == []


def test_parallel_findings_and_corrections_match_serial(scan_inputs, tmp_path):
    data, predictions = scan_inputs
    results = {}
    for jobs, name in ((1, "serial"), (4, "parallel")):
        findings = audit_subgroups(
            predictions, data,
            scan_config=ScanConfig(
                max_order=2, min_size=5, jobs=jobs, checkpoint_every=3
            ),
            checkpoint_path=tmp_path / f"{name}.json",
        )
        findings = adjust_for_multiple_testing(findings, method="holm")
        results[name] = findings
    assert [finding_signature(f) for f in results["parallel"]] == [
        finding_signature(f) for f in results["serial"]
    ]
    # Checkpoint files — including the resume fingerprint — byte-identical.
    serial_text = (tmp_path / "serial.json").read_text()
    parallel_text = (tmp_path / "parallel.json").read_text()
    assert parallel_text == serial_text


def test_parallel_requires_kernel_backend(scan_inputs):
    data, predictions = scan_inputs
    with use_backend("reference"):
        with pytest.raises(AuditError, match="kernel"):
            audit_subgroups(
                predictions, data,
                scan_config=ScanConfig(jobs=2),
            )


def test_reference_backend_scan_matches_kernel(scan_inputs):
    data, predictions = scan_inputs
    with use_backend("reference"):
        reference = reference_findings(
            predictions, data, max_order=2, min_size=5
        )
    with use_backend("kernel"):
        kernel = audit_subgroups(
            predictions, data,
            scan_config=ScanConfig(max_order=2, min_size=5),
        )
    assert [finding_signature(f) for f in kernel] == [
        finding_signature(f) for f in reference
    ]


def test_worker_death_then_resume_reproduces_serial(scan_inputs, tmp_path):
    data, predictions = scan_inputs
    serial = audit_subgroups(
        predictions, data,
        scan_config=ScanConfig(max_order=2, min_size=5),
    )

    checkpoint = tmp_path / "chaos.json"
    with pytest.raises(RuntimeError, match="worker died"):
        audit_subgroups(
            predictions, data,
            scan_config=ScanConfig(
                max_order=2, min_size=5, jobs=2, checkpoint_every=3
            ),
            checkpoint_path=checkpoint,
            executor_factory=lambda n: _ThreadlessExecutor(fail_from_call=3),
        )
    assert checkpoint.exists()  # partial progress survived the crash

    resumed = audit_subgroups(
        predictions, data,
        scan_config=ScanConfig(
            max_order=2, min_size=5, jobs=4, checkpoint_every=3
        ),
        checkpoint_path=checkpoint, resume=True,
        executor_factory=lambda n: _ThreadlessExecutor(),
    )
    assert [finding_signature(f) for f in resumed] == [
        finding_signature(f) for f in serial
    ]


def test_serial_checkpoint_resumes_under_parallel_and_vice_versa(
    scan_inputs, tmp_path
):
    data, predictions = scan_inputs

    class Stop(Exception):
        pass

    def stop_after(limit):
        def hook(evaluated, total):
            if evaluated >= limit:
                raise Stop

        return hook

    full = audit_subgroups(
        predictions, data,
        scan_config=ScanConfig(max_order=2, min_size=5, checkpoint_every=3),
        checkpoint_path=tmp_path / "full.json",
    )

    for jobs_first, jobs_second, name in ((1, 4, "s2p"), (4, 1, "p2s")):
        path = tmp_path / f"{name}.json"
        with pytest.raises(Stop):
            audit_subgroups(
                predictions, data,
                scan_config=ScanConfig(
                    max_order=2, min_size=5, jobs=jobs_first, checkpoint_every=3
                ),
                checkpoint_path=path, on_progress=stop_after(6),
                executor_factory=(
                    None if jobs_first == 1
                    else (lambda n: _ThreadlessExecutor())
                ),
            )
        resumed = audit_subgroups(
            predictions, data,
            scan_config=ScanConfig(
                max_order=2, min_size=5, jobs=jobs_second, checkpoint_every=3
            ),
            checkpoint_path=path, resume=True,
            executor_factory=(
                None if jobs_second == 1
                else (lambda n: _ThreadlessExecutor())
            ),
        )
        assert [finding_signature(f) for f in resumed] == [
            finding_signature(f) for f in full
        ]
        assert path.read_text() == (tmp_path / "full.json").read_text()


def test_real_process_pool_matches_serial(scan_inputs):
    # One run through the genuine ProcessPoolExecutor path (the other
    # tests use the deterministic inline executor).
    data, predictions = scan_inputs
    serial = audit_subgroups(
        predictions, data,
        scan_config=ScanConfig(max_order=2, min_size=5),
    )
    parallel = audit_subgroups(
        predictions, data,
        scan_config=ScanConfig(max_order=2, min_size=5, jobs=2),
    )
    assert [finding_signature(f) for f in parallel] == [
        finding_signature(f) for f in serial
    ]
