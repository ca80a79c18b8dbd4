"""Batched inference engine: equivalence against the scalar reference.

The batch primitives in :mod:`repro.stats.batch` must reproduce the
scalar reference arithmetic bit-for-bit (or, where a random stream
cannot be aligned, statistically) — and the audit paths routed through
them must leave every user-visible artifact untouched: findings,
Holm/BH adjusted p-values, and checkpoint files byte-identical between
the batched scan, the ``"reference"`` backend, and the scalar loop.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import ScanConfig
from repro.data import make_intersectional
from repro.kernel import use_backend
from repro.observability import MetricsRegistry, Tracer, use_metrics, use_tracer
from repro.stats import (
    batch_bootstrap_ci,
    batch_min_detectable_gap,
    batch_permutation_test,
    batch_score_counts,
    batch_two_proportion_z,
    batch_wilson_interval,
    bootstrap_ci,
    min_detectable_gap,
    permutation_test,
    two_proportion_z_test,
    wilson_interval,
)
from repro.stats import _reference
from repro.subgroup import adjust_for_multiple_testing, audit_subgroups

from tests.perf.test_parallel_scan import finding_signature

TOL = 1e-12


def _count_grid(rng, size=512):
    """Random count quadruples plus every degenerate corner."""
    n_a = rng.integers(1, 400, size=size)
    n_b = rng.integers(1, 400, size=size)
    s_a = (rng.random(size) * (n_a + 1)).astype(np.int64)
    s_b = (rng.random(size) * (n_b + 1)).astype(np.int64)
    corners = np.array(
        [
            (0, 10, 0, 10),    # zero variance, equal rates
            (10, 10, 10, 10),  # successes == n on both sides
            (0, 10, 10, 10),   # zero variance, unequal rates
            (1, 1, 0, 1),      # n == 1
            (0, 1, 1, 1),
            (3, 7, 0, 5),      # one-sided zero cell
        ],
        dtype=np.int64,
    )
    s_a = np.concatenate([s_a, corners[:, 0]])
    n_a = np.concatenate([n_a, corners[:, 1]])
    s_b = np.concatenate([s_b, corners[:, 2]])
    n_b = np.concatenate([n_b, corners[:, 3]])
    return s_a, n_a, s_b, n_b


class TestPrimitiveEquivalence:
    """Every batch primitive == an elementwise loop over the reference."""

    def test_two_proportion_z_matches_reference_loop(self):
        s_a, n_a, s_b, n_b = _count_grid(np.random.default_rng(11))
        z, p = batch_two_proportion_z(s_a, n_a, s_b, n_b)
        for i in range(len(z)):
            ref_z, ref_p = _reference.two_proportion_z_test(
                int(s_a[i]), int(n_a[i]), int(s_b[i]), int(n_b[i])
            )
            assert abs(z[i] - ref_z) <= TOL, (i, z[i], ref_z)
            assert abs(p[i] - ref_p) <= TOL

    def test_wilson_matches_reference_loop(self):
        s_a, n_a, _, _ = _count_grid(np.random.default_rng(12))
        low, high = batch_wilson_interval(s_a, n_a, confidence=0.9)
        for i in range(len(low)):
            ref_lo, ref_hi = _reference.wilson_interval(
                int(s_a[i]), int(n_a[i]), confidence=0.9
            )
            assert abs(low[i] - ref_lo) <= TOL
            assert abs(high[i] - ref_hi) <= TOL

    def test_min_detectable_gap_matches_reference_loop(self):
        rng = np.random.default_rng(13)
        n_a = rng.integers(2, 5000, size=128)
        n_b = rng.integers(2, 5000, size=128)
        gaps = batch_min_detectable_gap(n_a, n_b, base_rate=0.3)
        for i in range(len(gaps)):
            ref = _reference.min_detectable_gap(
                int(n_a[i]), int(n_b[i]), base_rate=0.3
            )
            assert abs(gaps[i] - ref) <= TOL

    @pytest.mark.parametrize("backend", ["kernel", "reference"])
    def test_scalar_wrappers_agree_across_backends(self, backend):
        s_a, n_a, s_b, n_b = _count_grid(np.random.default_rng(14), size=64)
        with use_backend(backend):
            for i in range(len(s_a)):
                args = int(s_a[i]), int(n_a[i]), int(s_b[i]), int(n_b[i])
                result = two_proportion_z_test(*args)
                ref_z, ref_p = _reference.two_proportion_z_test(*args)
                assert result.statistic == ref_z
                assert result.p_value == ref_p
                lo, hi = wilson_interval(int(s_a[i]), int(n_a[i]))
                ref_lo, ref_hi = _reference.wilson_interval(
                    int(s_a[i]), int(n_a[i])
                )
                assert (lo, hi) == (float(ref_lo), float(ref_hi))

    def test_batch_validation_matches_scalar_messages(self):
        with pytest.raises(Exception, match="non-empty"):
            batch_two_proportion_z([1], [0], [1], [2])
        with pytest.raises(Exception, match="exceed"):
            batch_two_proportion_z([3], [2], [1], [2])
        with pytest.raises(Exception, match=r"lie in \[0, n\]"):
            batch_wilson_interval([-1], [2])


class TestResampling:
    def test_batch_bootstrap_bit_identical_to_reference_loop(self):
        values = np.random.default_rng(21).normal(size=300)
        batched = batch_bootstrap_ci(values, n_resamples=500, random_state=9)
        reference = _reference.bootstrap_ci(
            values, n_resamples=500, random_state=9
        )
        assert batched == reference  # same seed, same stream, exact

    def test_batch_bootstrap_callable_statistic_bit_identical(self):
        values = np.random.default_rng(22).normal(size=200)
        stat = lambda sample: float(np.median(sample))  # noqa: E731
        batched = batch_bootstrap_ci(
            values, statistic=stat, n_resamples=300, random_state=4
        )
        reference = _reference.bootstrap_ci(
            values, statistic=stat, n_resamples=300, random_state=4
        )
        assert batched == reference

    def test_scalar_bootstrap_wrapper_matches_on_both_backends(self):
        values = np.random.default_rng(23).normal(size=150)
        with use_backend("reference"):
            ref = bootstrap_ci(values, random_state=7)
        kern = bootstrap_ci(values, random_state=7)
        assert kern == ref

    def test_permutation_fast_path_equals_callable_fallback(self):
        # Binary data exercises the count-based reduceat fast path; the
        # explicit difference-in-means callable forces the row loop.
        # Same seed -> same permutation matrix -> identical p-values.
        rng = np.random.default_rng(24)
        x = (rng.random(90) < 0.6).astype(float)
        y = (rng.random(110) < 0.35).astype(float)
        fast = batch_permutation_test(x, y, n_permutations=400, random_state=3)
        slow = batch_permutation_test(
            x,
            y,
            statistic=lambda a, b: float(abs(np.mean(a) - np.mean(b))),
            n_permutations=400,
            random_state=3,
        )
        assert fast == slow

    def test_permutation_statistically_equivalent_to_reference(self):
        # The in-place shuffle stream cannot be aligned with the argsort
        # permutation matrix, so equality here is statistical: identical
        # observed statistic, p-values within resampling noise.
        rng = np.random.default_rng(25)
        x = rng.normal(0.0, 1.0, size=120)
        y = rng.normal(0.6, 1.0, size=140)
        batched = batch_permutation_test(
            x, y, n_permutations=2000, random_state=5
        )
        reference = _reference.permutation_test(
            x, y, n_permutations=2000, random_state=5
        )
        assert abs(batched[0] - reference[0]) <= TOL  # observed statistic
        assert abs(batched[1] - reference[1]) < 0.05

    def test_scalar_permutation_wrapper_routes_by_backend(self):
        x = np.array([1.0, 1.0, 0.0, 1.0, 0.0, 1.0] * 10)
        y = np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0] * 10)
        with use_backend("reference"):
            ref = permutation_test(x, y, random_state=2)
        ref_raw = _reference.permutation_test(x, y, random_state=2)
        assert (ref.statistic, ref.p_value) == ref_raw
        kern = permutation_test(x, y, random_state=2)
        assert kern.statistic == ref.statistic  # observed stat always equal


class TestScoreCounts:
    def test_batch_score_counts_matches_scalar_loop(self):
        s_a, n_a, _, _ = _count_grid(np.random.default_rng(31), size=256)
        n_total = int(n_a.max()) * 3
        positives_total = n_total // 2
        payloads = batch_score_counts(s_a, n_a, positives_total, n_total)
        for i, payload in enumerate(payloads):
            pos_in, n_in = int(s_a[i]), int(n_a[i])
            n_out = n_total - n_in
            if n_out <= 0:
                assert payload is None
                continue
            result = two_proportion_z_test(
                pos_in, n_in, positives_total - pos_in, n_out
            )
            lo, hi = wilson_interval(pos_in, n_in)
            assert payload["rate"] == pos_in / n_in
            assert payload["p_value"] == result.p_value
            assert (payload["ci_low"], payload["ci_high"]) == (lo, hi)
            assert all(type(v) is float for v in payload.values())

    def test_whole_population_subgroup_is_none(self):
        assert batch_score_counts([5], [10], 5, 10) == [None]
        assert batch_score_counts([], [], 5, 10) == []


class TestAuditArtifactIdentity:
    """Batched vs reference scans: byte-identical user-visible output."""

    @pytest.fixture(scope="class")
    def scan_inputs(self):
        data = make_intersectional(n=4000, random_state=17)
        return data, data.labels()

    def test_findings_checkpoints_and_adjustments_identical(
        self, scan_inputs, tmp_path_factory
    ):
        data, predictions = scan_inputs
        tmp_path = tmp_path_factory.mktemp("batch-vs-reference")
        results, texts = {}, {}
        for backend in ("kernel", "reference"):
            with use_backend(backend):
                findings = audit_subgroups(
                    predictions, data,
                    scan_config=ScanConfig(
                        max_order=2, min_size=5, checkpoint_every=3
                    ),
                    checkpoint_path=tmp_path / f"{backend}.json",
                )
            results[backend] = findings
            texts[backend] = (tmp_path / f"{backend}.json").read_text()
        assert [finding_signature(f) for f in results["kernel"]] == [
            finding_signature(f) for f in results["reference"]
        ]
        assert texts["kernel"] == texts["reference"]
        for method in ("holm", "bh"):
            adjusted = {
                backend: adjust_for_multiple_testing(
                    results[backend], method=method
                )
                for backend in results
            }
            assert [
                f.adjusted_p_value for f in adjusted["kernel"]
            ] == [f.adjusted_p_value for f in adjusted["reference"]]


class TestSatelliteRegressions:
    def test_wilson_interval_returns_builtin_floats(self):
        for backend in ("kernel", "reference"):
            with use_backend(backend):
                low, high = wilson_interval(3, 9)
            assert type(low) is float and type(high) is float
        low, high = batch_wilson_interval([3], [9])
        assert isinstance(low, np.ndarray) and isinstance(high, np.ndarray)

    def test_min_detectable_gap_wrapper_stays_scalar_strict(self):
        # The batch primitive tolerates integral floats; the scalar API
        # contract (positive ints only) must not loosen through routing.
        with pytest.raises(Exception):
            min_detectable_gap(10.5, 20)
        with pytest.raises(Exception):
            min_detectable_gap(0, 20)
        assert min_detectable_gap(50, 50) == pytest.approx(
            _reference.min_detectable_gap(50, 50), abs=TOL
        )


class TestInstrumentation:
    def test_batch_calls_and_sizes_recorded(self):
        with use_metrics(MetricsRegistry()) as metrics:
            batch_two_proportion_z([3, 4], [10, 10], [5, 6], [12, 12])
            batch_wilson_interval([3, 4, 5], [10, 10, 10])
            snapshot = metrics.snapshot()
        assert snapshot["counters"]["stats.batch_calls"] == 2
        assert snapshot["counters"]["stats.batch_size"] == 5

    def test_score_counts_emits_infer_span(self):
        tracer = Tracer(run_id="test")
        with use_tracer(tracer):
            batch_score_counts([3, 4], [10, 10], 30, 100)
        spans = tracer.find("stats.infer")
        ops = {span.attrs["op"] for span in spans}
        # The compound scorer's own span plus the nested primitive spans.
        assert "score_counts" in ops
        score = next(s for s in spans if s.attrs["op"] == "score_counts")
        assert score.attrs["batch"] == 2
