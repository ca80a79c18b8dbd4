"""Equivalence suite: library metrics ≡ the test oracle, bit for bit.

The kernel must be a pure performance change: every Section III metric
— values, p-values, group ordering, skip/raise semantics — must be
*identical* to the per-group masking loops kept as the test oracle in
:mod:`tests.oracle.metrics`.  The metric checks are hypothesis
properties over generated inputs (2–6 groups of str, int or bool
values, with or without strata, groups without positives or negatives),
and the fixed-seed cases of the original suite stay as explicit
``@example``s.  Test names keep the historical "backend" wording: the
two sides compared are the library and the oracle.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import FairnessAudit, audit, metrics as library
from repro.core.audit import intersection_column
from repro.core.config import AuditConfig
from repro.data import make_hiring, make_intersectional
from repro.exceptions import InsufficientDataError, MetricError, ReproError
from repro.observability.metrics import MetricsRegistry, use_metrics
from tests.oracle import metrics as oracle
from tests.oracle import reference_battery
from tests.oracle.audit import BATTERY_FUNCTIONS
from tests.oracle.audit import intersection_column as oracle_intersection_column

#: tier-1 profile: small inputs, few examples per property
FAST = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def result_signature(result):
    """Every observable field of a metric result, as a comparable value."""
    if hasattr(result, "strata"):  # ConditionalMetricResult
        return (
            result.metric,
            result.condition,
            tuple((key, result_signature(value)) for key, value in result.strata.items()),
            result.skipped_strata,
            result.tolerance,
            result.equality_concept,
        )
    significance = (
        None
        if result.significance is None
        else (result.significance.statistic, result.significance.p_value)
    )
    return (
        result.metric,
        tuple(
            (gs.group, gs.n, gs.positives, gs.rate) for gs in result.group_stats
        ),
        result.gap,
        result.ratio,
        result.tolerance,
        result.satisfied,
        result.equality_concept,
        repr(result.details),
        significance,
    )


def outcome(call, arrays):
    """A call's result signature, or the type, message and group of the
    named ``repro`` error it raised — as a repr, so NaN fields compare
    equal bit for bit.  Any other exception propagates: raising a raw
    error identically is not equivalence, it is a shared defect."""
    try:
        return repr(("ok", result_signature(call(arrays))))
    except ReproError as exc:
        return repr(("raise", type(exc), str(exc), getattr(exc, "group", None)))


def _hiring_arrays():
    data = make_hiring(n=4000, direct_bias=1.5, proxy_strength=0.8, random_state=3)
    rng = np.random.default_rng(11)
    labels = data.labels()
    predictions = np.where(
        rng.random(len(labels)) < 0.85, labels, 1 - labels
    ).astype(np.int64)
    return {
        "y_true": labels,
        "predictions": predictions,
        "protected": data.column("sex"),
        "strata": data.column("university"),
        "probabilities": rng.random(len(labels)),
        "min_stratum_group_size": 5,
    }


#: the fixed-seed case every property also runs
HIRING = _hiring_arrays()

GROUP_VALUES = {
    "str": ["g0", "g1", "g2", "g3", "g4", "g5"],
    "int": [1, 10, 2, 7, 30, 3],  # repr order differs from numeric order
    "bool": [False, True],
}
#: per-group rates; 0 and 1 make groups with no positives or negatives
RATES = (0.0, 0.2, 0.5, 0.8, 1.0)


@st.composite
def metric_inputs(draw, min_groups=2, max_groups=6):
    kind = draw(st.sampled_from(sorted(GROUP_VALUES)))
    values = GROUP_VALUES[kind]
    n_groups = draw(
        st.integers(min_groups, min(max_groups, len(values)))
    )
    n = draw(st.integers(n_groups, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # every group present at least once, the rest of the rows at random
    codes = np.concatenate(
        [np.arange(n_groups), rng.integers(0, n_groups, n - n_groups)]
    )
    rng.shuffle(codes)
    label_rate = np.array(draw(st.lists(
        st.sampled_from(RATES), min_size=n_groups, max_size=n_groups
    )))
    pred_rate = np.array(draw(st.lists(
        st.sampled_from(RATES), min_size=n_groups, max_size=n_groups
    )))
    n_strata = draw(st.integers(0, 3))
    return {
        "y_true": (rng.random(n) < label_rate[codes]).astype(np.int64),
        "predictions": (rng.random(n) < pred_rate[codes]).astype(np.int64),
        "protected": np.array(values)[codes],
        # no strata column: the conditional metrics see a single stratum
        "strata": (
            rng.choice([f"s{i}" for i in range(n_strata)], size=n)
            if n_strata else np.array(["all"] * n)
        ),
        "probabilities": rng.random(n),
        "min_stratum_group_size": draw(st.integers(1, 4)),
    }


def _calls(impl):
    return {
        "demographic_parity": lambda a: impl.demographic_parity(
            a["predictions"], a["protected"], tolerance=0.05,
            with_significance=True,
        ),
        "conditional_statistical_parity": lambda a: (
            impl.conditional_statistical_parity(
                a["predictions"], a["protected"], a["strata"],
                tolerance=0.05,
                min_stratum_group_size=a["min_stratum_group_size"],
            )
        ),
        "equal_opportunity": lambda a: impl.equal_opportunity(
            a["y_true"], a["predictions"], a["protected"],
            with_significance=True,
        ),
        "equalized_odds": lambda a: impl.equalized_odds(
            a["y_true"], a["predictions"], a["protected"]
        ),
        "demographic_disparity": lambda a: impl.demographic_disparity(
            a["predictions"], a["protected"]
        ),
        "conditional_demographic_disparity": lambda a: (
            impl.conditional_demographic_disparity(
                a["predictions"], a["protected"], a["strata"],
                min_stratum_group_size=a["min_stratum_group_size"],
            )
        ),
        "predictive_parity": lambda a: impl.predictive_parity(
            a["y_true"], a["predictions"], a["protected"]
        ),
        "treatment_equality": lambda a: impl.treatment_equality(
            a["y_true"], a["predictions"], a["protected"]
        ),
        "false_positive_rate_parity": lambda a: impl.false_positive_rate_parity(
            a["y_true"], a["predictions"], a["protected"]
        ),
        "overall_accuracy_equality": lambda a: impl.overall_accuracy_equality(
            a["y_true"], a["predictions"], a["protected"]
        ),
        "disparate_impact_ratio": lambda a: impl.disparate_impact_ratio(
            a["predictions"], a["protected"]
        ),
        "calibration_within_groups": lambda a: impl.calibration_within_groups(
            a["y_true"], a["probabilities"], a["protected"]
        ),
    }


LIBRARY_CALLS = _calls(library)
ORACLE_CALLS = _calls(oracle)


#: constant predictions across three groups: the significance test's
#: contingency table has an all-zero column
CONSTANT = {
    **HIRING,
    "predictions": np.zeros(len(HIRING["predictions"]), dtype=np.int64),
    "protected": np.array(["a", "b", "c"])[
        np.arange(len(HIRING["predictions"])) % 3
    ],
}


@pytest.mark.parametrize("metric", sorted(LIBRARY_CALLS))
@FAST
@given(arrays=metric_inputs())
@example(arrays=HIRING)
@example(arrays=CONSTANT)
def test_every_section_iii_metric_is_backend_identical(metric, arrays):
    assert outcome(LIBRARY_CALLS[metric], arrays) == outcome(
        ORACLE_CALLS[metric], arrays
    )


def test_numeric_group_values_keep_repr_order():
    # repr-sorting of int groups ([1, 10, 2], not [1, 2, 10]) is part of
    # the public result contract; the code tables must reproduce it.
    rng = np.random.default_rng(0)
    protected = rng.choice([1, 2, 10], size=400)
    predictions = rng.integers(0, 2, size=400)
    reference = oracle.demographic_parity(predictions, protected)
    kernel = library.demographic_parity(predictions, protected)
    assert [gs.group for gs in kernel.group_stats] == [1, 10, 2]
    assert result_signature(kernel) == result_signature(reference)


@pytest.mark.parametrize("value", [0, 1])
@pytest.mark.parametrize("impl", [library, oracle], ids=["library", "oracle"])
def test_constant_predictions_report_no_association(impl, value):
    protected = np.array(["a", "b", "c"] * 20)
    result = impl.demographic_parity(
        np.full(len(protected), value), protected, with_significance=True
    )
    assert result.gap == 0.0
    assert (result.significance.statistic, result.significance.p_value) \
        == (0.0, 1.0)


def test_audit_with_constant_predictions_is_not_degraded():
    # three or more intersectional groups, every prediction 0: parity,
    # not an error finding
    data = make_intersectional(600, random_state=0)
    report = FairnessAudit(
        data, predictions=np.zeros(data.n_rows, dtype=np.int64)
    ).run()
    assert not report.degraded
    assert all(f.status != "error" for f in report.intersectional_findings)


def _raised(call, arrays, error):
    with pytest.raises(error) as excinfo:
        call(arrays)
    return type(excinfo.value), str(excinfo.value), excinfo.value.group


@st.composite
def without_positives(draw):
    """Metric inputs where one group has no actual positives."""
    arrays = dict(draw(metric_inputs()))
    victim = draw(st.sampled_from(sorted(set(arrays["protected"].tolist()))))
    arrays["y_true"] = np.where(
        arrays["protected"] == victim, 0, arrays["y_true"]
    )
    return arrays


HIRING_NO_FEMALE_POSITIVES = {
    **HIRING,
    "y_true": np.where(HIRING["protected"] == "female", 0, HIRING["y_true"]),
}


@pytest.mark.parametrize("metric", ["equal_opportunity", "equalized_odds"])
@FAST
@given(arrays=without_positives())
@example(arrays=HIRING_NO_FEMALE_POSITIVES)
def test_insufficient_data_raises_identically(metric, arrays):
    # One group with no actual positives must raise the same error, with
    # the same message and structured group evidence, in both.
    assert _raised(
        LIBRARY_CALLS[metric], arrays, InsufficientDataError
    ) == _raised(ORACLE_CALLS[metric], arrays, InsufficientDataError)


@FAST
@given(
    value=st.sampled_from(["only", 7, True]),
    predictions=st.lists(st.integers(0, 1), min_size=1, max_size=30),
)
@example(value="only", predictions=[0, 1, 1, 0])
def test_fewer_than_two_groups_raises_identically(value, predictions):
    predictions = np.array(predictions)
    protected = np.array([value] * len(predictions))
    messages = []
    for impl in (library, oracle):
        with pytest.raises(MetricError) as excinfo:
            impl.demographic_parity(predictions, protected)
        messages.append((type(excinfo.value), str(excinfo.value)))
    assert messages[0] == messages[1]


@FAST
@given(arrays=metric_inputs())
@example(arrays=HIRING)
def test_all_strata_skipped_raises_identically(arrays):
    messages = []
    for impl in (library, oracle):
        with pytest.raises(InsufficientDataError) as excinfo:
            impl.conditional_statistical_parity(
                arrays["predictions"], arrays["protected"],
                arrays["strata"], min_stratum_group_size=10_000,
            )
        messages.append(str(excinfo.value))
    assert messages[0] == messages[1]


def test_full_audit_battery_is_backend_identical():
    data = make_intersectional(n=3000, random_state=7)
    rng = np.random.default_rng(2)
    labels = data.labels()
    predictions = np.where(
        rng.random(len(labels)) < 0.8, labels, 1 - labels
    ).astype(np.int64)

    def battery():
        report = FairnessAudit(
            data, predictions=predictions, config=AuditConfig(tolerance=0.05)
        ).run()
        return (
            [
                (f.attribute, f.metric, f.status, f.reason,
                 None if f.result is None else result_signature(f.result))
                for f in report.all_findings()
            ],
            {k: repr(v) for k, v in report.power_notes.items()},
        )

    kernel = battery()
    with reference_battery():
        # every name the audit looks up points at the oracle
        for name in BATTERY_FUNCTIONS:
            assert getattr(audit, name) is getattr(oracle, name)
        assert all(
            fn is getattr(oracle, name)
            for name, fn in audit._LABEL_METRICS.items()
        )
        assert audit.intersection_column is oracle_intersection_column
        reference = battery()
    assert kernel == reference
    # the oracle battery is undone on exit
    assert audit.demographic_parity is library.demographic_parity
    assert battery() == kernel


def test_intersection_column_is_backend_identical():
    data = make_intersectional(n=500, random_state=1)
    reference = oracle_intersection_column(data, ["gender", "race"])
    kernel = intersection_column(data, ["gender", "race"])
    assert kernel.tolist() == reference.tolist()


def test_kernel_cache_metrics_are_recorded():
    rng = np.random.default_rng(4)
    predictions = rng.integers(0, 2, size=300)
    protected = rng.choice(["a", "b", "c"], size=300)
    registry = MetricsRegistry()
    with use_metrics(registry):
        library.demographic_parity(predictions, protected)
        library.demographic_parity(predictions, protected)
    snapshot = registry.snapshot()
    assert snapshot["counters"].get("kernel.cache_hit", 0) > 0
    assert snapshot["counters"].get("kernel.cache_miss", 0) > 0
    assert snapshot["histograms"]["kernel.contingency"]["count"] > 0
