"""Reference Section III metrics: one boolean mask per group.

The library computes every metric in :mod:`repro.core.metrics` from the
shared contingency counts of :mod:`repro.kernel`.  These are the
per-group masking loops that kernel replaced, kept verbatim as the
executable specification it is compared against: same signatures, same
repr-sorted group order, same results and the same errors.  Validation
and result assembly reuse the library's helpers; significance uses the
scalar tests of :mod:`tests.oracle.stats`.
"""

from __future__ import annotations

import numpy as np

from repro._validation import (
    check_array_1d,
    check_binary_array,
    check_probability,
    check_same_length,
)
from repro.core.types import (
    ConditionalMetricResult,
    EqualityConcept,
    GroupStats,
    MetricResult,
    build_result,
)
from repro.exceptions import InsufficientDataError, MetricError
from repro.models.calibration import expected_calibration_error
from repro.stats.tests import TestResult, chi_square_independence
from tests.oracle import stats as oracle_stats


def _group_order(groups: np.ndarray) -> list:
    """Deterministic group ordering (sorted by repr for mixed types)."""
    return sorted(np.unique(groups).tolist(), key=repr)


def _rate_stats(
    predictions: np.ndarray,
    groups: np.ndarray,
    metric: str,
    selector: np.ndarray | None = None,
) -> list[GroupStats]:
    """Per-group positive-prediction rates, optionally within a selector mask."""
    stats = []
    for group in _group_order(groups):
        mask = groups == group
        if selector is not None:
            mask = mask & selector
        n = int(mask.sum())
        if n == 0:
            raise InsufficientDataError(
                f"{metric}: group {group!r} has no members in the evaluated "
                "slice",
                group=group,
                count=0,
            )
        positives = int(predictions[mask].sum())
        stats.append(
            GroupStats(group=group, n=n, positives=positives, rate=positives / n)
        )
    return stats


def _significance(stats: list[GroupStats]) -> TestResult | None:
    """Gap significance: z-test for two groups, chi-square beyond."""
    if len(stats) < 2:
        return None
    if len(stats) == 2:
        a, b = stats
        z, p_value = oracle_stats.two_proportion_z_test(
            a.positives, a.n, b.positives, b.n
        )
        return TestResult(z, p_value, "two_proportion_z")
    table = np.array([[gs.positives, gs.n - gs.positives] for gs in stats])
    if np.any(table.sum(axis=1) == 0):
        return None
    return chi_square_independence(table)


def _validate_pair(predictions, protected) -> tuple[np.ndarray, np.ndarray]:
    predictions = check_binary_array(predictions, "predictions")
    protected = check_array_1d(protected, "protected")
    check_same_length(("predictions", predictions), ("protected", protected))
    if len(predictions) == 0:
        raise MetricError("cannot evaluate a metric on empty inputs")
    if len(np.unique(protected)) < 2:
        raise MetricError(
            "protected attribute must have at least two groups; got only "
            f"{np.unique(protected).tolist()}"
        )
    return predictions, protected


def demographic_parity(
    predictions, protected, tolerance=0.0, with_significance=False
) -> MetricResult:
    predictions, protected = _validate_pair(predictions, protected)
    check_probability(tolerance, "tolerance")
    stats = _rate_stats(predictions, protected, "demographic_parity")
    significance = _significance(stats) if with_significance else None
    return build_result(
        "demographic_parity",
        stats,
        tolerance,
        EqualityConcept.EQUAL_OUTCOME,
        significance=significance,
    )


def conditional_statistical_parity(
    predictions, protected, strata, tolerance=0.0, min_stratum_group_size=1
) -> ConditionalMetricResult:
    predictions, protected = _validate_pair(predictions, protected)
    strata = check_array_1d(strata, "strata")
    check_same_length(("predictions", predictions), ("strata", strata))
    check_probability(tolerance, "tolerance")

    results: dict = {}
    skipped: list = []
    for stratum in _group_order(strata):
        selector = strata == stratum
        group_sizes = [
            int(((protected == g) & selector).sum())
            for g in _group_order(protected)
        ]
        if min(group_sizes) < min_stratum_group_size:
            skipped.append(stratum)
            continue
        stats = _rate_stats(
            predictions, protected, "conditional_statistical_parity", selector
        )
        results[stratum] = build_result(
            "conditional_statistical_parity",
            stats,
            tolerance,
            EqualityConcept.EQUAL_OUTCOME,
        )
    if not results and skipped:
        raise InsufficientDataError(
            "conditional_statistical_parity: every stratum was skipped for "
            f"insufficient group representation (skipped: {skipped})"
        )
    return ConditionalMetricResult(
        metric="conditional_statistical_parity",
        condition="strata",
        strata=results,
        tolerance=float(tolerance),
        equality_concept=EqualityConcept.EQUAL_OUTCOME,
        skipped_strata=tuple(skipped),
    )


def equal_opportunity(
    y_true, predictions, protected, tolerance=0.0, with_significance=False
) -> MetricResult:
    y_true = check_binary_array(y_true, "y_true")
    predictions, protected = _validate_pair(predictions, protected)
    check_same_length(("y_true", y_true), ("predictions", predictions))
    check_probability(tolerance, "tolerance")

    stats = []
    for group in _group_order(protected):
        mask = (protected == group) & (y_true == 1)
        n = int(mask.sum())
        if n == 0:
            raise InsufficientDataError(
                f"equal_opportunity: group {group!r} has no actual "
                "positives",
                group=group,
                count=0,
            )
        positives = int(predictions[mask].sum())
        stats.append(
            GroupStats(group=group, n=n, positives=positives, rate=positives / n)
        )
    significance = _significance(stats) if with_significance else None
    return build_result(
        "equal_opportunity",
        stats,
        tolerance,
        EqualityConcept.EQUAL_TREATMENT,
        significance=significance,
    )


def equalized_odds(y_true, predictions, protected, tolerance=0.0) -> MetricResult:
    y_true = check_binary_array(y_true, "y_true")
    predictions, protected = _validate_pair(predictions, protected)
    check_same_length(("y_true", y_true), ("predictions", predictions))
    check_probability(tolerance, "tolerance")

    tpr_stats, fpr_stats = [], []
    for group in _group_order(protected):
        pos_mask = (protected == group) & (y_true == 1)
        neg_mask = (protected == group) & (y_true == 0)
        if not pos_mask.any():
            raise InsufficientDataError(
                f"equalized_odds: group {group!r} has no actual positives",
                group=group,
            )
        if not neg_mask.any():
            raise InsufficientDataError(
                f"equalized_odds: group {group!r} has no actual negatives",
                group=group,
            )
        tp = int(predictions[pos_mask].sum())
        fp = int(predictions[neg_mask].sum())
        tpr_stats.append(
            GroupStats(
                group=group,
                n=int(pos_mask.sum()),
                positives=tp,
                rate=tp / int(pos_mask.sum()),
            )
        )
        fpr_stats.append(
            GroupStats(
                group=group,
                n=int(neg_mask.sum()),
                positives=fp,
                rate=fp / int(neg_mask.sum()),
            )
        )

    tpr_rates = [gs.rate for gs in tpr_stats]
    fpr_rates = [gs.rate for gs in fpr_stats]
    tpr_gap = max(tpr_rates) - min(tpr_rates)
    fpr_gap = max(fpr_rates) - min(fpr_rates)
    worst_gap = max(tpr_gap, fpr_gap)
    max_tpr = max(tpr_rates)
    return MetricResult(
        metric="equalized_odds",
        group_stats=tuple(tpr_stats),
        gap=float(worst_gap),
        ratio=float(min(tpr_rates) / max_tpr) if max_tpr > 0 else float("nan"),
        tolerance=float(tolerance),
        satisfied=bool(worst_gap <= tolerance + 1e-12),
        equality_concept=EqualityConcept.EQUAL_TREATMENT,
        details={
            "tpr_gap": float(tpr_gap),
            "fpr_gap": float(fpr_gap),
            "tpr": {gs.group: gs.rate for gs in tpr_stats},
            "fpr": {gs.group: gs.rate for gs in fpr_stats},
        },
    )


def demographic_disparity(predictions, protected, tolerance=0.0) -> MetricResult:
    predictions = check_binary_array(predictions, "predictions")
    protected = check_array_1d(protected, "protected")
    check_same_length(("predictions", predictions), ("protected", protected))
    if len(predictions) == 0:
        raise MetricError("cannot evaluate a metric on empty inputs")
    check_probability(tolerance, "tolerance")

    stats = _rate_stats(predictions, protected, "demographic_disparity")
    shortfalls = {gs.group: max(0.0, 0.5 - gs.rate) for gs in stats}
    worst = max(shortfalls.values())
    return MetricResult(
        metric="demographic_disparity",
        group_stats=tuple(stats),
        gap=float(worst),
        ratio=float(min(gs.rate for gs in stats) / 0.5),
        tolerance=float(tolerance),
        satisfied=bool(worst <= tolerance + 1e-12),
        equality_concept=EqualityConcept.EQUAL_OUTCOME,
        details={"shortfalls": shortfalls},
    )


def conditional_demographic_disparity(
    predictions, protected, strata, tolerance=0.0, min_stratum_group_size=1
) -> ConditionalMetricResult:
    predictions = check_binary_array(predictions, "predictions")
    protected = check_array_1d(protected, "protected")
    strata = check_array_1d(strata, "strata")
    check_same_length(
        ("predictions", predictions), ("protected", protected), ("strata", strata)
    )
    if len(predictions) == 0:
        raise MetricError("cannot evaluate a metric on empty inputs")
    check_probability(tolerance, "tolerance")

    results: dict = {}
    skipped: list = []
    for stratum in _group_order(strata):
        selector = strata == stratum
        group_sizes = [
            int(((protected == g) & selector).sum())
            for g in _group_order(protected)
        ]
        if min(group_sizes) < min_stratum_group_size:
            skipped.append(stratum)
            continue
        results[stratum] = demographic_disparity(
            predictions[selector], protected[selector], tolerance=tolerance
        )
    if not results and skipped:
        raise InsufficientDataError(
            "conditional_demographic_disparity: every stratum was skipped "
            f"(skipped: {skipped})"
        )
    return ConditionalMetricResult(
        metric="conditional_demographic_disparity",
        condition="strata",
        strata=results,
        tolerance=float(tolerance),
        equality_concept=EqualityConcept.EQUAL_OUTCOME,
        skipped_strata=tuple(skipped),
    )


def calibration_within_groups(
    y_true, probabilities, protected, n_bins=10, tolerance=0.1
) -> MetricResult:
    y_true = check_binary_array(y_true, "y_true")
    probabilities = check_array_1d(probabilities, "probabilities").astype(float)
    protected = check_array_1d(protected, "protected")
    check_same_length(
        ("y_true", y_true),
        ("probabilities", probabilities),
        ("protected", protected),
    )
    check_probability(tolerance, "tolerance")

    stats = []
    eces = {}
    for group in _group_order(protected):
        mask = protected == group
        n = int(mask.sum())
        if n == 0:
            raise InsufficientDataError(
                f"calibration: group {group!r} empty", group=group
            )
        ece = expected_calibration_error(
            y_true[mask], probabilities[mask], n_bins=n_bins
        )
        eces[group] = ece
        stats.append(
            GroupStats(
                group=group, n=n, positives=int(y_true[mask].sum()), rate=ece
            )
        )
    worst = max(eces.values())
    return MetricResult(
        metric="calibration_within_groups",
        group_stats=tuple(stats),
        gap=float(worst),
        ratio=float(min(eces.values()) / worst) if worst > 0 else 1.0,
        tolerance=float(tolerance),
        satisfied=bool(worst <= tolerance + 1e-12),
        equality_concept=EqualityConcept.EQUAL_TREATMENT,
        details={"ece": eces},
    )


def predictive_parity(
    y_true, predictions, protected, tolerance=0.0
) -> MetricResult:
    y_true = check_binary_array(y_true, "y_true")
    predictions, protected = _validate_pair(predictions, protected)
    check_same_length(("y_true", y_true), ("predictions", predictions))
    check_probability(tolerance, "tolerance")

    stats = []
    for group in _group_order(protected):
        mask = (protected == group) & (predictions == 1)
        n = int(mask.sum())
        if n == 0:
            raise InsufficientDataError(
                f"predictive_parity: group {group!r} has no positive "
                "predictions",
                group=group,
            )
        tp = int(y_true[mask].sum())
        stats.append(GroupStats(group=group, n=n, positives=tp, rate=tp / n))
    return build_result(
        "predictive_parity",
        stats,
        tolerance,
        EqualityConcept.EQUAL_TREATMENT,
    )


def disparate_impact_ratio(
    predictions, protected, reference_group=None
) -> MetricResult:
    predictions, protected = _validate_pair(predictions, protected)
    stats = _rate_stats(predictions, protected, "disparate_impact_ratio")
    by_group = {gs.group: gs for gs in stats}
    if reference_group is None:
        reference = max(stats, key=lambda gs: gs.rate)
    else:
        if reference_group not in by_group:
            raise MetricError(
                f"reference group {reference_group!r} not present; groups: "
                f"{list(by_group)}"
            )
        reference = by_group[reference_group]
    if reference.rate == 0:
        ratios = {
            gs.group: float("nan") for gs in stats if gs.group != reference.group
        }
        worst = float("nan")
    else:
        ratios = {
            gs.group: gs.rate / reference.rate
            for gs in stats
            if gs.group != reference.group
        }
        worst = min(ratios.values())
    gap = max(gs.rate for gs in stats) - min(gs.rate for gs in stats)
    return MetricResult(
        metric="disparate_impact_ratio",
        group_stats=tuple(stats),
        gap=float(gap),
        ratio=float(worst),
        tolerance=0.0,
        satisfied=bool(not np.isnan(worst) and worst >= 0.8),
        equality_concept=EqualityConcept.EQUAL_OUTCOME,
        details={"reference_group": reference.group, "ratios": ratios},
    )


def treatment_equality(
    y_true, predictions, protected, tolerance=0.0
) -> MetricResult:
    y_true = check_binary_array(y_true, "y_true")
    predictions, protected = _validate_pair(predictions, protected)
    check_same_length(("y_true", y_true), ("predictions", predictions))
    check_probability(tolerance, "tolerance")

    stats = []
    for group in _group_order(protected):
        mask = protected == group
        fn = int(np.sum(mask & (y_true == 1) & (predictions == 0)))
        fp = int(np.sum(mask & (y_true == 0) & (predictions == 1)))
        if fn + fp == 0:
            raise InsufficientDataError(
                f"treatment_equality: group {group!r} has no errors to "
                "compare",
                group=group,
            )
        stats.append(GroupStats(
            group=group, n=fn + fp, positives=fn, rate=fn / (fn + fp)
        ))
    return build_result(
        "treatment_equality",
        stats,
        tolerance,
        EqualityConcept.EQUAL_TREATMENT,
    )


def false_positive_rate_parity(
    y_true, predictions, protected, tolerance=0.0
) -> MetricResult:
    y_true = check_binary_array(y_true, "y_true")
    predictions, protected = _validate_pair(predictions, protected)
    check_same_length(("y_true", y_true), ("predictions", predictions))
    check_probability(tolerance, "tolerance")

    stats = []
    for group in _group_order(protected):
        mask = (protected == group) & (y_true == 0)
        n = int(mask.sum())
        if n == 0:
            raise InsufficientDataError(
                f"false_positive_rate_parity: group {group!r} has no "
                "actual negatives",
                group=group,
            )
        fp = int(predictions[mask].sum())
        stats.append(GroupStats(group=group, n=n, positives=fp, rate=fp / n))
    return build_result(
        "false_positive_rate_parity",
        stats,
        tolerance,
        EqualityConcept.EQUAL_TREATMENT,
    )


def overall_accuracy_equality(
    y_true, predictions, protected, tolerance=0.0
) -> MetricResult:
    y_true = check_binary_array(y_true, "y_true")
    predictions, protected = _validate_pair(predictions, protected)
    check_same_length(("y_true", y_true), ("predictions", predictions))
    check_probability(tolerance, "tolerance")

    stats = []
    for group in _group_order(protected):
        mask = protected == group
        n = int(mask.sum())
        if n == 0:
            raise InsufficientDataError(
                f"overall_accuracy_equality: group {group!r} empty",
                group=group,
            )
        correct = int(np.sum(predictions[mask] == y_true[mask]))
        stats.append(GroupStats(
            group=group, n=n, positives=correct, rate=correct / n
        ))
    return build_result(
        "overall_accuracy_equality",
        stats,
        tolerance,
        EqualityConcept.EQUAL_TREATMENT,
    )
