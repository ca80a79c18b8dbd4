"""The paper's fairness definitions (Section III), as executable metrics.

Each function mirrors one subsection of the paper:

========================================  ==============================
Paper definition                          Function
========================================  ==============================
III.A  Demographic parity                 :func:`demographic_parity`
III.B  Conditional statistical parity     :func:`conditional_statistical_parity`
III.C  Equal opportunity                  :func:`equal_opportunity`
III.D  Equalized odds                     :func:`equalized_odds`
III.E  Demographic disparity              :func:`demographic_disparity`
III.F  Conditional demographic disparity  :func:`conditional_demographic_disparity`
III.G  Counterfactual fairness            :func:`counterfactual_fairness`
V      Calibration (discussion)           :func:`calibration_within_groups`
—      Predictive parity (companion)      :func:`predictive_parity`
—      Disparate-impact ratio (legal)     :func:`disparate_impact_ratio`
========================================  ==============================

All array-based metrics accept plain sequences: ``predictions`` (binary
R), ``protected`` (group values A), and where needed ``y_true`` (binary
Y) and ``strata`` (legitimate conditioning attribute S).  Verdicts use an
absolute ``tolerance`` on the worst between-group gap; a tolerance of 0
reproduces the paper's exact-equality definitions.

Note on Definition III.E: the paper's formula (5) uses a strict
inequality ``P(R=+|a) > P(R=-|a)`` but its worked example treats the
boundary case (5 of 10 hired) as fair, matching the non-strict formula
(6) of Definition III.F.  We follow the examples and use ``>=``.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping

import numpy as np

from repro._validation import (
    check_array_1d,
    check_binary_array,
    check_probability,
    check_same_length,
)
from repro.causal.counterfactual import counterfactual_flip_rate
from repro.causal.scm import StructuralCausalModel
from repro.core.types import (
    ConditionalMetricResult,
    EqualityConcept,
    GroupStats,
    MetricResult,
    build_result,
)
from repro.exceptions import InsufficientDataError, MetricError
from repro.kernel import codes_for, group_counts, stratified_counts
from repro.models.calibration import expected_calibration_error
from repro.stats.tests import TestResult, chi_square_independence, two_proportion_z_test

__all__ = [
    "demographic_parity",
    "conditional_statistical_parity",
    "equal_opportunity",
    "equalized_odds",
    "demographic_disparity",
    "conditional_demographic_disparity",
    "counterfactual_fairness",
    "calibration_within_groups",
    "predictive_parity",
    "treatment_equality",
    "false_positive_rate_parity",
    "overall_accuracy_equality",
    "disparate_impact_ratio",
    "METRIC_CATALOG",
]


def _rate_stats(
    predictions: np.ndarray, groups: np.ndarray, metric: str
) -> list[GroupStats]:
    """Per-group positive-prediction rates."""
    counts = group_counts(groups, predictions)
    stats = []
    for group, n, positives in zip(counts.categories, counts.n, counts.pred_pos):
        if n == 0:
            raise InsufficientDataError(
                f"{metric}: group {group!r} has no members in the "
                "evaluated slice",
                group=group,
                count=0,
            )
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
        return two_proportion_z_test(a.positives, a.n, b.positives, b.n)
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
    if codes_for(protected).n_categories < 2:
        raise MetricError(
            "protected attribute must have at least two groups; got only "
            f"{np.unique(protected).tolist()}"
        )
    return predictions, protected


# ---------------------------------------------------------------------------
# III.A  Demographic parity
# ---------------------------------------------------------------------------

def demographic_parity(
    predictions,
    protected,
    tolerance: float = 0.0,
    with_significance: bool = False,
) -> MetricResult:
    """P(R=+ | A=a) equal across groups (paper Eq. 1).

    Example (paper III.A): 10 female and 20 male applicants; 10 males
    hired (rate 0.5) ⇒ fair iff exactly 5 females hired.

    >>> preds = [1]*10 + [0]*10 + [1]*5 + [0]*5
    >>> groups = ["m"]*20 + ["f"]*10
    >>> demographic_parity(preds, groups).satisfied
    True
    """
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


# ---------------------------------------------------------------------------
# III.B  Conditional statistical parity
# ---------------------------------------------------------------------------

def conditional_statistical_parity(
    predictions,
    protected,
    strata,
    tolerance: float = 0.0,
    min_stratum_group_size: int = 1,
) -> ConditionalMetricResult:
    """Demographic parity within each legitimate stratum (paper Eq. 2).

    ``strata`` holds the legitimate factor S (e.g. seniority band).  A
    stratum is *skipped* (recorded, not failed) when any protected group
    has fewer than ``min_stratum_group_size`` members there — the paper's
    Section IV.C warning about unreliable small-sample findings.
    """
    predictions, protected = _validate_pair(predictions, protected)
    strata = check_array_1d(strata, "strata")
    check_same_length(("predictions", predictions), ("strata", strata))
    check_probability(tolerance, "tolerance")

    results: dict = {}
    skipped: list = []
    strat = stratified_counts(strata, protected, predictions)
    for s_index, stratum in enumerate(strat.strata_table.categories):
        cell = strat.counts[s_index]
        sizes = cell.sum(axis=1)
        if int(sizes.min()) < min_stratum_group_size:
            skipped.append(stratum)
            continue
        stats = []
        for g_index, group in enumerate(strat.group_table.categories):
            n = int(sizes[g_index])
            if n == 0:
                raise InsufficientDataError(
                    f"conditional_statistical_parity: group {group!r} "
                    "has no members in the evaluated slice",
                    group=group,
                    count=0,
                )
            positives = int(cell[g_index, 1])
            stats.append(
                GroupStats(
                    group=group, n=n, positives=positives, rate=positives / n
                )
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


# ---------------------------------------------------------------------------
# III.C  Equal opportunity
# ---------------------------------------------------------------------------

def equal_opportunity(
    y_true,
    predictions,
    protected,
    tolerance: float = 0.0,
    with_significance: bool = False,
) -> MetricResult:
    """True-positive rates equal across groups (paper Eq. 3).

    Conditions on actual positives: every group's qualified members must
    be selected at the same rate.
    """
    y_true = check_binary_array(y_true, "y_true")
    predictions, protected = _validate_pair(predictions, protected)
    check_same_length(("y_true", y_true), ("predictions", predictions))
    check_probability(tolerance, "tolerance")

    stats = []
    counts = group_counts(protected, predictions, y_true)
    for group, tp, fn in zip(counts.categories, counts.tp, counts.fn):
        n = tp + fn
        if n == 0:
            raise InsufficientDataError(
                f"equal_opportunity: group {group!r} has no actual "
                "positives",
                group=group,
                count=0,
            )
        stats.append(
            GroupStats(group=group, n=n, positives=tp, rate=tp / n)
        )
    significance = _significance(stats) if with_significance else None
    return build_result(
        "equal_opportunity",
        stats,
        tolerance,
        EqualityConcept.EQUAL_TREATMENT,
        significance=significance,
    )


# ---------------------------------------------------------------------------
# III.D  Equalized odds
# ---------------------------------------------------------------------------

def equalized_odds(
    y_true,
    predictions,
    protected,
    tolerance: float = 0.0,
) -> MetricResult:
    """TPR **and** FPR equal across groups (paper Eq. 4).

    The result's ``gap`` is the worse of the TPR gap and the FPR gap; the
    per-family gaps are exposed in ``details["tpr_gap"]`` and
    ``details["fpr_gap"]``.
    """
    y_true = check_binary_array(y_true, "y_true")
    predictions, protected = _validate_pair(predictions, protected)
    check_same_length(("y_true", y_true), ("predictions", predictions))
    check_probability(tolerance, "tolerance")

    tpr_stats, fpr_stats = [], []
    counts = group_counts(protected, predictions, y_true)
    for index, group in enumerate(counts.categories):
        tp, fn = counts.tp[index], counts.fn[index]
        fp, tn = counts.fp[index], counts.tn[index]
        if tp + fn == 0:
            raise InsufficientDataError(
                f"equalized_odds: group {group!r} has no actual positives",
                group=group,
            )
        if fp + tn == 0:
            raise InsufficientDataError(
                f"equalized_odds: group {group!r} has no actual negatives",
                group=group,
            )
        tpr_stats.append(
            GroupStats(group=group, n=tp + fn, positives=tp, rate=tp / (tp + fn))
        )
        fpr_stats.append(
            GroupStats(group=group, n=fp + tn, positives=fp, rate=fp / (fp + tn))
        )

    tpr_rates = [gs.rate for gs in tpr_stats]
    fpr_rates = [gs.rate for gs in fpr_stats]
    tpr_gap = max(tpr_rates) - min(tpr_rates)
    fpr_gap = max(fpr_rates) - min(fpr_rates)
    worst_gap = max(tpr_gap, fpr_gap)
    # Represent the headline rates with TPRs (the equal-opportunity part),
    # but compute the verdict over both families.
    max_tpr = max(tpr_rates)
    result = MetricResult(
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
    return result


# ---------------------------------------------------------------------------
# III.E  Demographic disparity
# ---------------------------------------------------------------------------

def demographic_disparity(
    predictions,
    protected,
    tolerance: float = 0.0,
) -> MetricResult:
    """Each group's acceptance fraction must not trail its rejection fraction.

    Per group a: fair towards a iff ``P(R=+|a) >= P(R=-|a)``, i.e. the
    positive rate is at least one half (see the module docstring for the
    strict-vs-non-strict note).  The result's ``gap`` is the worst
    shortfall ``max(0, 0.5 − rate)`` over groups.

    Unlike the other definitions this is evaluated per group, not between
    groups, so it is meaningful even for a single group.
    """
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


# ---------------------------------------------------------------------------
# III.F  Conditional demographic disparity
# ---------------------------------------------------------------------------

def conditional_demographic_disparity(
    predictions,
    protected,
    strata,
    tolerance: float = 0.0,
    min_stratum_group_size: int = 1,
) -> ConditionalMetricResult:
    """Demographic disparity within each stratum (paper Eq. 6).

    Reproduces the paper's III.F example: a 40/100 overall hire rate for
    females is unfair by III.E, but conditioning on the job applied to can
    reveal fairness on jobs 1–4 and unfairness only on job 5.
    """
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
    strat = stratified_counts(strata, protected, predictions)
    for s_index, stratum in enumerate(strat.strata_table.categories):
        cell = strat.counts[s_index]
        sizes = cell.sum(axis=1)
        if int(sizes.min()) < min_stratum_group_size:
            skipped.append(stratum)
            continue
        # Inline demographic_disparity over the stratum's counts:
        # groups absent from the stratum are omitted, as slicing does.
        stats = []
        for g_index, group in enumerate(strat.group_table.categories):
            n = int(sizes[g_index])
            if n == 0:
                continue
            positives = int(cell[g_index, 1])
            stats.append(
                GroupStats(
                    group=group, n=n, positives=positives, rate=positives / n
                )
            )
        if not stats:
            raise MetricError("cannot evaluate a metric on empty inputs")
        shortfalls = {gs.group: max(0.0, 0.5 - gs.rate) for gs in stats}
        worst = max(shortfalls.values())
        results[stratum] = MetricResult(
            metric="demographic_disparity",
            group_stats=tuple(stats),
            gap=float(worst),
            ratio=float(min(gs.rate for gs in stats) / 0.5),
            tolerance=float(tolerance),
            satisfied=bool(worst <= tolerance + 1e-12),
            equality_concept=EqualityConcept.EQUAL_OUTCOME,
            details={"shortfalls": shortfalls},
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


# ---------------------------------------------------------------------------
# III.G  Counterfactual fairness
# ---------------------------------------------------------------------------

def counterfactual_fairness(
    scm: StructuralCausalModel,
    observed: Mapping[str, np.ndarray],
    protected: str,
    counterfactual_value,
    predictor: Callable[[Mapping[str, np.ndarray]], np.ndarray],
    tolerance: float = 0.0,
) -> MetricResult:
    """SCM-based counterfactual fairness (paper III.G) as a MetricResult.

    Wraps :func:`repro.causal.counterfactual.counterfactual_flip_rate`:
    the "rate" reported per pseudo-group is the prediction-flip rate under
    ``do(protected := counterfactual_value)``; fairness holds when it does
    not exceed ``tolerance``.
    """
    cf = counterfactual_flip_rate(
        scm, observed, protected, counterfactual_value, predictor, tolerance
    )
    n = len(cf.flipped_mask)
    flipped = int(cf.flipped_mask.sum())
    stats = (
        GroupStats(group="audited_units", n=n, positives=flipped, rate=cf.flip_rate),
    )
    return MetricResult(
        metric="counterfactual_fairness",
        group_stats=stats,
        gap=cf.flip_rate,
        ratio=1.0 - cf.flip_rate,
        tolerance=float(tolerance),
        satisfied=cf.is_fair,
        equality_concept=EqualityConcept.HYBRID,
        details={
            "flip_rate": cf.flip_rate,
            "n_flipped": flipped,
            "intervention": {protected: counterfactual_value},
        },
    )


# ---------------------------------------------------------------------------
# Calibration within groups (paper Section V discussion)
# ---------------------------------------------------------------------------

def calibration_within_groups(
    y_true,
    probabilities,
    protected,
    n_bins: int = 10,
    tolerance: float = 0.1,
) -> MetricResult:
    """Expected calibration error per group; gap is the worst ECE spread.

    The paper's discussion lists calibration among the definitions legal
    scholarship singles out; group-wise calibration demands that a score
    of p means the same observed frequency in every group.
    """
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
    # ECE itself stays on the per-group path (binned float means are
    # order-sensitive); the kernel only supplies the cached masks.
    table = codes_for(protected)
    for group in table.categories:
        mask = table.mask(group)
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


# ---------------------------------------------------------------------------
# Companions frequently used in legal analyses
# ---------------------------------------------------------------------------

def predictive_parity(
    y_true,
    predictions,
    protected,
    tolerance: float = 0.0,
) -> MetricResult:
    """Positive predictive value (precision) equal across groups."""
    y_true = check_binary_array(y_true, "y_true")
    predictions, protected = _validate_pair(predictions, protected)
    check_same_length(("y_true", y_true), ("predictions", predictions))
    check_probability(tolerance, "tolerance")

    stats = []
    counts = group_counts(protected, predictions, y_true)
    for group, tp, fp in zip(counts.categories, counts.tp, counts.fp):
        n = tp + fp
        if n == 0:
            raise InsufficientDataError(
                f"predictive_parity: group {group!r} has no positive "
                "predictions",
                group=group,
            )
        stats.append(GroupStats(group=group, n=n, positives=tp, rate=tp / n))
    return build_result(
        "predictive_parity",
        stats,
        tolerance,
        EqualityConcept.EQUAL_TREATMENT,
    )


def disparate_impact_ratio(
    predictions,
    protected,
    reference_group=None,
) -> MetricResult:
    """Selection-rate ratio against a reference group (the 80% rule input).

    ``reference_group`` defaults to the group with the highest selection
    rate (US enforcement practice).  The result's ``ratio`` is the lowest
    group-to-reference ratio; :func:`repro.core.legal.four_fifths_rule`
    turns it into a legal verdict.
    """
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
    y_true,
    predictions,
    protected,
    tolerance: float = 0.0,
) -> MetricResult:
    """FN/FP ratio equal across groups (Verma & Rubin's catalog, cited
    as [21]).

    The ratio of false negatives to false positives measures *which kind*
    of error a group absorbs: a group with many FNs relative to FPs is
    being wrongly denied, one with many FPs relative to FNs wrongly
    flagged.  The reported per-group rate is the normalised ratio
    ``FN / (FN + FP)`` so it stays in [0, 1]; parity of this quantity is
    equivalent to parity of FN/FP where both are defined.
    """
    y_true = check_binary_array(y_true, "y_true")
    predictions, protected = _validate_pair(predictions, protected)
    check_same_length(("y_true", y_true), ("predictions", predictions))
    check_probability(tolerance, "tolerance")

    stats = []
    counts = group_counts(protected, predictions, y_true)
    for group, fn, fp in zip(counts.categories, counts.fn, counts.fp):
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
    y_true,
    predictions,
    protected,
    tolerance: float = 0.0,
) -> MetricResult:
    """FPR equal across groups (predictive equality; one half of Eq. 4).

    Stand-alone variant for punitive settings where only the false-
    positive harm matters (e.g. fraud flags): equalized odds may be
    unachievable while FPR parity is.
    """
    y_true = check_binary_array(y_true, "y_true")
    predictions, protected = _validate_pair(predictions, protected)
    check_same_length(("y_true", y_true), ("predictions", predictions))
    check_probability(tolerance, "tolerance")

    stats = []
    counts = group_counts(protected, predictions, y_true)
    for group, fp, tn in zip(counts.categories, counts.fp, counts.tn):
        n = fp + tn
        if n == 0:
            raise InsufficientDataError(
                f"false_positive_rate_parity: group {group!r} has no "
                "actual negatives",
                group=group,
            )
        stats.append(GroupStats(group=group, n=n, positives=fp, rate=fp / n))
    return build_result(
        "false_positive_rate_parity",
        stats,
        tolerance,
        EqualityConcept.EQUAL_TREATMENT,
    )


def overall_accuracy_equality(
    y_true,
    predictions,
    protected,
    tolerance: float = 0.0,
) -> MetricResult:
    """Accuracy equal across groups (Verma & Rubin's catalog).

    The weakest error-based criterion: a model may be equally accurate on
    both groups while distributing its errors very differently — pair
    with :func:`treatment_equality` to see *how* errors fall.
    """
    y_true = check_binary_array(y_true, "y_true")
    predictions, protected = _validate_pair(predictions, protected)
    check_same_length(("y_true", y_true), ("predictions", predictions))
    check_probability(tolerance, "tolerance")

    stats = []
    counts = group_counts(protected, predictions, y_true)
    for index, group in enumerate(counts.categories):
        n = counts.n[index]
        if n == 0:
            raise InsufficientDataError(
                f"overall_accuracy_equality: group {group!r} empty",
                group=group,
            )
        correct = counts.tp[index] + counts.tn[index]
        stats.append(GroupStats(
            group=group, n=n, positives=correct, rate=correct / n
        ))
    return build_result(
        "overall_accuracy_equality",
        stats,
        tolerance,
        EqualityConcept.EQUAL_TREATMENT,
    )


#: machine-readable catalog used by the criteria engine and the audit
#: battery; maps metric id → (callable signature class, equality concept,
#: needs ground truth?, needs strata?, needs causal model?)
METRIC_CATALOG = {
    "demographic_parity": {
        "function": demographic_parity,
        "equality_concept": EqualityConcept.EQUAL_OUTCOME,
        "needs_labels": False,
        "needs_strata": False,
        "needs_scm": False,
        "paper_section": "III.A",
    },
    "conditional_statistical_parity": {
        "function": conditional_statistical_parity,
        "equality_concept": EqualityConcept.EQUAL_OUTCOME,
        "needs_labels": False,
        "needs_strata": True,
        "needs_scm": False,
        "paper_section": "III.B",
    },
    "equal_opportunity": {
        "function": equal_opportunity,
        "equality_concept": EqualityConcept.EQUAL_TREATMENT,
        "needs_labels": True,
        "needs_strata": False,
        "needs_scm": False,
        "paper_section": "III.C",
    },
    "equalized_odds": {
        "function": equalized_odds,
        "equality_concept": EqualityConcept.EQUAL_TREATMENT,
        "needs_labels": True,
        "needs_strata": False,
        "needs_scm": False,
        "paper_section": "III.D",
    },
    "demographic_disparity": {
        "function": demographic_disparity,
        "equality_concept": EqualityConcept.EQUAL_OUTCOME,
        "needs_labels": False,
        "needs_strata": False,
        "needs_scm": False,
        "paper_section": "III.E",
    },
    "conditional_demographic_disparity": {
        "function": conditional_demographic_disparity,
        "equality_concept": EqualityConcept.EQUAL_OUTCOME,
        "needs_labels": False,
        "needs_strata": True,
        "needs_scm": False,
        "paper_section": "III.F",
    },
    "counterfactual_fairness": {
        "function": counterfactual_fairness,
        "equality_concept": EqualityConcept.HYBRID,
        "needs_labels": False,
        "needs_strata": False,
        "needs_scm": True,
        "paper_section": "III.G",
    },
    "calibration_within_groups": {
        "function": calibration_within_groups,
        "equality_concept": EqualityConcept.EQUAL_TREATMENT,
        "needs_labels": True,
        "needs_strata": False,
        "needs_scm": False,
        "paper_section": "V",
    },
    "predictive_parity": {
        "function": predictive_parity,
        "equality_concept": EqualityConcept.EQUAL_TREATMENT,
        "needs_labels": True,
        "needs_strata": False,
        "needs_scm": False,
        "paper_section": "companion",
    },
    "treatment_equality": {
        "function": treatment_equality,
        "equality_concept": EqualityConcept.EQUAL_TREATMENT,
        "needs_labels": True,
        "needs_strata": False,
        "needs_scm": False,
        "paper_section": "companion ([21])",
    },
    "false_positive_rate_parity": {
        "function": false_positive_rate_parity,
        "equality_concept": EqualityConcept.EQUAL_TREATMENT,
        "needs_labels": True,
        "needs_strata": False,
        "needs_scm": False,
        "paper_section": "companion (III.D half)",
    },
    "overall_accuracy_equality": {
        "function": overall_accuracy_equality,
        "equality_concept": EqualityConcept.EQUAL_TREATMENT,
        "needs_labels": True,
        "needs_strata": False,
        "needs_scm": False,
        "paper_section": "companion ([21])",
    },
    "disparate_impact_ratio": {
        "function": disparate_impact_ratio,
        "equality_concept": EqualityConcept.EQUAL_OUTCOME,
        "needs_labels": False,
        "needs_strata": False,
        "needs_scm": False,
        "paper_section": "IV.A/legal",
    },
}
