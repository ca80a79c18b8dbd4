"""Association measures between features and protected attributes.

Proxy discrimination (paper Section IV.B) works through features that are
*statistically associated* with a protected attribute.  These measures
quantify that association for every feature/attribute kind combination:

* :func:`cramers_v` — categorical ↔ categorical (bias-corrected);
* :func:`point_biserial` — numeric ↔ binary group;
* :func:`mutual_information` — any ↔ any, after discretising numerics;
* :func:`correlation_ratio` — numeric ↔ multi-category group (η).
"""

from __future__ import annotations

import numpy as np

from repro._validation import check_array_1d, check_positive_int, check_same_length
from repro.exceptions import ValidationError

__all__ = [
    "cramers_v",
    "point_biserial",
    "mutual_information",
    "correlation_ratio",
    "discretize",
]


def _contingency(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    x_values = np.unique(x)
    y_values = np.unique(y)
    table = np.zeros((len(x_values), len(y_values)))
    for i, xv in enumerate(x_values):
        for j, yv in enumerate(y_values):
            table[i, j] = np.sum((x == xv) & (y == yv))
    return table


def cramers_v(x, y) -> float:
    """Bias-corrected Cramér's V between two categorical arrays, in [0, 1]."""
    x = check_array_1d(x, "x")
    y = check_array_1d(y, "y")
    check_same_length(("x", x), ("y", y))
    if len(x) == 0:
        raise ValidationError("inputs must be non-empty")
    table = _contingency(x, y)
    n = table.sum()
    r, k = table.shape
    if r < 2 or k < 2:
        return 0.0
    from scipy import stats as sp_stats

    chi2 = sp_stats.chi2_contingency(table, correction=False)[0]
    phi2 = chi2 / n
    # Bergsma's bias correction.
    phi2_corrected = max(0.0, phi2 - (k - 1) * (r - 1) / (n - 1))
    r_corrected = r - (r - 1) ** 2 / (n - 1)
    k_corrected = k - (k - 1) ** 2 / (n - 1)
    denom = min(r_corrected - 1, k_corrected - 1)
    if denom <= 0:
        return 0.0
    return float(np.sqrt(phi2_corrected / denom))


def point_biserial(values, membership) -> float:
    """|point-biserial correlation| between a numeric array and a binary group."""
    values = check_array_1d(values, "values").astype(float)
    membership = check_array_1d(membership, "membership")
    check_same_length(("values", values), ("membership", membership))
    membership = membership.astype(float)
    if len(np.unique(membership)) < 2:
        return 0.0
    if np.std(values) == 0:
        return 0.0
    from scipy import stats as sp_stats

    r, __ = sp_stats.pointbiserialr(membership, values)
    return float(abs(r))


def discretize(values, n_bins: int = 10) -> np.ndarray:
    """Equal-frequency binning of a numeric array into integer codes."""
    values = check_array_1d(values, "values").astype(float)
    check_positive_int(n_bins, "n_bins")
    if len(values) == 0:
        raise ValidationError("values must be non-empty")
    quantiles = np.quantile(values, np.linspace(0, 1, n_bins + 1)[1:-1])
    return np.digitize(values, np.unique(quantiles))


def mutual_information(x, y, n_bins: int = 10, normalized: bool = True) -> float:
    """(Normalised) mutual information between two arrays.

    Numeric inputs are discretised into equal-frequency bins first.
    Normalisation divides by ``sqrt(H(x) H(y))``, giving a [0, 1] score
    comparable across features.
    """
    x = check_array_1d(x, "x")
    y = check_array_1d(y, "y")
    check_same_length(("x", x), ("y", y))
    if len(x) == 0:
        raise ValidationError("inputs must be non-empty")
    if x.dtype.kind == "f":
        x = discretize(x, n_bins)
    if y.dtype.kind == "f":
        y = discretize(y, n_bins)
    table = _contingency(x, y)
    n = table.sum()
    joint = table / n
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    mi = 0.0
    for i in range(joint.shape[0]):
        for j in range(joint.shape[1]):
            if joint[i, j] > 0:
                mi += joint[i, j] * np.log(joint[i, j] / (px[i] * py[j]))
    if not normalized:
        return float(mi)
    hx = -np.sum(px[px > 0] * np.log(px[px > 0]))
    hy = -np.sum(py[py > 0] * np.log(py[py > 0]))
    if hx <= 0 or hy <= 0:
        return 0.0
    return float(mi / np.sqrt(hx * hy))


def correlation_ratio(values, groups) -> float:
    """Correlation ratio η between a numeric array and a categorical one.

    η² is the fraction of the numeric variance explained by group
    membership; η generalises point-biserial beyond two groups.
    """
    values = check_array_1d(values, "values").astype(float)
    groups = check_array_1d(groups, "groups")
    check_same_length(("values", values), ("groups", groups))
    if len(values) == 0:
        raise ValidationError("inputs must be non-empty")
    overall_var = np.var(values)
    if overall_var == 0:
        return 0.0
    grand_mean = values.mean()
    between = 0.0
    for group in np.unique(groups):
        member_values = values[groups == group]
        between += len(member_values) * (member_values.mean() - grand_mean) ** 2
    between /= len(values)
    return float(np.sqrt(between / overall_var))
