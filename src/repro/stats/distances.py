"""Distribution distances for bias detection (paper Section IV.F).

The paper lists Hellinger, total variation, Wasserstein (OT), and maximum
mean discrepancy as the distances practitioners use to compare a protected
attribute's distribution in training data against the population.  All of
them are implemented here, each in two flavours where meaningful:

* **discrete** — on two categorical probability vectors (aligned supports);
* **empirical** — on two samples of a 1-D continuous quantity.

Plus the optimal-transport machinery (exact 1-D Wasserstein, discrete
Kantorovich LP via scipy, and entropic Sinkhorn) that the group-blind
repair of :mod:`repro.mitigation.ot_repair` builds on.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro._validation import (
    check_array_1d,
    check_nonnegative,
    check_positive_int,
)
from repro.exceptions import ConvergenceError, ValidationError

__all__ = [
    "align_distributions",
    "hellinger_distance",
    "total_variation_distance",
    "kl_divergence",
    "js_divergence",
    "wasserstein1_empirical",
    "wasserstein_discrete",
    "sinkhorn_plan",
    "mmd_rbf",
    "DISTANCE_REGISTRY",
]


def _as_distribution(p: Mapping | np.ndarray, name: str) -> np.ndarray:
    if isinstance(p, Mapping):
        p = np.array([float(v) for v in p.values()])
    arr = check_array_1d(p, name).astype(float)
    if np.any(arr < 0):
        raise ValidationError(f"{name} has negative mass")
    total = arr.sum()
    if total <= 0:
        raise ValidationError(f"{name} has zero total mass")
    return arr / total


def align_distributions(
    p: Mapping[object, float], q: Mapping[object, float]
) -> tuple[np.ndarray, np.ndarray, list]:
    """Align two categorical distributions onto their union support.

    Returns (p_vec, q_vec, support) with both vectors normalised.
    """
    support = sorted(set(p) | set(q), key=repr)
    p_vec = np.array([float(p.get(k, 0.0)) for k in support])
    q_vec = np.array([float(q.get(k, 0.0)) for k in support])
    return (
        _as_distribution(p_vec, "p"),
        _as_distribution(q_vec, "q"),
        support,
    )


def hellinger_distance(p, q) -> float:
    """Hellinger distance between two discrete distributions, in [0, 1]."""
    p = _as_distribution(p, "p")
    q = _as_distribution(q, "q")
    if p.shape != q.shape:
        raise ValidationError(f"shape mismatch: {p.shape} vs {q.shape}")
    return float(np.sqrt(0.5 * np.sum((np.sqrt(p) - np.sqrt(q)) ** 2)))


def total_variation_distance(p, q) -> float:
    """Total variation distance, in [0, 1]: half the L1 gap."""
    p = _as_distribution(p, "p")
    q = _as_distribution(q, "q")
    if p.shape != q.shape:
        raise ValidationError(f"shape mismatch: {p.shape} vs {q.shape}")
    return float(0.5 * np.sum(np.abs(p - q)))


def kl_divergence(p, q, eps: float = 1e-12) -> float:
    """KL(p || q) with epsilon smoothing of q to keep it finite."""
    p = _as_distribution(p, "p")
    q = _as_distribution(q, "q")
    if p.shape != q.shape:
        raise ValidationError(f"shape mismatch: {p.shape} vs {q.shape}")
    q = np.clip(q, eps, None)
    q = q / q.sum()
    mask = p > 0
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def js_divergence(p, q) -> float:
    """Jensen–Shannon divergence (symmetric, bounded by log 2)."""
    p = _as_distribution(p, "p")
    q = _as_distribution(q, "q")
    if p.shape != q.shape:
        raise ValidationError(f"shape mismatch: {p.shape} vs {q.shape}")
    m = 0.5 * (p + q)
    return float(0.5 * kl_divergence(p, m) + 0.5 * kl_divergence(q, m))


def wasserstein1_empirical(x, y) -> float:
    """Exact 1-D Wasserstein-1 distance between two samples.

    Computed from the quantile-function representation:
    ``W1 = ∫ |F_x^{-1}(t) − F_y^{-1}(t)| dt``, evaluated on the merged
    grid of both empirical CDFs.
    """
    x = np.sort(check_array_1d(x, "x").astype(float))
    y = np.sort(check_array_1d(y, "y").astype(float))
    if len(x) == 0 or len(y) == 0:
        raise ValidationError("samples must be non-empty")
    # Quantile levels where either empirical quantile function can jump.
    levels = np.union1d(
        np.arange(1, len(x)) / len(x), np.arange(1, len(y)) / len(y)
    )
    levels = np.concatenate([[0.0], levels, [1.0]])
    widths = np.diff(levels)
    midpoints = (levels[:-1] + levels[1:]) / 2.0
    qx = x[np.minimum((midpoints * len(x)).astype(int), len(x) - 1)]
    qy = y[np.minimum((midpoints * len(y)).astype(int), len(y) - 1)]
    return float(np.sum(widths * np.abs(qx - qy)))


def wasserstein_discrete(p, q, cost: np.ndarray) -> tuple[float, np.ndarray]:
    """Exact discrete optimal transport via linear programming.

    Parameters
    ----------
    p, q:
        Source and target histograms (normalised internally).
    cost:
        (len(p), len(q)) ground-cost matrix.

    Returns
    -------
    (total transport cost, optimal plan matrix)
    """
    p = _as_distribution(p, "p")
    q = _as_distribution(q, "q")
    cost = np.asarray(cost, dtype=float)
    if cost.shape != (len(p), len(q)):
        raise ValidationError(
            f"cost must have shape {(len(p), len(q))}, got {cost.shape}"
        )
    n, m = cost.shape
    # LP over the flattened plan: minimise <C, T> s.t. row sums = p, col sums = q.
    c = cost.ravel()
    A_eq = np.zeros((n + m, n * m))
    for i in range(n):
        A_eq[i, i * m : (i + 1) * m] = 1.0
    for j in range(m):
        A_eq[n + j, j::m] = 1.0
    b_eq = np.concatenate([p, q])
    from scipy import optimize

    result = optimize.linprog(
        c, A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs"
    )
    if not result.success:
        raise ConvergenceError(f"OT linear program failed: {result.message}")
    plan = result.x.reshape(n, m)
    return float(result.fun), plan


def sinkhorn_plan(
    p,
    q,
    cost: np.ndarray,
    epsilon: float = 0.05,
    max_iter: int = 5000,
    tol: float = 1e-9,
) -> tuple[float, np.ndarray]:
    """Entropic-regularised OT via Sinkhorn iterations.

    Returns (transport cost of the regularised plan, plan).  Smaller
    ``epsilon`` approaches the exact plan at the cost of more iterations —
    the accuracy/runtime trade-off benchmarked in experiment C6.
    """
    p = _as_distribution(p, "p")
    q = _as_distribution(q, "q")
    cost = np.asarray(cost, dtype=float)
    if cost.shape != (len(p), len(q)):
        raise ValidationError(
            f"cost must have shape {(len(p), len(q))}, got {cost.shape}"
        )
    check_nonnegative(epsilon, "epsilon")
    if epsilon == 0:
        raise ValidationError("epsilon must be positive; use wasserstein_discrete")
    check_positive_int(max_iter, "max_iter")

    # Log-domain Sinkhorn: stable for small epsilon, where the naive
    # kernel exp(-C/eps) underflows to zero.
    from scipy.special import logsumexp

    log_p = np.log(np.clip(p, 1e-300, None))
    log_q = np.log(np.clip(q, 1e-300, None))
    f = np.zeros(len(p))
    g = np.zeros(len(q))
    M = -cost / epsilon
    for __ in range(max_iter):
        f_new = epsilon * (
            log_p - logsumexp(M + g[None, :] / epsilon, axis=1)
        )
        g_new = epsilon * (
            log_q - logsumexp(M.T + f_new[None, :] / epsilon, axis=1)
        )
        drift = max(
            np.max(np.abs(f_new - f), initial=0.0),
            np.max(np.abs(g_new - g), initial=0.0),
        )
        f, g = f_new, g_new
        if drift < tol:
            break
    log_plan = M + f[:, None] / epsilon + g[None, :] / epsilon
    plan = np.exp(log_plan)
    return float(np.sum(plan * cost)), plan


def mmd_rbf(x, y, bandwidth: float | None = None) -> float:
    """Unbiased-ish (V-statistic) RBF maximum mean discrepancy of two samples.

    ``bandwidth`` defaults to the median pairwise distance heuristic over
    the pooled sample.
    """
    x = check_array_1d(x, "x").astype(float)
    y = check_array_1d(y, "y").astype(float)
    if len(x) == 0 or len(y) == 0:
        raise ValidationError("samples must be non-empty")
    pooled = np.concatenate([x, y])
    if bandwidth is None:
        diffs = np.abs(pooled[:, None] - pooled[None, :])
        positive = diffs[diffs > 0]
        bandwidth = float(np.median(positive)) if positive.size else 1.0
    check_nonnegative(bandwidth, "bandwidth")
    if bandwidth == 0:
        bandwidth = 1.0
    gamma = 1.0 / (2.0 * bandwidth**2)

    def kernel_mean(a: np.ndarray, b: np.ndarray) -> float:
        d2 = (a[:, None] - b[None, :]) ** 2
        return float(np.mean(np.exp(-gamma * d2)))

    value = (
        kernel_mean(x, x) + kernel_mean(y, y) - 2.0 * kernel_mean(x, y)
    )
    return float(np.sqrt(max(value, 0.0)))


#: name → callable(p_dict, q_dict) for discrete-distribution distances;
#: used by the sampling-complexity experiment to sweep all at once.
DISTANCE_REGISTRY = {
    "hellinger": lambda p, q: hellinger_distance(*align_distributions(p, q)[:2]),
    "total_variation": lambda p, q: total_variation_distance(
        *align_distributions(p, q)[:2]
    ),
    "jensen_shannon": lambda p, q: js_divergence(*align_distributions(p, q)[:2]),
}
