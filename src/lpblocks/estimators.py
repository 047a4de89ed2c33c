"""Cluster-inference estimators on extremal l^p-blocks.

Every estimator is a ratio statistic against an empirical order-statistic
threshold, so all of them are invariant under positive rescaling of the
series. Selection comparators are strict (norm > threshold) except for
extremal_index_infty_blocks, whose point-level comparator is >= by
definition of that classical estimator.

The built-in estimators are written over the frame's norm vectors: each
selects its rows once (the blocks whose cached p-norm exceeds the k-th
largest one) and computes every per-block term on that sub-matrix at once.
The extremal index averages (||B||_inf / ||B||_a)^a and c(1) inverts the
average of (||B||_a / ||B||_1)^a, both on the threshold-normalized rows
the kernels see; serial dependence takes one dot product per row of the
signed-power matrix and the sup-walk numerator a row-wise cumsum maximum.
Each result equals (==) the per-block loop over the kernels: the final
power is taken per term on Python floats (libm pow; numpy's vectorized
power can differ by an ulp) and the terms are summed left to right (not
pairwise, as np.sum does). The generic ClusterFunctional loop remains for
user-supplied functionals (cluster_functional_estimate, psi and theta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .blocks import BlockFrame, threshold_from_order_stat
from .seqcore import INF, PExponent, as_p, as_series, p_modulus, row_p_moduli
from .spectral import SpectralDraw

__all__ = [
    "EstimateReport",
    "ClusterFunctional",
    "extremal_index_kernel",
    "cluster_index_kernel",
    "cluster_functional_estimate",
    "extremal_index_alpha_blocks",
    "extremal_index_infty_blocks",
    "cluster_index_c1",
    "cluster_index_c1_infty",
    "psi_functional_estimate",
    "serial_dependence_estimate",
    "supwalk_constant_estimate",
    "stable_scale_skew",
    "theta_functional_estimate",
    "hill_alpha",
]


@dataclass(frozen=True, eq=False)
class EstimateReport:
    """Estimator output plus the threshold bookkeeping behind it.

    ``value`` is finite always; ``degenerate`` marks runs where the statistic
    carried no information (zero threshold, empty selection) and the value is
    a hard 0.0 placeholder.
    """

    estimator_id: str
    value: float
    p: PExponent
    b: int
    k: int
    m: int
    threshold: float
    selected_blocks: int
    alpha_used: Optional[float]
    degenerate: bool = False
    extras: dict = field(default_factory=dict)


def _degenerate(estimator_id, pe, frame, k, threshold, alpha_used, **extras):
    return EstimateReport(
        estimator_id=estimator_id, value=0.0, p=pe, b=frame.b, k=k, m=frame.m,
        threshold=threshold, selected_blocks=0, alpha_used=alpha_used,
        degenerate=True, extras=dict(extras),
    )


@dataclass(frozen=True)
class ClusterFunctional:
    """Block functional g that vanishes on blocks with p-modulus <= c_g.

    ``fn`` receives the threshold-normalized block values and must return 0
    on blocks inside its vanishing radius; the estimator only evaluates it on
    blocks whose cached norm exceeds vanish_radius * threshold.
    """

    fn: Callable[[np.ndarray], float]
    vanish_radius: float

    def __post_init__(self):
        if not self.vanish_radius > 0:
            raise ValueError("vanish_radius c_g must be positive")


def extremal_index_kernel(alpha: float) -> ClusterFunctional:
    """g(x) = (||x||_inf^a / ||x||_a^a) 1(||x||_a > 1); mean under threshold
    selection estimates c(inf) = theta."""
    pe = PExponent(alpha)

    def fn(x: np.ndarray) -> float:
        na = p_modulus(x, pe)
        if not na > 1.0:
            return 0.0
        return (float(np.max(np.abs(x))) / na) ** alpha

    return ClusterFunctional(fn=fn, vanish_radius=1.0)


def cluster_index_kernel(alpha: float) -> ClusterFunctional:
    """g(x) = (||x||_a^a / ||x||_1^a) 1(||x||_1 > 1); mean estimates 1/c(1)."""
    pe = PExponent(alpha)

    def fn(x: np.ndarray) -> float:
        n1 = float(np.sum(np.abs(x)))
        if not n1 > 1.0:
            return 0.0
        return (p_modulus(x, pe) / n1) ** alpha

    return ClusterFunctional(fn=fn, vanish_radius=1.0)


def cluster_functional_estimate(frame: BlockFrame, p, k: int, g: ClusterFunctional,
                                alpha_used: Optional[float] = None,
                                estimator_id: str = "cluster_functional") -> EstimateReport:
    """(1/k) sum_t g(B_t / ||B||_{p,(k)}) over blocks above the threshold.

    Blocks with cached norm <= vanish_radius * threshold are skipped, which
    is exact by the vanishing contract; the contract itself is probed at the
    zero block before any evaluation.
    """
    pe = as_p(p)
    probe = float(g.fn(np.zeros(frame.b)))
    if probe != 0.0:
        raise ValueError(
            f"functional violates its vanishing contract: g(0) = {probe!r}"
        )
    thr = threshold_from_order_stat(frame, pe, k)
    if not thr > 0:
        return _degenerate(estimator_id, pe, frame, k, thr, alpha_used)
    norms = frame.norms(pe)
    selected = np.flatnonzero(norms > g.vanish_radius * thr)
    total = 0.0
    for x in _over_threshold(frame, selected, thr):
        total += float(g.fn(x))
    return EstimateReport(
        estimator_id=estimator_id, value=total / k, p=pe, b=frame.b, k=k,
        m=frame.m, threshold=thr, selected_blocks=int(selected.size),
        alpha_used=alpha_used,
    )


def _selected_rows(frame: BlockFrame, pe: PExponent, k: int):
    """(threshold, indices of blocks with norm > threshold); indices is None
    when the threshold is not positive."""
    thr = threshold_from_order_stat(frame, pe, k)
    if not thr > 0:
        return thr, None
    return thr, np.flatnonzero(frame.norms(pe) > thr)


def _over_threshold(frame: BlockFrame, selected: np.ndarray, thr: float) -> np.ndarray:
    """The selected blocks divided by the threshold; raises instead of
    returning inf when a ratio overflows the float range (only a threshold
    below 1 can make a finite entry overflow)."""
    rows = frame.matrix[selected]
    if thr < 1.0 and rows.size and math.isinf(float(np.abs(rows).max()) / thr):
        raise ValueError(f"a selected block exceeds the threshold {thr!r} by more "
                         "than the float range; the normalized block overflows")
    return rows / thr


def _pow_sum(ratios: np.ndarray, alpha: float) -> float:
    """Left-to-right sum of r ** alpha over Python floats: libm pow per term
    and sequential addition, the arithmetic of the per-block kernels."""
    total = 0.0
    for r in ratios.tolist():
        total += r ** alpha
    return total


def extremal_index_alpha_blocks(frame: BlockFrame, alpha: float, k: int) -> EstimateReport:
    """Extremal index via large l^alpha-blocks.

    (1/k) sum_t (||B_t||_inf^a / ||B_t||_a^a) 1(||B_t||_a > ||B||_{a,(k)}),
    consistent for c(inf) = theta_|X|. Equal (==) to cluster_functional_estimate
    with extremal_index_kernel(alpha).
    """
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    pe = PExponent(alpha)
    thr, selected = _selected_rows(frame, pe, k)
    if selected is None:
        return _degenerate("extremal_index_alpha", pe, frame, k, thr, alpha)
    # norms of the normalized rows, as the kernel sees them; the cached
    # norms divided by thr can differ in the last ulp
    x = _over_threshold(frame, selected, thr)
    na = row_p_moduli(x, pe)
    keep = na > 1.0
    ratios = np.abs(x[keep]).max(axis=1) / na[keep]
    return EstimateReport(
        estimator_id="extremal_index_alpha", value=_pow_sum(ratios, alpha) / k,
        p=pe, b=frame.b, k=k, m=frame.m, threshold=thr,
        selected_blocks=int(selected.size), alpha_used=alpha,
    )


def extremal_index_infty_blocks(frame: BlockFrame, k_prime: int) -> EstimateReport:
    """Classical blocks estimator: inverse mean number of point exceedances
    (comparator >=) of the k'-th largest block maximum."""
    thr = threshold_from_order_stat(frame, INF, k_prime)
    if not thr > 0:
        return _degenerate("extremal_index_infty", INF, frame, k_prime, thr, None)
    count = int(np.sum(np.abs(frame.values) >= thr))
    blocks_at = int(np.sum(frame.norms(INF) >= thr))
    if count == 0:
        return _degenerate("extremal_index_infty", INF, frame, k_prime, thr, None,
                           point_exceedances=0)
    return EstimateReport(
        estimator_id="extremal_index_infty", value=k_prime / count, p=INF,
        b=frame.b, k=k_prime, m=frame.m, threshold=thr,
        selected_blocks=blocks_at, alpha_used=None,
        extras={"point_exceedances": count},
    )


def cluster_index_c1(frame: BlockFrame, alpha: float, k: int) -> EstimateReport:
    """Cluster index c(1) via large l^1-blocks.

    Inverts the threshold mean of ||B_t||_a^a / ||B_t||_1^a; the un-inverted
    mean (the 1/c(1) scale) is kept in extras["mean"] and equals (==)
    cluster_functional_estimate with cluster_index_kernel(alpha).
    """
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    pe = PExponent(1.0)
    thr, selected = _selected_rows(frame, pe, k)
    mean = 0.0
    if selected is not None:
        x = _over_threshold(frame, selected, thr)
        n1 = np.abs(x).sum(axis=1)
        keep = n1 > 1.0
        mean = _pow_sum(row_p_moduli(x[keep], PExponent(alpha)) / n1[keep], alpha) / k
    if not mean > 0:
        return _degenerate("cluster_index_c1", pe, frame, k, thr, alpha, mean=0.0)
    return EstimateReport(
        estimator_id="cluster_index_c1", value=1.0 / mean, p=pe,
        b=frame.b, k=k, m=frame.m, threshold=thr,
        selected_blocks=int(selected.size), alpha_used=alpha,
        extras={"mean": mean},
    )


def cluster_index_c1_infty(frame: BlockFrame, k_prime: int) -> EstimateReport:
    """c(1) competitor thresholding on block maxima: count of blocks whose
    l^1 norm exceeds ||B||_{inf,(k')} over the count of point exceedances."""
    thr = threshold_from_order_stat(frame, INF, k_prime)
    if not thr > 0:
        return _degenerate("cluster_index_c1_infty", INF, frame, k_prime, thr, None)
    numerator = int(np.sum(frame.norms(1) > thr))
    denominator = int(np.sum(np.abs(frame.values) > thr))
    if denominator == 0:
        return _degenerate("cluster_index_c1_infty", INF, frame, k_prime, thr, None,
                           numerator=numerator, denominator=0)
    return EstimateReport(
        estimator_id="cluster_index_c1_infty", value=numerator / denominator,
        p=INF, b=frame.b, k=k_prime, m=frame.m, threshold=thr,
        selected_blocks=numerator, alpha_used=None,
        extras={"numerator": numerator, "denominator": denominator},
    )


def psi_functional_estimate(frame: BlockFrame, p, alpha: float, k: int, g,
                            estimator_id: str = "psi_functional") -> EstimateReport:
    """Shift-projection estimator for a functional g on normalized blocks.

    Per selected block, g is averaged over all shifts j with weights
    W_{j,t} = |X_{(t-1)b+j}|^a / ||B_t||_p^a, g seeing the block normalized
    by its p-norm with entry j placed at the origin. Requires p <= alpha;
    shifts with zero origin coordinate carry zero weight and are skipped.
    """
    pe = as_p(p)
    if pe.is_inf or pe.value > alpha:
        raise ValueError(f"requires p <= alpha, got p={pe} and alpha={alpha}")
    thr, selected = _selected_rows(frame, pe, k)
    if selected is None:
        return _degenerate(estimator_id, pe, frame, k, thr, alpha)
    norms = frame.norms(pe)
    total = 0.0
    for t in selected:
        x = frame.matrix[t]
        scaled = x / norms[t]
        weights = np.abs(scaled) ** alpha
        for j in np.flatnonzero(weights):
            total += weights[j] * float(g(SpectralDraw(values=scaled, origin=int(j))))
    return EstimateReport(
        estimator_id=estimator_id, value=total / k, p=pe, b=frame.b, k=k,
        m=frame.m, threshold=thr, selected_blocks=int(selected.size),
        alpha_used=alpha,
    )


def serial_dependence_estimate(frame: BlockFrame, alpha: float, k: int, h: int) -> EstimateReport:
    """Extremal serial dependence at lag h.

    (1/k) sum_t sum_j W_{j,t} W_{j+h,t} sign(X_{j,t}) sign(X_{j+h,t}) over
    blocks with ||B_t||_a above the threshold; consistent for E[g_h(Q^(a))].
    """
    if not 0 <= h < frame.b:
        raise ValueError(f"lag h must satisfy 0 <= h < b={frame.b}")
    pe = PExponent(alpha)
    thr, selected = _selected_rows(frame, pe, k)
    if selected is None:
        return _degenerate("serial_dependence", pe, frame, k, thr, alpha, h=h)
    scaled = frame.matrix[selected] / frame.norms(pe)[selected, None]
    signed = np.sign(scaled) * np.abs(scaled) ** alpha
    total = 0.0
    # one ddot per row; a batched row sum (einsum) adds in another order
    for row in signed:
        total += float(np.dot(row[: frame.b - h], row[h:]))
    return EstimateReport(
        estimator_id="serial_dependence", value=total / k, p=pe, b=frame.b,
        k=k, m=frame.m, threshold=thr, selected_blocks=int(selected.size),
        alpha_used=alpha, extras={"h": h},
    )


def supwalk_constant_estimate(frame: BlockFrame, alpha: float, k: int) -> EstimateReport:
    """Random-walk supremum constant c(1) E[(sup partial sums of Q^(1))_+^a].

    Numerator terms are the within-block running maxima of cumulative sums
    (clamped at zero, matching the empty prefix), normalized by the block
    l^1 norm; the denominator is the 1/c(1) mean over the same selection.
    """
    if not alpha >= 1:
        raise ValueError(f"requires alpha >= 1, got {alpha!r}")
    pe = PExponent(1.0)
    thr, selected = _selected_rows(frame, pe, k)
    if selected is None:
        return _degenerate("supwalk_constant", pe, frame, k, thr, alpha)
    n1 = frame.norms(pe)[selected]
    sup = np.maximum(np.cumsum(frame.matrix[selected], axis=1).max(axis=1), 0.0)
    num = _pow_sum(sup / n1, alpha)
    den = _pow_sum(frame.norms(alpha)[selected] / n1, alpha)
    if den == 0.0:
        return _degenerate("supwalk_constant", pe, frame, k, thr, alpha)
    return EstimateReport(
        estimator_id="supwalk_constant", value=num / den, p=pe, b=frame.b,
        k=k, m=frame.m, threshold=thr, selected_blocks=int(selected.size),
        alpha_used=alpha,
    )


def _signed_sum_kernel(alpha: float, sign: float) -> ClusterFunctional:
    def fn(x: np.ndarray) -> float:
        n1 = float(np.sum(np.abs(x)))
        if not n1 > 1.0:
            return 0.0
        s = max(sign * float(np.sum(x)), 0.0)
        return (s / n1) ** alpha

    return ClusterFunctional(fn=fn, vanish_radius=1.0)


def stable_scale_skew(frame: BlockFrame, alpha: float, k: int) -> tuple[float, float]:
    """Scale sigma and skewness beta of the alpha-stable partial-sum limit.

    sigma = c(1) E[|sum_t Q^(1)_t|^a], beta the normalized difference of the
    positive and negative parts; alpha must avoid 1 and lie in (0, 2).
    """
    if not (0 < alpha < 2) or alpha == 1:
        raise ValueError("requires alpha in (0,1) or (1,2)")
    plus = cluster_functional_estimate(
        frame, PExponent(1.0), k, _signed_sum_kernel(alpha, 1.0),
        alpha_used=alpha, estimator_id="stable_sum_pos")
    minus = cluster_functional_estimate(
        frame, PExponent(1.0), k, _signed_sum_kernel(alpha, -1.0),
        alpha_used=alpha, estimator_id="stable_sum_neg")
    c1 = cluster_index_c1(frame, alpha, k)
    abs_moment = plus.value + minus.value
    if c1.degenerate or abs_moment == 0.0:
        return 0.0, 0.0
    sigma = c1.value * abs_moment
    beta = (plus.value - minus.value) / abs_moment
    return sigma, beta


def theta_functional_estimate(frame: BlockFrame, alpha: float, k: int, rho,
                              ) -> EstimateReport:
    """Tail-process functional estimator for P(rho(Y Theta) > 1).

    rho is a homogeneous continuous functional of a SpectralDraw; the
    estimator applies the psi machinery at p = alpha to
    (rho^a and 1-capped) of the origin-renormalized block x / |x_0|.
    """

    def capped(draw: SpectralDraw) -> float:
        x0 = abs(draw.values[draw.origin])
        r = float(rho(SpectralDraw(values=draw.values / x0, origin=draw.origin)))
        if r <= 0.0:
            return 0.0
        if r >= 1.0:
            # r^alpha >= 1 is capped anyway; shortcut avoids float overflow
            return 1.0
        return r ** alpha

    return psi_functional_estimate(frame, PExponent(alpha), alpha, k, capped,
                                   estimator_id="theta_functional")


def hill_alpha(series, k_tail: int, bias_corrected: bool = False) -> float:
    """Hill estimator of the tail index over the top k_tail order statistics.

    With bias_corrected=True, extrapolates the Hill plot from floor(k/2) and
    k to k = 0, which removes the bias exactly when it is linear in k/n
    (second-order parameter -1); simplified relative to full reduced-bias
    procedures.
    """
    x = np.sort(np.abs(as_series(series)))[::-1]
    n = len(x)
    if not 2 <= k_tail < n:
        raise ValueError(f"k_tail must satisfy 2 <= k_tail < n={n}")
    if not x[k_tail] > 0:
        raise ValueError(f"the threshold order statistic |x|_({k_tail + 1}) is 0: "
                         f"fewer than {k_tail + 1} nonzero observations")

    def gamma(k: int) -> float:
        return float(np.mean(np.log(x[:k] / x[k])))

    g = gamma(k_tail)
    if bias_corrected:
        g = 2.0 * gamma(max(k_tail // 2, 1)) - g
    if not g > 0:
        raise ValueError(f"tail index estimate is not positive (Hill gamma = {g!r}): "
                         f"the top {k_tail + 1} order statistics are tied or the "
                         "data are too light-tailed")
    return 1.0 / g
