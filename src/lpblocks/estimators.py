"""Cluster-inference estimators on extremal l^p-blocks.

Every estimator is a ratio statistic against an empirical order-statistic
threshold, so all of them are invariant under positive rescaling of the
series. Selection comparators are strict (norm > threshold) except for
extremal_index_infty_blocks, whose point-level comparator is >= by
definition of that classical estimator.

The built-in estimators are written over a block stack (blocks._BlockStack:
the frames of many replications at one (n, b); a BlockFrame is the one-frame
stack) and its cached norm vectors and thresholds: each selects, in every
frame at once, the blocks whose p-norm exceeds that frame's k-th largest
one, and computes every per-block term on those rows together. Each is a
private fn(stack, alpha, k) (the l^inf-thresholded ones ignore alpha)
returning its report id, alpha_used and per-frame values (_Stacked); the
experiment's estimator table runs them on its grid-point stacks, and each
public per-frame function is the one-frame case, _frame_report(frame, k,
fn(frame, alpha, k)). The extremal index averages (||B||_inf / ||B||_a)^a
and c(1) inverts the average of (||B||_a / ||B||_1)^a, both on the
threshold-normalized rows the kernels see (where those overflow the float
range in a frame, on each of that frame's rows over its own max instead, as
the terms are scale-free); serial dependence takes the lag products of all
signed-power rows in one batched product and the sup-walk numerator a
row-wise cumsum maximum. The two l^inf-thresholded estimators count point
exceedances only in the blocks whose max reaches the threshold, which hold
all of them. Wherever the normalized blocks are finite, each result equals
(==) the per-block loop over the kernels (on an overflowing block that loop
raises): the final power is taken per term on Python floats (libm pow;
numpy's power can differ by an ulp under AVX-512 (X86_V4) dispatch) and each
frame's terms are summed left to right (not pairwise, as np.sum does). The
generic ClusterFunctional loop remains for user-supplied functionals
(cluster_functional_estimate).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .blocks import BlockFrame, _BlockStack, threshold_from_order_stat
from .seqcore import INF, PExponent, as_p, as_series, p_modulus, row_p_moduli

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
    "serial_dependence_estimate",
    "supwalk_constant_estimate",
    "stable_scale_skew",
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
        return EstimateReport(
            estimator_id=estimator_id, value=0.0, p=pe, b=frame.b, k=k, m=frame.m,
            threshold=thr, selected_blocks=0, alpha_used=alpha_used, degenerate=True,
        )
    norms = frame.norms(pe)
    selected = np.flatnonzero(norms > g.vanish_radius * thr)
    rows = frame.matrix[selected]
    if _overflowing(rows, thr)[0].any():
        raise ValueError(f"a selected block exceeds the threshold {thr!r} by more "
                         "than the float range; the normalized block overflows")
    total = 0.0
    for x in rows / thr:
        total += float(g.fn(x))
    return EstimateReport(
        estimator_id=estimator_id, value=total / k, p=pe, b=frame.b, k=k,
        m=frame.m, threshold=thr, selected_blocks=int(selected.size),
        alpha_used=alpha_used,
    )


class _Stacked(NamedTuple):
    """A built-in estimator over a block stack, one entry per frame.

    ``estimator_id`` and ``alpha_used`` are the reports'; ``value`` is 0.0
    where ``degenerate``; ``extras`` maps each report extra to its per-frame
    values, None where that frame's report omits it.
    """

    estimator_id: str
    p: PExponent
    alpha_used: Optional[float]
    threshold: np.ndarray
    value: list
    degenerate: list
    selected: list
    extras: dict


def _frame_report(frame: BlockFrame, k: int, out: _Stacked) -> EstimateReport:
    """The EstimateReport of a one-frame stack's result."""
    return EstimateReport(
        estimator_id=out.estimator_id, value=out.value[0], p=out.p, b=frame.b,
        k=k, m=frame.m, threshold=float(out.threshold[0]),
        selected_blocks=out.selected[0], alpha_used=out.alpha_used,
        degenerate=out.degenerate[0],
        extras={name: got[0] for name, got in out.extras.items() if got[0] is not None},
    )


def _selected_rows(stack: _BlockStack, pe: PExponent, k: int):
    """(thr, live, rows, owner, counts): per frame the k-th largest block
    p-norm and whether it is positive; the flat indices of the blocks of live
    frames whose norm exceeds their frame's threshold, frame by frame, and
    each one's frame; and the number of those blocks per frame."""
    thr = stack.thresholds(pe, k)
    live = thr > 0
    above = stack.norms(pe).reshape(stack.reps, stack.m) > thr[:, None]
    above &= live[:, None]
    rows = np.flatnonzero(above)
    owner = rows // stack.m
    return thr, live, rows, owner, np.bincount(owner, minlength=stack.reps).tolist()


def _overflowing(rows: np.ndarray, thr: np.ndarray):
    """(flags, top): per row, whether the row over its threshold overflows
    the float range, and the row's max |entry| (only a threshold below 1 can
    make a finite entry overflow)."""
    top = np.abs(rows).max(axis=1)
    with np.errstate(over="ignore"):
        return (thr < 1.0) & np.isinf(top / thr), top


def _scale_free_rows(rows: np.ndarray, thr: np.ndarray, owner: np.ndarray):
    """(x, limit) for terms that are scale-free per block: a selected block's
    norm over its frame's threshold thr exceeds 1 exactly when the norm of
    its row of x exceeds limit (``owner`` gives each row's frame).

    x is the blocks divided by thr and limit 1.0, unless that quotient
    overflows the float range in a frame; then each row of that frame is the
    block over its own max, and limit is thr over that max, per row.
    """
    if not (thr < 1.0).any():
        return rows / thr[:, None], 1.0
    flags, top = _overflowing(rows, thr)
    if not flags.any():
        return rows / thr[:, None], 1.0
    own = np.isin(owner, owner[flags])
    scale = np.where(own, top, thr)
    return rows / scale[:, None], np.where(own, thr / top, 1.0)


def _pow_sums(terms: np.ndarray, alpha: float, owner: np.ndarray, reps: int) -> list:
    """Per frame, the left-to-right sum of t ** alpha over its terms as
    Python floats (owner gives each term's frame, a frame's terms in order):
    libm pow per term (numpy's array power can differ from it by an ulp
    under AVX-512 (X86_V4) dispatch) and sequential addition, the arithmetic
    of the per-block kernels."""
    totals = [0.0] * reps
    for r, t in zip(owner.tolist(), terms.tolist()):
        totals[r] += t ** alpha
    return totals


def _extremal_index_alpha(stack: _BlockStack, alpha: float, k: int) -> _Stacked:
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    pe = PExponent(alpha)
    thr, live, rows, owner, selected = _selected_rows(stack, pe, k)
    # norms of the normalized rows, as the kernel sees them; the cached
    # norms divided by thr can differ in the last ulp
    x, limit = _scale_free_rows(stack.matrix[rows], thr[owner], owner)
    na = row_p_moduli(x, pe)
    keep = na > limit
    ratios = np.abs(x[keep]).max(axis=1) / na[keep]
    totals = _pow_sums(ratios, alpha, owner[keep], stack.reps)
    return _Stacked("extremal_index_alpha", pe, alpha, thr, [t / k for t in totals],
                    (~live).tolist(), selected, {})


def extremal_index_alpha_blocks(frame: BlockFrame, alpha: float, k: int) -> EstimateReport:
    """Extremal index via large l^alpha-blocks.

    (1/k) sum_t (||B_t||_inf^a / ||B_t||_a^a) 1(||B_t||_a > ||B||_{a,(k)}),
    consistent for c(inf) = theta_|X|. Equal (==) to cluster_functional_estimate
    with extremal_index_kernel(alpha) wherever the normalized blocks are
    finite; on an overflowing block that generic functional raises and this
    estimator rescales each selected row by its own max.
    """
    return _frame_report(frame, k, _extremal_index_alpha(frame, alpha, k))


def _point_counts(stack: _BlockStack, thr: np.ndarray, blocks: np.ndarray, above) -> list:
    """Per frame, the entries of the given blocks (flat indices) that
    ``above(|entry|, thr)`` says pass their frame's threshold."""
    owner = blocks // stack.m
    hits = above(np.abs(stack.matrix[blocks]), thr[owner][:, None]).sum(axis=1)
    return [int(c) for c in np.bincount(owner, hits, minlength=stack.reps)]


def _extremal_index_infty(stack: _BlockStack, alpha, k_prime: int) -> _Stacked:
    thr = stack.thresholds(INF, k_prime)
    live = thr > 0
    # every point >= thr lies in a block whose max is >= thr, so only those
    # blocks are counted
    at = stack.norms(INF).reshape(stack.reps, stack.m) >= thr[:, None]
    at &= live[:, None]
    count = _point_counts(stack, thr, np.flatnonzero(at), np.greater_equal)
    blocks_at = at.sum(axis=1).tolist()
    return _Stacked("extremal_index_infty", INF, None, thr,
                    [k_prime / c if c else 0.0 for c in count], [not c for c in count],
                    [a if c else 0 for a, c in zip(blocks_at, count)],
                    {"point_exceedances": [c if lv else None
                                           for c, lv in zip(count, live.tolist())]})


def extremal_index_infty_blocks(frame: BlockFrame, k_prime: int) -> EstimateReport:
    """Classical blocks estimator: inverse mean number of point exceedances
    (comparator >=) of the k'-th largest block maximum."""
    return _frame_report(frame, k_prime, _extremal_index_infty(frame, None, k_prime))


def _cluster_index_c1(stack: _BlockStack, alpha: float, k: int) -> _Stacked:
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    pe = PExponent(1.0)
    thr, live, rows, owner, selected = _selected_rows(stack, pe, k)
    x, limit = _scale_free_rows(stack.matrix[rows], thr[owner], owner)
    n1 = np.abs(x).sum(axis=1)
    keep = n1 > limit
    totals = _pow_sums(row_p_moduli(x[keep], PExponent(alpha)) / n1[keep], alpha,
                       owner[keep], stack.reps)
    mean = [t / k for t in totals]
    return _Stacked("cluster_index_c1", pe, alpha, thr,
                    [1.0 / u if u else 0.0 for u in mean], [not u for u in mean],
                    [c if u else 0 for c, u in zip(selected, mean)], {"mean": mean})


def cluster_index_c1(frame: BlockFrame, alpha: float, k: int) -> EstimateReport:
    """Cluster index c(1) via large l^1-blocks.

    Inverts the threshold mean of ||B_t||_a^a / ||B_t||_1^a; the un-inverted
    mean (the 1/c(1) scale) is kept in extras["mean"] and equals (==)
    cluster_functional_estimate with cluster_index_kernel(alpha) wherever the
    normalized blocks are finite; on an overflowing block that generic
    functional raises and this estimator rescales each selected row by its
    own max.
    """
    return _frame_report(frame, k, _cluster_index_c1(frame, alpha, k))


def _cluster_index_c1_infty(stack: _BlockStack, alpha, k_prime: int) -> _Stacked:
    thr = stack.thresholds(INF, k_prime)
    live = thr > 0
    numerator = np.sum(stack.norms(1).reshape(stack.reps, stack.m) > thr[:, None],
                       axis=1).tolist()
    # every point > thr lies in a block whose max is > thr
    over = stack.norms(INF).reshape(stack.reps, stack.m) > thr[:, None]
    over &= live[:, None]
    denominator = _point_counts(stack, thr, np.flatnonzero(over), np.greater)
    live = live.tolist()
    return _Stacked("cluster_index_c1_infty", INF, None, thr,
                    [u / d if d else 0.0 for u, d in zip(numerator, denominator)],
                    [not d for d in denominator],
                    [u if d else 0 for u, d in zip(numerator, denominator)],
                    {"numerator": [u if lv else None for u, lv in zip(numerator, live)],
                     "denominator": [d if lv else None
                                     for d, lv in zip(denominator, live)]})


def cluster_index_c1_infty(frame: BlockFrame, k_prime: int) -> EstimateReport:
    """c(1) competitor thresholding on block maxima: count of blocks whose
    l^1 norm exceeds ||B||_{inf,(k')} over the count of point exceedances."""
    return _frame_report(frame, k_prime, _cluster_index_c1_infty(frame, None, k_prime))


def _serial_dependence(stack: _BlockStack, alpha: float, k: int, h: int) -> _Stacked:
    if not 0 <= h < stack.b:
        raise ValueError(f"lag h must satisfy 0 <= h < b={stack.b}")
    pe = PExponent(alpha)
    thr, live, rows, owner, selected = _selected_rows(stack, pe, k)
    scaled = stack.matrix[rows] / stack.norms(pe)[rows, None]
    signed = np.sign(scaled) * np.abs(scaled) ** alpha
    # a batched 1 x L by L x 1 product is np.dot's ddot on each row, summed
    # per frame in row order; a batched row sum (einsum) adds in another order
    dots = np.matmul(signed[:, None, : stack.b - h], signed[:, h:, None]).ravel()
    totals = np.bincount(owner, dots, minlength=stack.reps).tolist()
    return _Stacked("serial_dependence", pe, alpha, thr, [t / k for t in totals],
                    (~live).tolist(), selected, {"h": [h] * stack.reps})


def serial_dependence_estimate(frame: BlockFrame, alpha: float, k: int, h: int) -> EstimateReport:
    """Extremal serial dependence at lag h.

    (1/k) sum_t sum_j W_{j,t} W_{j+h,t} sign(X_{j,t}) sign(X_{j+h,t}) over
    blocks with ||B_t||_a above the threshold; consistent for E[g_h(Q^(a))].
    """
    return _frame_report(frame, k, _serial_dependence(frame, alpha, k, h))


def _supwalk_constant(stack: _BlockStack, alpha: float, k: int) -> _Stacked:
    if not alpha >= 1:
        raise ValueError(f"requires alpha >= 1, got {alpha!r}")
    pe = PExponent(1.0)
    thr, live, rows, owner, selected = _selected_rows(stack, pe, k)
    n1 = stack.norms(pe)[rows]
    sup = np.maximum(np.cumsum(stack.matrix[rows], axis=1).max(axis=1), 0.0)
    num = _pow_sums(sup / n1, alpha, owner, stack.reps)
    den = _pow_sums(stack.norms(alpha)[rows] / n1, alpha, owner, stack.reps)
    return _Stacked("supwalk_constant", pe, alpha, thr,
                    [u / d if d else 0.0 for u, d in zip(num, den)], [not d for d in den],
                    [c if d else 0 for c, d in zip(selected, den)], {})


def supwalk_constant_estimate(frame: BlockFrame, alpha: float, k: int) -> EstimateReport:
    """Random-walk supremum constant c(1) E[(sup partial sums of Q^(1))_+^a].

    Numerator terms are the within-block running maxima of cumulative sums
    (clamped at zero, matching the empty prefix), normalized by the block
    l^1 norm; the denominator is the 1/c(1) mean over the same selection.
    """
    return _frame_report(frame, k, _supwalk_constant(frame, alpha, k))


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


def hill_alpha(series, k_tail: int) -> float:
    """Hill estimator of the tail index over the top k_tail order statistics."""
    x = np.sort(np.abs(as_series(series)))[::-1]
    n = len(x)
    if not 2 <= k_tail < n:
        raise ValueError(f"k_tail must satisfy 2 <= k_tail < n={n}")
    if not x[k_tail] > 0:
        raise ValueError(f"the threshold order statistic |x|_({k_tail + 1}) is 0: "
                         f"fewer than {k_tail + 1} nonzero observations")
    with np.errstate(over="ignore"):
        g = float(np.mean(np.log(x[:k_tail] / x[k_tail])))
    if g == np.inf:
        raise ValueError(f"Hill gamma overflows: a top order statistic over |x|_({k_tail + 1})"
                         " exceeds the float range")
    if not g > 0:
        raise ValueError(f"tail index estimate is not positive (Hill gamma = {g!r}): "
                         f"the top {k_tail + 1} order statistics are tied or the "
                         "data are too light-tailed")
    return 1.0 / g
