import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lpblocks.blocks import BlockFrame, threshold_from_order_stat
from lpblocks.estimators import (
    ClusterFunctional,
    cluster_functional_estimate,
    cluster_index_c1,
    cluster_index_c1_infty,
    cluster_index_kernel,
    extremal_index_alpha_blocks,
    extremal_index_infty_blocks,
    extremal_index_kernel,
    hill_alpha,
    serial_dependence_estimate,
    stable_scale_skew,
    supwalk_constant_estimate,
)
from lpblocks.models import (
    AR1ModelSpec,
    LinearModelSpec,
    NoiseSpec,
    SeedSpec,
    simulate,
)
from lpblocks.seqcore import PExponent, p_modulus

IID_PARETO2 = LinearModelSpec(coeffs=(1.0,), noise=NoiseSpec(law="pareto", alpha=2.0))
IID_PARETO08 = LinearModelSpec(coeffs=(1.0,), noise=NoiseSpec(law="pareto", alpha=0.8))
IID_STUDENT13 = LinearModelSpec(coeffs=(1.0,), noise=NoiseSpec(law="student", alpha=1.3))
AR1_STUDENT = AR1ModelSpec(phi=0.8, noise=NoiseSpec(law="student", alpha=1.3), burn_in=300)
AR1_PARETO = AR1ModelSpec(phi=0.8, noise=NoiseSpec(law="pareto", alpha=1.3), burn_in=300)

THETA_08_13 = 0.25180124174190294
C1_08_13 = 2.040416717420179
G1_08_13 = 0.10776656573469802


def frames(model, n, b, reps, seed0):
    for r in range(reps):
        yield BlockFrame(simulate(model, n, SeedSpec(master_seed=seed0, stream_id=r)), b)


def median_of(model, n, b, k, fn, reps=11, seed0=1):
    return float(np.median([fn(f, k) for f in frames(model, n, b, reps, seed0)]))


# --- extremal index -------------------------------------------------------

def test_extremal_index_alpha_iid_deep_threshold():
    # per-selected-block mean is the clean limit; the raw value carries the
    # (k-1)/k factor from strict selection against the k-th order statistic
    def normalized(f, k):
        r = extremal_index_alpha_blocks(f, 2.0, k)
        return r.value * r.k / r.selected_blocks

    med = median_of(IID_PARETO2, 32_000, 10, 15, normalized)
    assert abs(med - 1.0) <= 0.06
    raw = median_of(IID_PARETO2, 32_000, 10, 15,
                    lambda f, k: extremal_index_alpha_blocks(f, 2.0, k).value)
    assert 0.85 <= raw <= 1.0


def test_extremal_index_alpha_ar1_near_oracle():
    med = median_of(AR1_STUDENT, 8_000, 20, 20,
                    lambda f, k: extremal_index_alpha_blocks(f, 1.3, k).value)
    assert abs(med - THETA_08_13) <= 0.05


def test_extremal_index_infty_iid():
    med = median_of(IID_PARETO2, 8_000, 40, 15,
                    lambda f, k: extremal_index_infty_blocks(f, k).value)
    assert abs(med - 1.0) <= 0.1


def test_extremal_index_infty_inclusive_comparator():
    # threshold is the 2nd largest block maximum (= 3); the >= comparator
    # counts the threshold point itself, giving 2 point exceedances
    x = np.zeros(20)
    x[0], x[5], x[10], x[15] = 4.0, 3.0, 2.0, 1.0
    report = extremal_index_infty_blocks(BlockFrame(x, 5), 2)
    assert report.threshold == 3.0
    assert report.extras["point_exceedances"] == 2
    assert report.value == 1.0
    assert report.selected_blocks == 2


def test_extremal_index_matches_generic_kernel():
    f = BlockFrame(simulate(AR1_STUDENT, 4_000, SeedSpec(master_seed=3)), 40)
    named = extremal_index_alpha_blocks(f, 1.3, 8)
    generic = cluster_functional_estimate(f, PExponent(1.3), 8, extremal_index_kernel(1.3))
    assert generic.value == named.value
    assert generic.selected_blocks == named.selected_blocks
    assert generic.threshold == named.threshold


def test_extremal_index_alpha_validation():
    f = BlockFrame(np.arange(1.0, 41.0), 10)
    with pytest.raises(ValueError):
        extremal_index_alpha_blocks(f, 0.0, 2)


# --- cluster index c(1) ---------------------------------------------------

def test_cluster_index_c1_iid():
    med = median_of(IID_PARETO08, 8_000, 10, 40,
                    lambda f, k: cluster_index_c1(f, 0.8, k).value)
    assert abs(med - 1.0) <= 0.1


def test_cluster_index_c1_ar1_near_oracle():
    med = median_of(AR1_STUDENT, 8_000, 20, 20,
                    lambda f, k: cluster_index_c1(f, 1.3, k).extras["mean"])
    assert abs(med - 1.0 / C1_08_13) <= 0.05


def test_cluster_index_matches_generic_kernel():
    f = BlockFrame(simulate(AR1_STUDENT, 4_000, SeedSpec(master_seed=3)), 40)
    named = cluster_index_c1(f, 1.3, 8)
    generic = cluster_functional_estimate(f, PExponent(1.0), 8, cluster_index_kernel(1.3))
    assert generic.value == named.extras["mean"]
    assert named.value == 1.0 / generic.value
    assert named.value * named.extras["mean"] == pytest.approx(1.0, rel=1e-12)


def test_cluster_index_c1_mean_bounded_for_alpha_above_one():
    for f in frames(AR1_STUDENT, 2_000, 20, 5, seed0=11):
        mean = cluster_index_c1(f, 1.3, 6).extras["mean"]
        assert 0.0 < mean <= 1.0


def test_cluster_index_c1_infty_iid_discretization():
    # at a far threshold the block holding the k'-th point is promoted by its
    # own background, so the count ratio sits at k'/(k'-1) for iid data
    med = median_of(IID_PARETO08, 8_000, 10, 8,
                    lambda f, k: cluster_index_c1_infty(f, k).value)
    assert abs(med - 8.0 / 7.0) <= 0.05


def test_cluster_index_c1_infty_crafted():
    x = np.zeros(20)
    x[0], x[5], x[10], x[15] = 4.0, 3.0, 2.0, 1.0
    report = cluster_index_c1_infty(BlockFrame(x, 5), 2)
    assert report.threshold == 3.0
    assert report.extras == {"numerator": 1, "denominator": 1}
    assert report.value == 1.0


# --- degenerate and edge paths -------------------------------------------

def test_zero_series_degenerate_everywhere():
    f = BlockFrame(np.zeros(400), 20)
    reports = [
        extremal_index_alpha_blocks(f, 1.3, 5),
        extremal_index_infty_blocks(f, 5),
        cluster_index_c1(f, 1.3, 5),
        cluster_index_c1_infty(f, 5),
        serial_dependence_estimate(f, 1.3, 5, 1),
        supwalk_constant_estimate(f, 1.3, 5),
    ]
    for report in reports:
        assert report.degenerate
        assert report.value == 0.0
        assert report.selected_blocks == 0
    assert stable_scale_skew(f, 1.3, 5) == (0.0, 0.0)


def test_tied_norms_select_nothing():
    # positive threshold but all norms equal: strict comparator keeps nothing
    f = BlockFrame(np.ones(200), 10)
    report = extremal_index_alpha_blocks(f, 1.3, 3)
    assert not report.degenerate
    assert report.value == 0.0
    assert report.selected_blocks == 0
    c1 = cluster_index_c1(f, 1.3, 3)
    assert c1.degenerate
    assert c1.extras["mean"] == 0.0


def test_vanishing_contract_probed():
    f = BlockFrame(np.arange(1.0, 41.0), 10)
    bad = ClusterFunctional(fn=lambda x: 1.0, vanish_radius=1.0)
    with pytest.raises(ValueError, match="vanishing contract"):
        cluster_functional_estimate(f, 1.0, 2, bad)
    with pytest.raises(ValueError):
        ClusterFunctional(fn=lambda x: 0.0, vanish_radius=0.0)


# --- serial dependence ----------------------------------------------------

def test_serial_dependence_single_spike_exact():
    x = np.zeros(40)
    x[3], x[27] = 5.0, 3.0
    f = BlockFrame(x, 10)
    at0 = serial_dependence_estimate(f, 1.3, 2, 0)
    assert at0.value == 0.5  # one selected single-spike block, weight 1, /k
    assert at0.selected_blocks == 1
    assert serial_dependence_estimate(f, 1.3, 2, 1).value == 0.0
    assert serial_dependence_estimate(f, 1.3, 2, 5).value == 0.0


def test_serial_dependence_iid_near_zero():
    med = median_of(IID_STUDENT13, 8_000, 20, 20,
                    lambda f, k: serial_dependence_estimate(f, 1.3, k, 1).value)
    assert abs(med) <= 0.03


def test_serial_dependence_ar1_lag_one():
    med = median_of(AR1_STUDENT, 8_000, 20, 20,
                    lambda f, k: serial_dependence_estimate(f, 1.3, k, 1).value)
    assert abs(med - G1_08_13) <= 0.05


def test_serial_dependence_lag_validation():
    f = BlockFrame(np.arange(1.0, 41.0), 10)
    with pytest.raises(ValueError):
        serial_dependence_estimate(f, 1.3, 2, 10)
    with pytest.raises(ValueError):
        serial_dependence_estimate(f, 1.3, 2, -1)


# --- supwalk --------------------------------------------------------------

def test_supwalk_all_positive_matches_cluster_index():
    # positive data: every running-sum supremum equals the block l1 norm, so
    # the statistic collapses to c1_hat * selected / k exactly
    f = BlockFrame(simulate(AR1_PARETO, 4_000, SeedSpec(master_seed=9)), 20)
    sup = supwalk_constant_estimate(f, 1.3, 10)
    c1 = cluster_index_c1(f, 1.3, 10)
    assert sup.value == pytest.approx(c1.value * sup.selected_blocks / 10, rel=1e-12)


def test_supwalk_ar1_student_statistical():
    med = median_of(AR1_STUDENT, 16_000, 80, 10,
                    lambda f, k: supwalk_constant_estimate(f, 1.3, k).value, reps=25)
    assert abs(med - 1.0202083587100896) <= 0.2


def test_supwalk_alpha_validation():
    f = BlockFrame(np.arange(1.0, 41.0), 10)
    with pytest.raises(ValueError):
        supwalk_constant_estimate(f, 0.9, 2)


# --- stable limit parameters ----------------------------------------------

def test_stable_scale_skew_ar1_pareto():
    sigmas, betas = [], []
    for f in frames(AR1_PARETO, 8_000, 20, 11, seed0=1):
        s, b = stable_scale_skew(f, 1.3, 20)
        sigmas.append(s)
        betas.append(b)
    assert abs(np.median(sigmas) - C1_08_13) <= 0.2
    assert betas == [1.0] * 11  # positive noise: negative part identically 0


def test_stable_scale_skew_iid_symmetric():
    sigmas, betas = [], []
    for f in frames(IID_STUDENT13, 8_000, 10, 11, seed0=1):
        s, b = stable_scale_skew(f, 1.3, 40)
        sigmas.append(s)
        betas.append(b)
    assert abs(np.median(sigmas) - 1.0) <= 0.2
    assert abs(np.median(betas)) <= 0.2


def test_stable_scale_skew_alpha_validation():
    f = BlockFrame(np.arange(1.0, 41.0), 10)
    for alpha in (1.0, 2.0, 2.5, 0.0):
        with pytest.raises(ValueError):
            stable_scale_skew(f, alpha, 2)


# --- hill -----------------------------------------------------------------

def test_hill_plugin_deterministic():
    n = 10_000
    for alpha in (0.8, 2.0):
        x = (n / np.arange(1, n + 1)) ** (1.0 / alpha)
        assert hill_alpha(x, 1_000) == pytest.approx(alpha, rel=0.01)


def test_hill_pareto_statistical():
    for alpha, tol in ((2.0, 0.2), (0.8, 0.1)):
        model = LinearModelSpec(coeffs=(1.0,), noise=NoiseSpec(law="pareto", alpha=alpha))
        x = simulate(model, 100_000, SeedSpec(master_seed=17))
        assert abs(hill_alpha(x, 1_000) - alpha) <= tol


def test_hill_validation():
    x = np.arange(1.0, 101.0)
    with pytest.raises(ValueError):
        hill_alpha(x, 1)
    with pytest.raises(ValueError):
        hill_alpha(x, 100)
    with pytest.raises(ValueError):
        hill_alpha(np.ones(100), 10)  # zero log spacings: no positive estimate
    with pytest.raises(ValueError):
        hill_alpha(np.concatenate([np.zeros(90), np.arange(1.0, 11.0)]), 20)


@given(n=st.integers(min_value=4, max_value=200), data=st.data(),
       top=st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=100, deadline=None)
def test_hill_failures_name_their_cause(n, data, top):
    k_tail = data.draw(st.integers(min_value=2, max_value=n - 1), label="k_tail")
    below = data.draw(st.lists(st.floats(min_value=0.0, max_value=top),
                               min_size=n - k_tail - 1, max_size=n - k_tail - 1),
                      label="below")
    signs = data.draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=n, max_size=n),
                      label="signs")
    # tied: the top k_tail + 1 order statistics are equal, so every log
    # spacing is 0
    tied = np.asarray(signs) * np.r_[np.full(k_tail + 1, top), below]
    with pytest.raises(ValueError, match="tied"):
        hill_alpha(tied, k_tail)
    # zero-heavy: at most k_tail nonzero values, so the threshold order
    # statistic is 0
    nonzero = data.draw(st.integers(min_value=0, max_value=k_tail), label="nonzero")
    heavy = np.zeros(n)
    heavy[:nonzero] = top * np.arange(1, nonzero + 1)
    heavy = np.asarray(signs) * heavy
    with pytest.raises(ValueError, match="is 0: fewer than"):
        hill_alpha(heavy, k_tail)


# --- shared invariants ----------------------------------------------------

def all_estimates(x, b, k):
    f = BlockFrame(x, b)
    sigma, beta = stable_scale_skew(f, 1.3, k)
    return {
        "extremal_alpha": extremal_index_alpha_blocks(f, 1.3, k).value,
        "extremal_infty": extremal_index_infty_blocks(f, k).value,
        "c1": cluster_index_c1(f, 1.3, k).value,
        "c1_infty": cluster_index_c1_infty(f, k).value,
        "serial1": serial_dependence_estimate(f, 1.3, k, 1).value,
        "supwalk": supwalk_constant_estimate(f, 1.3, k).value,
        "sigma": sigma,
        "beta": beta,
        "hill": hill_alpha(x, max(2, len(x) // 20)),
    }


@pytest.mark.parametrize("c", [1e-6, 1e6])
def test_scale_invariance_of_every_estimator(c):
    x = simulate(AR1_STUDENT, 2_000, SeedSpec(master_seed=21))
    base = all_estimates(x, 20, 8)
    scaled = all_estimates(c * x, 20, 8)
    for name, value in base.items():
        assert scaled[name] == pytest.approx(value, rel=1e-9), name


@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       b=st.sampled_from([10, 25]), k=st.sampled_from([3, 9]))
@settings(max_examples=25, deadline=None)
def test_estimator_bounds_hold(seed, b, k):
    x = simulate(AR1_STUDENT, 1_000, SeedSpec(master_seed=seed))
    f = BlockFrame(x, b)
    ea = extremal_index_alpha_blocks(f, 1.3, k)
    assert 0.0 < ea.value <= 1.0
    assert ea.selected_blocks <= min(k - 1, f.m)
    mean = cluster_index_c1(f, 1.3, k).extras["mean"]
    assert 0.0 < mean <= 1.0
    ei = extremal_index_infty_blocks(f, k)
    assert 0.0 < ei.value <= 1.0 + 1e-12


# --- vectorized estimators against per-block loops -------------------------

def loop_selection(frame, pe, k):
    thr = threshold_from_order_stat(frame, pe, k)
    if not thr > 0:
        return thr, None
    return thr, np.flatnonzero(frame.norms(pe) > thr)


def loop_extremal_index_alpha(frame, alpha, k):
    pe = PExponent(alpha)
    thr, selected = loop_selection(frame, pe, k)
    if selected is None:
        return 0.0, 0, thr, True, {}
    total = 0.0
    for t in selected:
        x = frame.matrix[t] / thr
        na = p_modulus(x, pe)
        if na > 1.0:
            total += (float(np.max(np.abs(x))) / na) ** alpha
    return total / k, int(selected.size), thr, False, {}


def loop_cluster_index_c1(frame, alpha, k):
    thr, selected = loop_selection(frame, PExponent(1.0), k)
    total = 0.0
    for t in [] if selected is None else selected:
        x = frame.matrix[t] / thr
        n1 = float(np.sum(np.abs(x)))
        if n1 > 1.0:
            total += (p_modulus(x, PExponent(alpha)) / n1) ** alpha
    mean = total / k
    if selected is None or not mean > 0:
        return 0.0, 0, thr, True, {"mean": 0.0}
    return 1.0 / mean, int(selected.size), thr, False, {"mean": mean}


def loop_serial_dependence(frame, alpha, k, h):
    pe = PExponent(alpha)
    thr, selected = loop_selection(frame, pe, k)
    if selected is None:
        return 0.0, 0, thr, True, {"h": h}
    norms = frame.norms(pe)
    total = 0.0
    for t in selected:
        scaled = frame.matrix[t] / norms[t]
        signed = np.sign(scaled) * np.abs(scaled) ** alpha
        total += float(np.dot(signed[: frame.b - h], signed[h:]))
    return total / k, int(selected.size), thr, False, {"h": h}


def loop_supwalk(frame, alpha, k):
    pe = PExponent(1.0)
    thr, selected = loop_selection(frame, pe, k)
    if selected is None:
        return 0.0, 0, thr, True, {}
    n1 = frame.norms(pe)
    na = frame.norms(alpha)
    num = 0.0
    den = 0.0
    for t in selected:
        sup = max(float(np.max(np.cumsum(frame.matrix[t]))), 0.0)
        num += (sup / n1[t]) ** alpha
        den += (na[t] / n1[t]) ** alpha
    if den == 0.0:
        return 0.0, 0, thr, True, {}
    return num / den, int(selected.size), thr, False, {}


def report_fields(report):
    return (report.value, report.selected_blocks, report.threshold,
            report.degenerate, report.extras)


ENTRIES = st.one_of(
    st.sampled_from([0.0, 0.0, 1.0, -1.0, 2.5, -2.5]),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_subnormal=False),
)


@st.composite
def block_frames(draw):
    b = draw(st.integers(min_value=1, max_value=6))
    m = draw(st.integers(min_value=2, max_value=12))
    scale = draw(st.sampled_from([1.0, 1e-6, 1e6]))
    values = draw(st.lists(ENTRIES, min_size=m * b, max_size=m * b))
    if draw(st.booleans()):
        # blocks repeated verbatim: exact ties in every norm
        values = values[:b] * m
    if draw(st.booleans()):
        # zero rows
        zero_rows = draw(st.lists(st.integers(0, m - 1), max_size=m))
        for t in zero_rows:
            values[t * b:(t + 1) * b] = [0.0] * b
    return BlockFrame(scale * np.asarray(values), b)


@given(frame=block_frames(), data=st.data(),
       alpha=st.sampled_from([0.5, 1.0, 1.3, 2.0, 3.0]))
@example(frame=BlockFrame(np.zeros(12), 3), data=None, alpha=1.3)
@example(frame=BlockFrame(np.array([3.0, -1.0, 0.0, 2.0, -2.0, 5.0]), 1),
         data=None, alpha=2.0)
# the top block over the threshold overflows the float range
@example(frame=BlockFrame(1e6 * np.array([1e3, 1e-306, 1e-306]), 1),
         data=None, alpha=0.5)
@settings(max_examples=300, deadline=None)
def test_vectorized_estimators_match_block_loops(frame, data, alpha):
    if data is None:
        k, h = frame.m, 0
    else:
        k = data.draw(st.integers(min_value=2, max_value=frame.m), label="k")
        h = data.draw(st.integers(min_value=0, max_value=frame.b - 1), label="h")
    # the loops raise where a normalized block is not finite; the vectorized
    # estimators then rescale each selected block by its own max instead, and
    # their scale-free statistics stay finite
    for estimate, loop in ((extremal_index_alpha_blocks, loop_extremal_index_alpha),
                           (cluster_index_c1, loop_cluster_index_c1)):
        try:
            want = loop(frame, alpha, k)
        except ValueError:
            report = estimate(frame, alpha, k)
            assert not report.degenerate
            assert 0.0 < report.value < math.inf
        else:
            assert report_fields(estimate(frame, alpha, k)) == want
    assert (report_fields(serial_dependence_estimate(frame, alpha, k, h))
            == loop_serial_dependence(frame, alpha, k, h))
    if alpha >= 1:
        assert (report_fields(supwalk_constant_estimate(frame, alpha, k))
                == loop_supwalk(frame, alpha, k))


def test_scale_free_estimators_survive_an_overflowing_block():
    # the top block over the threshold overflows the float range at both
    # scales; scaling by a power of two is exact, so the values are equal
    values = 1e6 * np.array([1e3, 1e-306, 1e-306])
    frame, scaled = BlockFrame(values, 1), BlockFrame(values * 2.0 ** 600, 1)
    ea = extremal_index_alpha_blocks(frame, 0.5, 2)
    assert ea.value == extremal_index_alpha_blocks(scaled, 0.5, 2).value == 0.5
    assert ea.selected_blocks == 1 and not ea.degenerate
    c1 = cluster_index_c1(frame, 0.5, 2)
    assert c1.value == cluster_index_c1(scaled, 0.5, 2).value == 2.0
    # a user functional need not be scale-free: the generic loop still raises
    with pytest.raises(ValueError, match="float range"):
        cluster_functional_estimate(frame, 0.5, 2, extremal_index_kernel(0.5))
