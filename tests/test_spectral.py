import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lpblocks import seqcore, spectral
from lpblocks.models import (AR1ModelSpec, LinearModelSpec, NoiseSpec, SeedSpec, _rng_of,
                             model_coefficients)
from lpblocks.seqcore import INF, _ratio_alpha_pow, as_p, p_modulus
from lpblocks.spectral import (
    ShiftLaw,
    SpectralDraw,
    ThresholdTooHigh,
    cluster_constant_linear,
    cluster_constant_mc,
    cluster_constant_telescoping,
    conditional_block_sampler,
    sample_cluster_linear,
    serial_dependence_oracle_linear,
    shift_law,
    supwalk_constant_oracle_linear,
    theta_sampler_linear,
)

# the spectral layer runs warning-free: a zero-tap row of the linear
# sampler's row table that divided by zero would fail here
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

STUDENT13 = NoiseSpec(law="student", alpha=1.3)
PARETO13 = NoiseSpec(law="pareto", alpha=1.3)
AR1_08 = AR1ModelSpec(phi=0.8, noise=STUDENT13)

nonzero_taps = st.floats(min_value=-3.0, max_value=3.0).filter(lambda v: abs(v) > 1e-3)
coeff_vectors = st.lists(nonzero_taps, min_size=1, max_size=8)
alphas = st.sampled_from([0.8, 1.3, 2.0, 2.5])
p_values = st.sampled_from([0.5, 1.0, 1.3, 2.0, INF])


def ar1_truncated_coeffs(phi: float, length: int) -> np.ndarray:
    return phi ** np.arange(length + 1)


def test_spectral_draw_coordinates():
    d = SpectralDraw(values=np.array([0.5, -1.0, 0.25]), origin=1)
    assert d.coordinate(0) == -1.0
    assert d.coordinate(-1) == 0.5
    assert d.coordinate(1) == 0.25
    assert d.coordinate(2) == 0.0
    assert d.coordinate(-2) == 0.0
    assert d.p_modulus(INF) == 1.0
    with pytest.raises(ValueError):
        SpectralDraw(values=np.array([1.0]), origin=1)
    with pytest.raises(ValueError):
        SpectralDraw(values=np.array([1.0]), origin=-1)


def test_shift_law_example():
    # coeffs (1, 0.5), alpha = 1: weights 1 and 0.5 -> P(J=0) = 1/1.5
    law = shift_law((1.0, 0.5), 1.0)
    assert law.probabilities == pytest.approx([1 / 1.5, 0.5 / 1.5], rel=1e-12)
    with pytest.raises(ValueError):
        ShiftLaw(probabilities=np.array([0.7, 0.7]))
    with pytest.raises(ValueError):
        ShiftLaw(probabilities=np.array([-0.5, 1.5]))


def test_shift_law_sampling_frequencies():
    law = shift_law((1.0, 0.5), 1.0)
    rng = np.random.default_rng(7)
    draws = law.sample(rng, size=30_000)
    freq = np.mean(draws == 0)
    assert abs(freq - 1 / 1.5) < 0.01


def test_sample_cluster_singleton_coefficient():
    model = LinearModelSpec(coeffs=(1.0,), noise=STUDENT13)
    seen = set()
    for rep in range(40):
        d = sample_cluster_linear(model, 2.0, SeedSpec(master_seed=1, stream_id=rep))
        assert d.origin == 0
        assert d.values.shape == (1,)
        assert abs(d.values[0]) == 1.0
        seen.add(float(d.values[0]))
    assert seen == {1.0, -1.0}


def test_sample_cluster_two_coefficients():
    model = LinearModelSpec(coeffs=(1.0, 0.5), noise=NoiseSpec(law="student", alpha=1.0))
    origins = set()
    for rep in range(60):
        d = sample_cluster_linear(model, INF, SeedSpec(master_seed=3, stream_id=rep))
        assert d.p_modulus(INF) == pytest.approx(1.0, rel=1e-12)
        np.testing.assert_allclose(np.abs(d.values), [1.0, 0.5], rtol=1e-12)
        origins.add(d.origin)
    assert origins == {0, 1}


@given(coeffs=coeff_vectors, alpha=alphas, p=p_values)
@settings(max_examples=60, deadline=None)
def test_sample_cluster_has_unit_p_modulus(coeffs, alpha, p):
    model = LinearModelSpec(coeffs=tuple(coeffs), noise=NoiseSpec(law="student", alpha=alpha))
    d = sample_cluster_linear(model, p, SeedSpec(master_seed=11, stream_id=0))
    assert d.p_modulus(p) == pytest.approx(1.0, rel=1e-12)


def test_cluster_constant_closed_form_ar1_examples():
    # AR(1) phi = 0.8, alpha = 1.3: c(inf) = 1 - phi^alpha, c(1) = (1-phi^a)/(1-phi)^a
    coeffs = ar1_truncated_coeffs(0.8, 400)
    theta = 1.0 - 0.8 ** 1.3
    assert cluster_constant_linear(coeffs, 1.3, INF) == pytest.approx(theta, rel=1e-9)
    assert cluster_constant_linear(coeffs, 1.3, INF) == pytest.approx(
        0.25180124174190294, rel=1e-9
    )
    c1 = theta / (1.0 - 0.8) ** 1.3
    assert cluster_constant_linear(coeffs, 1.3, 1) == pytest.approx(c1, rel=1e-9)
    assert cluster_constant_linear(coeffs, 1.3, 1) == pytest.approx(
        2.040416717420179, rel=1e-9
    )
    c2 = theta / (1.0 - 0.8 ** 2) ** (1.3 / 2)
    assert cluster_constant_linear(coeffs, 1.3, 2) == pytest.approx(c2, rel=1e-9)

    coeffs6 = ar1_truncated_coeffs(0.6, 400)
    assert cluster_constant_linear(coeffs6, 1.3, INF) == pytest.approx(
        1.0 - 0.6 ** 1.3, rel=1e-9
    )
    assert cluster_constant_linear(coeffs6, 1.3, 1) == pytest.approx(
        (1.0 - 0.6 ** 1.3) / 0.4 ** 1.3, rel=1e-9
    )


@given(coeffs=coeff_vectors, alpha=alphas)
@settings(max_examples=40, deadline=None)
def test_cluster_constant_at_p_alpha_is_one(coeffs, alpha):
    assert cluster_constant_linear(coeffs, alpha, alpha) == pytest.approx(1.0, rel=1e-12)
    assert cluster_constant_telescoping(coeffs, alpha, alpha) == pytest.approx(1.0, rel=1e-10)


@given(coeffs=coeff_vectors, alpha=alphas, p=p_values)
@settings(max_examples=100, deadline=None)
def test_telescoping_agrees_with_closed_form(coeffs, alpha, p):
    closed = cluster_constant_linear(coeffs, alpha, p)
    tele = cluster_constant_telescoping(coeffs, alpha, p)
    assert abs(tele - closed) <= 1e-10 * max(1.0, abs(closed))


def test_telescoping_examples():
    assert cluster_constant_telescoping((1.0,), 1.3, INF) == 1.0
    assert cluster_constant_telescoping((1.0,), 0.8, 1) == 1.0
    coeffs = ar1_truncated_coeffs(0.8, 200)
    assert cluster_constant_telescoping(coeffs, 1.3, INF) == pytest.approx(
        0.25180124174190294, abs=1e-6
    )


def test_cluster_constant_mc_linear_is_deterministic():
    # for a linear model the change-of-norms ratio is the same for every draw
    model = LinearModelSpec(coeffs=(1.0, 0.5), noise=STUDENT13)
    sampler = theta_sampler_linear(model)
    est = cluster_constant_mc(sampler, 1.3, 1, n_draws=2_000, seed=SeedSpec(master_seed=5))
    closed = cluster_constant_linear((1.0, 0.5), 1.3, 1)
    assert est.value == pytest.approx(closed, rel=1e-12)
    assert est.std_error == pytest.approx(0.0, abs=1e-8)
    assert est.n_draws == 2_000


def test_cluster_constant_mc_iid_and_p_alpha():
    iid = LinearModelSpec(coeffs=(1.0,), noise=PARETO13)
    est = cluster_constant_mc(theta_sampler_linear(iid), 1.3, INF, 500, SeedSpec(master_seed=2))
    assert est.value == pytest.approx(1.0, rel=1e-12)
    model = LinearModelSpec(coeffs=(1.0, -0.7, 0.2), noise=STUDENT13)
    est = cluster_constant_mc(theta_sampler_linear(model), 1.3, 1.3, 500, SeedSpec(master_seed=2))
    assert est.value == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError):
        cluster_constant_mc(theta_sampler_linear(model), 1.3, 1, 0, SeedSpec(master_seed=2))


def test_cluster_constant_mc_ar1_matches_closed_form():
    sampler = theta_sampler_linear(AR1_08)
    est = cluster_constant_mc(sampler, 1.3, INF, 1_000, SeedSpec(master_seed=9))
    assert est.value == pytest.approx(0.25180124174190294, rel=1e-9)
    assert est.std_error == pytest.approx(0.0, abs=1e-8)


def heavy_sampler(count, rng):
    """Non-degenerate ratios: Student rows, about one in ten all zero."""
    draws = rng.standard_t(1.3, size=(count, 9))
    draws[rng.random(count) < 0.1] = 0.0
    return draws


def test_cluster_constant_mc_rejects_bad_input():
    with pytest.raises(ValueError, match=r"2-d array of 10 rows.*shape \(10,\)"):
        cluster_constant_mc(lambda count, rng: rng.random(count), 1.3, 1, 10, 0)
    with pytest.raises(ValueError, match=r"2-d array of 10 rows.*shape \(11, 3\)"):
        cluster_constant_mc(lambda count, rng: rng.random((count + 1, 3)), 1.3, 1, 10, 0)
    with pytest.raises(ValueError, match=r"at least one column, got shape \(10, 0\)"):
        cluster_constant_mc(lambda count, rng: np.zeros((count, 0)), 1.3, 1, 10, 0)


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0, INF])
def test_cluster_constant_mc_constant_ratio_has_zero_std_error(monkeypatch, p):
    # every AR(1) draw has the same ratio up to rounding, so the reported
    # s.e. must not be the cancellation error of a raw second moment
    monkeypatch.setattr(spectral, "_SAMPLER_BATCH", 7_000)
    est = cluster_constant_mc(theta_sampler_linear(AR1_08), 1.3, p, 30_000, 4)
    assert est.value == pytest.approx(cluster_constant_linear(AR1_08, 1.3, p), rel=1e-12)
    assert est.std_error <= 1e-15 * est.value


def test_cluster_constant_mc_std_error_is_std_of_ratios(monkeypatch):
    n_draws, batch = 10_001, 3_000
    pe = as_p(2.0)
    monkeypatch.setattr(spectral, "_SAMPLER_BATCH", batch)
    est = cluster_constant_mc(heavy_sampler, 1.3, pe, n_draws, 8)
    rng = _rng_of(8)
    ratios = np.concatenate([
        _ratio_alpha_pow(heavy_sampler(count, rng), 1.3, pe)
        for count in (batch, batch, batch, n_draws - 3 * batch)])
    assert est.value == pytest.approx(float(np.mean(ratios)), rel=1e-12)
    assert est.std_error == pytest.approx(
        float(np.std(ratios)) / math.sqrt(n_draws), rel=1e-12)
    assert est.std_error > 0


@pytest.mark.parametrize("tile_bytes", [1, 8 * 9 * 5 + 3, 8 * 9 * 1000])
def test_cluster_constant_mc_tiles_do_not_change_estimates(monkeypatch, tile_bytes):
    args = (heavy_sampler, 1.3, 0.5, 5_003, 3)
    monkeypatch.setattr(spectral, "_SAMPLER_BATCH", 2_000)
    whole = cluster_constant_mc(*args)
    monkeypatch.setattr(seqcore, "_TILE_BYTES", tile_bytes)
    tiled = cluster_constant_mc(*args)
    assert tiled == whole


def test_cluster_constant_mc_draws_sampler_batches():
    counts = []

    def sampler(count, rng):
        counts.append(count)
        return heavy_sampler(count, rng)

    cluster_constant_mc(sampler, 1.3, 1, 20_000, 0)
    assert counts == [8192, 8192, 20_000 - 2 * 8192]


def materialized(sampler):
    """The sampler's draws as a plain array, for the generic path."""
    return lambda count, rng: np.asarray(sampler(count, rng))


# coefficient vectors with zero taps
tap_vectors = st.lists(st.one_of(st.just(0.0), nonzero_taps),
                       min_size=1, max_size=8).filter(any)


@given(coeffs=tap_vectors, alpha=st.sampled_from([0.8, 1.3, 2.0]),
       p=st.sampled_from(["alpha", 0.5, 1.0, 2.0, 3.0, INF]),
       batch=st.integers(min_value=1, max_value=300),
       tile_bytes=st.sampled_from([1, 100, 2 ** 21]),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
@example(coeffs=[0.7], alpha=1.3, p=1.0, batch=300, tile_bytes=2 ** 21, seed=0)
@settings(max_examples=80, deadline=None)
def test_cluster_constant_mc_row_table_is_bit_identical(coeffs, alpha, p, batch,
                                                        tile_bytes, seed):
    # reducing the 2(q+1) table rows gives each draw the ratio its
    # materialized row gives
    p = alpha if p == "alpha" else p
    sampler = theta_sampler_linear(
        LinearModelSpec(coeffs=tuple(coeffs), noise=NoiseSpec(law="student", alpha=alpha)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_SAMPLER_BATCH", batch)
        mp.setattr(seqcore, "_TILE_BYTES", tile_bytes)
        table = cluster_constant_mc(sampler, alpha, p, 700, seed)
        assert table == cluster_constant_mc(materialized(sampler), alpha, p, 700, seed)


def test_theta_sampler_linear_batch_is_array_like():
    coeffs = (0.7, 0.0, -0.3, 1.1)
    sampler = theta_sampler_linear(LinearModelSpec(coeffs=coeffs, noise=STUDENT13))
    batch = sampler(1_000, _rng_of(3))
    draws = np.asarray(batch)
    assert batch.shape == draws.shape == (1_000, 4)
    assert batch.nbytes == 8 * 4 * 8 + 1_000 * batch.index.itemsize
    # each row is sign * phi / |phi_J| for a drawn shift J with phi_J != 0
    rng = _rng_of(3)
    law = shift_law(coeffs, 1.3)
    j = law.sample(rng, size=1_000)
    sign = np.where(rng.random(1_000) < STUDENT13.positive_prob, 1.0, -1.0)
    assert np.array_equal(draws, np.outer(sign / np.abs(np.asarray(coeffs)[j]), coeffs))
    assert np.isfinite(batch.table).all()


def test_cluster_constant_mc_reduces_only_table_rows(monkeypatch):
    # the linear sampler's batches are never materialized: the ratio kernel
    # sees at most the 2(q+1) table rows at a time
    rows = []
    kernel = spectral._ratio_alpha_pow

    def recording(draws, alpha, pe):
        rows.append(draws.shape[0])
        return kernel(draws, alpha, pe)

    monkeypatch.setattr(spectral, "_ratio_alpha_pow", recording)
    est = cluster_constant_mc(theta_sampler_linear(AR1_08), 1.3, 2.0, 20_000, 5)
    assert est.n_draws == 20_000
    assert rows and max(rows) <= 2 * len(model_coefficients(AR1_08))


def test_cluster_constant_mc_reduces_the_table_once_per_call(monkeypatch):
    # every batch of the linear sampler indexes the same table, so its ratios
    # are computed once per call, not once per batch
    calls = []
    kernel = spectral._ratio_alpha_pow

    def counting(draws, alpha, pe):
        calls.append(draws.shape[0])
        return kernel(draws, alpha, pe)

    sampler = theta_sampler_linear(AR1_08)
    n_draws = 3 * spectral._SAMPLER_BATCH + 5
    monkeypatch.setattr(spectral, "_ratio_alpha_pow", counting)
    for p in (2.0, INF):
        calls.clear()
        est = cluster_constant_mc(sampler, 1.3, p, n_draws, 5)
        assert calls == [2 * len(model_coefficients(AR1_08))]
        # and the draws' values are those of the materialized batches
        assert est == cluster_constant_mc(materialized(sampler), 1.3, p, n_draws, 5)


def test_cluster_constant_mc_peak_memory_is_one_batch(monkeypatch):
    # a materialized batch is reduced tile by tile: no batch-sized |x| copy or
    # power temporary is made, and one batch is freed before the next is drawn
    sampler = materialized(theta_sampler_linear(AR1_08))
    batch = 50_000
    batch_bytes = batch * sampler(1, _rng_of(0)).shape[1] * 8
    monkeypatch.setattr(spectral, "_SAMPLER_BATCH", batch)
    tracemalloc.start()
    try:
        cluster_constant_mc(sampler, 1.3, 0.5, 2 * batch, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * batch_bytes


def test_serial_dependence_oracle_examples():
    assert serial_dependence_oracle_linear((1.0,), 1.3, 0) == pytest.approx(1.0, rel=1e-12)
    assert serial_dependence_oracle_linear((1.0,), 1.3, 1) == 0.0
    coeffs = ar1_truncated_coeffs(0.8, 600)
    # AR(1): g_h = phi^(h a) (1 - phi^a) / (1 + phi^a)
    a = 0.8 ** 1.3
    for h, target in ((0, (1 - a) / (1 + a)), (1, a * (1 - a) / (1 + a)), (2, a ** 2 * (1 - a) / (1 + a))):
        assert serial_dependence_oracle_linear(coeffs, 1.3, h) == pytest.approx(target, rel=1e-9)
    assert serial_dependence_oracle_linear(coeffs, 1.3, 1) == pytest.approx(
        0.10776656573469802, rel=1e-9
    )
    with pytest.raises(ValueError):
        serial_dependence_oracle_linear(coeffs, 1.3, -1)


def test_serial_dependence_oracle_sums_to_one():
    coeffs = ar1_truncated_coeffs(0.8, 600)
    total = serial_dependence_oracle_linear(coeffs, 1.3, 0)
    total += 2 * sum(serial_dependence_oracle_linear(coeffs, 1.3, h) for h in range(1, 201))
    assert total == pytest.approx(1.0, abs=1e-8)


def test_serial_dependence_oracle_alternating_signs():
    # phi < 0 flips the sign of every odd lag
    coeffs = (-0.8) ** np.arange(300)
    g1 = serial_dependence_oracle_linear(coeffs, 1.3, 1)
    assert g1 == pytest.approx(-0.10776656573469802, rel=1e-9)


def test_supwalk_oracle_examples():
    assert supwalk_constant_oracle_linear((1.0,), 2.0, 1.0) == pytest.approx(1.0, rel=1e-12)
    # symmetric noise halves the all-positive value for nonnegative coefficients
    coeffs = ar1_truncated_coeffs(0.8, 400)
    c1 = cluster_constant_linear(coeffs, 1.3, 1)
    assert supwalk_constant_oracle_linear(coeffs, 1.3, 0.5) == pytest.approx(c1 / 2, rel=1e-10)
    assert supwalk_constant_oracle_linear(coeffs, 1.3, 0.5) == pytest.approx(
        1.0202083587100896, rel=1e-8
    )
    assert supwalk_constant_oracle_linear(coeffs, 1.3, 1.0) == pytest.approx(c1, rel=1e-10)
    with pytest.raises(ValueError):
        supwalk_constant_oracle_linear(coeffs, 0.9, 0.5)
    with pytest.raises(ValueError):
        supwalk_constant_oracle_linear(coeffs, 1.3, 1.5)


def test_supwalk_oracle_sign_cancellation():
    # (1, -1) with positive noise: partial sums peak at 1, l1 norm is 2
    value = supwalk_constant_oracle_linear((1.0, -1.0), 2.0, 1.0)
    c1 = cluster_constant_linear((1.0, -1.0), 2.0, 1)
    assert value == pytest.approx(c1 * 0.25, rel=1e-12)


def test_conditional_block_sampler_iid():
    model = LinearModelSpec(coeffs=(1.0,), noise=STUDENT13)
    draws = conditional_block_sampler(
        model, h=0, p=INF, x_threshold=5.0, seed=SeedSpec(master_seed=4), count=200
    )
    assert len(draws) == 200
    values = np.array([d.values[0] for d in draws])
    assert set(np.abs(values)) == {1.0}
    assert 0.3 < np.mean(values > 0) < 0.7
    for d in draws[:10]:
        assert d.origin == 0
        assert d.p_modulus(INF) == 1.0


def test_conditional_block_sampler_normalizes_blocks():
    model = AR1ModelSpec(phi=0.8, noise=STUDENT13, burn_in=200)
    draws = conditional_block_sampler(
        model, h=20, p=1, x_threshold=40.0, seed=SeedSpec(master_seed=6), count=50
    )
    for d in draws:
        assert d.values.shape == (21,)
        assert d.origin == 0
        assert d.p_modulus(1) == pytest.approx(1.0, rel=1e-12)


def test_conditional_block_sampler_matches_extremal_index():
    # E[||Q||_inf^alpha] over alpha-norm exceedance blocks approaches c(inf)
    model = AR1ModelSpec(phi=0.8, noise=STUDENT13, burn_in=200)
    draws = conditional_block_sampler(
        model, h=100, p=1.3, x_threshold=2000.0, seed=SeedSpec(master_seed=8), count=400
    )
    vals = np.array([d.p_modulus(INF) ** 1.3 for d in draws])
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    # the 0.01 slack covers finite-level bias (window-edge truncation and
    # sub-extreme mass in the alpha-norm), which 3 s.e. alone does not
    assert abs(vals.mean() - 0.25180124174190294) <= 3 * se + 0.01


def test_conditional_block_sampler_gives_up():
    model = LinearModelSpec(coeffs=(1.0,), noise=STUDENT13)
    with pytest.raises(ThresholdTooHigh):
        conditional_block_sampler(
            model, h=0, p=INF, x_threshold=1e12, seed=SeedSpec(master_seed=4),
            count=1, max_attempts=5_000,
        )
    with pytest.raises(ValueError):
        conditional_block_sampler(model, h=-1, p=INF, x_threshold=1.0, seed=0)
    with pytest.raises(ValueError):
        conditional_block_sampler(model, h=0, p=INF, x_threshold=0.0, seed=0)
    with pytest.raises(ValueError):
        conditional_block_sampler(model, h=0, p=INF, x_threshold=1.0, seed=0, count=0)
