import hashlib
import math
import re
import struct
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
    cluster_constant_linear,
    cluster_constant_mc,
    cluster_constant_telescoping,
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


def test_shift_law_example():
    # coeffs (1, 0.5), alpha = 1: weights 1 and 0.5 -> P(J=0) = 1/1.5
    law = shift_law((1.0, 0.5), 1.0)
    assert law.probabilities == pytest.approx([1 / 1.5, 0.5 / 1.5], rel=1e-12)
    with pytest.raises(ValueError):
        ShiftLaw(probabilities=np.array([0.7, 0.7]))
    with pytest.raises(ValueError):
        ShiftLaw(probabilities=np.array([-0.5, 1.5]))


def test_shift_law_rejects_non_finite_probabilities():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match=r"finite, got \[" + repr(bad) + r"\] at indices \[1\]"):
            ShiftLaw(probabilities=np.array([0.5, bad, 0.5]))
    with pytest.raises(ValueError, match=r"got \[nan, inf\] at indices \[0, 2\]"):
        ShiftLaw(probabilities=np.array([np.nan, 1.0, np.inf]))
    with pytest.raises(ValueError, match="nonnegative"):
        ShiftLaw(probabilities=np.array([0.5, -np.inf, 0.5]))


@pytest.mark.parametrize("alpha", [0.0, -1.3, np.nan, np.inf])
def test_spectral_monte_carlo_rejects_non_positive_alpha(alpha):
    # every spectral entry point names the bad alpha; supwalk needs alpha >= 1
    coeffs = (1.0, 0.5)
    for call in (lambda: shift_law(coeffs, alpha),
                 lambda: cluster_constant_mc(theta_sampler_linear(AR1_08), alpha, 1, 100, 1),
                 lambda: cluster_constant_linear(coeffs, alpha, 1),
                 lambda: cluster_constant_telescoping(coeffs, alpha, 1),
                 lambda: serial_dependence_oracle_linear(coeffs, alpha, 1)):
        with pytest.raises(ValueError, match=r"alpha must be positive and finite, got "
                                             + re.escape(repr(alpha))):
            call()
    for bad in (alpha, 0.9):
        with pytest.raises(ValueError, match=r"alpha must be at least 1.0 and finite, got "
                                             + re.escape(repr(bad))):
            supwalk_constant_oracle_linear(coeffs, bad, 0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_oracles_reject_non_finite_coefficients(bad):
    coeffs = (1.0, bad, 0.5)
    for call in (lambda: shift_law(coeffs, 1.3),
                 lambda: cluster_constant_linear(coeffs, 1.3, 1),
                 lambda: cluster_constant_telescoping(coeffs, 1.3, 1),
                 lambda: serial_dependence_oracle_linear(coeffs, 1.3, 1),
                 lambda: supwalk_constant_oracle_linear(coeffs, 1.3, 0.5)):
        with pytest.raises(ValueError, match=r"coefficients must be finite, got \["
                                             + re.escape(repr(bad)) + r"\] at indices \[1\]"):
            call()


def test_oracles_name_an_alpha_whose_power_overflows():
    # c(p) at a huge alpha leaves the float range: the closed form, the
    # telescoping sum and the sup-walk constant (which takes c(1)) say so
    for call, p in ((lambda: cluster_constant_linear(AR1_08, 1e9, 0.5), "0.5"),
                    (lambda: cluster_constant_telescoping(AR1_08, 1e9, 0.5), "0.5"),
                    (lambda: supwalk_constant_oracle_linear(AR1_08, 1e9, 0.5), "1")):
        with pytest.raises(ValueError, match=r"c\(p\) leaves the float range at "
                                             rf"alpha=1000000000.0, p={p}$"):
            call()
    assert cluster_constant_linear(AR1_08, 1e9, INF) == 1.0


@pytest.mark.parametrize("scale", [1e308, 2.0 ** -1070, -3.0])
def test_scale_free_oracles_ignore_the_coefficients_scale(scale):
    # the four constants depend on phi / max|phi_j| alone, which is exact
    # here: two equal taps, or a power of two or -3 times taps led by 1 (a
    # negative scale swaps the signs, which the sup-walk constant weighs alike
    # at balance 1/2)
    coeffs = (1.0, 1.0) if scale == 1e308 else (1.0, -0.5, 0.25)
    scaled = tuple(scale * c for c in coeffs)
    for fn, args in ((cluster_constant_linear, (1.3, 0.5)),
                     (cluster_constant_telescoping, (1.3, 0.5)),
                     (cluster_constant_telescoping, (1.3, INF)),
                     (serial_dependence_oracle_linear, (1.3, 1)),
                     (supwalk_constant_oracle_linear, (1.3, 0.5))):
        assert fn(scaled, *args) == fn(coeffs, *args), fn.__name__


@pytest.mark.parametrize("n_draws", [100.5, 100.0, "100", True])
def test_cluster_constant_mc_rejects_non_integer_draws(n_draws):
    with pytest.raises(ValueError, match=r"n_draws must be an integer, got " + repr(n_draws)):
        cluster_constant_mc(theta_sampler_linear(AR1_08), 1.3, 1, n_draws, 1)
    assert cluster_constant_mc(theta_sampler_linear(AR1_08), 1.3, 1, np.int64(100), 1) == \
        cluster_constant_mc(theta_sampler_linear(AR1_08), 1.3, 1, 100, 1)


def numpy_cdf(probabilities) -> np.ndarray:
    """The cumulative table Generator.choice inverts its uniforms through."""
    cdf = np.asarray(probabilities, dtype=np.float64).cumsum()
    cdf /= cdf[-1]
    return cdf


def assert_guide_inverts_cell_ends(law: ShiftLaw):
    # each guide entry is the inverse of its cell's left end, no lower
    cells = np.arange(spectral._GUIDE_SIZE) / spectral._GUIDE_SIZE
    expected = numpy_cdf(law.probabilities).searchsorted(cells, side="right")
    assert law._guide.dtype == np.int64
    assert np.array_equal(law._guide, expected)


def assert_draws_like_choice(law: ShiftLaw, size):
    # the same values, dtype and type as rng.choice, and the generator left
    # where rng.choice leaves it, on a Philox and a PCG64 stream
    n = len(law.probabilities)
    for make in (lambda: SeedSpec(31, 4).generator(), lambda: np.random.default_rng(31)):
        ours, theirs = make(), make()
        drawn = law.sample(ours, size=size)
        expected = theirs.choice(n, size=size, p=law.probabilities)
        assert type(drawn) is type(expected)
        assert drawn.dtype == expected.dtype
        assert np.array_equal(drawn, expected)
        assert ours.random() == theirs.random()


# weight vectors with zero entries, normalized to probability vectors
probability_vectors = st.lists(
    st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0)),
    min_size=1, max_size=300).filter(lambda w: sum(w) > 0).map(
        lambda w: np.asarray(w) / np.sum(w))
draw_sizes = st.sampled_from([1, 7, 8192])


@given(probabilities=probability_vectors, size=draw_sizes)
@example(probabilities=np.array([0.0, 0.5, 0.0, 0.5, 0.0]), size=8192)
@example(probabilities=np.array([1.0]), size=1)
@example(probabilities=np.array([0.0, 1.0]), size=7)
@example(probabilities=np.array([1.0, 0.0]), size=7)
@settings(max_examples=60, deadline=None)
def test_shift_law_draws_what_choice_draws(probabilities, size):
    law = ShiftLaw(probabilities=probabilities)
    assert_guide_inverts_cell_ends(law)
    assert_draws_like_choice(law, size)


@pytest.mark.parametrize("size", [1, 7, 8192])
def test_shift_law_draws_what_choice_draws_near_one(size):
    # phi = 0.99: 2,009 of the 2,751 cdf entries lie in the last guide cell
    law = shift_law(AR1ModelSpec(phi=0.99, noise=STUDENT13), 1.3)
    assert len(law.probabilities) > 1000
    assert_draws_like_choice(law, size)


@pytest.mark.parametrize("probabilities", [
    shift_law(AR1ModelSpec(phi=0.99, noise=STUDENT13), 1.3).probabilities,
    shift_law(AR1_08, 1.3).probabilities,
    np.array([0.0, 0.25, 0.0, 0.0, 0.5, 0.25, 0.0]),
    np.array([1.0]),
], ids=["ar1-0.99", "ar1-0.8", "zeros", "one"])
def test_shift_law_inverts_edge_uniforms(probabilities):
    # every cdf entry, its two float neighbours and both ends of [0, 1) land
    # where searchsorted(side="right") puts them
    cdf = numpy_cdf(probabilities)
    u = np.concatenate([cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 2.0),
                        [0.0, np.nextafter(1.0, 0.0)]])
    u = u[(u >= 0.0) & (u < 1.0)]
    law = ShiftLaw(probabilities=probabilities)
    assert np.array_equal(law._invert(u), cdf.searchsorted(u, side="right"))
    assert_guide_inverts_cell_ends(law)


def test_shift_law_sampling_frequencies():
    law = shift_law((1.0, 0.5), 1.0)
    rng = np.random.default_rng(7)
    draws = law.sample(rng, size=30_000)
    freq = np.mean(draws == 0)
    assert abs(freq - 1 / 1.5) < 0.01


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
    # at p = alpha every ratio S_alpha / S_alpha is 1.0 exactly
    est = cluster_constant_mc(theta_sampler_linear(model), 1.3, 1.3, 500, SeedSpec(master_seed=2))
    assert est.value == 1.0 and est.std_error == 0.0
    with pytest.raises(ValueError):
        cluster_constant_mc(theta_sampler_linear(model), 1.3, 1, 0, SeedSpec(master_seed=2))


def test_cluster_constant_mc_ar1_matches_closed_form():
    sampler = theta_sampler_linear(AR1_08)
    est = cluster_constant_mc(sampler, 1.3, INF, 1_000, SeedSpec(master_seed=9))
    assert est.value == pytest.approx(0.25180124174190294, rel=1e-9)
    assert est.std_error == pytest.approx(0.0, abs=1e-8)


# a fixed Student row table, every tenth row all zero
HEAVY_TABLE = np.random.default_rng(11).standard_t(1.3, size=(40, 9))
HEAVY_TABLE[::10] = 0.0


def heavy_sampler(count, rng):
    """Non-degenerate ratios: rows of HEAVY_TABLE drawn uniformly, stored as
    the linear sampler stores its batches."""
    return spectral._IndexedRows(HEAVY_TABLE, rng.integers(len(HEAVY_TABLE), size=count))


def rows_of(batch):
    """The draws of a row-table batch, materialized."""
    return batch.table[batch.index]


def test_cluster_constant_mc_rejects_bad_input():
    # only the linear sampler's row-table batches are taken
    with pytest.raises(TypeError, match=r"theta_sampler_linear\(model\), got a batch of "
                                        r"type ndarray"):
        cluster_constant_mc(lambda count, rng: rng.random((count, 3)), 1.3, 1, 10, 0)


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
        _ratio_alpha_pow(rows_of(heavy_sampler(count, rng)), 1.3, pe)
        for count in (batch, batch, batch, n_draws - 3 * batch)])
    assert est.value == pytest.approx(float(np.mean(ratios)), rel=1e-12)
    assert est.std_error == pytest.approx(
        float(np.std(ratios)) / math.sqrt(n_draws), rel=1e-12)
    assert est.std_error > 0


@pytest.mark.parametrize("sampler", [heavy_sampler, theta_sampler_linear(AR1_08)],
                         ids=["heavy", "ar1"])
def test_cluster_constant_mc_is_the_same_for_any_batch_size(monkeypatch, sampler):
    # a call's value and s.e. depend on its draws alone, which are one stream
    # whatever the batch size: the rows are counted, and summed once
    n_draws = 2_003
    for p in (0.5, 1.0, 1.3, 2.0, INF):
        results = set()
        for batch in (1, 7, 8192, n_draws):
            monkeypatch.setattr(spectral, "_SAMPLER_BATCH", batch)
            est = cluster_constant_mc(sampler, 1.3, p, n_draws, 12)
            results.add((est.value, est.std_error))
        assert len(results) == 1, p


def test_cluster_constant_mc_sums_the_row_counts(monkeypatch):
    # value and s.e. are correctly rounded sums over the table rows, each
    # row's ratio weighted by how often it was drawn
    indices = []

    def recording(count, rng):
        drawn = heavy_sampler(count, rng)
        indices.append(drawn.index)
        return drawn

    n_draws, pe = 4_321, as_p(0.5)
    monkeypatch.setattr(spectral, "_SAMPLER_BATCH", 1_000)
    est = cluster_constant_mc(recording, 1.3, pe, n_draws, 5)
    drawn = np.concatenate(indices).tolist()
    ratios = _ratio_alpha_pow(HEAVY_TABLE, 1.3, pe).tolist()
    counts = [drawn.count(j) for j in range(len(HEAVY_TABLE))]
    value = math.fsum(c * r for c, r in zip(counts, ratios)) / n_draws
    m2 = math.fsum(c * ((r - value) * (r - value)) for c, r in zip(counts, ratios))
    assert (est.value, est.std_error) == (value, math.sqrt(m2) / n_draws)
    assert est.value == pytest.approx(math.fsum(ratios[j] for j in drawn) / n_draws,
                                      rel=1e-15)


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0, INF])
def test_cluster_constant_mc_one_row_has_zero_std_error(p):
    # an iid model's table is the one row (1.0), whose ratio is 1.0 exactly
    iid = theta_sampler_linear(LinearModelSpec(coeffs=(1.0,), noise=PARETO13))
    est = cluster_constant_mc(iid, 1.3, p, 3 * spectral._SAMPLER_BATCH + 1, 7)
    assert (est.value, est.std_error) == (1.0, 0.0)


def test_cluster_constant_mc_takes_one_row_table_per_call():
    tables = iter([HEAVY_TABLE, HEAVY_TABLE.copy()])

    def two_tables(count, rng):
        return spectral._IndexedRows(next(tables), rng.integers(len(HEAVY_TABLE), size=count))

    with pytest.raises(ValueError, match="share one row table: a later batch brought another"):
        cluster_constant_mc(two_tables, 1.3, 1.0, spectral._SAMPLER_BATCH + 1, 0)


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

    linear = theta_sampler_linear(AR1_08)

    def sampler(count, rng):
        counts.append(count)
        return linear(count, rng)

    cluster_constant_mc(sampler, 1.3, 1, 20_000, 0)
    assert counts == [8192, 8192, 20_000 - 2 * 8192]


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
    pe = as_p(alpha if p == "alpha" else p)
    sampler = theta_sampler_linear(
        LinearModelSpec(coeffs=tuple(coeffs), noise=NoiseSpec(law="student", alpha=alpha)))
    drawn = sampler(batch, _rng_of(seed))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(seqcore, "_TILE_BYTES", tile_bytes)
        assert np.array_equal(_ratio_alpha_pow(drawn.table, alpha, pe)[drawn.index],
                              _ratio_alpha_pow(rows_of(drawn), alpha, pe))


@given(coeffs=tap_vectors, alpha=st.sampled_from([0.8, 1.3, 2.0]),
       p=st.sampled_from(["alpha", 0.5, 1.0, 2.0, 3.0, INF]))
@example(coeffs=[0.0, 0.7, -1.1], alpha=1.3, p=INF)
@settings(max_examples=80, deadline=None)
def test_ratio_kernel_is_even_in_theta(coeffs, alpha, p):
    # the reason the linear sampler draws no sign: -Theta has bit for bit
    # Theta's ratio, on every row of its table, zero rows included
    pe = as_p(alpha if p == "alpha" else p)
    rows = theta_sampler_linear(
        LinearModelSpec(coeffs=tuple(coeffs), noise=NoiseSpec(law="student", alpha=alpha))
    )(1, _rng_of(0)).table
    assert _ratio_alpha_pow(-rows, alpha, pe).tobytes() == \
        _ratio_alpha_pow(rows, alpha, pe).tobytes()


def test_theta_sampler_linear_batch_rows():
    # perfbench's sampler trace reads shape and nbytes of every batch
    coeffs = (0.7, 0.0, -0.3, 1.1)
    sampler = theta_sampler_linear(LinearModelSpec(coeffs=coeffs, noise=STUDENT13))
    batch = sampler(1_000, _rng_of(3))
    draws = rows_of(batch)
    assert batch.shape == draws.shape == (1_000, 4)
    assert len(batch.table) == len(coeffs)
    assert batch.nbytes == 4 * 4 * 8 + 1_000 * batch.index.itemsize
    # each row is phi / |phi_J| for a drawn shift J with phi_J != 0, the
    # shifts drawn by the shift law from the same stream
    j = shift_law(coeffs, 1.3).sample(_rng_of(3), size=1_000)
    assert np.array_equal(draws, np.outer(1.0 / np.abs(np.asarray(coeffs)[j]), coeffs))
    assert np.isfinite(batch.table).all()


@pytest.mark.parametrize("batch", [7, 8192, 20_003])
def test_cluster_constant_mc_batches_do_not_change_the_draws(monkeypatch, batch):
    # one uniform per draw: a call's row indices are one shift-law stream,
    # whatever the batch size
    n_draws, seed = 20_003, 6
    linear = theta_sampler_linear(AR1_08)
    indices = []

    def recording(count, rng):
        drawn = linear(count, rng)
        indices.append(drawn.index)
        return drawn

    monkeypatch.setattr(spectral, "_SAMPLER_BATCH", batch)
    cluster_constant_mc(recording, 1.3, 1.0, n_draws, seed)
    assert len(indices) == math.ceil(n_draws / batch)
    assert np.array_equal(np.concatenate(indices),
                          shift_law(AR1_08, 1.3).sample(_rng_of(seed), n_draws))


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
        assert cluster_constant_mc(sampler, 1.3, p, n_draws, 5).n_draws == n_draws
        assert calls == [len(model_coefficients(AR1_08))]


def test_cluster_constant_mc_peak_memory_is_one_batch(monkeypatch):
    # the draws are never materialized (50 MB a batch for the 125-tap AR(1)):
    # the peak is a few per-draw vectors of one batch, the row indices, their
    # uniforms and the ratios
    sampler = theta_sampler_linear(AR1_08)
    batch = 50_000
    monkeypatch.setattr(spectral, "_SAMPLER_BATCH", batch)
    tracemalloc.start()
    try:
        cluster_constant_mc(sampler, 1.3, 0.5, 2 * batch, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * batch * 8


def _oracle_golden_bytes():
    """Shift-law draws of the AR(1) law at 1, one batch and 500k draws; and
    c(p) Monte Carlo (value, s.e.) at the oracle-mc p over three batches for
    AR(1), MA(3) and iid models."""
    law = shift_law(AR1_08, 1.3)
    for size, stream in ((1, 0), (8192, 1), (500_000, 2)):
        draws = law.sample(SeedSpec(21, stream).generator(), size=size)
        yield repr((draws.dtype.str, draws.shape)).encode() + draws.tobytes()
    models = (AR1_08, LinearModelSpec(coeffs=(1.0, -0.7, 0.5, 0.3), noise=STUDENT13),
              LinearModelSpec(coeffs=(1.0,), noise=PARETO13))
    for m, model in enumerate(models):
        sampler = theta_sampler_linear(model)
        for i, p in enumerate((0.5, 1.0, 2.0, INF)):
            est = cluster_constant_mc(sampler, 1.3, p, 20_000, SeedSpec(22, 4 * m + i))
            yield struct.pack("<2d", est.value, est.std_error)


def test_oracle_draws_are_pinned(pinned):
    # the shift law's draws and every value the oracle Monte Carlo reports;
    # a change of draw stream, inversion or sign convention changes the digest
    digest = hashlib.sha256()
    for chunk in _oracle_golden_bytes():
        digest.update(chunk)
    assert digest.hexdigest() == pinned(
        "894773ce55ce2a89a12cf987720d8d87244dedcf2bdde66ef8b57fed6f9facfe",
        "b9d9eff66eaf84818df4e379cf0b34d9147fb12a4201af68f915ec676e3ffc92")


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


@pytest.mark.parametrize("h", [1.5, True, -1, "1"])
def test_serial_dependence_oracle_rejects_bad_lag(h):
    with pytest.raises(ValueError, match=r"h must be an integer lag >= 0, got "
                                         + re.escape(repr(h))):
        serial_dependence_oracle_linear((1.0, 0.5), 1.3, h)
    assert serial_dependence_oracle_linear((1.0, 0.5), 1.3, np.int64(1)) == \
        serial_dependence_oracle_linear((1.0, 0.5), 1.3, 1)


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

