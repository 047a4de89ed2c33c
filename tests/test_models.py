import concurrent.futures
import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.signal import lfilter

from lpblocks.largedev import ld_ratio_mc
from lpblocks.models import (
    AR1ModelSpec,
    LinearModelSpec,
    NoiseSpec,
    SeedSpec,
    _noise_matrix,
    _pool_map,
    _rng_of,
    ar1_coefficients,
    model_coefficients,
    sample_noise,
    simulate,
    simulate_batch,
)

PARETO2 = NoiseSpec(law="pareto", alpha=2.0)
PARETO13 = NoiseSpec(law="pareto", alpha=1.3)
STUDENT13 = NoiseSpec(law="student", alpha=1.3)


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(law="pareto", alpha=0.0)
    with pytest.raises(ValueError):
        NoiseSpec(law="cauchy", alpha=1.0)
    # an infinite tail index would draw Pareto noise that is all 1.0
    for alpha in (math.inf, math.nan):
        with pytest.raises(ValueError, match=f"positive and finite, got {alpha}"):
            NoiseSpec(law="pareto", alpha=alpha)
    assert PARETO2.positive_prob == 1.0
    assert STUDENT13.positive_prob == 0.5


def test_model_spec_validation():
    with pytest.raises(ValueError):
        LinearModelSpec(coeffs=(0.0, 0.0), noise=PARETO2)
    with pytest.raises(ValueError):
        AR1ModelSpec(phi=1.0, noise=PARETO2)
    with pytest.raises(ValueError):
        AR1ModelSpec(phi=0.5, noise=PARETO2, burn_in=-1)


@pytest.mark.parametrize("bad", [1.5, 1.0, True, "1", None])
def test_seed_spec_rejects_non_integer_seeds(bad):
    # a float or bool seed once gave the stream of int(seed)
    for make in (lambda: SeedSpec(bad), lambda: SeedSpec(1, bad), lambda: _rng_of(bad)):
        with pytest.raises(ValueError, match=r"must be an integer, got " + re.escape(repr(bad))):
            make()


def test_seed_spec_takes_numpy_integers():
    for seed in (np.int64(7), np.uint64(7), np.int32(7)):
        spec = SeedSpec(seed, seed)
        assert (spec.master_seed, spec.stream_id) == (7, 7)
        assert type(spec.master_seed) is int and type(spec.stream_id) is int
        assert _rng_of(seed).random() == _rng_of(7).random()
    with pytest.raises(ValueError, match="unsigned 64-bit"):
        SeedSpec(np.int64(-1))
    assert SeedSpec(2 ** 64 - 1).master_seed == 2 ** 64 - 1


def test_pareto_noise_support_and_cdf():
    z = sample_noise(PARETO2, 1_000_000, SeedSpec(0, 0))
    assert np.all(z > 1.0)
    assert np.mean(z > 2.0) == pytest.approx(0.25, abs=0.003)


def test_student_noise_symmetric():
    z = sample_noise(STUDENT13, 1_000_000, SeedSpec(0, 1))
    assert np.median(z) == pytest.approx(0.0, abs=0.01)
    # heavy tails present: some values far out
    assert np.max(np.abs(z)) > 100.0


def test_noise_determinism_and_stream_separation():
    a = sample_noise(PARETO2, 1000, SeedSpec(7, 3))
    b = sample_noise(PARETO2, 1000, SeedSpec(7, 3))
    c = sample_noise(PARETO2, 1000, SeedSpec(7, 4))
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_noise_prefix_stability():
    # longer pareto draws extend shorter ones from the same stream
    short = sample_noise(PARETO2, 50, SeedSpec(3, 0))
    long = sample_noise(PARETO2, 80, SeedSpec(3, 0))
    np.testing.assert_array_equal(long[:50], short)


def test_identity_filter_equals_noise():
    spec = LinearModelSpec(coeffs=(1.0,), noise=PARETO2)
    x = simulate(spec, 500, SeedSpec(1, 0))
    z = sample_noise(PARETO2, 500, SeedSpec(1, 0))
    np.testing.assert_array_equal(x, z)


def test_pure_delay_filter_equals_noise():
    # coeffs (0,1) gives X_t = Z_{t-1}: again the first n draws of the stream
    spec = LinearModelSpec(coeffs=(0.0, 1.0), noise=PARETO2)
    x = simulate(spec, 500, SeedSpec(1, 0))
    z = sample_noise(PARETO2, 500, SeedSpec(1, 0))
    np.testing.assert_array_equal(x, z)


def test_linear_mean_matches_pareto_moment():
    spec = LinearModelSpec(coeffs=(1.0, 0.5), noise=NoiseSpec(law="pareto", alpha=3.0))
    x = simulate(spec, 1_000_000, SeedSpec(2, 0))
    # E[Z] = 3/2 for pareto(3), so E[X] = 1.5 * 1.5 = 2.25
    assert np.mean(x) == pytest.approx(2.25, rel=0.02)


def test_linear_filter_recursion_exact():
    spec = LinearModelSpec(coeffs=(1.0, 0.5, -0.25), noise=PARETO2)
    n = 64
    x = simulate(spec, n, SeedSpec(9, 0))
    z = sample_noise(PARETO2, n + 2, SeedSpec(9, 0))
    want = z[2:] + 0.5 * z[1:-1] - 0.25 * z[:-2]
    np.testing.assert_allclose(x, want, rtol=1e-12)


def test_ar1_zero_phi_equals_noise():
    spec = AR1ModelSpec(phi=0.0, noise=PARETO2, burn_in=0)
    x = simulate(spec, 300, SeedSpec(4, 0))
    z = sample_noise(PARETO2, 300, SeedSpec(4, 0))
    np.testing.assert_array_equal(x, z)


def test_ar1_recursion_exact():
    spec = AR1ModelSpec(phi=0.7, noise=PARETO2, burn_in=5)
    x = simulate(spec, 50, SeedSpec(4, 1))
    z = sample_noise(PARETO2, 55, SeedSpec(4, 1))
    prev = 0.0
    full = []
    for value in z:
        prev = 0.7 * prev + value
        full.append(prev)
    np.testing.assert_allclose(x, full[5:], rtol=1e-12)


def test_ar1_positive_sign_correlation():
    spec = AR1ModelSpec(phi=0.8, noise=STUDENT13)
    x = simulate(spec, 8000, SeedSpec(5, 0))
    s = np.sign(x)
    corr = np.corrcoef(s[:-1], s[1:])[0, 1]
    assert corr > 0.3


def test_ar1_determinism():
    spec = AR1ModelSpec(phi=0.8, noise=STUDENT13)
    np.testing.assert_array_equal(simulate(spec, 100, SeedSpec(6, 2)),
                                  simulate(spec, 100, SeedSpec(6, 2)))


FOLD_MODELS = {
    "ar1-student-burn300": AR1ModelSpec(phi=0.8, noise=STUDENT13, burn_in=300),
    "ar1-student-burn0": AR1ModelSpec(phi=0.8, noise=STUDENT13, burn_in=0),
    "ar1-negative-phi": AR1ModelSpec(phi=-0.6, noise=PARETO2, burn_in=150),
    "ar1-phi0-burn0": AR1ModelSpec(phi=0.0, noise=PARETO2, burn_in=0),
    "ar1-pareto-burn10": AR1ModelSpec(phi=0.5, noise=PARETO2, burn_in=10),
    "ma3-pareto": LinearModelSpec(coeffs=(1.0, -0.7, 0.5, 0.3), noise=PARETO2),
    "linear-1tap": LinearModelSpec(coeffs=(2.0,), noise=STUDENT13),
}


@pytest.mark.parametrize("name", sorted(FOLD_MODELS))
def test_simulate_dispatch_and_batch(name):
    spec = FOLD_MODELS[name]
    for n in (1, 7, 40, 8000):
        for seed in (8, SeedSpec(8, 3)):
            x = simulate(spec, n, seed)
            assert x.shape == (n,)
            # simulate is the first row of a one-row batch, byte for byte
            assert x.tobytes() == simulate_batch(spec, n, 1, seed)[0].tobytes()
    x = simulate(spec, 40, SeedSpec(8, 0))
    batch = simulate_batch(spec, 40, 3, SeedSpec(8, 0))
    assert batch.shape == (3, 40)
    if spec.noise.law == "pareto":
        # batch rows come from one stream: first row consumes the same leading
        # noise (student noise draws every normal before any chi-square)
        np.testing.assert_array_equal(batch[0], x)
    # noise rows drawn one stream each and filtered as one batch, as the
    # experiment does, give every row the bytes of simulate on its stream
    seeds = [SeedSpec(9, rep) for rep in range(30)]
    for n in (1, 7, 500):
        z = np.empty((len(seeds), n + spec.lead))
        for i, seed in enumerate(seeds):
            z[i] = sample_noise(spec.noise, n + spec.lead, seed)
        want = np.stack([simulate(spec, n, seed) for seed in seeds])
        assert spec.filter(z).tobytes() == want.tobytes()


def _noise_rows(seed, rows, cols):
    return np.random.default_rng(seed).standard_t(1.3, size=(rows, cols))


# scipy is the test-only reference: the filters must reproduce lfilter byte
# for byte, including the n == 1 tap order of its np.convolve path
@given(coeffs=st.lists(st.sampled_from([0.0, 1.0, -0.7, 0.5, 0.3, 2.5, -1e-3]),
                       min_size=1, max_size=8).filter(any),
       n=st.one_of(st.just(1), st.integers(min_value=2, max_value=40)),
       rows=st.sampled_from([1, 2, 5]),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=300, deadline=None)
def test_linear_filter_matches_lfilter_bytes(coeffs, n, rows, seed):
    spec = LinearModelSpec(coeffs=tuple(coeffs), noise=STUDENT13)
    z = _noise_rows(seed, rows, n + spec.lead)
    want = lfilter(spec.coeffs, [1.0], z, axis=-1)[:, spec.lead:]
    got = spec.filter(z.copy())
    assert got.shape == (rows, n)
    assert got.tobytes() == want.tobytes()


@given(phi=st.one_of(st.just(0.0), st.floats(min_value=-0.99, max_value=0.99)),
       burn_in=st.one_of(st.just(0), st.integers(min_value=1, max_value=30)),
       n=st.integers(min_value=1, max_value=40),
       rows=st.sampled_from([1, 2, 5]),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=300, deadline=None)
def test_ar1_filter_matches_lfilter_bytes(phi, burn_in, n, rows, seed):
    spec = AR1ModelSpec(phi=phi, noise=STUDENT13, burn_in=burn_in)
    z = _noise_rows(seed, rows, n + spec.lead)
    want = lfilter([1.0], [1.0, -phi], z, axis=-1)[:, spec.lead:]
    got = spec.filter(z.copy())
    assert got.shape == (rows, n)
    assert got.tobytes() == want.tobytes()


def test_stream_independence_of_block_norms():
    spec = AR1ModelSpec(phi=0.8, noise=STUDENT13)
    m = 100
    a = np.abs(simulate(spec, 4000, SeedSpec(10, 0))).reshape(m, 40).max(axis=1)
    b = np.abs(simulate(spec, 4000, SeedSpec(10, 1))).reshape(m, 40).max(axis=1)
    corr = np.corrcoef(np.log(a), np.log(b))[0, 1]
    assert abs(corr) < 3.0 / np.sqrt(m)


def test_ar1_coefficients_truncation():
    c = ar1_coefficients(0.8)
    assert c[0] == 1.0
    assert len(c) == 125
    assert abs(c[-1]) < 1e-12 / 0.8  # |phi|^L below tol at the cut
    c6 = ar1_coefficients(0.6)
    assert len(c6) == 56
    np.testing.assert_allclose(c6, 0.6 ** np.arange(56), rtol=1e-13)


@pytest.mark.parametrize("phi", [0.9999999, -0.9999999])
def test_ar1_coefficients_refuse_phi_near_one(phi):
    # the truncation length is checked before any coefficient is built:
    # here it would be 276,310,199 of them (2.2 GB)
    with pytest.raises(ValueError, match=rf"AR\(1\) phi={phi!r} is too close to \+-1: "
                                         r"truncating at \|phi\|\^L < 1e-12 takes "
                                         r"L=276310198, above 2000000 coefficients"):
        ar1_coefficients(phi)
    assert len(ar1_coefficients(0.99)) == 2_751


def test_model_coefficients_and_shape():
    lin = LinearModelSpec(coeffs=(1.0, -0.5), noise=PARETO2)
    np.testing.assert_array_equal(model_coefficients(lin), [1.0, -0.5])
    ar = AR1ModelSpec(phi=0.8, noise=STUDENT13)
    np.testing.assert_allclose(model_coefficients(ar), ar1_coefficients(0.8))
    assert lin.lead == 1
    assert ar.lead == ar.burn_in == 1000


def test_ar1_matches_truncated_linear_in_distribution():
    alpha = 1.3
    noise = NoiseSpec(law="student", alpha=alpha)
    ar = AR1ModelSpec(phi=0.8, noise=noise)
    lin = LinearModelSpec(coeffs=tuple(ar1_coefficients(0.8)), noise=noise)
    n = 100_000
    xa = simulate(ar, n, SeedSpec(11, 0))
    xl = simulate(lin, n, SeedSpec(11, 1))
    ks = stats.ks_2samp(xa, xl).statistic
    assert ks < 0.01


def _golden_arrays():
    """Noise and simulated values over both laws, MA(3) and AR(1), n == 1,
    single rows of 100k values and (481, 4150) noise matrices: 8 row tiles of
    2 MB, the shape of a 2M-value LD chunk."""
    yield _noise_matrix(PARETO13, (481, 4150), SeedSpec(11, 0).generator())
    yield _noise_matrix(STUDENT13, (481, 4150), SeedSpec(11, 1).generator())
    yield _noise_matrix(STUDENT13, 5000, SeedSpec(11, 2).generator())
    for noise in (PARETO13, STUDENT13):
        ma = LinearModelSpec(coeffs=(1.0, -0.7, 0.5, 0.3), noise=noise)
        ar = AR1ModelSpec(phi=0.8, noise=noise)
        yield simulate_batch(ma, 4147, 481, SeedSpec(12, 0))
        yield simulate_batch(ma, 1, 70_000, SeedSpec(12, 1))
        yield simulate_batch(ar, 3150, 481, SeedSpec(12, 2))
        yield simulate_batch(ar, 1, 50, SeedSpec(12, 3))
        yield simulate(ma, 100_000, SeedSpec(12, 4))
        yield simulate(ar, 100_000, SeedSpec(12, 5))


def test_simulated_bytes_are_pinned(pinned):
    # every value any workload or test simulates comes through these paths;
    # a change of draw order, tiling or filter arithmetic changes the digest
    digest = hashlib.sha256()
    for values in _golden_arrays():
        digest.update(repr(values.shape).encode())
        digest.update(values.tobytes())
    assert digest.hexdigest() == pinned(
        "7a46053dd5c4c3977c1db4574a980b93a7ad4e1a10bac38cb00d971dbc589ccd",
        "6de638de544ed71bd323ee58ad2913e3d40ef53bdbff6a74b5d53bb26f114ec9")


@pytest.mark.parametrize("model", [
    LinearModelSpec(coeffs=(1.0, -0.7, 0.5, 0.3), noise=PARETO13),
    LinearModelSpec(coeffs=(1.0, -0.7, 0.5, 0.3), noise=STUDENT13),
    AR1ModelSpec(phi=0.8, noise=STUDENT13),
], ids=["ma-pareto", "ma-student", "ar1-student"])
def test_simulate_batch_peak_is_its_noise_matrix(model):
    # the chi-square draws and the filters work one 2 MB row tile at a time
    # and the kept values overwrite the noise, so a 16 MB chunk holds one
    # chunk-sized array
    count, width = 481, 4150
    noise_bytes = count * width * 8
    simulate_batch(model, 1, 1, SeedSpec(13, 0))  # first-call allocations
    tracemalloc.start()
    try:
        simulate_batch(model, width - model.lead, count, SeedSpec(13, 0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * noise_bytes


def test_pool_map_caps_and_checks_the_worker_count(monkeypatch):
    # a fork pool starts every worker at once, so no more start than tasks,
    # and results keep order. The pool is an in-process stand-in that records
    # its worker count
    seen = []

    class Pool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    tasks = [(i, 10) for i in range(5)]
    assert _pool_map(divmod, tasks, 16) == [divmod(*t) for t in tasks]
    assert _pool_map(divmod, tasks, 2) == [divmod(*t) for t in tasks]
    assert _pool_map(divmod, tasks[:1], 4) == [(0, 0)]  # one task runs in-process
    assert seen == [5, 2]
    # 150,001 windows of 20 of iid noise are three LD chunks: 2,500 rows of
    # 40 windows, 1,250 rows and a last row of one window
    iid = LinearModelSpec(coeffs=(1.0,), noise=PARETO13)
    one = ld_ratio_mc(iid, 20, 1.3, 50.0, 150_001, 3)
    assert ld_ratio_mc(iid, 20, 1.3, 50.0, 150_001, 3, threads=16) == one
    assert seen == [5, 2, 3]
    for threads in (0, -1):
        with pytest.raises(ValueError, match=f"threads must be at least 1, got {threads}"):
            _pool_map(divmod, tasks, threads)
