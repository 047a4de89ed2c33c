import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lpblocks import seqcore
from lpblocks.blocks import (
    BlockFrame,
    default_k,
    partition,
    threshold_from_order_stat,
)
from lpblocks.seqcore import INF, row_p_moduli


def test_partition_examples():
    frame = partition(np.arange(1.0, 11.0), 3)
    assert frame.m == 3
    assert frame.b == 3
    np.testing.assert_array_equal(frame.matrix[2], [7.0, 8.0, 9.0])
    assert partition(np.ones(8000), 40).m == 200


def test_partition_too_few_blocks():
    with pytest.raises(ValueError, match="too few blocks"):
        partition(np.ones(10), 6)
    with pytest.raises(ValueError):
        partition(np.ones(10), 0)


def test_block_norms_examples():
    frame = partition(np.ones(12), 4)
    np.testing.assert_allclose(frame.norms(2), [2.0, 2.0, 2.0])
    x = np.array([1.0, -5.0, 2.0, 0.5, 3.0, -1.0])
    frame = partition(x, 3)
    np.testing.assert_allclose(frame.norms(INF), [5.0, 3.0])
    np.testing.assert_allclose(frame.norms(1), [8.0, 4.5])


def test_block_norm_cache_reused():
    frame = partition(np.arange(1.0, 13.0), 3)
    first = frame.norms(2)
    assert frame.norms(2.0) is first


def test_default_k_examples():
    assert default_k(8000, 40, 1.0) == 5
    assert default_k(1000, 100, 1.0) == 2
    assert default_k(8000, 20, 1.0) == 20
    assert default_k(8000, 80, 1.0) == 2
    assert default_k(8000, 160, 1.0) == 2
    assert default_k(8000, 320, 1.0) == 2


def test_default_k_clamped_to_block_count():
    assert default_k(100, 3, 0.1) <= 100 // 3
    assert default_k(12, 5, 0.01) == 2  # rule floor ~2, m = 2
    with pytest.raises(ValueError):
        default_k(100, 3, 0.0)


@given(n=st.integers(min_value=10, max_value=20000),
       kappa=st.floats(min_value=0.1, max_value=2.0))
def test_default_k_non_increasing_in_b(n, kappa):
    values = [default_k(n, b, kappa) for b in range(1, n // 2 + 1, 7)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_threshold_examples():
    frame = partition(np.array([5.0, 3.0, 4.0, 1.0]), 1)
    assert type(threshold_from_order_stat(frame, 1, 2)) is float
    assert threshold_from_order_stat(frame, 1, 2) == 4.0
    assert threshold_from_order_stat(frame, 1, 4) == 1.0
    ties = partition(np.array([2.0, 2.0, 1.0]), 1)
    assert threshold_from_order_stat(ties, 1, 2) == 2.0


def test_threshold_k_range():
    frame = partition(np.arange(1.0, 5.0), 1)
    with pytest.raises(ValueError):
        threshold_from_order_stat(frame, 1, 1)
    with pytest.raises(ValueError):
        threshold_from_order_stat(frame, 1, 5)


@given(seed=st.integers(min_value=0, max_value=1000),
       k=st.integers(min_value=2, max_value=10))
def test_strict_exceedances_count_k_minus_one(seed, k):
    rng = np.random.default_rng(seed)
    x = rng.standard_t(1.3, size=200)
    frame = partition(x, 10)  # m = 20 blocks, norms distinct a.s.
    threshold = threshold_from_order_stat(frame, 2, k)
    norms = frame.norms(2)
    assert int(np.sum(norms > threshold)) == k - 1


@given(seed=st.integers(min_value=0, max_value=1000),
       c=st.sampled_from([1e-6, 0.5, 3.0, 1e6]))
def test_scale_equivariance_of_selection(seed, c):
    rng = np.random.default_rng(seed)
    x = rng.standard_t(1.3, size=120)
    a = partition(x, 6)
    b = partition(c * x, 6)
    ta = threshold_from_order_stat(a, 1.3, 4)
    tb = threshold_from_order_stat(b, 1.3, 4)
    assert tb == pytest.approx(c * ta, rel=1e-9)
    sel_a = a.norms(1.3) > ta
    sel_b = b.norms(1.3) > tb
    np.testing.assert_array_equal(sel_a, sel_b)


def test_frame_matrix_is_readonly_view_of_prefix():
    x = np.arange(10.0)
    frame = partition(x, 3)
    assert frame.matrix.shape == (3, 3)
    with pytest.raises(ValueError):
        frame.matrix[0, 0] = 99.0
    np.testing.assert_array_equal(frame.matrix.reshape(-1), x[:9])


@pytest.mark.parametrize("p", [1.3, INF], ids=["1.3", "inf"])
def test_long_series_block_norms_are_reduced_in_row_tiles(p):
    # a series file of 2,000,000 values (16 MB) is one block stack; its norms
    # take it one row tile at a time, so the temporaries are tile-sized and
    # not the size of the series
    series = np.random.default_rng(17).standard_t(1.3, size=2_000_000)
    frame = partition(series, 100)
    assert frame.matrix.nbytes > 7 * seqcore._TILE_BYTES
    want = row_p_moduli(frame.matrix[:1000], p)
    tracemalloc.start()
    try:
        norms = frame.norms(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(norms[:1000], want)
    assert peak < 3 * seqcore._TILE_BYTES
