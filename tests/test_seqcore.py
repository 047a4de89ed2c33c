import math
import re
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lpblocks import seqcore
from lpblocks.largedev import _window_chunk
from lpblocks.seqcore import (
    INF,
    PExponent,
    _ratio_alpha_pow,
    _row_p_exceeds,
    as_p,
    as_series,
    p_modulus,
    row_p_moduli,
    truncate_above,
    truncate_below,
)

finite_floats = st.floats(min_value=-50.0, max_value=50.0,
                          allow_nan=False, allow_infinity=False)
series_lists = st.lists(finite_floats, min_size=1, max_size=12)
p_values = st.one_of(st.floats(min_value=0.2, max_value=6.0), st.just(math.inf))


def loop_p_modulus(row, p):
    """Reference p-modulus, one entry at a time, independent of the kernel."""
    x = [abs(float(v)) for v in row]
    top = max(x)
    if math.isinf(p) or top == 0.0:
        return top
    return top * math.fsum((v / top) ** p for v in x) ** (1.0 / p)


def test_p_modulus_examples():
    assert p_modulus([3.0, 4.0], 2) == pytest.approx(5.0, abs=1e-12)
    assert p_modulus([3.0, 4.0], INF) == 4.0
    assert p_modulus([3.0, -4.0], "inf") == 4.0
    assert p_modulus([1.0, 1.0, 1.0], 0.5) == pytest.approx(9.0, abs=1e-9)


def test_p_modulus_rejects_empty_and_nonfinite():
    with pytest.raises(ValueError):
        p_modulus([], 2)
    with pytest.raises(ValueError):
        as_series([1.0, float("nan")])
    with pytest.raises(ValueError):
        as_series([1.0, float("inf")])


def test_as_series_rejects_non_1d():
    for bad in ([[1.0, 2.0], [3.0, 4.0]], np.ones((3, 1)), 5.0):
        with pytest.raises(ValueError, match="1-d"):
            as_series(bad)
    with pytest.raises(ValueError, match=r"\(2, 2\)"):
        p_modulus(np.ones((2, 2)), 2)


def test_pexponent_validation_and_order():
    with pytest.raises(ValueError):
        as_p(0.0)
    with pytest.raises(ValueError):
        as_p(-1.0)
    for text in ("zz", "abc", "1,2", ""):
        with pytest.raises(ValueError, match=re.escape(
                f"p must be a number or 'inf', got {text!r}")):
            as_p(text)
    with pytest.raises(ValueError, match=re.escape("p must lie in (0, inf], got 0.0")):
        as_p("0")
    assert as_p("inf").is_inf
    assert as_p(2.0) < as_p(INF)
    assert as_p(0.5) < as_p(1.0) < as_p(math.inf)
    assert str(as_p(math.inf)) == "inf"
    assert str(as_p(2.0)) == "2"
    assert str(as_p(1.3)) == "1.3"


@given(xs=series_lists, p=p_values, q=p_values)
def test_norm_monotone_in_p(xs, p, q):
    if p > q:
        p, q = q, p
    lo = p_modulus(xs, q)
    hi = p_modulus(xs, p)
    assert hi >= lo - 1e-9 * max(1.0, lo)


@given(xs=series_lists, p=p_values,
       c=st.floats(min_value=-1e6, max_value=1e6,
                   allow_nan=False, allow_infinity=False))
def test_norm_homogeneous(xs, p, c):
    scaled = [c * x for x in xs]
    # a nonzero entry scaled below the normal range loses digits (or all of
    # itself) before the kernel sees it, so |c| ||xs||_p is not its norm
    assume(c == 0 or all(abs(c * x) >= sys.float_info.min for x in xs if x))
    want = abs(c) * p_modulus(xs, p)
    got = p_modulus(scaled, p)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-300)


@given(xs=series_lists, eps=st.floats(min_value=1e-3, max_value=60.0))
def test_truncation_partition(xs, eps):
    below = truncate_below(xs, eps)
    above = truncate_above(xs, eps)
    np.testing.assert_array_equal(below + above, as_series(xs))
    # each entry lands in exactly one part
    assert np.all((below == 0.0) | (above == 0.0) | (as_series(xs) == 0.0))


@given(xs=series_lists, eps=st.floats(min_value=1e-3, max_value=60.0),
       p=st.floats(min_value=0.3, max_value=5.0))
def test_truncation_power_identity(xs, eps, p):
    whole = p_modulus(xs, p) ** p
    parts = p_modulus(truncate_below(xs, eps), p) ** p \
        + p_modulus(truncate_above(xs, eps), p) ** p
    assert parts == pytest.approx(whole, rel=1e-9, abs=1e-12)


def test_truncation_boundary_strict_vs_inclusive():
    np.testing.assert_array_equal(truncate_below([0.5, 2.0, -3.0], 1.0),
                                  [0.0, 2.0, -3.0])
    np.testing.assert_array_equal(truncate_above([0.5, 2.0, -3.0], 1.0),
                                  [0.5, 0.0, 0.0])
    np.testing.assert_array_equal(truncate_below([0.5, 0.2], 1.0), [0.0, 0.0])
    # |x| = eps goes above, not below
    np.testing.assert_array_equal(truncate_below([5.0], 5.0), [0.0])
    np.testing.assert_array_equal(truncate_above([5.0], 5.0), [5.0])


@given(rows=st.integers(min_value=1, max_value=6),
       cols=st.integers(min_value=1, max_value=7),
       p=p_values, seed=st.integers(min_value=0, max_value=10_000))
def test_row_p_moduli_matches_rowwise(rows, cols, p, seed):
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(rows, cols)) * rng.choice([0.0, 1.0, 1e4],
                                                        size=(rows, cols))
    got = row_p_moduli(matrix, p)
    want = np.array([loop_p_modulus(row, p) for row in matrix])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_row_p_moduli_fast_paths_match_generic():
    rng = np.random.default_rng(5)
    matrix = rng.standard_t(1.3, size=(40, 16))
    for p in (0.5, 1.0, 2.0, INF):
        got = row_p_moduli(matrix, p)
        want = np.array([loop_p_modulus(row, math.inf if p is INF else p)
                         for row in matrix])
        np.testing.assert_allclose(got, want, rtol=1e-12)


def test_p_modulus_extreme_scales_no_overflow():
    big = [1e300, 1e300]
    small = [1e-300, 1e-300]
    assert p_modulus(big, 2) == pytest.approx(math.sqrt(2) * 1e300, rel=1e-12)
    assert p_modulus(small, 2) == pytest.approx(math.sqrt(2) * 1e-300, rel=1e-12)
    assert p_modulus(big, 0.5) == pytest.approx(4 * 1e300, rel=1e-12)


def test_map_row_tiles_splits_rows_by_tile_bytes(monkeypatch):
    seen = []

    def rows_of(tile):
        seen.append(tile.shape[0])
        return tile[:, 0].copy()

    matrix = np.arange(70.0).reshape(10, 7)
    # 3 rows of 7 float64 = 168 bytes; 170 is not a multiple of a row
    monkeypatch.setattr(seqcore, "_TILE_BYTES", 170)
    assert np.array_equal(seqcore._map_row_tiles(rows_of, matrix), matrix[:, 0])
    assert seen == [3, 3, 3, 1]
    # a tile smaller than one row still holds one row
    seen.clear()
    monkeypatch.setattr(seqcore, "_TILE_BYTES", 1)
    seqcore._map_row_tiles(rows_of, matrix)
    assert seen == [1] * 10
    # a matrix that fits one tile is passed whole
    seen.clear()
    monkeypatch.setattr(seqcore, "_TILE_BYTES", 10 ** 6)
    seqcore._map_row_tiles(rows_of, matrix)
    assert seen == [10]


@given(rows=st.integers(min_value=1, max_value=40),
       cols=st.integers(min_value=1, max_value=200),
       tile_bytes=st.one_of(st.just(1), st.integers(min_value=2, max_value=20_000)),
       zero_rows=st.lists(st.integers(min_value=0, max_value=39), max_size=6),
       seed=st.integers(min_value=0, max_value=10_000))
@settings(deadline=None)
def test_row_tiles_equal_untiled(rows, cols, tile_bytes, zero_rows, seed):
    """The self-tiling kernels are == their whole-matrix results: norms, hit
    counts and the spectral ratios, at any tile size."""
    rng = np.random.default_rng(seed)
    matrix = rng.standard_t(1.3, size=(rows, cols))
    matrix[[r for r in zero_rows if r < rows]] = 0.0
    # the reference runs at the default tile size, which holds the matrix whole
    assert matrix.nbytes <= seqcore._TILE_BYTES
    for p in (0.5, 1.0, 1.3, 2.0, INF):
        pe = as_p(p)
        norms = row_p_moduli(matrix, pe)
        level = float(np.median(norms))
        hits = int(np.sum(norms > level))
        ratios = _ratio_alpha_pow(matrix, 1.3, pe)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(seqcore, "_TILE_BYTES", tile_bytes)
            assert np.array_equal(row_p_moduli(matrix, pe), norms)
            assert _window_chunk(matrix, cols, pe, level, level)[0].sum() == hits
            assert np.array_equal(_ratio_alpha_pow(matrix, 1.3, pe), ratios)


def test_row_kernels_tile_only_above_one_tile(monkeypatch):
    tiled = []
    real = seqcore._map_row_tiles

    def spy(fn, matrix, *args):
        tiled.append(matrix.shape)
        return real(fn, matrix, *args)

    monkeypatch.setattr(seqcore, "_map_row_tiles", spy)
    monkeypatch.setattr(seqcore, "_TILE_BYTES", 8 * 7 * 3)
    pe = as_p(1.3)
    for kernel in (lambda m: row_p_moduli(m, pe), lambda m: _ratio_alpha_pow(m, 1.3, pe)):
        tiled.clear()
        kernel(np.ones((3, 7)))    # one tile: computed whole
        kernel(np.ones((1, 100)))  # one row above a tile: a row is never split
        assert tiled == []
        kernel(np.ones((10, 7)))
        assert tiled == [(10, 7)]


ROW_KINDS = st.sampled_from(["spread", "flat", "one", "zero"])
ROW_SCALES = st.sampled_from([1.0, 1e300, 1e-300, 1e-310, 1e306])


def kinds_matrix(rng, cols, kinds):
    """One row per (kind, scale): heavy-tailed entries, entries of one
    magnitude with random signs (where the Hoelder bound is tight), one
    nonzero entry, or zeros."""
    rows = []
    for kind, scale in kinds:
        if kind == "spread":
            row = rng.standard_t(1.3, cols)
        elif kind == "flat":
            row = rng.choice([-1.0, 1.0], cols) * rng.uniform(0.5, 2.0)
        else:
            row = np.zeros(cols)
            if kind == "one":
                row[rng.integers(cols)] = rng.standard_t(1.3)
        rows.append(row * scale)
    return np.array(rows)


@given(cols=st.integers(min_value=1, max_value=60),
       kinds=st.lists(st.tuples(ROW_KINDS, ROW_SCALES), min_size=1, max_size=25),
       p=st.sampled_from([0.3, 0.5, 1.0, 1.3, 2.0, 3.7, math.inf]),
       tile_bytes=st.one_of(st.just(1), st.integers(min_value=2, max_value=20_000)),
       seed=st.integers(min_value=0, max_value=10_000))
@settings(deadline=None)
def test_row_p_exceeds_equals_norms_above_level(cols, kinds, p, tile_bytes, seed):
    """The exceedance kernel is == the exact norms' comparison at every
    level where the two could part: each row's computed norm and its two
    neighbouring floats. Rows scaled to 1e306 may hold inf entries and
    overflow their sums."""
    with np.errstate(over="ignore", invalid="ignore"):
        matrix = kinds_matrix(np.random.default_rng(seed), cols, kinds)
        norms = row_p_moduli(matrix, p)
    levels = np.concatenate([norms, np.nextafter(norms, -np.inf),
                             np.nextafter(norms, np.inf)])
    with pytest.MonkeyPatch.context() as mp, np.errstate(over="ignore", invalid="ignore"):
        mp.setattr(seqcore, "_TILE_BYTES", tile_bytes)
        for level in levels:
            assert np.array_equal(_row_p_exceeds(matrix, p, level), norms > level)


@pytest.mark.parametrize("p", [1.0, 1.3, 3.7])
def test_row_p_exceeds_runs_the_exact_kernel_on_few_rows(monkeypatch, p):
    # heavy-tailed windows against a far-tail level: for p >= 1 the bounds
    # decide almost every row (for p < 1 the cap n^(1/p - 1) S1 is loose and
    # many rows go to the exact kernel)
    rng = np.random.default_rng(7)
    windows = rng.standard_t(1.3, size=(2_000, 100))
    norms = row_p_moduli(windows, p)
    level = float(np.quantile(norms, 0.99))
    exact_rows = []
    real = seqcore.row_p_moduli

    def spy(matrix, p):
        exact_rows.append(matrix.shape[0])
        return real(matrix, p)

    monkeypatch.setattr(seqcore, "row_p_moduli", spy)
    assert np.array_equal(_row_p_exceeds(windows, p, level), norms > level)
    assert sum(exact_rows) < 0.05 * len(windows)


@given(cols=st.integers(min_value=1, max_value=60),
       kinds=st.lists(st.tuples(ROW_KINDS, ROW_SCALES), min_size=1, max_size=25),
       ps=st.lists(st.sampled_from([0.3, 0.5, 1.0, 1.3, 2.0, 3.7, math.inf]),
                   min_size=1, max_size=4),
       tile_bytes=st.one_of(st.just(1), st.integers(min_value=2, max_value=20_000)),
       seed=st.integers(min_value=0, max_value=10_000))
@settings(deadline=None)
def test_several_exponents_in_one_pass_equal_one_at_a_time(cols, kinds, ps, tile_bytes,
                                                           seed):
    """Row i of row_p_moduli(m, ps) is == row_p_moduli(m, ps[i]), zero rows,
    extreme scales and nan/inf rows of 1e306 entries included, at any tile
    size."""
    with np.errstate(over="ignore", invalid="ignore"):
        matrix = kinds_matrix(np.random.default_rng(seed), cols, kinds)
        want = [row_p_moduli(matrix, p) for p in ps]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(seqcore, "_TILE_BYTES", tile_bytes)
            got = row_p_moduli(matrix, ps)
            assert got.shape == (len(ps), len(matrix))
            for row, norms, p in zip(got, want, ps):
                assert np.array_equal(row, norms, equal_nan=True)
                assert np.array_equal(row_p_moduli(matrix, p), norms, equal_nan=True)
