import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from lpblocks import largedev, models, seqcore
from lpblocks.largedev import (
    RatioEstimate,
    _ratio_from_hits,
    centered_level,
    ld_ratio_centered_mc,
    ld_ratio_mc,
    pilot_level,
)
from lpblocks.models import AR1ModelSpec, LinearModelSpec, NoiseSpec, SeedSpec, simulate_batch
from lpblocks.seqcore import INF, as_p, row_p_moduli

IID_PARETO13 = LinearModelSpec(coeffs=(1.0,), noise=NoiseSpec(law="pareto", alpha=1.3))
IID_PARETO15 = LinearModelSpec(coeffs=(1.0,), noise=NoiseSpec(law="pareto", alpha=1.5))
AR1_STUDENT = AR1ModelSpec(phi=0.8, noise=NoiseSpec(law="student", alpha=1.3), burn_in=150)

THETA_08_13 = 0.25180124174190294
C1_08_13 = 2.040416717420179


def row_sums(num, den):
    """(sum N, sum D, sum N^2, sum D^2, sum N*D, rows) of per-row counts."""
    return (sum(num), sum(den), sum(a * a for a in num), sum(b * b for b in den),
            sum(a * b for a, b in zip(num, den)), len(num))


def delta_se(num, den, n):
    """Delta-method s.e. of mean(N) / (n mean(D)) over rows, with the
    covariance of N and D, from sample moments."""
    N, D = np.asarray(num, float), np.asarray(den, float)
    m = len(N)
    (var_n, cov), (_, var_d) = np.cov(N, D, ddof=1)
    ratio = N.mean() / (n * D.mean())
    rel = var_n / N.mean() ** 2 + var_d / D.mean() ** 2 - 2 * cov / (N.mean() * D.mean())
    return ratio * math.sqrt(rel / m)


def test_ratio_from_hits_branches():
    pe = as_p(1.0)
    degenerate = _ratio_from_hits(row_sums([3, 0], [0, 0]), 10, 5.0, pe, 80)
    assert degenerate.degenerate and degenerate.ratio == 0.0

    empty = _ratio_from_hits(row_sums([0, 0], [5, 0]), 10, 5.0, pe, 80)
    assert not empty.degenerate
    assert empty.ratio == 0.0 and empty.std_error == 0.0

    # per-row counts of 5 rows: windows hit and marginal hits
    num, den = [12, 0, 7, 30, 1], [3, 1, 2, 4, 0]
    est = _ratio_from_hits(row_sums(num, den), 10, 5.0, pe, 200, z=7.0,
                           z_std_error=0.5)
    assert est.ratio == pytest.approx(50 / (10 * 10), rel=1e-12)
    assert est.std_error == pytest.approx(delta_se(num, den, 10), rel=1e-12)
    assert (est.numerator_hits, est.denominator_hits) == (50, 10)
    assert est.z == 7.0 and est.z_std_error == 0.5

    # one row measures no spread
    assert _ratio_from_hits(row_sums([4], [2]), 10, 5.0, pe, 40).std_error == math.inf


def test_validation_errors():
    with pytest.raises(ValueError):
        ld_ratio_mc(IID_PARETO13, 10, 1.3, 0.0, 100, 0)
    with pytest.raises(ValueError):
        ld_ratio_mc(IID_PARETO13, 10, 1.3, 5.0, 0, 0)
    with pytest.raises(ValueError):
        ld_ratio_centered_mc(IID_PARETO13, 10, 1.0, 1.3, 5.0, 0, 0)
    with pytest.raises(ValueError):
        ld_ratio_centered_mc(IID_PARETO13, 10, 1.0, 1.3, 5.0, 100, 0, pilot_reps=0)


@pytest.mark.parametrize("n", [0, -3])
@pytest.mark.parametrize("run", [
    lambda n: ld_ratio_mc(IID_PARETO13, n, 1.3, 5.0, 100, 0),
    lambda n: ld_ratio_centered_mc(IID_PARETO13, n, 1.0, 1.3, 5.0, 100, 0),
    lambda n: pilot_level(IID_PARETO13, n, 1.0, 0.9, reps=100),
], ids=["ld_ratio_mc", "ld_ratio_centered_mc", "pilot_level"])
def test_sample_length_below_one_is_named(run, n):
    with pytest.raises(ValueError, match=f"sample length n must be at least 1, got {n}"):
        run(n)


@pytest.mark.parametrize("run, message", [
    (lambda: ld_ratio_mc(IID_PARETO13, 10, 1.3, 5.0, 0, 0), "reps must be at least 1, got 0"),
    (lambda: ld_ratio_centered_mc(IID_PARETO13, 10, 1.0, 1.3, 5.0, -2, 0),
     "reps must be at least 1, got -2"),
    (lambda: ld_ratio_centered_mc(IID_PARETO13, 10, 1.0, 1.3, 5.0, 100, 0, pilot_reps=0),
     "pilot_reps must be at least 1, got 0"),
    (lambda: pilot_level(IID_PARETO13, 10, 1.0, 0.9, reps=0), "reps must be at least 1, got 0"),
], ids=["ld_ratio_mc", "ld_ratio_centered_mc-reps", "ld_ratio_centered_mc-pilot_reps",
        "pilot_level"])
def test_counts_below_one_are_named(run, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        run()


@pytest.mark.parametrize("x", [math.inf, math.nan, 0.0, -1.0])
@pytest.mark.parametrize("run", [
    lambda x: ld_ratio_mc(IID_PARETO13, 10, 1.3, x, 100, 0),
    lambda x: ld_ratio_centered_mc(IID_PARETO13, 10, 1.0, 1.3, x, 100, 0),
    lambda x: centered_level(1.0, 1.3, x, 10, moment_p=1.0),
], ids=["ld_ratio_mc", "ld_ratio_centered_mc", "centered_level"])
def test_level_outside_zero_inf_is_named(run, x):
    # an infinite level would count no hit and report a degenerate ratio of 0
    with pytest.raises(ValueError, match=f"^x must be positive and finite, got {x}$"):
        run(x)


@pytest.mark.parametrize("alpha", [math.nan, math.inf])
@pytest.mark.parametrize("run", [
    lambda a: ld_ratio_centered_mc(MA3_PARETO13, 50, 1.0, a, 500.0, 100, 0),
    lambda a: centered_level(1.0, a, 500.0, 50, moment_p=1.0),
], ids=["ld_ratio_centered_mc", "centered_level"])
def test_non_finite_tail_index_is_named_before_any_draw(run, alpha):
    # a nan alpha drew the whole pilot moment before failing; an inf alpha
    # returned an estimate
    before = largedev._drawn.copy()
    with pytest.raises(ValueError, match=f"^alpha must be positive and finite, got {alpha}$"):
        run(alpha)
    assert largedev._drawn == before


def test_centered_level_forms():
    # p < alpha: z = x (n E|X|^p / x^p + 1)^(1/p)
    assert centered_level(1.0, 1.3, 1000.0, 100, moment_p=1.0) == pytest.approx(1100.0, rel=1e-12)
    assert centered_level(1.0, 1.5, 250.0, 60, moment_p=3.0) == pytest.approx(430.0, rel=1e-12)
    # p > alpha: the level is not moved and takes no moment
    assert centered_level(2.0, 1.3, 50.0, 100) == 50.0
    assert centered_level(INF, 1.3, 50.0, 100) == 50.0
    with pytest.raises(ValueError):
        centered_level(2.0, 1.3, 50.0, 100, moment_p=1.0)
    with pytest.raises(ValueError):
        centered_level(1.0, 1.3, 50.0, 100)
    with pytest.raises(ValueError):
        centered_level(1.0, 1.3, 50.0, 100, moment_p=0.0)
    with pytest.raises(ValueError):
        centered_level(1.0, 0.0, 50.0, 100, moment_p=1.0)
    with pytest.raises(ValueError):
        centered_level(1.0, 1.3, 0.0, 100, moment_p=1.0)


def test_centered_level_vanishing_correction():
    # when n E|X|^p / x^p -> 0 the centered level collapses onto x
    z = centered_level(1.0, 1.3, 1e12, 100, moment_p=1.0)
    assert z == pytest.approx(1e12, rel=1e-9)


def test_iid_pareto_ratio_at_p_alpha():
    est = ld_ratio_mc(IID_PARETO13, 50, 1.3, 1000.0, 400_000, 1)
    assert not est.degenerate
    # the +0.05 covers residual finite-level bias beyond Monte Carlo noise
    assert abs(est.ratio - 1.0) <= 3 * est.std_error + 0.05


def test_ar1_ratio_at_p_alpha():
    est = ld_ratio_mc(AR1_STUDENT, 100, 1.3, 3000.0, 400_000, 0)
    assert abs(est.ratio - 1.0) <= 3 * est.std_error + 0.05


def test_ar1_ratio_at_p_inf_matches_extremal_index():
    est = ld_ratio_mc(AR1_STUDENT, 100, INF, 1000.0, 200_000, 0)
    assert abs(est.ratio - THETA_08_13) <= 3 * est.std_error + 0.03
    assert est.ratio < 1.0  # clustering shrinks the maximum's tail constant


def test_centered_vs_uncentered_sum_levels():
    # at x of the order of n E|X| the raw ratio blows up; recentering the
    # level by the mean restores the c(1) = 1 limit for iid sums
    centered = ld_ratio_centered_mc(IID_PARETO15, 60, 1, 1.5, 250.0, 300_000, 0,
                                    pilot_reps=400_000)
    plain = ld_ratio_mc(IID_PARETO15, 60, 1, 250.0, 300_000, 0)
    assert centered.z == pytest.approx(430.0, rel=0.05)
    assert abs(centered.ratio - 1.0) <= 3 * centered.std_error + 0.1
    assert plain.ratio > 2 * centered.ratio


def test_centered_ar1_cluster_sum():
    # dependent sums: the centered ratio approaches c(1); the 0.3 slack covers
    # cluster truncation at the window edges, which decays like span/n
    est = ld_ratio_centered_mc(AR1_STUDENT, 300, 1, 1.3, 2500.0, 400_000, 0,
                               pilot_reps=400_000)
    assert abs(est.ratio - C1_08_13) <= 3 * est.std_error + 0.3
    assert est.ratio > 1.2


def test_p_above_alpha_centered_coincides_with_plain():
    centered = ld_ratio_centered_mc(IID_PARETO13, 50, 2.0, 1.3, 40.0, 20_000, 3)
    plain = ld_ratio_mc(IID_PARETO13, 50, 2.0, 40.0, 20_000, 3)
    assert centered.z == 40.0
    assert centered.numerator_hits == plain.numerator_hits
    assert centered.denominator_hits == plain.denominator_hits
    assert centered.ratio == plain.ratio


def test_degenerate_when_level_unreachable():
    est = ld_ratio_mc(IID_PARETO13, 20, 1.3, 1e12, 2_000, 0)
    assert est.degenerate
    assert est.ratio == 0.0 and est.std_error == 0.0
    assert est.denominator_hits == 0


def test_threads_do_not_change_results():
    # 260k windows at n=50 span seven chunks, so the pool actually runs
    serial = ld_ratio_mc(IID_PARETO13, 50, 1.3, 200.0, 260_000, 5, threads=1)
    parallel = ld_ratio_mc(IID_PARETO13, 50, 1.3, 200.0, 260_000, 5, threads=2)
    assert isinstance(serial, RatioEstimate)
    assert serial == parallel


def test_centered_pilot_moment_runs_on_the_requested_workers(monkeypatch):
    # every chunk loop of the centered ratio, the pilot moment included,
    # gets the worker count; the pool runs in-process here
    seen = []

    def spy(fn, tasks, threads):
        seen.append((tasks[0][5][0], threads))
        return [fn(*t) for t in tasks]

    monkeypatch.setattr(largedev, "_pool_map", spy)
    ld_ratio_centered_mc(IID_PARETO13, 10, 1.0, 1.3, 50.0, 1_000, 3,
                         pilot_reps=1_000, threads=2)
    # substreams: 2 is the pilot moment, 0 the ratio's windows, whose first
    # entries are also the denominator's draws
    assert sorted(seen) == [(0, 2), (2, 2)]


def test_pilot_level_runs_on_the_requested_workers(monkeypatch):
    # the pilot's chunk loop gets the worker count and keeps its chunk
    # layout, so its level is the same; the pool runs in-process here
    seen = []

    def spy(fn, tasks, threads):
        seen.append((len(tasks), threads))
        return [fn(*t) for t in tasks]

    one = pilot_level(IID_PARETO13, 50, 1.3, 0.99, reps=100_000, seed=4)
    monkeypatch.setattr(largedev, "_pool_map", spy)
    assert pilot_level(IID_PARETO13, 50, 1.3, 0.99, reps=100_000, seed=4,
                       threads=2) == one
    assert seen == [(3, 2)]


def test_pilot_level_monotone_in_q():
    lo = pilot_level(IID_PARETO13, 20, 1.3, 0.9, reps=5_000, seed=0)
    hi = pilot_level(IID_PARETO13, 20, 1.3, 0.99, reps=5_000, seed=0)
    assert 0 < lo < hi
    with pytest.raises(ValueError):
        pilot_level(IID_PARETO13, 20, 1.3, 1.0)
    with pytest.raises(ValueError):
        pilot_level(IID_PARETO13, 20, 1.3, 0.5, reps=0)


@pytest.mark.parametrize("tile_bytes", [1, 8 * 30 * 7 + 5])
def test_row_tiles_do_not_change_results(monkeypatch, tile_bytes):
    # 1 byte: one row per tile; otherwise 7 rows, which divide no chunk
    ma = LinearModelSpec(coeffs=(1.0, -0.7, 0.5), noise=NoiseSpec(law="pareto", alpha=1.3))

    def run():
        return (ld_ratio_mc(ma, 30, 1.3, 50.0, 3_001, 6),
                ld_ratio_centered_mc(ma, 30, 1.0, 1.3, 50.0, 3_001, 7, pilot_reps=3_000),
                pilot_level(AR1_STUDENT, 30, 0.5, 0.95, reps=3_001, seed=8))

    whole = run()
    assert whole[0].numerator_hits > 0 and whole[0].denominator_hits > 0
    monkeypatch.setattr(seqcore, "_TILE_BYTES", tile_bytes)
    assert run() == whole


MA_PARETO13 = LinearModelSpec(coeffs=(1.0, -0.7, 0.5), noise=NoiseSpec(law="pareto", alpha=1.3))
K = largedev._WINDOWS


def hand_cut_counts(model, n, p, x, reps, seed):
    """Per-row (N, D) of `reps` windows cut by hand: rows of K windows drawn
    on substream 0 as one chunk, then the shorter last row as the next."""
    seed, pe = SeedSpec(seed), as_p(p)
    full, short = divmod(reps, K)
    shapes = [(w, r) for w, r in ((K, full), (short, 1)) if w and r]
    num, den = [], []
    for i, (windows, rows) in enumerate(shapes):
        for row in simulate_batch(model, windows * n, rows, seed.generator(0, i)):
            cut = row.reshape(windows, n)
            num.append(int(np.sum(row_p_moduli(cut, pe) > x)))
            den.append(int(np.sum(np.abs(cut[:, 0]) > x)))
    return num, den


@pytest.mark.parametrize("model, p, x, reps", [
    (AR1_STUDENT, 1.3, 15.0, 1200),
    (AR1_STUDENT, INF, 10.0, 1001),
    (MA_PARETO13, 1.0, 30.0, 1001),
    (MA_PARETO13, 1.3, 2.0, 7),
])
def test_window_counts_equal_hand_cut_rows(model, p, x, reps):
    n = 20
    num, den = hand_cut_counts(model, n, p, x, reps, 11)
    assert sum(num) > 0 and sum(den) > 0
    est = ld_ratio_mc(model, n, p, x, reps, 11)
    assert (est.numerator_hits, est.denominator_hits) == (sum(num), sum(den))
    assert est.ratio == sum(num) / (n * sum(den))
    if len(num) > 1:
        assert est.std_error == pytest.approx(delta_se(num, den, n), rel=1e-12)
    else:
        assert est.std_error == math.inf


@pytest.mark.parametrize("reps, shapes", [
    (1001, [(40 * 20, 25), (1 * 20, 1)]),
    (1000, [(40 * 20, 25)]),
    (7, [(7 * 20, 1)]),
])
def test_reps_is_the_exact_window_count(monkeypatch, reps, shapes):
    # a remainder of reps over K windows is one shorter last row
    drawn = []

    def spy(model, width, count, seed):
        drawn.append((width, count))
        return simulate_batch(model, width, count, seed)

    monkeypatch.setattr(largedev, "simulate_batch", spy)
    est = ld_ratio_mc(AR1_STUDENT, 20, 1.3, 15.0, reps, 2)
    assert est.reps == reps
    assert drawn == shapes
    assert sum(width for width, count in drawn for _ in range(count)) == 20 * reps


def test_level_error_from_hand_cut_moment_rows():
    # p = alpha: the moment is truncated at x, so it has a finite variance;
    # 5,000 entries are 6 rows of 40 * 20 and a last row of 200
    n, x, pilot = 20, 30.0, 5_000
    seed = SeedSpec(4)
    rows = [*simulate_batch(MA_PARETO13, 800, 6, seed.generator(2, 0)),
            *simulate_batch(MA_PARETO13, 200, 1, seed.generator(2, 1))]
    a = [np.abs(row) for row in rows]
    sums = np.array([np.sum(np.where(v <= x, v, 0.0) ** 1.3) for v in a])
    lengths = np.array([len(v) for v in a], float)
    moment = sums.sum() / pilot
    resid = sums - moment * lengths
    moment_se = math.sqrt(resid @ resid * 7 / 6) / pilot
    z = centered_level(1.3, 1.3, x, n, moment)
    h = 1e-6 * moment
    dz = (centered_level(1.3, 1.3, x, n, moment + h)
          - centered_level(1.3, 1.3, x, n, moment - h)) / (2 * h)

    est = ld_ratio_centered_mc(MA_PARETO13, n, 1.3, 1.3, x, 1_000, 4, pilot_reps=pilot)
    assert est.z == pytest.approx(z, rel=1e-12)
    assert 0 < est.z_std_error < math.inf
    assert est.z_std_error == pytest.approx(dz * moment_se, rel=1e-6)


def test_level_error_is_infinite_where_the_moment_variance_is():
    def z_se(p):
        return ld_ratio_centered_mc(MA_PARETO13, 20, p, 1.3, 30.0, 1_000, 4,
                                    pilot_reps=5_000).z_std_error

    # p < alpha <= 2p: E|X|^(2p) is infinite, so no finite s.e. covers z
    assert z_se(1.0) == math.inf
    assert z_se(0.65) == math.inf
    # 2p < alpha: finite; p > alpha: z = x exactly
    assert 0 < z_se(0.5) < math.inf
    assert z_se(2.0) == 0.0
    assert ld_ratio_mc(MA_PARETO13, 20, 1.0, 30.0, 1_000, 4).z_std_error is None


MA3_PARETO13 = LinearModelSpec(coeffs=(1.0, -0.7, 0.5, 0.3),
                               noise=NoiseSpec(law="pareto", alpha=1.3))


def _golden_estimates():
    """pilot_level, ld_ratio_mc and ld_ratio_centered_mc at each p on an MA(3)
    with Pareto noise and an AR(1) with Student noise. 100,001 windows of 20
    span three chunks on both models: 99,600 (MA) or 84,200 (AR) windows in
    the first."""
    n, reps = 20, 100_001
    for model in (MA3_PARETO13, AR1_STUDENT):
        for p in (0.5, 1.0, 1.3, 2.0, INF):
            level = pilot_level(model, n, p, 0.99, reps=reps, seed=21)
            yield level
            yield ld_ratio_mc(model, n, p, level, reps, 22)
            yield ld_ratio_centered_mc(model, n, p, 1.3, level, reps, 23,
                                       pilot_reps=5_000)


def test_ld_estimates_are_pinned():
    # every LD count goes through the window kernel and every level through
    # the pilot's norms; a change to either that moves one hit changes the
    # digest
    digest = hashlib.sha256()
    for value in _golden_estimates():
        digest.update(repr(value).encode())
    assert digest.hexdigest() == (
        "3d1c435b90233c2cad5329543a24b12c43f8fa2ddeddab8b15bea1db20fd4cb9")


MA3_STUDENT13 = LinearModelSpec(coeffs=MA3_PARETO13.coeffs, noise=AR1_STUDENT.noise)


@pytest.mark.parametrize("tile_rows", [1, 7, None], ids=["1-row", "7-rows", "default"])
@pytest.mark.parametrize("model", [MA3_PARETO13, MA3_STUDENT13, AR1_STUDENT],
                         ids=["ma3-pareto", "ma3-student", "ar1-student"])
def test_ld_chunk_tiles_equal_whole_chunk(monkeypatch, model, tile_rows):
    # a chunk drawn, filtered and reduced one tile at a time gives, row for
    # row, the reducer's arrays on the whole chunk: 250 rows are tiles of 1,
    # of 7 (which divide no chunk) or of the default 108; Student noise
    # always takes the whole chunk, since its normals come first
    n, width, count = 20, 800, 250
    seed, subkey = SeedSpec(31), (0, 2)
    pe = as_p(1.3)
    whole = simulate_batch(model, width, count, seed.generator(*subkey))
    level = float(np.quantile(row_p_moduli(whole.reshape(-1, n), pe), 0.95))
    reducers = [(largedev._window_chunk, (n, pe, level, level)),
                (largedev._norms_chunk, (n, pe)),
                (largedev._moment_chunk, (1.3, level))]
    expected = [reduce(simulate_batch(model, width, count, seed.generator(*subkey)), *extra)
                for reduce, extra in reducers]
    if tile_rows is not None:
        monkeypatch.setattr(seqcore, "_TILE_BYTES", tile_rows * 3 * 8 * (width + model.lead))
    step = models._tile_rows(model, width, count)
    assert step == (tile_rows or 108 if model is MA3_PARETO13 else count)
    for (reduce, extra), want in zip(reducers, expected):
        got = largedev._run_chunk(reduce, model, width, count, seed, subkey, extra)
        assert len(got) == len(want)
        for column, want_column in zip(got, want):
            assert column.dtype == want_column.dtype
            assert np.array_equal(column, want_column)
    assert expected[0][0].sum() > 0


@pytest.mark.parametrize("model", [MA3_PARETO13, MA3_STUDENT13, AR1_STUDENT],
                         ids=["ma3-pareto", "ma3-student", "ar1-student"])
def test_drawn_tiles_are_the_tiles_that_run(monkeypatch, model):
    # the tile count that ldratio reports is worked out apart from the chunk
    # loop, which draws one batch per tile: 10,001 windows of 20 (and as many
    # moment entries) are a chunk of 250 rows and one of a single row; the
    # Pareto average takes its 250 rows in tiles of 108
    drawn = []

    def spy(model, width, count, seed):
        drawn.append(count)
        return simulate_batch(model, width, count, seed)

    monkeypatch.setattr(largedev, "simulate_batch", spy)
    before = largedev._drawn.copy()
    ld_ratio_centered_mc(model, 20, 1.0, 1.3, 30.0, 10_001, 5, pilot_reps=200_020)
    tiles, rows, chunks = (largedev._drawn[key] - before[key]
                           for key in ("tiles", "rows", "chunks"))
    assert (tiles, rows, chunks) == (len(drawn), sum(drawn), 4)
    assert tiles == (8 if model is MA3_PARETO13 else 4)


def test_a_call_that_raises_counts_no_draws():
    # the draws are counted once every chunk has returned: a worker count
    # below one fails before any chunk runs, and a reducer that fails on the
    # second chunk (405 values of windows of 10: a row of 400, then one of
    # 5) leaves the first chunk uncounted too
    before = largedev._drawn.copy()
    with pytest.raises(ValueError, match="threads must be at least 1"):
        ld_ratio_mc(AR1_STUDENT, 100, INF, 2000.0, 100_000, 0, threads=0)
    assert largedev._drawn == before
    widths = []

    def fail_on_second_chunk(rows):
        widths.append(rows.shape[1])
        if len(widths) == 2:
            raise RuntimeError("second chunk")
        return (rows.sum(axis=1),)

    with pytest.raises(RuntimeError, match="second chunk"):
        largedev._map_chunks(fail_on_second_chunk, IID_PARETO13,
                             largedev._row_values(IID_PARETO13, 10), 405, SeedSpec(3), 0)
    assert widths == [400, 5]
    assert largedev._drawn == before


@pytest.mark.parametrize("reduce, extra, per_row", [
    (largedev._window_chunk, (100, as_p(1.3), 500.0, 500.0), 1),
    (largedev._norms_chunk, (100, as_p(1.3)), 40),
    (largedev._moment_chunk, (1.3, 500.0), 1),
], ids=["window", "norms", "moment"])
def test_ld_pareto_chunk_peak_is_tile_sized(reduce, extra, per_row):
    # a 499 x 4003 chunk of an MA(3) with Pareto noise is 16 MB of noise, but
    # each reducer has it drawn, filtered and reduced one tile at a time: a
    # tile's noise, the filter's two buffers and the reducer's temporaries
    # stay under 4 MB
    width = largedev._row_values(MA3_PARETO13, 100)
    assert largedev._chunk_shapes(MA3_PARETO13, width, 499 * width) == [(4000, 499)]

    def run(rows):
        return largedev._map_chunks(reduce, MA3_PARETO13, width, rows * width,
                                    SeedSpec(14), 0, extra)

    run(1)  # first-call allocations
    tracemalloc.start()
    try:
        columns = run(499)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [len(column) for column in columns] == [499 * per_row] * len(columns)
    assert columns[0].sum() > 0
    assert peak < 4_000_000


@pytest.mark.parametrize("reduce, extra, per_row", [
    (largedev._window_chunk, (100, INF, 2000.0, 2000.0), 1),
    (largedev._window_chunk, (100, as_p(1.3), 2000.0, 2000.0), 1),
    (largedev._norms_chunk, (100, as_p(1.3)), 40),
], ids=["window-inf", "window-1.3", "norms"])
def test_ld_whole_chunk_is_reduced_in_row_tiles(reduce, extra, per_row):
    # an AR(1) chunk with Student noise is drawn whole: 481 rows of 150 + 4000
    # values are 16.0 MB, but the row kernels take its windows one row tile at
    # a time, so their temporaries (the np.abs copy, the powers) are two
    # tile-sized arrays, not chunk-sized ones; the per-row columns take well
    # under 1 MB
    width = largedev._row_values(AR1_STUDENT, 100)
    assert largedev._chunk_shapes(AR1_STUDENT, width, 481 * width) == [(4000, 481)]

    def run(rows):
        return largedev._map_chunks(reduce, AR1_STUDENT, width, rows * width,
                                    SeedSpec(15), 0, extra)

    run(1)  # first-call allocations
    tracemalloc.start()
    try:
        columns = run(481)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [len(column) for column in columns] == [481 * per_row] * len(columns)
    assert peak < 481 * (150 + 4000) * 8 + 2 * seqcore._TILE_BYTES + 1_000_000


@pytest.mark.parametrize("reduce, extra", [
    (largedev._window_chunk, (49_000, INF, 2000.0, 2000.0)),
    (largedev._window_chunk, (49_000, as_p(1.3), 2000.0, 2000.0)),
    (largedev._norms_chunk, (49_000, as_p(1.3))),
], ids=["window-inf", "window-1.3", "norms"])
def test_ld_long_windows_are_reduced_in_row_tiles(reduce, extra):
    # at n = 49,000 a chunk is one row of 40 windows (15.7 MB), which the chunk
    # loop cannot split; the reducers' (40, n) window matrix is still taken
    # one row tile of windows at a time, not whole
    n = extra[0]
    width = largedev._row_values(AR1_STUDENT, n)
    assert width == 40 * n
    assert largedev._chunk_shapes(AR1_STUDENT, width, width) == [(width, 1)]
    rows = np.random.default_rng(16).standard_t(1.3, size=(1, width))
    reduce(rows[:, : 2 * n], *extra)  # first-call allocations
    tracemalloc.start()
    try:
        columns = reduce(rows, *extra)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(columns[0]) in (1, 40)
    assert peak < 3 * seqcore._TILE_BYTES
