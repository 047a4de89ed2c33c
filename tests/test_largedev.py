import math

import pytest

from lpblocks import largedev, seqcore
from lpblocks.largedev import (
    RatioEstimate,
    _ratio_from_hits,
    centered_level,
    ld_ratio_centered_mc,
    ld_ratio_mc,
    pilot_level,
)
from lpblocks.models import AR1ModelSpec, LinearModelSpec, NoiseSpec
from lpblocks.seqcore import INF, as_p

IID_PARETO13 = LinearModelSpec(coeffs=(1.0,), noise=NoiseSpec(law="pareto", alpha=1.3))
IID_PARETO15 = LinearModelSpec(coeffs=(1.0,), noise=NoiseSpec(law="pareto", alpha=1.5))
AR1_STUDENT = AR1ModelSpec(phi=0.8, noise=NoiseSpec(law="student", alpha=1.3), burn_in=150)

THETA_08_13 = 0.25180124174190294
C1_08_13 = 2.040416717420179


def test_ratio_from_hits_branches():
    pe = as_p(1.0)
    degenerate = _ratio_from_hits(3, 0, 10, 5.0, pe, 100)
    assert degenerate.degenerate and degenerate.ratio == 0.0

    empty = _ratio_from_hits(0, 5, 10, 5.0, pe, 100)
    assert not empty.degenerate
    assert empty.ratio == 0.0 and empty.std_error == 0.0

    est = _ratio_from_hits(50, 100, 10, 5.0, pe, 1000, z=7.0)
    assert est.ratio == pytest.approx(0.05 / (10 * 0.1), rel=1e-12)
    expected_se = est.ratio * math.sqrt(0.95 / 50 + 0.9 / 100)
    assert est.std_error == pytest.approx(expected_se, rel=1e-12)
    assert est.z == 7.0


def test_validation_errors():
    with pytest.raises(ValueError):
        ld_ratio_mc(IID_PARETO13, 10, 1.3, 0.0, 100, 0)
    with pytest.raises(ValueError):
        ld_ratio_mc(IID_PARETO13, 10, 1.3, 5.0, 0, 0)
    with pytest.raises(ValueError):
        ld_ratio_centered_mc(IID_PARETO13, 10, 1.0, 1.3, 5.0, 0, 0)
    with pytest.raises(ValueError):
        ld_ratio_centered_mc(IID_PARETO13, 10, 1.0, 1.3, 5.0, 100, 0, pilot_reps=0)


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
    # 260k reps at n=50 spans two chunks, so the pool actually runs
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
    # substreams: 2 is the pilot moment, 0 and 1 the ratio's hit counts
    assert sorted(seen) == [(0, 2), (1, 2), (2, 2)]


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
