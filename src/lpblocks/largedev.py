"""Empirical checks of the large-deviation block limit: the ratio
P(||X_[1,n]||_p > x) / (n P(|X_0| > x)) estimated by Monte Carlo, and the
centered threshold levels z_n that remove the small-value bias for p <= alpha.

Both tails are estimated empirically (no analytic tail constants). The Monte
Carlo simulates long rows: each row keeps k * n values after a single
``model.lead`` (k = ``_WINDOWS``, lowered only where one row would exceed the
chunk budget) and is cut into k length-n windows. The numerator counts the
windows with ||w||_p above the level; the denominator takes one marginal
draw per window, its first entry, against x, so it costs no extra draws.
``reps`` is the exact window count: when k does not divide it, the last row
is shorter. Windows of one row are dependent, rows are independent, so the
row is the iid unit: each chunk returns per-row counts N (windows hit) and
D (marginal hits), and the standard error of sum N / (n sum D) is the delta
method over rows, covariance included.

The pilot level cuts the same rows into the same windows, and the pilot
moment of the centered level averages every kept entry of rows of the same
kind; its standard error is taken over rows too and carried into the
level's (``RatioEstimate.z_std_error``).

Every simulation goes through one chunk loop, :func:`_map_chunks`: rows are
split into chunks of fixed size, chunk i of substream s drawn from
``seed.generator(s, i)``, so results are byte-identical for any worker
count. Each chunk is drawn, filtered and reduced one row tile
(``models._tile_rows``) at a time, in new arrays: a moving average of Pareto
noise takes several tiles, any other chunk is one tile whose noise array the
filter overwrites. The count asks only whether each window's norm is above
the level: ``seqcore._row_p_exceeds`` answers from each window's max and l1
sum, and ``seqcore.row_p_moduli`` the windows those leave undecided, so the
counts are those of the exact norms; the pilot level's quantile takes every
norm from ``row_p_moduli``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import models
from .models import Model, SeedSpec, _as_seed, _batch_rows, _pool_map, simulate_batch
from .seqcore import PExponent, _row_p_exceeds, as_p, row_p_moduli
from .spectral import _check_alpha

__all__ = [
    "RatioEstimate",
    "ld_ratio_mc",
    "ld_ratio_centered_mc",
    "centered_level",
    "pilot_level",
]

# length-n windows per simulated row: one lead is paid per _WINDOWS windows
_WINDOWS = 40

# values drawn, rows, chunks and tiles of every chunk loop that returned in this
# process; a caller reads the difference across a call (``lpblocks ldratio`` prints it)
_drawn: Counter = Counter()


def _row_values(model: Model, n: int) -> int:
    """Kept values of a full row: _WINDOWS windows of n, fewer where one row
    would exceed the chunk budget, and never less than one window."""
    if n < 1:
        raise ValueError(f"sample length n must be at least 1, got {n}")
    fit = (models._CHUNK_ELEMENTS - model.lead) // n
    return n * max(1, min(_WINDOWS, fit))


def _chunk_shapes(model: Model, row_values: int, total: int) -> list:
    """(kept values per row, rows) of each chunk holding `total` kept values:
    full rows of `row_values`, as many to a chunk as fit the budget, then one
    shorter last row for the remainder."""
    full, rest = divmod(total, row_values)
    per_chunk = _batch_rows(row_values + model.lead)
    whole, part = divmod(full, per_chunk)
    shapes = [(row_values, per_chunk)] * whole + ([(row_values, part)] if part else [])
    return shapes + ([(rest, 1)] if rest else [])


def _run_chunk(reduce, model, width, count, seed, subkey, extra) -> tuple:
    """reduce(rows, *extra) on chunk `subkey`, one tile of rows at a time."""
    rng = seed.generator(*subkey)
    step = models._tile_rows(model, width, count)
    tiles = [reduce(simulate_batch(model, width, min(step, count - start), rng), *extra)
             for start in range(0, count, step)]
    return tuple(np.concatenate(column) for column in zip(*tiles))


def _map_chunks(reduce, model: Model, row_values: int, total: int, seed: SeedSpec,
                stream: int, extra=(), threads: int = 1) -> list:
    """reduce(rows, *extra) over the chunks of :func:`_chunk_shapes`, each of
    its per-row arrays concatenated. Chunk i draws from seed.generator(stream,
    i); ``reduce``, module-level so that workers can unpickle it, returns a
    tuple of arrays and may overwrite `rows`."""
    shapes = _chunk_shapes(model, row_values, total)
    tasks = [(reduce, model, width, count, seed, (stream, i), extra)
             for i, (width, count) in enumerate(shapes)]
    chunks = _pool_map(_run_chunk, tasks, threads)
    for width, count in shapes:
        _drawn.update(values=count * (width + model.lead), rows=count, chunks=1,
                      tiles=-(-count // models._tile_rows(model, width, count)))
    return [np.concatenate(column) for column in zip(*chunks)]


def _window_chunk(rows, n, pe, level, x) -> tuple:
    """Per-row N and D: N counts a row's length-n windows with p-norm above
    `level`, D the windows whose first entry exceeds x in absolute value."""
    windows = rows.reshape(-1, n)
    num = _row_p_exceeds(windows, pe, level).reshape(len(rows), -1).sum(axis=1)
    den = (np.abs(windows[:, 0]) > x).reshape(len(rows), -1).sum(axis=1)
    return num, den


def _norms_chunk(rows, n, pe) -> tuple:
    return (row_p_moduli(rows.reshape(-1, n), pe),)


def _moment_chunk(rows, pv, cap) -> tuple:
    """Per-row sums of |x|^pv, entries above `cap` counted as 0; overwrites `rows`."""
    a = np.abs(rows, out=rows)
    if cap is not None:
        a[a > cap] = 0.0
    a **= pv
    return (a.sum(axis=1),)


@dataclass(frozen=True)
class RatioEstimate:
    """Monte Carlo large-deviation ratio with its standard error, the delta
    method over independent rows of windows. ``z_std_error`` is the s.e. of
    the centered level z from its pilot moment: 0.0 where z = x exactly, inf
    where that moment has infinite variance."""

    numerator_hits: int
    denominator_hits: int
    ratio: float
    std_error: float
    n: int
    x: float
    p: PExponent
    reps: int
    degenerate: bool = False
    z: Optional[float] = None
    z_std_error: Optional[float] = None


def _ratio_from_hits(sums, n, x, pe, reps, z=None, z_std_error=None) -> RatioEstimate:
    """Ratio sum N / (n sum D) from per-row sums (N, D, N^2, D^2, N*D, rows).

    Its variance is sum_r (N_r - R' D_r)^2 / (n sum D)^2 with R' = sum N / sum D,
    scaled by rows / (rows - 1): the delta method with sample covariances. The
    residual sum times (sum D)^2 is formed in exact integers; one row leaves
    the spread unmeasured and gives an infinite s.e.
    """
    num, den, num2, den2, cross, rows = sums
    if den == 0:
        return RatioEstimate(num, 0, 0.0, 0.0, n, x, pe, reps, degenerate=True,
                             z=z, z_std_error=z_std_error)
    if num == 0:
        return RatioEstimate(0, den, 0.0, 0.0, n, x, pe, reps, z=z,
                             z_std_error=z_std_error)
    ratio = num / (n * den)
    resid = den * den * num2 - 2 * num * den * cross + num * num * den2
    if rows > 1:
        se = math.sqrt(resid * rows / (rows - 1)) / (n * den * den)
    else:
        se = math.inf
    return RatioEstimate(num, den, ratio, se, n, x, pe, reps, z=z,
                         z_std_error=z_std_error)


def _ratio_mc(model, n, pe, level, x, reps, seed, threads, z=None,
              z_std_error=None) -> RatioEstimate:
    """Windows with ||w||_p > level and first entries with |w_1| > x, counted
    on substream 0."""
    num, den = _map_chunks(_window_chunk, model, _row_values(model, n), reps * n,
                           seed, 0, (n, pe, level, x), threads)
    sums = (int(num.sum()), int(den.sum()), int(num @ num), int(den @ den),
            int(num @ den), len(num))
    return _ratio_from_hits(sums, n, x, pe, reps, z=z, z_std_error=z_std_error)


def ld_ratio_mc(model: Model, n: int, p, x: float, reps: int, seed,
                threads: int = 1) -> RatioEstimate:
    """Estimate P(||X_[1,n]||_p > x) / (n P(|X_0| > x)) by simulation.

    The numerator counts `reps` length-n windows cut from long rows; the
    denominator takes the first entry of each window as a stationary marginal
    draw against the same level x. The limit of this ratio along far-tail
    levels is c(p).
    """
    if reps < 1:
        raise ValueError(f"reps must be at least 1, got {reps}")
    if not 0 < x < math.inf:
        raise ValueError(f"x must be positive and finite, got {x!r}")
    return _ratio_mc(model, n, as_p(p), x, x, reps, _as_seed(seed), threads)


def centered_level(p, alpha: float, x: float, n: int, moment_p: Optional[float] = None) -> float:
    """Auxiliary level z_n matching the centered large-deviation statement.

    p < alpha: z = x (n x^-p E|X|^p + 1)^(1/p) with moment_p = E|X|^p;
    p = alpha: same formula with the truncated moment E[|X|^a 1(|X| <= x)];
    p > alpha: z = x and no moment may be supplied.
    """
    _check_alpha(alpha)
    if not 0 < x < math.inf:
        raise ValueError(f"x must be positive and finite, got {x!r}")
    if n < 1:
        raise ValueError(f"sample length n must be at least 1, got {n}")
    pe = as_p(p)
    if pe.is_inf or pe.value > alpha:
        if moment_p is not None:
            raise ValueError("p > alpha takes no moment; z equals x")
        return x
    if moment_p is None or not moment_p > 0:
        raise ValueError("p <= alpha requires a positive moment_p")
    pv = pe.value
    return x * (n * moment_p / x ** pv + 1.0) ** (1.0 / pv)


def _pilot_moment(model, n, pv, alpha, x, total, seed, threads) -> tuple:
    """(moment, s.e.) of E|X|^pv from `total` kept entries on substream 2,
    truncated at x where pv == alpha. The s.e. is over rows; it is inf where
    E|X|^(2 pv) is infinite (alpha <= 2 pv without truncation) or one row
    leaves the spread unmeasured."""
    cap = x if pv == alpha else None
    row_values = _row_values(model, n)
    sums, = _map_chunks(_moment_chunk, model, row_values, total, seed, 2,
                        (pv, cap), threads)
    moment = float(sums.sum()) / total
    rows = len(sums)
    if (cap is None and alpha <= 2 * pv) or rows < 2:
        return moment, math.inf
    lengths = np.full(rows, float(row_values))
    lengths[-1] = total - row_values * (rows - 1)
    resid = sums - moment * lengths
    return moment, math.sqrt(float(resid @ resid) * rows / (rows - 1)) / total


def ld_ratio_centered_mc(model: Model, n: int, p, alpha: float, x: float,
                         reps: int, seed, pilot_reps: int = 1_000_000,
                         threads: int = 1) -> RatioEstimate:
    """Centered variant of ld_ratio_mc.

    The numerator level is z_n from centered_level, with the required moment
    averaged over `pilot_reps` kept entries of the same long rows; the
    denominator stays at x. The moment's s.e. over rows, carried through z's
    derivative in the moment, is ``z_std_error``. For p > alpha this
    coincides with ld_ratio_mc and z_std_error is 0.
    """
    _check_alpha(alpha)
    if reps < 1:
        raise ValueError(f"reps must be at least 1, got {reps}")
    if pilot_reps < 1:
        raise ValueError(f"pilot_reps must be at least 1, got {pilot_reps}")
    if not 0 < x < math.inf:
        raise ValueError(f"x must be positive and finite, got {x!r}")
    seed = _as_seed(seed)
    pe = as_p(p)
    pv = pe.value
    moment, z_se = None, 0.0
    if not (pe.is_inf or pv > alpha):
        moment, moment_se = _pilot_moment(model, n, pv, alpha, x, pilot_reps, seed,
                                          threads)
        if not moment > 0:
            raise ValueError("pilot moment estimate is zero; increase pilot_reps")
    z = centered_level(pe, alpha, x, n, moment)
    if moment is not None:
        # dz/dm = z n / (p (n m + x^p))
        z_se = z * n * moment_se / (pv * (n * moment + x ** pv))
    return _ratio_mc(model, n, pe, z, x, reps, seed, threads, z=z, z_std_error=z_se)


def pilot_level(model: Model, n: int, p, q: float, reps: int = 20_000, seed=0,
                threads: int = 1) -> float:
    """q-quantile of ||X_[1,n]||_p over `reps` windows of the same long rows;
    far-tail levels for the ratio checks are usually placed at q in
    [0.99, 0.9999]. The quantile needs every norm, so the windows go through
    :func:`seqcore.row_p_moduli`."""
    if not 0 < q < 1:
        raise ValueError("q must lie in (0, 1)")
    if reps < 1:
        raise ValueError(f"reps must be at least 1, got {reps}")
    norms, = _map_chunks(_norms_chunk, model, _row_values(model, n), reps * n,
                         _as_seed(seed), 3, (n, as_p(p)), threads)
    return float(np.quantile(norms, q))
