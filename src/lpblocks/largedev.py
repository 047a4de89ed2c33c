"""Empirical checks of the large-deviation block limit: the ratio
P(||X_[1,n]||_p > x) / (n P(|X_0| > x)) estimated by Monte Carlo, and the
centered threshold levels z_n that remove the small-value bias for p <= alpha.

Both tails are estimated empirically (no analytic tail constants); the
denominator uses a matched count of independent stationary marginal draws.
Every simulation here, tail hits, pilot moment and pilot level, goes through
one chunk loop, :func:`_map_chunks`: replications are split into fixed-size
chunks, chunk i of substream s drawn from ``seed.generator(s, i)``, so
results are byte-identical for any worker count. Within a chunk,
:func:`seqcore.row_p_moduli` takes the p-norms of the simulated rows one
cache-sized row tile at a time, so the kernel's temporaries stay small and
peak memory is the chunk's noise and filter arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .models import Model, SeedSpec, _as_seed, _batch_rows, _pool_map, simulate_batch
from .seqcore import PExponent, as_p, row_p_moduli

__all__ = [
    "RatioEstimate",
    "ld_ratio_mc",
    "ld_ratio_centered_mc",
    "centered_level",
    "pilot_level",
]

def _run_chunk(reduce, model, n, count, seed, subkey, extra):
    return reduce(simulate_batch(model, n, count, seed.generator(*subkey)), *extra)


def _map_chunks(reduce, model: Model, n: int, reps: int, seed: SeedSpec,
                stream: int, extra=(), threads: int = 1) -> list:
    """reduce(sims, *extra) over chunks of `reps` simulated length-n rows.

    Chunk i draws from seed.generator(stream, i). ``reduce`` must be a
    module-level function so that worker processes can unpickle it.
    """
    rows = _batch_rows(n + model.lead)
    full, rem = divmod(reps, rows)
    counts = [rows] * full + ([rem] if rem else [])
    tasks = [(reduce, model, n, count, seed, (stream, i), extra)
             for i, count in enumerate(counts)]
    return _pool_map(_run_chunk, tasks, threads)


def _hit_chunk(sims, pe, level) -> int:
    return int(np.sum(row_p_moduli(sims, pe) > level))


def _moment_chunk(sims, pv, cap) -> float:
    draws = np.abs(sims[:, 0])
    if cap is not None:
        draws = np.where(draws <= cap, draws, 0.0)
    return float(np.sum(draws ** pv))


@dataclass(frozen=True)
class RatioEstimate:
    """Monte Carlo large-deviation ratio with delta-method standard error."""

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


def _ratio_from_hits(num_hits, den_hits, n, x, pe, reps, z=None) -> RatioEstimate:
    if den_hits == 0:
        return RatioEstimate(num_hits, 0, 0.0, 0.0, n, x, pe, reps,
                             degenerate=True, z=z)
    pn = num_hits / reps
    pd = den_hits / reps
    ratio = pn / (n * pd)
    if num_hits == 0:
        return RatioEstimate(0, den_hits, 0.0, 0.0, n, x, pe, reps, z=z)
    se = ratio * math.sqrt((1 - pn) / (reps * pn) + (1 - pd) / (reps * pd))
    return RatioEstimate(num_hits, den_hits, ratio, se, n, x, pe, reps, z=z)


def _ratio_mc(model, n, pe, level, x, reps, seed, threads, z=None) -> RatioEstimate:
    """Numerator hits of ||X_[1,n]||_p > level on substream 0, denominator
    hits of |X_0| > x on substream 1."""
    num = sum(_map_chunks(_hit_chunk, model, n, reps, seed, 0, (pe, level), threads))
    den = sum(_map_chunks(_hit_chunk, model, 1, reps, seed, 1, (pe, x), threads))
    return _ratio_from_hits(num, den, n, x, pe, reps, z=z)


def ld_ratio_mc(model: Model, n: int, p, x: float, reps: int, seed,
                threads: int = 1) -> RatioEstimate:
    """Estimate P(||X_[1,n]||_p > x) / (n P(|X_0| > x)) by simulation.

    The numerator simulates `reps` length-n samples; the denominator uses
    `reps` independent stationary marginal draws against the same level x.
    The limit of this ratio along far-tail levels is c(p).
    """
    if reps < 1:
        raise ValueError("reps must be at least 1")
    if not x > 0:
        raise ValueError("x must be positive")
    return _ratio_mc(model, n, as_p(p), x, x, reps, _as_seed(seed), threads)


def centered_level(p, alpha: float, x: float, n: int, moment_p: Optional[float] = None) -> float:
    """Auxiliary level z_n matching the centered large-deviation statement.

    p < alpha: z = x (n x^-p E|X|^p + 1)^(1/p) with moment_p = E|X|^p;
    p = alpha: same formula with the truncated moment E[|X|^a 1(|X| <= x)];
    p > alpha: z = x and no moment may be supplied.
    """
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    if not x > 0 or n < 1:
        raise ValueError("need x > 0 and n >= 1")
    pe = as_p(p)
    if pe.is_inf or pe.value > alpha:
        if moment_p is not None:
            raise ValueError("p > alpha takes no moment; z equals x")
        return x
    if moment_p is None or not moment_p > 0:
        raise ValueError("p <= alpha requires a positive moment_p")
    pv = pe.value
    return x * (n * moment_p / x ** pv + 1.0) ** (1.0 / pv)


def ld_ratio_centered_mc(model: Model, n: int, p, alpha: float, x: float,
                         reps: int, seed, pilot_reps: int = 1_000_000,
                         threads: int = 1) -> RatioEstimate:
    """Centered variant of ld_ratio_mc.

    The numerator level is z_n from centered_level, with the required moment
    estimated from a pilot sample of stationary marginal draws; the
    denominator stays at x. For p > alpha this coincides with ld_ratio_mc.
    """
    if reps < 1 or pilot_reps < 1:
        raise ValueError("reps and pilot_reps must be at least 1")
    if not x > 0:
        raise ValueError("x must be positive")
    seed = _as_seed(seed)
    pe = as_p(p)
    if pe.is_inf or pe.value > alpha:
        moment = None
    else:
        cap = x if pe.value == alpha else None
        moment = sum(_map_chunks(_moment_chunk, model, 1, pilot_reps, seed, 2,
                                 (pe.value, cap), threads)) / pilot_reps
        if not moment > 0:
            raise ValueError("pilot moment estimate is zero; increase pilot_reps")
    z = centered_level(pe, alpha, x, n, moment)
    return _ratio_mc(model, n, pe, z, x, reps, seed, threads, z=z)


def pilot_level(model: Model, n: int, p, q: float, reps: int = 20_000, seed=0) -> float:
    """q-quantile of ||X_[1,n]||_p over a pilot sample; far-tail levels for
    the ratio checks are usually placed at q in [0.99, 0.9999]."""
    if not 0 < q < 1:
        raise ValueError("q must lie in (0, 1)")
    if reps < 1:
        raise ValueError("reps must be at least 1")
    norms = _map_chunks(row_p_moduli, model, n, reps, _as_seed(seed), 3, (as_p(p),))
    return float(np.quantile(np.concatenate(norms), q))
