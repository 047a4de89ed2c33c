"""Sequence-space primitives: p-moduli and truncation.

A series is represented as a 1-d float64 numpy array; ``as_series`` is the
single validation point (1-d, finite entries, length >= 1). The exponent p
lives in (0, inf] and is carried by :class:`PExponent`. Every p-modulus goes
through one kernel: :func:`row_p_moduli` rescales rows by their max and sums
powers with :func:`_row_power_sums`, for several exponents in one pass (|x|,
the row max and the rescale done once); :func:`p_modulus` is its one-row case.
A count of rows whose norm exceeds a level needs only the comparison:
:func:`_row_p_exceeds` decides most rows from their max and l1 sum and runs
:func:`row_p_moduli` on the rest, so its answer is that of the norms.

The row kernels, :func:`row_p_moduli`, :func:`_row_p_exceeds` and the c(p)
ratio kernel :func:`_ratio_alpha_pow`, tile themselves: a matrix above
``_TILE_BYTES`` (about 2 MB) is reduced one row tile at a time
(:func:`_map_row_tiles`), so the temporaries (the ``np.abs`` copy, the
powers) stay in cache instead of being matrix-sized. Each row takes the same
operations, so results are equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PExponent",
    "INF",
    "as_p",
    "as_series",
    "p_modulus",
    "truncate_below",
    "truncate_above",
    "row_p_moduli",
]


@dataclass(frozen=True, order=True)
class PExponent:
    """Norm exponent p in (0, inf]; math.inf encodes the sup-norm case."""

    value: float

    def __post_init__(self):
        v = float(self.value)
        if math.isnan(v) or v <= 0:
            raise ValueError(f"p must lie in (0, inf], got {self.value!r}")
        object.__setattr__(self, "value", v)

    @property
    def is_inf(self) -> bool:
        return math.isinf(self.value)

    def __str__(self) -> str:
        if self.is_inf:
            return "inf"
        if self.value == int(self.value):
            return str(int(self.value))
        return repr(self.value)


INF = PExponent(math.inf)
_SMALLEST_SUBNORMAL = 5e-324
_TINY = np.finfo(np.float64).tiny
_EPS = np.finfo(np.float64).eps
# row tiles of _row_tiles: about a core's L2 cache, so a tile and the
# temporaries a kernel makes of it are reused while they are still cached
_TILE_BYTES = 2 ** 21


def as_p(p) -> PExponent:
    """Coerce a float, int, numeric string, or 'inf' into a PExponent."""
    if isinstance(p, PExponent):
        return p
    if isinstance(p, str):
        s = p.strip().lower()
        if s in ("inf", "infinity"):
            return INF
        try:
            p = float(s)
        except ValueError:
            raise ValueError(f"p must be a number or 'inf', got {p!r}") from None
    return PExponent(float(p))


def as_series(values) -> np.ndarray:
    """Validate and return observations as a 1-d float64 array.

    Rejects input that is not 1-d, empty input and any non-finite entry.
    """
    xs = np.asarray(values, dtype=np.float64)
    if xs.ndim != 1:
        raise ValueError(f"series must be 1-d, got an array of shape {xs.shape}")
    if xs.size == 0:
        raise ValueError("series must contain at least one observation")
    if not np.isfinite(xs).all():
        raise ValueError("series entries must be finite (no NaN/inf)")
    return xs


def p_modulus(xs, p) -> float:
    """p-modulus (sum_t |x_t|^p)^(1/p); max_t |x_t| for p = inf.

    The power-mean form is used for every finite p, including p < 1 where
    the associated metric differs but the modulus does not.
    """
    return float(row_p_moduli(as_series(xs)[None, :], p)[0])


def truncate_below(xs, eps: float) -> np.ndarray:
    """Keep entries with |x_t| > eps (strict), zero elsewhere."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    x = as_series(xs)
    return np.where(np.abs(x) > eps, x, 0.0)


def truncate_above(xs, eps: float) -> np.ndarray:
    """Keep entries with |x_t| <= eps, zero elsewhere; complement of truncate_below."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    x = as_series(xs)
    return np.where(np.abs(x) <= eps, x, 0.0)


def _row_power_sums(u: np.ndarray, q: float) -> np.ndarray:
    """Per-row sums of u**q for a nonnegative 2-d u; callers rescale rows to
    max 1 so powers cannot overflow. q = 1 skips the power's copy and q = 2
    is one einsum; numpy itself computes u ** 0.5 as np.sqrt(u)."""
    if q == 1.0:
        return u.sum(axis=1)
    if q == 2.0:
        return np.einsum("ij,ij->i", u, u)
    return (u ** q).sum(axis=1)


def _rescale_rows(u: np.ndarray) -> np.ndarray:
    """Divide each row of a nonnegative 2-d u by its max in place; return the
    maxima. All-zero rows are divided by the smallest subnormal and stay 0."""
    rowmax = u.max(axis=1)
    u /= np.maximum(rowmax, _SMALLEST_SUBNORMAL)[:, None]
    return rowmax


def row_p_moduli(matrix, p) -> np.ndarray:
    """Per-row p-moduli of a 2-d array; for a list or tuple of exponents p,
    one row of moduli per exponent, all from one pass over the matrix.

    Rows are rescaled by their max before powering so large entries do not
    overflow; all-zero rows yield 0. Fast paths cover p in {1, 2, inf}.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("expected a 2-d array")
    if isinstance(p, (list, tuple)):
        return _row_p_moduli(m, tuple(map(as_p, p)))
    return _row_p_moduli(m, (as_p(p),))[0]


def _row_p_moduli(m: np.ndarray, pes: tuple) -> np.ndarray:
    """(len(pes), rows) moduli: |x|, the row max (the inf-norm) and the
    max-rescaled rows once per tile, then one power sum per finite p."""
    if m.shape[0] > 1 and m.nbytes > _TILE_BYTES:
        return _map_row_tiles(_row_p_moduli, m, pes)
    a = np.abs(m)
    rowmax = a.max(axis=1) if all(pe.is_inf for pe in pes) else _rescale_rows(a)
    return np.array([rowmax if pe.is_inf else
                     rowmax * _row_power_sums(a, pe.value) ** (1.0 / pe.value) for pe in pes])


def _row_p_exceeds(matrix: np.ndarray, p, level) -> np.ndarray:
    """row_p_moduli(matrix, p) > level, equal row for row, with the exact
    kernel run only on the rows that cheap bounds leave undecided.

    Per row, M = max|w| and S1 = sum|w| give Q = M (S1 / M)^(1/p), which
    bounds ||w||_p from above for p >= 1 (Hoelder) and from below for p < 1,
    where n^(1/p - 1) S1 bounds it from above. M > level is a hit with no
    margin: the rescaled power sum of :func:`row_p_moduli` holds the term 1.0
    exactly, so its norm is >= M bit for bit. The other bounds decide a row
    only outside a relative margin ``delta``: the computed bound and norm
    each lie within about (n + 4) eps / min(p, 1) of their exact values, and
    ``delta`` is 8 times that. Rows with a subnormal or zero max or a
    non-finite bound go through :func:`row_p_moduli`, gathered, and so does
    every row where ``delta`` exceeds 2^-20 (p below about 1e-9).
    """
    m = np.asarray(matrix, dtype=np.float64)
    pe = as_p(p)
    n = m.shape[1]
    delta = 8 * (n + 4) * _EPS / min(pe.value, 1.0)
    if pe.is_inf or not delta < 2 ** -20:
        return row_p_moduli(m, pe) > level
    if m.shape[0] > 1 and m.nbytes > _TILE_BYTES:
        return _map_row_tiles(_row_p_exceeds, m, pe, level)
    a = np.abs(m)
    top = a.max(axis=1)
    total = a.sum(axis=1)
    pv = pe.value
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        bound = top * (total / top) ** (1.0 / pv)
        hit = top > level
        if pv < 1:
            hit |= bound > level * (1 + delta)
            upper = total * np.float64(n) ** (1.0 / pv - 1.0)
        else:
            upper = bound
        miss = upper < level * (1 - delta)
    sure = (top >= _TINY) & np.isfinite(bound) & np.isfinite(upper)
    hit &= sure
    todo = ~(hit | (miss & sure))
    if todo.any():
        hit[todo] = row_p_moduli(m[todo], pe) > level
    return hit


def _ratio_alpha_pow(draws: np.ndarray, alpha: float, pe: PExponent) -> np.ndarray:
    """Per-row (||x||_p / ||x||_alpha)^alpha of 2-d draws x via max-rescaled
    power sums: S_p^(alpha/p) / S_alpha, and 1 / S_alpha for p = inf; all-zero
    rows give 0."""
    if draws.shape[0] > 1 and draws.nbytes > _TILE_BYTES:
        return _map_row_tiles(_ratio_alpha_pow, draws, alpha, pe)
    u = np.abs(draws)
    top = _rescale_rows(u)
    s_alpha = _row_power_sums(u, alpha)
    # all-zero rows divide 0 by 0 here; they are set to 0 below
    with np.errstate(divide="ignore", invalid="ignore"):
        if pe.is_inf:
            ratios = 1.0 / s_alpha
        else:
            s_p = _row_power_sums(u, pe.value)
            ratios = s_p ** (alpha / pe.value) / s_alpha
    ratios[top == 0.0] = 0.0
    return ratios


def _tile_height(row_bytes: int, held: int = 1) -> int:
    """Rows per tile, at least one, so that `held` tile-sized arrays fit."""
    return max(1, _TILE_BYTES // max(1, held * row_bytes))


def _row_tiles(matrix: np.ndarray, held: int = 1) -> list:
    """Slices of consecutive :func:`_tile_height` row tiles of a 2-d matrix."""
    rows = _tile_height(matrix.shape[1] * matrix.itemsize, held)
    return [slice(i, i + rows) for i in range(0, matrix.shape[0], rows)]


def _map_row_tiles(fn, matrix: np.ndarray, *args) -> np.ndarray:
    """fn(tile, *args) over the row tiles of a 2-d ``matrix``, concatenated
    along the result's last axis.

    ``fn`` must be row-wise: entry i along its result's last axis depends on
    row i of its input alone. The result then equals fn(matrix, *args), while
    the temporaries fn makes are tile-sized instead of matrix-sized.
    """
    tiles = _row_tiles(matrix)
    if len(tiles) <= 1:
        return fn(matrix, *args)
    return np.concatenate([fn(matrix[rows], *args) for rows in tiles], axis=-1)
