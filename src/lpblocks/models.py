"""Seeded simulation of regularly varying series: heavy-tailed noise, finite
moving averages, and causal AR(1).

All randomness flows through :class:`SeedSpec`, a counter-based Philox layout
in which distinct (master_seed, stream_id) pairs give independent streams and
the same pair reproduces byte-identical output. Each model spec owns its
shape: ``lead``, the noise columns drawn ahead of the n kept ones, and
``filter``, which turns a (count, n + lead) noise matrix into the (count, n)
kept values. One simulator, :func:`simulate_batch`, draws every replication;
:func:`simulate` is its one-row case.

A batch holds one array of its noise's size, and a Pareto moving average
may be drawn by row tiles (:func:`_tile_rows`). The filters overwrite their
input and return the kept values in front of it, and Student noise draws
its chi-square divisors one row tile at a time.

The filters are plain numpy and repeat the floating-point operations of
``scipy.signal.lfilter``, operation for operation, so every simulated path
is the one that reference computes:

- a moving average adds its taps in the order ``np.convolve`` adds them:
  oldest noise value first, except for n == 1, where ``np.convolve`` does
  not swap its operands and the newest comes first (byte-identical up to 11
  taps; with more, ``np.convolve`` hands the sum to the BLAS dot, whose
  summation order is the library's own);
- AR(1) steps as ``z_t + phi * y_{t-1}`` in place on the noise matrix, one
  vector step per column, whatever the number of rows.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .seqcore import _row_tiles, _tile_height

__all__ = [
    "NoiseSpec",
    "LinearModelSpec",
    "AR1ModelSpec",
    "SeedSpec",
    "Model",
    "sample_noise",
    "simulate",
    "simulate_batch",
    "ar1_coefficients",
    "model_coefficients",
]

_NOISE_LAWS = ("pareto", "student")
# noise values per large-deviation chunk (16 MB as float64); the study sizes
# its tasks by one row tile (seqcore._TILE_BYTES) instead
_CHUNK_ELEMENTS = 2_000_000


@dataclass(frozen=True)
class NoiseSpec:
    """iid noise law with tail index alpha.

    pareto: support (1, inf), P(Z > z) = z^-alpha, all draws positive.
    student: symmetric t with alpha degrees of freedom, tail index alpha.
    """

    law: str
    alpha: float

    def __post_init__(self):
        if self.law not in _NOISE_LAWS:
            raise ValueError(f"unknown noise law {self.law!r}; use one of {_NOISE_LAWS}")
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"tail index alpha must be positive and finite, got {self.alpha!r}")

    @property
    def positive_prob(self) -> float:
        """P(sign of an extreme draw = +1): 1 for pareto, 1/2 for student."""
        return 1.0 if self.law == "pareto" else 0.5


@dataclass(frozen=True)
class LinearModelSpec:
    """Finite moving average X_t = sum_j coeffs[j] * Z_{t-j}."""

    coeffs: tuple
    noise: NoiseSpec

    def __post_init__(self):
        c = tuple(float(v) for v in self.coeffs)
        if len(c) == 0 or all(v == 0.0 for v in c):
            raise ValueError("coeffs must contain at least one nonzero entry")
        if not all(math.isfinite(v) for v in c):
            raise ValueError("coeffs must be finite")
        object.__setattr__(self, "coeffs", c)

    @property
    def lead(self) -> int:
        """Filter memory q: the n kept values need n + q noise draws."""
        return len(self.coeffs) - 1

    def filter(self, z: np.ndarray) -> np.ndarray:
        """(count, n) moving averages of a (count, n + q) noise matrix,
        written over it: the result is the front of z's buffer.

        Taps are added oldest first, newest first when n == 1: the order of
        ``np.convolve``, which swaps its operands only for rows longer than
        the taps. The sums are taken one row tile at a time, sized so that
        the tile, its accumulator and one tap product together fit
        ``seqcore._TILE_BYTES`` (about a core's L2 cache); the accumulator and
        the product, two buffers, serve every tile. A tile is written only
        after its noise is read: rows [i, i + s) of the result fill the flat
        positions [i n, (i + s) n), and the next row's noise starts at
        (i + s)(n + q).
        """
        c, q = self.coeffs, self.lead
        count, n = z.shape[0], z.shape[1] - q
        first, *rest = range(q + 1) if n == 1 else range(q, -1, -1)
        out = z.reshape(-1)[:count * n].reshape(count, n)
        tiles = _row_tiles(z, 3)
        acc, prod = np.empty((2, len(z[tiles[0]]), n))
        for rows in tiles:
            tile = z[rows]
            a, b = acc[:len(tile)], prod[:len(tile)]
            np.multiply(c[first], tile[:, q - first:q - first + n], out=a)
            for j in rest:
                a += np.multiply(c[j], tile[:, q - j:q - j + n], out=b)
            out[rows] = a
        return out


@dataclass(frozen=True)
class AR1ModelSpec:
    """Causal AR(1): X_t = phi * X_{t-1} + Z_t, |phi| < 1."""

    phi: float
    noise: NoiseSpec
    burn_in: int = 1000

    def __post_init__(self):
        if not abs(self.phi) < 1:
            raise ValueError("AR(1) requires |phi| < 1")
        if self.burn_in < 0:
            raise ValueError("burn_in must be nonnegative")

    @property
    def lead(self) -> int:
        """Burn-in steps dropped after the recursion starts at 0."""
        return self.burn_in

    def filter(self, z: np.ndarray) -> np.ndarray:
        """(count, n) AR(1) values of a (count, n + burn_in) noise matrix,
        written over it: the result is the front of z's buffer.

        The recursion y_t = z_t + phi * y_{t-1}, started at 0, overwrites z
        one column at a time through one product. The kept columns then move
        to the front one row tile at a time: row i's values land before row
        i + 1's noise starts, and numpy buffers a tile whose copy overlaps
        itself.
        """
        count, n = z.shape[0], z.shape[1] - self.burn_in
        step = np.empty(count)
        columns = iter(z.T)
        prev = next(columns)
        for col in columns:
            np.multiply(prev, self.phi, out=step)
            np.add(col, step, out=col)
            prev = col
        out = z.reshape(-1)[:count * n].reshape(count, n)
        for rows in _row_tiles(z):
            out[rows] = z[rows, self.burn_in:]
        return out


Model = LinearModelSpec | AR1ModelSpec


@dataclass(frozen=True)
class SeedSpec:
    """Reproducible stream address (master_seed, stream_id)."""

    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("master_seed", "stream_id"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {v!r}")
            if not 0 <= int(v) < 2 ** 64:
                raise ValueError(f"{name} must be an unsigned 64-bit integer")
            object.__setattr__(self, name, int(v))

    def generator(self, *subkey: int) -> np.random.Generator:
        """Philox generator for this stream; extra subkey words derive substreams."""
        entropy = (self.master_seed, self.stream_id, *subkey)
        return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def _as_seed(seed) -> SeedSpec:
    if isinstance(seed, SeedSpec):
        return seed
    return SeedSpec(seed)


def _rng_of(seed) -> np.random.Generator:
    """Seed material to generator; existing generators pass through."""
    if isinstance(seed, np.random.Generator):
        return seed
    return _as_seed(seed).generator()


def _noise_matrix(spec: NoiseSpec, shape, rng) -> np.ndarray:
    z = np.empty(shape)
    if spec.law == "pareto":
        # inverse CDF on 1-U keeps draws finite: P(Z > z) = z^-alpha exactly;
        # in place, so one full-size array is alive, and **= takes the same
        # scalar-power path as ** (byte-identical draws)
        rng.random(out=z)
        np.subtract(1.0, z, out=z)
        z **= -1.0 / spec.alpha
        return z
    # z / sqrt(v / alpha): every normal first, then the chi-square v one row
    # tile at a time (the stream's order, so the draws are those of one
    # full-size v); a 1-d shape is one row
    rng.standard_normal(out=z)
    rows = np.atleast_2d(z)
    for tile in _row_tiles(rows):
        v = rng.chisquare(spec.alpha, rows[tile].shape)
        v /= spec.alpha
        np.sqrt(v, out=v)
        rows[tile] /= v
        del v  # the next tile's draws replace v instead of joining it
    return z


def sample_noise(spec: NoiseSpec, n: int, seed) -> np.ndarray:
    """n iid noise draws.

    Parameters
    ----------
    spec : NoiseSpec
    n : int
        Number of draws, n >= 1.
    seed : SeedSpec or int
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    return _noise_matrix(spec, n, _rng_of(seed))


def simulate(model: Model, n: int, seed) -> np.ndarray:
    """Length-n sample of the model: the first row of a one-row batch."""
    return simulate_batch(model, n, 1, seed)[0]


def simulate_batch(model: Model, n: int, count: int, seed) -> np.ndarray:
    """(count, n) array of independent replications from one stream.

    Each row draws n + model.lead noise values and ``model.filter`` returns
    the n kept ones, in the front of the noise's array. The whole batch is a
    single deterministic draw of the stream; it is not row-wise identical to
    `count` calls of simulate on distinct streams.
    """
    if n < 1 or count < 1:
        raise ValueError("n and count must be at least 1")
    z = _noise_matrix(model.noise, (count, n + model.lead), _rng_of(seed))
    return model.filter(z)


def _batch_rows(width: int) -> int:
    """Rows of `width` noise values that fit the element budget (at least 1)."""
    return max(1, _CHUNK_ELEMENTS // width)


def _tile_rows(model: Model, n: int, count: int) -> int:
    """Rows of a (count, n) batch to draw at a time with the batch's values: a
    tile that fits _TILE_BYTES with the filter's two buffers for a Pareto moving
    average; all for Student noise (normals first) and AR(1) (a column loop)."""
    row_wise = isinstance(model, LinearModelSpec) and model.noise.law == "pareto"
    return min(count, _tile_height(8 * (n + model.lead), 3)) if row_wise else count


def _pool_map(fn, tasks: list, threads: int) -> list:
    """[fn(*t) for t in tasks] over min(threads, len(tasks)) processes.
    `fn` must be module-level. The process pool is imported on first use: a
    single-process run does without its modules (about 1.5 MB of resident
    memory)."""
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    if threads == 1 or len(tasks) <= 1:
        return [fn(*t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(threads, len(tasks))) as pool:
        return list(pool.map(fn, *zip(*tasks)))


def ar1_coefficients(phi: float) -> np.ndarray:
    """Moving-average coefficients (1, phi, ..., phi^L) with |phi|^L < 1e-12,
    at most _CHUNK_ELEMENTS of them."""
    if not abs(phi) < 1:
        raise ValueError("requires |phi| < 1")
    if phi == 0.0:
        return np.array([1.0])
    L = max(1, math.ceil(math.log(1e-12) / math.log(abs(phi))))
    if L + 1 > _CHUNK_ELEMENTS:
        raise ValueError(f"AR(1) phi={phi!r} is too close to +-1: truncating at "
                         f"|phi|^L < 1e-12 takes L={L}, above {_CHUNK_ELEMENTS} coefficients")
    return phi ** np.arange(L + 1)


def model_coefficients(model: Model) -> np.ndarray:
    """Coefficient vector of the model, truncating AR(1) at |phi|^L < 1e-12."""
    if isinstance(model, LinearModelSpec):
        return np.asarray(model.coeffs, dtype=np.float64)
    if isinstance(model, AR1ModelSpec):
        return ar1_coefficients(model.phi)
    raise TypeError(f"unsupported model {type(model).__name__}")

