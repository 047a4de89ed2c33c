"""Seeded simulation of regularly varying series: heavy-tailed noise, finite
moving averages, and causal AR(1).

All randomness flows through :class:`SeedSpec`, a counter-based Philox layout
in which distinct (master_seed, stream_id) pairs give independent streams and
the same pair reproduces byte-identical output. Each model spec owns its
shape: ``lead``, the noise columns drawn ahead of the n kept ones, and
``filter``, which turns a (count, n + lead) noise matrix into the (count, n)
kept values. One simulator, :func:`simulate_batch`, draws every replication;
:func:`simulate` is its one-row case.

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
from dataclasses import dataclass

import numpy as np

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
# noise values per simulation batch (16 MB as float64): the memory budget of
# every batched caller
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
        if not self.alpha > 0:
            raise ValueError("tail index alpha must be positive")

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
        """(count, n) moving averages of a (count, n + q) noise matrix.

        Taps are added oldest first, newest first when n == 1: the order of
        ``np.convolve``, which swaps its operands only for rows longer than
        the taps. Only one product is alive at a time.
        """
        c, q = self.coeffs, self.lead
        n = z.shape[-1] - q
        first, *rest = range(q + 1) if n == 1 else range(q, -1, -1)
        out = c[first] * z[:, q - first:q - first + n]
        for j in rest:
            out += c[j] * z[:, q - j:q - j + n]
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
        """(count, n) AR(1) values of a (count, n + burn_in) noise matrix.

        The recursion y_t = z_t + phi * y_{t-1}, started at 0, overwrites z
        one column at a time and the kept columns are returned as a view.
        """
        for t in range(1, z.shape[1]):
            z[:, t] += self.phi * z[:, t - 1]
        return z[:, self.burn_in:]


Model = LinearModelSpec | AR1ModelSpec


@dataclass(frozen=True)
class SeedSpec:
    """Reproducible stream address (master_seed, stream_id)."""

    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("master_seed", "stream_id"):
            v = getattr(self, name)
            if not 0 <= int(v) < 2 ** 64:
                raise ValueError(f"{name} must be an unsigned 64-bit integer")

    def generator(self, *subkey: int) -> np.random.Generator:
        """Philox generator for this stream; extra subkey words derive substreams."""
        entropy = (self.master_seed, self.stream_id, *subkey)
        return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def _as_seed(seed) -> SeedSpec:
    if isinstance(seed, SeedSpec):
        return seed
    return SeedSpec(int(seed))


def _rng_of(seed) -> np.random.Generator:
    """Seed material to generator; existing generators pass through."""
    if isinstance(seed, np.random.Generator):
        return seed
    return _as_seed(seed).generator()


def _noise_matrix(spec: NoiseSpec, shape, rng: np.random.Generator) -> np.ndarray:
    if spec.law == "pareto":
        # inverse CDF on 1-U keeps draws finite: P(Z > z) = z^-alpha exactly;
        # in place, so one full-size array is alive, and **= takes the same
        # scalar-power path as ** (byte-identical draws)
        u = rng.random(shape)
        np.subtract(1.0, u, out=u)
        u **= -1.0 / spec.alpha
        return u
    z = rng.standard_normal(shape)
    v = rng.chisquare(spec.alpha, shape)
    # z / sqrt(v / alpha) without full-size temporaries
    v /= spec.alpha
    np.sqrt(v, out=v)
    z /= v
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
    the n kept ones. The whole batch is a single deterministic draw
    of the stream; it is not row-wise identical to `count` calls of simulate
    on distinct streams.
    """
    if n < 1 or count < 1:
        raise ValueError("n and count must be at least 1")
    z = _noise_matrix(model.noise, (count, n + model.lead), _rng_of(seed))
    return model.filter(z)


def _batch_rows(width: int) -> int:
    """Rows of `width` noise values that fit the element budget (at least 1)."""
    return max(1, _CHUNK_ELEMENTS // width)


def _pool_map(fn, tasks: list, threads: int) -> list:
    """[fn(*t) for t in tasks] over `threads` processes; `fn` must be module-level.

    The process pool is imported on first use: a single-process run does
    without its modules (about 1.5 MB of resident memory).
    """
    if threads <= 1 or len(tasks) <= 1:
        return [fn(*t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, *zip(*tasks)))


def ar1_coefficients(phi: float, tol: float = 1e-12) -> np.ndarray:
    """Moving-average coefficients (1, phi, ..., phi^L) with |phi|^L < tol."""
    if not abs(phi) < 1:
        raise ValueError("requires |phi| < 1")
    if phi == 0.0:
        return np.array([1.0])
    L = max(1, math.ceil(math.log(tol) / math.log(abs(phi))))
    return phi ** np.arange(L + 1)


def model_coefficients(model: Model, tol: float = 1e-12) -> np.ndarray:
    """Coefficient vector of the model, truncating AR(1) at |phi|^L < tol."""
    if isinstance(model, LinearModelSpec):
        return np.asarray(model.coeffs, dtype=np.float64)
    if isinstance(model, AR1ModelSpec):
        return ar1_coefficients(model.phi, tol)
    raise TypeError(f"unsupported model {type(model).__name__}")

