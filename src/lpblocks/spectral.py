"""Spectral oracle layer for linear processes: the spectral tail process
sampler and the cluster constants c(p) via three independent routes (closed
form, change-of-norms Monte Carlo, telescoping sum).

For a finite moving average with coefficients (phi_0, ..., phi_q) the forward
spectral tail process is Theta_t = sign * phi_{t+J} / |phi_J| with the shift J
drawn from |phi_j|^alpha / ||phi||_alpha^alpha, and the change-of-norms weight
||Theta / ||Theta||_alpha||_p is the deterministic constant
||phi||_p / ||phi||_alpha. The sampler exploits this degeneracy; a
non-linear model would need importance reweighting instead.

c(p) = E[(||Theta||_p / ||Theta||_alpha)^alpha] is even in Theta, so the
sampler draws Theta given a positive extreme (sign = +1): one of the q+1
rows phi / |phi_j|, one uniform per draw, for the shift alone.
``theta_sampler_linear`` builds this row table once and returns each batch
as an ``_IndexedRows``: the table plus one row index per draw, the only
batch ``cluster_constant_mc`` takes. It counts each row's draws in exact
integers and reduces the table once per call: value and standard error are
correctly rounded sums (``math.fsum``) over the rows, the same for any batching.

``ShiftLaw.sample`` draws what ``rng.choice(q + 1, size, p=probabilities)``
draws, value for value, and leaves the generator in the same state. numpy's
``Generator.choice`` with ``p`` inverts one ``rng.random(size)`` through the
cumulative table ``cdf = p.cumsum(); cdf /= cdf[-1]`` by
``cdf.searchsorted(u, side="right")``. The law builds that table once, with
a guide table over ``_GUIDE_SIZE`` equal cells of [0, 1) (Chen and Asau
1974; Devroye 1986, section III.2.4): ``guide[k]`` is the inverse of k / K,
a lower bound for every u in the cell, and the answer itself unless a cdf
entry lies in the cell between k / K and u. One comparison finds those
draws, and they alone take the full ``searchsorted``, so the same uniforms
give the same indices. For the 125-tap AR(1) law fewer than one draw in a
thousand needs the search.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .models import AR1ModelSpec, LinearModelSpec, Model, _rng_of, model_coefficients
from .seqcore import _ratio_alpha_pow, as_p, p_modulus

__all__ = [
    "ShiftLaw",
    "MCEstimate",
    "shift_law",
    "theta_sampler_linear",
    "cluster_constant_linear",
    "cluster_constant_mc",
    "cluster_constant_telescoping",
    "serial_dependence_oracle_linear",
    "supwalk_constant_oracle_linear",
]

_SAMPLER_BATCH = 8192  # rows per batch of cluster_constant_mc; bounds its memory
# cells of the shift law's guide table; a power of two, so u * K is exact
_GUIDE_SIZE = 2 ** 14


@dataclass(frozen=True, eq=False)
class ShiftLaw:
    """Distribution P(J = j) = |phi_j|^alpha / ||phi||_alpha^alpha, j = 0..q."""

    probabilities: np.ndarray
    # numpy's normalized cumulative table, and the index of k / _GUIDE_SIZE in it
    _cdf: np.ndarray = field(init=False, repr=False, compare=False)
    _guide: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pr = np.asarray(self.probabilities, dtype=np.float64)
        if pr.ndim != 1 or pr.size == 0 or np.any(pr < 0):
            raise ValueError("probabilities must be a nonnegative vector")
        bad = np.flatnonzero(~np.isfinite(pr))
        if bad.size:
            raise ValueError(f"probabilities must be finite, got {pr[bad].tolist()} "
                             f"at indices {bad.tolist()}")
        if abs(pr.sum() - 1.0) > 1e-9:
            raise ValueError("probabilities must sum to 1")
        object.__setattr__(self, "probabilities", pr)
        # as Generator.choice builds it; cdf[-1] is exactly 1, above every u
        cdf = pr.cumsum()
        cdf /= cdf[-1]
        object.__setattr__(self, "_cdf", cdf)
        # guide[k] = searchsorted(k / K, "right") counts the entries with
        # cdf[i] <= k / K, i.e. ceil(cdf[i] * K) <= k (cdf * K is exact): it
        # is i on the cells from ceil(cdf[i-1] * K) to ceil(cdf[i] * K) - 1
        ends = np.ceil(cdf * _GUIDE_SIZE).astype(np.intp)
        guide = np.repeat(np.arange(len(cdf), dtype=np.int64), np.diff(ends, prepend=0))
        object.__setattr__(self, "_guide", guide)

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        """rng.choice(len(probabilities), size, p=probabilities), by guide table."""
        return self._invert(rng.random(size))

    def _invert(self, u: np.ndarray) -> np.ndarray:
        """cdf.searchsorted(u, side="right") for u in [0, 1), as int64."""
        flat = u.reshape(-1)
        # k / K <= u for k = floor(u * K), so guide[k] is a lower bound; it is
        # the answer unless the cell holds a cdf entry <= u
        index = self._guide[(flat * _GUIDE_SIZE).astype(np.intp)]
        cdf = self._cdf
        short = np.flatnonzero(cdf[index] <= flat)
        index[short] = cdf.searchsorted(flat[short], side="right")
        return index.reshape(u.shape)


def _coeffs_of(model_or_coeffs) -> np.ndarray:
    if isinstance(model_or_coeffs, (LinearModelSpec, AR1ModelSpec)):
        return model_coefficients(model_or_coeffs)
    c = np.asarray(model_or_coeffs, dtype=np.float64)
    if c.ndim != 1 or c.size == 0 or not np.any(c != 0):
        raise ValueError("coefficients must be a nonempty vector, not all zero")
    bad = np.flatnonzero(~np.isfinite(c))
    if bad.size:
        raise ValueError(f"coefficients must be finite, got {c[bad].tolist()} "
                         f"at indices {bad.tolist()}")
    return c


def _scale_free(coeffs) -> np.ndarray:
    """The coefficients over max|phi_j|, for the constants that do not depend
    on scale: each |phi_j|^a is then at most 1, and at max|phi_j| = 1 the
    coefficients keep their bits."""
    c = _coeffs_of(coeffs)
    return c / np.max(np.abs(c))


def _check_alpha(alpha: float, least: float = 0.0) -> None:
    """Reject an alpha that is not finite, positive and at least ``least``."""
    if not (0 < alpha < math.inf and alpha >= least):
        need = f"at least {least}" if least else "positive"
        raise ValueError(f"alpha must be {need} and finite, got {alpha!r}")


def shift_law(coeffs, alpha: float) -> ShiftLaw:
    _check_alpha(alpha)
    c = np.abs(_coeffs_of(coeffs)) ** alpha
    return ShiftLaw(c / c.sum())


@dataclass(frozen=True, eq=False)
class _IndexedRows:
    """Draws stored as rows ``table[index]``: ``shape`` is that of the draws,
    and ``nbytes`` counts what is stored, the table and the index."""

    table: np.ndarray
    index: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.index), self.table.shape[1])

    @property
    def nbytes(self) -> int:
        return self.table.nbytes + self.index.nbytes


def theta_sampler_linear(model: Model):
    """Batch sampler of spectral tail process draws for cluster_constant_mc.

    Returns fn(count, rng) -> _IndexedRows of shape (count, q+1) whose rows
    are phi / |phi_J|, zero-padded implicitly by the fixed support: Theta
    given a positive extreme. c(p) is even in Theta (the ratio kernel takes
    |Theta|), so the sign a draw of Theta carries changes no ratio and is
    not drawn. The table of the q+1 possible rows is built once, row j being
    (1 / |phi_j|) * phi, and a draw's index is its shift J. Rows of zero
    coefficients are never drawn and are 0 in the table.
    """
    coeffs = _coeffs_of(model)
    law = shift_law(coeffs, model.noise.alpha)
    inverse = np.zeros(len(coeffs))
    nonzero = coeffs != 0
    inverse[nonzero] = 1.0 / np.abs(coeffs[nonzero])
    # the factors np.outer(1 / np.abs(coeffs[j]), coeffs) takes, so each
    # table row is that draw's row
    table = np.outer(inverse, coeffs)

    def draw(count: int, rng: np.random.Generator) -> _IndexedRows:
        return _IndexedRows(table, law.sample(rng, size=count))

    return draw


def cluster_constant_linear(coeffs, alpha: float, p) -> float:
    """Closed form c(p) = (||phi||_p / ||phi||_alpha)^alpha for linear processes."""
    c = _scale_free(coeffs)
    _check_alpha(alpha)
    try:
        with np.errstate(over="ignore"):
            value = (p_modulus(c, p) / p_modulus(c, alpha)) ** alpha
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"c(p) leaves the float range at alpha={alpha!r}, p={as_p(p)}")
    return value


@dataclass(frozen=True)
class MCEstimate:
    value: float
    std_error: float
    n_draws: int


def cluster_constant_mc(sampler, alpha: float, p, n_draws: int, seed) -> MCEstimate:
    """Monte Carlo c(p) = E[(||Theta||_p / ||Theta||_alpha)^alpha].

    ``sampler`` is ``theta_sampler_linear(model)``: its batches of at most
    _SAMPLER_BATCH rows share one row table, whose rows are counted as drawn
    and whose ratios are computed once. The standard error is the population
    standard deviation of the per-draw ratios over sqrt(n_draws).
    """
    _check_alpha(alpha)
    if isinstance(n_draws, bool) or not isinstance(n_draws, numbers.Integral):
        raise ValueError(f"n_draws must be an integer, got {n_draws!r}")
    if n_draws < 1:
        raise ValueError("n_draws must be at least 1")
    rng = _rng_of(seed)
    pe = as_p(p)
    done = 0
    table = counts = None
    while done < n_draws:
        count = min(n_draws - done, _SAMPLER_BATCH)
        batch = sampler(count, rng)
        if not isinstance(batch, _IndexedRows):
            raise TypeError("sampler must be theta_sampler_linear(model), got a batch "
                            f"of type {type(batch).__name__}")
        if table is None:
            table, counts = batch.table, np.zeros(len(batch.table), dtype=np.int64)
        elif batch.table is not table:
            raise ValueError("sampler batches must share one row table: a later batch "
                             "brought another")
        counts += np.bincount(batch.index, minlength=len(table))
        done += count
    ratios = _ratio_alpha_pow(table, alpha, pe)
    value = math.fsum(counts * ratios) / n_draws
    m2 = math.fsum(counts * (ratios - value) ** 2)
    return MCEstimate(value=value, std_error=math.sqrt(m2) / n_draws, n_draws=n_draws)


def cluster_constant_telescoping(coeffs, alpha: float, p) -> float:
    """c(p) through the forward-tail telescoping sum.

    Enumerates the shift law exactly: each shift j contributes the difference
    of suffix p-moduli raised to alpha, and the |phi_j|^alpha weights cancel
    against the shift probabilities, leaving
    sum_j [S_j^(alpha/p) - S_{j+1}^(alpha/p)] / ||phi||_alpha^alpha
    with S_j the suffix sum of |phi_t|^p (suffix max for p = inf).
    """
    c = np.abs(_scale_free(coeffs))
    _check_alpha(alpha)
    pe = as_p(p)
    if pe.is_inf:
        suffix = np.zeros(len(c) + 1)
        suffix[:-1] = np.maximum.accumulate(c[::-1])[::-1]
        powered = suffix ** alpha
    else:
        suffix = np.zeros(len(c) + 1)
        suffix[:-1] = np.cumsum((c ** pe.value)[::-1])[::-1]
        with np.errstate(over="ignore"):
            powered = suffix ** (alpha / pe.value)
        # the suffix sums fall with j, so the whole sum's power is the largest
        if np.isinf(powered[0]):
            raise ValueError(f"c(p) leaves the float range at alpha={alpha!r}, p={pe}")
    norm_a = float(np.sum(c ** alpha))
    return float(np.sum(powered[:-1] - powered[1:]) / norm_a)


def serial_dependence_oracle_linear(coeffs, alpha: float, h: int) -> float:
    """E[g_h(Q^(alpha))] for a linear process: the signed lag-h coefficient sum
    sum_t |phi_t|^a |phi_{t+h}|^a sign(phi_t) sign(phi_{t+h}) / ||phi||_a^(2a)."""
    c = _scale_free(coeffs)
    _check_alpha(alpha)
    if isinstance(h, bool) or not isinstance(h, numbers.Integral) or h < 0:
        raise ValueError(f"h must be an integer lag >= 0, got {h!r}")
    a = np.sign(c) * np.abs(c) ** alpha
    num = float(np.dot(a[: len(a) - h], a[h:])) if h < len(a) else 0.0
    den = float(np.sum(np.abs(c) ** alpha)) ** 2
    return num / den


def supwalk_constant_oracle_linear(coeffs, alpha: float, noise_sign_balance: float) -> float:
    """Constant c(1) * E[(sup of forward partial sums of Q^(1))_+^alpha].

    The shift J leaves the prefix-sum supremum of the normalized coefficient
    cluster unchanged, so the expectation reduces to an exact enumeration
    over the sign alone; noise_sign_balance is P(sign = +1).
    """
    c = _scale_free(coeffs)
    _check_alpha(alpha, least=1.0)
    if not 0 <= noise_sign_balance <= 1:
        raise ValueError("noise_sign_balance must be a probability")
    l1 = float(np.sum(np.abs(c)))
    expect = 0.0
    for sign, prob in ((1.0, noise_sign_balance), (-1.0, 1.0 - noise_sign_balance)):
        if prob == 0.0:
            continue
        # empty prefixes contribute 0, so the supremum is clamped below at 0
        sup = max(float(np.max(np.cumsum(sign * c))), 0.0) / l1
        expect += prob * sup ** alpha
    return cluster_constant_linear(c, alpha, 1) * expect

