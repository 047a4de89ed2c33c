"""Spectral oracle layer for linear processes: cluster-process samplers and
the cluster constants c(p) via three independent routes (closed form,
change-of-norms Monte Carlo, telescoping sum).

For a finite moving average with coefficients (phi_0, ..., phi_q) the forward
spectral tail process is Theta_t = sign * phi_{t+J} / |phi_J| with the shift J
drawn from |phi_j|^alpha / ||phi||_alpha^alpha, and the change-of-norms weight
||Theta / ||Theta||_alpha||_p is the deterministic constant
||phi||_p / ||phi||_alpha. Samplers exploit this degeneracy; a non-linear
model would need importance reweighting instead.
Both Monte Carlo routes draw ``_SAMPLER_BATCH`` rows at a time.

A Theta draw of a linear process is one of 2(q+1) rows sign * phi / |phi_j|.
``theta_sampler_linear`` builds this row table once and returns each batch
as an ``_IndexedRows``: the table plus one row index per draw. It is
array-like (``np.asarray`` gives the (count, q+1) draws, and ``shape`` and
``nbytes`` are those of the batch as stored), and ``cluster_constant_mc``
reduces the table rather than the draws, once per call, then picks each
draw's ratio by its index. Every ratio is the one the materialized row
gives, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import (AR1ModelSpec, LinearModelSpec, Model, _as_seed, _rng_of,
                     model_coefficients, simulate_batch)
from .seqcore import PExponent, _ratio_alpha_pow, as_p, p_modulus, row_p_moduli

__all__ = [
    "SpectralDraw",
    "ShiftLaw",
    "MCEstimate",
    "ThresholdTooHigh",
    "shift_law",
    "sample_cluster_linear",
    "theta_sampler_linear",
    "cluster_constant_linear",
    "cluster_constant_mc",
    "cluster_constant_telescoping",
    "serial_dependence_oracle_linear",
    "supwalk_constant_oracle_linear",
    "conditional_block_sampler",
]

_SAMPLER_BATCH = 8192  # rows per batch of cluster_constant_mc and conditional_block_sampler


class ThresholdTooHigh(RuntimeError):
    """Rejection sampling gave up: acceptance rate too small at this level."""


@dataclass(frozen=True, eq=False)
class SpectralDraw:
    """Finite-support sequence sample with the index of its t=0 coordinate.

    values[origin] is the coordinate at time 0; coordinates outside the
    stored support are zero.
    """

    values: np.ndarray
    origin: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", v)
        if not 0 <= self.origin < len(v):
            raise ValueError("origin must index into values")

    def coordinate(self, t: int) -> float:
        i = self.origin + t
        if 0 <= i < len(self.values):
            return float(self.values[i])
        return 0.0

    def p_modulus(self, p) -> float:
        return p_modulus(self.values, p)


@dataclass(frozen=True, eq=False)
class ShiftLaw:
    """Distribution P(J = j) = |phi_j|^alpha / ||phi||_alpha^alpha, j = 0..q."""

    probabilities: np.ndarray

    def __post_init__(self):
        pr = np.asarray(self.probabilities, dtype=np.float64)
        if pr.ndim != 1 or pr.size == 0 or np.any(pr < 0):
            raise ValueError("probabilities must be a nonnegative vector")
        if abs(pr.sum() - 1.0) > 1e-9:
            raise ValueError("probabilities must sum to 1")
        object.__setattr__(self, "probabilities", pr)

    def sample(self, rng: np.random.Generator, size=None):
        return rng.choice(len(self.probabilities), size=size, p=self.probabilities)


def _coeffs_of(model_or_coeffs) -> np.ndarray:
    if isinstance(model_or_coeffs, (LinearModelSpec, AR1ModelSpec)):
        return model_coefficients(model_or_coeffs)
    c = np.asarray(model_or_coeffs, dtype=np.float64)
    if c.ndim != 1 or c.size == 0 or not np.any(c != 0):
        raise ValueError("coefficients must be a nonempty vector, not all zero")
    return c


def shift_law(coeffs, alpha: float) -> ShiftLaw:
    c = np.abs(_coeffs_of(coeffs)) ** alpha
    return ShiftLaw(c / c.sum())


def _shift_sign_sampler(model: Model):
    """(coeffs, draw) with draw(count, rng) -> (J, sign): per draw, the shift
    J from the shift law and the sign of the extreme noise value."""
    coeffs = _coeffs_of(model)
    law = shift_law(coeffs, model.noise.alpha)
    pos = model.noise.positive_prob

    def draw(count: int, rng: np.random.Generator):
        j = law.sample(rng, size=count)
        sign = np.where(rng.random(count) < pos, 1.0, -1.0)
        return j, sign

    return coeffs, draw


def sample_cluster_linear(model: Model, p, seed) -> SpectralDraw:
    """One draw of the spectral cluster process Q^(p) of a linear process.

    The draw is the coefficient vector re-signed by the noise tail balance,
    shifted by J from the shift law, and normalized to p-modulus one.
    """
    coeffs, draw = _shift_sign_sampler(model)
    j, sign = draw(1, _rng_of(seed))
    values = sign[0] * coeffs / p_modulus(coeffs, p)
    return SpectralDraw(values=values, origin=int(j[0]))


@dataclass(frozen=True, eq=False)
class _IndexedRows:
    """A batch of draws stored as rows ``table[index]``, not materialized.

    Array-like: ``np.asarray(batch)`` builds the (len(index), width) draws,
    ``shape`` is their shape and ``nbytes`` counts what is stored, the table
    and the index.
    """

    table: np.ndarray
    index: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.index), self.table.shape[1])

    @property
    def nbytes(self) -> int:
        return self.table.nbytes + self.index.nbytes

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.table[self.index], dtype=dtype)


def theta_sampler_linear(model: Model):
    """Batch sampler of spectral tail process draws for cluster_constant_mc.

    Returns fn(count, rng) -> _IndexedRows of shape (count, q+1) whose rows
    are sign * phi / |phi_J|, zero-padded implicitly by the fixed support.
    The table of the 2(q+1) possible rows is built once: row j is
    (1 / |phi_j|) * phi and row q+1+j is (-1 / |phi_j|) * phi, and a draw
    (J, sign) has index J + (q+1) * (sign < 0). Rows of zero coefficients
    are never drawn and are 0 in the table.
    """
    coeffs, draw_shift_sign = _shift_sign_sampler(model)
    inverse = np.zeros(len(coeffs))
    nonzero = coeffs != 0
    inverse[nonzero] = 1.0 / np.abs(coeffs[nonzero])
    # sign / |phi_J| for sign = +1 and -1: the factors np.outer(sign /
    # np.abs(coeffs[j]), coeffs) takes, so each table row is that draw's row
    table = np.outer(np.concatenate([inverse, -inverse]), coeffs)

    def draw(count: int, rng: np.random.Generator) -> _IndexedRows:
        j, sign = draw_shift_sign(count, rng)
        return _IndexedRows(table, j + len(coeffs) * (sign < 0))

    return draw


def cluster_constant_linear(coeffs, alpha: float, p) -> float:
    """Closed form c(p) = (||phi||_p / ||phi||_alpha)^alpha for linear processes."""
    c = _coeffs_of(coeffs)
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    return (p_modulus(c, p) / p_modulus(c, alpha)) ** alpha


@dataclass(frozen=True)
class MCEstimate:
    value: float
    std_error: float
    n_draws: int


def _batch_ratios(sampler, count: int, rng, alpha: float, pe: PExponent,
                  reduced: list) -> np.ndarray:
    """Ratios of one sampler batch; an _IndexedRows batch is reduced on its
    table, and each draw takes its row's ratio.

    ``reduced`` holds the last table and its ratios, [table, ratios], and is
    updated when a batch brings another table object. The batch is
    referenced only from this call, so it is freed before the caller asks the
    sampler for the next one.
    """
    batch = sampler(count, rng)
    if isinstance(batch, _IndexedRows):
        rows, index = batch.table, batch.index
    else:
        batch = rows = np.asarray(batch, dtype=np.float64)
        index = None
    shape = batch.shape
    if len(shape) != 2 or shape[0] != count or shape[1] < 1:
        raise ValueError(f"sampler must return a 2-d array of {count} rows and at "
                         f"least one column, got shape {shape}")
    if index is None:
        return _ratio_alpha_pow(rows, alpha, pe)
    if reduced[0] is not rows:
        reduced[:] = [rows, _ratio_alpha_pow(rows, alpha, pe)]
    return reduced[1][index]


def cluster_constant_mc(sampler, alpha: float, p, n_draws: int, seed) -> MCEstimate:
    """Monte Carlo c(p) = E[(||Theta||_p / ||Theta||_alpha)^alpha].

    ``sampler`` is fn(count, rng) -> (count, width) array of draws (rows
    zero-padded) or theta_sampler_linear's array-like batch of that shape;
    Theta draws and rescaled Q^(alpha) draws are both fine since the ratio is
    scale-free. Draws come in batches of _SAMPLER_BATCH rows; the table of
    an _IndexedRows batch is reduced once and its ratios reused while the
    sampler returns the same table. The standard error is the population
    standard deviation of the per-draw ratios over sqrt(n_draws), from
    centered sums of squares per batch combined by Chan's formula.
    """
    if n_draws < 1:
        raise ValueError("n_draws must be at least 1")
    rng = _rng_of(seed)
    pe = as_p(p)
    total = 0.0
    m2 = 0.0
    done = 0
    reduced = [None, None]
    while done < n_draws:
        count = min(n_draws - done, _SAMPLER_BATCH)
        ratios = _batch_ratios(sampler, count, rng, alpha, pe, reduced)
        batch_sum = float(ratios.sum())
        dev = ratios - batch_sum / count
        # Chan: the batch's own centered sum of squares, plus the shift of
        # its mean from the mean of the batches before it
        shift = batch_sum / count - (total / done if done else 0.0)
        m2 += float(np.dot(dev, dev)) + shift * shift * done * count / (done + count)
        total += batch_sum
        done += count
    return MCEstimate(value=total / n_draws, std_error=math.sqrt(m2) / n_draws,
                      n_draws=n_draws)


def cluster_constant_telescoping(coeffs, alpha: float, p) -> float:
    """c(p) through the forward-tail telescoping sum.

    Enumerates the shift law exactly: each shift j contributes the difference
    of suffix p-moduli raised to alpha, and the |phi_j|^alpha weights cancel
    against the shift probabilities, leaving
    sum_j [S_j^(alpha/p) - S_{j+1}^(alpha/p)] / ||phi||_alpha^alpha
    with S_j the suffix sum of |phi_t|^p (suffix max for p = inf).
    """
    c = np.abs(_coeffs_of(coeffs))
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    pe = as_p(p)
    if pe.is_inf:
        suffix = np.zeros(len(c) + 1)
        suffix[:-1] = np.maximum.accumulate(c[::-1])[::-1]
        powered = suffix ** alpha
    else:
        suffix = np.zeros(len(c) + 1)
        suffix[:-1] = np.cumsum((c ** pe.value)[::-1])[::-1]
        powered = suffix ** (alpha / pe.value)
    norm_a = float(np.sum(c ** alpha))
    return float(np.sum(powered[:-1] - powered[1:]) / norm_a)


def serial_dependence_oracle_linear(coeffs, alpha: float, h: int) -> float:
    """E[g_h(Q^(alpha))] for a linear process: the signed lag-h coefficient sum
    sum_t |phi_t|^a |phi_{t+h}|^a sign(phi_t) sign(phi_{t+h}) / ||phi||_a^(2a)."""
    c = _coeffs_of(coeffs)
    if h < 0:
        raise ValueError("h must be nonnegative")
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
    c = _coeffs_of(coeffs)
    if not alpha >= 1:
        raise ValueError("requires alpha >= 1")
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


def conditional_block_sampler(model: Model, h: int, p, x_threshold: float, seed,
                              count: int = 1,
                              max_attempts: int = 10 ** 8) -> list[SpectralDraw]:
    """Rejection sampler for the conditional spectral component Q^(p)(h).

    Simulates blocks X_[0, h], keeps those with p-modulus above x_threshold,
    and returns them normalized to p-modulus one (origin at block start).
    Gives up with ThresholdTooHigh once max_attempts simulations have not
    produced enough accepted draws.
    """
    if h < 0:
        raise ValueError("h must be nonnegative")
    if count < 1:
        raise ValueError("count must be at least 1")
    if not x_threshold > 0:
        raise ValueError("x_threshold must be positive")
    seed = _as_seed(seed)
    pe = as_p(p)
    accepted: list[SpectralDraw] = []
    attempts = 0
    chunk = 0
    while len(accepted) < count:
        if attempts >= max_attempts:
            rate = len(accepted) / attempts if attempts else 0.0
            raise ThresholdTooHigh(
                f"acceptance rate {rate:.2e} after {attempts} attempts "
                f"at threshold {x_threshold!r}"
            )
        todo = min(_SAMPLER_BATCH, max_attempts - attempts)
        sims = simulate_batch(model, h + 1, todo, seed.generator(chunk))
        norms = row_p_moduli(sims, pe)
        for row in np.flatnonzero(norms > x_threshold):
            if len(accepted) < count:
                accepted.append(SpectralDraw(values=sims[row] / norms[row], origin=0))
        attempts += todo
        chunk += 1
    return accepted
