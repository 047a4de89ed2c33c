"""Spectral oracle layer for linear processes: cluster-process samplers and
the cluster constants c(p) via three independent routes (closed form,
change-of-norms Monte Carlo, telescoping sum).

For a finite moving average with coefficients (phi_0, ..., phi_q) the forward
spectral tail process is Theta_t = sign * phi_{t+J} / |phi_J| with the shift J
drawn from |phi_j|^alpha / ||phi||_alpha^alpha, and the change-of-norms weight
||Theta / ||Theta||_alpha||_p is the deterministic constant
||phi||_p / ||phi||_alpha. Samplers exploit this degeneracy; a non-linear
model would need importance reweighting instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import (AR1ModelSpec, LinearModelSpec, Model, _as_seed, _rng_of,
                     model_coefficients, simulate_batch)
from .seqcore import PExponent, _row_power_sums, as_p, p_modulus, row_p_moduli

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


def theta_sampler_linear(model: Model):
    """Batch sampler of spectral tail process draws for cluster_constant_mc.

    Returns fn(count, rng) -> (count, q+1) array whose rows are
    sign * phi / |phi_J|, zero-padded implicitly by the fixed support.
    """
    coeffs, draw_shift_sign = _shift_sign_sampler(model)

    def draw(count: int, rng: np.random.Generator) -> np.ndarray:
        j, sign = draw_shift_sign(count, rng)
        return np.outer(sign / np.abs(coeffs[j]), coeffs)

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


def _ratio_alpha_pow(u: np.ndarray, alpha: float, pe: PExponent) -> np.ndarray:
    """Per-row (||x||_p / ||x||_alpha)^alpha via max-rescaled power sums:
    S_p^(alpha/p) / S_alpha, and 1 / S_alpha for p = inf.

    ``u`` holds the absolute draws |x| and is rescaled in place, so callers
    pass an array that nothing else references.
    """
    top = u.max(axis=1)
    u /= np.where(top > 0.0, top, 1.0)[:, None]
    s_alpha = _row_power_sums(u, alpha)
    if pe.is_inf:
        ratios = 1.0 / s_alpha
    elif pe.value == alpha:
        ratios = np.ones_like(s_alpha)
    else:
        s_p = _row_power_sums(u, pe.value)
        ratios = s_p ** (alpha / pe.value) / s_alpha
    ratios[top == 0.0] = 0.0
    return ratios


def cluster_constant_mc(sampler, alpha: float, p, n_draws: int, seed,
                        batch_size: int = 250_000) -> MCEstimate:
    """Monte Carlo c(p) = E[(||Theta||_p / ||Theta||_alpha)^alpha].

    ``sampler`` is fn(count, rng) -> 2-d array of draws (rows zero-padded);
    Theta draws and rescaled Q^(alpha) draws are both fine since the ratio
    is scale-free.
    """
    if n_draws < 1:
        raise ValueError("n_draws must be at least 1")
    rng = _rng_of(seed)
    pe = as_p(p)
    total = 0.0
    total_sq = 0.0
    left = n_draws
    while left > 0:
        count = min(left, batch_size)
        # np.abs copies, so the sampler's batch is freed before the power sums
        ratios = _ratio_alpha_pow(
            np.abs(np.asarray(sampler(count, rng), dtype=np.float64)), alpha, pe)
        total += float(ratios.sum())
        total_sq += float(np.dot(ratios, ratios))
        left -= count
    mean = total / n_draws
    var = max(total_sq / n_draws - mean * mean, 0.0)
    return MCEstimate(value=mean, std_error=math.sqrt(var / n_draws), n_draws=n_draws)


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
                              count: int = 1, max_attempts: int = 10 ** 8,
                              batch_size: int = 8192) -> list[SpectralDraw]:
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
        todo = min(batch_size, max_attempts - attempts)
        sims = simulate_batch(model, h + 1, todo, seed.generator(chunk))
        norms = row_p_moduli(sims, pe)
        for row in np.flatnonzero(norms > x_threshold):
            if len(accepted) < count:
                accepted.append(SpectralDraw(values=sims[row] / norms[row], origin=0))
        attempts += todo
        chunk += 1
    return accepted
