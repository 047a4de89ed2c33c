"""Disjoint-block frames, cached block norms, the default k-rule, and
order-statistic thresholds."""

from __future__ import annotations

import math

import numpy as np

from .seqcore import as_p, as_series, kth_order_stat, row_p_moduli

__all__ = [
    "BlockFrame",
    "partition",
    "default_k",
    "threshold_from_order_stat",
]


class BlockFrame:
    """m disjoint blocks of length b cut from the front of a series.

    The trailing n - m*b observations are discarded. Per-p block norms are
    computed on demand and cached; the frame is immutable afterwards.
    """

    def __init__(self, series, b: int):
        x = as_series(series)
        n = len(x)
        if b < 1:
            raise ValueError("block length b must be at least 1")
        m = n // b
        if m < 2:
            raise ValueError(f"too few blocks: n={n}, b={b} gives m={m} < 2")
        self.b = int(b)
        self.m = int(m)
        self.n = int(n)
        self._matrix = x[: m * b].reshape(m, b).copy()
        self._matrix.setflags(write=False)
        self._norm_cache: dict[float, np.ndarray] = {}

    @property
    def matrix(self) -> np.ndarray:
        """(m, b) array, row t holding block B_{t+1}."""
        return self._matrix

    @property
    def values(self) -> np.ndarray:
        """The m*b retained observations, flat."""
        return self._matrix.reshape(-1)

    def block(self, t: int) -> np.ndarray:
        """Block number t, 0-based."""
        return self._matrix[t]

    def norms(self, p) -> np.ndarray:
        """Per-block p-moduli ||B_t||_p, cached per exponent."""
        pe = as_p(p)
        key = pe.value
        got = self._norm_cache.get(key)
        if got is None:
            got = row_p_moduli(self._matrix, pe)
            got.setflags(write=False)
            self._norm_cache[key] = got
        return got


def partition(series, b: int) -> BlockFrame:
    """Split a series into disjoint blocks of length b (m = n // b >= 2)."""
    return BlockFrame(series, b)


def default_k(n: int, b: int, kappa: float = 1.0) -> int:
    """Threshold order k = max{2, floor(n / b^(1+kappa))}, clamped to m = n // b."""
    if n < 1 or b < 1:
        raise ValueError("n and b must be at least 1")
    if not kappa > 0:
        raise ValueError("kappa must be positive")
    k = max(2, math.floor(n / b ** (1.0 + kappa)))
    return min(k, n // b)


def threshold_from_order_stat(frame: BlockFrame, p, k: int) -> float:
    """Empirical threshold ||B||_{p,(k)}: the k-th largest block p-norm."""
    if not 2 <= k <= frame.m:
        raise ValueError(f"k must satisfy 2 <= k <= m={frame.m}, got {k}")
    return kth_order_stat(frame.norms(p), k)
