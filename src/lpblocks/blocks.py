"""Disjoint-block frames, cached block norms, the default k-rule, and
order-statistic thresholds.

The norms and thresholds live on a block stack (``_BlockStack``, private):
R frames of m blocks of length b as one (R*m, b) matrix, frame r in rows
r*m to r*m + m - 1. Each p's norms are one ``row_p_moduli`` call and each
(p, k) threshold one ``np.partition`` along the frames' axis, both cached
for all R frames. A ``BlockFrame`` is the one-frame stack; the experiment
stacks the frames of many replications at one (n, b) grid point, about
256 KB of series values per stack.
"""

from __future__ import annotations

import math

import numpy as np

from .seqcore import as_p, as_series, row_p_moduli

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
        self._stack = _BlockStack(self._matrix, self.m, self.n)

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
        return self._stack.norms(p)


class _BlockStack:
    """R frames of m blocks of length b as one (R*m, b) ``matrix``, frame r
    in rows r*m to r*m + m - 1, each cut from n values.

    ``norms(p)`` (flat, block t of frame r at r*m + t) and ``thresholds(p,
    k)`` (one per frame) are computed once for all R frames and cached. Every
    value is the one the frame's own BlockFrame gives: the norm kernel is
    row-wise, and the k-th largest norm does not depend on how it is found.
    """

    def __init__(self, matrix: np.ndarray, m: int, n: int):
        self.matrix = matrix
        self.m, self.n, self.b = m, n, matrix.shape[1]
        self.reps = matrix.shape[0] // m
        self._norms: dict[float, np.ndarray] = {}
        self._thresholds: dict[tuple, np.ndarray] = {}

    @classmethod
    def cut(cls, rows: np.ndarray, b: int) -> "_BlockStack":
        """The frames of block length b of each row of a 2-d array of series
        (the caller checks that m = n // b >= 2)."""
        n = rows.shape[1]
        m = n // b
        return cls(rows[:, : m * b].reshape(-1, b), m, n)

    def norms(self, p) -> np.ndarray:
        pe = as_p(p)
        got = self._norms.get(pe.value)
        if got is None:
            got = row_p_moduli(self.matrix, pe)
            got.setflags(write=False)
            self._norms[pe.value] = got
        return got

    def thresholds(self, p, k: int) -> np.ndarray:
        """The k-th largest block p-norm of each frame."""
        if not 2 <= k <= self.m:
            raise ValueError(f"k must satisfy 2 <= k <= m={self.m}, got {k}")
        key = (as_p(p).value, k)
        got = self._thresholds.get(key)
        if got is None:
            norms = self.norms(p).reshape(self.reps, self.m)
            got = np.partition(norms, self.m - k, axis=1)[:, self.m - k]
            self._thresholds[key] = got
        return got

    def take(self, frames) -> "_BlockStack":
        """The stack of the given frames (indices, in order), with the cached
        norms and thresholds of those frames carried over."""
        frames = np.asarray(frames)
        rows = (frames[:, None] * self.m + np.arange(self.m)).ravel()
        sub = _BlockStack(self.matrix[rows], self.m, self.n)
        sub._norms = {key: got[rows] for key, got in self._norms.items()}
        sub._thresholds = {key: got[frames] for key, got in self._thresholds.items()}
        return sub


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
    return float(frame._stack.thresholds(p, k)[0])
