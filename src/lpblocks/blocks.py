"""Disjoint-block frames, cached block norms, the default k-rule, and
order-statistic thresholds.

The norms and thresholds live on a block stack (``_BlockStack``, private):
R frames of m blocks of length b as one (R*m, b) matrix, frame r in rows
r*m to r*m + m - 1. The norms of several exponents are one ``row_p_moduli``
pass and each (p, k) threshold one ``np.partition`` along the frames' axis,
both cached for all R frames. A ``BlockFrame`` is the one-frame stack, a
subclass that validates the series and cuts it; the experiment cuts the
frames of all of a task's replications (at most one row tile, about 2 MB, of
series values) once per b at its largest n, and each smaller n's stack is a
prefix of it whose norms are sliced, not recomputed. Under Hill, where alpha
differs by frame, each frame runs on its own stack, ``frame(i)``, a view.
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


class _BlockStack:
    """R frames of m blocks of length b as one (R*m, b) ``matrix``, frame r
    in rows r*m to r*m + m - 1, each cut from n values.

    ``norms(p)`` (flat, block t of frame r at r*m + t) and ``thresholds(p,
    k)`` (one per frame) are computed once for all R frames and cached;
    ``fill`` norms several exponents in one kernel pass. Every value is the
    one the frame's own BlockFrame gives: the norm kernel is row-wise, and
    the k-th largest norm does not depend on how it is found.
    """

    def __init__(self, matrix: np.ndarray, m: int, n: int):
        self.matrix = matrix
        self.m, self.n, self.b = m, n, matrix.shape[1]
        self.reps = matrix.shape[0] // m
        self._norms: dict[float, np.ndarray] = {}
        self._thresholds: dict[tuple, np.ndarray] = {}

    @staticmethod
    def cut(rows: np.ndarray, b: int) -> "_BlockStack":
        """The frames of block length b of each row of a 2-d array of series
        (the caller checks that m = n // b >= 2)."""
        n = rows.shape[1]
        m = n // b
        return _BlockStack(rows[:, : m * b].reshape(-1, b), m, n)

    def fill(self, ps) -> None:
        """Norm, in one ``row_p_moduli`` pass, each exponent of ps not yet cached."""
        todo = list(dict.fromkeys(pe.value for pe in map(as_p, ps)
                                  if pe.value not in self._norms))
        if todo:
            for value, got in zip(todo, row_p_moduli(self.matrix, todo)):
                got.setflags(write=False)
                self._norms[value] = got

    def norms(self, p) -> np.ndarray:
        """Per-block p-moduli ||B_t||_p, cached per exponent."""
        value = as_p(p).value
        self.fill([value])
        return self._norms[value]

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

    def prefix(self, n: int) -> "_BlockStack":
        """Each frame's first n // b blocks, the stack cut from the first n
        values of each series, with the cached norms sliced, not recomputed
        (the kernel is row-wise, so they are equal); a view where that is
        all of each frame."""
        m, shape = n // self.b, (self.reps, self.m)
        sub = _BlockStack(self.matrix.reshape(*shape, self.b)[:, :m].reshape(-1, self.b),
                          m, n)
        sub._norms = {key: got.reshape(shape)[:, :m].reshape(-1)
                      for key, got in self._norms.items()}
        return sub

    def frame(self, i: int) -> "_BlockStack":
        """Frame i as a one-frame stack, a view of its rows, with the cached
        norms and thresholds sliced."""
        rows = slice(i * self.m, (i + 1) * self.m)
        sub = _BlockStack(self.matrix[rows], self.m, self.n)
        sub._norms = {key: got[rows] for key, got in self._norms.items()}
        sub._thresholds = {key: got[i:i + 1] for key, got in self._thresholds.items()}
        return sub


class BlockFrame(_BlockStack):
    """m disjoint blocks of length b cut from the front of a series.

    The trailing n - m*b observations are discarded. ``matrix`` is the
    read-only (m, b) array, row t holding block B_{t+1}; per-p block norms
    are computed on demand and cached.
    """

    def __init__(self, series, b: int):
        x = as_series(series)
        n = len(x)
        if b < 1:
            raise ValueError("block length b must be at least 1")
        m = n // b
        if m < 2:
            raise ValueError(f"too few blocks: n={n}, b={b} gives m={m} < 2")
        matrix = x[: m * b].reshape(m, b).copy()
        matrix.setflags(write=False)
        super().__init__(matrix, int(m), n)


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
    return float(frame.thresholds(p, k)[0])
