"""Fourier-frequency grid and the periodograms.

Conventions: the frequency grid is F_n = {-floor((n-1)/2), ..., floor(n/2)}
with omega_j = 2 pi j / n, and the trig vectors are indexed t = 0..n-1,
C_j[t] = cos(t w_j)/sqrt(n), S_j[t] = sin(t w_j)/sqrt(n).  The periodogram
is the rank-one matrix d(w) d(w)^H with d(w) = X^T (C(w) - i S(w)); no
1/(2 pi) factor is attached at this level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .model import TimeSeriesMatrix


@dataclass(frozen=True)
class FourierGrid:
    """Fourier frequencies for a sample of length n."""

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ParameterError("grid needs n >= 2")

    @property
    def half(self) -> int:
        return (self.n - 1) // 2

    @property
    def indices(self) -> np.ndarray:
        return np.arange(-self.half, self.n // 2 + 1)

    def contains(self, j: int) -> bool:
        return -self.half <= j <= self.n // 2

    def frequency(self, j: int) -> float:
        return 2.0 * np.pi * j / self.n


def _dft(x: TimeSeriesMatrix, m: int) -> np.ndarray:
    """The DFT of the centered series along the estimation pass's walk, as a
    C-contiguous (floor(n/2)+1+2m, p) array: row i holds d(w_{i-m}), so the
    window {j-m, ..., j+m} of row j = 0..floor(n/2) is rows j..j+2m."""
    grid = FourierGrid(x.n)
    t = np.arange(grid.n)
    # columns e^{-i t w_j} / sqrt(n) are exactly C_j - i S_j
    phase = np.exp(-2j * np.pi * np.outer(t, grid.indices) / grid.n) / np.sqrt(grid.n)
    d = x.center().data.T @ phase  # column grid.half + j holds d(w_j)
    walk = (np.arange(x.n // 2 + 1 + 2 * m) - m + grid.half) % grid.n
    return np.ascontiguousarray(d[:, walk].T)


def _periodograms(rows: np.ndarray) -> np.ndarray:
    """The periodogram d d^H of each row d of a (k, p) array of DFT rows, as a
    C-ordered (k, p, p) array, so each I(w) is contiguous."""
    return np.einsum("jp,jq->jpq", rows, rows.conj(), order="C")
