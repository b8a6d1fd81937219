"""Fourier-frequency grid, trigonometric design vectors and the periodogram.

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

    def wrap(self, j: int) -> int:
        """Canonical representative of j in F_n (indices are mod-n periodic)."""
        return int((j + self.half) % self.n - self.half)

    def contains(self, j: int) -> bool:
        return -self.half <= j <= self.n // 2

    def frequency(self, j: int) -> float:
        return 2.0 * np.pi * j / self.n


def cos_sin_vectors(grid: FourierGrid, j: int):
    """Design vectors (C_j, S_j) for frequency index j in F_n."""
    if not grid.contains(j):
        raise ParameterError(f"index {j} outside F_n for n={grid.n}")
    t = np.arange(grid.n)
    w = grid.frequency(j)
    scale = 1.0 / np.sqrt(grid.n)
    return np.cos(t * w) * scale, np.sin(t * w) * scale


def dft_vector(x: np.ndarray, grid: FourierGrid, j: int) -> np.ndarray:
    """d(w_j) = X^T (C_j - i S_j), a p-dimensional complex vector."""
    c, s = cos_sin_vectors(grid, grid.wrap(j))
    return x.T @ (c - 1j * s)


def _prepare(x: TimeSeriesMatrix, center: bool) -> np.ndarray:
    return x.center().data if center else x.data


def periodogram(x: TimeSeriesMatrix, grid: FourierGrid, j: int, center: bool = True) -> np.ndarray:
    """Raw periodogram I(w_j) = d(w_j) d(w_j)^H (Hermitian PSD, rank <= 1)."""
    if grid.n != x.n:
        raise ParameterError("grid length does not match sample count")
    d = dft_vector(_prepare(x, center), grid, j)
    return np.outer(d, d.conj())


def periodogram_all(x: TimeSeriesMatrix, center: bool = True) -> np.ndarray:
    """Periodograms at every j in F_n, returned as an (n, p, p) array.

    Entry [grid.half + j] holds I(w_j), i.e. the array is ordered like
    grid.indices.
    """
    grid = FourierGrid(x.n)
    data = _prepare(x, center)
    t = np.arange(grid.n)
    # columns e^{-i t w_j} / sqrt(n) are exactly C_j - i S_j
    phase = np.exp(-2j * np.pi * np.outer(t, grid.indices) / grid.n) / np.sqrt(grid.n)
    d = data.T @ phase  # (p, n)
    # C order keeps each I(w_j) contiguous, so window averages and
    # split halves read whole matrices rather than strided columns
    return np.einsum("pj,qj->jpq", d, d.conj(), order="C")


def stacked_trig_matrix(grid: FourierGrid) -> np.ndarray:
    """All C_j^T and S_j^T rows stacked into a 2n x n matrix."""
    rows = []
    for j in grid.indices:
        c, s = cos_sin_vectors(grid, int(j))
        rows.append(c)
        rows.append(s)
    return np.vstack(rows)


def dft_matrix_norm_check(grid: FourierGrid) -> float:
    """Spectral norm of the stacked trig matrix; equals 1 exactly."""
    if grid.n > 512:
        raise ParameterError("dense norm check limited to n <= 512")
    return float(np.linalg.norm(stacked_trig_matrix(grid), 2))

