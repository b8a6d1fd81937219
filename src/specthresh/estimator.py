"""Averaged periodogram, thresholding operators, shrinkage and coherence.

Spectral matrices are plain complex ndarrays; a `SpectralEstimate` bundles
the per-frequency matrices with the estimator metadata (smoothing span,
method, per-frequency thresholds).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from .dft import FourierGrid, periodogram_all
from .errors import DataError, ParameterError
from .model import TimeSeriesMatrix

METHODS = ("smoothed", "shrinkage", "hard", "lasso", "adaptive_lasso")


@dataclass(frozen=True)
class ThresholdOperator:
    """Entrywise generalized thresholding operator.

    All kinds satisfy, for every complex z and lambda >= 0:
    |S(z)| <= |z|, S(z) = 0 when |z| <= lambda, and |S(z) - z| <= lambda.
    """

    kind: str  # hard | lasso | adaptive_lasso
    eta: float = 2.0

    def __post_init__(self):
        if self.kind not in ("hard", "lasso", "adaptive_lasso"):
            raise ParameterError(f"unknown threshold operator {self.kind!r}")
        if self.eta <= 0:
            raise ParameterError("eta must be positive")

    def __call__(self, z: np.ndarray, lam: float) -> np.ndarray:
        if np.isnan(lam):
            raise ParameterError("threshold must not be NaN")
        if lam < 0:
            raise ParameterError("threshold must be nonnegative")
        z = np.asarray(z, dtype=complex)
        mod = np.abs(z)
        if self.kind == "hard":
            return np.where(mod >= lam, z, 0.0)
        if self.kind == "lasso":
            shrunk = np.maximum(mod - lam, 0.0)
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                penalty = np.where(mod > 0, lam ** (self.eta + 1) * mod ** (-self.eta), np.inf)
            shrunk = np.maximum(mod - penalty, 0.0)
        with np.errstate(invalid="ignore"):
            phase = np.where(mod > 0, z / np.where(mod > 0, mod, 1.0), 0.0)
        return phase * shrunk


def apply_threshold(
    f_hat: np.ndarray,
    op: ThresholdOperator,
    lam: float,
    preserve_diagonal: bool = True,
) -> np.ndarray:
    """Apply the operator entrywise; diagonal kept intact by default."""
    out = op(f_hat, lam)
    if preserve_diagonal:
        out[np.diag_indices_from(out)] = np.diag(f_hat)
    return out


@dataclass
class SpectralEstimate:
    """Per-frequency spectral matrices plus estimator metadata.

    `matrices[j]` is the p x p estimate at Fourier index j; conjugate
    symmetry matrices[-j] = conj(matrices[j]) holds for representable pairs.
    """

    n: int
    p: int
    m: int
    method: str
    matrices: Dict[int, np.ndarray]
    lambdas: Optional[Dict[int, float]] = None
    eta: Optional[float] = None
    channel_names: Optional[tuple] = None

    @property
    def grid(self) -> FourierGrid:
        return FourierGrid(self.n)

    def frequencies(self):
        return sorted(self.matrices)

    def min_eigenvalues(self) -> Dict[int, float]:
        """Smallest eigenvalue per frequency (thresholding may break PSD)."""
        return {
            j: float(np.min(np.linalg.eigvalsh(0.5 * (m + m.conj().T))))
            for j, m in self.matrices.items()
        }


def _window_indices(grid: FourierGrid, j: int, m: int) -> np.ndarray:
    if m < 0 or 2 * m + 1 > grid.n:
        raise ParameterError(f"invalid half-span m={m} for n={grid.n}")
    raw = np.arange(j - m, j + m + 1)
    return (raw + grid.half) % grid.n  # positions into the periodogram_all array


def averaged_periodogram(
    x: TimeSeriesMatrix,
    m: int,
    j: int,
    periodograms: Optional[np.ndarray] = None,
    center: bool = True,
) -> np.ndarray:
    """Flat average f_hat(w_j; m) = sum_{|k|<=m} I(w_{j+k}) / (2 pi (2m+1))."""
    grid = FourierGrid(x.n)
    if periodograms is None:
        periodograms = periodogram_all(x, center=center)
    idx = _window_indices(grid, grid.wrap(j), m)
    return periodograms[idx].mean(axis=0) / (2.0 * np.pi)


_BLOCK_ROWS = 16


def _smoothed_half(periodograms: np.ndarray, m: int) -> np.ndarray:
    """Window averages f_hat(w_j; m) for j = 0..floor(n/2), as a (n//2+1, p, p) array.

    Row j equals averaged_periodogram(x, m, j) bit for bit: the 2m+1
    shifted copies are added in the window's order, as `mean` adds them,
    and the sum is divided by 2m+1 and then by 2 pi.  Rows are summed
    _BLOCK_ROWS at a time so that the rows being summed stay in cache.
    """
    n = periodograms.shape[0]
    if m < 0 or 2 * m + 1 > n:
        raise ParameterError(f"invalid half-span m={m} for n={n}")
    n_half = n // 2 + 1
    out = np.empty((n_half,) + periodograms.shape[1:], dtype=periodograms.dtype)
    for j0 in range(0, n_half, _BLOCK_ROWS):
        rows = out[j0:j0 + _BLOCK_ROWS]
        for i, k in enumerate(range(-m, m + 1)):
            # rows j0.. of window offset k start at array position
            # (j0 + k + half) mod n and wrap past the end at most once
            start = (j0 + k + (n - 1) // 2) % n
            head = min(len(rows), n - start)
            if i == 0:
                rows[:head] = periodograms[start:start + head]
                rows[head:] = periodograms[:len(rows) - head]
            else:
                rows[:head] += periodograms[start:start + head]
                rows[head:] += periodograms[:len(rows) - head]
    out /= 2 * m + 1
    out /= 2.0 * np.pi
    return out


def _mirror(grid: FourierGrid, half: np.ndarray) -> Dict[int, np.ndarray]:
    """Per-frequency matrices: rows of the j >= 0 half, conjugates for j < 0."""
    out = dict(enumerate(half))
    for j in grid.indices:
        j = int(j)
        if j < 0:
            out[j] = half[-j].conj()
    return out


def smoothed_estimate(
    x: TimeSeriesMatrix,
    m: int,
    periodograms: Optional[np.ndarray] = None,
    center: bool = True,
) -> SpectralEstimate:
    """Averaged periodogram at every Fourier frequency."""
    if periodograms is None:
        periodograms = periodogram_all(x, center=center)
    mats = _mirror(FourierGrid(x.n), _smoothed_half(periodograms, m))
    return SpectralEstimate(x.n, x.p, m, "smoothed", mats, channel_names=x.channel_names)


def _thresholded(
    x: TimeSeriesMatrix,
    m: int,
    op: ThresholdOperator,
    lambdas: Sequence[float],
    smoothed: np.ndarray,
    preserve_diagonal: bool,
) -> SpectralEstimate:
    """Threshold row j of the smoothed half-spectrum at lambdas[j], in place."""
    for j, lam in enumerate(lambdas):
        smoothed[j] = apply_threshold(smoothed[j], op, lam, preserve_diagonal=preserve_diagonal)
    grid = FourierGrid(x.n)
    lams = {j: float(lam) for j, lam in enumerate(lambdas)}
    for j in grid.indices:
        j = int(j)
        if j < 0:
            lams[j] = lams[-j]
    return SpectralEstimate(
        x.n, x.p, m, op.kind, _mirror(grid, smoothed), lambdas=lams,
        eta=op.eta if op.kind == "adaptive_lasso" else None,
        channel_names=x.channel_names,
    )


def threshold_estimate(
    x: TimeSeriesMatrix,
    m: int,
    op: ThresholdOperator,
    lambdas: Dict[int, float],
    preserve_diagonal: bool = True,
    periodograms: Optional[np.ndarray] = None,
    center: bool = True,
) -> SpectralEstimate:
    """Thresholded averaged periodogram with per-frequency thresholds.

    Thresholds are required for j >= 0 (or all j); lambda_{-j} defaults to
    lambda_j, and negative frequencies are filled by conjugation.
    """
    lams = []
    for j in range(x.n // 2 + 1):
        if j in lambdas:
            lams.append(lambdas[j])
        elif -j in lambdas:
            lams.append(lambdas[-j])
        else:
            raise ParameterError(f"no threshold provided for frequency index {j}")
    if periodograms is None:
        periodograms = periodogram_all(x, center=center)
    return _thresholded(x, m, op, lams, _smoothed_half(periodograms, m), preserve_diagonal)


def shrinkage_estimate(
    x: TimeSeriesMatrix,
    m: int,
    j: int,
    periodograms: Optional[np.ndarray] = None,
    center: bool = True,
) -> np.ndarray:
    """Shrink the averaged periodogram toward its scaled-identity target.

    Plug-ins: mu = tr(f_hat)/p; beta^2 estimates the variance of the
    window mean from the within-window dispersion of the periodograms;
    delta^2 = ||f_hat - mu I||_F^2 / p; the weight on the diagonal target
    is the estimation-error fraction beta^2/delta^2, clamped to [0, 1].
    """
    grid = FourierGrid(x.n)
    if 2 * m + 1 < 2:
        raise ParameterError("shrinkage needs a window of at least 2 periodograms")
    if periodograms is None:
        periodograms = periodogram_all(x, center=center)
    idx = _window_indices(grid, grid.wrap(j), m)
    window = periodograms[idx] / (2.0 * np.pi)
    f_hat = window.mean(axis=0)
    p = x.p
    mu = float(np.trace(f_hat).real) / p
    delta2 = float(np.sum(np.abs(f_hat - mu * np.eye(p)) ** 2)) / p
    w = 2 * m + 1
    beta2 = float(np.sum(np.abs(window - f_hat) ** 2)) / (p * w * (w - 1))
    if delta2 <= 0.0:
        return f_hat
    rho = min(1.0, beta2 / delta2)
    return rho * mu * np.eye(p) + (1.0 - rho) * f_hat


def _sq_norms(stack: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each matrix of a stack."""
    flat = np.ascontiguousarray(stack, dtype=complex).reshape(len(stack), -1).view(np.float64)
    return np.einsum("ji,ji->j", flat, flat)


def shrinkage_all(
    x: TimeSeriesMatrix,
    m: int,
    periodograms: Optional[np.ndarray] = None,
    center: bool = True,
) -> SpectralEstimate:
    """`shrinkage_estimate` at every Fourier frequency, from one smoothing pass.

    With w = 2m+1 window members W_k = I(w_{j+k}) / (2 pi), |k| <= m, and
    their mean f_hat, the within-window dispersion needs only the window
    sum of the squared periodogram norms:

        sum_k ||W_k - f_hat||_F^2 = sum_k ||W_k||_F^2 - w ||f_hat||_F^2,

    so beta^2 = (sum_k ||I_{j+k}||_F^2 / (2 pi)^2 - w ||f_hat||_F^2) / (p w (w-1)).
    The difference can come out slightly negative by cancellation when the
    window members are (nearly) equal, so beta^2 is clamped at 0.  delta^2
    is summed from the deviations f_hat - mu I themselves, so a scaled
    identity (in particular p = 1) gives delta^2 = 0, rho = 0 and f_hat
    unchanged.
    """
    if 2 * m + 1 < 2:
        raise ParameterError("shrinkage needs a window of at least 2 periodograms")
    if periodograms is None:
        periodograms = periodogram_all(x, center=center)
    f_hat = _smoothed_half(periodograms, m)
    n, p, w = x.n, x.p, 2 * m + 1
    diag = np.arange(p)
    re_diag = f_hat.real[:, diag, diag]  # a copy, restored below
    mu = re_diag.sum(axis=1) / p
    f_hat.real[:, diag, diag] -= mu[:, None]
    delta2 = _sq_norms(f_hat) / p
    f_hat.real[:, diag, diag] = re_diag
    member_sq = _sq_norms(periodograms)
    # array position of window member k of row j, as in _smoothed_half
    pos = (np.arange(n // 2 + 1)[:, None] + np.arange(-m, m + 1) + (n - 1) // 2) % n
    spread = member_sq[pos].sum(axis=1) / (2.0 * np.pi) ** 2 - w * _sq_norms(f_hat)
    beta2 = np.maximum(spread, 0.0) / (p * w * (w - 1))
    rho = np.zeros_like(delta2)
    np.divide(beta2, delta2, out=rho, where=delta2 > 0.0)
    np.minimum(rho, 1.0, out=rho)
    f_hat *= (1.0 - rho)[:, None, None]
    f_hat.real[:, diag, diag] += (rho * mu)[:, None]
    mats = _mirror(FourierGrid(n), f_hat)
    return SpectralEstimate(n, p, m, "shrinkage", mats, channel_names=x.channel_names)


def coherence(matrix: np.ndarray, tau_floor: float = 1e-12) -> np.ndarray:
    """Coherence g_rs = f_rs / sqrt(f_rr f_ss); unit diagonal."""
    diag = np.diag(matrix).real
    bad = np.nonzero(diag < tau_floor)[0]
    if bad.size:
        raise DataError(f"degenerate channel {int(bad[0])}: diagonal below {tau_floor}")
    scale = 1.0 / np.sqrt(diag)
    g = matrix * np.outer(scale, scale)
    g[np.diag_indices_from(g)] = 1.0
    return g


def coherence_threshold(g_hat: np.ndarray, lam: float, tau: float) -> np.ndarray:
    """Hard-threshold off-diagonal coherence entries at level 2 lambda / tau."""
    if tau <= 0:
        raise ParameterError("tau must be positive")
    op = ThresholdOperator("hard")
    return apply_threshold(g_hat, op, 2.0 * lam / tau, preserve_diagonal=True)


def aggregate_coherence_graph(est: SpectralEstimate, tau_floor: float = 1e-12) -> np.ndarray:
    """Mean of |coherence| across the estimate's frequencies, zero diagonal.

    Produces the p x p weighted adjacency matrix used for coherence-network
    edge selection.  Typically the estimate covers all of F_n; a partial
    estimate averages over whatever frequencies it holds.
    """
    freqs = est.frequencies()
    if not freqs:
        raise ParameterError("estimate holds no frequencies")
    acc = np.zeros((est.p, est.p))
    for j in freqs:
        acc += np.abs(coherence(est.matrices[j], tau_floor=tau_floor))
    acc /= len(freqs)
    np.fill_diagonal(acc, 0.0)
    return 0.5 * (acc + acc.T)
