"""Threshold selection by frequency-domain sample-splitting.

For each frequency, the smoothing window of periodograms is randomly
split into two halves (keeping mirror pairs {k, -k} together), one half
is thresholded and compared against the plain average of the other half
in squared Frobenius norm, and the grid value minimizing the averaged
risk is selected.

The risk of a split (f1, f2) is scored over the whole grid in closed form
rather than by thresholding f1 once per grid value.  Let E be the entries
the operator acts on (off-diagonal ones when the diagonal is preserved,
otherwise all), a = |f1| on E, b = Re(conj(f1 / a) f2) (0 where a = 0) and
C = sum_diag |f1 - f2|^2 + sum_E |f2|^2 (the diagonal term only when it is
preserved).  Each entry contributes |S(f1) - f2|^2 = s^2 - 2 s b + |f2|^2,
where s is the thresholded modulus, so

    hard:           R(lam) = C + sum_{a >= lam} (|f1 - f2|^2 - |f2|^2)
    lasso:          R(lam) = C + sum_{a > lam} (a^2 - 2ab)
                             - 2 lam sum_{a > lam} (a - b) + lam^2 #{a > lam}
    adaptive lasso: R(lam) = C + sum_{a > lam} (a^2 - 2ab)
                             - 2 t sum_{a > lam} a^-eta (a - b)
                             + t^2 sum_{a > lam} a^-2eta,   t = lam^(eta + 1)

(the adaptive lasso keeps an entry exactly when a^(eta+1) > lam^(eta+1),
i.e. a > lam).  After one sort of a, every sum is a suffix sum, and
`np.searchsorted` finds each grid value's suffix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .dft import FourierGrid, periodogram_all
from .errors import ParameterError
from .estimator import SpectralEstimate, ThresholdOperator, _smoothed_half, _thresholded
from .model import TimeSeriesMatrix


@dataclass(frozen=True)
class TuningConfig:
    """Sample-splitting configuration for one tuning run."""

    m: int
    lambda_grid: tuple
    n_splits: int = 1
    seed: int = 0

    def __post_init__(self):
        grid = tuple(float(v) for v in self.lambda_grid)
        if not grid:
            raise ParameterError("lambda grid must be nonempty")
        if not all(np.isfinite(grid)):
            raise ParameterError("thresholds must be finite")
        if any(v < 0 for v in grid):
            raise ParameterError("thresholds must be nonnegative")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ParameterError("lambda grid must be strictly increasing")
        if self.n_splits < 1:
            raise ParameterError("n_splits must be at least 1")
        object.__setattr__(self, "lambda_grid", grid)


@dataclass(frozen=True)
class SplitRisk:
    """Averaged split risk per candidate threshold and the argmin."""

    j: int
    grid: tuple
    risk: tuple
    chosen: float
    n_splits: int
    seed: int


def _freq_rng(seed: int, j: int) -> np.random.Generator:
    # Derived stream per frequency so parallel tuning order cannot matter.
    # Negative indices map to distinct nonnegative spawn keys.
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(j % 2**32,)))


def split_frequencies(
    j: int, m: int, n: int, rng: Optional[np.random.Generator] = None, seed: int = 0
) -> Tuple[list, list]:
    """Random balanced split of the window {j-m, ..., j+m} into (J1, J2).

    Indices are wrapped to canonical F_n representatives.  Whenever both k
    and -k fall in the window they are placed in the same subset, since
    I(w_{-k}) is the conjugate of I(w_k) and carries no extra information.
    """
    if 2 * m + 1 < 2:
        raise ParameterError("window must contain at least 2 frequencies")
    grid = FourierGrid(n)
    if 2 * m + 1 > n:
        raise ParameterError(f"window 2m+1={2 * m + 1} exceeds n={n}")
    if rng is None:
        rng = _freq_rng(seed, j)
    window = [grid.wrap(k) for k in range(j - m, j + m + 1)]
    members = set(window)
    units = []
    seen = set()
    for k in window:
        if k in seen:
            continue
        mirror = grid.wrap(-k)
        if mirror in members and mirror != k:
            units.append((k, mirror))
            seen.update((k, mirror))
        else:
            units.append((k,))
            seen.add(k)
    order = rng.permutation(len(units))
    j1: list = []
    j2: list = []
    for idx in order:
        unit = units[idx]
        if len(j1) < len(j2):
            j1.extend(unit)
        elif len(j2) < len(j1):
            j2.extend(unit)
        elif rng.integers(2) == 0:
            j1.extend(unit)
        else:
            j2.extend(unit)
    return sorted(j1), sorted(j2)


def select_threshold(
    x: TimeSeriesMatrix,
    j: int,
    cfg: TuningConfig,
    op: ThresholdOperator,
    preserve_diagonal: bool = True,
    periodograms: Optional[np.ndarray] = None,
    center: bool = True,
) -> SplitRisk:
    """Split-risk threshold selection at frequency index j.

    Each half-window average is normalized to the common f(w_j) scale,
    sum I(w_k) / (2 pi |J_i|), so unequal half sizes do not bias the
    Frobenius comparison.  Ties in the argmin break toward the smaller
    threshold.  Deterministic given (cfg.seed, j).
    """
    grid = FourierGrid(x.n)
    if periodograms is None:
        periodograms = periodogram_all(x, center=center)
    rng = _freq_rng(cfg.seed, j)
    risks = np.zeros(len(cfg.lambda_grid))
    for _ in range(cfg.n_splits):
        j1, j2 = split_frequencies(j, cfg.m, x.n, rng=rng)
        f1 = _half_window_mean(periodograms, [k + grid.half for k in j1])
        f2 = _half_window_mean(periodograms, [k + grid.half for k in j2])
        risks += _split_risk(f1, f2, op, cfg.lambda_grid, preserve_diagonal)
    risks /= cfg.n_splits
    chosen = cfg.lambda_grid[int(np.argmin(risks))]
    return SplitRisk(j, cfg.lambda_grid, tuple(risks), chosen, cfg.n_splits, cfg.seed)


def _half_window_mean(periodograms: np.ndarray, positions: list) -> np.ndarray:
    """sum I(w_k) / (2 pi |J|) over the listed array positions.

    Adds in list order, as `periodograms[positions].mean(axis=0)` would, so
    the result is the same bit for bit, without gathering a copy of the
    half window first.
    """
    out = periodograms[positions[0]].copy()
    for pos in positions[1:]:
        out += periodograms[pos]
    out /= len(positions)
    out /= 2.0 * np.pi
    return out


def _suffix_sums(v: np.ndarray) -> np.ndarray:
    """out[i] = sum(v[i:]) for i = 0..len(v); out[len(v)] = 0."""
    out = np.zeros(v.size + 1)
    out[:-1] = np.cumsum(v[::-1])[::-1]
    return out


def _split_risk(
    f1: np.ndarray, f2: np.ndarray, op: ThresholdOperator, lambda_grid: tuple,
    preserve_diagonal: bool,
) -> np.ndarray:
    """||apply_threshold(f1, op, lam) - f2||_F^2 at every lam of the grid."""
    lam = np.asarray(lambda_grid)
    if preserve_diagonal:
        on_e = ~np.eye(f1.shape[0], dtype=bool)
        const = float(np.sum(np.abs(np.diag(f1) - np.diag(f2)) ** 2))
    else:
        on_e = np.ones(f1.shape, dtype=bool)
        const = 0.0
    z1, z2 = f1[on_e], f2[on_e]
    a = np.abs(z1)
    order = np.argsort(a)
    a, z1, z2 = a[order], z1[order], z2[order]
    f2_sq = np.abs(z2) ** 2
    const += float(np.sum(f2_sq))
    if op.kind == "hard":
        kept = _suffix_sums(np.abs(z1 - z2) ** 2 - f2_sq)
        return const + kept[np.searchsorted(a, lam, side="left")]
    nonzero = a > 0
    b = np.zeros_like(a)
    b[nonzero] = (np.conj(z1[nonzero] / a[nonzero]) * z2[nonzero]).real
    # lasso is the eta = 0 case of the adaptive-lasso formula
    eta = op.eta if op.kind == "adaptive_lasso" else 0.0
    weight = np.zeros_like(a)
    weight[nonzero] = a[nonzero] ** -eta
    idx = np.searchsorted(a, lam, side="right")
    quad = _suffix_sums(a * a - 2.0 * a * b)[idx]
    lin = _suffix_sums(weight * (a - b))[idx]
    sq = _suffix_sums(weight * weight)[idx]
    # t only matters where some entry survives; elsewhere a huge lam could
    # overflow t and turn t * 0 into NaN
    live = idx < a.size
    t = np.zeros_like(lam)
    t[live] = lam[live] ** (eta + 1.0)
    return const + quad - 2.0 * t * lin + t * t * sq


def default_lambda_grid(f_hat: np.ndarray, size: int = 20) -> tuple:
    """Equispaced grid between min and max off-diagonal moduli of f_hat."""
    if size < 1:
        raise ParameterError("grid size must be positive")
    p = f_hat.shape[0]
    if p < 2:
        # no off-diagonal entries: the threshold acts on nothing
        return (0.0,)
    off = np.abs(f_hat[~np.eye(p, dtype=bool)])
    lo, hi = float(off.min()), float(off.max())
    if hi <= lo:
        return (lo,)
    return tuple(np.linspace(lo, hi, size))


def tuned_threshold_estimate(
    x: TimeSeriesMatrix,
    m: int,
    op: ThresholdOperator,
    grid_size: int = 20,
    n_splits: int = 1,
    seed: int = 0,
    preserve_diagonal: bool = True,
    periodograms: Optional[np.ndarray] = None,
    center: bool = True,
    lambda_scale: float = 1.0,
) -> SpectralEstimate:
    """Full pipeline: per-frequency split tuning, then thresholding.

    Thresholds are tuned for j >= 0 and mirrored to -j.  `lambda_scale`
    rescales each tuned threshold before it is applied to the full-window
    estimate, for callers who want to correct for the halved effective
    window during tuning; the default applies the tuned value as is.
    """
    if lambda_scale <= 0:
        raise ParameterError("lambda_scale must be positive")
    if periodograms is None:
        periodograms = periodogram_all(x, center=center)
    smoothed = _smoothed_half(periodograms, m)
    lambdas = []
    for j, f_hat in enumerate(smoothed):
        cfg = TuningConfig(m=m, lambda_grid=default_lambda_grid(f_hat, grid_size),
                           n_splits=n_splits, seed=seed)
        chosen = select_threshold(
            x, j, cfg, op, preserve_diagonal=preserve_diagonal, periodograms=periodograms
        ).chosen
        lambdas.append(lambda_scale * chosen)
    return _thresholded(x, m, op, lambdas, smoothed, preserve_diagonal)


def theoretical_threshold(
    stability: float, omega_n: float, l_n: float, n: int, m: int, p: int, r_const: float = 1.0
) -> float:
    """Theory-tracking threshold
    2 R |||f||| sqrt(log p / m) + 2 [ (m + 1/2pi)/n * Omega_n + L_n / 2pi ].
    """
    if min(stability, omega_n, l_n, r_const) < 0:
        raise ParameterError("inputs must be nonnegative")
    if m < 1:
        raise ParameterError("m must be at least 1")
    variance_term = 2.0 * r_const * stability * np.sqrt(np.log(p) / m)
    bias_term = 2.0 * ((m + 1.0 / (2.0 * np.pi)) / n * omega_n + l_n / (2.0 * np.pi))
    return float(variance_term + bias_term)


def default_span(n: int, family: str) -> int:
    """Smoothing half-span: round(sqrt(n)) for MA-like dependence,
    round(2/3 sqrt(n)) for the more persistent AR-like case."""
    if n < 9:
        raise ParameterError("span rule needs n >= 9")
    if family == "ma_like":
        m = int(round(np.sqrt(n)))
    elif family == "ar_like":
        m = int(round(2.0 / 3.0 * np.sqrt(n)))
    else:
        raise ParameterError(f"unknown span family {family!r}")
    m = max(1, m)
    while 2 * m + 1 > n:
        m -= 1
    return m
