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

The work per split is in two parts.  The preparation (`_Split`) does not
depend on the operator: the entry mask, the sort of a, z1, z2, b, |f2|^2
and C.  The risk step (`_Split.risk`) is per operator: its suffix sums and
`np.searchsorted`.  `tuned_threshold_estimates` walks the frequencies once
for several operators, drawing and preparing each split once and running
only the risk step per operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .dft import periodogram_all
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
    if 2 * m + 1 > n:
        raise ParameterError(f"window 2m+1={2 * m + 1} exceeds n={n}")
    if rng is None:
        rng = _freq_rng(seed, j)
    half = (n - 1) // 2
    # (k + half) % n - half is FourierGrid(n).wrap(k), inlined: this runs
    # once per frequency and split of every tuned estimate
    window = [(k + half) % n - half for k in range(j - m, j + m + 1)]
    members = set(window)
    units = []
    seen = set()
    for k in window:
        if k in seen:
            continue
        mirror = (half - k) % n - half
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
    if periodograms is None:
        periodograms = periodogram_all(x, center=center)
    risks = _split_risks(periodograms, x.n, j, cfg, (op,), preserve_diagonal)[0]
    chosen = cfg.lambda_grid[int(np.argmin(risks))]
    return SplitRisk(j, cfg.lambda_grid, tuple(risks), chosen, cfg.n_splits, cfg.seed)


def _split_risks(
    periodograms: np.ndarray, n: int, j: int, cfg: TuningConfig, ops: Sequence[ThresholdOperator],
    preserve_diagonal: bool,
) -> np.ndarray:
    """Split risk at frequency j averaged over cfg.n_splits splits, one row per operator.

    Each split is drawn, averaged and prepared once, whatever the number of
    operators scored from it.
    """
    half = (n - 1) // 2
    lam = np.asarray(cfg.lambda_grid)
    rng = _freq_rng(cfg.seed, j)
    risks = np.zeros((len(ops), lam.size))
    for _ in range(cfg.n_splits):
        j1, j2 = split_frequencies(j, cfg.m, n, rng=rng)
        split = _Split(
            _half_window_mean(periodograms, [k + half for k in j1]),
            _half_window_mean(periodograms, [k + half for k in j2]),
            preserve_diagonal,
        )
        for row, op in zip(risks, ops):
            row += split.risk(op, lam)
    risks /= cfg.n_splits
    return risks


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


class _Split:
    """The operator-independent part of one split's closed-form risk.

    Holds the entries of E sorted by a = |f1| (z1, z2 and |f2|^2 in the
    same order), b and the constant C; `risk` adds one operator's suffix
    sums.
    """

    def __init__(self, f1: np.ndarray, f2: np.ndarray, preserve_diagonal: bool):
        if preserve_diagonal:
            on_e = ~np.eye(f1.shape[0], dtype=bool)
            const = float(np.sum(np.abs(np.diag(f1) - np.diag(f2)) ** 2))
        else:
            on_e = np.ones(f1.shape, dtype=bool)
            const = 0.0
        z1, z2 = f1[on_e], f2[on_e]
        a = np.abs(z1)
        order = np.argsort(a)
        self.a, self.z1, self.z2 = a[order], z1[order], z2[order]
        self.f2_sq = np.abs(self.z2) ** 2
        self.const = const + float(np.sum(self.f2_sq))
        self.nonzero = nz = self.a > 0
        self.b = np.zeros_like(self.a)
        self.b[nz] = (np.conj(self.z1[nz] / self.a[nz]) * self.z2[nz]).real

    def risk(self, op: ThresholdOperator, lam: np.ndarray) -> np.ndarray:
        """||apply_threshold(f1, op, l) - f2||_F^2 at every l of lam."""
        a = self.a
        if op.kind == "hard":
            kept = _suffix_sums(np.abs(self.z1 - self.z2) ** 2 - self.f2_sq)
            return self.const + kept[np.searchsorted(a, lam, side="left")]
        # lasso is the eta = 0 case of the adaptive-lasso formula
        eta = op.eta if op.kind == "adaptive_lasso" else 0.0
        weight = np.zeros_like(a)
        weight[self.nonzero] = a[self.nonzero] ** -eta
        idx = np.searchsorted(a, lam, side="right")
        quad = _suffix_sums(a * a - 2.0 * a * self.b)[idx]
        lin = _suffix_sums(weight * (a - self.b))[idx]
        sq = _suffix_sums(weight * weight)[idx]
        # t only matters where some entry survives; elsewhere a huge lam could
        # overflow t and turn t * 0 into NaN
        live = idx < a.size
        t = np.zeros_like(lam)
        t[live] = lam[live] ** (eta + 1.0)
        return self.const + quad - 2.0 * t * lin + t * t * sq


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
    return tuned_threshold_estimates(
        x, m, (op,), grid_size=grid_size, n_splits=n_splits, seed=seed,
        preserve_diagonal=preserve_diagonal, periodograms=periodograms, center=center,
        lambda_scale=lambda_scale,
    )[0]


def tuned_threshold_estimates(
    x: TimeSeriesMatrix,
    m: int,
    ops: Sequence[ThresholdOperator],
    grid_size: int = 20,
    n_splits: int = 1,
    seed: int = 0,
    preserve_diagonal: bool = True,
    periodograms: Optional[np.ndarray] = None,
    center: bool = True,
    lambda_scale: float = 1.0,
) -> List[SpectralEstimate]:
    """`tuned_threshold_estimate` for each operator of `ops`, in one pass.

    At each frequency the lambda grid, the splits, their half-window means
    and the operator-independent part of the split risk are computed once
    and every operator is scored from them.  Split draws depend only on
    (seed, j), so each estimate equals its own `tuned_threshold_estimate`
    call bit for bit.
    """
    ops = tuple(ops)
    if not ops:
        raise ParameterError("no threshold operators given")
    if lambda_scale <= 0:
        raise ParameterError("lambda_scale must be positive")
    if periodograms is None:
        periodograms = periodogram_all(x, center=center)
    smoothed = _smoothed_half(periodograms, m)
    lambdas: List[list] = [[] for _ in ops]
    for j, f_hat in enumerate(smoothed):
        cfg = TuningConfig(m=m, lambda_grid=default_lambda_grid(f_hat, grid_size),
                           n_splits=n_splits, seed=seed)
        risks = _split_risks(periodograms, x.n, j, cfg, ops, preserve_diagonal)
        for lams, row in zip(lambdas, risks):
            lams.append(lambda_scale * cfg.lambda_grid[int(np.argmin(row))])
    # thresholding works in place: the last operator takes the smoothed
    # half itself, after the others have taken their copies
    last = len(ops) - 1
    return [
        _thresholded(x, m, op, lams, smoothed if i == last else smoothed.copy(), preserve_diagonal)
        for i, (op, lams) in enumerate(zip(ops, lambdas))
    ]


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
