"""Single-frequency reference formulas that the tests compare the package's
whole-spectrum code against.

Each computes one quantity at one Fourier index the direct way: the trig
design vectors, the periodogram d(w_j) d(w_j)^H, the window average, the
shrinkage estimate, the thresholded matrix and the population spectral
density of a VARMA model.  `assert_thresholded`
checks a thresholded row against them.  The metric loops score a spectrum
one frequency of F_n at a time, the rows j < 0 built by conjugation.
`stack_estimates` is the estimation pass on the whole (n, p, p)
periodogram array (`periodogram_all`), which the streamed pass must equal
bit for bit.  `select_threshold` is the split risk of one frequency, which
the pass's curves (the `grids` and `risks` of `tuning.tuned_estimates`)
must equal bit for bit, and `split_frequencies` one frequency's split.
`lambda_grid` is one frequency's lambda grid, which each row of the pass's
grids must equal.  `gathered_split_risks` is the split risk the direct
way: halves summed from gathered periodograms, every off-diagonal entry
scored (`FullSplit`) and splits drawn one tie bit at a time
(`split_by_loop`); the pass's curves must equal it up to roundoff, with
the same argmins.  `check_order_bias_bounds` sets the dependence sums
Omega_n and L_n of a model (`model.omega_n`, `model.l_n`) against their
closed-form bounds, and `weak_sparsity_norm` is the column norm of the
weak-sparsity class.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from specthresh import FourierGrid, NumericalError, ParameterError, ThresholdOperator, coherence
from specthresh.dft import _dft, _periodograms
from specthresh.estimator import _BLOCK_ROWS, _row_blocks, _sq_norms
from specthresh.model import TimeSeriesMatrix, VarmaModel, autocov, l_n, omega_n, tail_cap
from specthresh.tuning import (
    _check_grids,
    _draw_split,
    _freq_rng,
    _lambda_grids,
    _searchsorted_rows,
    _split_risks,
    _suffix_sums,
    _window_units,
)


def wrap(grid: FourierGrid, j: int) -> int:
    """Canonical representative of j in F_n (indices are mod-n periodic)."""
    return int((j + grid.half) % grid.n - grid.half)


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
    c, s = cos_sin_vectors(grid, wrap(grid, j))
    return x.T @ (c - 1j * s)


def periodogram(x: TimeSeriesMatrix, grid: FourierGrid, j: int) -> np.ndarray:
    """Raw periodogram I(w_j) = d(w_j) d(w_j)^H of the centered series
    (Hermitian PSD, rank <= 1)."""
    if grid.n != x.n:
        raise ParameterError("grid length does not match sample count")
    d = dft_vector(x.center().data, grid, j)
    return np.outer(d, d.conj())


def _poly_eval(coeffs, z: complex, p: int, sign: float) -> np.ndarray:
    out = np.eye(p, dtype=complex)
    for l, c in enumerate(coeffs, start=1):
        out = out + sign * c * z**l
    return out


def spectral_density(model: VarmaModel, omega: float) -> np.ndarray:
    """Population spectral density f(omega), a p x p Hermitian PSD matrix.

    f(w) = (1/2pi) A^{-1}(e^{-iw}) B(e^{-iw}) Sigma B'(e^{-iw}) A^{-1}'(e^{-iw})
    with A(z) = I - sum A_l z^l and B(z) = I + sum B_l z^l, by one dense
    p x p solve.
    """
    p = model.dim
    z = np.exp(-1j * omega)
    a = _poly_eval(model.ar_coeffs, z, p, -1.0)
    b = _poly_eval(model.ma_coeffs, z, p, +1.0)
    cond = np.linalg.cond(a)
    if not np.isfinite(cond) or cond > 1e12:
        raise NumericalError(f"AR polynomial nearly singular at omega={omega}")
    h = np.linalg.solve(a, b)
    f = (h @ model.noise_cov @ h.conj().T) / (2.0 * np.pi)
    # symmetrize away roundoff
    return 0.5 * (f + f.conj().T)


def weak_sparsity_norm(matrix: np.ndarray, q: float) -> float:
    """Max over columns of sum_r |M_rs|^q; q = 0 counts nonzero entries."""
    if not 0 <= q < 1:
        raise ParameterError("q must lie in [0, 1)")
    mat = np.asarray(matrix)
    mod = np.abs(mat)
    if q == 0:
        return float(np.max(np.sum(mod > 0, axis=0)))
    return float(np.max(np.sum(mod**q, axis=0)))


@dataclass(frozen=True)
class OrderBiasReport:
    """Computed dependence measures next to their closed-form bounds."""

    n: int
    omega_n: float
    l_n: float
    geometric_omega_bound: float
    geometric_l_bound: float
    companion_omega_bound: Optional[float]
    companion_l_bound: Optional[float]
    companion_skipped: bool
    holds: bool


def check_order_bias_bounds(model: VarmaModel, n: int, cond_limit: float = 1e8) -> OrderBiasReport:
    """Verify the closed-form upper bounds on Omega_n and L_n.

    The geometric bound uses the envelope sigma_X rho_X^|l| >= |Gamma(l)|_max
    fitted from the computed autocovariances with rho_X the companion
    spectral radius.  The companion bound (VAR with unit noise variance)
    needs a diagonalizable companion matrix; it is skipped with a notice
    when the eigenvector matrix is ill-conditioned.
    """
    cap = max(tail_cap(model), n + 1)
    acov = autocov(model, cap)
    om = omega_n(acov, n)
    ln = l_n(acov, n)

    rho = model.spectral_radius()
    if rho == 0.0:
        # finite MA: any rho in (0,1) works for the envelope; pick one that
        # covers the finitely many nonzero lags.
        rho = 0.5
    maxabs = np.array([np.max(np.abs(g)) for g in acov])
    sigma_x = float(np.max(maxabs / rho ** np.arange(len(maxabs))))
    geo_om = 2 * sigma_x * rho * (1 - (n + 1) * rho**n + n * rho ** (n + 1)) / (1 - rho) ** 2
    geo_ln = 2 * sigma_x * rho ** (n + 1) / (1 - rho)

    comp_om = comp_ln = None
    skipped = True
    if model.ar_order > 0 and model.ma_order == 0:
        comp = model.companion_matrix()
        lam_max = model.spectral_radius()
        _, vecs = np.linalg.eig(comp)
        cond = np.linalg.cond(vecs)
        if np.isfinite(cond) and cond < cond_limit:
            kappa2 = cond**2
            denom = (1 - lam_max) ** 2 * (1 - lam_max**2)
            # partial sum of l * lam^l, same series as the geometric bound
            series = 1 - (n + 1) * lam_max**n + n * lam_max ** (n + 1)
            comp_om = 2 * kappa2 * lam_max * series / denom
            comp_ln = 2 * kappa2 * lam_max ** (n + 1) / ((1 - lam_max) * (1 - lam_max**2))
            skipped = False

    tol = 1e-9
    holds = om <= geo_om + tol and ln <= geo_ln + tol
    if not skipped:
        holds = holds and om <= comp_om + tol and ln <= comp_ln + tol
    return OrderBiasReport(n, om, ln, geo_om, geo_ln, comp_om, comp_ln, skipped, holds)


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


def periodogram_all(x: TimeSeriesMatrix) -> np.ndarray:
    """Periodograms of the centered series at every j in F_n, as an
    (n, p, p) array ordered like `FourierGrid(n).indices`: entry
    [half + j] holds I(w_j)."""
    return _periodograms(_dft(x), np.arange(x.n))


def lambda_grid(f_hat: np.ndarray, size: int = 20) -> tuple:
    """`size` values equispaced between the smallest and largest
    off-diagonal modulus of one matrix, by one 1-D `np.linspace`: (lo,)
    when those are equal, and (0.0,) for p = 1, which has none."""
    p = f_hat.shape[-1]
    if p < 2:
        return (0.0,)
    off = np.abs(f_hat[~np.eye(p, dtype=bool)])
    lo, hi = off.min(), off.max()
    return (lo,) if hi <= lo else tuple(np.linspace(lo, hi, size))


def select_threshold(
    x: TimeSeriesMatrix, j: int, m: int, grid, op: ThresholdOperator, n_splits: int = 1,
    seed: int = 0,
) -> np.ndarray:
    """Split risk of `op` at frequency index j at each value of `grid`,
    averaged over n_splits splits drawn from `_freq_rng(seed, j)`: the
    2m+1 DFT rows of j's window and one one-row `_split_risks` call.
    The threshold it selects is grid[argmin], ties toward the smaller
    value."""
    # d(w_{j-m})..d(w_{j+m}), at DFT columns (k + half) mod n
    window = _dft(x)[:, (np.arange(j - m, j + m + 1) + (x.n - 1) // 2) % x.n].T
    grids = np.array([grid], dtype=float)
    return _split_risks(np.ascontiguousarray(window), x.n, [j], grids, m, n_splits, seed,
                        (op,))[0, 0]


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
) -> np.ndarray:
    """Flat average f_hat(w_j; m) = sum_{|k|<=m} I(w_{j+k}) / (2 pi (2m+1))."""
    grid = FourierGrid(x.n)
    if periodograms is None:
        periodograms = periodogram_all(x)
    idx = _window_indices(grid, wrap(grid, j), m)
    return periodograms[idx].mean(axis=0) / (2.0 * np.pi)


def shrinkage_estimate(
    x: TimeSeriesMatrix,
    m: int,
    j: int,
    periodograms: Optional[np.ndarray] = None,
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
        periodograms = periodogram_all(x)
    idx = _window_indices(grid, wrap(grid, j), m)
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


def assert_thresholded(
    got: np.ndarray,
    f_hat: np.ndarray,
    op: ThresholdOperator,
    lam: float,
    preserve_diagonal: bool,
) -> None:
    """Assert that `got` is f_hat thresholded at lam off the diagonal, with
    the diagonal of f_hat kept, bit for bit.  `preserve_diagonal` picks the
    form of the reference: True compares with `apply_threshold` keeping the
    diagonal; False compares with the operator on the whole matrix off the
    diagonal, and with f_hat itself on it."""
    if preserve_diagonal:
        assert np.array_equal(got, apply_threshold(f_hat, op, lam))
        return
    whole = apply_threshold(f_hat, op, lam, preserve_diagonal=False)
    off = ~np.eye(len(f_hat), dtype=bool)
    assert np.array_equal(got[off], whole[off])
    assert np.array_equal(np.diag(got), np.diag(f_hat))


def coherence_threshold(g_hat: np.ndarray, lam: float, tau: float) -> np.ndarray:
    """Hard-threshold off-diagonal coherence entries at level 2 lambda / tau."""
    if tau <= 0:
        raise ParameterError("tau must be positive")
    op = ThresholdOperator("hard")
    return apply_threshold(g_hat, op, 2.0 * lam / tau, preserve_diagonal=True)


def full_grid(half: np.ndarray, n: int) -> dict:
    """The spectrum at every j in F_n, keyed by j: row j of `half` for
    j >= 0 and its conjugate for j < 0."""
    return {j: half[j] if j >= 0 else half[-j].conj() for j in map(int, FourierGrid(n).indices)}


def rmise_loop(est, truth: np.ndarray) -> float:
    """RMISE in percent, one frequency of F_n at a time."""
    mats, truth = full_grid(est.half, est.n), full_grid(truth, est.n)
    num = sum(float(np.sum(np.abs(mats[j] - truth[j]) ** 2)) for j in mats)
    den = sum(float(np.sum(np.abs(truth[j]) ** 2)) for j in mats)
    return 100.0 * num / den


def support_loop(est, truth: np.ndarray, include_diagonal: bool) -> np.ndarray:
    """Precision, recall and F1 one frequency of F_n at a time, then their
    means."""
    mats, truth = full_grid(est.half, est.n), full_grid(truth, est.n)
    mask = np.ones((est.p, est.p), dtype=bool)
    if not include_diagonal:
        np.fill_diagonal(mask, False)
    zero_tol = 1e-12 * max(float(np.max(np.abs(truth[j]))) for j in truth)
    per = []
    for j in mats:
        est_nz = (np.abs(mats[j]) > 0) & mask
        true_nz = (np.abs(truth[j]) > zero_tol) & mask
        hits, n_est, n_true = int(np.sum(est_nz & true_nz)), int(np.sum(est_nz)), int(np.sum(true_nz))
        precision = hits / n_est if n_est else 1.0
        recall = hits / n_true if n_true else 1.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        per.append((precision, recall, f1))
    return np.array(per).mean(axis=0)


def coherence_graph_loop(est) -> np.ndarray:
    """Mean |coherence| over F_n, one frequency at a time; zero diagonal,
    symmetrized."""
    mats = full_grid(est.half, est.n)
    graph = sum(np.abs(coherence(f)) for f in mats.values()) / len(mats)
    np.fill_diagonal(graph, 0.0)
    return 0.5 * (graph + graph.T)


def stack_estimates(x: TimeSeriesMatrix, m: int, methods, thresholds=None) -> list:
    """(half, lambdas) of each of `methods`, as `estimator._estimates` gives
    them, from the whole (n, p, p) periodogram array: row j's window is
    summed from slices of the array that wrap mod n, and shrinkage's window
    norms are gathered by a position table.  `thresholds(ops,
    periodograms, rows, f_hat)` reads the whole array."""
    n, p = x.n, x.p
    periodograms = periodogram_all(x)
    f_hat = np.empty((n // 2 + 1, p, p), dtype=periodograms.dtype)
    outs = [np.empty_like(f_hat) for _ in methods[1:]] + [f_hat]
    ops = [op for op in methods if isinstance(op, ThresholdOperator)]
    lambdas = np.empty((len(ops), len(f_hat)))
    diag = np.arange(p)
    for j0 in range(0, len(f_hat), _BLOCK_ROWS):
        rows = slice(j0, j0 + _BLOCK_ROWS)
        block = f_hat[rows]
        for i, k in enumerate(range(-m, m + 1)):
            # rows j0.. of window offset k start at array position
            # (j0 + k + half) mod n and wrap past the end at most once
            start = (j0 + k + (n - 1) // 2) % n
            head = min(len(block), n - start)
            if i == 0:
                block[:head] = periodograms[start:start + head]
                block[head:] = periodograms[:len(block) - head]
            else:
                block[:head] += periodograms[start:start + head]
                block[head:] += periodograms[:len(block) - head]
        block /= 2 * m + 1
        block /= 2.0 * np.pi
        if ops:
            lambdas[:, rows] = thresholds(ops, periodograms, range(j0, j0 + len(block)), block)
        lams = iter(lambdas[:, rows, None, None])
        for method, out in zip(methods, outs):
            if isinstance(method, ThresholdOperator):
                for _, z, dst, lam in _row_blocks(block, out[rows], next(lams)):
                    kept = method._apply(z, lam)
                    kept[:, diag, diag] = z[:, diag, diag]
                    dst[...] = kept
            elif out is not f_hat:
                out[rows] = block
    results, lams = [], iter(lambdas)
    for method, out in zip(methods, outs):
        if method == "shrinkage":
            _stack_shrink(out, periodograms, m)
        results.append((out, next(lams) if isinstance(method, ThresholdOperator) else None))
    return results


def _stack_shrink(f_hat: np.ndarray, periodograms: np.ndarray, m: int) -> None:
    """Shrink the window averages `f_hat` of `periodograms` in place."""
    n, p, w = len(periodograms), f_hat.shape[-1], 2 * m + 1
    diag = np.arange(p)
    re_diag = f_hat.real[:, diag, diag]
    mu = re_diag.sum(axis=1) / p
    f_hat.real[:, diag, diag] -= mu[:, None]
    delta2 = _sq_norms(f_hat) / p
    f_hat.real[:, diag, diag] = re_diag
    member_sq = _sq_norms(periodograms)
    # array position of window member k of row j
    pos = (np.arange(n // 2 + 1)[:, None] + np.arange(-m, m + 1) + (n - 1) // 2) % n
    spread = member_sq[pos].sum(axis=1) / (2.0 * np.pi) ** 2 - w * _sq_norms(f_hat)
    beta2 = np.maximum(spread, 0.0) / (p * w * (w - 1))
    rho = np.zeros_like(delta2)
    np.divide(beta2, delta2, out=rho, where=delta2 > 0.0)
    np.minimum(rho, 1.0, out=rho)
    f_hat *= (1.0 - rho)[:, None, None]
    f_hat.real[:, diag, diag] += (rho * mu)[:, None]


def stack_tuned_thresholds(n: int, m: int, grid_size: int, n_splits: int, seed: int):
    """The `thresholds` rule of `stack_estimates` that tunes by split risk,
    with `gathered_split_risks` on the whole periodogram array."""

    def thresholds(ops, periodograms, rows, f_hat):
        grids, single = _lambda_grids(f_hat, grid_size)
        _check_grids(grids, single)
        risks = gathered_split_risks(periodograms, n, rows, grids, m, n_splits, seed, ops)
        return grids[np.arange(len(grids)), risks.argmin(axis=2)]

    return thresholds


def window_units(j: int, m: int, n: int) -> list:
    """The F_n indices of j's window {j-m, ..., j+m} in the units a split
    keeps together, in window order: (k,), or (k, -k) when both fall in
    the window."""
    half = (n - 1) // 2
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
    return units


def split_frequencies(j: int, m: int, n: int, rng: Optional[np.random.Generator] = None,
                      seed: int = 0) -> tuple:
    """The split (J1, J2) of the window {j-m, ..., j+m} that the pass draws
    for row j (`tuning._draw_split` over `tuning._window_units`), as sorted
    lists of canonical F_n indices; from `rng`, or else from the row's own
    stream `_freq_rng(seed, j)`.  For 2 <= 2m+1 <= n."""
    if rng is None:
        rng = _freq_rng(seed, j)
    half = (n - 1) // 2
    window = [(k + half) % n - half for k in range(j - m, j + m + 1)]
    in_j1 = _draw_split(_window_units(j, m, n), 2 * m + 1, rng)
    return (sorted(k for k, first in zip(window, in_j1) if first),
            sorted(k for k, first in zip(window, in_j1) if not first))


def split_by_loop(j: int, m: int, n: int, rng: np.random.Generator) -> tuple:
    """Random balanced split of the window {j-m, ..., j+m} into (J1, J2),
    one unit (`window_units`) and one tie bit `rng.integers(2)` at a time."""
    units = window_units(j, m, n)
    j1: list = []
    j2: list = []
    for idx in rng.permutation(len(units)):
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


def gathered_split_risks(periodograms: np.ndarray, n: int, js, grids: np.ndarray, m: int,
                         n_splits: int, seed: int, ops) -> np.ndarray:
    """The split risk curves of the rows js, as `tuning._split_risks` gives
    them, from the whole (n, p, p) periodogram array: each split drawn by
    `split_by_loop`, each half's mean summed from its gathered
    periodograms and scored on every off-diagonal entry (`FullSplit`)."""
    half = (n - 1) // 2
    rngs = [_freq_rng(seed, j) for j in js]
    risks = np.zeros((len(ops),) + grids.shape)
    halves = np.empty((2, len(js)) + periodograms.shape[1:], dtype=periodograms.dtype)
    for _ in range(n_splits):
        for r, (j, rng) in enumerate(zip(js, rngs)):
            for h, part in enumerate(split_by_loop(j, m, n, rng)):
                halves[h, r] = periodograms[[k + half for k in part]].sum(axis=0) / len(part)
        halves /= 2.0 * np.pi
        split = FullSplit(*halves)
        for row, op in zip(risks, ops):
            row += split.risk(op, grids)
    risks /= n_splits
    return risks


class FullSplit:
    """The closed-form split risk of `tuning._Split` over every off-diagonal
    entry (both triangles), with numpy's row sums for the constant."""

    def __init__(self, f1: np.ndarray, f2: np.ndarray):
        p = f1.shape[-1]
        on_e = ~np.eye(p, dtype=bool)
        diag = np.arange(p)
        const = np.sum(np.abs(f1[:, diag, diag] - f2[:, diag, diag]) ** 2, axis=1)
        z1, z2 = f1[:, on_e], f2[:, on_e]
        a = np.abs(z1)
        order = np.argsort(a, axis=1)
        self.a = np.take_along_axis(a, order, axis=1)
        self.z1 = np.take_along_axis(z1, order, axis=1)
        self.z2 = np.take_along_axis(z2, order, axis=1)
        self.f2_sq = np.abs(self.z2) ** 2
        self.const = const + np.sum(self.f2_sq, axis=1)
        self.nonzero = nz = self.a > 0
        self.b = np.zeros_like(self.a)
        self.b[nz] = (np.conj(self.z1[nz] / self.a[nz]) * self.z2[nz]).real

    def risk(self, op: ThresholdOperator, lam: np.ndarray) -> np.ndarray:
        a = self.a
        if op.kind == "hard":
            kept = _suffix_sums(np.abs(self.z1 - self.z2) ** 2 - self.f2_sq)
            idx = _searchsorted_rows(a, lam, "left")
            return self.const[:, None] + np.take_along_axis(kept, idx, axis=1)
        eta = op.eta if op.kind == "adaptive_lasso" else 0.0
        weight = np.zeros_like(a)
        weight[self.nonzero] = a[self.nonzero] ** -eta
        idx = _searchsorted_rows(a, lam, "right")
        quad = np.take_along_axis(_suffix_sums(a * a - 2.0 * a * self.b), idx, axis=1)
        lin = np.take_along_axis(_suffix_sums(weight * (a - self.b)), idx, axis=1)
        sq = np.take_along_axis(_suffix_sums(weight * weight), idx, axis=1)
        live = idx < a.shape[1]
        t = np.zeros_like(lam)
        t[live] = lam[live] ** (eta + 1.0)
        return self.const[:, None] + quad - 2.0 * t * lin + t * t * sq
