"""Threshold selection by frequency-domain sample-splitting.

For each frequency, the smoothing window of periodograms is randomly
split into two halves (keeping mirror pairs {k, -k} together), one half
is thresholded and compared against the plain average of the other half
in squared Frobenius norm, and the grid value minimizing the averaged
risk is selected.

The risk of a split (f1, f2) is scored over the whole grid in closed form
rather than by thresholding f1 once per grid value.  Let E be the entries
the operator acts on (the off-diagonal ones: the diagonal is kept),
a = |f1| on E, b = Re(conj(f1 / a) f2) (0 where a = 0) and
C = sum_diag |f1 - f2|^2 + sum_E |f2|^2.  Each entry contributes
|S(f1) - f2|^2 = s^2 - 2 s b + |f2|^2, where s is the thresholded modulus, so

    hard:           R(lam) = C + sum_{a >= lam} (|f1 - f2|^2 - |f2|^2)
    lasso:          R(lam) = C + sum_{a > lam} (a^2 - 2ab)
                             - 2 lam sum_{a > lam} (a - b) + lam^2 #{a > lam}
    adaptive lasso: R(lam) = C + sum_{a > lam} (a^2 - 2ab)
                             - 2 t sum_{a > lam} a^-eta (a - b)
                             + t^2 sum_{a > lam} a^-2eta,   t = lam^(eta + 1)

(the adaptive lasso keeps an entry exactly when a^(eta+1) > lam^(eta+1),
i.e. a > lam).  f1 and f2 are Hermitian, so entry (s, r) has the a and b
of entry (r, s): every sum over E is twice the sum over the p(p-1)/2
entries above the diagonal, and only those are kept.  After one sort of
a, every sum is a suffix sum, and `np.searchsorted` finds each grid
value's suffix.

The work per split is in two parts.  The preparation (`_Split`) does not
depend on the operator: the gather of the upper triangle, the sort of a,
z1, z2, b, |f2|^2 and C.  The risk step (`_Split.risk`) is per operator:
its suffix sums and `np.searchsorted`.  `tuned_estimates` walks the
frequencies once for several operators, drawing and preparing each split
once and running only the risk step per operator.

Block layout.  The estimation pass (`estimator._estimate_blocks`) walks the
rows j = 0..floor(n/2) in blocks (16 rows for p <= 64) and asks the split
rule (`_split_rule`) for each block's thresholds, from the block's window
averages and the DFT rows of the block's windows,
d(w_{j0-m})..d(w_{j0+rows-1+m}) for a block starting at j0: a slice of
the pass's walk-ordered DFT (`dft._dft`), which nothing writes.  Per block:

- the lambda grids are one (rows, grid size) array, spaced by
  `np.linspace(lo, hi, size, axis=1)` (`_lambda_grids`); the rule trusts
  the grids it builds, and a grid whose values repeat tunes like any
  other;
- each frequency draws its splits from its own stream `_freq_rng(seed, j)`,
  in the per-frequency order, so a row's splits never depend on its block.
  A split is the 0/1 column t_1 of the window offsets in J1
  (`_draw_split`), drawn one unit of the window at a time;
- each row's two half-window means are one batched `np.matmul` per split:
  half h of row r is (t_h W_r)^T conj(W_r) / (2 pi |J_h|), where W_r is
  a sliding (2m+1, p) view of the block's DFT rows, so no periodogram is
  gathered and no half is summed matrix by matrix.  numpy hands BLAS
  each row's product on its own, so a row's halves do not depend on its
  block;
- the preparation and risk step work on (rows, p(p-1)/2) arrays: a
  row-wise sort and cumulative sums, C summed row by row (`_row_sums`),
  and a `np.searchsorted` per row.  A row equals the one-row split of its
  frequency bit for bit;
- the risks are one (operators, rows, grid size) array, and each row's
  threshold is the argmin of its own curve there.

`tuned_estimates` hands those curves out with the estimates whose
thresholds they chose.  The pass then thresholds the window averages one
`_row_blocks` block at a time, one operator call per block, one
threshold per row.

The split rule may run on the pass's worker thread, one block behind the
window sums: `estimator._estimate_blocks` gives that order.  A block's
thresholds read only its DFT rows, its window averages and the streams
`_freq_rng(seed, j)`, so they keep their bits on either thread.  The rule
calls only private helpers, as perfbench's tracer keeps one span stack
per process, and sets its own `np.errstate`, which does not cross threads.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence

import numpy as np

from .errors import NumericalError, ParameterError
from .estimator import SpectralEstimate, ThresholdOperator, _estimate_blocks, _estimates
from .model import TimeSeriesMatrix


def _freq_rng(seed: int, j: int) -> np.random.Generator:
    # Derived stream per frequency so parallel tuning order cannot matter.
    # Negative indices map to distinct nonnegative spawn keys.
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(j % 2**32,)))


def _window_units(j: int, m: int, n: int) -> list:
    """The units of j's window {j-m, ..., j+m} that a split keeps together,
    as tuples of window offsets 0..2m: one offset, or the two offsets of a
    mirror pair {k, -k} when both fall in the window; for 2m+1 <= n."""
    width = 2 * m + 1
    # offset i holds w_{j-m+i}, whose mirror w_{m-j-i} is at offset 2(m-j)-i mod n
    mirror = [(2 * (m - j) - i) % n for i in range(width)]
    # a pair is taken at its smaller offset
    return [(i,) if mirror[i] == i or mirror[i] >= width else (i, mirror[i])
            for i in range(width) if mirror[i] >= i]


def _draw_split(units: list, width: int, rng: np.random.Generator) -> np.ndarray:
    """Which of the `width` window offsets fall in J1, as a boolean array,
    for a random balanced split of the window's `units` into (J1, J2).

    The units are taken in the order of `rng.permutation`; each goes to the
    smaller half, and a fair bit `rng.integers(2)` picks the half when both
    are equally large.
    """
    in_j1 = np.zeros(width, dtype=bool)
    order = rng.permutation(len(units))
    sizes = [0, 0]
    for idx in order:
        if sizes[0] != sizes[1]:
            h = int(sizes[1] < sizes[0])
        else:
            h = int(rng.integers(2))
        sizes[h] += len(units[idx])
        if h == 0:
            in_j1[list(units[idx])] = True
    return in_j1


def _split_risks(
    dft_rows: np.ndarray, n: int, js: Sequence[int], grids: np.ndarray, m: int,
    n_splits: int, seed: int, ops: Sequence[ThresholdOperator],
) -> np.ndarray:
    """Split risk of frequency js[r] at each value of grids[r], averaged over
    n_splits splits, as a (len(ops), len(js), grid size) array, for
    consecutive js; dft_rows[i] holds d(w_{js[0]-m+i}).

    Frequency j draws its splits in order from its own stream
    `_freq_rng(seed, j)`, so a row does not depend on the other rows.  A
    half's mean is sum I(w_k) / (2 pi |J|), on f(w_j)'s scale whatever |J|.
    With W the (2m+1, p) DFT rows of row r's window and t_h the 0/1 column
    of the window offsets in half h, that sum is (t_h W)^T conj(W): every
    row's half is one product in one batched `np.matmul` per split, whose
    rows come out as they do on their own.  Each split is drawn, averaged
    and prepared once, whatever the number of operators scored from it.
    """
    width = 2 * m + 1
    if width < 2:
        raise ParameterError("window must contain at least 2 frequencies")
    rngs = [_freq_rng(seed, j) for j in js]
    units = [_window_units(j, m, n) for j in js]
    risks = np.zeros((len(ops),) + grids.shape)
    # row r's window W as a (rows, 2m+1, p) view, and conj(W)
    window = np.lib.stride_tricks.sliding_window_view(dft_rows, width, axis=0).swapaxes(1, 2)
    window_conj = np.lib.stride_tricks.sliding_window_view(
        dft_rows.conj(), width, axis=0).swapaxes(1, 2)
    take = np.empty((2, len(js), width))  # t_h of every row
    # the two half-window means of every row; _Split copies what it keeps
    halves = np.empty((2, len(js)) + 2 * dft_rows.shape[1:], dtype=dft_rows.dtype)
    for _ in range(n_splits):
        for r, rng in enumerate(rngs):
            take[0, r] = _draw_split(units[r], width, rng)
        take[1] = 1.0 - take[0]
        np.matmul((take[..., None] * window).swapaxes(2, 3), window_conj, out=halves)
        halves /= take.sum(axis=2)[..., None, None]
        halves /= 2.0 * np.pi
        split = _Split(*halves)
        for row, op in zip(risks, ops):
            row += split.risk(op, grids)
    risks /= n_splits
    return risks


def _suffix_sums(v: np.ndarray) -> np.ndarray:
    """out[r, i] = sum(v[r, i:]) for i = 0..E, row by row; out[:, E] = 0."""
    out = np.zeros((v.shape[0], v.shape[1] + 1))
    out[:, :-1] = np.cumsum(v[:, ::-1], axis=1)[:, ::-1]
    return out


def _row_sums(v: np.ndarray) -> np.ndarray:
    """The sum of each row of a 2-D array, each row summed on its own: numpy's
    `sum(axis=1)` can add a row in another order on more rows."""
    return np.array([row.sum() for row in v])


def _searchsorted_rows(a: np.ndarray, v: np.ndarray, side: str) -> np.ndarray:
    """`np.searchsorted` of each row of v in the same row of a (numpy has no row-wise form)."""
    return np.array([np.searchsorted(a_row, v_row, side=side) for a_row, v_row in zip(a, v)])


class _Split:
    """The operator-independent part of the closed-form risk of one split of
    each row of a block of frequencies.

    The halves f1 and f2 are Hermitian (up to the roundoff of their
    products), so entry (s, r) of E scores what entry (r, s) does: only the
    p(p-1)/2 entries above the diagonal are kept, and every sum over E is
    twice their sum, the risk of the Hermitian halves with those upper
    triangles.  Holds each row's upper
    entries sorted by a = |f1| (z1, z2 and |f2|^2 in the same order), b and
    the constant C, as (rows, p(p-1)/2) arrays; `risk` adds one operator's
    suffix sums.  Sorts, sums and cumulative sums run along each row on
    its own, so row r equals a one-row split of row r bit for bit.
    """

    def __init__(self, f1: np.ndarray, f2: np.ndarray):
        p = f1.shape[-1]
        upper = np.triu_indices(p, 1)
        diag = np.arange(p)
        z1, z2 = f1[:, upper[0], upper[1]], f2[:, upper[0], upper[1]]
        a = np.abs(z1)
        order = np.argsort(a, axis=1)
        self.a = np.take_along_axis(a, order, axis=1)
        self.z1 = np.take_along_axis(z1, order, axis=1)
        self.z2 = np.take_along_axis(z2, order, axis=1)
        self.f2_sq = np.abs(self.z2) ** 2
        on_diag = np.abs(f1[:, diag, diag] - f2[:, diag, diag]) ** 2
        self.const = _row_sums(on_diag) + 2.0 * _row_sums(self.f2_sq)
        self.nonzero = nz = self.a > 0
        self.b = np.zeros_like(self.a)
        self.b[nz] = (np.conj(self.z1[nz] / self.a[nz]) * self.z2[nz]).real

    def risk(self, op: ThresholdOperator, lam: np.ndarray) -> np.ndarray:
        """||S_l(f1) - f2||_F^2, with S_l the operator at l on the
        off-diagonal entries, at every l of each row of the (rows, grid
        size) array lam, for the same row of f1 and f2."""
        a = self.a
        if op.kind == "hard":
            kept = _suffix_sums(np.abs(self.z1 - self.z2) ** 2 - self.f2_sq)
            idx = _searchsorted_rows(a, lam, "left")
            return self.const[:, None] + 2.0 * np.take_along_axis(kept, idx, axis=1)
        # lasso is the eta = 0 case of the adaptive-lasso formula
        eta = op.eta if op.kind == "adaptive_lasso" else 0.0
        weight = np.zeros_like(a)
        weight[self.nonzero] = a[self.nonzero] ** -eta
        idx = _searchsorted_rows(a, lam, "right")
        quad = np.take_along_axis(_suffix_sums(a * a - 2.0 * a * self.b), idx, axis=1)
        lin = np.take_along_axis(_suffix_sums(weight * (a - self.b)), idx, axis=1)
        sq = np.take_along_axis(_suffix_sums(weight * weight), idx, axis=1)
        # t only matters where some entry survives; elsewhere a huge lam could
        # overflow t and turn t * 0 into NaN
        live = idx < a.shape[1]
        t = np.zeros_like(lam)
        t[live] = lam[live] ** (eta + 1.0)
        return self.const[:, None] + 2.0 * (quad - 2.0 * t * lin + t * t * sq)


def _lambda_grids(f_hat: np.ndarray, size: int) -> np.ndarray:
    """The lambda grid of each matrix of a (rows, p, p) stack, as a (rows,
    size) array: `size` values equispaced between its smallest and largest
    off-diagonal modulus, so a row whose moduli are all equal repeats its
    one value.  With p = 1 every grid is (0.0,), one column.  The pass's
    diagonals are finite and |f_rs| <= sqrt(f_rr f_ss), so every grid is.
    """
    if size < 1:
        raise ParameterError("grid size must be positive")
    rows, p = f_hat.shape[0], f_hat.shape[-1]
    if p < 2:
        # no off-diagonal entries: the threshold acts on nothing
        return np.zeros((rows, 1))
    off = np.abs(f_hat[:, ~np.eye(p, dtype=bool)])
    lo, hi = off.min(axis=1), off.max(axis=1)
    grids = np.empty((rows, size))
    # np.linspace switches every row to another formula once one row has a
    # zero step (equal moduli, or hi - lo subnormal), so such rows are spaced
    # on their own and every row equals its own 1-D linspace
    zero_step = (hi - lo) / max(size - 1, 1) == 0
    for group in (zero_step, ~zero_step):
        if group.any():
            grids[group] = np.linspace(lo[group], hi[group], size, axis=1)
    return grids


def _split_rule(n: int, m: int, grid_size: int, n_splits: int, seed: int, curves=None):
    """The `thresholds` rule of `estimator._estimates` that tunes by split
    risk; it appends each block's (grids, risks) to the list `curves` when
    one is given."""
    def thresholds(ops, dft_rows, rows, f_hat):
        if n_splits < 1:
            raise ParameterError("n_splits must be at least 1")
        grids = _lambda_grids(f_hat, grid_size)
        # a badly scaled series can overflow the risks; it is caught below
        with np.errstate(over="ignore", invalid="ignore"):
            risks = _split_risks(dft_rows, n, rows, grids, m, n_splits, seed, ops)
        if not np.isfinite(risks).all():
            raise NumericalError("non-finite split risk: the series is badly scaled")
        if curves is not None:
            curves.append((grids, risks))
        # argmin ties break toward the smaller threshold
        return grids[np.arange(len(grids)), risks.argmin(axis=2)]

    return thresholds


def tuned_estimates(
    x: TimeSeriesMatrix, m: int, methods: Sequence, grid_size: int = 20, n_splits: int = 1,
    seed: int = 0,
) -> List[SpectralEstimate]:
    """The estimate of each of `methods` from one estimation pass
    (`estimator._estimate_blocks`): each a name of `estimator.ALL_METHODS`
    or its alias ("alasso"), or a `ThresholdOperator`, for an eta other
    than 2.  Each threshold method's threshold at row j is the argmin of
    its split-risk curve there, ties toward the smaller one; split draws
    depend only on (seed, j), so each estimate equals its own
    single-method call bit for bit.  The estimate carries that curve
    (`SpectralEstimate.grids` and `.risks`, (floor(n/2)+1, G) arrays): G
    is grid_size, or 1 with p = 1, whose grids are 0.0; a row whose
    off-diagonal moduli are all equal repeats its one value."""
    curves: list = []
    ests = _estimates(x, m, methods, _split_rule(x.n, m, grid_size, n_splits, seed, curves))
    if curves:
        # the blocks' grids (rows, G) and risks (operators, rows, G), in row order
        grids, risks = (np.concatenate(part, axis=-2) for part in zip(*curves))
        for est, curve in zip([est for est in ests if est.lambdas is not None], risks):
            est.grids, est.risks = grids, curve
    return ests


def tuned_blocks(x: TimeSeriesMatrix, m: int, methods: Sequence, grid_size: int = 20,
                 n_splits: int = 1, seed: int = 0) -> Iterator[tuple]:
    """The estimates of `tuned_estimates` as the pass hands them out, a block
    of rows at a time (`estimator._estimate_blocks`)."""
    return _estimate_blocks(x, m, methods, _split_rule(x.n, m, grid_size, n_splits, seed))


def theoretical_threshold(
    stability: float, omega_n: float, l_n: float, n: int, m: int, p: int, r_const: float = 1.0
) -> float:
    """Theory-tracking threshold
    2 R |||f||| sqrt(log p / m) + 2 [ (m + 1/2pi)/n * Omega_n + L_n / 2pi ].
    """
    inputs = (stability, omega_n, l_n, r_const)
    if not np.all(np.isfinite(inputs)):
        raise ParameterError("inputs must be finite")
    if min(inputs) < 0:
        raise ParameterError("inputs must be nonnegative")
    if n < 1:
        raise ParameterError("n must be at least 1")
    if m < 1:
        raise ParameterError("m must be at least 1")
    if p < 1:
        raise ParameterError("p must be at least 1")
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
    # for n >= 9 both rules give m >= 2 and 2m+1 <= n
    return m
