"""Averaged periodogram, thresholding operators, shrinkage and coherence.

Spectral matrices are plain complex ndarrays.  A real series has
f(-omega) = conj f(omega), so a spectrum over F_n is one (n//2+1, p, p)
array of its rows j = 0..floor(n/2); a `SpectralEstimate` bundles that
array with the estimator metadata (smoothing span, method, per-frequency
thresholds).
"""

from __future__ import annotations

import collections
import concurrent.futures
import functools
import math
import os
import sys
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .dft import _dft, _periodograms
from .errors import DataError, NumericalError, ParameterError
from .model import TimeSeriesMatrix

THRESHOLD_METHODS = ("hard", "lasso", "adaptive_lasso")
ALL_METHODS = ("smoothed", "shrinkage") + THRESHOLD_METHODS
METHOD_ALIASES = {"alasso": "adaptive_lasso"}
_TINY = np.finfo(float).tiny  # below it a modulus is subnormal, and 1/|z| overflows


def canonical_method(name: str) -> str:
    """The method of ALL_METHODS that `name` or its alias names."""
    name = METHOD_ALIASES.get(name, name) if isinstance(name, str) else name
    if name not in ALL_METHODS:
        raise ParameterError(f"unknown method {name!r}")
    return name


@dataclass(frozen=True)
class ThresholdOperator:
    """Entrywise generalized thresholding operator.

    All kinds satisfy, for every finite complex z and lambda >= 0:
    |S(z)| <= |z|, S(z) = 0 when |z| <= lambda, and |S(z) - z| <= lambda.
    """

    kind: str  # hard | lasso | adaptive_lasso
    eta: float = 2.0

    def __post_init__(self):
        if self.kind not in THRESHOLD_METHODS:
            raise ParameterError(f"unknown threshold operator {self.kind!r}")
        if not np.isfinite(self.eta):
            raise ParameterError("eta must be finite")
        if self.eta <= 0:
            raise ParameterError("eta must be positive")

    def __call__(self, z: np.ndarray, lam: float) -> np.ndarray:
        _check_thresholds(np.array([lam], dtype=float))
        z = np.asarray(z, dtype=complex)
        if not np.isfinite(z).all():
            raise ParameterError("entries must be finite")
        return self._apply(z, lam)

    def _apply(self, z: np.ndarray, lam, mod=None, phase=None) -> np.ndarray:
        """S(z) at thresholds lam that broadcast against the complex array z:
        one float, or a (rows, 1, 1) array for a (rows, p, p) stack; `mod`
        and `phase`, when given, are |z| and `_phase(z, mod)`."""
        mod = np.abs(z) if mod is None else mod
        if self.kind == "hard":
            return np.where(mod >= lam, z, 0.0)
        if self.kind == "lasso":
            shrunk = np.maximum(mod - lam, 0.0)
        else:
            t = np.reshape([_penalty_scale(v, self.eta) for v in np.ravel(lam).tolist()], np.shape(lam))
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                penalty = np.where(mod > 0, t * mod ** (-self.eta), np.inf)
                # lam^(eta+1) overflowed, lost bits or is 0 (0 |z|^(-eta) may be
                # 0 inf), or |z|^(-eta) may overflow (|z| subnormal): lam
                # (lam/|z|)^eta is the same penalty, finite unless |z| << lam
                other = (mod > 0) & ~((t >= _TINY) & (t < np.inf) & (mod >= _TINY))
                if other.any():
                    penalty = np.where(other, lam * (lam / mod) ** self.eta, penalty)
            shrunk = np.maximum(mod - penalty, 0.0)
        return (_phase(z, mod) if phase is None else phase) * shrunk


def _phase(z: np.ndarray, mod: np.ndarray) -> np.ndarray:
    """z / |z|, and 0 where z = 0, for the complex array z and its modulus;
    a z of subnormal |z|, whose 1/|z| overflows, is scaled by 2^600 first."""
    normal = mod >= _TINY
    if normal.all():  # no zero, subnormal (or NaN) entry to mask
        return _divide(z, mod)
    with np.errstate(invalid="ignore"):
        phase = np.where(normal, _divide(z, np.where(normal, mod, 1.0)), 0.0)
    small = (mod > 0) & ~normal
    scaled = np.ldexp(z[small].view(float), 600).view(complex)
    phase[small] = _divide(scaled, np.abs(scaled))
    return phase


def _divide(z: np.ndarray, c, out: Optional[np.ndarray] = None) -> np.ndarray:
    """z / c for a complex array z and positive reals c that broadcast
    against it, into `out` (which may be z) or a new array.  numpy divides
    by a real c as (re + im*0) * (1/c), (im - re*0) * (1/c): the float view
    of z times 1/c, in a fraction of the time, but where a part is -0 or
    not finite, so such a z (or a 0-d or non-contiguous one) goes to
    `np.divide`.  Dividing the float view by c rounds otherwise."""
    c = np.asarray(c, dtype=float)
    if (z.ndim == 0 or not z.flags.c_contiguous or not (out is None or out.flags.c_contiguous)
            or (z.view(np.int64) == np.iinfo(np.int64).min).any()  # the bits of -0.0
            or not np.isfinite(z.view(np.float64)).all()):
        return np.divide(z, c, out=out)
    out = np.empty_like(z) if out is None else out
    inv = 1.0 / c
    if inv.ndim and inv.shape[-1] > 1:  # a divisor per entry: scale each part
        np.multiply(z.real, inv, out=out.real)
        np.multiply(z.imag, inv, out=out.imag)
    else:
        np.multiply(z.view(np.float64), inv, out=out.view(np.float64))
    return out


def _penalty_scale(lam: float, eta: float) -> float:
    """lam^(eta+1) by Python's float power, so that a row thresholded in a
    batch equals the operator applied to it alone (numpy's array power can
    differ in the last bit); inf where the power overflows.  Where it is not
    a normal float, `ThresholdOperator._apply` forms the penalty another way."""
    try:
        return lam ** (eta + 1)
    except OverflowError:
        return math.inf


def _check_thresholds(lams: np.ndarray) -> None:
    """Raise if a threshold of `lams` is NaN, negative or infinite."""
    if np.isnan(lams).any():
        raise ParameterError("threshold must not be NaN")
    if (lams < 0).any():
        raise ParameterError("threshold must be nonnegative")
    if np.isinf(lams).any():
        raise ParameterError("threshold must be finite")


def half_weights(n: int) -> np.ndarray:
    """How often each j = 0..n//2 occurs in F_n up to conjugation: 1 at j = 0
    and at n/2 (n even), 2 elsewhere, since j and -j both occur."""
    weights = np.full(n // 2 + 1, 2.0)
    weights[0] = 1.0
    if n % 2 == 0:
        weights[-1] = 1.0
    return weights


@dataclass
class SpectralEstimate:
    """A spectrum estimate over F_n plus estimator metadata.

    `half[j]` is the p x p estimate at Fourier index j = 0..floor(n/2), and
    `lambdas[j]` its threshold; the estimate at -j is conj(half[j]), with
    threshold lambdas[j].  A threshold estimate of `tuning.tuned_estimates`
    carries the split-risk curves that chose its thresholds: row j's lambda
    grid `grids[j]` (one array for the estimates of a pass) and its split
    risk `risks[j]` at each grid value.  Other estimates have neither.
    """

    n: int
    p: int
    m: int
    method: str
    half: np.ndarray
    lambdas: Optional[np.ndarray] = None
    eta: Optional[float] = None
    channel_names: Optional[tuple] = None
    grids: Optional[np.ndarray] = None
    risks: Optional[np.ndarray] = None

    def min_eigenvalues(self) -> np.ndarray:
        """Smallest eigenvalue at each j = 0..floor(n/2), the same at -j
        (thresholding may break PSD)."""
        return np.linalg.eigvalsh(0.5 * (self.half + self.half.conj().swapaxes(1, 2)))[:, 0]


_BLOCK_ROWS = 16
_BLOCK_BYTES = 1 << 20


def _block_rows(p: int) -> int:
    """Rows of a `_row_blocks` block of p x p complex matrices."""
    return max(1, min(_BLOCK_ROWS, _BLOCK_BYTES // (16 * p * p)))


def _row_blocks(*arrays):
    """Blocks of consecutive rows of equally long (rows, p, p) arrays, as
    (rows slice, one view per array).

    A block has _BLOCK_ROWS rows, or fewer when that many would take more
    than _BLOCK_BYTES, so the temporaries of the work on a block stay small
    at large p.
    """
    step = _block_rows(arrays[0].shape[-1])
    for j0 in range(0, len(arrays[0]), step):
        rows = slice(j0, j0 + step)
        yield (rows, *(a[rows] for a in arrays))


def _pass_method(method):
    """A method as the estimation pass runs it: "smoothed" and "shrinkage"
    as their names, a threshold method's name (or alias) as its operator,
    and a `ThresholdOperator` (for an eta other than 2) as it is."""
    if isinstance(method, ThresholdOperator):
        return method
    name = canonical_method(method)
    return ThresholdOperator(name) if name in THRESHOLD_METHODS else name


def _lookahead_depth(ops: list, blocks: int) -> int:
    """How many formed pass blocks `_estimate_blocks` keeps ahead of the one
    it hands out: 1, so that a second thread tunes a block while the next is
    formed, when the pass has threshold methods and more than one block, the
    process may run on two CPUs or more and is not a pool worker (whose pool
    already fills the CPUs); 0 otherwise, the serial order.  A pool worker
    has imported `multiprocessing`, so the package need not import it."""
    mp = sys.modules.get("multiprocessing")
    if not ops or blocks < 2 or (mp is not None and mp.parent_process() is not None):
        return 0
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return int((cpus or 1) >= 2)


def _lookahead(items, depth: int):
    """The items of the iterator `items` in order, each handed out once
    `depth` more have been taken from it, or once it has ended.  An error
    taking an item is raised after the items taken before it are handed
    out, where a plain iteration of `items` raises it."""
    pending = collections.deque()
    error = None
    try:
        for item in items:
            pending.append(item)
            if len(pending) > depth:
                yield pending.popleft()
    except Exception as exc:
        error = exc
    yield from pending
    if error is not None:
        raise error


def _estimate_blocks(x: TimeSeriesMatrix, m: int, methods: Sequence, thresholds=None):
    """The estimate of each of `methods` (each a `_pass_method`) from one
    walk over the rows j = 0..floor(n/2), handed out as (k, rows, values,
    lambdas): rows `rows` of methods[k]'s estimate and their thresholds
    (NaN but for a threshold method), in row order and in `_row_blocks`'
    partition; `values` is valid until the next block is handed out.

    The walk takes the rows in pass blocks of size = step * (_BLOCK_ROWS //
    step) rows, step = `_block_rows(p)`: whole `_row_blocks` blocks, 16
    rows for p <= 64 and for p >= 182.  Position i = 0..floor(n/2)+2m of
    the walk holds I(w_{i-m}), so row j's window is positions j..j+2m;
    each position's periodogram is formed once from its row of the DFT
    (`dft._dft`, in walk order), into a buffer of size+2m matrices that
    keeps a block's last 2m positions for the next, moved down at most
    `size` at a time so that numpy needs no temporary copy of them.
    Nothing else but those positions' squared norms outlives a pass block.
    Per `_block_rows` group of a block's rows, the window members are added
    in order and divided by 2m+1, then by 2 pi (`_divide`), so row j is its
    window's `mean` over 2 pi bit for bit; `thresholds(ops, dft_rows, rows, f_hat)`
    gives the (operators, rows) thresholds, with dft_rows[i] =
    d(w_{rows[0]-m+i}), the DFT rows of the block's windows: a view of
    the walk's rows, which nothing writes once formed (split-risk tuning
    forms its half-window means from them, `tuning._split_risks`);
    shrinkage takes its row weights (`_shrink_weights`) over the block
    zero-padded to `size` rows, as numpy's row reductions can give other
    bits on fewer rows.  Each method's rows are then formed and handed
    out one `_row_blocks` block at a time; the operators keep the diagonal
    and share the block's |z| and z / |z| (`_phase`).

    The window averages are formed one pass block ahead
    (`_lookahead_depth`), in two buffers that alternate: one worker
    thread, started for the pass and joined when the pass ends or is
    abandoned, runs `thresholds` on block b while this thread forms block
    b+1, and only then waits for block b's thresholds and forms and hands
    out block b's rows.  The one worker takes the blocks in order, so
    `thresholds` sees them in row order, and no row's value depends on
    the thread.  With one BLAS thread this thread is the critical path:
    the worker tunes a block in less time than this one spends on one.
    Errors come in the serial order: an error forming block b+1 is raised
    once block b is handed out, after any error of block b's thresholds
    or shrinkage weights.  At depth 0 (no threshold method, a single
    block, one CPU, or a pool worker) the pass is serial, in one buffer.
    """
    methods = tuple(map(_pass_method, methods))
    n, p = x.n, x.p
    if m < 0 or 2 * m + 1 > n:
        raise ParameterError(f"invalid half-span m={m} for n={n}")
    shrink = "shrinkage" in methods
    if shrink and m < 1:
        raise ParameterError("shrinkage needs a window of at least 2 periodograms")
    d = _dft(x, m)  # the walk's DFT rows: d[i] = d(w_{i-m})
    n_rows, step = n // 2 + 1, _block_rows(p)
    size = step * (_BLOCK_ROWS // step)
    is_op = [isinstance(method, ThresholdOperator) for method in methods]
    ops = [method for method, op in zip(methods, is_op) if op]
    needs_phase = any(op.kind != "hard" for op in ops)  # the lasso kinds read z / |z|
    depth = _lookahead_depth(ops, len(range(0, n_rows, size)))
    buffers = [np.zeros((size, p, p), dtype=d.dtype) for _ in range(depth + 1)]
    diag = np.arange(p)
    # each walk position's periodogram's squared norm (0 past the end, for
    # the padded rows)
    member_sq = np.zeros(n_rows + size + 2 * m)
    members = _periodograms(d[:size + 2 * m])

    def formed(pool):
        """(j0, buffer, window averages, thresholds) of each pass block, the
        thresholds as a call that returns them."""
        for b, j0 in enumerate(range(0, n_rows, size)):
            f_hat = buffers[b % len(buffers)]
            block = f_hat[:min(size, n_rows - j0)]
            end = len(block) + 2 * m  # members[i] holds position j0 + i
            carried = 2 * m if j0 else 0  # members[:carried] kept from the previous block
            if j0:
                # in steps of at most `size` positions, so that no step's source
                # overlaps its destination and numpy copies in place
                for lo in range(0, 2 * m, size):
                    hi = min(lo + size, 2 * m)
                    members[lo:hi] = members[size + lo:size + hi]
                _periodograms(d[j0 + 2 * m:j0 + end], out=members[2 * m:end])
            if shrink:
                # einsum can give a one-matrix stack other bits, so take two
                first = min(carried, end - 2)
                member_sq[j0 + carried:j0 + end] = _sq_norms(members[first:end])[carried - first:]
            # a badly scaled series can overflow the window averages and the
            # shrinkage weights; both are checked below
            with np.errstate(over="ignore", invalid="ignore"):
                # one `_block_rows` group at a time, whose sums stay in cache
                for lo in range(0, len(block), step):
                    group = block[lo:lo + step]
                    group[...] = members[lo:lo + len(group)]
                    for i in range(1, 2 * m + 1):
                        group += members[lo + i:lo + i + len(group)]
                    _divide(group, 2 * m + 1, out=group)
                    _divide(group, 2.0 * np.pi, out=group)
            if not np.isfinite(block.real[:, diag, diag]).all():
                raise NumericalError("non-finite spectral diagonal: the series is badly scaled")
            f_hat[len(block):] = 0.0
            tune = None
            if ops:
                rows = range(j0, j0 + len(block))
                tune = functools.partial(thresholds, ops, d[j0:j0 + end], rows, block)
                if depth:
                    tune = pool.submit(tune).result
            yield j0, f_hat, block, tune

    # through the package, which imports its thread module only on first use
    with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
        for j0, f_hat, block, tune in _lookahead(formed(pool), depth):
            lambdas = np.full((len(methods), len(block)), np.nan)
            if ops:
                lambdas[is_op] = tune()
            if shrink:
                with np.errstate(over="ignore", invalid="ignore"):
                    rho, mu = _shrink_weights(f_hat, member_sq[j0:j0 + size + 2 * m], m)
                if not (np.isfinite(rho).all() and np.isfinite(mu).all()):
                    raise NumericalError("non-finite shrinkage weight: the series is badly scaled")
            for lo in range(0, len(block), step):
                part = slice(lo, min(lo + step, len(block)))
                z = block[part]
                mod = np.abs(z) if ops else None
                phase = _phase(z, mod) if needs_phase else None
                for k, (method, lam) in enumerate(zip(methods, lambdas[:, part])):
                    if isinstance(method, ThresholdOperator):
                        values = method._apply(z, lam[:, None, None], mod, phase)
                        values[:, diag, diag] = z[:, diag, diag]
                    elif method == "shrinkage":
                        values = z * (1.0 - rho[part])[:, None, None]
                        values.real[:, diag, diag] += (rho[part] * mu[part])[:, None]
                    else:
                        values = z
                    yield k, slice(j0 + part.start, j0 + part.stop), values, lam


def _estimates(x: TimeSeriesMatrix, m: int, methods: Sequence, thresholds=None) -> list:
    """The `SpectralEstimate` of each of `methods`, collected from the blocks
    of one estimation pass (`_estimate_blocks`)."""
    methods = tuple(map(_pass_method, methods))
    halves = [np.empty((x.n // 2 + 1, x.p, x.p), dtype=complex) for _ in methods]
    lambdas = np.empty((len(methods), x.n // 2 + 1))
    for k, rows, values, lams in _estimate_blocks(x, m, methods, thresholds):
        halves[k][rows], lambdas[k, rows] = values, lams
    ops = [method if isinstance(method, ThresholdOperator) else None for method in methods]
    return [SpectralEstimate(
        x.n, x.p, m, op.kind if op else method, half, lambdas=lams if op else None,
        eta=op.eta if op and op.kind == "adaptive_lasso" else None, channel_names=x.channel_names,
    ) for method, op, half, lams in zip(methods, ops, halves, lambdas)]


def threshold_estimate(
    x: TimeSeriesMatrix,
    m: int,
    op: ThresholdOperator,
    lambdas: Mapping[int, float],
) -> SpectralEstimate:
    """Thresholded averaged periodogram with per-frequency thresholds.

    `op` is a `ThresholdOperator` or the name of a threshold method.
    `lambdas[j]` is the threshold at j and at -j, for j = 0..floor(n/2).
    The off-diagonal entries are thresholded; the diagonal is kept.
    """
    op = _pass_method(op)
    if not isinstance(op, ThresholdOperator):
        raise ParameterError(f"{op!r} is not a threshold method")
    for j in range(x.n // 2 + 1):
        if j not in lambdas:
            raise ParameterError(f"no threshold provided for frequency index {j}")
    lam_rows = np.array([lambdas[j] for j in range(x.n // 2 + 1)], dtype=float)
    _check_thresholds(lam_rows)
    return _estimates(x, m, (op,), lambda ops, dft_rows, rows, f_hat: lam_rows[None, rows])[0]


def _sq_norms(stack: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each matrix of a stack."""
    flat = np.ascontiguousarray(stack, dtype=complex).reshape(len(stack), -1).view(np.float64)
    return np.einsum("ji,ji->j", flat, flat)


def _shrink_weights(f_hat: np.ndarray, member_sq: np.ndarray, m: int) -> tuple:
    """The weight rho and target level mu of each row of the window averages
    `f_hat`: the row's shrinkage estimate is (1 - rho) f_hat + rho mu I, the
    averaged periodogram shrunk toward its scaled-identity target.
    member_sq[i] is ||I(w_{i-m})||_F^2, so row j's window sums
    member_sq[j..j+2m].  f_hat's diagonal is shifted and put back, bit for
    bit.

    mu = tr(f_hat)/p, delta^2 = ||f_hat - mu I||_F^2 / p and rho =
    beta^2/delta^2 clamped to [0, 1]; beta^2 estimates the variance of the
    window mean f_hat.  With w = 2m+1 window members W_k = I(w_{j+k}) /
    (2 pi), |k| <= m, and their mean f_hat, the within-window dispersion
    needs only the window sum of the squared periodogram norms:

        sum_k ||W_k - f_hat||_F^2 = sum_k ||W_k||_F^2 - w ||f_hat||_F^2,

    so beta^2 = (sum_k ||I_{j+k}||_F^2 / (2 pi)^2 - w ||f_hat||_F^2) / (p w (w-1)).
    The difference can come out slightly negative by cancellation when the
    window members are (nearly) equal, so beta^2 is clamped at 0.  delta^2
    is summed from the deviations f_hat - mu I themselves, so a scaled
    identity (in particular p = 1) gives delta^2 = 0, rho = 0 and f_hat
    unchanged."""
    p, w = f_hat.shape[-1], 2 * m + 1
    diag = np.arange(p)
    re_diag = f_hat.real[:, diag, diag]  # a copy, restored below
    mu = re_diag.sum(axis=1) / p
    f_hat.real[:, diag, diag] -= mu[:, None]
    delta2 = _sq_norms(f_hat) / p
    f_hat.real[:, diag, diag] = re_diag
    window_sq = np.lib.stride_tricks.sliding_window_view(member_sq, w).sum(axis=1)
    spread = window_sq / (2.0 * np.pi) ** 2 - w * _sq_norms(f_hat)
    beta2 = np.maximum(spread, 0.0) / (p * w * (w - 1))
    rho = np.zeros_like(delta2)
    np.divide(beta2, delta2, out=rho, where=delta2 > 0.0)
    np.minimum(rho, 1.0, out=rho)
    return rho, mu


# a channel whose spectral diagonal is at most this times the largest
# diagonal at its frequency has no defined coherence
_TAU_FLOOR = 1e-12


def coherence(matrix: np.ndarray) -> np.ndarray:
    """Coherence g_rs = f_rs / sqrt(f_rr f_ss); unit diagonal."""
    scale = _channel_scales(np.asarray(matrix)[None])[0]
    g = matrix * np.outer(scale, scale)
    g[np.diag_indices_from(g)] = 1.0
    return g


def _channel_scales(f: np.ndarray) -> np.ndarray:
    """1 / sqrt(f_rr) of each matrix of a (rows, p, p) stack, as a (rows, p)
    array.  Raises for the first channel, in row order, whose diagonal is at
    most _TAU_FLOOR times the largest diagonal of its matrix (every channel
    of an all-zero matrix), so the floor follows the series' units."""
    diag = np.diagonal(f, axis1=1, axis2=2).real
    bad = np.argwhere(diag <= _TAU_FLOOR * diag.max(axis=1, keepdims=True))
    if bad.size:
        raise DataError(f"degenerate channel {int(bad[0, 1])}: diagonal at most {_TAU_FLOOR} "
                        "times the largest")
    return 1.0 / np.sqrt(diag)


def _coherence_sum(acc: np.ndarray, f: np.ndarray, weights: np.ndarray) -> None:
    """Add weights[j] |coherence| of each matrix f[j] of a block to `acc`."""
    scale = _channel_scales(f)
    # |g_rs| = |f_rs| / sqrt(f_rr f_ss); the diagonal is zeroed at the end
    mod = np.abs(f)
    mod *= scale[:, :, None]
    mod *= scale[:, None, :]
    acc += np.einsum("j,jrs->rs", weights, mod)


def _coherence_graph(acc: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The graph from the `_coherence_sum` of every row."""
    acc = acc / weights.sum()
    np.fill_diagonal(acc, 0.0)
    return 0.5 * (acc + acc.T)


def aggregate_coherence_graph(est: SpectralEstimate) -> np.ndarray:
    """Mean of |coherence| over the frequencies of F_n, zero diagonal.

    Produces the p x p weighted adjacency matrix used for coherence-network
    edge selection.  |coherence| is the same at -j as at j, so row j of
    `est.half` is weighted by its count in F_n (`half_weights`).
    """
    weights = half_weights(est.n)
    acc = np.zeros(est.half.shape[1:])
    for rows, f in _row_blocks(est.half):
        _coherence_sum(acc, f, weights[rows])
    return _coherence_graph(acc, weights)
