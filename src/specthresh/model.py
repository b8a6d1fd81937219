"""VARMA generative models and their population spectral quantities.

A model is specified by AR coefficients A_1..A_d, MA coefficients B_1..B_q,
a noise covariance and a noise family.  The module simulates sample paths
and computes exact spectral densities on a grid of frequencies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ModelError, NumericalError, ParameterError

NOISE_FAMILIES = ("gaussian", "student_t", "laplace")


def _as_square_matrices(mats, p, name):
    out = []
    for k, m in enumerate(mats):
        arr = np.asarray(m, dtype=float)
        if arr.shape != (p, p):
            raise ModelError(f"{name}[{k}] has shape {arr.shape}, expected ({p}, {p})")
        if not np.all(np.isfinite(arr)):
            raise ModelError(f"{name}[{k}] contains non-finite entries")
        out.append(arr)
    return tuple(out)


@dataclass(frozen=True)
class VarmaModel:
    """Stable VARMA(d, q) model X_t = sum A_l X_{t-l} + eps_t + sum B_l eps_{t-l}.

    Noise coordinates are i.i.d. from `noise_family`, standardized to unit
    variance, then colored by the Cholesky factor of `noise_cov`.
    """

    dim: int
    ar_coeffs: tuple = ()
    ma_coeffs: tuple = ()
    noise_cov: Optional[np.ndarray] = None
    noise_family: str = "gaussian"
    noise_df: Optional[float] = None

    def __post_init__(self):
        p = self.dim
        if p < 1:
            raise ModelError("dim must be a positive integer")
        object.__setattr__(self, "ar_coeffs", _as_square_matrices(self.ar_coeffs, p, "ar_coeffs"))
        object.__setattr__(self, "ma_coeffs", _as_square_matrices(self.ma_coeffs, p, "ma_coeffs"))
        cov = np.eye(p) if self.noise_cov is None else np.asarray(self.noise_cov, dtype=float)
        if cov.shape != (p, p):
            raise ModelError(f"noise_cov has shape {cov.shape}, expected ({p}, {p})")
        if not np.all(np.isfinite(cov)):
            raise ModelError("noise_cov contains non-finite entries")
        if not np.allclose(cov, cov.T, atol=1e-10):
            raise ModelError("noise_cov must be symmetric")
        if np.min(np.linalg.eigvalsh(cov)) < -1e-10 * max(1.0, np.trace(cov)):
            raise ModelError("noise_cov must be positive semidefinite")
        object.__setattr__(self, "noise_cov", cov)
        if self.noise_df is not None and not np.isfinite(self.noise_df):
            raise ModelError("noise_df must be finite")
        if self.noise_family not in NOISE_FAMILIES:
            raise ModelError(f"unknown noise_family {self.noise_family!r}")
        if self.noise_family == "student_t":
            if self.noise_df is None or self.noise_df <= 4:
                raise ModelError("student_t noise requires df > 4 (finite fourth moment)")
        radius = self.spectral_radius()
        if radius >= 1.0:
            raise ModelError(f"unstable: spectral radius >= 1 (got {radius:.6f})")

    @property
    def ar_order(self) -> int:
        return len(self.ar_coeffs)

    @property
    def ma_order(self) -> int:
        return len(self.ma_coeffs)

    def companion_matrix(self) -> np.ndarray:
        """Companion matrix of the AR part; zero matrix if there is no AR part."""
        p, d = self.dim, self.ar_order
        if d == 0:
            return np.zeros((p, p))
        comp = np.zeros((p * d, p * d))
        comp[:p, :] = np.hstack(self.ar_coeffs)
        if d > 1:
            comp[p:, :-p] = np.eye(p * (d - 1))
        return comp

    def spectral_radius(self) -> float:
        if self.ar_order == 0:
            return 0.0
        return float(np.max(np.abs(np.linalg.eigvals(self.companion_matrix()))))


@dataclass(frozen=True)
class TimeSeriesMatrix:
    """n x p observation matrix, rows ordered in time."""

    data: np.ndarray
    channel_names: Optional[tuple] = None

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=float)
        if arr.ndim != 2:
            raise ParameterError("data must be a 2-d array")
        if arr.shape[0] < 2:
            raise ParameterError("need at least 2 observations")
        if not np.all(np.isfinite(arr)):
            raise ParameterError("data contains non-finite entries")
        object.__setattr__(self, "data", arr)
        if self.channel_names is not None:
            names = tuple(self.channel_names)
            if len(names) != arr.shape[1]:
                raise ParameterError("channel_names length must match column count")
            object.__setattr__(self, "channel_names", names)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def p(self) -> int:
        return self.data.shape[1]

    def center(self) -> "TimeSeriesMatrix":
        """Subtract column means."""
        return TimeSeriesMatrix(self.data - self.data.mean(axis=0, keepdims=True),
                                channel_names=self.channel_names)


def _standardized_noise(rng: np.random.Generator, model: VarmaModel, size) -> np.ndarray:
    fam = model.noise_family
    if fam == "gaussian":
        z = rng.standard_normal(size)
    elif fam == "student_t":
        df = model.noise_df
        z = rng.standard_t(df, size) * np.sqrt((df - 2.0) / df)
    else:  # laplace, variance 2*scale^2
        z = rng.laplace(0.0, 1.0 / np.sqrt(2.0), size)
    return z


def _noise_factor(cov: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        # PSD but singular: factor through the eigendecomposition.
        w, v = np.linalg.eigh(cov)
        return v * np.sqrt(np.clip(w, 0.0, None))


def default_burn_in(model: VarmaModel) -> int:
    """500 when an AR part is present, else 0 (pure MA starts exactly stationary)."""
    return 500 if model.ar_order > 0 else 0


def simulate_ensemble(
    model: VarmaModel,
    n: int,
    replicates: int,
    burn_in: Optional[int] = None,
    seed=0,
) -> np.ndarray:
    """Simulate `replicates` independent paths; returns (replicates, n, p).

    The MA recursion is primed with q extra pre-sample noise draws, so a
    pure MA model is exactly stationary even with burn_in = 0.
    """
    if n < 2:
        raise ParameterError("n must be at least 2")
    if burn_in is None:
        burn_in = default_burn_in(model)
    if burn_in < 0:
        raise ParameterError("burn_in must be nonnegative")
    p, d, q = model.dim, model.ar_order, model.ma_order
    rng = np.random.default_rng(seed)
    total = burn_in + n
    chol = _noise_factor(model.noise_cov)
    eps = _standardized_noise(rng, model, (replicates, total + q, p)) @ chol.T

    x = np.zeros((replicates, total + d, p))
    for t in range(total):
        acc = eps[:, t + q, :].copy()
        for l, b in enumerate(model.ma_coeffs, start=1):
            acc += eps[:, t + q - l, :] @ b.T
        for l, a in enumerate(model.ar_coeffs, start=1):
            acc += x[:, t + d - l, :] @ a.T
        x[:, t + d, :] = acc
    return x[:, d + burn_in :, :]


def simulate(model: VarmaModel, n: int, burn_in: Optional[int] = None, seed=0) -> TimeSeriesMatrix:
    """Simulate one sample path of length n.  Deterministic given seed."""
    path = simulate_ensemble(model, n, 1, burn_in=burn_in, seed=seed)[0]
    return TimeSeriesMatrix(path)


# Matrix entries per block of frequencies: 14 frequencies of a dense p = 192
# model, so each complex temporary stays near 8 MB.
_BLOCK_ENTRIES = 1 << 19


def _components(model: VarmaModel) -> list:
    """The channel components that no AR, MA or `noise_cov` entry links:
    one (k, s) array per component size s, a row of channels per component."""
    coeffs = (model.noise_cov,) + model.ar_coeffs + model.ma_coeffs
    linked = np.logical_or.reduce([c != 0 for c in coeffs])
    linked |= linked.T | np.eye(model.dim, dtype=bool)
    labels = np.arange(model.dim)
    # each channel takes the smallest label it is linked to, until none moves
    while not np.array_equal(labels, spread := np.where(linked, labels, model.dim).min(axis=1)):
        labels = spread
    comps = [np.flatnonzero(labels == label) for label in np.unique(labels)]
    return [np.array([c for c in comps if len(c) == s]) for s in sorted({len(c) for c in comps})]


def _stacked_poly(coeffs: Sequence, sub: tuple, z: np.ndarray, sign: float) -> np.ndarray:
    """I + sign * sum_l C_l z^l on the (k, s, s) diagonal blocks that the
    index pair `sub` picks, for each z of a (rows, 1, 1, 1) array."""
    k, s, _ = sub[0].shape
    out = np.broadcast_to(np.eye(s, dtype=complex), (len(z), k, s, s)).copy()
    for l, c in enumerate(coeffs, start=1):
        out += (sign * c[sub]) * z**l
    return out


def _spectral_blocks(model: VarmaModel, omegas: np.ndarray) -> list:
    """Population spectral density f at each of `omegas`, as its diagonal
    blocks: one ((rows, cols) index pair, (len(omegas), k, s, s) array
    f[:, rows, cols]) per size s of `_components`, whose k components of
    that size are solved as one stacked problem; every entry between two
    components is an exact zero.  Each f(w) is Hermitian PSD:

    f(w) = (1/2pi) A^{-1}(e^{-iw}) B(e^{-iw}) Sigma B'(e^{-iw}) A^{-1}'(e^{-iw})
    with A(z) = I - sum A_l z^l and B(z) = I + sum B_l z^l.

    Per block of frequencies, one batched SVD per size guards the condition
    number of the whole A(e^{-iw}), the largest singular value of any
    component over the smallest, and one batched solve per size gives A^{-1} B.
    """
    comps = _components(model)
    blocks = [(rows[:, :, None], rows[:, None, :]) for rows in comps]
    out = [np.empty((len(omegas),) + rows.shape + rows.shape[1:], dtype=complex) for rows in comps]
    step = max(1, _BLOCK_ENTRIES // sum(rows.size * rows.shape[1] for rows in comps))
    for j0 in range(0, len(omegas), step):
        w = omegas[j0:j0 + step]
        z = np.exp(-1j * w)[:, None, None, None]
        hs = [_stacked_poly(model.ma_coeffs, sub, z, +1.0) for sub in blocks]
        if model.ar_order:
            ars = [_stacked_poly(model.ar_coeffs, sub, z, -1.0) for sub in blocks]
            sv = np.concatenate([np.linalg.svd(a, compute_uv=False).reshape(len(w), -1)
                                 for a in ars], axis=1)
            with np.errstate(divide="ignore", invalid="ignore"):
                # an infinite or NaN condition number fails the test too
                bad = np.flatnonzero(~(sv.max(axis=1) / sv.min(axis=1) <= 1e12))
            if bad.size:
                raise NumericalError(f"AR polynomial nearly singular at omega={float(w[bad[0]])}")
            hs = [np.linalg.solve(a, h) for a, h in zip(ars, hs)]
            del ars  # let A go before the temporaries of f are made
        for sub, h, o in zip(blocks, hs, out):
            f = (h @ model.noise_cov[sub] @ h.conj().swapaxes(-1, -2)) / (2.0 * np.pi)
            o[j0:j0 + len(w)] = 0.5 * (f + f.conj().swapaxes(-1, -2))
    return list(zip(blocks, out))


def _spectral_density(model: VarmaModel, omegas: np.ndarray) -> np.ndarray:
    """`_spectral_blocks` scattered into a dense (len(omegas), p, p) array."""
    out = np.zeros((len(omegas), model.dim, model.dim), dtype=complex)
    for (rows, cols), f in _spectral_blocks(model, omegas):
        out[:, rows, cols] = f
    return out


def block_transition(p: int) -> np.ndarray:
    """Block-diagonal transition matrix of 3x3 upper-triangular blocks
    with 0.5 on the diagonal and 0.9 on the first upper off-diagonal."""
    if p % 3 != 0:
        raise ParameterError("block transition requires p divisible by 3")
    block = np.array([[0.5, 0.9, 0.0], [0.0, 0.5, 0.9], [0.0, 0.0, 0.5]])
    out = np.zeros((p, p))
    for i in range(0, p, 3):
        out[i : i + 3, i : i + 3] = block
    return out


def block_varma_model(p: int, family: str, noise_family: str = "gaussian",
                      noise_df: Optional[float] = None) -> VarmaModel:
    """VAR(1) or VMA(1) benchmark model with the block transition matrix."""
    trans = block_transition(p)
    if family == "var":
        return VarmaModel(dim=p, ar_coeffs=(trans,), noise_family=noise_family, noise_df=noise_df)
    if family == "vma":
        return VarmaModel(dim=p, ma_coeffs=(trans,), noise_family=noise_family, noise_df=noise_df)
    raise ParameterError(f"unknown model family {family!r}")
