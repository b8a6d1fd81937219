"""VARMA generative models and their population spectral quantities.

A model is specified by AR coefficients A_1..A_d, MA coefficients B_1..B_q,
a noise covariance and a noise family.  The module simulates sample paths
and computes exact spectral densities, autocovariances and the
dependence measures that drive smoothing-bias bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ModelError, NumericalError, ParameterError

NOISE_FAMILIES = ("gaussian", "student_t", "laplace")

# Truncation level for geometric tails: lags beyond the point where
# radius**L < TAIL_TOL contribute below double precision.
TAIL_TOL = 1e-12


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


def true_spectral_density(model: VarmaModel, omega: float) -> np.ndarray:
    """Population spectral density f(omega), a p x p Hermitian PSD matrix.

    f(w) = (1/2pi) A^{-1}(e^{-iw}) B(e^{-iw}) Sigma B'(e^{-iw}) A^{-1}'(e^{-iw})
    with A(z) = I - sum A_l z^l and B(z) = I + sum B_l z^l.
    """
    return _spectral_density(model, np.array([omega], dtype=float))[0]


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


def _spectral_density(model: VarmaModel, omegas: np.ndarray) -> np.ndarray:
    """`true_spectral_density` at each of `omegas`, a (len(omegas), p, p) array.

    f is block-diagonal over `_components`: the entries between two
    components are exact zeros, and all components of one size are solved
    as one stacked problem.  Per block of frequencies, one batched SVD per
    size guards the condition number of the whole A(e^{-iw}), the largest
    singular value of any component over the smallest, and one batched
    solve per size gives A^{-1} B.
    """
    out = np.zeros((len(omegas), model.dim, model.dim), dtype=complex)
    comps = _components(model)
    blocks = [(rows[:, :, None], rows[:, None, :]) for rows in comps]
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
        for sub, h in zip(blocks, hs):
            f = (h @ model.noise_cov[sub] @ h.conj().swapaxes(-1, -2)) / (2.0 * np.pi)
            out[j0:j0 + len(w), sub[0], sub[1]] = 0.5 * (f + f.conj().swapaxes(-1, -2))
    return out


def ma_infinity_weights(model: VarmaModel, l_max: int) -> np.ndarray:
    """MA(infinity) weights Psi_0..Psi_{l_max} of the VARMA recursion."""
    p, d, q = model.dim, model.ar_order, model.ma_order
    psi = np.zeros((l_max + 1, p, p))
    psi[0] = np.eye(p)
    for l in range(1, l_max + 1):
        acc = model.ma_coeffs[l - 1].copy() if l <= q else np.zeros((p, p))
        for k in range(1, min(l, d) + 1):
            acc += model.ar_coeffs[k - 1] @ psi[l - k]
        psi[l] = acc
    return psi


def tail_cap(model: VarmaModel) -> int:
    """Smallest lag L with radius**L below the geometric-tail tolerance."""
    rho = model.spectral_radius()
    if rho == 0.0:
        return model.ma_order
    return max(model.ma_order, int(np.ceil(np.log(TAIL_TOL) / np.log(rho))) + 1)


def autocov(model: VarmaModel, l_max: int) -> np.ndarray:
    """Autocovariances Gamma(0..l_max), an (l_max + 1, p, p) array, via the
    truncated MA(infinity) series; Gamma(-l) is Gamma(l) transposed.

    Gamma(l) = sum_t Psi_t Sigma Psi_{t+l}^T; the geometric series is cut
    where the summand norm falls below double precision.
    """
    if l_max < 0:
        raise ParameterError("l_max must be nonnegative")
    cap = max(tail_cap(model), l_max)
    psi = ma_infinity_weights(model, cap + l_max)
    psi_sigma = psi @ model.noise_cov
    gammas = np.einsum("tij,tkj->ik", psi_sigma[: cap + 1], psi[: cap + 1])[None]
    if l_max > 0:
        stacked = [
            np.einsum("tij,tkj->ik", psi_sigma[: cap + 1], psi[l : cap + 1 + l])
            for l in range(1, l_max + 1)
        ]
        # Gamma(l) = Cov(X_t, X_{t-l}) = sum Psi_{t+l} Sigma Psi_t^T
        gammas = np.concatenate([gammas, np.stack(stacked).transpose(0, 2, 1)])
    return gammas


def _lag_array(gammas, n: int) -> np.ndarray:
    """`gammas` as a float (l_max + 1, p, p) array, with n checked."""
    arr = np.asarray(gammas, dtype=float)
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise ParameterError("gammas must have shape (l_max + 1, p, p)")
    if n < 0:
        raise ParameterError("n must be nonnegative")
    return arr


def omega_n(gammas, n: int) -> float:
    """Lag-weighted dependence sum max_rs sum_{|l|<=n} |l| |Gamma_rs(l)| of
    the autocovariances Gamma(0..l_max) that `autocov` returns."""
    gammas = _lag_array(gammas, n)
    if len(gammas) <= n:
        raise ParameterError(f"need autocovariances up to lag {n}, have {len(gammas) - 1}")
    total = np.zeros(gammas.shape[1:])
    for l in range(1, n + 1):
        g = gammas[l]
        total += l * (np.abs(g) + np.abs(g.T))
    return float(total.max())


def l_n(gammas, n: int) -> float:
    """Tail sum max_rs sum_{|l|>n} |Gamma_rs(l)| of the autocovariances
    Gamma(0..l_max), summed to the last lag l_max given.

    The truncation error is below the geometric tail of the model when the
    sequence was produced by `autocov` with the default cap.
    """
    gammas = _lag_array(gammas, n)
    l_max = len(gammas) - 1
    if l_max <= n:
        return 0.0
    total = np.zeros(gammas.shape[1:])
    for l in range(n + 1, l_max + 1):
        g = gammas[l]
        total += np.abs(g) + np.abs(g.T)
    return float(total.max())


def stability_measure(model: VarmaModel, grid_size: int = 512) -> float:
    """Grid approximation of ess sup over omega of the spectral norm of f.

    The spectral density of a VARMA model is continuous, so the max over an
    equispaced grid on [-pi, pi] converges as the grid is refined; the
    approximation error is O(Lipschitz / grid_size).
    """
    if grid_size < 8:
        raise ParameterError("grid_size must be at least 8")
    omegas = np.linspace(-np.pi, np.pi, grid_size, endpoint=False)
    # a block of frequencies at a time, so f is never held at every omega
    step = max(1, _BLOCK_ENTRIES // model.dim**2)
    return max(float(np.linalg.norm(_spectral_density(model, omegas[j:j + step]), 2, axis=(1, 2)).max())
               for j in range(0, grid_size, step))


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
