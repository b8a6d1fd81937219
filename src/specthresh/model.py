"""VARMA generative models and their population spectral quantities.

A model is specified by AR coefficients A_1..A_d, MA coefficients B_1..B_q,
a noise covariance and a noise family.  The module simulates sample paths
and computes exact spectral densities, autocovariances and the
dependence measures that drive smoothing-bias bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
        if not np.allclose(cov, cov.T, atol=1e-10):
            raise ModelError("noise_cov must be symmetric")
        if np.min(np.linalg.eigvalsh(cov)) < -1e-10 * max(1.0, np.trace(cov)):
            raise ModelError("noise_cov must be positive semidefinite")
        object.__setattr__(self, "noise_cov", cov)
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
    centered: bool = False
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
        """Subtract column means.  Returns self if already centered."""
        if self.centered:
            return self
        return TimeSeriesMatrix(
            self.data - self.data.mean(axis=0, keepdims=True),
            centered=True,
            channel_names=self.channel_names,
        )


@dataclass(frozen=True)
class AutocovSequence:
    """Autocovariances Gamma(0..l_max); Gamma(-l) is Gamma(l) transposed."""

    lags: np.ndarray  # (l_max + 1, p, p)

    def __post_init__(self):
        arr = np.asarray(self.lags, dtype=float)
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
            raise ParameterError("lags must have shape (l_max + 1, p, p)")
        object.__setattr__(self, "lags", arr)

    @property
    def l_max(self) -> int:
        return self.lags.shape[0] - 1

    @property
    def p(self) -> int:
        return self.lags.shape[1]

    def gamma(self, lag: int) -> np.ndarray:
        if abs(lag) > self.l_max:
            raise ParameterError(f"lag {lag} exceeds l_max {self.l_max}")
        return self.lags[lag] if lag >= 0 else self.lags[-lag].T


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


def _poly_eval(coeffs: Sequence[np.ndarray], z: complex, p: int, sign: float) -> np.ndarray:
    out = np.eye(p, dtype=complex)
    for l, c in enumerate(coeffs, start=1):
        out = out + sign * c * z**l
    return out


def true_spectral_density(model: VarmaModel, omega: float) -> np.ndarray:
    """Population spectral density f(omega), a p x p Hermitian PSD matrix.

    f(w) = (1/2pi) A^{-1}(e^{-iw}) B(e^{-iw}) Sigma B'(e^{-iw}) A^{-1}'(e^{-iw})
    with A(z) = I - sum A_l z^l and B(z) = I + sum B_l z^l.
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


# Frequencies evaluated together by `_spectral_density_half`: enough to
# batch the LAPACK calls, few enough that the block's temporaries stay small.
_BLOCK_ROWS = 16


def _stacked_poly(coeffs: Sequence[np.ndarray], z: np.ndarray, p: int, sign: float) -> np.ndarray:
    out = np.broadcast_to(np.eye(p, dtype=complex), (len(z), p, p)).copy()
    for l, c in enumerate(coeffs, start=1):
        out += (sign * c) * (z**l)[:, None, None]
    return out


def _spectral_density_half(model: VarmaModel, n: int) -> np.ndarray:
    """`true_spectral_density` at omega_j = 2 pi j / n for j = 0..floor(n/2).

    Returns a (n//2+1, p, p) array; f(omega_{-j}) is the conjugate of row j.
    Frequencies are evaluated _BLOCK_ROWS at a time, each block with one
    batched condition check and one batched solve.
    """
    p = model.dim
    omegas = 2.0 * np.pi * np.arange(n // 2 + 1) / n
    out = np.empty((len(omegas), p, p), dtype=complex)
    for j0 in range(0, len(omegas), _BLOCK_ROWS):
        w = omegas[j0:j0 + _BLOCK_ROWS]
        z = np.exp(-1j * w)
        h = _stacked_poly(model.ma_coeffs, z, p, +1.0)
        if model.ar_order:
            a = _stacked_poly(model.ar_coeffs, z, p, -1.0)
            cond = np.linalg.cond(a)
            bad = np.nonzero(~(np.isfinite(cond) & (cond <= 1e12)))[0]
            if bad.size:
                raise NumericalError(f"AR polynomial nearly singular at omega={float(w[bad[0]])}")
            h = np.linalg.solve(a, h)
        f = (h @ model.noise_cov @ h.conj().transpose(0, 2, 1)) / (2.0 * np.pi)
        out[j0:j0 + len(w)] = 0.5 * (f + f.conj().transpose(0, 2, 1))
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


def autocov(model: VarmaModel, l_max: int) -> AutocovSequence:
    """Autocovariances Gamma(0..l_max) via the truncated MA(infinity) series.

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
    return AutocovSequence(gammas)


def omega_n(acov: AutocovSequence, n: int) -> float:
    """Lag-weighted dependence sum max_rs sum_{|l|<=n} |l| |Gamma_rs(l)|."""
    if acov.l_max < n:
        raise ParameterError(f"need autocovariances up to lag {n}, have {acov.l_max}")
    total = np.zeros((acov.p, acov.p))
    for l in range(1, n + 1):
        g = acov.lags[l]
        total += l * (np.abs(g) + np.abs(g.T))
    return float(total.max())


def l_n(acov: AutocovSequence, n: int, tail_lag: Optional[int] = None) -> float:
    """Tail sum max_rs sum_{|l|>n} |Gamma_rs(l)|, truncated at tail_lag.

    The truncation error is below the geometric tail of the model when the
    sequence was produced by `autocov` with the default cap.
    """
    cap = acov.l_max if tail_lag is None else min(tail_lag, acov.l_max)
    if cap <= n:
        return 0.0
    total = np.zeros((acov.p, acov.p))
    for l in range(n + 1, cap + 1):
        g = acov.lags[l]
        total += np.abs(g) + np.abs(g.T)
    return float(total.max())


def weak_sparsity_norm(matrix: np.ndarray, q: float) -> float:
    """Max over columns of sum_r |M_rs|^q; q = 0 counts nonzero entries."""
    if not 0 <= q < 1:
        raise ParameterError("q must lie in [0, 1)")
    mat = np.asarray(matrix)
    mod = np.abs(mat)
    if q == 0:
        return float(np.max(np.sum(mod > 0, axis=0)))
    return float(np.max(np.sum(mod**q, axis=0)))


def stability_measure(model: VarmaModel, grid_size: int = 512) -> float:
    """Grid approximation of ess sup over omega of the spectral norm of f.

    The spectral density of a VARMA model is continuous, so the max over an
    equispaced grid on [-pi, pi] converges as the grid is refined; the
    approximation error is O(Lipschitz / grid_size).
    """
    if grid_size < 8:
        raise ParameterError("grid_size must be at least 8")
    omegas = np.linspace(-np.pi, np.pi, grid_size, endpoint=False)
    return max(float(np.linalg.norm(true_spectral_density(model, w), 2)) for w in omegas)


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
    maxabs = np.array([np.max(np.abs(g)) for g in acov.lags])
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
