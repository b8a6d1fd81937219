import numpy as np
import pytest

from specthresh import VarmaModel


def sample_autocov(x: np.ndarray, lag: int) -> np.ndarray:
    """Biased sample autocovariance (1/n) sum_t x_t x_{t-lag}^T."""
    n = x.shape[0]
    if lag >= 0:
        return x[lag:].T @ x[: n - lag] / n
    return sample_autocov(x, -lag).T


def periodogram_by_autocov_sum(x: np.ndarray, omega: float) -> np.ndarray:
    """Independent periodogram oracle: sum_{|l|<n} Gamma_hat(l) e^{-i l w}."""
    n, p = x.shape
    out = np.zeros((p, p), dtype=complex)
    for lag in range(-(n - 1), n):
        out += sample_autocov(x, lag) * np.exp(-1j * lag * omega)
    return out


def ma_autocov(ma_coeffs, sigma, lag: int) -> np.ndarray:
    """Exact autocovariance of a finite MA model by convolution."""
    p = sigma.shape[0]
    weights = [np.eye(p)] + [np.asarray(b) for b in ma_coeffs]
    out = np.zeros((p, p))
    for t, w in enumerate(weights):
        if t + lag < len(weights):
            out += weights[t + lag] @ sigma @ w.T
    return out


def coupled_models() -> dict:
    """VARMA models whose channels split into known components, keyed by
    name: each value is (model, components), the components as lists of
    channels.  Each model links its channels through one kind of
    coefficient, except "mixed", which uses all three, and "dense"."""
    rng = np.random.default_rng(2018)
    comps = [[0, 3], [1, 2, 5], [4]]
    mask = np.zeros((6, 6), dtype=bool)
    for c in comps:
        mask[np.ix_(c, c)] = True
    ar, ma, root = (np.where(mask, rng.standard_normal((6, 6)), 0.0) for _ in range(3))
    ar *= 0.6 / np.max(np.abs(np.linalg.eigvals(ar)))
    mixed = VarmaModel(dim=6, ar_coeffs=(ar,), ma_coeffs=(0.4 * ma,),
                       noise_cov=root @ root.T + np.eye(6))

    diag = np.diag([0.5, -0.3, 0.4, 0.2])
    cov = np.eye(4)
    cov[0, 2] = cov[2, 0] = 0.5
    ma = np.diag([0.3, 0.2, -0.1, 0.4])
    ma[3, 1] = 0.7
    ar2 = 0.2 * np.eye(4)
    ar2[0, 3] = 0.3

    ar1 = 0.3 * np.eye(4) + 0.05 * rng.standard_normal((4, 4))
    root = np.tril(0.3 * rng.standard_normal((4, 4)), -1) + np.eye(4)
    dense = VarmaModel(dim=4, ar_coeffs=(ar1, 0.1 * np.eye(4)),
                       ma_coeffs=(0.4 * rng.standard_normal((4, 4)),), noise_cov=root @ root.T)
    return {
        "mixed": (mixed, comps),
        "noise-only": (VarmaModel(dim=4, ar_coeffs=(diag,), noise_cov=cov), [[0, 2], [1], [3]]),
        "ma-only": (VarmaModel(dim=4, ar_coeffs=(diag,), ma_coeffs=(ma,)), [[0], [1, 3], [2]]),
        "ar-lag-2-only": (VarmaModel(dim=4, ar_coeffs=(0.5 * diag, ar2)), [[0, 3], [1], [2]]),
        "dense": (dense, [[0, 1, 2, 3]]),
    }


def between_components(p: int, comps) -> np.ndarray:
    """Mask of the entries (r, s) whose channels lie in different components."""
    out = np.ones((p, p), dtype=bool)
    for c in comps:
        out[np.ix_(c, c)] = False
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


# One line per acceptance criterion, echoed in the terminal summary so the
# pass/fail status is visible even when pytest captures stdout.
ACCEPTANCE_LINES: list = []


def record_acceptance(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {number:2d}] {status}  {name}" + (f"  ({detail})" if detail else "")
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria:")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
