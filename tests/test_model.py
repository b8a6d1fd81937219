import numpy as np
import pytest
from conftest import between_components, coupled_models, ma_autocov, sample_autocov
from oracles import check_order_bias_bounds, spectral_density, weak_sparsity_norm

from specthresh import (
    ModelError,
    ParameterError,
    VarmaModel,
    autocov,
    block_varma_model,
    l_n,
    omega_n,
    simulate,
    stability_measure,
    true_spectral_density,
)
from specthresh.model import _components, _spectral_density, block_transition, simulate_ensemble

AR1 = VarmaModel(dim=1, ar_coeffs=(np.array([[0.5]]),))
WHITE4 = VarmaModel(dim=4)


def random_stable_var1(rng, p=None, radius=None):
    p = p or int(rng.integers(2, 9))
    radius = radius or rng.uniform(0.2, 0.85)
    a = rng.standard_normal((p, p))
    a *= radius / np.max(np.abs(np.linalg.eigvals(a)))
    return VarmaModel(dim=p, ar_coeffs=(a,))


class TestSimulate:
    def test_white_noise_sample_covariance(self):
        x = simulate(WHITE4, 100_000, seed=7)
        cov = sample_autocov(x.data - x.data.mean(axis=0), 0)
        assert np.max(np.abs(cov - np.eye(4))) < 0.05

    def test_var_block_lag_one_cross_covariance(self):
        model = block_varma_model(12, "var")
        a = block_transition(12)
        x = simulate(model, 100_000, seed=3)
        g0 = sample_autocov(x.data, 0)
        g1 = sample_autocov(x.data, 1)
        scale = max(1.0, float(np.max(np.abs(g0))))
        assert np.max(np.abs(g1 - a @ g0)) < 0.05 * scale

    def test_determinism(self):
        model = block_varma_model(3, "vma")
        x1 = simulate(model, 256, seed=11)
        x2 = simulate(model, 256, seed=11)
        assert np.array_equal(x1.data, x2.data)
        x3 = simulate(model, 256, seed=12)
        assert not np.array_equal(x1.data, x3.data)

    def test_unstable_model_rejected(self):
        with pytest.raises(ModelError, match="unstable"):
            VarmaModel(dim=1, ar_coeffs=(np.array([[1.1]]),))

    def test_student_t_needs_heavy_tail_guard(self):
        with pytest.raises(ModelError, match="df"):
            VarmaModel(dim=2, noise_family="student_t", noise_df=4)
        model = VarmaModel(dim=2, noise_family="student_t", noise_df=6)
        x = simulate(model, 200_000, seed=5)
        assert np.max(np.abs(x.data.var(axis=0) - 1.0)) < 0.1

    def test_laplace_noise_unit_variance(self):
        model = VarmaModel(dim=2, noise_family="laplace")
        x = simulate(model, 200_000, seed=5)
        assert np.max(np.abs(x.data.var(axis=0) - 1.0)) < 0.05

    def test_ensemble_shape_and_independence_of_rows(self):
        out = simulate_ensemble(WHITE4, 64, 3, seed=1)
        assert out.shape == (3, 64, 4)
        assert not np.array_equal(out[0], out[1])

    def test_sample_autocov_matches_population(self):
        model = block_varma_model(3, "vma")
        x = simulate(model, 200_000, seed=19)
        acov = autocov(model, 3)
        scale = max(1.0, float(np.max(np.abs(acov[0]))))
        for lag in range(4):
            est = sample_autocov(x.data - x.data.mean(axis=0), lag)
            assert np.max(np.abs(est - acov[lag])) < 0.05 * scale


class TestTrueSpectralDensity:
    def test_white_noise_flat(self):
        for w in (-np.pi, -1.0, 0.0, 0.7, np.pi):
            f = true_spectral_density(WHITE4, w)
            assert np.allclose(f, np.eye(4) / (2 * np.pi), atol=1e-14)

    def test_ar1_at_zero(self):
        f = true_spectral_density(AR1, 0.0)
        assert abs(f[0, 0] - 2 / np.pi) < 1e-12

    def test_vma_matches_autocov_sum(self):
        model = block_varma_model(3, "vma")
        w = np.pi / 4
        oracle = np.zeros((3, 3), dtype=complex)
        for lag in (-1, 0, 1):
            g = ma_autocov(model.ma_coeffs, model.noise_cov, lag)
            oracle += g * np.exp(-1j * lag * w)
        oracle /= 2 * np.pi
        assert np.max(np.abs(true_spectral_density(model, w) - oracle)) < 1e-10

    def test_hermitian_psd_for_random_models(self, rng):
        for _ in range(5):
            model = random_stable_var1(rng)
            w = rng.uniform(-np.pi, np.pi)
            f = true_spectral_density(model, w)
            assert np.max(np.abs(f - f.conj().T)) < 1e-10
            assert np.min(np.linalg.eigvalsh(f)) >= -1e-10

    @pytest.mark.parametrize("name", list(coupled_models()))
    def test_coupled_models_match_oracle(self, name):
        model, comps = coupled_models()[name]
        # one group per component size, smallest first; components by first channel
        sizes = sorted({len(c) for c in comps})
        assert [g.tolist() for g in _components(model)] == [
            [c for c in comps if len(c) == s] for s in sizes]
        between = between_components(model.dim, comps)
        for w in (-np.pi, -2.0, 0.0, 0.3, 1.7, np.pi):
            f, want = true_spectral_density(model, w), spectral_density(model, w)
            assert np.linalg.norm(f - want) <= 1e-12 * np.linalg.norm(want)
            assert np.all(f[between] == 0)


class TestAutocov:
    def test_white_noise(self):
        acov = autocov(WHITE4, 3)
        assert np.allclose(acov[0], np.eye(4), atol=1e-12)
        for lag in (1, 2, 3):
            assert np.allclose(acov[lag], 0.0, atol=1e-12)

    def test_ar1_closed_form(self):
        acov = autocov(AR1, 10)
        for lag in range(11):
            assert abs(acov[lag][0, 0] - (4 / 3) * 0.5**lag) < 1e-10

    def test_negative_lag_is_transpose(self):
        # Gamma(-1) = Cov(X_t, X_{t+1}) = Sigma B^T for X_t = eps_t + B eps_{t-1}
        model = block_varma_model(3, "vma")
        acov = autocov(model, 2)
        assert np.allclose(acov[1].T, model.noise_cov @ model.ma_coeffs[0].T, atol=1e-12)
        assert not np.allclose(acov[1], acov[1].T)

    def test_finite_ma_support(self):
        model = block_varma_model(3, "vma")
        acov = autocov(model, 5)
        for lag in range(2, 6):
            assert np.allclose(acov[lag], 0.0, atol=1e-12)
        assert np.allclose(
            acov[1], ma_autocov(model.ma_coeffs, model.noise_cov, 1), atol=1e-12
        )

    def test_ma_oracle_negative_lag_is_transpose(self):
        # the oracle's Gamma(-1) is Gamma(1)^T = Sigma B^T, not B + B^T
        model = block_varma_model(3, "vma")
        got = ma_autocov(model.ma_coeffs, model.noise_cov, -1)
        assert np.allclose(got, autocov(model, 1)[1].T, atol=1e-12)
        assert not np.allclose(got, got.T)

    def test_lag_out_of_range(self):
        acov = autocov(WHITE4, 2)
        assert acov.shape == (3, 4, 4)
        with pytest.raises(IndexError):
            acov[3]


class TestDependenceMeasures:
    def test_omega_n_white_noise(self):
        acov = autocov(WHITE4, 10)
        for n in (1, 5, 10):
            assert omega_n(acov, n) == 0.0

    def test_omega_n_ar1_direct_sum(self):
        acov = autocov(AR1, 3)
        expected = (4 / 3) * 2 * (1 * 0.5 + 2 * 0.25 + 3 * 0.125)
        assert abs(omega_n(acov, 3) - expected) < 1e-9
        assert abs(expected - 3.66666667) < 1e-6

    def test_omega_n_monotone(self, rng):
        model = random_stable_var1(rng, p=3)
        acov = autocov(model, 40)
        vals = [omega_n(acov, n) for n in range(1, 40)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_omega_n_needs_enough_lags(self):
        with pytest.raises(ParameterError):
            omega_n(autocov(AR1, 3), 5)

    def test_l_n_finite_ma_vanishes(self):
        model = block_varma_model(3, "vma")
        acov = autocov(model, 10)
        assert l_n(acov, 1) == 0.0

    def test_l_n_ar1_geometric_tail(self):
        acov = autocov(AR1, 200)
        expected = (4 / 3) * 2 * (0.5**3 / (1 - 0.5))
        assert abs(l_n(acov, 2) - expected) < 1e-9

    def test_l_n_decreasing(self, rng):
        model = random_stable_var1(rng, p=3)
        acov = autocov(model, 60)
        vals = [l_n(acov, n) for n in range(1, 30)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))


class TestOrderBiasBounds:
    def test_random_diagonalizable_var1(self, rng):
        for _ in range(5):
            model = random_stable_var1(rng, p=4)
            report = check_order_bias_bounds(model, 32)
            assert report.holds

    def test_white_noise_degenerate(self):
        report = check_order_bias_bounds(WHITE4, 8)
        assert report.omega_n == 0.0
        assert report.l_n == 0.0
        assert report.holds

    def test_block_var_p12(self):
        report = check_order_bias_bounds(block_varma_model(12, "var"), 100)
        assert report.holds
        # defective companion matrix: the eigenvector bound is skipped
        assert report.companion_skipped


class TestWeakSparsityNorm:
    def test_identity(self):
        assert weak_sparsity_norm(np.eye(5), 0.5) == 1.0

    def test_diagonal(self):
        assert weak_sparsity_norm(np.diag([4.0, 1.0]), 0.5) == 2.0

    def test_all_ones(self):
        assert weak_sparsity_norm(np.ones((2, 2)), 0.5) == 2.0

    def test_q_zero_counts_nonzeros(self):
        mat = np.array([[1.0, 0.0], [2.0, 3.0]])
        assert weak_sparsity_norm(mat, 0.0) == 2.0

    def test_rejects_q_out_of_range(self):
        with pytest.raises(ParameterError):
            weak_sparsity_norm(np.eye(2), 1.0)


class TestStabilityMeasure:
    def test_white_noise(self):
        assert abs(stability_measure(WHITE4) - 1 / (2 * np.pi)) < 1e-12

    def test_ar1_peak_at_zero(self):
        assert abs(stability_measure(AR1) - 2 / np.pi) < 1e-12

    def test_grid_refinement_monotone(self, rng):
        model = random_stable_var1(rng, p=3)
        assert stability_measure(model, 512) >= stability_measure(model, 256) - 1e-15

    @pytest.mark.parametrize("name", list(coupled_models()))
    def test_equals_oracle_grid_max(self, name):
        model = coupled_models()[name][0]
        omegas = np.linspace(-np.pi, np.pi, 512, endpoint=False)
        want = max(float(np.linalg.norm(spectral_density(model, w), 2)) for w in omegas)
        assert abs(stability_measure(model) - want) <= 1e-12 * want

    @pytest.mark.parametrize("model", [AR1, WHITE4, *(m for m, _ in coupled_models().values()),
                                       block_varma_model(48, "var"), block_varma_model(48, "vma")])
    def test_equals_norms_over_the_whole_grid(self, model):
        # at p = 48 the frequencies go in three blocks
        omegas = np.linspace(-np.pi, np.pi, 512, endpoint=False)
        want = float(np.linalg.norm(_spectral_density(model, omegas), 2, axis=(1, 2)).max())
        assert stability_measure(model) == want

    def test_rejects_tiny_grid(self):
        with pytest.raises(ParameterError):
            stability_measure(AR1, grid_size=4)


class TestMaDuality:
    def test_ma_models_match_autocov_sum(self, rng):
        for _ in range(5):
            p = int(rng.integers(1, 4))
            q = int(rng.integers(1, 3))
            coeffs = tuple(0.4 * rng.standard_normal((p, p)) for _ in range(q))
            model = VarmaModel(dim=p, ma_coeffs=coeffs)
            w = rng.uniform(-np.pi, np.pi)
            oracle = np.zeros((p, p), dtype=complex)
            for lag in range(-q, q + 1):
                g = ma_autocov(coeffs, model.noise_cov, lag)
                oracle += g * np.exp(-1j * lag * w)
            oracle /= 2 * np.pi
            assert np.max(np.abs(true_spectral_density(model, w) - oracle)) < 1e-10
