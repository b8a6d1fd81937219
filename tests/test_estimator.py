import numpy as np
import pytest

from specthresh import (
    DataError,
    FourierGrid,
    ParameterError,
    SpectralEstimate,
    ThresholdOperator,
    aggregate_coherence_graph,
    apply_threshold,
    averaged_periodogram,
    coherence,
    coherence_threshold,
    periodogram,
    shrinkage_all,
    shrinkage_estimate,
    smoothed_estimate,
    threshold_estimate,
)
from specthresh.dft import periodogram_all
from specthresh.estimator import _smoothed_half
from specthresh.model import TimeSeriesMatrix
from specthresh.tuning import default_span


def white_series(rng, n, p):
    return TimeSeriesMatrix(rng.standard_normal((n, p)))


class TestAveragedPeriodogram:
    def test_m_zero_is_scaled_periodogram(self, rng):
        x = white_series(rng, 16, 3)
        grid = FourierGrid(16)
        for j in (0, 2, 8):
            expected = periodogram(x, grid, j) / (2 * np.pi)
            assert np.allclose(averaged_periodogram(x, 0, j), expected, atol=1e-14)

    def test_zero_data(self):
        x = TimeSeriesMatrix(np.zeros((12, 2)))
        assert np.allclose(averaged_periodogram(x, 2, 1), 0.0)

    def test_window_mean_oracle(self, rng):
        x = white_series(rng, 32, 3)
        grid = FourierGrid(32)
        j, m = 5, 3
        mats = [periodogram(x, grid, k) for k in range(j - m, j + m + 1)]
        expected = np.mean(mats, axis=0) / (2 * np.pi)
        assert np.max(np.abs(averaged_periodogram(x, m, j) - expected)) < 1e-12

    def test_window_wraps_modulo_n(self, rng):
        x = white_series(rng, 16, 2)
        grid = FourierGrid(16)
        j, m = 8, 2  # window {6..10} wraps past the top index
        mats = [periodogram(x, grid, k) for k in range(j - m, j + m + 1)]
        expected = np.mean(mats, axis=0) / (2 * np.pi)
        assert np.max(np.abs(averaged_periodogram(x, m, j) - expected)) < 1e-12

    def test_hermitian_psd(self, rng):
        x = white_series(rng, 24, 4)
        for j in (0, 5, 12):
            f = averaged_periodogram(x, 3, j)
            assert np.max(np.abs(f - f.conj().T)) < 1e-10
            assert np.min(np.linalg.eigvalsh(f)) >= -1e-8 * np.trace(f).real

    def test_scale_equivariance(self, rng):
        data = rng.standard_normal((20, 3))
        f1 = averaged_periodogram(TimeSeriesMatrix(data), 2, 4)
        f3 = averaged_periodogram(TimeSeriesMatrix(3.0 * data), 2, 4)
        assert np.allclose(f3, 9.0 * f1, atol=1e-10)

    @pytest.mark.parametrize("n", [33, 40])
    def test_shared_smoothing_bit_identical(self, rng, n):
        x = white_series(rng, n, 4)
        periodograms = periodogram_all(x)
        for m in (1, default_span(n, "ma_like"), (n - 1) // 2):
            half = _smoothed_half(periodograms, m)
            assert half.shape == (n // 2 + 1, 4, 4)
            for j in range(n // 2 + 1):
                assert np.array_equal(half[j], averaged_periodogram(x, m, j, periodograms=periodograms))

    def test_invalid_span(self, rng):
        x = white_series(rng, 10, 2)
        with pytest.raises(ParameterError):
            averaged_periodogram(x, 5, 0)
        with pytest.raises(ParameterError):
            averaged_periodogram(x, -1, 0)


class TestThresholdOperators:
    def test_zero_lambda_identity(self, rng):
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        for kind in ("hard", "lasso", "adaptive_lasso"):
            assert np.allclose(ThresholdOperator(kind)(z, 0.0), z, atol=1e-14)

    def test_hard_cases(self):
        op = ThresholdOperator("hard")
        z = 0.3 + 0.4j  # modulus 0.5
        assert op(z, 0.6) == 0.0
        assert op(z, 0.4) == z

    def test_lasso_formula(self):
        out = ThresholdOperator("lasso")(3 + 4j, 1.0)
        assert abs(out - (2.4 + 3.2j)) < 1e-14

    def test_adaptive_lasso_formula(self):
        out = ThresholdOperator("adaptive_lasso", eta=2.0)(2.0, 1.0)
        assert abs(out - 1.75) < 1e-14

    def test_negative_lambda_rejected(self):
        with pytest.raises(ParameterError):
            ThresholdOperator("lasso")(1.0, -0.1)

    @pytest.mark.parametrize("kind", ["hard", "lasso", "adaptive_lasso"])
    def test_nan_lambda_rejected(self, kind):
        with pytest.raises(ParameterError):
            ThresholdOperator(kind)(np.ones((2, 2)), float("nan"))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParameterError):
            ThresholdOperator("soft")

    @pytest.mark.parametrize("kind", ["hard", "lasso", "adaptive_lasso"])
    def test_generalized_thresholding_conditions(self, kind, rng):
        op = ThresholdOperator(kind)
        z = (rng.standard_normal(1000) + 1j * rng.standard_normal(1000)) * 10 ** rng.uniform(
            -3, 2, 1000
        )
        lam = np.abs(rng.standard_normal(1000)) * 10 ** rng.uniform(-3, 2, 1000)
        for zi, li in zip(z, lam):
            out = op(zi, float(li))
            assert abs(out) <= abs(zi) + 1e-12
            if abs(zi) <= li:
                assert out == 0.0
            assert abs(out - zi) <= li + 1e-12

    def test_max_norm_perturbation_bound(self, rng):
        f = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        for kind in ("hard", "lasso", "adaptive_lasso"):
            out = apply_threshold(f.copy(), ThresholdOperator(kind), 0.7, preserve_diagonal=False)
            assert np.max(np.abs(out - f)) <= 0.7 + 1e-12


class TestThresholdEstimate:
    def test_zero_lambda_equals_smoothed(self, rng):
        x = white_series(rng, 20, 3)
        lambdas = {j: 0.0 for j in range(11)}
        est = threshold_estimate(x, 2, ThresholdOperator("lasso"), lambdas)
        ref = smoothed_estimate(x, 2)
        for j in est.frequencies():
            assert np.allclose(est.matrices[j], ref.matrices[j], atol=1e-14)

    def test_huge_lambda_keeps_only_diagonal(self, rng):
        x = white_series(rng, 20, 3)
        lambdas = {j: 1e9 for j in range(11)}
        est = threshold_estimate(x, 2, ThresholdOperator("hard"), lambdas)
        for j, mat in est.matrices.items():
            off = mat[~np.eye(3, dtype=bool)]
            assert np.all(off == 0)
            assert np.all(np.abs(np.diag(mat)) > 0)

    def test_conjugate_symmetry_and_lambda_mirroring(self, rng):
        x = white_series(rng, 16, 2)
        lambdas = {j: 0.01 * (j + 1) for j in range(9)}
        est = threshold_estimate(x, 1, ThresholdOperator("lasso"), lambdas)
        for j in range(1, 8):
            assert np.allclose(est.matrices[-j], est.matrices[j].conj(), atol=1e-14)
            assert est.lambdas[-j] == est.lambdas[j]

    def test_missing_lambda(self, rng):
        x = white_series(rng, 16, 2)
        with pytest.raises(ParameterError, match="no threshold"):
            threshold_estimate(x, 1, ThresholdOperator("lasso"), {0: 0.1})

    def test_min_eigenvalue_diagnostics(self, rng):
        x = white_series(rng, 16, 2)
        est = smoothed_estimate(x, 3)
        mins = est.min_eigenvalues()
        assert set(mins) == set(est.frequencies())
        for j, val in mins.items():
            assert val >= -1e-8 * np.trace(est.matrices[j]).real


class TestShrinkage:
    def test_constant_window_returns_f_hat(self, rng):
        x = white_series(rng, 16, 3)
        base = rng.standard_normal((3, 3))
        mat = base @ base.T + np.eye(3)  # fixed PSD matrix at every frequency
        stack = np.tile(mat, (16, 1, 1)).astype(complex)
        out = shrinkage_estimate(x, 2, 4, periodograms=stack)
        assert np.allclose(out, mat / (2 * np.pi), atol=1e-12)

    def test_moves_toward_diagonal_target(self, rng):
        x = white_series(rng, 256, 6)
        for j in (0, 30, 100):
            f_hat = averaged_periodogram(x, 8, j)
            out = shrinkage_estimate(x, 8, j)
            mu = np.trace(f_hat).real / 6
            target = mu * np.eye(6)
            assert np.linalg.norm(out - target) <= np.linalg.norm(f_hat - target) + 1e-12

    def test_needs_window(self, rng):
        with pytest.raises(ParameterError):
            shrinkage_estimate(white_series(rng, 16, 2), 0, 1)
        with pytest.raises(ParameterError):
            shrinkage_all(white_series(rng, 16, 2), 0)

    @pytest.mark.parametrize("n", [33, 40])
    @pytest.mark.parametrize("span", ["one", "default", "widest"])
    def test_all_matches_per_frequency_oracle(self, rng, n, span):
        m = {"one": 1, "default": default_span(n, "ma_like"), "widest": (n - 1) // 2}[span]
        x = TimeSeriesMatrix(rng.standard_normal((n, 5)) @ rng.standard_normal((5, 5)))
        est = shrinkage_all(x, m)
        assert est.method == "shrinkage" and sorted(est.matrices) == list(FourierGrid(n).indices)
        for j in range(n // 2 + 1):
            want = shrinkage_estimate(x, m, j)
            assert np.linalg.norm(est.matrices[j] - want) <= 1e-12 * np.linalg.norm(want)
            if 0 < j <= (n - 1) // 2:
                assert np.array_equal(est.matrices[-j], est.matrices[j].conj())

    def test_one_channel_equals_smoothed(self, rng):
        x = white_series(rng, 41, 1)
        est = shrinkage_all(x, 4)
        smooth = smoothed_estimate(x, 4)
        for j in est.frequencies():
            assert np.array_equal(est.matrices[j], smooth.matrices[j])

    def test_constant_channel(self, rng):
        data = rng.standard_normal((48, 4))
        data[:, 2] = 3.5  # zero after centring
        x = TimeSeriesMatrix(data)
        est = shrinkage_all(x, 3)
        for j in range(25):
            want = shrinkage_estimate(x, 3, j)
            assert np.linalg.norm(est.matrices[j] - want) <= 1e-12 * np.linalg.norm(want)
            assert np.all(np.isfinite(est.matrices[j]))

    def test_identical_window_members_keep_f_hat(self, rng):
        # beta^2 is 0 up to cancellation, which here leaves the window sum
        # slightly negative; with f_hat near a scaled identity delta^2 is
        # tiny too, so without the clamp rho would come out near -3e-5
        gen = np.random.default_rng(0)
        h = gen.standard_normal((3, 3)) + 1j * gen.standard_normal((3, 3))
        mat = gen.uniform(0.5, 3) * np.eye(3) + 1e-6 * (h + h.conj().T)
        stack = np.tile(mat, (16, 1, 1))
        x = white_series(rng, 16, 3)
        est = shrinkage_all(x, 2, periodograms=stack)
        smooth = smoothed_estimate(x, 2, periodograms=stack)
        off = ~np.eye(3, dtype=bool)
        for j in est.frequencies():
            assert np.all(np.isfinite(est.matrices[j]))
            rho = 1.0 - (est.matrices[j][off] / smooth.matrices[j][off]).real
            assert np.all((rho >= -1e-12) & (rho <= 1.0 + 1e-12))
            target = mat if j >= 0 else mat.conj()
            assert np.allclose(est.matrices[j], target / (2 * np.pi), rtol=0, atol=1e-12)

    def test_scaled_identity_f_hat_is_not_shrunk(self, rng):
        # delta^2 = 0 exactly while beta^2 > 0: rho must be 0, not beta^2 / 0
        x = white_series(rng, 18, 2)
        stack = np.array([(k % 3 + 1.0) * np.eye(2) for k in range(18)], dtype=complex)
        est = shrinkage_all(x, 2, periodograms=stack)
        smooth = smoothed_estimate(x, 2, periodograms=stack)
        for j in est.frequencies():
            assert np.array_equal(est.matrices[j], smooth.matrices[j])


class TestCoherence:
    def test_diagonal_input(self):
        g = coherence(np.diag([4.0, 9.0, 1.0]).astype(complex))
        assert np.allclose(g, np.eye(3), atol=1e-14)

    def test_two_by_two_boundary(self):
        mat = np.array([[4.0, 2.0j], [-2.0j, 1.0]])
        g = coherence(mat)
        assert abs(g[0, 1] - 1.0j) < 1e-14
        assert abs(abs(g[0, 1]) - 1.0) < 1e-14

    def test_white_noise_truth(self):
        f = np.eye(4) / (2 * np.pi)
        assert np.allclose(coherence(f.astype(complex)), np.eye(4), atol=1e-14)

    def test_degenerate_channel_named(self):
        mat = np.diag([1.0, 0.0, 2.0]).astype(complex)
        with pytest.raises(DataError, match="channel 1"):
            coherence(mat)

    def test_modulus_bounded_for_psd(self, rng):
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        mat = b @ b.conj().T + 0.1 * np.eye(4)
        assert np.max(np.abs(coherence(mat))) <= 1.0 + 1e-10


class TestCoherenceThreshold:
    def test_zero_lambda_identity(self, rng):
        g = coherence(np.eye(3, dtype=complex) + 0.2)
        assert np.allclose(coherence_threshold(g, 0.0, 1.0), g, atol=1e-14)

    def test_cut_below_level(self):
        g = np.array([[1.0, 0.3], [0.3, 1.0]], dtype=complex)
        out = coherence_threshold(g, 0.2, 1.0)  # level 2*0.2/1 = 0.4
        assert out[0, 1] == 0.0
        assert out[0, 0] == 1.0

    def test_tau_must_be_positive(self):
        with pytest.raises(ParameterError):
            coherence_threshold(np.eye(2, dtype=complex), 0.1, 0.0)


class TestAggregateCoherenceGraph:
    def _estimate(self, n, mats):
        p = next(iter(mats.values())).shape[0]
        return SpectralEstimate(n=n, p=p, m=1, method="smoothed", matrices=mats)

    def test_diagonal_estimate_gives_empty_graph(self):
        grid = FourierGrid(8)
        mats = {int(j): np.diag([1.0, 2.0]).astype(complex) for j in grid.indices}
        graph = aggregate_coherence_graph(self._estimate(8, mats))
        assert np.allclose(graph, 0.0)

    def test_single_frequency(self):
        mat = np.array([[4.0, 2.0j], [-2.0j, 1.0]])
        graph = aggregate_coherence_graph(self._estimate(8, {0: mat}))
        assert abs(graph[0, 1] - 1.0) < 1e-14
        assert graph[0, 0] == 0.0

    def test_symmetric_zero_diagonal(self, rng):
        est = smoothed_estimate(white_series(rng, 16, 4), 3)
        graph = aggregate_coherence_graph(est)
        assert np.allclose(graph, graph.T)
        assert np.all(np.diag(graph) == 0.0)
        assert np.all(graph >= 0.0)

    def test_scale_invariance(self, rng):
        data = rng.standard_normal((16, 3))
        g1 = aggregate_coherence_graph(smoothed_estimate(TimeSeriesMatrix(data), 3))
        g2 = aggregate_coherence_graph(smoothed_estimate(TimeSeriesMatrix(5.0 * data), 3))
        assert np.allclose(g1, g2, atol=1e-10)


class TestHermitianNormBound:
    def test_operator_norm_below_column_sum(self, rng):
        for _ in range(20):
            b = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            mat = b + b.conj().T
            col_sum = float(np.max(np.sum(np.abs(mat), axis=0)))
            assert np.linalg.norm(mat, 2) <= col_sum + 1e-10
