import numpy as np
import pytest

from specthresh import FourierGrid, NumericalError, VarmaModel, block_varma_model, true_spectral_density
from specthresh.bench import BenchmarkSpec, run_cell, truth_spectra


def varma21(rng):
    p = 4
    ar1 = 0.3 * np.eye(p) + 0.05 * rng.standard_normal((p, p))
    ar2 = 0.1 * np.eye(p)
    ma1 = 0.4 * rng.standard_normal((p, p))
    chol = np.tril(0.3 * rng.standard_normal((p, p)), -1) + np.eye(p)
    return VarmaModel(dim=p, ar_coeffs=(ar1, ar2), ma_coeffs=(ma1,), noise_cov=chol @ chol.T)


# A1 = diag(1 - 1e-13, 0.5) is stable, but A(z) = I - A1 z has
# cond(A(1)) about 5e12 at omega = 0.
NEAR_SINGULAR = VarmaModel(dim=2, ar_coeffs=(np.diag([1.0 - 1e-13, 0.5]),))


class TestTruthSpectra:
    @pytest.mark.parametrize("family", ["var", "vma", "varma21"])
    @pytest.mark.parametrize("n", [33, 40])
    def test_matches_per_frequency_density(self, rng, family, n):
        model = varma21(rng) if family == "varma21" else block_varma_model(6, family)
        grid = FourierGrid(n)
        truth = truth_spectra(model, n)
        assert sorted(truth) == [int(j) for j in grid.indices]
        for j, f in truth.items():
            want = true_spectral_density(model, grid.frequency(j))
            assert np.linalg.norm(f - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("n", [33, 40])
    def test_negative_rows_are_conjugates(self, rng, n):
        truth = truth_spectra(varma21(rng), n)
        for j in range(1, (n - 1) // 2 + 1):
            assert np.array_equal(truth[-j], truth[j].conj())

    def test_near_singular_ar_polynomial(self):
        with pytest.raises(NumericalError, match="nearly singular at omega=0.0"):
            truth_spectra(NEAR_SINGULAR, 32)


class TestRunCell:
    def test_pool_matches_serial(self):
        spec = BenchmarkSpec(
            family="vma", p_list=(6,), n_list=(64,), methods=("smoothed", "shrinkage", "lasso"),
            replicates=2, seed=5, grid_size=5,
        )
        serial = run_cell(spec, 0, 6, 64, jobs=1)
        pooled = run_cell(spec, 0, 6, 64, jobs=2)
        assert pooled.m == serial.m
        for method in spec.methods:
            assert pooled.summaries[method] == serial.summaries[method]
            assert pooled.rocs[method] == serial.rocs[method]
