import multiprocessing
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from oracles import (
    apply_threshold,
    assert_thresholded,
    averaged_periodogram,
    coherence_graph_loop,
    coherence_threshold,
    periodogram,
    periodogram_all,
    shrinkage_estimate,
    stack_estimates,
    stack_tuned_thresholds,
)

from specthresh import (
    DataError,
    FourierGrid,
    NumericalError,
    ParameterError,
    SpectralEstimate,
    ThresholdOperator,
    aggregate_coherence_graph,
    coherence,
    estimator,
    threshold_estimate,
    tuning,
)
from specthresh.dft import _dft, _periodograms
from specthresh.estimator import _divide, _estimates, _phase, _row_blocks, half_weights
from specthresh.model import TimeSeriesMatrix
from specthresh.tuning import default_span, tuned_blocks, tuned_estimates


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
            half = tuned_estimates(x, m, ["smoothed"])[0].half
            assert half.shape == (n // 2 + 1, 4, 4)
            for j in range(n // 2 + 1):
                assert np.array_equal(half[j], averaged_periodogram(x, m, j, periodograms=periodograms))

    @pytest.mark.parametrize("p", [96, 192])
    def test_window_sums_in_row_groups_keep_bits(self, rng, p):
        # the pass sums a block's windows one `_block_rows` group at a time
        # (7 rows at p = 96, 1 at p = 192); every entry keeps its order of
        # additions, so its bits are those of whole-block window sums
        n, m = 40, 3
        x = white_series(rng, n, p)
        members = _periodograms(_dft(x, m))
        rows = n // 2 + 1
        sums = members[:rows].copy()
        for i in range(1, 2 * m + 1):
            sums += members[i:i + rows]
        want = np.divide(np.divide(sums, 2 * m + 1), 2.0 * np.pi)
        assert_same_bits(tuned_estimates(x, m, ["smoothed"])[0].half, want)

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

    @pytest.mark.parametrize("kind", ["hard", "lasso", "adaptive_lasso"])
    def test_infinite_lambda_rejected(self, kind):
        with pytest.raises(ParameterError, match="finite"):
            ThresholdOperator(kind)(np.ones((2, 2)), float("inf"))

    @pytest.mark.parametrize("kind", ["hard", "lasso", "adaptive_lasso"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, -np.inf)])
    def test_non_finite_entry_rejected(self, kind, bad):
        # hard kept inf and zeroed NaN, and the lassos turned inf into NaN
        z = np.ones((2, 2), dtype=complex)
        z[0, 1] = bad
        with pytest.raises(ParameterError, match="entries must be finite"):
            ThresholdOperator(kind)(z, 0.5)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParameterError):
            ThresholdOperator("soft")

    # lam^(eta+1) overflows a float from lam ~ 5.6e102 at eta = 2, and the
    # penalty lam^(eta+1) |z|^(-eta) from smaller lam at small |z|
    @pytest.mark.parametrize("lam", [1e80, 1e103, 1e300])
    @pytest.mark.parametrize("kind", ["hard", "lasso", "adaptive_lasso"])
    def test_huge_lambda_zeroes_every_entry(self, kind, lam, rng):
        z = (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))) * 10.0 ** rng.uniform(
            -300, 79, (6, 6))
        z[0, 0] = 0.0
        assert not ThresholdOperator(kind)(z, lam).any()

    @pytest.mark.parametrize("lam", [1e103, 1e300])
    def test_adaptive_lasso_conditions_where_the_penalty_scale_overflows(self, lam):
        # lam^3 overflows a float; entries at and above lam must still obey
        # conditions (1)-(3) up to roundoff relative to |z|, and none may
        # come out NaN
        op = ThresholdOperator("adaptive_lasso")
        z = np.geomspace(1e-300, 1e306, 400) * np.exp(1j * np.linspace(0, 6, 400))
        z = np.append(z, [lam, 0.0])
        out = op(z, lam)
        assert np.all(np.abs(out) <= np.abs(z) * (1 + 1e-12))
        assert not out[np.abs(z) <= lam].any()
        assert np.all(np.abs(out - z) <= lam + 1e-12 * np.abs(z))
        assert np.abs(out[np.abs(z) >= 1e3 * lam]).min() > 0

    @pytest.mark.parametrize("eta", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("lam", [1e-120, 1e-200])
    def test_adaptive_lasso_conditions_at_tiny_lambda(self, lam, eta, rng):
        # lam^(eta+1) underflows to 0, or to a subnormal with lost bits, at
        # normal |z| near lam: conditions (1)-(3) must hold there as they do
        # for the same entries scaled by 1/lam (the boundary |z| = lam is
        # left to the other tests); at lam = 0, where |z|^(-eta) can
        # overflow, every entry is kept
        op = ThresholdOperator("adaptive_lasso", eta)
        z = lam * 10.0 ** rng.uniform(-3, 3, 400) * np.exp(1j * rng.uniform(0, 2 * np.pi, 400))
        z = np.append(z, [0.5 * lam, 2.0 * lam, 0.0])
        mod = np.abs(z)
        out = op(z, lam)
        assert np.isfinite(out).all()
        assert np.all(np.abs(out) <= mod * (1 + 1e-12))
        assert not out[mod <= lam].any()
        assert np.all(np.abs(out - z) <= lam + 1e-12 * mod)
        assert np.abs(out[mod >= 2 * lam]).min() > 0
        assert np.allclose(out, lam * op(z / lam, 1.0), rtol=1e-12, atol=0)
        assert np.allclose(op(z, 0.0), z, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("kind, eta", [("hard", 2.0), ("lasso", 2.0), ("adaptive_lasso", 0.5),
                                           ("adaptive_lasso", 1.0), ("adaptive_lasso", 2.0)])
    def test_conditions_at_subnormal_modulus(self, kind, eta, rng):
        # 1/|z| and |z|^(-eta) overflow below the smallest normal float; the
        # conditions hold to the spacing of the subnormals, with no NaN (the
        # boundary |z| = lambda is left to the other tests)
        op = ThresholdOperator(kind, eta)
        ulp = np.nextafter(0.0, 1.0)
        z = (rng.standard_normal(200) + 1j * rng.standard_normal(200)) * 2.0 ** rng.uniform(
            -1070, -1026, 200)
        z = np.append(z, [ulp, -1j * ulp, 3e-310 + 1e-310j])
        mod = np.abs(z)
        assert mod.max() < np.finfo(float).tiny
        for lam in (0.0, 1e-320, 1e-315, 1e-311, 1e-309, 1e-300):
            out = op(z, lam)
            assert np.isfinite(out).all()
            assert np.all(np.abs(out) <= mod + 2 * ulp)
            assert not out[mod < lam].any()
            assert np.all(np.abs(out - z) <= lam + 2 * ulp)
        assert op(np.array([[1.0, ulp], [ulp, 1.0]]), 0.0)[0, 1] == ulp

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
            out = ThresholdOperator(kind)(f, 0.7)
            assert np.max(np.abs(out - f)) <= 0.7 + 1e-12


class TestBatchedThresholding:
    @pytest.mark.parametrize("op", [ThresholdOperator("hard"), ThresholdOperator("lasso"),
                                    ThresholdOperator("adaptive_lasso"),
                                    ThresholdOperator("adaptive_lasso", eta=0.5)],
                             ids=lambda op: f"{op.kind}-{op.eta}")
    # the estimator always keeps the diagonal; preserve_diagonal picks the
    # form of the reference it is checked against (see assert_thresholded)
    @pytest.mark.parametrize("preserve_diagonal", [True, False])
    def test_rows_equal_apply_threshold(self, rng, op, preserve_diagonal):
        # 102 rows: six blocks of 16 and a partial one.  Thresholds inside
        # the range of the moduli shrink most entries.  numpy's array power
        # differs from Python's float power in the last bit on about 5 % of
        # values, so forming lam^(eta+1) with it changes some entries at
        # eta = 0.5.
        n, m = 203, 5
        x = TimeSeriesMatrix(rng.standard_normal((n, 4)) @ rng.standard_normal((4, 4)))
        periodograms = periodogram_all(x)
        smoothed = [averaged_periodogram(x, m, j, periodograms) for j in range(n // 2 + 1)]
        lambdas = {j: float(rng.uniform(0.05, 0.5) * np.median(np.abs(f)))
                   for j, f in enumerate(smoothed)}
        est = threshold_estimate(x, m, op, lambdas)
        assert est.half.shape == (n // 2 + 1, 4, 4)
        for j, f in enumerate(smoothed):
            assert_thresholded(est.half[j], f, op, lambdas[j], preserve_diagonal)

    @pytest.mark.parametrize("bad, message", [(float("nan"), "NaN"), (-0.1, "nonnegative"),
                                              (float("inf"), "finite")])
    def test_bad_threshold_rejected(self, rng, bad, message):
        x = white_series(rng, 40, 3)
        lambdas = {j: 0.1 for j in range(21)}
        lambdas[17] = bad
        with pytest.raises(ParameterError, match=message):
            threshold_estimate(x, 3, ThresholdOperator("lasso"), lambdas)


def assert_same_bits(got, want, where=""):
    """got and want hold the same bits, so zero signs count."""
    got, want = np.atleast_1d(got), np.atleast_1d(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert (got.view(np.int64) == want.view(np.int64)).all(), f"{where} numpy {np.__version__}"


def part_pairs(parts) -> np.ndarray:
    """The complex entries pairing every value of `parts` as real part with
    every one as imaginary part, as a (len, len) array."""
    z = np.empty((len(parts), len(parts)), dtype=complex)
    z.real = np.array(parts)[:, None]
    z.imag = np.array(parts)[None, :]
    return z


class TestRealDivision:
    """`estimator._divide` divides a complex array by positive reals with
    the bits of `np.divide`, zero signs included."""

    TINY, BIG = np.finfo(float).tiny, np.finfo(float).max
    # zeros of both signs, subnormals, the smallest normal, the float maximum
    FINITE = (0.0, -0.0, 5e-324, -2.5e-310, TINY, -TINY, 1.0, -1.5, BIG, -BIG)
    PARTS = FINITE + (np.inf, -np.inf)
    DIVISORS = (5e-324, TINY, 0.3, 1.0, 41.0, 2.0 * np.pi, 1e300, BIG)

    def cases(self, rng):
        """Stacks of every pair of special parts: of all of them, and of
        those with no inf, no -0 or neither (the product's case); and random
        entries over 40 decades."""
        no_negative_zero = [v for v in self.PARTS if not (v == 0 and np.signbit(v))]
        special = [part_pairs(parts)[None] for parts in (
            self.PARTS, self.FINITE, no_negative_zero, no_negative_zero[:len(self.FINITE) - 1])]
        shape = (4, 6, 6)
        random = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) \
            * 10.0 ** rng.integers(-20, 20, shape)
        return special + [random]

    def assert_divides(self, z, c):
        # a subnormal divisor overflows 1/c in both forms
        with np.errstate(over="ignore", invalid="ignore"):
            want = np.divide(z, c)
            assert_same_bits(_divide(z, c), want, f"divisor shape {np.shape(c)},")
            inplace = z.copy()
            assert _divide(inplace, c, out=inplace) is inplace
            assert_same_bits(inplace, want, f"in place, divisor shape {np.shape(c)},")

    @pytest.mark.parametrize("c", DIVISORS)
    def test_scalar_divisor(self, rng, c):
        for z in self.cases(rng):
            self.assert_divides(z, c)
            self.assert_divides(z, int(c) if c == int(c) else c)

    def test_row_divisors(self, rng):
        for z in self.cases(rng):
            self.assert_divides(z, rng.choice(self.DIVISORS, (len(z), 1, 1)))

    def test_entry_divisors(self, rng):
        for z in self.cases(rng):
            self.assert_divides(z, rng.choice(self.DIVISORS, z.shape))

    def test_zero_d_and_non_contiguous_input(self, rng):
        for z in part_pairs(self.PARTS).ravel():
            self.assert_divides(np.array(z), 3.0)
        z = self.cases(rng)[-1]
        self.assert_divides(z[:, ::2], 3.0)
        self.assert_divides(z.transpose(0, 2, 1), rng.choice(self.DIVISORS, z.shape))

    def test_the_product_alone_differs_at_negative_zeros(self):
        # so the fallback to np.divide for a -0 part is needed: the product of
        # the float view keeps -0 where numpy's division gives +0
        z = part_pairs(self.FINITE)
        product = (z.view(np.float64) * (1.0 / 3.0)).view(complex)
        differs = product.view(np.int64) != np.divide(z, 3.0).view(np.int64)
        assert differs.any()
        assert (np.signbit(z.view(np.float64)) & (z.view(np.float64) == 0))[differs].all()


class TestSharedParts:
    """The pass forms |z| and z / |z| once per block for all its operators
    (`ThresholdOperator._apply` with `mod` and `phase`); each operator's rows
    must equal the operator applied to the row alone, zero signs included."""

    OPS = [ThresholdOperator("hard"), ThresholdOperator("lasso")] \
        + [ThresholdOperator("adaptive_lasso", eta) for eta in (0.5, 1.0, 2.0)]

    @staticmethod
    def stack(rng, negative_zeros):
        """Rows with zero entries, a real row and random rows, and per-row
        thresholds, some equal to an entry's modulus.  A block holding a -0
        part is divided by `np.divide` (`estimator._divide`), so its zeros
        take either sign or +0 alone."""
        z = rng.standard_normal((5, 4, 4)) + 1j * rng.standard_normal((5, 4, 4))
        z = z + z.conj().swapaxes(1, 2)
        zero = -0.0 if negative_zeros else 0.0
        z[0, 0, 1:] = [0.0, complex(zero, 0.0), complex(0.0, zero)]
        z[1, 2, 3] = complex(zero, zero)
        z[2] = z[2].real  # imaginary parts +0
        z[2].imag[1:3] = zero
        lam = np.array([0.0, np.abs(z[1, 0, 2]), np.abs(z[2, 1, 3]), 0.7, np.abs(z[4, 3, 0])])
        return z, lam

    @pytest.mark.parametrize("negative_zeros", [True, False])
    @pytest.mark.parametrize("op", OPS, ids=lambda op: f"{op.kind}-{op.eta}")
    def test_rows_equal_the_operator_alone(self, rng, op, negative_zeros):
        z, lam = self.stack(rng, negative_zeros)
        mod = np.abs(z)
        got = op._apply(z, lam[:, None, None], mod, _phase(z, mod))
        for r, (row, value) in enumerate(zip(z, lam)):
            assert_same_bits(got[r], op(row, value), f"{op} row {r},")

    @pytest.mark.parametrize("m", [0, 3])
    def test_pass_rows_equal_the_operator_alone(self, rng, m):
        # one pass over every operator; a constant channel gives zero entries,
        # and at m = 0 row 0 is real
        n = 64
        data = rng.standard_normal((n, 5))
        data[:, 2] = 1.5
        x = TimeSeriesMatrix(data)
        f_hat = _estimates(x, m, ["smoothed"])[0].half
        lam = np.abs(f_hat[:, 0, 1])  # |z| = lambda at entry (0, 1)
        lam[::3] = 0.5 * np.abs(f_hat[::3, 3, 4])
        ests = _estimates(x, m, self.OPS,
                          lambda ops, dft_rows, rows, block: np.tile(lam[rows], (len(ops), 1)))
        diag = np.arange(x.p)
        for op, est in zip(self.OPS, ests):
            for j, (row, value) in enumerate(zip(f_hat, lam)):
                want = op(row, value)
                want[diag, diag] = row[diag, diag]
                assert_same_bits(est.half[j], want, f"{op} row {j},")


class TestHalfWeights:
    @pytest.mark.parametrize("n", [2, 3, 7, 8])
    def test_count_of_each_row_in_the_grid(self, n):
        counts = np.bincount(np.abs(FourierGrid(n).indices))
        assert half_weights(n).tolist() == counts.tolist()


class TestThresholdEstimate:
    def test_zero_lambda_equals_smoothed(self, rng):
        x = white_series(rng, 20, 3)
        lambdas = {j: 0.0 for j in range(11)}
        est = threshold_estimate(x, 2, ThresholdOperator("lasso"), lambdas)
        ref, = tuned_estimates(x, 2, ["smoothed"])
        assert np.allclose(est.half, ref.half, atol=1e-14)

    def test_huge_lambda_keeps_only_diagonal(self, rng):
        x = white_series(rng, 20, 3)
        # 1e300^(eta+1) overflows a float: the adaptive lasso takes it as inf
        for kind, lam in (("hard", 1e9), ("adaptive_lasso", 1e300)):
            est = threshold_estimate(x, 2, ThresholdOperator(kind), {j: lam for j in range(11)})
            for mat in est.half:
                off = mat[~np.eye(3, dtype=bool)]
                assert np.all(off == 0)
                assert np.all(np.abs(np.diag(mat)) > 0)

    def test_conjugate_symmetry_and_lambda_mirroring(self, rng):
        # the estimate at -j, conj(half[j]), is the operator applied to the
        # smoothed estimate at -j with the threshold lambdas[j]
        x = white_series(rng, 16, 2)
        lambdas = {j: 0.01 * (j + 1) for j in range(9)}
        op = ThresholdOperator("lasso")
        est = threshold_estimate(x, 1, op, lambdas)
        assert est.lambdas.tolist() == [lambdas[j] for j in range(9)]
        for j in range(1, 8):
            want = apply_threshold(averaged_periodogram(x, 1, -j), op, lambdas[j])
            assert np.allclose(est.half[j].conj(), want, atol=1e-14)

    def test_missing_lambda(self, rng):
        x = white_series(rng, 16, 2)
        with pytest.raises(ParameterError, match="no threshold"):
            threshold_estimate(x, 1, ThresholdOperator("lasso"), {0: 0.1})

    def test_min_eigenvalue_diagnostics(self, rng):
        x = white_series(rng, 16, 2)
        est, = tuned_estimates(x, 3, ["smoothed"])
        mins = est.min_eigenvalues()
        assert mins.shape == (9,)
        for j, val in enumerate(mins):
            assert val == np.min(np.linalg.eigvalsh(est.half[j]))
            assert val >= -1e-8 * np.trace(est.half[j]).real

    @pytest.mark.parametrize("p", [1, 3, 12, 48])
    def test_min_eigenvalues_equal_per_row_loop(self, rng, p):
        x = TimeSeriesMatrix(rng.standard_normal((40, p)) @ rng.standard_normal((p, p)))
        est = threshold_estimate(x, 3, ThresholdOperator("lasso"), {j: 0.05 for j in range(21)})
        want = [np.linalg.eigvalsh(0.5 * (f + f.conj().T))[0] for f in est.half]
        assert np.array_equal(est.min_eigenvalues(), want)


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
            tuned_estimates(white_series(rng, 16, 2), 0, ["shrinkage"])

    @pytest.mark.parametrize("n", [33, 40])
    @pytest.mark.parametrize("span", ["one", "default", "widest"])
    def test_all_matches_per_frequency_oracle(self, rng, n, span):
        m = {"one": 1, "default": default_span(n, "ma_like"), "widest": (n - 1) // 2}[span]
        x = TimeSeriesMatrix(rng.standard_normal((n, 5)) @ rng.standard_normal((5, 5)))
        est, = tuned_estimates(x, m, ["shrinkage"])
        assert est.method == "shrinkage" and est.half.shape == (n // 2 + 1, 5, 5)
        for j in range(-((n - 1) // 2), n // 2 + 1):
            want = shrinkage_estimate(x, m, j)
            got = est.half[j] if j >= 0 else est.half[-j].conj()
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_matches_oracle_with_one_row_last_block(self, rng):
        # n = 64 has 33 rows j >= 0: the last block of 16 rows holds one row,
        # and the row statistics must not be reduced over that block alone
        x = TimeSeriesMatrix(rng.standard_normal((64, 48)) @ rng.standard_normal((48, 48)))
        m = default_span(64, "ma_like")
        est, = tuned_estimates(x, m, ["shrinkage"])
        periodograms = periodogram_all(x)
        for j in range(33):
            want = shrinkage_estimate(x, m, j, periodograms=periodograms)
            assert np.linalg.norm(est.half[j] - want) <= 1e-12 * np.linalg.norm(want)

    def test_one_channel_equals_smoothed(self, rng):
        x = white_series(rng, 41, 1)
        est, = tuned_estimates(x, 4, ["shrinkage"])
        smooth, = tuned_estimates(x, 4, ["smoothed"])
        assert np.array_equal(est.half, smooth.half)

    def test_constant_channel(self, rng):
        data = rng.standard_normal((48, 4))
        data[:, 2] = 3.5  # zero after centring
        x = TimeSeriesMatrix(data)
        est, = tuned_estimates(x, 3, ["shrinkage"])
        for j in range(25):
            want = shrinkage_estimate(x, 3, j)
            assert np.linalg.norm(est.half[j] - want) <= 1e-12 * np.linalg.norm(want)
            assert np.all(np.isfinite(est.half[j]))

    def test_identical_window_members_keep_f_hat(self, rng, monkeypatch):
        # beta^2 is 0 up to cancellation, which here leaves the window sum
        # slightly negative; with f_hat near a scaled identity delta^2 is
        # tiny too, so without the clamp rho would come out near -3e-5
        gen = np.random.default_rng(0)
        h = gen.standard_normal((3, 3)) + 1j * gen.standard_normal((3, 3))
        mat = gen.uniform(0.5, 3) * np.eye(3) + 1e-6 * (h + h.conj().T)
        stack = np.tile(mat, (16, 1, 1))
        x = white_series(rng, 16, 3)
        monkeypatch.setattr(estimator, "_periodograms", lambda rows: stack[:len(rows)])
        est, = tuned_estimates(x, 2, ["shrinkage"])
        smooth, = tuned_estimates(x, 2, ["smoothed"])
        off = ~np.eye(3, dtype=bool)
        assert np.all(np.isfinite(est.half))
        for f, f_hat in zip(est.half, smooth.half):
            rho = 1.0 - (f[off] / f_hat[off]).real
            assert np.all((rho >= -1e-12) & (rho <= 1.0 + 1e-12))
            assert np.allclose(f, mat / (2 * np.pi), rtol=0, atol=1e-12)

    def test_scaled_identity_f_hat_is_not_shrunk(self, rng, monkeypatch):
        # delta^2 = 0 exactly while beta^2 > 0: rho must be 0, not beta^2 / 0
        x = white_series(rng, 18, 2)
        stack = np.array([(k % 3 + 1.0) * np.eye(2) for k in range(18)], dtype=complex)
        monkeypatch.setattr(estimator, "_periodograms", lambda rows: stack[:len(rows)])
        est, = tuned_estimates(x, 2, ["shrinkage"])
        smooth, = tuned_estimates(x, 2, ["smoothed"])
        assert np.array_equal(est.half, smooth.half)


def _streamed_vs_stack(x, m):
    """The streamed pass's and the whole-stack oracle's (half, lambdas) of
    every method that runs at m; m = 0 takes fixed thresholds."""
    ops = [ThresholdOperator(kind) for kind in ("hard", "lasso", "adaptive_lasso")]
    if m == 0:
        lam = np.linspace(0.0, 0.2, x.n // 2 + 1)

        def fixed(ops, periodograms, rows, f_hat):
            return np.repeat(lam[None, rows], len(ops), axis=0)

        methods = ["smoothed"] + ops
        got = estimator._estimates(x, 0, methods, fixed)
        return got, stack_estimates(x, 0, methods, fixed)
    methods = ["smoothed"] + ops + ["shrinkage"]
    got = tuned_estimates(x, m, methods, grid_size=6, n_splits=2, seed=5)
    return got, stack_estimates(x, m, methods, stack_tuned_thresholds(x.n, m, 6, 2, 5))


class TestStreamedPass:
    # p = 96, 120, 66, 81 and 192 hand out blocks of 7, 4, 15, 9 and 1 rows,
    # in pass blocks of 14, 16, 15, 9 and 16 rows, and shrink a one-row last
    # block padded to 16
    @pytest.mark.parametrize("n, p", [(n, p) for n in (17, 32, 33, 64, 65) for p in (1, 2, 48)]
                             + [(33, 192), (33, 96), (33, 120), (33, 66), (33, 81)])
    @pytest.mark.parametrize("span", ["none", "one", "widest"])
    def test_equals_whole_stack_pass(self, rng, n, p, span):
        # n = 32, 33, 64 and 65 end in a one-row block; the widest span
        # gives 2m+1 = n or n-1, and m = 0 skips shrinkage and tuning
        m = {"none": 0, "one": 1, "widest": (n - 1) // 2}[span]
        x = TimeSeriesMatrix(rng.standard_normal((n, p)) @ rng.standard_normal((p, p)))
        got, want = _streamed_vs_stack(x, m)
        assert len(got) == len(want)
        for est, (half, lambdas) in zip(got, want):
            assert np.array_equal(est.half.view(float), half.view(float))
            assert (est.lambdas is None) == (lambdas is None)
            if lambdas is not None:
                assert np.array_equal(est.lambdas, lambdas)

    @pytest.mark.parametrize("n, p", [(33, 6), (32, 96), (33, 120), (33, 192), (33, 66), (33, 81)])
    def test_blocks_come_in_row_block_partition(self, rng, n, p):
        # each method's blocks are `_row_blocks`' blocks, in row order, with
        # its thresholds, and NaN thresholds for the baselines
        x = white_series(rng, n, p)
        methods = ["smoothed", ThresholdOperator("lasso"), "shrinkage"]
        lam = np.linspace(0.0, 0.1, n // 2 + 1)
        half = np.empty((n // 2 + 1, p, p), dtype=complex)
        want = [range(len(half))[rows] for rows, _ in _row_blocks(half)]
        got = [[] for _ in methods]
        blocks = estimator._estimate_blocks(x, 2, methods, lambda ops, members, rows, f_hat:
                                            lam[None, rows])
        for k, rows, values, lams in blocks:
            got[k].append(range(len(half))[rows])
            assert values.shape == (rows.stop - rows.start, p, p)
            assert np.array_equal(lams, lam[rows] if k == 1 else np.full(len(values), np.nan),
                                  equal_nan=True)
        assert got == [want] * len(methods)

    def test_shrinkage_without_window_fails_before_the_dft(self, rng, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("periodograms formed")

        monkeypatch.setattr(estimator, "_periodograms", refuse)
        monkeypatch.setattr(estimator, "_dft", refuse)
        x = white_series(rng, 40, 3)
        message = "shrinkage needs a window of at least 2 periodograms"
        with pytest.raises(ParameterError, match=message):
            tuned_estimates(x, 0, ["shrinkage"])
        with pytest.raises(ParameterError, match=message):
            tuned_estimates(x, 0, ["smoothed", ThresholdOperator("lasso"), "shrinkage"])

    def test_peak_memory_below_half_the_periodogram_stack(self, rng):
        # the (n, p, p) stack is never built: the pass holds its outputs
        # and a buffer of 14+2m periodograms (pass blocks of 14 rows at p = 96)
        n, p, m = 200, 96, 9
        x = white_series(rng, n, p)
        tracemalloc.start()
        try:
            got = tuned_estimates(x, m, ["smoothed", "shrinkage"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        outputs = sum(est.half.nbytes for est in got)
        assert peak < outputs + 0.5 * n * p * p * 16

    def test_carried_periodograms_move_without_a_copy(self, rng):
        # p = 96 walks pass blocks of 14 rows, so with 2m > 14 the 2m
        # positions a block carries to the next overlap their new place;
        # moved in one step they would be copied to a temporary of 2m
        # matrices first.  Besides its buffer of 14+2m periodograms, into
        # which a block's new periodograms are formed, the pass holds the
        # window averages and the DFT: less than m more
        n, p, m = 200, 96, 60
        x = white_series(rng, n, p)
        tracemalloc.start()
        try:
            for _ in estimator._estimate_blocks(x, m, ("smoothed",)):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (16 + 2 * m + m) * p * p * 16


@pytest.fixture
def threaded(monkeypatch):
    """A pass with threshold methods tunes on its second thread, whatever
    the CPUs of the machine."""
    monkeypatch.setattr(estimator, "_lookahead_depth", lambda ops, blocks: int(bool(ops)))


def _overflowing(monkeypatch, module, name, fails):
    """Make module.name return infinities on the calls for which
    fails(*args) holds, filled into what it returns, so that they also
    reach an `out` array it was given."""
    original = getattr(module, name)

    def patched(*args, **kwargs):
        out = original(*args, **kwargs)
        if fails(*args):
            out[...] = np.inf
        return out

    monkeypatch.setattr(module, name, patched)


class TestPassThread:
    # n = 200 at p = 6 walks 7 pass blocks of 16 rows

    def test_depth_rule(self, monkeypatch):
        ops = [ThresholdOperator("lasso")]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert estimator._lookahead_depth(ops, 7) == 1
        assert estimator._lookahead_depth([], 7) == 0
        assert estimator._lookahead_depth(ops, 1) == 0
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert estimator._lookahead_depth(ops, 7) == 0
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(multiprocessing, "parent_process", lambda: object())
        assert estimator._lookahead_depth(ops, 7) == 0

    def test_package_import_leaves_multiprocessing_out(self):
        # the depth rule reads `multiprocessing` only once something else has
        # imported it, as in a pool worker, so the package need not import it
        src = os.path.dirname(os.path.dirname(estimator.__file__))
        code = "import sys, specthresh; print('multiprocessing' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "False"

    def test_close_after_next_joins_the_thread(self, rng, threaded):
        x = white_series(rng, 200, 6)
        before = threading.active_count()
        blocks = tuned_blocks(x, 4, ["smoothed", "lasso"])
        next(blocks)
        assert threading.active_count() == before + 1
        blocks.close()
        assert threading.active_count() == before

    def test_consumer_error_leaves_no_thread(self, rng, threaded):
        x = white_series(rng, 200, 6)
        before = threading.active_count()
        with pytest.raises(KeyError, match="consumer"):
            for _, rows, _, _ in tuned_blocks(x, 4, ["hard", "lasso"]):
                if rows.start >= 32:
                    raise KeyError("consumer")
        assert threading.active_count() == before

    @pytest.mark.parametrize("depth", [0, 1])
    def test_tuning_error_in_a_later_block(self, rng, monkeypatch, depth):
        # block 2's split risks overflow: the split rule's error reaches the
        # caller after blocks 0 and 1, from the thread as from the serial pass
        _overflowing(monkeypatch, tuning, "_split_risks", lambda dft_rows, n, js, *_: js[0] == 32)
        monkeypatch.setattr(estimator, "_lookahead_depth", lambda ops, blocks: depth)
        x = white_series(rng, 200, 6)
        before = threading.active_count()
        seen = []
        with pytest.raises(NumericalError) as err:
            for k, rows, _, _ in tuned_blocks(x, 4, ["smoothed", "lasso"]):
                seen.append((k, rows.start))
        assert type(err.value) is NumericalError
        assert str(err.value) == "non-finite split risk: the series is badly scaled"
        assert seen == [(k, j0) for j0 in (0, 16) for k in (0, 1)]
        assert threading.active_count() == before

    @pytest.mark.parametrize("tuning_fails", [False, True])
    def test_errors_come_in_the_serial_order(self, rng, monkeypatch, threaded, tuning_fails):
        # block 1's window averages overflow while block 0 is tuned: block 0's
        # tuning error comes first, and else block 0 is handed out before
        # block 1's error, as in the serial pass
        periodogram_calls = []
        _overflowing(monkeypatch, estimator, "_periodograms",
                     lambda rows: periodogram_calls.append(rows) or len(periodogram_calls) == 2)
        _overflowing(monkeypatch, tuning, "_split_risks", lambda *_: tuning_fails)
        x = white_series(rng, 200, 6)
        seen = []
        with pytest.raises(NumericalError) as err:
            for k, rows, _, _ in tuned_blocks(x, 4, ["smoothed", "lasso"]):
                seen.append((k, rows.start))
        if tuning_fails:
            assert str(err.value) == "non-finite split risk: the series is badly scaled"
            assert seen == []
        else:
            assert str(err.value) == "non-finite spectral diagonal: the series is badly scaled"
            assert seen == [(0, 0), (1, 0)]

    def test_repeated_passes_equal_the_stack_oracle(self, rng, threaded):
        # 7 pass blocks in two alternating buffers: a block overwritten while
        # it is tuned or handed out would move a value or a threshold
        x = TimeSeriesMatrix(rng.standard_normal((200, 12)) @ rng.standard_normal((12, 12)))
        ops = [ThresholdOperator(kind) for kind in ("hard", "lasso", "adaptive_lasso")]
        methods = ["smoothed"] + ops + ["shrinkage"]
        want = stack_estimates(x, 6, methods, stack_tuned_thresholds(x.n, 6, 6, 2, 5))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
        try:
            got = [tuned_estimates(x, 6, methods, grid_size=6, n_splits=2, seed=5)
                   for _ in range(5)]
        finally:
            sys.setswitchinterval(interval)
        for ests in got:
            for est, (half, lambdas) in zip(ests, want):
                assert np.array_equal(est.half.view(float), half.view(float))
                if lambdas is not None:
                    assert np.array_equal(est.lambdas, lambdas)


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
    def _estimate(self, n, half):
        return SpectralEstimate(n=n, p=half.shape[-1], m=1, method="smoothed", half=half)

    def test_diagonal_estimate_gives_empty_graph(self):
        half = np.tile(np.diag([1.0, 2.0]).astype(complex), (5, 1, 1))
        graph = aggregate_coherence_graph(self._estimate(8, half))
        assert np.allclose(graph, 0.0)

    def test_single_frequency(self):
        # the same matrix at every frequency: the graph is its |coherence|
        mat = np.array([[4.0, 2.0j], [-2.0j, 1.0]])
        graph = aggregate_coherence_graph(self._estimate(8, np.tile(mat, (5, 1, 1))))
        assert abs(graph[0, 1] - 1.0) < 1e-14
        assert graph[0, 0] == 0.0

    def test_symmetric_zero_diagonal(self, rng):
        est, = tuned_estimates(white_series(rng, 16, 4), 3, ["smoothed"])
        graph = aggregate_coherence_graph(est)
        assert np.allclose(graph, graph.T)
        assert np.all(np.diag(graph) == 0.0)
        assert np.all(graph >= 0.0)

    @pytest.mark.parametrize("p", [5, 96])  # 16 and 7 rows per block
    def test_many_frequencies_equal_loop(self, rng, p):
        # more rows than one block; odd n, and even n with its weight-1 row n/2
        for n in (63, 64):
            b = rng.standard_normal((n // 2 + 1, p, p)) + 1j * rng.standard_normal((n // 2 + 1, p, p))
            half = b @ b.conj().transpose(0, 2, 1) + 0.1 * np.eye(p)
            est = self._estimate(n, half)
            want = coherence_graph_loop(est)
            got = aggregate_coherence_graph(est)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)

    def test_first_degenerate_channel_named(self):
        # the first frequency with a degenerate channel, in a later block of rows
        half = np.tile(np.eye(3, dtype=complex), (33, 1, 1))
        half[18] = np.diag([1.0, 0.0, 0.0])
        half[30] = np.diag([0.0, 1.0, 1.0])
        with pytest.raises(DataError, match="degenerate channel 1"):
            aggregate_coherence_graph(self._estimate(64, half))

    def test_scale_invariance(self, rng):
        # the degenerate-channel floor is relative, so small units pass too
        data = rng.standard_normal((16, 3))
        est, = tuned_estimates(TimeSeriesMatrix(data), 3, ["smoothed"])
        g1 = aggregate_coherence_graph(est)
        for scale in (5.0, 1e-6, 1e-8):
            est, = tuned_estimates(TimeSeriesMatrix(scale * data), 3, ["smoothed"])
            g2 = aggregate_coherence_graph(est)
            assert np.allclose(g1, g2, atol=1e-10)


class TestHermitianNormBound:
    def test_operator_norm_below_column_sum(self, rng):
        for _ in range(20):
            b = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            mat = b + b.conj().T
            col_sum = float(np.max(np.sum(np.abs(mat), axis=0)))
            assert np.linalg.norm(mat, 2) <= col_sum + 1e-10
