import tracemalloc

import numpy as np
import pytest
from oracles import (
    apply_threshold,
    assert_thresholded,
    averaged_periodogram,
    dft_all,
    gathered_split_risks,
    lambda_grid,
    periodogram_all,
    select_threshold,
    split_by_loop,
    split_frequencies,
    window_units,
    wrap,
)

from specthresh import (
    FourierGrid,
    NumericalError,
    ParameterError,
    ThresholdOperator,
    default_span,
    theoretical_threshold,
)
from specthresh import estimator, tuning
from specthresh.estimator import _divide, _estimates, threshold_estimate
from specthresh.model import TimeSeriesMatrix
from specthresh.tuning import (
    _freq_rng,
    _Split,
    _lambda_grids,
    _split_rule,
    _window_units,
    tuned_estimates,
)


def split_halves(x, j, m, rng):
    """The two half-window means that row j's split risk scores: half h's
    sum (t_h W)^T conj(W) over the DFT rows W of j's window, t_h the 0/1
    column of its members, formed as `tuning._split_risks` forms it, then
    made Hermitian from its upper triangle, the part the closed form reads
    besides the diagonal."""
    grid = FourierGrid(x.n)
    offsets = np.arange(j - m, j + m + 1)
    window = dft_all(x)[(offsets + grid.half) % x.n]
    j1, _ = split_frequencies(j, m, x.n, rng=rng)
    in_j1 = np.isin([wrap(grid, k) for k in offsets], j1)
    take = np.array([in_j1, ~in_j1], dtype=float)
    halves = (take[:, :, None] * window).swapaxes(1, 2) @ window.conj()
    halves /= take.sum(axis=1)[:, None, None]
    halves /= 2 * np.pi
    lower = np.tril_indices(x.p, -1)
    for f in halves:
        f[lower] = f.T[lower].conj()
    return halves


def risk_by_threshold_loop(x, j, m, grid, op, n_splits, seed, preserve_diagonal):
    """Oracle: threshold f1 once per grid value and sum the squared error."""
    rng = _freq_rng(seed, j)
    risks = np.zeros(len(grid))
    for _ in range(n_splits):
        f1, f2 = split_halves(x, j, m, rng)
        for i, lam in enumerate(grid):
            out = apply_threshold(f1, op, lam, preserve_diagonal=preserve_diagonal)
            risks[i] += float(np.sum(np.abs(out - f2) ** 2))
    return risks / n_splits


def split_by_wrap(j, m, n, seed):
    """Oracle: the window and its mirror pairs built with `wrap`."""
    grid = FourierGrid(n)
    rng = _freq_rng(seed, j)
    window = [wrap(grid, k) for k in range(j - m, j + m + 1)]
    members = set(window)
    units, seen = [], set()
    for k in window:
        if k in seen:
            continue
        mirror = wrap(grid, -k)
        if mirror in members and mirror != k:
            units.append((k, mirror))
            seen.update((k, mirror))
        else:
            units.append((k,))
            seen.add(k)
    j1, j2 = [], []
    for idx in rng.permutation(len(units)):
        if len(j1) < len(j2):
            j1.extend(units[idx])
        elif len(j2) < len(j1):
            j2.extend(units[idx])
        elif rng.integers(2) == 0:
            j1.extend(units[idx])
        else:
            j2.extend(units[idx])
    return sorted(j1), sorted(j2)


class TestSplitFrequencies:
    @pytest.mark.parametrize("n", [7, 8, 33, 40])
    def test_matches_wrap_construction(self, n):
        for m in sorted({1, 2, (n - 1) // 2}):  # (n - 1) // 2 gives 2m+1 = n for odd n
            for j in (0, 1, n // 2, -((n - 1) // 2), 3 * n + 2):
                for seed in range(4):
                    got = split_frequencies(j, m, n, seed=seed)
                    assert got == split_by_wrap(j, m, n, seed)
                    assert all(type(k) is int for k in got[0] + got[1])

    def test_mirror_pair_stays_together_at_zero(self):
        for seed in range(20):
            j1, j2 = split_frequencies(0, 1, 16, seed=seed)
            assert sorted(j1 + j2) == [-1, 0, 1]
            assert ([-1, 1] == j1 or [-1, 1] == j2)

    def test_single_element_window_rejected(self, rng):
        x = TimeSeriesMatrix(rng.standard_normal((16, 3)))
        with pytest.raises(ParameterError, match="at least 2 frequencies"):
            tuned_estimates(x, 0, ["lasso"])

    def test_plain_window_without_pairs(self):
        j1, j2 = split_frequencies(6, 1, 16, seed=3)
        assert sorted(j1 + j2) == [5, 6, 7]
        assert abs(len(j1) - len(j2)) <= 1

    def test_partition_properties(self, rng):
        grid_cases = [(0, 3, 16), (5, 2, 11), (7, 4, 15), (-3, 5, 32), (60, 6, 128)]
        for j, m, n in grid_cases:
            grid = FourierGrid(n)
            for seed in range(10):
                j1, j2 = split_frequencies(j, m, n, seed=seed)
                window = sorted(wrap(grid, k) for k in range(j - m, j + m + 1))
                assert sorted(j1 + j2) == window
                assert not set(j1) & set(j2)
                assert abs(len(j1) - len(j2)) <= 1
                members = set(window)
                for k in j1:
                    mirror = wrap(grid, -k)
                    if mirror in members and mirror != k:
                        assert mirror in j1

    def test_window_larger_than_n_rejected(self, rng):
        x = TimeSeriesMatrix(rng.standard_normal((16, 3)))
        with pytest.raises(ParameterError, match="invalid half-span"):
            tuned_estimates(x, 9, ["lasso"])

    def test_deterministic_per_seed(self):
        assert split_frequencies(4, 3, 32, seed=9) == split_frequencies(4, 3, 32, seed=9)

    @staticmethod
    def _windows(max_n):
        """Every (j, m, n) of a tuned row j = 0..n//2 with 2 <= 2m+1 <= n <= max_n."""
        return [(j, m, n) for n in range(3, max_n + 1) for m in range(1, (n - 1) // 2 + 1)
                for j in range(n // 2 + 1)]

    def test_units_equal_the_loop_construction(self):
        for j, m, n in self._windows(64):
            half = (n - 1) // 2
            window = [(k + half) % n - half for k in range(j - m, j + m + 1)]
            units = _window_units(j, m, n)
            if units is None:
                # no mirror pair in the window: one unit per offset, in window order
                units = [(i,) for i in range(2 * m + 1)]
            got = [tuple(window[i] for i in unit) for unit in units]
            assert got == window_units(j, m, n)

    def test_every_window_draws_like_the_loop(self):
        # one seed of 0..49 per window, in turn
        for i, (j, m, n) in enumerate(self._windows(64)):
            got_rng, want_rng = np.random.default_rng(i % 50), np.random.default_rng(i % 50)
            assert split_frequencies(j, m, n, rng=got_rng) == split_by_loop(j, m, n, want_rng)
            # the same stream position: the next draws agree
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_consecutive_draws_follow_the_loop(self):
        # an interior window draws its tie bits in one batch, which must leave
        # the row's stream where the loop's one-at-a-time draws leave it, split
        # after split: every window with n <= 64, and every row of the study
        # cell (n=400, m=20)
        study = [(j, 20, 400) for j in range(201)]
        for i, (j, m, n) in enumerate(self._windows(64) + study):
            n_splits = 3 if n == 400 else 1 + i % 3
            got_rng, want_rng = _freq_rng(i % 50, j), _freq_rng(i % 50, j)
            for split in range(n_splits):
                where = f"j={j} m={m} n={n} split {split}, numpy {np.__version__}"
                assert split_frequencies(j, m, n, rng=got_rng) == split_by_loop(
                    j, m, n, want_rng), where
                assert got_rng.bit_generator.state == want_rng.bit_generator.state, where


class TestSelectThreshold:
    """The one-frequency split risk (`oracles.select_threshold`) on grids
    the default rule never builds."""

    def test_singleton_grid_risk(self, rng):
        x = TimeSeriesMatrix(rng.standard_normal((32, 3)))
        risk = select_threshold(x, 3, 4, (0.0,), ThresholdOperator("lasso"), seed=5)
        assert risk.shape == (1,)
        # recompute the risk from the same derived split
        grid = FourierGrid(32)
        periodograms = periodogram_all(x)
        j1, j2 = split_frequencies(3, 4, 32, seed=5)
        f1 = periodograms[[k + grid.half for k in j1]].mean(axis=0) / (2 * np.pi)
        f2 = periodograms[[k + grid.half for k in j2]].mean(axis=0) / (2 * np.pi)
        assert abs(risk[0] - float(np.sum(np.abs(f1 - f2) ** 2))) < 1e-12

    def test_diagonal_truth_prefers_large_lambda(self):
        wins = 0
        trials = 50
        op = ThresholdOperator("hard")
        for trial in range(trials):
            data = np.random.default_rng(1000 + trial).standard_normal((64, 6))
            x = TimeSeriesMatrix(data)
            grid = (0.0, 1e6)
            if grid[int(np.argmin(select_threshold(x, 10, 8, grid, op, seed=trial)))] == 1e6:
                wins += 1
        assert wins >= 0.9 * trials

    def test_deterministic(self, rng):
        x = TimeSeriesMatrix(rng.standard_normal((24, 3)))
        op = ThresholdOperator("lasso")
        first = select_threshold(x, 2, 3, (0.0, 0.1, 0.2), op, n_splits=3, seed=7)
        assert np.array_equal(first, select_threshold(x, 2, 3, (0.0, 0.1, 0.2), op, n_splits=3, seed=7))
        ests = [tuned_estimates(x, 3, [op], grid_size=4, n_splits=3, seed=7)[0] for _ in range(2)]
        assert np.array_equal(ests[0].grids, ests[1].grids)
        assert np.array_equal(ests[0].risks, ests[1].risks)

    def test_chosen_in_grid_ties_toward_small(self):
        x = TimeSeriesMatrix(np.tile(np.arange(16.0)[:, None], (1, 2)))
        risk = select_threshold(x, 4, 2, (1e8, 2e8), ThresholdOperator("hard"))
        # both candidates zero out everything: identical risks, smaller wins
        assert risk[0] == risk[1]
        assert int(np.argmin(risk)) == 0


OPERATORS = [
    ThresholdOperator("hard"),
    ThresholdOperator("lasso"),
    ThresholdOperator("adaptive_lasso"),
    ThresholdOperator("adaptive_lasso", eta=0.5),
]


class TestClosedFormRisk:
    @staticmethod
    def _series(rng):
        data = rng.standard_normal((48, 5)) @ rng.standard_normal((5, 5))
        data[:, 4] = 2.5  # constant channel: exact zero entries after centering
        return TimeSeriesMatrix(data)

    @pytest.mark.parametrize("op", OPERATORS, ids=lambda op: f"{op.kind}-{op.eta}")
    # the estimator always keeps the diagonal; the one value keeps the test ids
    @pytest.mark.parametrize("preserve_diagonal", [True])
    @pytest.mark.parametrize("n_splits", [1, 3])
    def test_matches_threshold_loop(self, rng, op, preserve_diagonal, n_splits):
        x = self._series(rng)
        est, = tuned_estimates(x, 6, [op], grid_size=9, n_splits=n_splits, seed=11)
        for j in (0, 5, 24):
            # grid points exactly at entry moduli of the first split's f1
            f1, _ = split_halves(x, j, 6, _freq_rng(11, j))
            moduli = np.unique(np.abs(f1))
            grid = np.unique(np.concatenate([[0.0], moduli[::3], [2.0 * moduli[-1]]]))
            # the oracle on that grid, and the pass's own curve on its grid
            for lams, got in ((grid, select_threshold(x, j, 6, grid, op, n_splits, 11)),
                              (est.grids[j], est.risks[j])):
                ref = risk_by_threshold_loop(x, j, 6, lams, op, n_splits, 11, preserve_diagonal)
                assert np.all(np.isfinite(got))
                assert np.max(np.abs(got - ref) / ref) <= 1e-10
                assert int(np.argmin(got)) == int(np.argmin(ref))

    def test_all_operators_at_once_equal_one_split_each(self, rng):
        # the lasso and adaptive-lasso risks share their suffixes and a^2 - 2ab
        # sums; each operator's curve must equal a fresh split's, in any order
        x = self._series(rng)
        halves = [split_halves(x, j, 6, _freq_rng(11, j)) for j in (0, 5, 17, 24)]
        f1, f2 = (np.stack(half) for half in zip(*halves))
        grids = _lambda_grids(f1, 9)
        # grid points exactly at entry moduli, and one above every entry
        grids[:, 1:4] = np.sort(np.abs(f1[:, 0, 1:4]), axis=1)
        grids[:, -1] = 2.0 * np.abs(f1).max()
        ops = [ThresholdOperator("adaptive_lasso", 0.5), ThresholdOperator("lasso"),
               ThresholdOperator("hard"), ThresholdOperator("adaptive_lasso", 1.0),
               ThresholdOperator("adaptive_lasso")]
        for order in (ops, ops[::-1]):
            got = _Split(f1.copy(), f2.copy()).risks(order, grids)
            assert got.shape == (len(order),) + grids.shape
            for op, risk in zip(order, got):
                alone = _Split(f1.copy(), f2.copy()).risks([op], grids)[0]
                assert (risk.view(np.int64) == alone.view(np.int64)).all(), \
                    f"{op}, numpy {np.__version__}"

    @pytest.mark.parametrize("op", OPERATORS[:3], ids=lambda op: op.kind)
    def test_equal_risks_tie_toward_smaller_lambda(self, rng, op):
        x = self._series(rng)
        # every grid value zeroes all off-diagonal entries: equal risks; the
        # lambda^(eta+1) of 1e200 overflows a float
        risk = select_threshold(x, 7, 6, (1e3, 2e3, 1e200), op, seed=3)
        assert risk[0] == risk[1] == risk[2]
        assert int(np.argmin(risk)) == 0


class TestTuningConfig:
    """The tuning parameters and grids the pass rejects."""

    def test_rejects_bad_grids(self, rng):
        x = TimeSeriesMatrix(rng.standard_normal((32, 3)))
        op = ThresholdOperator("lasso")
        with pytest.raises(ParameterError, match="grid size must be positive"):
            tuned_estimates(x, 2, [op], grid_size=0)
        with pytest.raises(ParameterError, match="n_splits must be at least 1"):
            tuned_estimates(x, 2, [op], n_splits=0)

    def test_non_finite_window_averages_stop_before_the_grids(self, rng, monkeypatch):
        # the pass's diagonal check keeps every grid finite: an overflowing
        # series never reaches the split rule
        def refuse(*args):
            raise AssertionError("grids built")

        monkeypatch.setattr(tuning, "_lambda_grids", refuse)
        x = TimeSeriesMatrix(1e154 * rng.standard_normal((32, 3)))
        with pytest.raises(NumericalError, match="non-finite spectral diagonal"):
            tuned_estimates(x, 2, ["lasso"])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_grid_values(self, rng, monkeypatch, bad):
        # a non-finite DFT entry makes its channel's diagonal non-finite, so
        # the pass stops before any grid could take a non-finite value
        def refuse(*args):
            raise AssertionError("grids built")

        def spoiled_dft(x, m):
            d = dft(x, m)
            d[m + 3, 1] = bad
            return d

        dft = estimator._dft
        monkeypatch.setattr(estimator, "_dft", spoiled_dft)
        monkeypatch.setattr(tuning, "_lambda_grids", refuse)
        x = TimeSeriesMatrix(rng.standard_normal((32, 3)))
        with pytest.raises(NumericalError, match="non-finite spectral diagonal"):
            tuned_estimates(x, 2, ["lasso"])


class TestDefaultLambdaGrid:
    def test_equispaced_between_off_diagonal_moduli(self):
        f = np.array([[5.0, 0.2 + 0.0j, 0.5j], [0.2, 3.0, 1.0], [-0.5j, 1.0, 2.0]])
        grids = _lambda_grids(f[None], 20)
        grid = grids[0]
        assert grids.shape == (1, 20)
        assert abs(grid[0] - 0.2) < 1e-14
        assert abs(grid[-1] - 1.0) < 1e-14
        steps = np.diff(grid)
        assert np.allclose(steps, steps[0], atol=1e-12)

    def test_single_channel_has_no_off_diagonal(self):
        assert _lambda_grids(np.array([[[2.0 + 0.0j]]]), 20).tolist() == [[0.0]]

    def test_constant_moduli_degenerate(self):
        # the one value is repeated across the row, which stands for (0.3,)
        assert _lambda_grids(np.full((1, 2, 2), 0.3 + 0.0j), 20).tolist() == [[0.3] * 20]


class TestTunedThresholdEstimate:
    @pytest.mark.parametrize("op", OPERATORS[:3], ids=lambda op: op.kind)
    def test_matches_per_frequency_loop_pipeline(self, rng, op):
        x = TimeSeriesMatrix(rng.standard_normal((40, 4)) @ rng.standard_normal((4, 4)))
        lambdas = {}
        for j in range(21):
            grid = lambda_grid(averaged_periodogram(x, 5, j))
            lambdas[j] = grid[int(np.argmin(risk_by_threshold_loop(x, j, 5, grid, op, 2, 6, True)))]
        ref = threshold_estimate(x, 5, op, lambdas)
        est = tuned_estimates(x, 5, [op], n_splits=2, seed=6)[0]
        assert np.array_equal(est.lambdas, ref.lambdas)
        assert np.array_equal(est.half, ref.half)

    def test_pipeline_metadata(self, rng):
        x = TimeSeriesMatrix(rng.standard_normal((32, 4)))
        est = tuned_estimates(x, 4, [ThresholdOperator("lasso")], seed=2)[0]
        assert est.method == "lasso"
        assert est.half.shape == (17, 4, 4)
        assert est.lambdas.shape == (17,)

    def test_lambda_scale_rescales_thresholds(self, rng):
        # tuned thresholds are rescaled by thresholding again at the scaled
        # values; a negative scale is a negative threshold
        x = TimeSeriesMatrix(rng.standard_normal((32, 4)))
        op = ThresholdOperator("lasso")
        base = tuned_estimates(x, 4, [op], seed=2)[0]
        scaled = threshold_estimate(x, 4, op, {j: 0.5 * base.lambdas[j] for j in range(17)})
        assert np.all(np.abs(scaled.lambdas - 0.5 * base.lambdas) < 1e-14)
        for j in range(17):
            want = apply_threshold(averaged_periodogram(x, 4, j), op, 0.5 * base.lambdas[j])
            assert np.array_equal(scaled.half[j], want)
        with pytest.raises(ParameterError):
            threshold_estimate(x, 4, op, {j: -0.5 * base.lambdas[j] for j in range(17)})

    def test_reruns_identical(self, rng):
        data = rng.standard_normal((24, 3))
        op = ThresholdOperator("hard")
        e1 = tuned_estimates(TimeSeriesMatrix(data), 3, [op], seed=4)[0]
        e2 = tuned_estimates(TimeSeriesMatrix(data), 3, [op], seed=4)[0]
        assert np.array_equal(e1.lambdas, e2.lambdas)
        assert np.array_equal(e1.half, e2.half)


class TestTunedThresholdEstimates:
    """Several operators tuned in one pass (`tuning.tuned_estimates`)."""

    @pytest.mark.parametrize("n", [41, 48])
    @pytest.mark.parametrize("n_splits", [1, 3])
    # preserve_diagonal picks the form of the reference each row is checked
    # against (see assert_thresholded); lambda_scale scales the tuned
    # thresholds that threshold_estimate applies again
    @pytest.mark.parametrize("preserve_diagonal", [True, False])
    @pytest.mark.parametrize("lambda_scale", [1.0, 0.6])
    def test_each_equals_its_own_tuned_estimate(self, rng, n, n_splits, preserve_diagonal,
                                                lambda_scale):
        x = TimeSeriesMatrix(rng.standard_normal((n, 5)) @ rng.standard_normal((5, 5)))
        kwargs = dict(grid_size=8, n_splits=n_splits, seed=9)
        ests = tuned_estimates(x, 4, OPERATORS, **kwargs)
        assert len(ests) == len(OPERATORS)
        smoothed = [averaged_periodogram(x, 4, j) for j in range(n // 2 + 1)]
        for op, est in zip(OPERATORS, ests):
            ref = tuned_estimates(x, 4, [op], **kwargs)[0]
            assert (est.method, est.eta) == (ref.method, ref.eta)
            assert np.array_equal(est.lambdas, ref.lambdas)
            assert np.array_equal(est.half, ref.half)
            assert np.array_equal(est.grids, ref.grids)
            assert np.array_equal(est.risks, ref.risks)
            scaled = threshold_estimate(
                x, 4, op, {j: lambda_scale * ref.lambdas[j] for j in range(n // 2 + 1)})
            for j, f in enumerate(smoothed):
                assert_thresholded(est.half[j], f, op, ref.lambdas[j], preserve_diagonal)
                assert_thresholded(scaled.half[j], f, op, lambda_scale * ref.lambdas[j],
                                   preserve_diagonal)

    def test_operators_do_not_share_storage(self, rng):
        x = TimeSeriesMatrix(rng.standard_normal((32, 4)))
        hard, lasso = tuned_estimates(x, 4, OPERATORS[:2], seed=1)
        ref = tuned_estimates(x, 4, OPERATORS[:1], seed=1)[0]
        lasso.half[3][...] = 0.0
        assert np.array_equal(hard.half[3], ref.half[3])

    def test_names_equal_their_operators(self, rng):
        # a threshold method named by string (or its alias) runs as its
        # operator with eta = 2, in the estimates and in the curves
        x = TimeSeriesMatrix(rng.standard_normal((41, 5)) @ rng.standard_normal((5, 5)))
        names = ["hard", "lasso", "alasso"]
        got = tuned_estimates(x, 4, names, grid_size=6, seed=3)
        want = tuned_estimates(x, 4, OPERATORS[:3], grid_size=6, seed=3)
        assert [est.method for est in got] == ["hard", "lasso", "adaptive_lasso"]
        for est, ref in zip(got, want, strict=True):
            assert (est.eta, est.m) == (ref.eta, ref.m)
            assert np.array_equal(est.lambdas, ref.lambdas)
            assert np.array_equal(est.half, ref.half)
            assert np.array_equal(est.grids, ref.grids)
            assert np.array_equal(est.risks, ref.risks)

    def test_unknown_method_name_rejected(self, rng):
        x = TimeSeriesMatrix(rng.standard_normal((32, 4)))
        for methods in (["smoothed", "ridge"], [["lasso"]]):
            with pytest.raises(ParameterError, match="unknown method"):
                tuned_estimates(x, 4, methods)

    def test_rejects_no_operators(self, rng):
        # a fixed-threshold estimate needs a threshold method; a pass of no
        # methods has no estimate
        x = TimeSeriesMatrix(rng.standard_normal((32, 4)))
        lambdas = {j: 0.1 for j in range(17)}
        for method in ("smoothed", "shrinkage"):
            with pytest.raises(ParameterError, match="is not a threshold method"):
                threshold_estimate(x, 4, method, lambdas)
        assert tuned_estimates(x, 4, []) == []


class TestHalfScaling:
    """`tuning._split_risks` turns the half-window sums into means by the
    real-arithmetic division `estimator._divide`, by the counts and then by
    2 pi, which must give the bits of numpy's complex division, zero signs
    included."""

    # zeros of both signs, subnormals, the smallest normal and the float maximum
    SPECIAL = (0.0, -0.0, 5e-324, -2.5e-310, np.finfo(float).tiny, 1.0,
               np.finfo(float).max, -0.999 * np.finfo(float).max)

    @staticmethod
    def _by_complex_division(halves, counts):
        want = halves.copy()
        want /= counts[..., None, None]
        want /= 2.0 * np.pi
        return want

    def _cases(self, rng):
        """Random halves over 20 decades, and halves whose entries pair every
        special value as real part with every one as imaginary part."""
        rows, p = 6, len(self.SPECIAL)
        scale = 10.0 ** rng.integers(-10, 10, (2, rows, p, p))
        random = (rng.standard_normal((2, rows, p, p))
                  + 1j * rng.standard_normal((2, rows, p, p))) * scale
        special = np.empty((2, rows, p, p), dtype=complex)
        special.real = np.array(self.SPECIAL)[:, None]
        special.imag = np.array(self.SPECIAL)[None, :]
        counts = rng.integers(1, 42, (2, rows)).astype(float)
        return [(random, counts), (special, counts)]

    def test_equals_complex_division(self, rng):
        for halves, counts in self._cases(rng):
            want = self._by_complex_division(halves, counts)
            got = halves.copy()
            _divide(got, counts[..., None, None], out=got)
            _divide(got, 2.0 * np.pi, out=got)
            assert (got.view(np.int64) == want.view(np.int64)).all(), f"numpy {np.__version__}"

    def test_dividing_the_parts_rounds_otherwise(self, rng):
        # so `parts /= counts` is no equal form of the scaling
        halves, counts = self._cases(rng)[0]
        divided = halves.copy()
        parts = divided.view(np.float64)
        parts /= counts[..., None, None]
        parts /= 2.0 * np.pi
        assert (divided != self._by_complex_division(halves, counts)).any()


def tuned_curves(x, m, ops, grid_size, n_splits, seed):
    """The estimates of `ops` from one `tuned_estimates` pass, with their
    grids (one array, shared) and their risks as one (ops, rows, G) array."""
    ests = tuned_estimates(x, m, ops, grid_size, n_splits, seed)
    assert all(est.grids is ests[0].grids for est in ests)
    return ests[0].grids, np.stack([est.risks for est in ests]), ests


def assert_curves_chose_lambdas(x, m, ops, grid_size, n_splits, seed):
    """The estimates' curves have the documented shapes, each tuned lambda
    is its row's argmin exactly, and each curve equals the one-frequency
    oracle on the row's grid bit for bit.  Returns (grids, risks,
    estimates)."""
    rows = x.n // 2 + 1
    grids, risks, ests = tuned_curves(x, m, ops, grid_size, n_splits, seed)
    width = grid_size if x.p > 1 else 1
    assert grids.shape == (rows, width) and risks.shape == (len(ops), rows, width)
    for o, (op, est) in enumerate(zip(ops, ests)):
        assert np.array_equal(est.lambdas, grids[np.arange(rows), risks[o].argmin(axis=1)])
        for j in range(rows):
            ref = select_threshold(x, j, m, grids[j], op, n_splits, seed)
            assert np.array_equal(risks[o, j], ref)
    return grids, risks, ests


class TestBatchedTuning:
    """Frequencies are tuned in blocks of 16 rows; each row's threshold
    must equal the one its own one-frequency split selects."""

    @pytest.mark.parametrize("n", [21, 30, 31, 41, 62])  # n//2+1 = 11, 16, 16, 21, 32 rows
    @pytest.mark.parametrize("p", [1, 2, 5])  # p = 2: both off-diagonal moduli equal, grid (lo,)
    @pytest.mark.parametrize("n_splits", [1, 3])
    # the estimator always keeps the diagonal; the one value keeps the test ids
    @pytest.mark.parametrize("preserve_diagonal", [True])
    def test_lambdas_equal_select_threshold(self, rng, n, p, n_splits, preserve_diagonal):
        x = TimeSeriesMatrix(rng.standard_normal((n, p)) @ rng.standard_normal((p, p)))
        periodograms = periodogram_all(x)
        grids, _, ests = assert_curves_chose_lambdas(x, 4, OPERATORS, 6, n_splits, 5)
        for j in range(n // 2 + 1):
            grid = lambda_grid(averaged_periodogram(x, 4, j, periodograms), 6)
            assert len(grid) == (6 if p > 2 else 1)
            # a one-point grid is repeated across the row
            assert np.array_equal(grids[j], np.resize(grid, grids.shape[1]))
            for op, est in zip(OPERATORS, ests):
                want = select_threshold(x, j, 4, grid, op, n_splits, 5)
                assert est.lambdas[j] == grid[int(np.argmin(want))]
                if p == 1:
                    assert est.lambdas[j] == 0.0
        if p == 1:
            assert not grids.any()

    @pytest.mark.parametrize("n, m, p", [
        (21, 10, 4),  # 2m+1 = n
        (33, 16, 3),  # 2m+1 = n across three blocks
        (40, 3, 2),
        (48, 4, 8),  # p >= 8: numpy's row sums of C's diagonal term could
        (64, 5, 48),  # depend on the block
    ])
    def test_curves_choose_the_tuned_lambdas(self, rng, n, m, p):
        x = TimeSeriesMatrix(rng.standard_normal((n, p)) @ rng.standard_normal((p, p)))
        assert_curves_chose_lambdas(x, m, OPERATORS, 7, 2, 3)

    @pytest.mark.parametrize("n, m, p, n_splits", [
        (n, 4, p, n_splits) for n in (21, 30, 31, 41, 62) for p in (1, 2, 5) for n_splits in (1, 2)
    ] + [(21, 10, 4, 2), (33, 16, 3, 2), (40, 3, 2, 2)])  # 2m+1 = n, p = 2
    def test_curves_equal_gathered_split_risks(self, rng, n, m, p, n_splits):
        x = TimeSeriesMatrix(rng.standard_normal((n, p)) @ rng.standard_normal((p, p)))
        self._assert_curves_equal_gathered(x, m, n_splits)

    @pytest.mark.parametrize("n_splits", [1, 2])
    def test_constant_channel_curves_equal_gathered_split_risks(self, rng, n_splits):
        data = rng.standard_normal((50, 4))
        data[:, 2] = -1.5  # exact zero entries after centering
        self._assert_curves_equal_gathered(TimeSeriesMatrix(data), 5, n_splits)

    @staticmethod
    def _assert_curves_equal_gathered(x, m, n_splits):
        # halves from the DFT rows and risks over the upper triangle move the
        # curves by roundoff only, and no tuned lambda
        grids, risks, _ = tuned_curves(x, m, OPERATORS, 6, n_splits, 5)
        want = gathered_split_risks(periodogram_all(x), x.n, range(x.n // 2 + 1), grids, m,
                                    n_splits, 5, OPERATORS)
        assert np.allclose(risks, want, rtol=1e-12, atol=0)
        assert np.array_equal(risks.argmin(axis=2), want.argmin(axis=2))

    def test_single_frequency_window_rejected(self, rng):
        x = TimeSeriesMatrix(rng.standard_normal((32, 3)))
        with pytest.raises(ParameterError, match="at least 2 frequencies"):
            tuned_estimates(x, 0, OPERATORS[:1])

    def test_curves_keep_no_estimate(self, monkeypatch, rng):
        # the curves add their own arrays to what the estimates hold, and no
        # copy of an estimate: each operator's risks and the one shared grid
        # array, plus the few Python objects that hold them.  The pass is
        # serial, so that what it leaves behind does not depend on a thread.
        monkeypatch.setattr(estimator, "_lookahead_depth", lambda ops, blocks: 0)
        n, p, grid_size = 400, 48, 20
        x = TimeSeriesMatrix(rng.standard_normal((n, p)))
        ops, rows = OPERATORS[:3], n // 2 + 1

        def held(run):
            run()  # a first call's one-off allocations are not the curves'
            tracemalloc.start()
            try:
                ests = run()
                return tracemalloc.get_traced_memory()[0], ests
            finally:
                tracemalloc.stop()

        plain, _ = held(lambda: _estimates(x, 20, ops, _split_rule(n, 20, grid_size, 1, 0)))
        with_curves, ests = held(lambda: tuned_estimates(x, 20, ops, grid_size))
        assert ests[0].grids.shape == (rows, grid_size)
        assert [est.risks.shape for est in ests] == [(rows, grid_size)] * 3
        assert with_curves - plain <= (len(ops) + 1) * rows * grid_size * 8 + 4096

    def test_constant_channel_curves(self, rng):
        data = rng.standard_normal((50, 4))
        data[:, 2] = -1.5  # exact zero entries after centering
        grids, risks, _ = assert_curves_chose_lambdas(TimeSeriesMatrix(data), 5, OPERATORS, 6, 1, 8)
        assert np.all(grids[:, 0] == 0.0) and np.all(np.isfinite(risks))

    def test_grid_rows_equal_default_lambda_grid(self, rng):
        x = TimeSeriesMatrix(rng.standard_normal((70, 4)) @ rng.standard_normal((4, 4)))
        half = tuned_estimates(x, 3, ["smoothed"])[0].half
        half[5] = np.full((4, 4), 0.25)  # one row with equal moduli: grid (0.25,)
        grids = _lambda_grids(half, 20)
        for row, f_hat in zip(grids, half):
            assert np.array_equal(row, np.resize(lambda_grid(f_hat, 20), 20))
        assert lambda_grid(half[5], 20) == (0.25,)

    @pytest.mark.parametrize("method", ["hard", "lasso", "alasso"])
    def test_repeated_grid_values_tune(self, method):
        # three channels 1 ulp apart: off-diagonal moduli a few ulps apart
        # give grids whose equispaced values round onto each other, which
        # tune like any grid, to the first value of least risk
        x0 = np.random.default_rng(0).standard_normal(64)
        x = TimeSeriesMatrix(np.column_stack([x0, x0 * (1 + 2.0**-52), x0 * (1 - 2.0**-52)]))
        est, = tuned_estimates(x, 4, [method], grid_size=20)
        steps = np.diff(est.grids, axis=1)
        assert (steps >= 0).all() and (steps == 0).any(axis=1).all()
        first = est.grids[np.arange(len(est.grids)), est.risks.argmin(axis=1)]
        assert np.array_equal(est.lambdas, first)


class TestTheoreticalThreshold:
    def test_white_noise_plug_in(self):
        val = theoretical_threshold(1 / (2 * np.pi), 0.0, 0.0, n=100, m=4, p=np.e, r_const=1.0)
        assert abs(val - 1 / (2 * np.pi)) < 1e-12

    def test_zero_everything(self):
        assert theoretical_threshold(1.0, 0.0, 0.0, n=100, m=4, p=2, r_const=0.0) == 0.0

    def test_monotone_in_each_input(self):
        base = dict(stability=0.5, omega_n=1.0, l_n=0.3, n=128, m=8, p=12, r_const=1.0)
        ref = theoretical_threshold(**base)
        for key in ("stability", "omega_n", "l_n", "r_const"):
            bumped = dict(base)
            bumped[key] = base[key] + 0.1
            assert theoretical_threshold(**bumped) > ref

    def test_rejects_bad_inputs(self):
        with pytest.raises(ParameterError):
            theoretical_threshold(-1.0, 0.0, 0.0, n=10, m=2, p=4)
        with pytest.raises(ParameterError):
            theoretical_threshold(1.0, 0.0, 0.0, n=10, m=0, p=4)


class TestDefaultSpan:
    def test_reference_values(self):
        assert default_span(100, "ma_like") == 10
        assert default_span(100, "ar_like") == 7

    def test_small_n_clamped(self):
        m = default_span(9, "ma_like")
        assert m >= 1 and 2 * m + 1 <= 9

    @pytest.mark.parametrize("family", ["ma_like", "ar_like"])
    def test_window_fits_every_n(self, family):
        # default_span returns its rule's value unclamped, so the rule itself must fit
        spans = np.array([default_span(n, family) for n in range(9, 10**5 + 1)])
        assert spans.min() >= 1
        assert np.all(2 * spans + 1 <= np.arange(9, 10**5 + 1))

    def test_rejects_tiny_or_unknown(self):
        with pytest.raises(ParameterError):
            default_span(8, "ma_like")
        with pytest.raises(ParameterError):
            default_span(100, "arma")
