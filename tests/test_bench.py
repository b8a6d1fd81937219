import csv
import io
import multiprocessing
import os
import tracemalloc

import numpy as np
import pytest
from conftest import between_components, coupled_models
from oracles import coherence_graph_loop, full_grid, rmise_loop, spectral_density, support_loop

from specthresh import (
    FourierGrid,
    NumericalError,
    ThresholdOperator,
    TimeSeriesMatrix,
    VarmaModel,
    block_varma_model,
    simulate,
    true_spectral_density,
)
from specthresh import (
    DataError,
    EvaluationReport,
    ParameterError,
    aggregate_coherence_graph,
    bench,
    default_span,
    estimator,
    replicate_summary,
    rmise,
    roc_points,
    support_scores,
    tuning,
)
from specthresh.bench import BenchmarkSpec, CellResult, run_benchmark, run_cell, truth_spectra
from specthresh.estimator import ALL_METHODS, THRESHOLD_METHODS
from specthresh.fileio import _fmt
from specthresh.metrics import RocCurve, _Truth
from specthresh.model import _components


def varma21(rng):
    p = 4
    ar1 = 0.3 * np.eye(p) + 0.05 * rng.standard_normal((p, p))
    ar2 = 0.1 * np.eye(p)
    ma1 = 0.4 * rng.standard_normal((p, p))
    chol = np.tril(0.3 * rng.standard_normal((p, p)), -1) + np.eye(p)
    return VarmaModel(dim=p, ar_coeffs=(ar1, ar2), ma_coeffs=(ma1,), noise_cov=chol @ chol.T)


def public_scores(spec, p, n, replicate, truth, support, m):
    """Oracle: the report and ROC curve of each method of one replicate of
    cell 0, from whole estimates and the public metrics."""
    seed = bench._replicate_seed(spec.seed, 0, replicate)
    x = bench.simulate(block_varma_model(p, spec.family), n, seed=seed)
    ests = tuning.tuned_estimates(x, m, spec.methods, spec.grid_size, spec.n_splits,
                                  int(seed.generate_state(1)[0]))
    out = {}
    for method, est in zip(spec.methods, ests, strict=True):
        roc = roc_points(aggregate_coherence_graph(est), support)
        report = EvaluationReport(method=method, rmise=rmise(est, truth), auc=roc.auc)
        if method in THRESHOLD_METHODS:
            scores = support_scores(est, truth, spec.include_diagonal)
            report.precision, report.recall, report.f1 = scores.precision, scores.recall, scores.f1
        out[method] = (report, roc)
    return out


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
        assert truth.shape == (n // 2 + 1, model.dim, model.dim)
        for j, f in enumerate(truth):
            want = spectral_density(model, grid.frequency(j))
            assert np.linalg.norm(f - want) <= 1e-12 * np.linalg.norm(want)
            assert np.array_equal(f == 0, want == 0)

    @pytest.mark.parametrize("n", [33, 40])
    def test_negative_rows_are_conjugates(self, rng, n):
        # f(omega_{-j}) = conj f(omega_j): the rows j >= 0 hold all of F_n
        model = varma21(rng)
        truth = truth_spectra(model, n)
        for j in range(1, (n - 1) // 2 + 1):
            want = spectral_density(model, -2.0 * np.pi * j / n)
            assert np.linalg.norm(truth[j].conj() - want) <= 1e-12 * np.linalg.norm(want)

    def test_near_singular_ar_polynomial(self):
        with pytest.raises(NumericalError, match="nearly singular at omega=0.0"):
            truth_spectra(NEAR_SINGULAR, 32)

    def test_near_singular_guard_spans_components(self):
        # two 1 x 1 components of cond 1 each: only the ratio of the largest
        # singular value of one to the smallest of the other, 5e12, trips it
        assert [c.tolist() for c in _components(NEAR_SINGULAR)] == [[[0], [1]]]
        messages = []
        for call in (lambda: true_spectral_density(NEAR_SINGULAR, 0.0),
                     lambda: truth_spectra(NEAR_SINGULAR, 32),
                     lambda: spectral_density(NEAR_SINGULAR, 0.0)):
            with pytest.raises(NumericalError) as err:
                call()
            messages.append(str(err.value))
        assert messages == ["AR polynomial nearly singular at omega=0.0"] * 3

    @pytest.mark.parametrize("name", list(coupled_models()))
    @pytest.mark.parametrize("n", [33, 40])
    def test_components_match_oracle_with_exact_zeros_between(self, name, n):
        model, comps = coupled_models()[name]
        truth = truth_spectra(model, n)
        for j, f in enumerate(truth):
            want = spectral_density(model, 2.0 * np.pi * j / n)
            assert np.linalg.norm(f - want) <= 1e-12 * np.linalg.norm(want)
        between = between_components(model.dim, comps)
        assert np.all(truth[:, between] == 0)
        assert np.all(truth[:, ~between].any(axis=0))


class TestRunCell:
    def test_pool_matches_serial(self):
        for family in ("vma", "var"):
            spec = BenchmarkSpec(
                family=family, p_list=(6,), n_list=(64,),
                methods=("smoothed", "shrinkage", "lasso"), replicates=2, seed=5, grid_size=5,
            )
            serial = run_cell(spec, 0, 6, 64, jobs=1)
            pooled = run_cell(spec, 0, 6, 64, jobs=2)
            assert pooled.m == serial.m
            for method in spec.methods:
                assert pooled.summaries[method] == serial.summaries[method]
                for got, want in zip(pooled.rocs[method], serial.rocs[method], strict=True):
                    assert np.array_equal(got.points, want.points)
                    assert got.auc == want.auc

    def test_one_pool_of_at_most_one_worker_per_replicate(self, monkeypatch):
        pools = []

        class Recording(bench.ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(bench, "ProcessPoolExecutor", Recording)
        spec = BenchmarkSpec(family="var", p_list=(6,), n_list=(32,), methods=("smoothed",),
                             replicates=2, seed=1)
        pooled = run_cell(spec, 0, 6, 32, jobs=8)
        assert pools == [2]
        assert multiprocessing.active_children() == []
        assert pooled.summaries == run_cell(spec, 0, 6, 32, jobs=1).summaries

    def test_truth_scored_once_per_cell(self, monkeypatch):
        # run_cell makes the truth-only scores before its replicates run;
        # pool workers inherit them
        parent, made = os.getpid(), []

        class Counted(bench._Truth):
            def __init__(self, *args):
                assert os.getpid() == parent, "truth scored in a worker"
                made.append(args[1:])
                super().__init__(*args)

        monkeypatch.setattr(bench, "_Truth", Counted)
        spec = BenchmarkSpec(family="var", p_list=(6,), n_list=(32,), methods=ALL_METHODS,
                             replicates=3, seed=1, grid_size=5, include_diagonal=False)
        for jobs in (1, 2):
            run_cell(spec, 0, 6, 32, jobs=jobs)
        baselines = BenchmarkSpec(family="var", p_list=(6,), n_list=(32,),
                                  methods=("smoothed", "shrinkage"), replicates=2)
        run_cell(baselines, 0, 6, 32)
        assert made == [(32, False, True)] * 2 + [(32, True, False)]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_constant_channel_logs_the_coherence_error(self, monkeypatch, tmp_path, jobs):
        def constant_channel(model, n, seed):
            data = simulate(model, n, seed=seed).data.copy()
            data[:, 2] = 0.7
            return TimeSeriesMatrix(data)

        monkeypatch.setattr(bench, "simulate", constant_channel)
        spec = BenchmarkSpec(family="vma", p_list=(6,), n_list=(40,), methods=("lasso", "smoothed"),
                             replicates=2, seed=2, grid_size=6)
        log = io.StringIO()
        assert run_benchmark(spec, tmp_path, jobs=jobs, log=log) == []
        seed = bench._replicate_seed(2, 0, 0)
        est, = tuning.tuned_estimates(constant_channel(block_varma_model(6, "vma"), 40, seed), 6,
                                      [ThresholdOperator("lasso")], 6, 1,
                                      int(seed.generate_state(1)[0]))
        with pytest.raises(DataError, match="degenerate channel 2") as err:
            aggregate_coherence_graph(est)
        assert log.getvalue() == f"cell (p=6, n=40) failed: {err.value}\n"

    def test_pooled_truth_failure_matches_serial(self, monkeypatch):
        monkeypatch.setattr(bench, "block_varma_model", lambda p, family: NEAR_SINGULAR)
        spec = BenchmarkSpec(family="var", p_list=(3,), n_list=(32,), methods=("smoothed",))
        errors = []
        for jobs in (1, 2):
            with pytest.raises(NumericalError, match="nearly singular at omega=0.0") as err:
                run_cell(spec, 0, 2, 32, jobs=jobs)
            errors.append(str(err.value))
            assert multiprocessing.active_children() == []
        assert errors[0] == errors[1]


def full_grid_support(truth, n):
    """Oracle: the support over every frequency of both halves."""
    truth = full_grid(truth, n)
    peak = max(float(np.max(np.abs(truth[j]))) for j in truth)
    support = np.zeros(truth[0].shape, dtype=bool)
    for j in truth:
        support |= np.abs(truth[j]) > 1e-12 * peak
    np.fill_diagonal(support, False)
    return support


class TestRocCsv:
    def test_bytes_match_csv_writer(self, tmp_path):
        # values repeated within and across curves, 0.0 and -0.0, an empty curve
        curves = [
            RocCurve(np.array([(0.0, 0.0), (0.1, 1 / 3), (1 / 3, 1 / 3), (1.0, 1.0)]), 0.8),
            RocCurve(np.empty((0, 2)), 0.5),
            RocCurve(np.array([(-0.0, 0.0), (0.1, 2 / 3), (1.0, 1.0)]), 0.9),
        ]
        bench._write_roc_csv(CellResult(3, 16, 2, {}, {"lasso": curves}), "lasso", tmp_path)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["replicate", "fpr", "tpr"])
        for r, curve in enumerate(curves):
            for fpr, tpr in curve.points:
                writer.writerow([r, _fmt(fpr), _fmt(tpr)])
        assert (tmp_path / "roc_p3_n16_lasso.csv").read_bytes() == buf.getvalue().encode()


class TestTruthGraphSupport:
    @pytest.mark.parametrize("family", ["var", "vma", "varma21"])
    @pytest.mark.parametrize("n", [33, 40])
    def test_equals_full_grid_support(self, rng, family, n):
        model = varma21(rng) if family == "varma21" else block_varma_model(9, family)
        truth = truth_spectra(model, n)
        got = _Truth(truth, n).graph
        assert np.array_equal(got, full_grid_support(truth, n))
        assert got.any()

    @pytest.mark.parametrize("n", [9, 10])
    def test_edges_seen_at_single_frequencies(self, n):
        # edges (0, 1), (2, 3) and (4, 5) are nonzero only at j = 0,
        # j = +-1 and j = floor(n/2)
        half = np.zeros((n // 2 + 1, 6, 6), dtype=complex)
        half[:, range(6), range(6)] = 1.0
        half[0, 0, 1] = half[0, 1, 0] = 0.5
        half[1, 2, 3] = 0.3j
        half[1, 3, 2] = -0.3j
        half[n // 2, 4, 5] = half[n // 2, 5, 4] = 0.2
        got = _Truth(half, n).graph
        assert np.array_equal(got, full_grid_support(half, n))
        assert sorted(zip(*np.nonzero(np.triu(got)))) == [(0, 1), (2, 3), (4, 5)]


class TestHalfSpectrumScoring:
    """The metrics score the j >= 0 rows with conjugate-symmetry weights; the
    results must equal the metrics over all of F_n, one frequency at a time."""

    @pytest.mark.parametrize("family", ["var", "vma", "varma21"])
    @pytest.mark.parametrize("n", [33, 40])  # even n: j = n/2 has weight 1
    def test_equal_full_grid_metrics(self, rng, family, n):
        model = varma21(rng) if family == "varma21" else block_varma_model(6, family)
        truth = truth_spectra(model, n)
        est, = tuning.tuned_estimates(simulate(model, n, seed=4), 4, [ThresholdOperator("lasso")])

        want = rmise_loop(est, truth)
        assert abs(rmise(est, truth) - want) <= 1e-12 * want
        want = coherence_graph_loop(est)
        got = aggregate_coherence_graph(est)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)
        for include_diagonal in (True, False):
            got = support_scores(est, truth, include_diagonal=include_diagonal)
            want = support_loop(est, truth, include_diagonal)
            assert np.allclose([got.precision, got.recall, got.f1], want, rtol=1e-12, atol=0)

    def test_replicate_scores_equal_public_metrics(self, monkeypatch):
        # every method, with and without the diagonal pairs.  p = 96 and 192
        # hand out blocks of 7 and 1 rows, in pass blocks of 14 and 16 rows;
        # n = 32 and 33 end in a one-row block; the widest span has 2m+1 = n
        # (n odd) or n-1
        for p, n, widest in [(6, 40, False), (6, 33, True), (96, 32, False), (96, 33, True),
                             (192, 32, True), (192, 33, False)]:
            span = (lambda n, rule: (n - 1) // 2) if widest else default_span
            monkeypatch.setattr(bench, "default_span", span)
            model = block_varma_model(p, "vma")
            truth = truth_spectra(model, n)
            support = full_grid_support(truth, n)
            for include_diagonal in (True, False):
                spec = BenchmarkSpec(family="vma", p_list=(p,), n_list=(n,), methods=ALL_METHODS,
                                     replicates=1, seed=2, grid_size=6,
                                     include_diagonal=include_diagonal)
                got = bench.run_replicate(spec, 0, p, n, 0,
                                          _Truth(truth, n, include_diagonal, support=True))
                want = public_scores(spec, p, n, 0, truth, support, span(n, "ma_like"))
                assert list(got) == list(want) == list(ALL_METHODS)
                for method, (report, roc) in want.items():
                    assert got[method]["report"] == report
                    assert np.array_equal(got[method]["roc"].points, roc.points)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cell_scores_equal_public_metrics(self, jobs):
        p, n = 96, 33
        spec = BenchmarkSpec(family="var", p_list=(p,), n_list=(n,), methods=ALL_METHODS,
                             replicates=2, seed=4, grid_size=5, include_diagonal=False)
        truth = truth_spectra(block_varma_model(p, "var"), n)
        support = full_grid_support(truth, n)
        cell = run_cell(spec, 0, p, n, jobs=jobs)
        want = [public_scores(spec, p, n, r, truth, support, cell.m) for r in range(2)]
        for method in ALL_METHODS:
            assert cell.summaries[method] == replicate_summary([w[method][0] for w in want])
            for got, (_, roc) in zip(cell.rocs[method], [w[method] for w in want], strict=True):
                assert np.array_equal(got.points, roc.points)

    def test_replicate_holds_no_whole_estimate(self):
        # at p = 96, n = 200 one estimate takes 14.9 MB and the pass's buffer
        # of 16+2m periodograms 6.5 MB; the two estimates are never built
        p, n = 96, 200
        spec = BenchmarkSpec(family="vma", p_list=(p,), n_list=(n,),
                             methods=("smoothed", "shrinkage"), replicates=1)
        truth = _Truth(truth_spectra(block_varma_model(p, "vma"), n), n, spec.include_diagonal)
        tracemalloc.start()
        try:
            bench.run_replicate(spec, 0, p, n, 0, truth)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < truth.half.nbytes + (16 + 2 * default_span(n, "ma_like")) * p * p * 16


class TestBenchmarkSpec:
    @pytest.mark.parametrize("p", [1, 4, 0])
    def test_p_not_a_multiple_of_three_rejected(self, p):
        with pytest.raises(ParameterError, match="multiple of 3"):
            BenchmarkSpec(family="var", p_list=(6, p), n_list=(16,), methods=("smoothed",))

    def test_repeated_and_aliased_methods_collapse(self, tmp_path):
        # each method's rows and ROC file are written once
        for name, methods in [("listed", ["lasso", "alasso", "adaptive_lasso", "lasso"]),
                              ("once", ["lasso", "adaptive_lasso"])]:
            spec = BenchmarkSpec(family="vma", p_list=(6,), n_list=(40,), methods=methods,
                                 replicates=2, grid_size=5)
            run_benchmark(spec, tmp_path / name)
        listed, once = tmp_path / "listed", tmp_path / "once"
        files = sorted(path.name for path in once.iterdir())
        assert sorted(path.name for path in listed.iterdir()) == files
        for name in files:
            assert (listed / name).read_bytes() == (once / name).read_bytes()

    def test_span_rule_checked_without_any_n(self):
        # the rule is checked on its own, not only on each listed n
        with pytest.raises(ParameterError, match="unknown span rule 'bogus'"):
            BenchmarkSpec(family="vma", p_list=(6,), n_list=(), methods=("smoothed",),
                          span_rule="bogus")


class TestEstimateMethods:
    @pytest.mark.parametrize("n", [41, 48])
    @pytest.mark.parametrize("n_splits", [1, 3])
    def test_equals_separate_estimates(self, n, n_splits):
        x = simulate(block_varma_model(6, "vma"), n, seed=n)
        got = tuning.tuned_estimates(x, 4, ALL_METHODS, 8, n_splits, 3)
        want = [*tuning.tuned_estimates(x, 4, ["smoothed"]),
                *tuning.tuned_estimates(x, 4, ["shrinkage"])]
        for name in ("hard", "lasso", "adaptive_lasso"):
            want += tuning.tuned_estimates(
                x, 4, [ThresholdOperator(name)], grid_size=8, n_splits=n_splits, seed=3
            )
        assert [est.method for est in got] == list(ALL_METHODS)
        for est, ref in zip(got, want, strict=True):
            assert (est.method, est.m, est.eta) == (ref.method, ref.m, ref.eta)
            assert (est.lambdas is None) == (ref.lambdas is None)
            if ref.lambdas is not None:
                assert np.array_equal(est.lambdas, ref.lambdas)
            assert np.array_equal(est.half, ref.half)

    def test_aliases_and_order(self):
        # a spec lists each canonical method once, in the order first listed,
        # and a replicate reports them in that order
        spec = BenchmarkSpec(family="vma", p_list=(3,), n_list=(40,), grid_size=5,
                             methods=["alasso", "smoothed", "adaptive_lasso", "alasso"])
        assert spec.methods == ("adaptive_lasso", "smoothed")
        got = bench.run_replicate(spec, 0, 3, 40, 0, _Truth(truth_spectra(
            block_varma_model(3, "vma"), 40), 40, spec.include_diagonal, support=True))
        assert list(got) == ["adaptive_lasso", "smoothed"]
        assert got["adaptive_lasso"]["report"].method == "adaptive_lasso"

    def test_baselines_skip_tuning(self, rng, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("tuning pass run")

        x = TimeSeriesMatrix(rng.standard_normal((40, 3)))
        monkeypatch.setattr(tuning, "_split_risks", refuse)
        got = tuning.tuned_estimates(x, 3, ["smoothed", "shrinkage"])
        assert [est.method for est in got] == ["smoothed", "shrinkage"]
        with pytest.raises(AssertionError, match="tuning pass run"):
            tuning.tuned_estimates(x, 3, ["smoothed", ThresholdOperator("lasso")])

    def test_one_periodogram_pass(self, rng, monkeypatch):
        # each walk position i = 0..n//2+2m, I(w_{i-m}), is formed once, from
        # the walk's DFT rows in order
        rows = []
        real = estimator._periodograms

        def counted(wanted):
            rows.append(wanted.copy())
            return real(wanted)

        monkeypatch.setattr(estimator, "_periodograms", counted)
        n, m = 40, 3
        x = TimeSeriesMatrix(rng.standard_normal((n, 3)))
        tuning.tuned_estimates(x, m, ALL_METHODS, grid_size=6)
        walk = estimator._dft(x, m)
        assert walk.shape == (n // 2 + 1 + 2 * m, 3)
        assert np.array_equal(np.concatenate(rows), walk)

    def test_estimates_do_not_share_storage(self, rng):
        x = TimeSeriesMatrix(rng.standard_normal((40, 3)))
        got = tuning.tuned_estimates(x, 3, ALL_METHODS, grid_size=6)
        arrays = [est.half for est in got]
        arrays += [est.lambdas for est in got if est.lambdas is not None]
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)

    def test_baseline_halves_do_not_share_storage(self, rng):
        x = TimeSeriesMatrix(rng.standard_normal((40, 3)))
        smoothed, shrinkage = tuning.tuned_estimates(x, 3, ["smoothed", "shrinkage"])
        ref, = tuning.tuned_estimates(x, 3, ["smoothed"])
        shrinkage.half[2][...] = 0.0
        assert np.array_equal(smoothed.half[2], ref.half[2])
