import csv
import json

import numpy as np
import pytest
from oracles import periodogram_all

from specthresh import (
    FourierGrid,
    SpectralEstimate,
    ThresholdOperator,
    threshold_estimate,
    tuned_estimates,
)
from specthresh import bench as bench_mod
from specthresh.bench import truth_spectra
from specthresh.errors import NumericalError
from specthresh.cli import main
from specthresh.fileio import read_estimate, read_series, write_estimate, write_model, write_series
from specthresh.model import TimeSeriesMatrix, VarmaModel, block_varma_model, simulate


@pytest.fixture
def vma_model_file(tmp_path):
    path = tmp_path / "model.json"
    write_model(block_varma_model(3, "vma"), path)
    return path


def run(*argv):
    return main([str(a) for a in argv])


class TestSimulate:
    def test_writes_series(self, tmp_path, vma_model_file):
        out = tmp_path / "series.csv"
        code = run("simulate", "--model", vma_model_file, "--n", 64, "--seed", 1, "--out", out)
        assert code == 0
        x = read_series(out)
        assert (x.n, x.p) == (64, 3)

    def test_unstable_model_exits_with_message(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"p": 1, "ar": [[[1.2]]], "ma": []}))
        out = tmp_path / "series.csv"
        code = run("simulate", "--model", path, "--n", 32, "--out", out)
        assert code == 3
        assert "unstable: spectral radius >= 1" in capsys.readouterr().err

    def test_fixed_seed_identical_bytes(self, tmp_path, vma_model_file):
        o1, o2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        run("simulate", "--model", vma_model_file, "--n", 64, "--seed", 9, "--out", o1)
        run("simulate", "--model", vma_model_file, "--n", 64, "--seed", 9, "--out", o2)
        assert o1.read_bytes() == o2.read_bytes()

    def test_negative_seed_usage_error(self, tmp_path, vma_model_file, capsys):
        with pytest.raises(SystemExit) as err:
            run("simulate", "--model", vma_model_file, "--n", 16, "--seed", -1,
                "--out", tmp_path / "s.csv")
        assert err.value.code == 2
        assert "--seed: must be at least 0" in capsys.readouterr().err

    def test_missing_model_file(self, tmp_path):
        code = run("simulate", "--model", tmp_path / "none.json", "--n", 32, "--out", tmp_path / "o")
        assert code == 3

    @pytest.mark.parametrize("obj", [
        [{"p": 1, "ma": []}],
        {"p": 1, "noise": []},
        {"p": 1, "ma": [[["a"]]]},
        {"p": 2.9},
        {"p": True},
        {"p": 1, "ma": [[[True]]]},
        {"p": 1, "noise": {"cov": [[True]]}},
        {"p": 1, "noise": {"df": True}},
        {"p": 1, "ar": [[["0.5"]]]},
        {"p": 1, "ma": [[["0.5"]]]},
        {"p": 1, "noise": {"cov": [["2"]]}},
        {"p": 1, "noise": {"family": "student_t", "df": "7"}},
    ], ids=["top-level-list", "noise-list", "coefficient-string", "p-float", "p-bool",
            "coefficient-bool", "cov-bool", "df-bool", "ar-number-string", "ma-number-string",
            "cov-number-string", "df-number-string"])
    def test_malformed_model_exits_data(self, tmp_path, capsys, obj):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        out = tmp_path / "s.csv"
        code = run("simulate", "--model", path, "--n", 32, "--out", out)
        assert code == 3
        err = capsys.readouterr().err
        assert "bad model specification" in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("noise, field", [
        ({"family": "student_t", "df": float("nan")}, "noise_df"),
        ({"family": "student_t", "df": float("inf")}, "noise_df"),
        ({"cov": [[1.0, 0.0], [0.0, float("inf")]]}, "noise_cov"),
    ], ids=["df-nan", "df-inf", "cov-inf"])
    def test_non_finite_noise_exits_data(self, tmp_path, capsys, noise, field):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"p": 2, "noise": noise}))
        out = tmp_path / "s.csv"
        code = run("simulate", "--model", path, "--n", 32, "--out", out)
        assert code == 3
        assert field in capsys.readouterr().err
        assert not out.exists()


class TestEstimate:
    @pytest.fixture
    def series_file(self, tmp_path, vma_model_file):
        path = tmp_path / "series.csv"
        run("simulate", "--model", vma_model_file, "--n", 64, "--seed", 2, "--out", path)
        return path

    def test_smoothed_m0_is_raw_periodogram(self, tmp_path, series_file):
        out = tmp_path / "est.json"
        code = run("estimate", "--series", series_file, "--method", "smoothed", "--m", 0, "--out", out)
        assert code == 0
        est = read_estimate(out)
        stack = periodogram_all(read_series(series_file)) / (2 * np.pi)
        grid = FourierGrid(est.n)
        for pos, j in enumerate(grid.indices):
            got = est.half[j] if j >= 0 else est.half[-j].conj()
            assert np.allclose(got, stack[pos], atol=1e-12)

    def test_lasso_zero_lambda_equals_smoothed(self, tmp_path, series_file):
        e1, e2 = tmp_path / "lasso.json", tmp_path / "smooth.json"
        run("estimate", "--series", series_file, "--method", "lasso", "--m", 4,
            "--lambda", 0, "--out", e1)
        run("estimate", "--series", series_file, "--method", "smoothed", "--m", 4, "--out", e2)
        lasso, smooth = read_estimate(e1), read_estimate(e2)
        assert np.allclose(lasso.half, smooth.half, atol=1e-14)

    def test_alasso_sparser_than_smoothed(self, tmp_path):
        model_path = tmp_path / "big.json"
        write_model(block_varma_model(12, "vma"), model_path)
        series = tmp_path / "series.csv"
        run("simulate", "--model", model_path, "--n", 200, "--seed", 3, "--out", series)
        e1, e2 = tmp_path / "alasso.json", tmp_path / "smooth.json"
        assert run("estimate", "--series", series, "--method", "alasso", "--out", e1) == 0
        assert run("estimate", "--series", series, "--method", "smoothed", "--out", e2) == 0

        def zeros(path):
            est = read_estimate(path)
            mask = ~np.eye(est.p, dtype=bool)
            return int(np.sum(est.half[:, mask] == 0))

        assert zeros(e1) > zeros(e2)

    def test_huge_lambda_zeroes_every_off_diagonal(self, tmp_path, series_file):
        # 1e300^(eta+1) overflows a float; the adaptive lasso takes it as inf
        for method in ("hard", "lasso", "alasso"):
            out = tmp_path / f"{method}.json"
            assert run("estimate", "--series", series_file, "--method", method, "--m", 4,
                       "--lambda", "1e300", "--out", out) == 0
            est = read_estimate(out)
            assert not est.half[:, ~np.eye(est.p, dtype=bool)].any()
            assert est.half[:, range(est.p), range(est.p)].all()

    def test_nan_lambda_rejected(self, tmp_path, series_file, capsys):
        code = run("estimate", "--series", series_file, "--method", "hard", "--m", 4,
                   "--lambda", "nan", "--out", tmp_path / "o.json")
        assert code == 3
        assert "NaN" in capsys.readouterr().err
        assert not (tmp_path / "o.json").exists()

    def test_infinite_lambda_rejected(self, tmp_path, series_file, capsys):
        # the estimate reader rejects an infinite threshold, so none is written
        code = run("estimate", "--series", series_file, "--method", "hard", "--m", 4,
                   "--lambda", "inf", "--out", tmp_path / "o.json")
        assert code == 3
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "o.json").exists()

    def test_negative_seed_usage_error(self, tmp_path, series_file, capsys):
        with pytest.raises(SystemExit) as err:
            run("estimate", "--series", series_file, "--method", "lasso", "--seed", -1,
                "--out", tmp_path / "o.json")
        assert err.value.code == 2
        assert "--seed: must be at least 0" in capsys.readouterr().err

    def test_single_channel_tuned_equals_smoothed(self, tmp_path, rng):
        series = tmp_path / "one.csv"
        write_series(TimeSeriesMatrix(rng.standard_normal((64, 1))), series)
        e1, e2 = tmp_path / "lasso.json", tmp_path / "smooth.json"
        assert run("estimate", "--series", series, "--method", "lasso", "--out", e1) == 0
        assert run("estimate", "--series", series, "--method", "smoothed", "--out", e2) == 0
        lasso, smooth = read_estimate(e1), read_estimate(e2)
        assert lasso.p == 1
        assert np.array_equal(lasso.half, smooth.half)

    def test_tuned_lasso_writes_tuned_estimate_bytes(self, tmp_path, series_file):
        out, ref = tmp_path / "lasso.json", tmp_path / "ref.json"
        assert run("estimate", "--series", series_file, "--method", "lasso", "--m", 4,
                   "--grid-size", 7, "--n-splits", 2, "--seed", 5, "--out", out) == 0
        est, = tuned_estimates(read_series(series_file), 4, [ThresholdOperator("lasso")],
                               grid_size=7, n_splits=2, seed=5)
        write_estimate(est, ref)
        assert out.read_bytes() == ref.read_bytes()

    def test_oversized_span_rejected(self, tmp_path, series_file, capsys):
        code = run("estimate", "--series", series_file, "--method", "smoothed", "--m", 40,
                   "--out", tmp_path / "o.json")
        assert code == 3
        assert capsys.readouterr().err == "error: invalid half-span m=40 for n=64\n"

    @pytest.mark.parametrize("method", ["hard", "lasso", "alasso"])
    def test_channels_one_ulp_apart_tune(self, tmp_path, method):
        # off-diagonal moduli a few ulps apart give lambda grids whose values
        # repeat; such grids tune like any other
        x0 = np.random.default_rng(0).standard_normal(64)
        data = np.column_stack([x0, x0 * (1 + 2.0**-52), x0 * (1 - 2.0**-52)])
        series, out, ref = tmp_path / "series.csv", tmp_path / "o.json", tmp_path / "ref.json"
        write_series(TimeSeriesMatrix(data), series)
        assert np.array_equal(read_series(series).data, data)
        assert run("estimate", "--series", series, "--method", method, "--m", 4, "--out", out) == 0
        write_estimate(tuned_estimates(read_series(series), 4, [method])[0], ref)
        assert out.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("method", ["smoothed", "shrinkage"])
    def test_lambda_with_baseline_method_usage_error(self, tmp_path, capsys, method):
        # the series file does not exist: reading it would exit 3, not 2
        out = tmp_path / "o.json"
        with pytest.raises(SystemExit) as err:
            run("estimate", "--series", tmp_path / "none.csv", "--method", method,
                "--lambda", 0, "--out", out)
        assert err.value.code == 2
        assert f"--lambda applies only to hard, lasso and alasso, not to {method}" \
            in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("scale, method", [
        (1e80, "shrinkage"), (1e154, "smoothed"), (1e154, "lasso"), (1e78, "hard"),
        (1e78, "lasso"), (1e40, "alasso"), (1e-40, "alasso"),
    ])
    def test_badly_scaled_series_exits_numerical(self, tmp_path, capsys, scale, method):
        # the window averages, shrinkage weights or split risks overflow
        series = tmp_path / "series.csv"
        x = simulate(block_varma_model(6, "vma"), 64, seed=1)
        write_series(TimeSeriesMatrix(scale * x.data), series)
        out = tmp_path / "o.json"
        code = run("estimate", "--series", series, "--method", method, "--m", 8, "--out", out)
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("fixed", [[], ["--lambda", "0.05"]], ids=["tuned", "fixed"])
    def test_adaptive_lasso_writes_alasso_bytes(self, tmp_path, series_file, fixed):
        # the name an estimate file records is a method the CLI takes
        paths = [tmp_path / f"{name}.json" for name in ("adaptive_lasso", "alasso")]
        for path in paths:
            assert run("estimate", "--series", series_file, "--method", path.stem, "--m", 4,
                       "--out", path, *fixed) == 0
        assert read_estimate(paths[0]).method == "adaptive_lasso"
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_usage_error_exit_code(self, tmp_path, series_file):
        with pytest.raises(SystemExit) as err:
            run("estimate", "--series", series_file, "--method", "ridge", "--out", tmp_path / "o")
        assert err.value.code == 2


class TestIntegerRanges:
    # the input files do not exist: reading one would exit 3, not 2
    @pytest.mark.parametrize("command, option, value, low", [
        ("simulate", "--n", 1, 2),
        ("simulate", "--burn-in", -1, 0),
        ("estimate", "--m", -1, 0),
        ("estimate", "--grid-size", 0, 1),
        ("estimate", "--n-splits", 0, 1),
    ])
    def test_out_of_range_usage_error(self, tmp_path, capsys, command, option, value, low):
        out = tmp_path / "out"
        required = {"simulate": {"--model": tmp_path / "none.json", "--n": 16},
                    "estimate": {"--series": tmp_path / "none.csv", "--method": "lasso"}}[command]
        options = {**required, option: value, "--out": out}
        with pytest.raises(SystemExit) as err:
            run(command, *(arg for pair in options.items() for arg in pair))
        assert err.value.code == 2
        assert f"{option}: must be at least {low}, got {value}" in capsys.readouterr().err
        assert not out.exists()


class TestEvaluate:
    def test_truth_estimate_scores_zero(self, tmp_path, vma_model_file):
        model = block_varma_model(3, "vma")
        n = 32
        truth = truth_spectra(model, n)
        est = SpectralEstimate(n=n, p=3, m=0, method="smoothed", half=truth)
        est_path = tmp_path / "truth_est.json"
        write_estimate(est, est_path)
        out = tmp_path / "report.csv"
        code = run("evaluate", "--model", vma_model_file, "--out", out, est_path)
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        rmise_row = next(r for r in rows if r["metric"] == "rmise")
        assert float(rmise_row["mean"]) < 1e-20

    def test_two_estimates_two_method_rows(self, tmp_path, vma_model_file):
        series = tmp_path / "series.csv"
        run("simulate", "--model", vma_model_file, "--n", 64, "--seed", 4, "--out", series)
        e1, e2 = tmp_path / "sm.json", tmp_path / "la.json"
        run("estimate", "--series", series, "--method", "smoothed", "--m", 4, "--out", e1)
        run("estimate", "--series", series, "--method", "lasso", "--m", 4, "--out", e2)
        out = tmp_path / "report.csv"
        assert run("evaluate", "--model", vma_model_file, "--out", out, e1, e2) == 0
        with open(out, newline="") as fh:
            methods = {r["method"] for r in csv.DictReader(fh)}
        assert methods == {"smoothed", "lasso"}

    def test_truth_computed_once_per_n(self, tmp_path, vma_model_file, monkeypatch):
        series = tmp_path / "series.csv"
        run("simulate", "--model", vma_model_file, "--n", 64, "--seed", 4, "--out", series)
        e1, e2 = tmp_path / "sm.json", tmp_path / "la.json"
        run("estimate", "--series", series, "--method", "smoothed", "--m", 4, "--out", e1)
        run("estimate", "--series", series, "--method", "lasso", "--m", 4, "--out", e2)
        singles = []
        for est in (e1, e2):
            out = tmp_path / f"{est.stem}.csv"
            assert run("evaluate", "--model", vma_model_file, "--out", out, est) == 0
            singles.append(out.read_text().splitlines(keepends=True))
        calls = []
        real = bench_mod.truth_spectra

        def counted(*args):
            calls.append(args[1])
            return real(*args)

        monkeypatch.setattr(bench_mod, "truth_spectra", counted)
        out = tmp_path / "both.csv"
        assert run("evaluate", "--model", vma_model_file, "--out", out, e1, e2) == 0
        assert calls == [64]
        # the shared truth leaves each file's rows as its own evaluation writes them
        assert out.read_text() == "".join(singles[0] + singles[1][1:])

    def test_model_of_another_p_exits_data(self, tmp_path, capsys):
        model_path = tmp_path / "p6.json"
        write_model(block_varma_model(6, "vma"), model_path)
        n = 16
        half = np.tile(np.eye(3, dtype=complex), (n // 2 + 1, 1, 1))
        est_path = tmp_path / "est.json"
        write_estimate(SpectralEstimate(n=n, p=3, m=0, method="smoothed", half=half), est_path)
        code = run("evaluate", "--model", model_path, "--out", tmp_path / "r.csv", est_path)
        assert code == 3
        assert "estimate has p = 3, model has p = 6" in capsys.readouterr().err

    def test_non_finite_noise_cov_exits_data(self, tmp_path, capsys, vma_model_file):
        obj = json.loads(vma_model_file.read_text())
        obj["noise"]["cov"][1][1] = float("inf")
        model_path = tmp_path / "inf.json"
        model_path.write_text(json.dumps(obj))
        n = 16
        half = np.tile(np.eye(3, dtype=complex), (n // 2 + 1, 1, 1))
        est_path = tmp_path / "est.json"
        write_estimate(SpectralEstimate(n=n, p=3, m=0, method="smoothed", half=half), est_path)
        out = tmp_path / "r.csv"
        code = run("evaluate", "--model", model_path, "--out", out, est_path)
        assert code == 3
        assert "noise_cov contains non-finite entries" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_model_file(self, tmp_path):
        code = run("evaluate", "--model", tmp_path / "none.json", "--out", tmp_path / "o",
                   tmp_path / "est.json")
        assert code == 3

    def test_near_singular_model_exits_numerical(self, tmp_path, capsys):
        # stable, but cond(A(1)) is about 5e12 at omega = 0
        model = VarmaModel(dim=2, ar_coeffs=(np.diag([1.0 - 1e-13, 0.5]),))
        model_path = tmp_path / "near.json"
        write_model(model, model_path)
        n = 16
        half = np.tile(np.eye(2, dtype=complex), (n // 2 + 1, 1, 1))
        est_path = tmp_path / "est.json"
        write_estimate(SpectralEstimate(n=n, p=2, m=0, method="smoothed", half=half), est_path)
        code = run("evaluate", "--model", model_path, "--out", tmp_path / "r.csv", est_path)
        assert code == 4
        assert "nearly singular" in capsys.readouterr().err


class TestBench:
    def _spec(self, tmp_path, **overrides):
        obj = {
            "family": "vma",
            "p": [6],
            "n": [64],
            "methods": ["smoothed", "lasso"],
            "replicates": 3,
            "seed": 7,
        }
        obj.update(overrides)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(obj))
        return path

    def test_lasso_beats_smoothed_in_table(self, tmp_path):
        spec = self._spec(tmp_path)
        out = tmp_path / "bench"
        assert run("bench", "--spec", spec, "--out", out) == 0
        with open(out / "rmise.csv", newline="") as fh:
            rows = {r["method"]: float(r["mean"]) for r in csv.DictReader(fh)}
        assert rows["lasso"] < rows["smoothed"]
        assert (out / "support.csv").exists()
        assert (out / "roc_p6_n64_lasso.csv").exists()

    def test_single_replicate_sd_empty(self, tmp_path):
        spec = self._spec(tmp_path, replicates=1)
        out = tmp_path / "bench1"
        assert run("bench", "--spec", spec, "--out", out) == 0
        with open(out / "rmise.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                assert row["sd"] == ""

    def test_p_not_a_multiple_of_three_exits_data(self, tmp_path, capsys):
        spec = self._spec(tmp_path, family="var", p=[1], n=[16])
        out = tmp_path / "bench"
        assert run("bench", "--spec", spec, "--out", out) == 3
        assert "multiple of 3" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_cell_exits_data_after_writing_the_others(self, tmp_path, capfd, monkeypatch):
        real_run_cell = bench_mod.run_cell

        def run_cell(spec, cell_index, p, n, jobs=1):
            if p == 9:
                raise NumericalError("simulated cell failure")
            return real_run_cell(spec, cell_index, p, n, jobs=jobs)

        monkeypatch.setattr(bench_mod, "run_cell", run_cell)
        spec = self._spec(tmp_path, p=[6, 9], replicates=1)
        out = tmp_path / "bench"
        assert run("bench", "--spec", spec, "--out", out) == 3
        err = capfd.readouterr().err
        assert "cell (p=9, n=64) failed: simulated cell failure" in err
        assert "1 benchmark cell(s) failed" in err
        with open(out / "rmise.csv", newline="") as fh:
            assert {r["p"] for r in csv.DictReader(fh)} == {"6"}
        assert (out / "roc_p6_n64_lasso.csv").exists()
        assert not (out / "roc_p9_n64_lasso.csv").exists()

    def test_non_integer_replicates_exit_data(self, tmp_path, capsys):
        spec = self._spec(tmp_path, replicates="x")
        assert run("bench", "--spec", spec, "--out", tmp_path / "o") == 3
        assert "bad benchmark spec" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value, message", [
        ("seed", -1, "seed must be nonnegative"),
        ("methods", [], "methods must list at least one method"),
        ("grid_size", 0, "grid_size must be at least 1"),
        ("n_splits", 0, "n_splits must be at least 1"),
        ("replicates", 2.7, "replicates must be of type int, got 2.7"),
        ("seed", 1.9, "seed must be of type int, got 1.9"),
        ("grid_size", 5.5, "grid_size must be of type int, got 5.5"),
        ("n_splits", True, "n_splits must be of type int, got True"),
        ("p", [6.0], "p must be of type int, got 6.0"),
        ("n", [64.9], "n must be of type int, got 64.9"),
        ("include_diagonal", "false", "include_diagonal must be of type bool, got 'false'"),
        ("p", [], "p must list at least one size"),
        ("n", [], "n must list at least one size"),
        ("span_rule", "bogus", "unknown span rule 'bogus'"),
        # a string is not walked as a list of its characters
        ("methods", "lasso", "methods must be of type list, got 'lasso'"),
        ("p", "48", "p must be of type list, got '48'"),
        ("n", "64", "n must be of type list, got '64'"),
    ], ids=["negative-seed", "no-methods", "no-grid", "no-splits", "replicates-float",
            "seed-float", "grid-float", "splits-bool", "p-float", "n-float", "diagonal-string",
            "no-p", "no-n", "span-rule-bogus", "methods-string", "p-string", "n-string"])
    def test_spec_out_of_range_exits_data_before_any_cell(self, tmp_path, capsys, field, value,
                                                           message):
        spec = self._spec(tmp_path, **{field: value})
        out = tmp_path / "bench"
        assert run("bench", "--spec", spec, "--out", out) == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_usage_error(self, tmp_path, capsys, jobs):
        with pytest.raises(SystemExit) as err:
            run("bench", "--spec", self._spec(tmp_path), "--out", tmp_path / "o", "--jobs", jobs)
        assert err.value.code == 2
        assert "--jobs: must be at least 1" in capsys.readouterr().err

    def test_bad_spec_file(self, tmp_path):
        bad = tmp_path / "spec.json"
        bad.write_text("{]")
        assert run("bench", "--spec", bad, "--out", tmp_path / "o") == 3


class TestCoherence:
    def test_adjacency_output(self, tmp_path, vma_model_file):
        series = tmp_path / "series.csv"
        run("simulate", "--model", vma_model_file, "--n", 64, "--seed", 5, "--out", series)
        est = tmp_path / "est.json"
        run("estimate", "--series", series, "--method", "smoothed", "--m", 4, "--out", est)
        out = tmp_path / "graph.csv"
        assert run("coherence", "--estimate", est, "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0].split(",")[1:] == ["x0", "x1", "x2"]
        body = np.array([[float(v) for v in line.split(",")[1:]] for line in lines[1:]])
        assert np.allclose(body, body.T)
        assert np.all(np.diag(body) == 0.0)

    def test_small_units_give_the_unscaled_graph(self, tmp_path, vma_model_file):
        # the degenerate-channel floor is relative to each frequency's largest diagonal
        series = tmp_path / "series.csv"
        run("simulate", "--model", vma_model_file, "--n", 64, "--seed", 5, "--out", series)
        graphs = []
        for scale in (1.0, 1e-6):
            scaled = tmp_path / f"series{scale}.csv"
            write_series(TimeSeriesMatrix(scale * read_series(series).data), scaled)
            est, out = tmp_path / "est.json", tmp_path / "graph.csv"
            assert run("estimate", "--series", scaled, "--method", "lasso", "--out", est) == 0
            assert run("coherence", "--estimate", est, "--out", out) == 0
            graphs.append(np.loadtxt(out, delimiter=",", skiprows=1, usecols=range(1, 4)))
        assert np.allclose(graphs[1], graphs[0], rtol=0, atol=1e-12)


def _entry(obj, j):
    """The entry of frequency index j."""
    return next(entry for entry in obj["frequencies"] if entry["j"] == j)


def _bad_matrix_size(obj):
    entry = _entry(obj, -10)
    entry["re"] = [row[:2] for row in entry["re"][:2]]
    entry["im"] = [row[:2] for row in entry["im"][:2]]


def _header_p(obj):
    obj["p"] = 5


def _duplicated_j(obj):
    entries = obj["frequencies"]
    entries[entries.index(_entry(obj, 5))] = _entry(obj, 6)


def _nan_entry(obj):
    _entry(obj, 3)["re"][0][1] = "nan"


def _missing_j(obj):
    obj["frequencies"].remove(_entry(obj, 5))


def _not_conjugate_matrix(obj):
    entry = _entry(obj, -12)
    entry["im"][0][1] = repr(float(entry["im"][0][1]) + 1e-3)


def _not_conjugate_lambda(obj):
    entry = _entry(obj, -12)
    entry["lambda"] = repr(float(entry["lambda"]) + 1e-3)


def _one_ulp_off(part):
    def mutate(obj):
        entry = _entry(obj, -12)
        entry[part][0][1] = repr(float(np.nextafter(float(entry[part][0][1]), np.inf)))
    return mutate


def _negative_im_shape(obj):
    entry = _entry(obj, -12)  # "re" still matches j = 12
    entry["im"] = entry["im"] + entry["im"][:1]


def _flipped_by_text(partner, mirror):
    # strings a sign flip of the text pairs, of which only `partner` parses
    def mutate(obj):
        _entry(obj, 12)["im"][0][1] = partner
        _entry(obj, -12)["im"][0][1] = mirror
    return mutate


def _comma_in_string(j):
    def mutate(obj):
        _entry(obj, j)["re"][0][1] = "1,5"
    return mutate


def _float_j(obj):
    entry = _entry(obj, -10)
    entry["j"] = float(entry["j"])


def _no_lambdas(obj):
    for entry in obj["frequencies"]:
        del entry["lambda"]


def _negative_lambdas(obj):
    for entry in obj["frequencies"]:
        entry["lambda"] = "-1"


def _smoothed_with_eta(obj):
    _no_lambdas(obj)
    obj.update(method="smoothed", eta="2")


def _bool_lambdas(obj):
    for entry in obj["frequencies"]:
        entry["lambda"] = True


def _bool_matrix(obj):
    _entry(obj, 12)["re"] = [[True, False, False]] * 3


def _numbers_for_strings(obj):
    # every float of the file as a JSON number in place of its string
    for entry in obj["frequencies"]:
        entry["lambda"] = float(entry["lambda"])
        for part in ("re", "im"):
            entry[part] = [[float(v) for v in row] for row in entry[part]]


def _header(**fields):
    def mutate(obj):
        obj.update(fields)
    return mutate


class TestMalformedEstimateFile:
    """Every malformed estimate file makes `evaluate` and `coherence` exit 3."""

    @pytest.mark.parametrize("mutate, message", [
        (_bad_matrix_size, "shape (2, 2)"),
        (_header_p, "expected (5, 5)"),
        (_duplicated_j, "repeated"),
        (_nan_entry, "non-finite"),
        (_missing_j, "31 frequency entries"),
        (_not_conjugate_matrix, "not the conjugate"),
        (_not_conjugate_lambda, "not the conjugate"),
        (_one_ulp_off("re"), "not the conjugate"),
        (_one_ulp_off("im"), "not the conjugate"),
        (_negative_im_shape, "shape (4, 3) at j = -12"),
        (_flipped_by_text("+0.25", "-+0.25"), "'-+0.25'"),
        (_flipped_by_text(" 0.25", "- 0.25"), "'- 0.25'"),
        (_comma_in_string(12), "'1,5'"),
        (_comma_in_string(-12), "'1,5'"),
        (lambda obj: [obj], "expected a JSON object"),
        # one letter per channel would pass the count check for p = 3
        (_header(channels="abc"), "channels must be a list of strings"),
        (_header(channels=["x0", 1, "x2"]), "channels must be a list of strings"),
        (_header(method="bogus"), "unknown method 'bogus'"),
        (_header(method="alasso"), "unknown method 'alasso'"),
        (_header(eta="nan"), "eta = nan is not finite and positive"),
        (_header(eta="-1"), "eta = -1.0 is not finite and positive"),
        (_header(m=-7), "span m = -7 for n = 32"),
        (_header(m=16), "span m = 16 for n = 32"),
        (_header(n=32.0), "n must be of type int, got 32.0"),
        (_header(p=3.0), "p must be of type int, got 3.0"),
        (_header(m=2.5), "m must be of type int, got 2.5"),
        (_header(m=True), "m must be of type int, got True"),
        (_float_j, "j must be of type int, got -10.0"),
        (_header(method="smoothed"), "smoothed estimate with thresholds"),
        (_header(method="shrinkage"), "shrinkage estimate with thresholds"),
        (_no_lambdas, "hard estimate without thresholds"),
        (_header(eta="2"), "hard estimate with an eta"),
        (_smoothed_with_eta, "smoothed estimate with an eta"),
        (_header(method="adaptive_lasso"), "adaptive_lasso estimate without an eta"),
        (_negative_lambdas, "negative threshold"),
        # JSON true and false are not numbers, though float() reads them as 1 and 0
        (_bool_lambdas, "lambda must hold numbers, got True"),
        (_bool_matrix, "re must hold numbers, got True"),
        (_header(method="adaptive_lasso", eta=True), "eta must hold numbers, got True"),
    ], ids=["2x2-matrix", "header-p", "duplicated-j", "nan-entry", "missing-j",
            "not-conjugate-matrix", "not-conjugate-lambda", "re-one-ulp-off", "im-one-ulp-off",
            "negative-im-shape", "plus-signed-partner", "space-led-partner",
            "comma-in-string-at-12", "comma-in-string-at-minus-12", "top-level-list",
            "channels-string", "channels-not-strings", "method-bogus", "method-alias",
            "eta-nan", "eta-negative", "m-negative", "m-too-wide", "n-float", "p-float",
            "m-float", "m-bool", "j-float", "smoothed-with-thresholds",
            "shrinkage-with-thresholds", "hard-without-thresholds", "eta-on-hard",
            "eta-on-smoothed", "adaptive-lasso-without-eta", "lambda-negative",
            "lambda-bool", "matrix-bool", "eta-bool"])
    def test_exits_data(self, tmp_path, rng, capsys, vma_model_file, mutate, message):
        n = 32
        x = TimeSeriesMatrix(rng.standard_normal((n, 3)))
        lambdas = {j: 0.01 * (j + 1) for j in range(n // 2 + 1)}
        est = threshold_estimate(x, 3, ThresholdOperator("hard"), lambdas)
        path = tmp_path / "est.json"
        write_estimate(est, path)
        obj = json.loads(path.read_text())
        assert sorted(entry["j"] for entry in obj["frequencies"]) == list(range(-15, 17))
        obj = mutate(obj) or obj
        path.write_text(json.dumps(obj))
        for argv in (("evaluate", "--model", vma_model_file, "--out", tmp_path / "r.csv", path),
                     ("coherence", "--estimate", path, "--out", tmp_path / "g.csv")):
            assert run(*argv) == 3
            assert message in capsys.readouterr().err

    # strings that float() reads but numpy's C parser does not, and the
    # empty string, the whole matrix [[""]] at p = 1; the message names the
    # string, its j, key and entry, not a place in numpy's list of texts
    @pytest.mark.parametrize("text", ["1_0", "١", ""], ids=["underscore", "arabic-one", "empty"])
    @pytest.mark.parametrize("j, part", [(12, "re"), (12, "im"), (-12, "re"), (-12, "im")])
    @pytest.mark.parametrize("p", [1, 3])
    def test_strings_numpy_does_not_parse(self, tmp_path, rng, capsys, recwarn, p, j, part, text):
        n = 32
        x = TimeSeriesMatrix(rng.standard_normal((n, p)))
        est = threshold_estimate(x, 3, ThresholdOperator("hard"), {k: 0.01 for k in range(17)})
        path, model = tmp_path / "est.json", tmp_path / "model.json"
        write_estimate(est, path)
        write_model(VarmaModel(dim=p), model)
        obj = json.loads(path.read_text())
        _entry(obj, j)[part][0][p - 1] = text
        path.write_text(json.dumps(obj))
        for argv in (("evaluate", "--model", model, "--out", tmp_path / "r.csv", path),
                     ("coherence", "--estimate", path, "--out", tmp_path / "g.csv")):
            assert run(*argv) == 3
            err = capsys.readouterr().err
            assert repr(text) in err and "Traceback" not in err and "Warning" not in err
            assert f"at j = {j}, {part}[0][{p - 1}]" in err
        assert not recwarn.list

    def test_unmodified_file_reads(self, tmp_path, rng, vma_model_file):
        x = TimeSeriesMatrix(rng.standard_normal((32, 3)))
        est = threshold_estimate(x, 3, ThresholdOperator("hard"), {j: 0.1 for j in range(17)})
        path = tmp_path / "est.json"
        write_estimate(est, path)
        assert run("evaluate", "--model", vma_model_file, "--out", tmp_path / "r.csv", path) == 0
        assert run("coherence", "--estimate", path, "--out", tmp_path / "g.csv") == 0

    def test_json_numbers_read_as_their_strings(self, tmp_path, rng):
        x = TimeSeriesMatrix(rng.standard_normal((32, 3)))
        est = threshold_estimate(x, 3, ThresholdOperator("hard"), {j: 0.1 for j in range(17)})
        path = tmp_path / "est.json"
        write_estimate(est, path)
        obj = json.loads(path.read_text())
        _numbers_for_strings(obj)
        path.write_text(json.dumps(obj))
        got = read_estimate(path)
        assert np.array_equal(got.half, est.half) and np.array_equal(got.lambdas, est.lambdas)
        assert run("coherence", "--estimate", path, "--out", tmp_path / "g.csv") == 0
