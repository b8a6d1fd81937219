import csv
import json

import numpy as np
import pytest

from specthresh import FourierGrid, SpectralEstimate, periodogram_all
from specthresh.bench import truth_spectra
from specthresh.cli import main
from specthresh.fileio import read_estimate, read_series, write_estimate, write_model, write_series
from specthresh.model import TimeSeriesMatrix, VarmaModel, block_varma_model


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

    def test_missing_model_file(self, tmp_path):
        code = run("simulate", "--model", tmp_path / "none.json", "--n", 32, "--out", tmp_path / "o")
        assert code == 3


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
            assert np.allclose(est.matrices[int(j)], stack[pos], atol=1e-12)

    def test_lasso_zero_lambda_equals_smoothed(self, tmp_path, series_file):
        e1, e2 = tmp_path / "lasso.json", tmp_path / "smooth.json"
        run("estimate", "--series", series_file, "--method", "lasso", "--m", 4,
            "--lambda", 0, "--out", e1)
        run("estimate", "--series", series_file, "--method", "smoothed", "--m", 4, "--out", e2)
        lasso, smooth = read_estimate(e1), read_estimate(e2)
        for j in smooth.frequencies():
            assert np.allclose(lasso.matrices[j], smooth.matrices[j], atol=1e-14)

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
            return sum(int(np.sum(est.matrices[j][mask] == 0)) for j in est.frequencies())

        assert zeros(e1) > zeros(e2)

    def test_nan_lambda_rejected(self, tmp_path, series_file, capsys):
        code = run("estimate", "--series", series_file, "--method", "hard", "--m", 4,
                   "--lambda", "nan", "--out", tmp_path / "o.json")
        assert code == 3
        assert "NaN" in capsys.readouterr().err
        assert not (tmp_path / "o.json").exists()

    def test_single_channel_tuned_equals_smoothed(self, tmp_path, rng):
        series = tmp_path / "one.csv"
        write_series(TimeSeriesMatrix(rng.standard_normal((64, 1))), series)
        e1, e2 = tmp_path / "lasso.json", tmp_path / "smooth.json"
        assert run("estimate", "--series", series, "--method", "lasso", "--out", e1) == 0
        assert run("estimate", "--series", series, "--method", "smoothed", "--out", e2) == 0
        lasso, smooth = read_estimate(e1), read_estimate(e2)
        assert lasso.p == 1
        for j in smooth.frequencies():
            assert np.array_equal(lasso.matrices[j], smooth.matrices[j])

    def test_oversized_span_rejected(self, tmp_path, series_file, capsys):
        code = run("estimate", "--series", series_file, "--method", "smoothed", "--m", 40,
                   "--out", tmp_path / "o.json")
        assert code == 3
        assert "exceeds" in capsys.readouterr().err

    def test_usage_error_exit_code(self, tmp_path, series_file):
        with pytest.raises(SystemExit) as err:
            run("estimate", "--series", series_file, "--method", "ridge", "--out", tmp_path / "o")
        assert err.value.code == 2


class TestEvaluate:
    def test_truth_estimate_scores_zero(self, tmp_path, vma_model_file):
        model = block_varma_model(3, "vma")
        n = 32
        truth = truth_spectra(model, n)
        est = SpectralEstimate(n=n, p=3, m=0, method="smoothed", matrices=truth)
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
        mats = {int(j): np.eye(2, dtype=complex) for j in FourierGrid(n).indices}
        est_path = tmp_path / "est.json"
        write_estimate(SpectralEstimate(n=n, p=2, m=0, method="smoothed", matrices=mats), est_path)
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
