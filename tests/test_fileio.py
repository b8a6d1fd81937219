import io
import json

import numpy as np
import pytest

from specthresh import DataError, ThresholdOperator, tuned_threshold_estimate
from specthresh.fileio import (
    _fmt,
    model_from_dict,
    read_estimate,
    read_model,
    read_series,
    write_estimate,
    write_model,
    write_report_csv,
    write_roc_json,
    write_series,
    write_tuning_report,
)
from specthresh.metrics import RocCurve
from specthresh.model import TimeSeriesMatrix, VarmaModel, block_varma_model
from specthresh.tuning import SplitRisk, select_threshold, TuningConfig


class TestSeriesCsv:
    def test_zero_matrix_round_trip(self, tmp_path):
        path = tmp_path / "series.csv"
        write_series(TimeSeriesMatrix(np.zeros((3, 2))), path)
        x = read_series(path)
        assert x.n == 3 and x.p == 2
        assert np.all(x.data == 0.0)
        assert x.channel_names == ("x0", "x1")

    def test_round_trip_bit_identical(self, tmp_path, rng):
        x = TimeSeriesMatrix(rng.standard_normal((10, 3)), channel_names=("a", "b", "c"))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_series(x, p1)
        write_series(read_series(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_nan_cell_reports_position(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,2.0\n3.0,nan\n")
        with pytest.raises(DataError, match="3"):
            read_series(path)

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1.0,2.0\n3.0\n")
        with pytest.raises(DataError, match=":3"):
            read_series(path)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "text.csv"
        path.write_text("a,b\n1.0,2.0\nx,4.0\n")
        with pytest.raises(DataError, match="non-numeric"):
            read_series(path)

    def test_too_few_rows(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("a,b\n1.0,2.0\n")
        with pytest.raises(DataError, match="2 data rows"):
            read_series(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError, match="empty"):
            read_series(path)


class TestModelJson:
    def test_round_trip(self, tmp_path):
        model = VarmaModel(
            dim=2,
            ar_coeffs=(np.array([[0.3, 0.1], [0.0, 0.2]]),),
            ma_coeffs=(np.array([[0.5, 0.0], [0.2, 0.5]]),),
            noise_cov=np.array([[2.0, 0.5], [0.5, 1.0]]),
            noise_family="student_t",
            noise_df=8.0,
        )
        path = tmp_path / "model.json"
        write_model(model, path)
        back = read_model(path)
        assert back.dim == 2
        assert np.array_equal(back.ar_coeffs[0], model.ar_coeffs[0])
        assert np.array_equal(back.ma_coeffs[0], model.ma_coeffs[0])
        assert np.array_equal(back.noise_cov, model.noise_cov)
        assert back.noise_family == "student_t" and back.noise_df == 8.0

    def test_write_deterministic(self, tmp_path):
        model = block_varma_model(3, "vma")
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        write_model(model, p1)
        write_model(model, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(DataError):
            read_model(path)

    def test_missing_dimension(self):
        with pytest.raises(DataError, match="model specification"):
            model_from_dict({"ar": []})


class TestEstimateJson:
    def _estimate(self, rng):
        x = TimeSeriesMatrix(rng.standard_normal((16, 3)), channel_names=("u", "v", "w"))
        return tuned_threshold_estimate(x, 2, ThresholdOperator("adaptive_lasso"), seed=1)

    def test_round_trip(self, tmp_path, rng):
        est = self._estimate(rng)
        path = tmp_path / "est.json"
        write_estimate(est, path)
        back = read_estimate(path)
        assert (back.n, back.p, back.m, back.method) == (est.n, est.p, est.m, est.method)
        assert back.eta == est.eta
        assert back.channel_names == est.channel_names
        assert back.lambdas == est.lambdas
        for j in est.frequencies():
            assert np.array_equal(back.matrices[j], est.matrices[j])

    def test_write_deterministic(self, tmp_path, rng):
        est = self._estimate(rng)
        p1, p2 = tmp_path / "e1.json", tmp_path / "e2.json"
        write_estimate(est, p1)
        write_estimate(est, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("channels", [("u", "v", "w"), ('"frequencies": null', "[", "\\")])
    def test_bytes_match_streamed_json(self, tmp_path, rng, channels):
        # the bytes json.dump writes for the estimate, each float as _fmt
        est = self._estimate(rng)
        est.channel_names = channels
        assert est.lambdas is not None and est.eta is not None
        freqs = []
        for j in est.frequencies():
            mat = est.matrices[j]
            freqs.append({
                "j": j,
                "omega": _fmt(est.grid.frequency(j)),
                "re": [[_fmt(v) for v in row] for row in mat.real],
                "im": [[_fmt(v) for v in row] for row in mat.imag],
                "lambda": _fmt(est.lambdas[j]),
            })
        obj = {
            "schema_version": "1", "n": est.n, "p": est.p, "m": est.m, "method": est.method,
            "frequencies": freqs, "eta": _fmt(est.eta), "channels": list(est.channel_names),
        }
        buf = io.StringIO()
        json.dump(obj, buf, sort_keys=True)
        buf.write("\n")
        path = tmp_path / "est.json"
        write_estimate(est, path)
        assert path.read_bytes() == buf.getvalue().encode()

    def test_truncated_file(self, tmp_path, rng):
        est = self._estimate(rng)
        path = tmp_path / "est.json"
        write_estimate(est, path)
        path.write_bytes(path.read_bytes()[:50])
        with pytest.raises(DataError):
            read_estimate(path)

    def test_schema_version_mismatch(self, tmp_path):
        path = tmp_path / "est.json"
        path.write_text(json.dumps({"schema_version": "99", "frequencies": []}))
        with pytest.raises(DataError, match="schema version"):
            read_estimate(path)


class TestReports:
    def test_sd_column_empty_when_missing(self, tmp_path):
        path = tmp_path / "report.csv"
        rows = [
            {"method": "lasso", "p": 3, "n": 64, "m": 4, "metric": "rmise", "mean": 12.0, "sd": None}
        ]
        write_report_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "method,p,n,m,metric,mean,sd"
        assert lines[1] == "lasso,3,64,4,rmise,12,"

    def test_roc_json_round_trips_floats(self, tmp_path):
        curve = RocCurve(points=[(0.0, 0.0), (0.25, 0.75), (1.0, 1.0)], auc=0.875)
        path = tmp_path / "roc.json"
        write_roc_json(curve, path)
        obj = json.loads(path.read_text())
        assert float(obj["auc"]) == 0.875
        assert float(obj["points"][1]["tpr"]) == 0.75

    def test_tuning_report(self, tmp_path, rng):
        x = TimeSeriesMatrix(rng.standard_normal((16, 2)))
        cfg = TuningConfig(m=2, lambda_grid=(0.0, 0.5), seed=3)
        risk = select_threshold(x, 1, cfg, ThresholdOperator("hard"))
        path = tmp_path / "tuning.json"
        write_tuning_report(risk, path)
        obj = json.loads(path.read_text())
        assert obj["j"] == 1 and obj["seed"] == 3
        assert float(obj["chosen"]) == risk.chosen


class TestFloatFormat:
    def test_fmt_round_trips_doubles(self, rng):
        for v in list(rng.standard_normal(100)) + [0.1, 1e-300, 1e300, np.pi]:
            assert float(_fmt(v)) == float(v)
