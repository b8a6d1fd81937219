import dataclasses
import io
import json
import tracemalloc

import numpy as np
import pytest
from oracles import full_grid

from specthresh import (
    DataError,
    FourierGrid,
    SpectralEstimate,
    ThresholdOperator,
    threshold_estimate,
)
from specthresh.estimator import ALL_METHODS
from specthresh.fileio import (
    _fmt,
    model_from_dict,
    read_estimate,
    read_model,
    read_series,
    write_estimate,
    write_model,
    write_report_csv,
    write_series,
)
from specthresh.model import TimeSeriesMatrix, VarmaModel, block_varma_model, simulate
from specthresh.tuning import tuned_estimates


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

    def test_nan_after_blank_line_reports_file_line_and_column(self, tmp_path):
        # the blank line 3 is skipped but still counted, so the nan is on line 5
        path = tmp_path / "gap.csv"
        path.write_text("a,b\n1.0,2.0\n\n3.0,4.0\nnan,5.0\n6.0,inf\n")
        with pytest.raises(DataError) as err:
            read_series(path)
        assert str(err.value) == f"{path}:5: non-finite value in column 0"

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
        return tuned_estimates(x, 2, [ThresholdOperator("adaptive_lasso")], seed=1)[0]

    def test_round_trip(self, tmp_path, rng):
        est = self._estimate(rng)
        path = tmp_path / "est.json"
        write_estimate(est, path)
        back = read_estimate(path)
        assert (back.n, back.p, back.m, back.method) == (est.n, est.p, est.m, est.method)
        assert back.eta == est.eta
        assert back.channel_names == est.channel_names
        assert np.array_equal(back.lambdas, est.lambdas)
        assert np.array_equal(back.half, est.half)

    @pytest.mark.parametrize("n", [16, 17])
    def test_round_trip_keeps_every_bit(self, tmp_path, rng, n):
        # zeros of both signs, subnormals, the float maximum and values 1 ulp
        # apart, as real and imaginary parts of rows j >= 0 (so their
        # negations at j < 0) and as thresholds, read back to the bit
        ulp, tiny, big = np.nextafter(0.0, 1.0), np.finfo(float).tiny, np.finfo(float).max
        specials = [0.0, -0.0, ulp, -ulp, tiny - ulp, -tiny, big, -big, np.nextafter(-big, 0.0),
                    1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0), -np.nextafter(1.0, 0.0)]
        rows, p = n // 2 + 1, 4
        parts = rng.standard_normal((rows, p, 2 * p))
        parts.flat[:2 * len(specials)] = specials + specials[::-1]
        rest = parts.flat[2 * len(specials):]
        parts.flat[2 * len(specials):] = np.where(rng.random(len(rest)) < 0.5, rest,
                                                  rng.choice(specials, len(rest)))
        lambdas = np.array(([0.0, -0.0, ulp, tiny - ulp, big, 1.0, np.nextafter(1.0, 2.0)] * 2)[:rows])
        est = SpectralEstimate(n, p, 2, "hard", parts.view(complex), lambdas=lambdas)
        path = tmp_path / "est.json"
        write_estimate(est, path)
        back = read_estimate(path)
        assert np.array_equal(back.half.view(np.int64), est.half.view(np.int64))
        assert np.array_equal(back.lambdas.view(np.int64), est.lambdas.view(np.int64))

    @staticmethod
    def _same(a, b) -> bool:
        """Equality as the benchmark's round-trip check applies it: dicts key
        by key, arrays by value and dtype, anything else by type and ==."""
        if isinstance(a, dict):
            return isinstance(b, dict) and a.keys() == b.keys() and all(
                TestEstimateJson._same(a[k], b[k]) for k in a)
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            return np.array_equal(a, b) and np.asarray(a).dtype == np.asarray(b).dtype
        return type(a) is type(b) and a == b

    @classmethod
    def _assert_read_back(cls, est, back, *where):
        """Every field of `est` read back, but the split-risk curves, which
        the file does not hold: those read back as None."""
        for field in dataclasses.fields(est):
            if field.name in ("grids", "risks"):
                assert getattr(back, field.name) is None, (*where, field.name)
            else:
                assert cls._same(getattr(est, field.name), getattr(back, field.name)), (
                    *where, field.name)

    @pytest.mark.parametrize("kind", ["tuned", "fixed"])
    def test_read_back_equals_every_field(self, tmp_path, rng, kind):
        if kind == "tuned":
            est = self._estimate(rng)
        else:
            x = TimeSeriesMatrix(rng.standard_normal((17, 3)))
            est = threshold_estimate(x, 2, ThresholdOperator("hard"), {j: 0.15 for j in range(9)})
        path = tmp_path / "est.json"
        write_estimate(est, path)
        self._assert_read_back(est, read_estimate(path))

    def test_every_method_reads_back(self, tmp_path, rng):
        x = TimeSeriesMatrix(rng.standard_normal((17, 3)))
        for method, est in zip(ALL_METHODS, tuned_estimates(x, 2, ALL_METHODS, grid_size=5)):
            path = tmp_path / f"{method}.json"
            write_estimate(est, path)
            self._assert_read_back(est, read_estimate(path), method)

    def test_curves_neither_written_nor_read(self, tmp_path, rng):
        # a tuned estimate writes the bytes of the same estimate without its
        # curves; a fixed-threshold estimate and a read estimate have none
        est = self._estimate(rng)
        assert est.grids is not None and est.risks is not None
        with_curves, without = tmp_path / "curves.json", tmp_path / "plain.json"
        write_estimate(est, with_curves)
        write_estimate(dataclasses.replace(est, grids=None, risks=None), without)
        assert with_curves.read_bytes() == without.read_bytes()
        fixed = threshold_estimate(TimeSeriesMatrix(rng.standard_normal((16, 3))), 2, "lasso",
                                   {j: 0.1 for j in range(9)})
        for got in (fixed, read_estimate(with_curves)):
            assert got.grids is None and got.risks is None

    def test_write_deterministic(self, tmp_path, rng):
        est = self._estimate(rng)
        p1, p2 = tmp_path / "e1.json", tmp_path / "e2.json"
        write_estimate(est, p1)
        write_estimate(est, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("method, n, p, channels, negative_zeros", [
        pytest.param("adaptive_lasso", 16, 3, ("u", "v", "w"), False, id="channels0"),
        pytest.param("adaptive_lasso", 16, 3, ('"frequencies": null', "[", "\\"), False,
                     id="channels1"),
        pytest.param("hard", 17, 3, None, True, id="negative-zero"),
    ] + [pytest.param(method, n, p, None, False, id=f"{method}-n{n}-p{p}")
         for method in ALL_METHODS for n in (16, 17) for p in (1, 3)])
    def test_bytes_match_streamed_json(self, tmp_path, rng, method, n, p, channels,
                                       negative_zeros):
        # the bytes json.dump writes for the estimate, each float as _fmt, with
        # the entries in the order j = 0, 1, -1, 2, -2, ...
        x = TimeSeriesMatrix(rng.standard_normal((n, p)), channel_names=channels)
        est, = tuned_estimates(x, 2, [method], grid_size=5)
        if negative_zeros:
            # -0.0 in im at j = 0 and 3 (so +0.0 at j = -3), and in re at j = 3
            est.half[0, 1, 1] = complex(est.half[0, 1, 1].real, -0.0)
            est.half[3, 0, 2] = complex(-0.0, -0.0)
            est.half[3, 2, 0] = complex(0.0, 0.0)
        by_j = {}
        for j, mat in full_grid(est.half, est.n).items():
            by_j[j] = {
                "j": j,
                "omega": _fmt(FourierGrid(est.n).frequency(j)),
                "re": [[_fmt(v) for v in row] for row in mat.real],
                "im": [[_fmt(v) for v in row] for row in mat.imag],
            }
            if est.lambdas is not None:
                by_j[j]["lambda"] = _fmt(est.lambdas[abs(j)])
        order = sorted(by_j, key=lambda j: (abs(j), j < 0))
        assert order[:5] == [0, 1, -1, 2, -2] and len(order) == n
        freqs = [by_j[j] for j in order]
        obj = {
            "schema_version": "1", "n": est.n, "p": est.p, "m": est.m, "method": est.method,
            "frequencies": freqs,
        }
        if est.eta is not None:
            obj["eta"] = _fmt(est.eta)
        if est.channel_names is not None:
            obj["channels"] = list(est.channel_names)
        buf = io.StringIO()
        json.dump(obj, buf, sort_keys=True)
        buf.write("\n")
        path = tmp_path / "est.json"
        write_estimate(est, path)
        assert path.read_bytes() == buf.getvalue().encode()
        if negative_zeros:
            assert '"-0"' in buf.getvalue()

    def _written(self, tmp_path, rng):
        """A hard estimate (n = 17, p = 3), its file as a JSON object, and
        the entries by j."""
        x = TimeSeriesMatrix(rng.standard_normal((17, 3)))
        est = threshold_estimate(x, 2, ThresholdOperator("hard"), {j: 0.1 for j in range(9)})
        write_estimate(est, tmp_path / "est.json")
        obj = json.loads((tmp_path / "est.json").read_text())
        return est, obj, {entry["j"]: entry for entry in obj["frequencies"]}

    def _reread(self, tmp_path, obj):
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(obj))
        return read_estimate(path)

    @pytest.mark.parametrize("part, text, mirror", [
        ("re", "1", "1.0"),
        ("re", "0", "-0"),
        ("re", "-0", "0"),
        ("re", "0.5", "5e-1"),
        ("im", "0.5", "-0.50"),
        ("im", "0", "0"),
        ("im", "-0", "-0"),
        ("im", "2", "-2e0"),
        # JSON numbers, not strings, parse as np.array parses them
        ("re", 0.5, "0.5"),
        ("re", 0.5, 0.5),
        ("im", "0.5", -0.5),
    ])
    def test_equal_values_in_other_strings_accepted(self, tmp_path, rng, part, text, mirror):
        # row -2 spells an entry of conj(row 2) differently, with the same value
        _, obj, by_j = self._written(tmp_path, rng)
        by_j[2][part][0][1], by_j[-2][part][0][1] = text, mirror
        entry = self._reread(tmp_path, obj).half[2, 0, 1]
        got = entry.real if part == "re" else entry.imag
        assert got.tobytes() == np.float64(text).tobytes()  # row 2's value, sign of zero too

    def test_entries_in_any_order(self, tmp_path, rng):
        est, obj, _ = self._written(tmp_path, rng)
        np.random.default_rng(3).shuffle(obj["frequencies"])
        back = self._reread(tmp_path, obj)
        assert np.array_equal(back.half, est.half) and np.array_equal(back.lambdas, est.lambdas)

    def test_write_holds_one_block(self, tmp_path):
        # a dense p = 48, n = 400 estimate writes 45 MB; formatting every row's
        # texts before writing any would hold tens of MB of them
        x = simulate(block_varma_model(48, "vma"), 400, seed=3)
        est, = tuned_estimates(x, 20, ["smoothed"])
        tracemalloc.start()
        try:
            write_estimate(est, tmp_path / "est.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "est.json").stat().st_size > 40e6
        assert peak < 8e6

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


class TestFloatFormat:
    def test_fmt_round_trips_doubles(self, rng):
        for v in list(rng.standard_normal(100)) + [0.1, 1e-300, 1e300, np.pi]:
            assert float(_fmt(v)) == float(v)
