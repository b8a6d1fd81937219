"""Deterministic file formats: series CSV, model JSON, estimate JSON,
report CSV.  Writers produce identical bytes for identical objects
(stable key order, fixed float formatting)."""

from __future__ import annotations

import csv
import json
from typing import Dict, Optional, Sequence

import numpy as np

from .dft import FourierGrid
from .errors import DataError
from .estimator import SpectralEstimate
from .metrics import EvaluationReport, RocCurve
from .model import VarmaModel, TimeSeriesMatrix
from .tuning import SplitRisk

SCHEMA_VERSION = "1"


def _fmt(x: float) -> str:
    """17 significant digits: bit-faithful float round-trip."""
    return format(float(x), ".17g")


# ---------------------------------------------------------------- series CSV

def write_series(x: TimeSeriesMatrix, path) -> None:
    names = x.channel_names or tuple(f"x{i}" for i in range(x.p))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(names)
        for row in x.data:
            writer.writerow([_fmt(v) for v in row])


def read_series(path) -> TimeSeriesMatrix:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        rows = []
        width = len(header)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != width:
                raise DataError(f"{path}:{lineno}: expected {width} columns, got {len(row)}")
            try:
                values = [float(v) for v in row]
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: non-numeric cell ({exc})") from None
            for col, v in enumerate(values):
                if not np.isfinite(v):
                    raise DataError(f"{path}:{lineno}: non-finite value in column {col}")
            rows.append(values)
    if len(rows) < 2:
        raise DataError(f"{path}: need at least 2 data rows")
    return TimeSeriesMatrix(np.array(rows), channel_names=tuple(header))


# ---------------------------------------------------------------- model JSON

def model_to_dict(model: VarmaModel) -> dict:
    noise: dict = {"family": model.noise_family, "cov": model.noise_cov.tolist()}
    if model.noise_df is not None:
        noise["df"] = model.noise_df
    return {
        "p": model.dim,
        "ar": [a.tolist() for a in model.ar_coeffs],
        "ma": [b.tolist() for b in model.ma_coeffs],
        "noise": noise,
    }


def model_from_dict(obj: dict) -> VarmaModel:
    try:
        noise = obj.get("noise", {})
        return VarmaModel(
            dim=int(obj["p"]),
            ar_coeffs=tuple(np.array(a, dtype=float) for a in obj.get("ar", [])),
            ma_coeffs=tuple(np.array(b, dtype=float) for b in obj.get("ma", [])),
            noise_cov=np.array(noise["cov"], dtype=float) if "cov" in noise else None,
            noise_family=noise.get("family", "gaussian"),
            noise_df=noise.get("df"),
        )
    except (KeyError, TypeError) as exc:
        raise DataError(f"bad model specification: {exc}") from None


def write_model(model: VarmaModel, path) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh, indent=1, sort_keys=True)
        fh.write("\n")


def read_model(path) -> VarmaModel:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: {exc}") from None
    return model_from_dict(obj)


# ------------------------------------------------------------- estimate JSON

def _fmt_rows(part: np.ndarray) -> list:
    """`_fmt` of every entry of a real matrix, as nested lists."""
    return [[format(v, ".17g") for v in row] for row in part.tolist()]


def write_estimate(est: SpectralEstimate, path) -> None:
    """Write the text json.dump(obj, sort_keys=True) would write, one
    frequency at a time.

    json.dump streams through the pure-Python encoder; json.dumps uses the
    C encoder but builds the whole text in memory.  So the top-level object
    is dumped with a placeholder for "frequencies", and each frequency entry
    is dumped and written on its own, in the list's place.
    """
    obj = {
        "schema_version": SCHEMA_VERSION,
        "n": est.n,
        "p": est.p,
        "m": est.m,
        "method": est.method,
        "frequencies": None,
    }
    if est.eta is not None:
        obj["eta"] = _fmt(est.eta)
    if est.channel_names is not None:
        obj["channels"] = list(est.channel_names)
    # inside a JSON string every '"' is escaped, so this occurs once, as the key
    head, _, tail = json.dumps(obj, sort_keys=True).partition('"frequencies": null')
    grid = est.grid
    with open(path, "w") as fh:
        fh.write(head + '"frequencies": [')
        for i, j in enumerate(est.frequencies()):
            mat = est.matrices[j]
            entry = {
                "j": int(j),
                "omega": _fmt(grid.frequency(j)),
                "re": _fmt_rows(mat.real),
                "im": _fmt_rows(mat.imag),
            }
            if est.lambdas is not None:
                entry["lambda"] = _fmt(est.lambdas[j])
            fh.write((", " if i else "") + json.dumps(entry, sort_keys=True))
        fh.write("]" + tail + "\n")


def read_estimate(path) -> SpectralEstimate:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: {exc}") from None
    version = obj.get("schema_version")
    if version != SCHEMA_VERSION:
        raise DataError(f"{path}: schema version {version!r}, expected {SCHEMA_VERSION!r}")
    try:
        matrices: Dict[int, np.ndarray] = {}
        lambdas: Dict[int, float] = {}
        has_lambda = False
        for entry in obj["frequencies"]:
            j = int(entry["j"])
            re = np.array(entry["re"], dtype=float)
            im = np.array(entry["im"], dtype=float)
            matrices[j] = re + 1j * im
            if "lambda" in entry:
                has_lambda = True
                lambdas[j] = float(entry["lambda"])
        channels = tuple(obj["channels"]) if "channels" in obj else None
        return SpectralEstimate(
            n=int(obj["n"]),
            p=int(obj["p"]),
            m=int(obj["m"]),
            method=obj["method"],
            matrices=matrices,
            lambdas=lambdas if has_lambda else None,
            eta=float(obj["eta"]) if "eta" in obj else None,
            channel_names=channels,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed estimate file ({exc})") from None


# ---------------------------------------------------------------- reports

def write_report_csv(rows: Sequence[dict], path) -> None:
    """Rows of (method, p, n, m, metric, mean, sd); sd may be empty."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["method", "p", "n", "m", "metric", "mean", "sd"])
        for row in rows:
            sd = row.get("sd")
            writer.writerow(
                [
                    row["method"],
                    row["p"],
                    row["n"],
                    row["m"],
                    row["metric"],
                    _fmt(row["mean"]),
                    "" if sd is None else _fmt(sd),
                ]
            )


def report_rows(report: EvaluationReport, p: int, n: int, m: int) -> list:
    rows = []
    for metric in ("rmise", "precision", "recall", "f1", "auc"):
        value = getattr(report, metric)
        if value is None:
            continue
        rows.append(
            {
                "method": report.method,
                "p": p,
                "n": n,
                "m": m,
                "metric": metric,
                "mean": value,
                "sd": report.sd.get(metric),
            }
        )
    return rows


def write_roc_json(curve: RocCurve, path) -> None:
    obj = {
        "auc": _fmt(curve.auc),
        "points": [{"fpr": _fmt(f), "tpr": _fmt(t)} for f, t in curve.points],
    }
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True)
        fh.write("\n")


def write_tuning_report(risk: SplitRisk, path) -> None:
    obj = {
        "j": risk.j,
        "grid": [_fmt(v) for v in risk.grid],
        "risk": [_fmt(v) for v in risk.risk],
        "chosen": _fmt(risk.chosen),
        "n_splits": risk.n_splits,
        "seed": risk.seed,
    }
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True)
        fh.write("\n")
