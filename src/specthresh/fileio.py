"""Deterministic file formats: series CSV, model JSON, estimate JSON,
report CSV.  Writers produce identical bytes for identical objects
(stable key order, fixed float formatting)."""

from __future__ import annotations

import csv
import json
from typing import Sequence

import numpy as np

from .dft import FourierGrid
from .errors import DataError, SpecthreshError
from .bench import ALL_METHODS, THRESHOLD_METHODS, _json_value
from .estimator import SpectralEstimate
from .metrics import EvaluationReport
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
    if not isinstance(obj, dict) or not isinstance(obj.get("noise", {}), dict):
        raise DataError("bad model specification: the model and its noise must be JSON objects")
    try:
        noise = obj.get("noise", {})
        return VarmaModel(
            dim=_json_value(obj["p"], int, "p"),
            ar_coeffs=tuple(np.array(a, dtype=float) for a in obj.get("ar", [])),
            ma_coeffs=tuple(np.array(b, dtype=float) for b in obj.get("ma", [])),
            noise_cov=np.array(noise["cov"], dtype=float) if "cov" in noise else None,
            noise_family=noise.get("family", "gaussian"),
            noise_df=noise.get("df"),
        )
    except SpecthreshError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
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
    grid = FourierGrid(est.n)
    with open(path, "w") as fh:
        fh.write(head + '"frequencies": [')
        for i, j in enumerate(grid.indices.tolist()):
            # row -j is the conjugate of row j
            mat = est.half[j] if j >= 0 else est.half[-j].conj()
            entry = {
                "j": j,
                "omega": _fmt(grid.frequency(j)),
                "re": _fmt_rows(mat.real),
                "im": _fmt_rows(mat.imag),
            }
            if est.lambdas is not None:
                entry["lambda"] = _fmt(est.lambdas[abs(j)])
            fh.write((", " if i else "") + json.dumps(entry, sort_keys=True))
        fh.write("]" + tail + "\n")


def read_estimate(path) -> SpectralEstimate:
    """Read an estimate file into an estimate of the rows j >= 0.

    The file lists every j in F_n once.  Entries are parsed one at a time
    into arrays of the rows j >= 0 and, in row -j - 1, of the conjugates of
    the rows j < 0; each j < 0 matrix and threshold must be exactly the
    conjugate of its j > 0 partner's.  The header must give n, p and m as
    JSON integers and name one of the methods, a span m with 2m+1 <= n, a
    finite positive eta (on adaptive_lasso, and only there) and a list of
    p channel names (when given).  Every entry carries a threshold when the
    method is a threshold method, and none otherwise.
    """
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: {exc}") from None
    if not isinstance(obj, dict):
        raise DataError(f"{path}: expected a JSON object, got {type(obj).__name__}")
    version = obj.get("schema_version")
    if version != SCHEMA_VERSION:
        raise DataError(f"{path}: schema version {version!r}, expected {SCHEMA_VERSION!r}")
    try:
        n, p = _json_value(obj["n"], int, "n"), _json_value(obj["p"], int, "p")
        entries = obj["frequencies"]
        if len(entries) != n:
            raise ValueError(f"{len(entries)} frequency entries for n = {n}")
        grid = FourierGrid(n)
        has_lambda = "lambda" in entries[0]
        half = neg = lam_half = lam_neg = None
        seen = set()
        for entry in entries:
            j = _json_value(entry["j"], int, "j")
            re = np.array(entry["re"], dtype=float)
            im = np.array(entry["im"], dtype=float)
            if re.shape != (p, p) or im.shape != (p, p):
                raise ValueError(f"matrix of shape {re.shape} at j = {j}, expected ({p}, {p})")
            if not grid.contains(j) or j in seen:
                raise ValueError(f"frequency index {j} repeated or outside F_n")
            seen.add(j)
            if half is None:  # allocated once the header's p is confirmed
                half = np.empty((n // 2 + 1, p, p), dtype=complex)
                neg = np.empty((grid.half, p, p), dtype=complex)
                lam_half, lam_neg = np.zeros(len(half)), np.zeros(grid.half)
            rows, lams, k = (half, lam_half, j) if j >= 0 else (neg, lam_neg, -j - 1)
            rows[k].real = re
            rows[k].imag = im if j >= 0 else -im
            if ("lambda" in entry) != has_lambda:
                raise ValueError(f"threshold missing or extra at j = {j}")
            if has_lambda:
                lams[k] = float(entry["lambda"])
        if not (np.isfinite(half).all() and np.isfinite(lam_half).all()):
            raise ValueError("non-finite matrix entry or threshold")
        partners = slice(1, grid.half + 1)
        if not (np.array_equal(neg, half[partners]) and np.array_equal(lam_neg, lam_half[partners])):
            raise ValueError("an entry at j < 0 is not the conjugate of the one at -j")
        m, method = _json_value(obj["m"], int, "m"), obj["method"]
        if m < 0 or 2 * m + 1 > n:
            raise ValueError(f"span m = {m} for n = {n}")
        if method not in ALL_METHODS:
            raise ValueError(f"unknown method {method!r}")
        eta = float(obj["eta"]) if "eta" in obj else None
        if eta is not None and not (np.isfinite(eta) and eta > 0):
            raise ValueError(f"eta = {eta} is not finite and positive")
        if has_lambda != (method in THRESHOLD_METHODS):
            raise ValueError(f"{method} estimate {'with' if has_lambda else 'without'} thresholds")
        if (eta is not None) != (method == "adaptive_lasso"):
            raise ValueError(f"{method} estimate {'with' if eta is not None else 'without'} an eta")
        channels = None
        if "channels" in obj:
            channels = obj["channels"]
            if not (isinstance(channels, list) and all(isinstance(c, str) for c in channels)):
                raise ValueError("channels must be a list of strings")
            if len(channels) != p:
                raise ValueError(f"{len(channels)} channel names for p = {p}")
            channels = tuple(channels)
        return SpectralEstimate(
            n=n,
            p=p,
            m=m,
            method=method,
            half=half,
            lambdas=lam_half if has_lambda else None,
            eta=eta,
            channel_names=channels,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
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
