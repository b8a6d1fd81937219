"""Deterministic file formats: series CSV, model JSON, estimate JSON,
report CSV.  Writers produce identical bytes for identical objects
(stable key order, fixed float formatting).

Every float the package writes is formatted by `_fmt_all`, 17 significant
digits.  The estimate file lists every j in F_n, but its writer formats
only the rows j >= 0 and each distinct value of a block of rows once; its
reader keeps each matrix's strings as one text while decoding, and parses
a row j < 0 only when its strings differ from its partner's.  The bytes
are those json.dump would write."""

from __future__ import annotations

import csv
import json
import re
from typing import Sequence

import numpy as np

from .dft import FourierGrid
from .errors import DataError, SpecthreshError
from .estimator import ALL_METHODS, THRESHOLD_METHODS, SpectralEstimate
from .metrics import EvaluationReport
from .model import VarmaModel, TimeSeriesMatrix

SCHEMA_VERSION = "1"


def _fmt_all(values) -> list:
    """Each float as 17 significant digits: a bit-faithful round trip.  The
    package's one float format, for every file it writes."""
    return [format(v, ".17g") for v in values]


def _json_value(value, kind: type, name: str):
    """`value` if its type is exactly `kind`, else ValueError: a JSON float
    or boolean does not pass for an int, nor a string for a bool."""
    if type(value) is not kind:
        raise ValueError(f"{name} must be of type {kind.__name__}, got {value!r}")
    return value


def _numbers(value, name: str):
    """`value` if it is a JSON number or a list nesting only JSON numbers,
    else ValueError naming `name`: float() and numpy would read a JSON
    boolean as 1 or 0, and a string such as "0.5" as a number."""
    if type(value) is list:
        for item in value:
            _numbers(item, name)
    elif type(value) not in (int, float):
        raise ValueError(f"{name} must hold numbers, got {value!r}")
    return value


def _float_texts(value, name: str):
    """`value` unless it is or nests a JSON boolean, which float() and numpy
    would read as 1 or 0: then ValueError naming `name`.  An estimate file
    holds its floats as strings, which float() and numpy parse."""
    if type(value) is bool:
        raise ValueError(f"{name} must hold numbers, got {value!r}")
    if type(value) is list:
        for item in value:
            _float_texts(item, name)
    return value


def _fmt(x: float) -> str:
    return _fmt_all((float(x),))[0]


# ---------------------------------------------------------------- series CSV

def write_series(x: TimeSeriesMatrix, path) -> None:
    names = x.channel_names or tuple(f"x{i}" for i in range(x.p))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(names)
        for row in x.data:
            writer.writerow(_fmt_all(row.tolist()))


def read_series(path) -> TimeSeriesMatrix:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        rows, linenos = [], []
        width = len(header)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != width:
                raise DataError(f"{path}:{lineno}: expected {width} columns, got {len(row)}")
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: non-numeric cell ({exc})") from None
            linenos.append(lineno)
    data = np.array(rows)
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        raise DataError(f"{path}:{linenos[bad[0, 0]]}: non-finite value in column {bad[0, 1]}")
    if len(rows) < 2:
        raise DataError(f"{path}: need at least 2 data rows")
    return TimeSeriesMatrix(data, channel_names=tuple(header))


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
            ar_coeffs=tuple(np.array(_numbers(a, "ar"), dtype=float) for a in obj.get("ar", [])),
            ma_coeffs=tuple(np.array(_numbers(b, "ma"), dtype=float) for b in obj.get("ma", [])),
            noise_cov=(np.array(_numbers(noise["cov"], "cov"), dtype=float)
                       if "cov" in noise else None),
            noise_family=noise.get("family", "gaussian"),
            noise_df=_numbers(noise["df"], "df") if "df" in noise else None,
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

# matrix entries of est.half formatted together: one table of distinct values
# per block of rows, whose temporaries stay small (3 rows, 110 kB at p = 48)
_BLOCK_ENTRIES = 1 << 13
# in a partner's "im" text (see _mirrors): a string led by something other
# than "-", a digit or "." -- "+1" or " 1" -- whose sign its text cannot flip
_UNFLIPPABLE = r",[^-0-9.]"


def _fmt_distinct(values: np.ndarray):
    """(texts, codes): `_fmt` of each distinct bit pattern of a float array,
    formatted once, and for each value the index of its text.

    Bit patterns, not values, are compared, so 0.0 and -0.0 stay apart.
    """
    bits, codes = np.unique(np.ascontiguousarray(values, dtype=float).view(np.int64),
                            return_inverse=True)
    return _fmt_all(bits.view(float).tolist()), codes.reshape(values.shape)


def _negated(text: str) -> str:
    """The `_fmt` text of -v, from the `_fmt` text of v."""
    if text[0] == "-":
        return text[1:]
    return text if text == "nan" else "-" + text


def _matrix_text(strings: np.ndarray) -> str:
    """A p x p array of quoted strings as json.dumps lays out the nested lists."""
    return "[" + ", ".join("[" + ", ".join(row) + "]" for row in strings.tolist()) + "]"


def _entry_text(j: int, real: np.ndarray, imag: np.ndarray, omega: str, lam) -> str:
    """One frequency entry, from its matrices of quoted strings, as
    json.dumps(entry, sort_keys=True) lays it out."""
    lam = "" if lam is None else f', "lambda": "{lam}"'
    return (f'{{"im": {_matrix_text(imag)}, "j": {j}{lam}, "omega": "{omega}", '
            f'"re": {_matrix_text(real)}}}')


def write_estimate(est: SpectralEstimate, path) -> None:
    """Write the text json.dump(obj, sort_keys=True) would write for the
    schema-v1 object of `est`, each float a string as `_fmt` gives it.

    The file lists every j in F_n in order, and row -j is conj(half[j]).  So
    only the rows j >= 0 are formatted, a block of rows at a time, and each
    distinct float of a block once; row -j takes row j's "re" strings and
    its "im" strings with the signs flipped.  Entries are laid out as
    json.dumps(entry, sort_keys=True) would; the header still goes through
    json.dumps, which escapes the channel names.  The rows j < 0 come first,
    -j running down from grid.half, so the blocks are formatted from the top
    row down; each row -j is written at once, and each block's table and
    codes are kept for the rows j >= 0 that follow.
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
    rows = len(est.half)
    omegas = _fmt_all(grid.frequency(j) for j in grid.indices.tolist())
    lams = [None] * rows if est.lambdas is None else _fmt_all(est.lambdas.tolist())
    step = max(1, _BLOCK_ENTRIES // est.p ** 2)
    blocks = []  # (first row, quoted texts, codes), top block first
    with open(path, "w") as fh:
        fh.write(head + '"frequencies": [')
        sep = ""
        for top in range(rows, 0, -step):
            lo = max(0, top - step)
            # the (re, im) pairs of rows lo..top-1 as floats, (rows, p, 2p)
            texts, codes = _fmt_distinct(
                np.ascontiguousarray(est.half[lo:top], dtype=complex).view(float))
            quoted = np.array([f'"{t}"' for t in texts], dtype=object)
            flipped = np.array([f'"{_negated(t)}"' for t in texts], dtype=object)
            codes = codes.astype(np.min_scalar_type(len(texts)))
            blocks.append((lo, quoted, codes))
            for j in range(min(top - 1, grid.half), max(lo, 1) - 1, -1):
                row = codes[j - lo]
                fh.write(sep + _entry_text(-j, quoted[row[:, 0::2]], flipped[row[:, 1::2]],
                                           omegas[grid.half - j], lams[j]))
                sep = ", "
        for lo, quoted, codes in reversed(blocks):
            for j, row in enumerate(codes, start=lo):
                fh.write(sep + _entry_text(j, quoted[row[:, 0::2]], quoted[row[:, 1::2]],
                                           omegas[grid.half + j], lams[j]))
                sep = ", "
        fh.write("]" + tail + "\n")


def _compact(obj: dict) -> dict:
    """json object_hook: each "re" and "im" that is a non-empty rectangular
    list of lists of strings becomes one tuple (rows, cols, text), its
    strings in row order in text, each led by "," (so none holds a ",").
    The string objects of an entry are then freed as soon as it is decoded;
    JSON decodes to no tuple, so anything else is kept as decoded."""
    for key in ("re", "im"):
        rows = obj.get(key)
        if not (type(rows) is list and rows and all(type(row) is list for row in rows)):
            continue
        cols = len(rows[0])
        if not (cols and all(len(row) == cols for row in rows)):
            continue
        try:
            text = "," + ",".join(map(",".join, rows))
        except TypeError:  # an entry that is not a string
            continue
        if text.count(",") == len(rows) * cols:
            obj[key] = (len(rows), cols, text)
    return obj


def _matrices(entry, j: int, p: int):
    """The "re" and "im" matrices of an entry, parsed as np.array(value,
    dtype=float) parses the decoded lists; each must be p x p."""
    parts = []
    for key in ("re", "im"):
        value = entry[key]
        if type(value) is tuple:
            rows, cols, text = value
            part = np.array(text[1:].split(","), dtype=float).reshape(rows, cols)
        else:
            part = np.array(_float_texts(value, key), dtype=float)
        if part.shape != (p, p):
            raise ValueError(f"matrix of shape {part.shape} at j = {j}, expected ({p}, {p})")
        parts.append(part)
    return parts


def _mirrors(entry, partner) -> bool:
    """Whether the j < 0 `entry` holds exactly the values of conj(`partner`),
    told from the text without parsing it: the same "re" strings, and "im"
    strings that are partner's, each with its leading "-" dropped or added.

    partner has parsed as floats, so none of its strings holds a NUL, and
    one led by "-", a digit or "." negates by its text.  False sends the
    entry to the full parse and numeric check.
    """
    real, imag, other = entry["re"], entry["im"], partner["im"]
    if not all(type(v) is tuple for v in (real, imag, other)):
        return False
    if real != partner["re"] or imag[:2] != other[:2] or re.search(_UNFLIPPABLE, other[2]):
        return False
    return imag[2] == other[2].replace(",-", ",\0").replace(",", ",-").replace(",-\0", ",")


def read_estimate(path) -> SpectralEstimate:
    """Read an estimate file into an estimate of the rows j >= 0.

    The file lists every j in F_n once, in any order.  While it is decoded,
    each matrix of strings becomes one text (`_compact`), which bounds the
    memory a read holds.  The entries j >= 0 are parsed into the rows; each
    j < 0 matrix and threshold must be exactly the conjugate of its j > 0
    partner's.  A j < 0 entry whose strings mirror its partner's
    (`_mirrors`) holds those values and is not parsed; any other is parsed
    and compared by value.  The header must give
    n, p and m as JSON integers and name one of the methods, a span m with
    2m+1 <= n, a finite positive eta (on adaptive_lasso, and only there) and
    a list of p channel names (when given).  Every entry carries a
    nonnegative threshold when the method is a threshold method, and none
    otherwise.
    """
    with open(path) as fh:
        try:
            obj = json.load(fh, object_hook=_compact)
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
        by_j = {}
        for entry in entries:
            j = _json_value(entry["j"], int, "j")
            if not grid.contains(j) or j in by_j:
                raise ValueError(f"frequency index {j} repeated or outside F_n")
            if ("lambda" in entry) != has_lambda:
                raise ValueError(f"threshold missing or extra at j = {j}")
            by_j[j] = entry
        half = lam_half = None
        for j in range(n // 2 + 1):
            real, imag = _matrices(by_j[j], j, p)
            if half is None:  # allocated once the header's p is confirmed
                half, lam_half = np.empty((n // 2 + 1, p, p), dtype=complex), np.zeros(n // 2 + 1)
            half[j].real, half[j].imag = real, imag
            if has_lambda:
                lam_half[j] = float(_float_texts(by_j[j]["lambda"], "lambda"))
        if not (np.isfinite(half).all() and np.isfinite(lam_half).all()):
            raise ValueError("non-finite matrix entry or threshold")
        if (lam_half < 0).any():
            raise ValueError("negative threshold")
        for j in range(1, grid.half + 1):
            entry, partner = by_j[-j], by_j[j]
            if not _mirrors(entry, partner):
                real, imag = _matrices(entry, -j, p)
                if not (np.array_equal(real, half[j].real) and np.array_equal(-imag, half[j].imag)):
                    raise ValueError("an entry at j < 0 is not the conjugate of the one at -j")
            if has_lambda and float(_float_texts(entry["lambda"], "lambda")) != lam_half[j]:
                raise ValueError("an entry at j < 0 is not the conjugate of the one at -j")
        m, method = _json_value(obj["m"], int, "m"), obj["method"]
        if m < 0 or 2 * m + 1 > n:
            raise ValueError(f"span m = {m} for n = {n}")
        if method not in ALL_METHODS:
            raise ValueError(f"unknown method {method!r}")
        eta = float(_float_texts(obj["eta"], "eta")) if "eta" in obj else None
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
