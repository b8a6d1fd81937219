"""Deterministic file formats: series CSV, model JSON, estimate JSON,
report CSV.  Writers produce identical bytes for identical objects
(stable key order, fixed float formatting).

Every float the package writes is formatted by `_fmt_all`, 17 significant
digits.  The estimate file lists every j in F_n as j = 0, 1, -1, 2, -2, ...;
its writer holds one block of rows j >= 0 at a time and formats each
distinct value of it once, and its reader keeps each matrix's strings as
one text while decoding and parses those texts with numpy's C float parser
(`np.loadtxt`), one call per half.  The bytes are those json.dump would
write."""

from __future__ import annotations

import csv
import json
from typing import Optional, Sequence

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


def _entry_text(j: int, real: str, imag: np.ndarray, grid: FourierGrid, lam) -> str:
    """One frequency entry, from the text of its "re" matrix (`_matrix_text`)
    and its "im" matrix of quoted strings, as json.dumps(entry,
    sort_keys=True) lays it out."""
    lam = "" if lam is None else f', "lambda": "{lam}"'
    return (f'{{"im": {_matrix_text(imag)}, "j": {j}{lam}, "omega": "{_fmt(grid.frequency(j))}", '
            f'"re": {real}}}')


def write_estimate(est: SpectralEstimate, path) -> None:
    """Write the schema-v1 object of `est` as the text json.dump(obj,
    sort_keys=True) would write, each float a string as `_fmt` gives it,
    but with the entries in the order j = 0, 1, -1, 2, -2, ...

    Row -j is conj(half[j]), so the rows j >= 0 are walked once, a block of
    rows at a time, and each distinct float of a block is formatted once;
    entry j is followed by its partner -j (when -j is in F_n), which shares
    its "re" text and takes its "im" strings with the signs flipped.  A
    write holds one block's texts.  The header goes through json.dumps,
    which escapes the channel names.
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
    lams = [None] * rows if est.lambdas is None else _fmt_all(est.lambdas.tolist())
    step = max(1, _BLOCK_ENTRIES // est.p ** 2)
    with open(path, "w") as fh:
        fh.write(head + '"frequencies": [')
        for lo in range(0, rows, step):
            # the (re, im) pairs of rows lo..lo+step-1 as floats, (rows, p, 2p)
            texts, codes = _fmt_distinct(
                np.ascontiguousarray(est.half[lo:lo + step], dtype=complex).view(float))
            quoted = np.array([f'"{t}"' for t in texts], dtype=object)
            flipped = np.array([f'"{_negated(t)}"' for t in texts], dtype=object)
            for j, row in enumerate(codes, start=lo):
                real = _matrix_text(quoted[row[:, 0::2]])
                entry = _entry_text(j, real, quoted[row[:, 1::2]], grid, lams[j])
                fh.write(f", {entry}" if j else entry)
                if 0 < j <= grid.half:
                    fh.write(", " + _entry_text(-j, real, flipped[row[:, 1::2]], grid, lams[j]))
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


def _loadtxt(texts: list, width: int) -> np.ndarray:
    return np.loadtxt(texts, delimiter=",", comments=None, usecols=range(1, width + 1))


def _unparsed(matrices: list, p: int) -> Optional[ValueError]:
    """An error naming the first string of the texts of `matrices` that
    numpy's parser rejects, with its j, key and entry [r][s] (numpy's own
    message counts rows and columns of the list of texts).  Found by
    parsing one text, then one string, at a time: for the error path only."""
    for j, key, value in matrices:
        if type(value) is not tuple:
            continue
        try:
            _loadtxt([value[2]], p * p)
        except ValueError:
            for k, text in enumerate(value[2].split(",")[1:]):
                try:
                    _loadtxt(["," + text], 1)
                except ValueError:
                    return ValueError(
                        f"could not parse {text!r} at j = {j}, {key}[{k // p}][{k % p}]")
    return None


def _parsed(matrices: list, p: int) -> np.ndarray:
    """The (j, key, value) `matrices` of estimate entries as one (len, p, p)
    float array.  Each must be p x p, checked (naming j) before any text is
    parsed; `_compact`'s texts then go through one np.loadtxt call, numpy's
    C float parser, past their empty first field (a string it rejects is
    named by `_unparsed`), and a matrix left as a list through
    np.array(value, dtype=float)."""
    texts, lists = [], {}
    for i, (j, key, value) in enumerate(matrices):
        if type(value) is tuple:
            texts.append(value[2])
        else:
            lists[i] = np.array(_float_texts(value, key), dtype=float)
        shape = lists[i].shape if i in lists else value[:2]
        if shape != (p, p):
            raise ValueError(f"matrix of shape {shape} at j = {j}, expected ({p}, {p})")
    parsed = np.empty(0)
    if texts:  # np.loadtxt warns on no input
        try:
            parsed = _loadtxt(texts, p * p)
        except ValueError as exc:
            raise _unparsed(matrices, p) or exc from None
    parsed = parsed.reshape(len(texts), p, p)
    if not lists:
        return parsed
    out = np.empty((len(matrices), p, p))
    out[[i for i in range(len(matrices)) if i not in lists]] = parsed
    out[list(lists)] = list(lists.values())
    return out


def read_estimate(path) -> SpectralEstimate:
    """Read an estimate file into an estimate of the rows j >= 0.

    The file lists every j in F_n once, in any order.  While it is decoded,
    each matrix of strings becomes one text (`_compact`), which bounds the
    memory a read holds.  One np.loadtxt call (`_parsed`) parses the "re"
    and "im" matrices of the entries j >= 0 into the rows, and one the "im"
    of the entries j < 0, which must be -imag(half[j]) by value; a j < 0
    "re" whose text is not its partner's is parsed and must be half[j].real.
    So each j < 0 matrix and threshold is exactly the conjugate of its
    partner's.  A string parses as numpy's parser reads it: an optionally
    signed ASCII decimal float, "inf", "infinity" or "nan" in any case,
    with optional surrounding whitespace; not "", "1_0" or digits that are
    not ASCII, which float() reads.  The header must give
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
        rows, neg = n // 2 + 1, range(1, grid.half + 1)
        parts = _parsed([(j, key, by_j[j][key]) for j in range(rows) for key in ("re", "im")], p)
        half = np.empty((rows, p, p), dtype=complex)
        half.real, half.imag = parts[0::2], parts[1::2]
        del parts
        lam_half = np.array([float(_float_texts(by_j[j]["lambda"], "lambda")) if has_lambda else 0.0
                             for j in range(rows)])
        if not (np.isfinite(half).all() and np.isfinite(lam_half).all()):
            raise ValueError("non-finite matrix entry or threshold")
        if (lam_half < 0).any():
            raise ValueError("negative threshold")
        imag = _parsed([(-j, "im", by_j[-j]["im"]) for j in neg], p)
        conjugate = np.array_equal(np.negative(imag, out=imag), half[1:grid.half + 1].imag)
        for j in neg:
            entry = by_j[-j]
            if entry["re"] != by_j[j]["re"]:
                conjugate &= np.array_equal(_parsed([(-j, "re", entry["re"])], p)[0], half[j].real)
            if has_lambda:
                conjugate &= float(_float_texts(entry["lambda"], "lambda")) == lam_half[j]
        if not conjugate:
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
