"""The benchmark's workloads: their inputs, one unit of work, and the checks
on what a unit writes.

A unit is one `run_benchmark` call (the study workloads) or one pass of the
command line through simulate -> estimate -> evaluate -> coherence (the
file workload).  Units of one run use the same seed, so they write the same
bytes.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import os

import numpy as np

import specthresh
from specthresh import bench, cli, fileio

FIVE_METHODS = ["smoothed", "shrinkage", "hard", "lasso", "adaptive_lasso"]

# "full" is the timed size; "tiny" is the fixed-seed reference check
# run before every timed loop, and the size of the smoke test.
WORKLOADS = {
    "vma-tuned-study": {
        "full": {"kind": "study", "family": "vma", "p": 48, "n": 400,
                 "methods": FIVE_METHODS, "replicates": 1, "jobs": 1},
        "tiny": {"kind": "study", "family": "vma", "p": 12, "n": 100,
                 "methods": FIVE_METHODS, "replicates": 2, "jobs": 1},
    },
    "var-wide-baselines": {
        "full": {"kind": "study", "family": "var", "p": 192, "n": 200,
                 "methods": ["smoothed", "shrinkage"], "replicates": 2, "jobs": 2},
        "tiny": {"kind": "study", "family": "var", "p": 12, "n": 60,
                 "methods": ["smoothed", "shrinkage"], "replicates": 2, "jobs": 2},
    },
    "cli-file-roundtrip": {
        "full": {"kind": "cli", "family": "vma", "p": 48, "n": 400, "method": "hard", "lambda": 0.15},
        "tiny": {"kind": "cli", "family": "vma", "p": 12, "n": 100, "method": "hard", "lambda": 0.15},
    },
}


def jobs_for(params: dict) -> int:
    return max(1, min(params.get("jobs", 1), len(os.sched_getaffinity(0))))


def setup(params: dict, seed: int, workdir: str) -> dict:
    """Build a workload's inputs: the benchmark spec, or the model file."""
    os.makedirs(workdir, exist_ok=True)
    if params["kind"] == "study":
        spec = bench.BenchmarkSpec(
            family=params["family"], p_list=(params["p"],), n_list=(params["n"],),
            methods=tuple(params["methods"]), replicates=params["replicates"], seed=seed,
        )
        return {"spec": spec, "jobs": jobs_for(params)}
    model_path = os.path.join(workdir, "model.json")
    fileio.write_model(specthresh.block_varma_model(params["p"], params["family"]), model_path)
    return {"model": model_path, "seed": seed}


def cli_passes(params: dict, state: dict, out_dir: str) -> list:
    def out(name):
        return os.path.join(out_dir, name)

    return [
        ["simulate", "--model", state["model"], "--n", str(params["n"]),
         "--seed", str(state["seed"]), "--out", out("series.csv")],
        ["estimate", "--series", out("series.csv"), "--method", params["method"],
         "--lambda", repr(params["lambda"]), "--out", out("estimate.json")],
        ["evaluate", "--model", state["model"], "--out", out("report.csv"), out("estimate.json")],
        ["coherence", "--estimate", out("estimate.json"), "--out", out("graph.csv")],
    ]


def run_unit(params: dict, state: dict, out_dir: str) -> dict:
    """One unit of work; returns operations attempted and failed, and
    replicates completed."""
    os.makedirs(out_dir, exist_ok=True)
    if params["kind"] == "study":
        log = io.StringIO()
        cells = bench.run_benchmark(state["spec"], out_dir, jobs=state["jobs"], log=log)
        failed = 1 - len(cells)
        return {"ops": 1, "failed": failed, "replicates": params["replicates"] * len(cells),
                "log": log.getvalue()}
    failed = 0
    for argv in cli_passes(params, state, out_dir):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        failed += code != 0
    return {"ops": 4, "failed": failed, "replicates": 1, "log": ""}


def read_outputs(out_dir: str) -> dict:
    files = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            files[name] = fh.read()
    return files


def _rows(data: bytes) -> list:
    return list(csv.DictReader(io.StringIO(data.decode())))


def _graph(data: bytes) -> np.ndarray:
    rows = list(csv.reader(io.StringIO(data.decode())))
    return np.array([[float(v) for v in row[1:]] for row in rows[1:]])


def values(params: dict, files: dict) -> dict:
    """The outputs compared against stored references: every report row
    (mean and sd), and for the coherence graph its row sums and maximum."""
    names = ("rmise.csv", "support.csv") if params["kind"] == "study" else ("report.csv",)
    out = {}
    for name in names:
        for row in _rows(files[name]):
            key = f"{name}:{row['method']}:{row['metric']}"
            out[key + ":mean"] = float(row["mean"])
            if row["sd"]:
                out[key + ":sd"] = float(row["sd"])
    if params["kind"] == "cli":
        g = _graph(files["graph.csv"])
        out.update({f"graph.csv:rowsum:{i}": float(s) for i, s in enumerate(g.sum(axis=1))})
        out["graph.csv:max"] = float(g.max())
    return out


def compare(actual: dict, expected: dict, rel: float, abs_tol: float) -> list:
    """Mismatches between two value dicts, as messages."""
    bad = [f"missing {k}" for k in sorted(set(expected) - set(actual))]
    bad += [f"unexpected {k}" for k in sorted(set(actual) - set(expected))]
    for k in sorted(set(actual) & set(expected)):
        if not math.isclose(actual[k], expected[k], rel_tol=rel, abs_tol=abs_tol):
            bad.append(f"{k}: {actual[k]!r} != reference {expected[k]!r}")
    return bad


THRESHOLD_METHODS = ("hard", "lasso", "adaptive_lasso")
# The trapezoid AUC of a perfect ranking can exceed 1 by roundoff.
RANGE_TOL = 1e-12


def study_invariants(params: dict, vals: dict) -> list:
    """Rows every study must write, their ranges, and the ordering the paper
    reports: on these sparse models every regularised method beats smoothing."""
    bad = []
    for method in params["methods"]:
        wanted = ["rmise.csv:%s:rmise", "support.csv:%s:auc"]
        if method in THRESHOLD_METHODS:
            wanted += ["support.csv:%s:precision", "support.csv:%s:recall", "support.csv:%s:f1"]
        for pattern in wanted:
            key = pattern % method + ":mean"
            if key not in vals:
                bad.append(f"missing row {key}")
            elif not math.isfinite(vals[key]) or vals[key] < -RANGE_TOL:
                bad.append(f"{key} = {vals[key]!r} out of range")
            elif not key.endswith(":rmise:mean") and vals[key] > 1 + RANGE_TOL:
                bad.append(f"{key} = {vals[key]!r} above 1")
    if not bad:
        base = vals["rmise.csv:smoothed:rmise:mean"]
        for method in params["methods"]:
            if method != "smoothed" and not vals[f"rmise.csv:{method}:rmise:mean"] < base:
                bad.append(f"{method} RMISE does not beat smoothing ({base!r})")
    return bad


# --------------------------------------------------------------- CLI oracle

ORACLE_REL = 1e-9


def _hard_threshold(f: np.ndarray, lam: float) -> np.ndarray:
    p = f.shape[-1]
    off = ~np.eye(p, dtype=bool)
    keep = (np.abs(f) >= lam) | ~off
    return np.where(keep, f, 0.0)


def cli_oracle(params: dict, files: dict, model_path: str) -> list:
    """Recompute the estimate, the report and the coherence graph of one CLI
    pass from its series file with plain numpy (FFT periodograms, a circular
    window sum and the closed-form VMA(1) spectrum), independently of the
    package, and list the disagreements."""
    n, p, lam = params["n"], params["p"], params["lambda"]
    x = np.loadtxt(io.StringIO(files["series.csv"].decode()), delimiter=",", skiprows=1, ndmin=2)
    if x.shape != (n, p):
        return [f"series.csv has shape {x.shape}, expected {(n, p)}"]
    m = int(round(math.sqrt(n)))
    d = np.fft.fft(x - x.mean(axis=0), axis=0) / math.sqrt(n)
    raw = d[:, :, None] * d[:, None, :].conj()
    ext = np.concatenate([raw[n - m:], raw, raw[:m]])
    csum = np.concatenate([np.zeros((1, p, p), complex), np.cumsum(ext, axis=0)])
    smooth = (csum[2 * m + 1:] - csum[:n]) / (2 * math.pi * (2 * m + 1))

    est = json.loads(files["estimate.json"])
    bad = []
    if (est["n"], est["p"], est["m"], est["method"]) != (n, p, m, params["method"]):
        bad.append(f"estimate header {(est['n'], est['p'], est['m'], est['method'])}")
    js = [int(e["j"]) for e in est["frequencies"]]
    if sorted(js) != list(range(-((n - 1) // 2), n // 2 + 1)):
        return bad + ["estimate does not cover the Fourier grid"]
    mats = np.array([np.array(e["re"], float) + 1j * np.array(e["im"], float)
                     for e in est["frequencies"]])
    lams = [float(e["lambda"]) for e in est["frequencies"]]
    if any(v != lam for v in lams):
        bad.append("estimate lambdas differ from the fixed lambda")
    f = smooth[np.array(js) % n]
    want = _hard_threshold(f, lam)
    # entries within roundoff of the threshold may fall either way
    clear = np.abs(np.abs(f) - lam) > ORACLE_REL * lam
    err = np.max(np.abs(mats - want)[clear])
    if err > ORACLE_REL * np.max(np.abs(want)):
        bad.append(f"estimate differs from the oracle by {err:.3g}")

    with open(model_path) as fh:
        model = json.load(fh)
    b = np.array(model["ma"][0], float)
    cov = np.array(model["noise"]["cov"], float)
    z = np.exp(-2j * math.pi * np.array(js) / n)
    h = np.eye(p) + b[None] * z[:, None, None]
    truth = h @ cov @ h.conj().transpose(0, 2, 1) / (2 * math.pi)
    rmise = 100 * np.sum(np.abs(mats - truth) ** 2) / np.sum(np.abs(truth) ** 2)
    off = ~np.eye(p, dtype=bool)
    est_nz = (np.abs(mats) > 0) & off
    true_nz = (np.abs(truth) > 1e-12 * np.max(np.abs(truth))) & off
    hits = (est_nz & true_nz).sum(axis=(1, 2))
    n_est, n_true = est_nz.sum(axis=(1, 2)), true_nz.sum(axis=(1, 2))
    prec = np.where(n_est > 0, hits / np.maximum(n_est, 1), 1.0)
    rec = np.where(n_true > 0, hits / np.maximum(n_true, 1), 1.0)
    f1 = np.where(prec + rec > 0, 2 * prec * rec / np.where(prec + rec > 0, prec + rec, 1), 0.0)
    want_report = {"rmise": rmise, "precision": prec.mean(), "recall": rec.mean(), "f1": f1.mean()}
    got_report = {row["metric"]: float(row["mean"]) for row in _rows(files["report.csv"])}
    bad += ["report.csv " + s for s in compare(got_report, want_report, ORACLE_REL, 1e-12)]

    diag = np.real(np.diagonal(mats, axis1=1, axis2=2))
    coh = np.abs(mats) / np.sqrt(diag[:, :, None] * diag[:, None, :])
    graph = coh.mean(axis=0)
    np.fill_diagonal(graph, 0.0)
    graph = 0.5 * (graph + graph.T)
    got = _graph(files["graph.csv"])
    if got.shape != graph.shape or not np.allclose(got, graph, rtol=ORACLE_REL, atol=1e-12):
        bad.append("graph.csv differs from the oracle coherence graph")
    return bad


def _same(a, b) -> bool:
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b) and np.asarray(a).dtype == np.asarray(b).dtype
    return type(a) is type(b) and a == b


def roundtrip_check(params: dict, files: dict, workdir: str) -> list:
    """An estimate computed in memory must write the bytes the CLI wrote, and
    read_estimate(write_estimate(e)) must return exactly e."""
    os.makedirs(workdir, exist_ok=True)
    series = os.path.join(workdir, "series.csv")
    with open(series, "wb") as fh:
        fh.write(files["series.csv"])
    x = fileio.read_series(series)
    m = int(round(math.sqrt(x.n)))
    op = specthresh.ThresholdOperator(params["method"])
    e = specthresh.threshold_estimate(x, m, op, {j: params["lambda"] for j in range(x.n // 2 + 1)})
    path = os.path.join(workdir, "roundtrip.json")
    fileio.write_estimate(e, path)
    with open(path, "rb") as fh:
        written = fh.read()
    back = fileio.read_estimate(path)
    bad = []
    if written != files["estimate.json"]:
        bad.append("write_estimate of the in-memory estimate differs from the CLI's file")
    for field in dataclasses.fields(e):
        if not _same(getattr(e, field.name), getattr(back, field.name)):
            bad.append(f"read_estimate(write_estimate(e)).{field.name} != e.{field.name}")
    return bad
