"""Byte-identity sweep: one sha256 per group of outputs.

A change meant to keep every output's bytes is checked by running this
script on the code before and after it and comparing the printed lines:

    python3 tests/hash_sweep.py                      # the package beside this script
    python3 tests/hash_sweep.py --src OTHER/src      # another checkout's package

Groups:

- estimates: the estimate and thresholds of all five methods from one
  tuned pass, at VMA p in {12, 24, 48, 66, 96} and VAR p in {81, 120,
  192}, seeds 0 and 1, n_splits 1 and 2;
- bench-jobs1, bench-jobs2: the files `run_benchmark` writes, with one and
  two worker processes, at VMA p in {12, 48, 66, 96} and VAR p in {81,
  120, 192};
- bench-reports: only the report tables `rmise.csv` and `support.csv` of
  both bench groups, AUC included: the same line shows that the reported
  numbers kept their bytes when a change moves only the ROC point files;
- cli: the files of a command-line pass simulate -> estimate (each method,
  tuned, and hard with a fixed lambda) -> evaluate -> coherence, at VMA
  p in {12, 48, 66};
- cli-entries: the same files, but each JSON file decoded, an estimate's
  "frequencies" sorted by j, and dumped again with sorted keys: the files'
  content whatever the order of their entries;
- alasso-eta: the estimate and thresholds of the adaptive lasso at eta 0.5
  and 1 from one tuned pass, at the sizes, seeds and n_splits of
  estimates (the other groups run eta 2 alone).

The sizes run pass blocks of 16, 15, 14 and 9 rows.  The script is not a
test module: pytest does not collect it.  It takes a few minutes on two
cores.
"""

import argparse
import hashlib
import importlib
import json
import os
import sys
import tempfile
from pathlib import Path

ALL_METHODS = ("smoothed", "shrinkage", "hard", "lasso", "adaptive_lasso")
# (family, p, n)
ESTIMATE_SIZES = [("vma", p, 200) for p in (12, 24, 48, 66, 96)] \
    + [("var", p, 200) for p in (81, 120, 192)]
BENCH_SIZES = [("vma", p, 160) for p in (12, 48, 66, 96)] + [("var", p, 160) for p in (81, 120, 192)]
CLI_SIZES = [("vma", p, 200) for p in (12, 48, 66)]


def hash_files(digest, directory: Path, entries=None) -> None:
    """Add the name and bytes of every file under `directory`, in name order.
    With `entries`, a second digest, add to it each JSON file decoded, its
    "frequencies" (if any) sorted by j and dumped with sorted keys, and
    every other file's bytes."""
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            name = str(path.relative_to(directory)).encode() + b"\0"
            data = path.read_bytes()
            digest.update(name + data)
            if entries is not None:
                if path.suffix == ".json":
                    obj = json.loads(data)
                    if "frequencies" in obj:
                        obj["frequencies"].sort(key=lambda entry: entry["j"])
                    data = json.dumps(obj, sort_keys=True).encode()
                entries.update(name + data)


def estimates(st, methods=None) -> str:
    digest = hashlib.sha256()
    if methods is None:
        methods = [st.ThresholdOperator(name) if name in st.estimator.THRESHOLD_METHODS else name
                   for name in ALL_METHODS]
    for family, p, n in ESTIMATE_SIZES:
        model = st.block_varma_model(p, family)
        m = st.default_span(n, "ma_like" if family == "vma" else "ar_like")
        for seed in (0, 1):
            x = st.simulate(model, n, seed=seed)
            for n_splits in (1, 2):
                for est in st.tuning.tuned_estimates(x, m, methods, 20, n_splits, seed):
                    digest.update(est.method.encode() + b"\0")
                    digest.update(est.half.tobytes())
                    if est.lambdas is not None:
                        digest.update(est.lambdas.tobytes())
    return digest.hexdigest()


def bench_files(st, jobs: int, work: Path, reports) -> str:
    """The digest of a bench group; add its report tables to `reports`."""
    digest = hashlib.sha256()
    for family, p, n in BENCH_SIZES:
        spec = st.bench.BenchmarkSpec(family=family, p_list=(p,), n_list=(n,),
                                      methods=ALL_METHODS, replicates=2, seed=3)
        out = work / f"bench-{family}-{p}-jobs{jobs}"
        cells = st.bench.run_benchmark(spec, out, jobs=jobs)
        if len(cells) != 1:
            raise SystemExit(f"bench cell {family} p={p} n={n} failed")
        hash_files(digest, out)
        for name in ("rmise.csv", "support.csv"):
            reports.update(f"{out.name}/{name}".encode() + b"\0" + (out / name).read_bytes())
    return digest.hexdigest()


def cli_files(st, work: Path) -> tuple:
    """The digests of the cli and cli-entries groups."""
    digest, entries = hashlib.sha256(), hashlib.sha256()
    for family, p, n in CLI_SIZES:
        out = work / f"cli-{family}-{p}"
        out.mkdir()
        model = out / "model.json"
        st.fileio.write_model(st.block_varma_model(p, family), model)
        series = out / "series.csv"
        passes = [["simulate", "--model", model, "--n", n, "--seed", 5, "--out", series]]
        paths = []
        runs = [(name, []) for name in ("smoothed", "shrinkage", "hard", "lasso", "alasso")]
        for method, fixed in runs + [("hard", ["--lambda", "0.15"])]:
            path = out / f"estimate-{method}{'-fixed' if fixed else ''}.json"
            passes.append(["estimate", "--series", series, "--method", method, "--seed", 2,
                           "--out", path, *fixed])
            paths.append(path)
        passes.append(["evaluate", "--model", model, "--out", out / "report.csv", *paths])
        passes += [["coherence", "--estimate", path, "--out", path.with_suffix(".graph.csv")]
                   for path in paths]
        for argv in passes:
            code = st.cli.main([str(arg) for arg in argv])
            if code != 0:
                raise SystemExit(f"specthresh {argv[0]} exited {code}")
        hash_files(digest, out, entries)
    return digest.hexdigest(), entries.hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                        help="directory holding the specthresh package (default: ../src)")
    args = parser.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    st = importlib.import_module("specthresh")
    for name in ("bench", "cli", "estimator", "fileio", "tuning"):
        importlib.import_module(f"specthresh.{name}")  # binds st.<name>
    print(f"package {Path(st.__file__).parent}", file=sys.stderr)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        print(f"estimates {estimates(st)}", flush=True)
        reports = hashlib.sha256()
        for jobs in (1, 2):
            print(f"bench-jobs{jobs} {bench_files(st, jobs, work, reports)}", flush=True)
        print(f"bench-reports {reports.hexdigest()}", flush=True)
        cli, cli_entries = cli_files(st, work)
        print(f"cli {cli}", flush=True)
        print(f"cli-entries {cli_entries}", flush=True)
    etas = [st.ThresholdOperator("adaptive_lasso", eta) for eta in (0.5, 1.0)]
    print(f"alasso-eta {estimates(st, etas)}", flush=True)


if __name__ == "__main__":
    main()
