"""Run a small estimator benchmark and print the resulting tables.

Each (dimension, sample-size) cell simulates independent replicates of the
block VMA(1) model, runs every requested estimator, and reports the mean
and standard deviation of the relative mean integrated squared error, plus
support-recovery scores for the thresholding methods.  Output CSVs land in
a temporary directory that is removed at exit; the same spec can be run
from the command line with `specthresh bench`.
"""

import csv
import tempfile
from pathlib import Path

from specthresh.bench import BenchmarkSpec, run_benchmark

spec = BenchmarkSpec(
    family="vma",
    p_list=(6, 12),
    n_list=(100, 200),
    methods=("smoothed", "shrinkage", "lasso", "adaptive_lasso"),
    replicates=5,
    seed=0,
)

with tempfile.TemporaryDirectory(prefix="specthresh_bench_") as tmp:
    out_dir = Path(tmp)
    cells = run_benchmark(spec, out_dir)
    print(f"wrote {len(list(out_dir.iterdir()))} files to {out_dir}\n")

    print("RMISE (mean %, sd in parentheses):")
    with open(out_dir / "rmise.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            print(
                f"  p={row['p']:>3} n={row['n']:>4} m={row['m']:>2}  "
                f"{row['method']:<14} {float(row['mean']):7.2f} ({float(row['sd']):.2f})"
            )

    print("\nsupport recovery of the thresholding methods:")
    with open(out_dir / "support.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            if row["metric"] in ("precision", "recall"):
                print(
                    f"  p={row['p']:>3} n={row['n']:>4}  {row['method']:<14} "
                    f"{row['metric']:<9} {100 * float(row['mean']):6.2f} %"
                )
