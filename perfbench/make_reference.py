"""Writes perfbench/reference.json, the stored outputs the benchmark checks
against: each workload's tiny size at seed 0, and its full size at seeds
0..N-1.  Regenerate it only in a change that alters outputs on purpose.

    python3 perfbench/make_reference.py [--full-seeds N]
"""

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import threads

HERE = Path(__file__).resolve().parent
TOLERANCE = {"rel": 1e-9, "abs": 1e-12}


def unit_values(workloads, params, seed, tmp) -> dict:
    state = workloads.setup(params, seed, f"{tmp}/setup-{seed}")
    out = f"{tmp}/out-{seed}"
    res = workloads.run_unit(params, state, out)
    if res["failed"]:
        raise SystemExit(f"reference unit failed: {res['log']}")
    vals = workloads.values(params, workloads.read_outputs(out))
    shutil.rmtree(out)
    return vals


def main() -> None:
    threads.pin()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--full-seeds", type=int, default=20)
    args = ap.parse_args()
    sys.path.insert(0, str(HERE.parent / "src"))
    import workloads

    ref = {"tolerance": TOLERANCE, "tiny": {}, "full": {}}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for name, sizes in workloads.WORKLOADS.items():
            ref["tiny"][name] = unit_values(workloads, sizes["tiny"], 0, tmp)
            ref["full"][name] = {}
            for seed in range(args.full_seeds):
                ref["full"][name][str(seed)] = unit_values(workloads, sizes["full"], seed, tmp)
                print(name, seed, file=sys.stderr)
    with open(HERE / "reference.json", "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
