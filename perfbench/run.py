"""Benchmark of the specthresh pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  `--trace 0` times units of the workload
untraced for S seconds and reports the end-to-end metrics; `--trace 1`
alternates untraced and traced units and reports the per-layer metrics of
BENCHMARK.json.  Either way the outputs are checked (see README.md), a
results file with the run manifest goes to perfbench/results/, and the last
line of standard output is one JSON object.  The exit code is 0 only when
every operation and check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import threads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 15
REFERENCE_SEED = 0


class Ledger:
    """Operations and checks attempted and failed in one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks: list = []

    def ops(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    def check(self, name: str, problems: list) -> None:
        self.ops(1, 1 if problems else 0)
        self.checks.append({"check": name, "ok": not problems, "problems": problems[:20]})
        for msg in problems[:20]:
            print(f"check failed: {name}: {msg}", file=sys.stderr)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs the reference-size workload (smoke test)")
    return ap.parse_args(argv)


def unit_dir(work: Path, tag: str) -> str:
    path = work / tag
    shutil.rmtree(path, ignore_errors=True)
    return str(path)


def timed_unit(workloads, params, state, out_dir, ledger):
    start = time.perf_counter()
    res = workloads.run_unit(params, state, out_dir)
    seconds = time.perf_counter() - start
    ledger.ops(res["ops"], res["failed"])
    if res["log"]:
        print(res["log"], file=sys.stderr, end="")
    files = workloads.read_outputs(out_dir)
    return seconds, res, files


def reference_checks(workloads, args, refs, work, ledger):
    """Checks a fixed-seed tiny run of the workload against its stored
    reference (this also warms every code path before timing); returns the
    stored full-size reference for this seed, or None."""
    tol = refs["tolerance"]
    tiny = workloads.WORKLOADS[args.workload]["tiny"]
    state = workloads.setup(tiny, REFERENCE_SEED, str(work / "tiny-setup"))
    out = unit_dir(work, "tiny")
    _, _, files = timed_unit(workloads, tiny, state, out, ledger)
    ledger.check("tiny reference", workloads.compare(
        workloads.values(tiny, files), refs["tiny"][args.workload], tol["rel"], tol["abs"]))
    shutil.rmtree(out)
    return refs["full"][args.workload].get(str(args.seed))


def output_checks(workloads, args, params, state, files, refs, full_ref, work, ledger) -> None:
    vals = workloads.values(params, files)
    if params["kind"] == "study":
        ledger.check("study invariants", workloads.study_invariants(params, vals))
    else:
        ledger.check("cli oracle", workloads.cli_oracle(params, files, state["model"]))
        ledger.check("estimate round trip", workloads.roundtrip_check(params, files, str(work / "rt")))
    expected = full_ref if args.size == "full" else (
        refs["tiny"][args.workload] if args.seed == REFERENCE_SEED else None)
    if expected is not None:
        tol = refs["tolerance"]
        ledger.check("stored reference for this seed",
                     workloads.compare(vals, expected, tol["rel"], tol["abs"]))


def timed_loop(workloads, args, params, state, work, ledger, forks) -> dict:
    samples, replicates, sizes, first, setups = [], 0, [], None, []
    deadline = time.perf_counter() + args.seconds
    while True:
        out = unit_dir(work, f"unit{len(samples)}")
        seconds, res, files = timed_unit(workloads, params, state, out, ledger)
        shutil.rmtree(out)
        samples.append(seconds)
        replicates += res["replicates"]
        sizes.append(sum(len(b) for b in files.values()))
        if first is None:
            first = files
        else:
            ledger.check(f"unit {len(samples) - 1} output equals unit 0",
                         [] if files == first else ["output bytes differ"])
        # set-up probes between units sample the machine across the whole run
        if len(setups) < SETUP_PROBES:
            setups.append(setup_time(args, work, ledger))
        if time.perf_counter() + seconds > deadline:
            break
    while len(setups) < SETUP_PROBES:
        setups.append(setup_time(args, work, ledger))
    setups = [t for t in setups if t is not None]
    if not setups:
        raise RuntimeError("every set-up probe failed")
    rss = peak_rss(state.get("jobs", 1), forks.kb)
    return {
        "files": first,
        "samples_s": samples,
        "setup_samples_s": setups,
        "metrics": {
            # Set-up is fixed work of about 0.1 s that interference from
            # the rest of the machine only lengthens, so the fastest probe
            # is its steadiest estimate.
            "setup_s": min(setups),
            "replicates_per_s": replicates / sum(samples),
            "roundtrip_s": statistics.median(samples),
            "output_mb": statistics.median(sizes) / 1e6,
            "peak_rss_mb": rss["peak_kb"] / 1024.0,
        },
        "rss_kb": rss,
    }


class ForkRss:
    """Resident size of this process each time it forks a pool worker;
    `record` is registered with `os.register_at_fork`."""

    def __init__(self):
        self.kb: list = []

    def record(self) -> None:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
        self.kb.append(pages * os.sysconf("SC_PAGE_SIZE") // 1024)


def peak_rss(jobs: int, fork_kb: list) -> dict:
    """Peak resident memory of the benchmark process and its pool workers.

    A forked worker's peak includes what it inherited resident from this
    process at the fork, so only its growth beyond that counts, once per
    worker.  The largest worker is paired with the largest fork, the one
    made while the timed workload ran (the reference check forks smaller).
    """
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    inherited_kb = max(fork_kb, default=0)
    growth_kb = max(child_kb - inherited_kb, 0) if jobs > 1 else 0
    return {"self_kb": self_kb, "largest_child_kb": child_kb, "inherited_at_fork_kb": inherited_kb,
            "forks": len(fork_kb), "jobs": jobs, "peak_kb": self_kb + jobs * growth_kb}


def setup_time(args, work, ledger):
    """One set-up in a fresh interpreter (`setup_probe.py`); None if it failed."""
    probe = work / "probe"
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(ROOT), args.workload,
           args.size, str(args.seed), str(probe)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=str(ROOT))
    shutil.rmtree(probe, ignore_errors=True)
    ledger.ops(1, 0 if proc.returncode == 0 else 1)
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        return None
    return float(proc.stdout.strip().splitlines()[-1])


def traced_loop(workloads, tracing, args, params, state, work, ledger) -> dict:
    spill = work / "spill"
    spill.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer(str(spill))
    untraced, traced, units = [], [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        k = len(traced)
        out = unit_dir(work, f"plain{k}")
        seconds, _, plain_files = timed_unit(workloads, params, state, out, ledger)
        shutil.rmtree(out)
        untraced.append(seconds)
        out = unit_dir(work, f"traced{k}")
        tracer.run_id = k
        inst = tracing.Instrumentation(tracer).install()
        try:
            seconds, _, traced_files = timed_unit(workloads, params, state, out, ledger)
        finally:
            inst.uninstall()
        shutil.rmtree(out)
        traced.append(seconds)
        spans, counts = tracer.take()
        units.append({"spans": spans, "counts": counts})
        ledger.check(f"traced unit {k} output equals untraced",
                     [] if traced_files == plain_files else ["output bytes differ"])
        if time.perf_counter() + untraced[-1] + traced[-1] > deadline:
            break
    ledger.check("exact counts repeat across units",
                 [f"unit {i}: {u['counts']} != {units[0]['counts']}"
                  for i, u in enumerate(units) if u["counts"] != units[0]["counts"]])
    return {"untraced_s": untraced, "traced_s": traced, "units": units, "files": plain_files}


def layer_metrics(tracing, state, traced: dict) -> tuple:
    """Per-unit per-layer metrics from the traced units."""
    summaries = [tracing.summarize(u["spans"]) for u in traced["units"]]
    k = len(summaries)
    names = sorted({n for s in summaries for n in s["busy_s"]})
    out: dict = {}
    for name in names:
        out[f"{name}.busy_s"] = sum(s["busy_s"].get(name, 0.0) for s in summaries) / k
        out[f"{name}.calls"] = sum(s["calls"].get(name, 0) for s in summaries) / k
    for name, value in traced["units"][0]["counts"].items():
        out[name] = value
    total_self = sum(sum(s["self_s"].values()) for s in summaries) / k
    for layer in tracing.LAYERS:
        self_s = sum(s["self_s"][layer] for s in summaries) / k
        out[f"layer.{layer}.self_s"] = self_s
        out[f"layer.{layer}.self_share"] = self_s / total_self if total_self else 0.0
    cell = out.get("bench.run_cell.busy_s", 0.0)
    jobs = state.get("jobs", 1)
    out["bench.parallel_efficiency"] = (
        out.get("bench.run_replicate.busy_s", 0.0) / (jobs * cell) if cell else 0.0)
    plain = statistics.median(traced["untraced_s"])
    out["trace.overhead_s"] = statistics.median(traced["traced_s"]) - plain
    out["trace.overhead_ratio"] = out["trace.overhead_s"] / plain
    share = {name[: -len(".busy_s")]: v / total_self for name, v in out.items()
             if name.endswith(".busy_s") and total_self}
    return out, share


def manifest(args, params, pinned) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older numpy has no dict mode
        blas = None
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=str(ROOT), timeout=30)
        sha = proc.stdout.strip() or None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "threads": pinned,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "params": params,
        "platform": platform.platform(),
    }


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run(args, work: Path, pinned: dict, forks: ForkRss) -> tuple:
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    spec = load_spec()
    with open(HERE / "reference.json") as fh:
        refs = json.load(fh)
    params = workloads.WORKLOADS[args.workload][args.size]
    ledger = Ledger()
    state = workloads.setup(params, args.seed, str(work / "setup"))
    full_ref = reference_checks(workloads, args, refs, work, ledger)
    report: dict = {"reference": {"tiny_seed": REFERENCE_SEED,
                                  "full_reference_for_seed": full_ref is not None}}
    if args.trace == 0:
        timed = timed_loop(workloads, args, params, state, work, ledger, forks)
        report["samples_s"] = timed["samples_s"]
        report["rss_kb"] = timed["rss_kb"]
        report["setup_samples_s"] = timed["setup_samples_s"]
        output_checks(workloads, args, params, state, timed["files"], refs, full_ref, work, ledger)
        computed = timed["metrics"]
        listed = spec["end_to_end"]
    else:
        traced = traced_loop(workloads, tracing, args, params, state, work, ledger)
        output_checks(workloads, args, params, state, traced["files"], refs, full_ref, work, ledger)
        computed, share = layer_metrics(tracing, state, traced)
        report.update(untraced_s=traced["untraced_s"], traced_s=traced["traced_s"],
                      busy_share_of_work=share, computed_counts=list(tracing.COMPUTED_COUNTS))
        spans_path = HERE / "results" / f"{args.workload}-seed{args.seed}-spans.jsonl"
        spans_path.parent.mkdir(exist_ok=True)
        with open(spans_path, "w") as fh:
            for u in traced["units"]:
                for s in u["spans"]:
                    fh.write(json.dumps({"id": s[0], "parent": s[1], "name": s[2], "start": s[3],
                                         "end": s[4], "pid": s[5], "run": s[6]}) + "\n")
        listed = spec["per_layer"]
    metrics = {}
    for m in listed:
        # a layer function the workload never calls did no work in it
        value = computed.get(m["name"], 0 if args.trace else None)
        if value is None:
            raise RuntimeError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    report.update(manifest=manifest(args, params, pinned), checks=ledger.checks,
                  all_metrics=computed, attempted=ledger.attempted, failed=ledger.failed,
                  failed_ratio=ledger.failed / max(ledger.attempted, 1))
    out = HERE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    with open(out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True, default=str)
    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}
    return result, report


def main(argv=None) -> int:
    pinned = threads.pin()
    args = parse_args(argv)
    if not (SRC / "specthresh" / "__init__.py").is_file():
        print(f"error: no specthresh sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import specthresh

    if Path(specthresh.__file__).resolve().parent != (SRC / "specthresh").resolve():
        print(f"error: imported specthresh from {specthresh.__file__}, not {SRC}", file=sys.stderr)
        return 2
    forks = ForkRss()
    os.register_at_fork(before=forks.record)
    work = HERE / ".work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        result, report = run(args, work, pinned, forks)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if args.trace == 0:
        print(f"units timed = {len(report['samples_s'])}; setup samples = {len(report['setup_samples_s'])}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
