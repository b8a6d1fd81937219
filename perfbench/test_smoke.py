"""Smoke test of the benchmark at tiny sizes: the output schema and the
correctness path.  It sets no timing bounds.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT_COUNTS = ("tuning.operator_calls", "dft.periodogram_all.bytes", "metrics.roc_points.cuts",
                "bench.task_bytes", "fileio.bytes_written", "fileio.bytes_read")


@pytest.fixture
def workdir():
    path = ROOT / "perfbench" / ".work" / "smoke"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def bench(*argv, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--seconds", "0.5", "--size", "tiny", *argv]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_schema(workload, trace):
    proc = bench("--workload", workload, "--seed", "0", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    res = result(proc)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    listed = SPEC["end_to_end" if trace == 0 else "per_layer"]
    assert list(res["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if trace == 0:
            assert got["value"] > 0
    manifest = json.loads((ROOT / "perfbench" / "results" /
                           f"{workload}-seed0-trace{trace}.json").read_text())["manifest"]
    assert manifest["seed"] == 0 and manifest["threads"]["OPENBLAS_NUM_THREADS"] == "1"


@pytest.mark.parametrize("workload", ["vma-tuned-study", "cli-file-roundtrip"])
def test_exact_counts_repeat_across_runs(workload):
    runs = [result(bench("--workload", workload, "--seed", "3", "--trace", "1")) for _ in range(2)]
    counts = [{k: r["metrics"][k]["value"] for k in EXACT_COUNTS} for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["fileio.bytes_written"] > 0


def test_study_invariants_allow_roundoff_only():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    params = workloads.WORKLOADS["var-wide-baselines"]["tiny"]
    vals = {"rmise.csv:smoothed:rmise:mean": 50.0, "support.csv:smoothed:auc:mean": 0.9,
            "rmise.csv:shrinkage:rmise:mean": 40.0, "support.csv:shrinkage:auc:mean": 1 + 2**-52}
    assert workloads.study_invariants(params, vals) == []
    vals["support.csv:shrinkage:auc:mean"] = 1.001
    assert workloads.study_invariants(params, vals)
    vals["support.csv:shrinkage:auc:mean"] = 0.9
    vals["rmise.csv:shrinkage:rmise:mean"] = 60.0
    assert workloads.study_invariants(params, vals)


def copy_benchmark(dest: Path, with_sources: bool) -> Path:
    """A checkout of the benchmark (and the program's sources) under `dest`."""
    shutil.copytree(ROOT / "perfbench", dest / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    if with_sources:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def test_reference_mismatch_fails(workdir):
    copy = copy_benchmark(workdir / "copy", with_sources=True)
    path = copy / "perfbench" / "reference.json"
    ref = json.loads(path.read_text())
    values = ref["tiny"]["vma-tuned-study"]
    key = sorted(values)[0]
    values[key] *= 1.001
    path.write_text(json.dumps(ref))
    proc = bench("--workload", "vma-tuned-study", "--seed", "0", "--trace", "0", cwd=copy)
    assert proc.returncode != 0
    res = result(proc)
    assert res["correct"] is False and res["failed"] >= 1
    assert key in proc.stderr


def test_fails_without_program_sources(workdir):
    bare = copy_benchmark(workdir / "bare", with_sources=False)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
