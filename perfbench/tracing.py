"""Span tracing of specthresh's layer boundaries, installed from outside the package.

`Instrumentation` replaces every public function of each layer module, in
every specthresh module that binds it, with a wrapper that records a span
(id, parent, name, start, end, pid, run id) in memory.  The package source
is not touched; `uninstall` restores the original bindings.

Forked pool workers inherit the wrappers.  A worker keeps its own spans and
writes them to a spill file in `spill_dir` each time its outermost traced
call returns, because pool workers have no reliable exit hook; the parent
reads the spill files back with `Tracer.take`.

Counting does not add to the traced program's time: tasks sent to a
process pool are kept by reference and pickled to count their bytes only in
`Tracer.take`, after the traced unit has been timed.
"""

from __future__ import annotations

import functools
import glob
import inspect
import json
import os
import pickle
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

LAYERS = ("model", "dft", "estimator", "tuning", "metrics", "fileio", "bench", "cli")

# Counts derived from argument or array sizes rather than observed work.
COMPUTED_COUNTS = ("tuning.operator_calls", "dft.periodogram_all.bytes", "metrics.roc_points.cuts")


class Tracer:
    """In-memory span and counter store of one process."""

    def __init__(self, spill_dir: str):
        self.spill_dir = spill_dir
        self.pid = os.getpid()
        self.worker = False
        self.remote_parent = None
        self.run_id = 0
        self.spans: list = []
        self.counts: dict = {}
        self.tasks: list = []  # pool tasks whose pickled size is counted in take()
        self.stack: list = []
        self.seq = 0

    def count(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(value)

    def close(self, sid, parent, name, start, end) -> None:
        self.stack.pop()
        self.spans.append((sid, parent, name, start, end, self.pid, self.run_id))
        if self.worker and not self.stack:
            self.spill()

    def adopt_fork(self) -> None:
        # First traced call in a forked worker: what was recorded before the
        # fork belongs to the parent, and the span open at the fork becomes
        # the parent of this worker's top-level spans.
        self.remote_parent = self.stack[-1] if self.stack else None
        self.pid = os.getpid()
        self.worker = True
        self.spans, self.counts, self.stack = [], {}, []

    def spill(self) -> None:
        path = os.path.join(self.spill_dir, f"spill-{self.pid}.jsonl")
        with open(path, "a") as fh:
            fh.write(json.dumps({"spans": self.spans, "counts": self.counts}) + "\n")
        self.spans, self.counts = [], {}

    def take(self) -> tuple:
        """Spans and counts of this process and its workers since the last take."""
        spans, counts = self.spans, dict(self.counts)
        if self.tasks:
            counts["bench.task_bytes"] = sum(len(pickle.dumps(t)) for t in self.tasks)
        for path in sorted(glob.glob(os.path.join(self.spill_dir, "spill-*.jsonl"))):
            with open(path) as fh:
                for line in fh:
                    rec = json.loads(line)
                    spans.extend(tuple(s) for s in rec["spans"])
                    for k, v in rec["counts"].items():
                        counts[k] = counts.get(k, 0) + v
            os.remove(path)
        self.spans, self.counts, self.tasks = [], {}, []
        return spans, counts


def _bind(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _file_size(path) -> int:
    return os.path.getsize(path) if path is not None and os.path.exists(path) else 0


def _hook(qualname: str, fn):
    """Per-function span renaming and counters; None for plain spans."""
    if qualname == "tuning.tuned_threshold_estimate":
        def hook(t, args, kwargs, result):
            a = _bind(fn, args, kwargs)
            # (floor(n/2)+1) frequencies, each G*splits tuning calls + 1 final call
            t.count("tuning.operator_calls",
                    (a["x"].n // 2 + 1) * (a["grid_size"] * a["n_splits"] + 1))
            return f"{qualname}.{a['op'].kind}"
        return hook
    if qualname == "dft.periodogram_all":
        def hook(t, args, kwargs, result):
            t.count("dft.periodogram_all.bytes", result.nbytes)
        return hook
    if qualname == "metrics.roc_points":
        def hook(t, args, kwargs, result):
            g = np.asarray(_bind(fn, args, kwargs)["weighted_graph"], dtype=float)
            t.count("metrics.roc_points.cuts", np.unique(g[np.triu_indices(g.shape[0], k=1)]).size)
        return hook
    if qualname.startswith(("fileio.write_", "fileio.read_")):
        key = "fileio.bytes_written" if ".write_" in qualname else "fileio.bytes_read"

        def hook(t, args, kwargs, result):
            t.count(key, _file_size(_bind(fn, args, kwargs).get("path")))
        return hook
    if qualname == "cli.main":
        def hook(t, args, kwargs, result):
            argv = _bind(fn, args, kwargs)["argv"]
            if result != 0:
                t.count("cli.nonzero_exits", 1)
            return f"cli.{argv[0]}"
        return hook
    return None


def _wrap(tracer: Tracer, qualname: str, fn):
    hook = _hook(qualname, fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        t = tracer
        if os.getpid() != t.pid:
            t.adopt_fork()
        parent = t.stack[-1] if t.stack else t.remote_parent
        t.seq += 1
        sid = f"{t.pid}-{t.seq}"
        t.stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            t.close(sid, parent, qualname, start, time.perf_counter())
            raise
        end = time.perf_counter()
        name = (hook(t, args, kwargs, result) if hook else None) or qualname
        t.close(sid, parent, name, start, end)
        return result

    return traced


class Instrumentation:
    """Installs tracing wrappers into the imported specthresh modules."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.patched: list = []  # (module, attribute, original)

    def install(self) -> "Instrumentation":
        import importlib

        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"specthresh.{layer}")
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    wrappers[id(obj)] = (obj, _wrap(self.tracer, f"{layer}.{name}", obj))
        tracer = self.tracer

        class CountingPool(ProcessPoolExecutor):
            """Keeps every task sent to the pool, so that `take` can count
            its pickled size."""

            def submit(self, fn, /, *args, **kwargs):
                tracer.tasks.append((fn, args, kwargs))
                return super().submit(fn, *args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "specthresh" or mod_name.startswith("specthresh.")):
                continue
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers and wrappers[id(val)][0] is val:
                    self._set(mod, attr, wrappers[id(val)][1])
                elif val is ProcessPoolExecutor:
                    self._set(mod, attr, CountingPool)
        return self

    def _set(self, mod, attr, new) -> None:
        self.patched.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, new)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self.patched):
            setattr(mod, attr, original)
        self.patched = []


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def summarize(spans) -> dict:
    """Busy time (span length) and call count per span name, and self time
    (span length minus the union of its child spans, in any process) per layer."""
    children: dict = {}
    for s in spans:
        children.setdefault(s[1], []).append((s[3], s[4]))
    busy: dict = {}
    calls: dict = {}
    self_s = {layer: 0.0 for layer in LAYERS}
    for sid, _parent, name, start, end, _pid, _run in spans:
        busy[name] = busy.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        own = (end - start) - _covered(children.get(sid, ()), start, end)
        layer = name.split(".", 1)[0]
        self_s[layer] = self_s.get(layer, 0.0) + own
    return {"busy_s": busy, "calls": calls, "self_s": self_s}
