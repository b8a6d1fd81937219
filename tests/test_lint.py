"""Static checks on the package source."""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import pytest

from specthresh import cli, fileio, roc_points, threshold_estimate

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "specthresh"
PERFBENCH = ROOT / "perfbench"
# the code that may read a name the package defines (not tests, and not the
# re-exports of the package's __init__.py)
READERS = ("src", "demos", "perfbench")


def unused_imports(source: str) -> list:
    """Names bound by an import statement that the module never reads.

    `from __future__` imports are directives, not bindings, and are skipped.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


# __init__.py imports names to re-export them, not to use them
@pytest.mark.parametrize("path", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py"))
def test_no_unused_imports(path):
    assert unused_imports((PACKAGE / path).read_text()) == []


@pytest.mark.parametrize("source, want", [
    ("import numpy as np\n", [(1, "np")]),
    ("import os.path\nos.getcwd()\n", []),
    ("from a import b, c as d\nb()\n", [(1, "d")]),
    ("from __future__ import annotations\n", []),
    ("def f():\n    from a import b\n", [(2, "b")]),
    ("from a import T\ndef f(x: T) -> None:\n    pass\n", []),
])
def test_unused_imports_finds_unread_names(source, want):
    assert unused_imports(source) == want


def defined_names(source: str) -> list:
    """Names a module binds at its top level by def, class or assignment."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return names


def read_names(source: str) -> set:
    """Names a module reads: as a variable, as an attribute, or by importing them."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


MODULES = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}


def module_reads(source: str, module=None, exports=None) -> set:
    """(m, x) of each read of a name x of the package module m, counted only
    when it is read off m: as a bare name inside m itself (`module`), by
    `from .m import x` or `from specthresh.m import x`, as `a.x` of a name
    `a` bound to m (`from . import m as a`, `from specthresh import m`,
    `import specthresh.m as a`, or `specthresh.m.x`), and as `specthresh.x`
    or by `from specthresh import x` when x is re-exported from m
    (`exports`: name -> m, the imports of `__init__.py`)."""
    exports = exports or {}
    tree = ast.parse(source)
    out, bound = set(), {}  # bound: name -> its module, or "" for the package

    def off_package(name):
        if name in exports:
            out.add((exports[name], name))

    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            # the package module imported from: "" for the package itself
            # (`from . import`, `from specthresh import`), None for another
            if node.level == 1:
                origin = node.module or ""
            else:
                package, _, origin = (node.module or "").partition(".")
                origin = origin if package == "specthresh" else None
            if origin:
                out.update((origin, alias.name) for alias in node.names)
            elif origin == "":
                for alias in node.names:
                    if alias.name in MODULES:
                        bound[alias.asname or alias.name] = alias.name
                    else:
                        off_package(alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                package, _, sub = alias.name.partition(".")
                if package == "specthresh":  # `import specthresh.m` binds the package
                    bound[alias.asname or package] = sub if alias.asname else ""
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and module:
            out.add((module, node.id))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        owner = node.value
        if isinstance(owner, ast.Name) and owner.id in bound:
            if bound[owner.id]:
                out.add((bound[owner.id], node.attr))
            else:
                off_package(node.attr)
        elif isinstance(owner, ast.Attribute) and isinstance(owner.value, ast.Name) \
                and bound.get(owner.value.id) == "" and owner.attr in MODULES:
            out.add((owner.attr, node.attr))
    return out


def test_no_unread_module_names():
    """Every name a module of the package defines is read off that module
    (`module_reads`) by the package, a demo or the benchmark: a formula
    that only tests read lives in tests/oracles.py.  A read of the same name
    off another object (`numpy.__version__`) does not count.  Dunder names
    (`__version__`) are exempt: they are module metadata, read by tools and
    users, not by code."""
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exports = {alias.name: node.module for node in init.body if isinstance(node, ast.ImportFrom)
               for alias in node.names}
    reads = set()
    for folder in READERS:
        for path in (ROOT / folder).rglob("*.py"):
            if path != PACKAGE / "__init__.py":
                module = path.stem if path.parent == PACKAGE else None
                reads |= module_reads(path.read_text(), module, exports)
    unread = [(path.name, name) for path in sorted(PACKAGE.glob("*.py"))
              for name in defined_names(path.read_text())
              if not (name.startswith("__") and name.endswith("__"))
              and (path.stem, name) not in reads]
    assert unread == []


@pytest.mark.parametrize("source, module, want", [
    ("from .model import simulate, _x\nimport os\n", "bench",
     {("model", "simulate"), ("model", "_x")}),
    ("from specthresh.bench import truth_spectra\n", None, {("bench", "truth_spectra")}),
    ("from . import bench as b\nb.run_cell()\nb\n", "cli",
     {("bench", "run_cell"), ("cli", "b")}),
    ("from specthresh import bench, simulate\nbench.run_benchmark\n", None,
     {("bench", "run_benchmark"), ("model", "simulate")}),
    ("import specthresh\nspecthresh.simulate()\nspecthresh.bench.run_cell\nspecthresh.gone\n", None,
     {("model", "simulate"), ("bench", "run_cell")}),
    ("import specthresh.bench as sb\nsb.run_cell\n", None, {("bench", "run_cell")}),
    ("import specthresh.bench\nspecthresh.bench.run_cell\n", None, {("bench", "run_cell")}),
    # a bare name, or the same name off another module, is no read outside m
    ("import numpy\nnumpy.__version__\nsimulate(x)\nx.run_cell\n", None, set()),
    ("X = 1\ndef f():\n    return X + g()\n", "model", {("model", "X"), ("model", "g")}),
])
def test_module_reads_counts_reads_off_the_defining_module(source, module, want):
    assert module_reads(source, module, {"simulate": "model"}) == want


def test_no_module_builds_the_periodogram_stack():
    """No module of the package defines or reads `periodogram_all` (the
    whole (n, p, p) stack lives on only in tests/oracles.py), so the
    estimation pass cannot build the stack again unnoticed."""
    for path in PACKAGE.glob("*.py"):
        source = path.read_text()
        assert "periodogram_all" not in read_names(source) | set(defined_names(source)), path.name


def test_one_module_forms_periodograms():
    """Only the estimation pass reads the DFT and periodogram helpers, so no
    second tuning or estimation path can form its own periodograms."""
    readers = {path.name for path in PACKAGE.glob("*.py")
               if read_names(path.read_text()) & {"_dft", "_periodograms"}}
    assert readers == {"estimator.py"}


@pytest.mark.parametrize("source, want", [
    ("X = 1\ndef f():\n    g = 2\nclass C:\n    h = 3\n", ["X", "f", "C"]),
    ("a, (b, c) = 1, (2, 3)\nd: int = 4\nasync def e():\n    pass\n", ["a", "b", "c", "d", "e"]),
    ("import os\nif True:\n    Y = 1\n", []),
])
def test_defined_names_are_top_level_bindings(source, want):
    assert defined_names(source) == want


@pytest.mark.parametrize("source, want", [
    ("x = y\n", {"y"}),
    ("a.b.c()\n", {"a", "b", "c"}),
    ("from m import n as k\n", {"n"}),
    ("import m\nz = 1\n", set()),
])
def test_read_names_finds_loads_attributes_and_imports(source, want):
    assert read_names(source) == want


def third_party_imports(source: str) -> list:
    """Top-level modules of the absolute imports that are neither in the
    standard library nor numpy, the package's one runtime dependency."""
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module.split(".")[0])
    return sorted(modules - sys.stdlib_module_names - {"numpy"})


@pytest.mark.parametrize("path", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_imports_only_stdlib_and_numpy(path):
    assert third_party_imports((PACKAGE / path).read_text()) == []


@pytest.mark.parametrize("source, want", [
    ("import numpy.linalg\nimport os, json\nfrom __future__ import annotations\n", []),
    ("from . import bench\nfrom .model import simulate\n", []),
    ("from scipy.sparse.csgraph import connected_components\n", ["scipy"]),
    ("def f():\n    import pandas as pd\n", ["pandas"]),
])
def test_third_party_imports_finds_other_packages(source, want):
    assert third_party_imports(source) == want


def test_one_float_format():
    """Every float the package writes is formatted by fileio's `_fmt_all`."""
    counts = {path.name: path.read_text().count(".17g") for path in PACKAGE.glob("*.py")}
    assert {name: k for name, k in counts.items() if k} == {"fileio.py": 1}
    tree = ast.parse((PACKAGE / "fileio.py").read_text())
    owners = [node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
              and any(isinstance(c, ast.Constant) and c.value == ".17g" for c in ast.walk(node))]
    assert owners == ["_fmt_all"]


def local_imports(source: str) -> list:
    """Line numbers of the imports that are not at a module's top level."""
    tree = ast.parse(source)
    top = {id(node) for node in tree.body}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top]


@pytest.mark.parametrize("path", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_imports_at_module_level(path):
    """No module hides an import cycle behind an import inside a function."""
    assert local_imports((PACKAGE / path).read_text()) == []


@pytest.mark.parametrize("source, want", [
    ("import os\nfrom . import bench\n", []),
    ("def f():\n    from .fileio import g\n    import json\n", [2, 3]),
])
def test_local_imports_finds_function_level_imports(source, want):
    assert local_imports(source) == want


def private_imports(source: str, modules=("estimator", "tuning")) -> list:
    """`_`-prefixed names a module takes from the package's `modules`: by
    `from .module import _name`, or as `alias._name` of a module bound by
    `from . import module as alias`."""
    tree = ast.parse(source)
    found, aliases = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module in modules:
                found += [alias.name for alias in node.names if alias.name.startswith("_")]
            elif node.module is None:
                aliases |= {alias.asname or alias.name for alias in node.names
                            if alias.name in modules}
    found += [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name) and node.value.id in aliases
              and node.attr.startswith("_")]
    return sorted(found)


@pytest.mark.parametrize("path", ["bench.py", "cli.py"])
def test_front_ends_use_public_estimation_api(path):
    """bench and cli reach the estimators only through public names."""
    assert private_imports((PACKAGE / path).read_text()) == []


@pytest.mark.parametrize("source, want", [
    ("from .estimator import _a, b\nfrom .tuning import _c\n", ["_a", "_c"]),
    ("from .fileio import _fmt\nfrom .model import _x\n", []),
    ("from . import tuning as t\nt._tuned()\nt.tuned()\n", ["_tuned"]),
    ("from . import estimator\nestimator._rows\n", ["_rows"]),
    ("def f():\n    from .estimator import _a\n", ["_a"]),
])
def test_private_imports_finds_private_names(source, want):
    assert private_imports(source) == want


def test_benchmark_bound_parameter_names():
    """The benchmark's tracer binds parameters by name: weighted_graph of
    roc_points, argv of cli.main and path of every public fileio reader and
    writer (it calls threshold_estimate(x, m, op, lambdas) positionally).
    Renaming one breaks its traced runs, or, for path, silently counts 0
    bytes."""
    assert list(inspect.signature(threshold_estimate).parameters) == ["x", "m", "op", "lambdas"]
    assert "weighted_graph" in inspect.signature(roc_points).parameters
    assert "argv" in inspect.signature(cli.main).parameters
    file_io = [fn for name, fn in vars(fileio).items() if inspect.isfunction(fn)
               and fn.__module__ == fileio.__name__ and name.startswith(("read_", "write_"))]
    assert sorted(fn.__name__ for fn in file_io) == [
        "read_estimate", "read_model", "read_series",
        "write_estimate", "write_model", "write_report_csv", "write_series"]
    assert [fn.__name__ for fn in file_io if "path" not in inspect.signature(fn).parameters] == []


def package_attribute_reads(source: str) -> list:
    """(module, attribute) of each attribute a module reads off a name it
    binds to the package or to one of its modules: `import specthresh`
    binds "specthresh", `from specthresh import bench` "specthresh.bench"."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update({alias.asname or alias.name: alias.name for alias in node.names
                          if alias.name == "specthresh"})
        elif isinstance(node, ast.ImportFrom) and node.module == "specthresh":
            bound.update({alias.asname or alias.name: f"specthresh.{alias.name}"
                          for alias in node.names})
    return sorted({(bound[node.value.id], node.attr) for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                   and node.value.id in bound})


def test_benchmark_reads_existing_package_names():
    """Every attribute the benchmark (perfbench/, read here, never changed)
    reads off the package or its bench, cli and fileio modules exists, so a
    deletion the benchmark depends on fails here first."""
    reads = sorted({read for path in PERFBENCH.glob("*.py")
                    for read in package_attribute_reads(path.read_text())})
    assert ("specthresh.bench", "run_benchmark") in reads
    missing = [f"{module}.{attr}" for module, attr in reads
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []


@pytest.mark.parametrize("source, want", [
    ("import specthresh\nspecthresh.simulate(x)\n", [("specthresh", "simulate")]),
    ("from specthresh import bench as b, cli\nb.run_benchmark()\ncli.main\n",
     [("specthresh.bench", "run_benchmark"), ("specthresh.cli", "main")]),
    ("def f():\n    import specthresh\n    return specthresh.gone\n", [("specthresh", "gone")]),
    ("import numpy as np\nfrom os import path\nnp.zeros(3)\npath.join\nbench.x\n", []),
])
def test_package_attribute_reads_finds_reads_off_the_package(source, want):
    assert package_attribute_reads(source) == want


def test_traced_layers_import():
    """Every layer the benchmark's tracer wraps (`LAYERS` in
    perfbench/tracing.py) is a module of the package."""
    tree = ast.parse((PERFBENCH / "tracing.py").read_text())
    layers, = [ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
               and [target.id for target in node.targets if isinstance(target, ast.Name)]
               == ["LAYERS"]]
    assert layers
    for layer in layers:
        importlib.import_module(f"specthresh.{layer}")
