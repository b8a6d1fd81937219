"""Static checks on the package source."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "specthresh"


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
