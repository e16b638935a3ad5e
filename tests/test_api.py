import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import permfact

MODULES = sorted(m.name for m in pkgutil.iter_modules(permfact.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    module = importlib.import_module(f"permfact.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing


def _unused_imports(source: str) -> list:
    """Names a module imports and never uses.

    A name listed in __all__, or imported on a line carrying `# noqa: F401`,
    counts as used."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    source = (Path(permfact.__path__[0]) / f"{name}.py").read_text()
    assert _unused_imports(source) == []


def test_unused_import_detection():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from math import gcd, lcm  # noqa: F401\n"
        "from json import dumps, loads\n"
        "__all__ = ['loads']\n"
        "print(sys.argv)\n"
    )
    assert _unused_imports(source) == ["dumps (line 4)", "os (line 2)"]
