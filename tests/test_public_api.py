"""Smoke tests for the public surface: the names ``raagnorm`` exports and the
demo scripts that use them."""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import raagnorm

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
MODULES = sorted(
    p for p in Path(raagnorm.__file__).resolve().parent.glob("*.py") if p.name != "__init__.py"
)


def test_all_is_sorted_unique_and_resolves():
    names = raagnorm.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(raagnorm, name), name
    for removed in ("combine", "negate"):
        assert removed not in names and not hasattr(raagnorm, removed)


def test_no_cap_parameter_and_one_simplex_budget():
    callables = [getattr(raagnorm, name) for name in raagnorm.__all__]
    callables = [obj for obj in callables if callable(obj)]
    callables += [f for _, f in inspect.getmembers(raagnorm.FlagComplex, inspect.isfunction)]
    for obj in callables:
        assert "cap" not in inspect.signature(obj).parameters, obj
    assert not hasattr(raagnorm, "DEFAULT_CLIQUE_CAP")
    assert not hasattr(raagnorm.complexes, "DEFAULT_CLIQUE_CAP")
    assert "SIMPLEX_BUDGET" in raagnorm.__all__
    assert raagnorm.SIMPLEX_BUDGET == raagnorm.complexes.SIMPLEX_BUDGET == 2**20
    assert raagnorm.__all__ == sorted(raagnorm.__all__)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs_cleanly(demo):
    src = os.path.dirname(os.path.dirname(raagnorm.__file__))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


@pytest.mark.parametrize("module", MODULES, ids=[m.name for m in MODULES])
def test_no_unused_imports(module):
    tree = ast.parse(module.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported <= used, sorted(imported - used)
