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


def test_cli_import_brings_in_neither_dataclasses_nor_inspect():
    """Start-up cost of every CLI process: the library's imports add no
    ``dataclasses`` and no ``inspect`` (with its ``ast``, ``dis`` and
    ``tokenize``) to what the interpreter had already loaded."""
    src = os.path.dirname(os.path.dirname(raagnorm.__file__))
    code = (
        "import sys; before = set(sys.modules); import raagnorm.cli; "
        "print(sorted(set(sys.modules) - before))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    added = set(ast.literal_eval(proc.stdout))
    assert "raagnorm.cli" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize"}, sorted(added)


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


def _callers(tree, name, prefix):
    """Qualified names of the functions in ``tree`` whose own body (not a
    nested function's) calls ``name``."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Call) and getattr(child.func, "id", None) == name:
                found.add(scope)
            visit(child, scope)

    visit(tree, prefix)
    return found


def test_two_clique_counts_charge_the_simplex_budget():
    """One walk of the cliques serves ``f_vector``, ``simplices_by_dim`` and
    the star pass of ``link_euler``; the L2 path counts small links over
    bit masks. A third count that charges the budget shows up here."""
    callers = set()
    for module in MODULES:
        callers |= _callers(ast.parse(module.read_text()), "_check_budget", module.stem)
    assert callers == {"complexes._clique_walk", "l2._link_f_vector"}


def test_one_star_pass_and_the_simplex_lists_read_the_clique_walk():
    """The star pass serves ``f_vector``, ``link_euler`` and the links' top
    dimensions of ``link_betti``; ``simplices_by_dim`` builds the cores'
    simplices. A second reader of the walk, such as a separate clique
    search, shows up here."""
    callers = set()
    for module in MODULES:
        callers |= _callers(ast.parse(module.read_text()), "_clique_walk", module.stem)
    assert callers == {"complexes._star_pass", "complexes.FlagComplex.simplices_by_dim"}


def test_one_echelon_loop_over_built_rows():
    """``rank_sparse_int`` and the boundary reduction share one echelon loop,
    which takes rows already built. A second rank kernel, or a callback that
    builds rows inside the loop, shows up here."""
    assert list(inspect.signature(raagnorm.homology._echelon).parameters) == ["rows"]
    callers = set()
    for module in MODULES:
        callers |= _callers(ast.parse(module.read_text()), "_echelon", module.stem)
    assert callers == {"homology._pivots", "homology._reduced_betti"}


def test_exports_no_module_references():
    """Exported names that no module of ``src/raagnorm`` other than
    ``__init__`` names. Each one stays for a reason; a new one shows up here
    as a diff, and either gains a caller or leaves the package."""
    referenced = set()
    for module in MODULES:
        for node in ast.walk(ast.parse(module.read_text())):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    assert set(raagnorm.__all__) - referenced == {
        # One of the paper's outputs: the L2-Betti numbers of ker(phi).
        "l2_betti_kernel",
        # The benchmark's tracer wraps it by name (perfbench/tracing.py).
        "rank_sparse_int",
    }


def _float_exemptions(tree, module):
    """``float`` names that reject a float (``isinstance`` in the test of an
    ``if`` whose body raises) or that lie in the CLI's SVG projection."""
    exempt = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and isinstance(node.body[0], ast.Raise):
            for call in ast.walk(node.test):
                if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "isinstance":
                    exempt.update(id(n) for n in ast.walk(call))
        if module.name == "cli.py" and isinstance(node, ast.FunctionDef) and node.name == "_ball_svg":
            exempt.update(id(n) for n in ast.walk(node))
    return exempt


def test_exact_arithmetic_rule():
    """No float literal; ``float`` only to reject floats or inside
    ``cli._ball_svg``; ``math`` only for ``gcd``."""
    float_names = 0
    for module in [Path(raagnorm.__file__).resolve()] + MODULES:
        tree = ast.parse(module.read_text())
        exempt = _float_exemptions(tree, module)
        math_names = math_gcd = 0
        for node in ast.walk(tree):
            where = f"{module.name}:{getattr(node, 'lineno', '?')}"
            assert not (isinstance(node, ast.Constant) and isinstance(node.value, float)), where
            if isinstance(node, ast.Name) and node.id == "float":
                assert id(node) in exempt, where
                float_names += 1
            if isinstance(node, ast.Name) and node.id == "math":
                math_names += 1
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "math":
                math_gcd += node.attr == "gcd"
            if isinstance(node, ast.ImportFrom) and node.module == "math":
                assert [a.name for a in node.names] == ["gcd"], where
            if isinstance(node, ast.Import):
                assert all(a.asname is None for a in node.names if a.name == "math"), where
        assert math_names == math_gcd, module.name
    assert float_names >= 3
