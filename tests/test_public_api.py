"""Smoke tests for the public surface: the names ``raagnorm`` exports and the
demo scripts that use them."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import raagnorm

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_is_sorted_unique_and_resolves():
    names = raagnorm.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(raagnorm, name), name
    for removed in ("combine", "negate"):
        assert removed not in names and not hasattr(raagnorm, removed)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs_cleanly(demo):
    src = os.path.dirname(os.path.dirname(raagnorm.__file__))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
