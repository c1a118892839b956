"""Generators, oracles and the result contract of the benchmark harness.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import pytest  # noqa: E402

import families as F  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("make", [
    lambda rng: F.path(rng, 30),
    lambda rng: F.caterpillar(rng, 40),
    lambda rng: F.block_tree(rng, 40),
    lambda rng: F.path_power(rng, 30, 2),
])
def test_block_counts_match_cut_ranks_by_search(make):
    g = make(F.new_rng(5, "t"))
    ranks = F.cut_ranks_by_search(g.vertices, g.edges)
    assert ranks == {v: g.blocks[v] - 1 for v in g.vertices}


def test_generators_repeat_for_a_seed():
    a = F.ktree(F.new_rng(9, "k"), 20, 3)
    b = F.ktree(F.new_rng(9, "k"), 20, 3)
    c = F.ktree(F.new_rng(10, "k"), 20, 3)
    assert (a.vertices, a.edges) == (b.vertices, b.edges)
    assert (a.vertices, a.edges) != (c.vertices, c.edges)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    times = list(range(1, 101))
    assert run.tail(times) == (90, 90.0, 10)
    assert run.tail([5, 1, 3]) == (5, 100.0, 0)


def test_warm_up_is_checked_but_not_timed_and_set_up_repeats():
    class Stub:
        cycle = 3

        def case(self, inputs, i):
            return i

        def run(self, case):
            return case

        def check(self, case, raw):
            return "wrong" if case == 1 else None

    times, failures, warm, setups = run.timed(Stub(), None, 0, lambda: 0.5)
    assert warm == Stub.cycle and setups == [0.5] * (run.SETUP_REPEATS - 1)
    assert len(times) == run.MIN_CYCLES * Stub.cycle
    assert failures == ["case 1: wrong"]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_first_cycle_passes_its_oracles(name, tmp_path):
    w = workloads.make(name, ROOT, tmp_path / "work", run.child_env())
    inputs = w.build(1)
    count = 3 if name in ("sparse_scale", "dense_homology") else w.cycle
    for i in range(count):
        case = w.case(inputs, i)
        assert w.check(case, w.run(case)) is None, (name, i)


@pytest.mark.parametrize("name", ["sparse_scale", "dense_homology"])
def test_later_cycles_draw_new_inputs_that_pass(name, tmp_path):
    w = workloads.make(name, ROOT, tmp_path, run.child_env())
    inputs = w.build(6)
    # A path and a fourth power of a path: shapes that no draw changes.
    slot = {"sparse_scale": 0, "dense_homology": 1}[name]
    seen, sizes = set(), set()
    for c in (0, 1, 2):
        g, values = w.case(inputs, c * w.cycle + slot)
        sizes.add((len(g.vertices), len(g.edges)))
        seen.add((frozenset(g.edges), tuple(sorted(values.items()))))
        assert w.check((g, values), w.run((g, values))) is None, (name, c)
    assert len(seen) == 3 and len(sizes) == 1
    again = w.case(inputs, 2 * w.cycle + slot)[0]
    assert (again.vertices, again.edges) == (g.vertices, g.edges)


def test_oracles_reject_wrong_answers(tmp_path):
    sparse = workloads.make("sparse_scale", ROOT, tmp_path, run.child_env())
    case = sparse.case(sparse.build(2), 4)
    report, norm, ball = sparse.run(case)
    assert sparse.check(case, (report, norm + 1, ball)) is not None

    dense = workloads.make("dense_homology", ROOT, tmp_path, run.child_env())
    case = dense.case(dense.build(2), 0)  # has a planted hole
    betti, group, kernel, split, euler = dense.run(case)
    assert dense.check(case, (betti, group, kernel, split, euler + 1)) is not None
    assert dense.check(case, (betti, group, [Fraction(0)] * len(kernel), split, euler)) is not None

    cli = workloads.make("cli_oneshot", ROOT, tmp_path / "work", run.child_env())
    case = cli.case(cli.build(3), 0)
    code, stdout, stderr = cli.run_in_process(case)
    assert cli.check(case, (code, stdout, stderr)) is None
    assert cli.check(case, (code, stdout + "{}", stderr)) is not None
    assert cli.check(case, (code + 1, stdout, stderr)) is not None


def test_cli_pool_covers_every_exit_code(tmp_path):
    cli = workloads.make("cli_oneshot", ROOT, tmp_path / "work", run.child_env())
    pool = cli.build(4)
    codes = {code for _, code, _ in pool}
    assert codes == {0, 1, 2}
    kinds = {doc["error"]["kind"] for _, code, doc in pool if code}
    assert kinds == {"parse", "not_chordal"}


def test_runs_and_reports_in_a_checkout(tmp_path):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "crosscheck_stream",
         "--seed", "3", "--seconds", "0.2", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}


def test_fails_without_the_library_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sparse_scale", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout == ""
