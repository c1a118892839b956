"""Byte determinism across processes: the CLI golden cases under every
subcommand, a set of error cases and the default suite give the same stdout,
stderr and exit codes under ``PYTHONHASHSEED`` 1, 2 and 3, so no output
depends on the iteration order of a set or dict of strings.

Each seed runs one child interpreter, which calls ``raagnorm.cli.main`` on
every argument list in turn and prints the results as one JSON document.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import raagnorm

GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())
SEEDS = ("1", "2", "3")

CHILD = r"""
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
from raagnorm.cli import main

results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    results.append([argv, code, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""

ERROR_CASES = {
    "c4": '{"vertices": ["a", "b", "c", "d"], "edges": [["a", "b"], ["b", "c"], '
    '["c", "d"], ["d", "a"]]}',
    "c4_char": '{"values": {"a": 1, "b": 2, "c": 3, "d": 4}}',
    "zero_char": '{"values": {"a": 0, "b": 0, "c": 0, "d": 0}}',
    "wrong_domain": '{"values": {"x": 1, "y": 2, "a": 3}}',
    "malformed": '{"vertices": ["a", "b"], "edges": [["a", "b"]',
    "duplicate_edges": "a b\nb c\nb a\n",
    "float_char": '{"values": {"a": 0.5, "b": 1, "c": 1, "d": 1}}',
}


def _argv_lists(tmp_path):
    runs = []
    for name, case in sorted(GOLDEN.items()):
        cx, ch = tmp_path / f"{name}.complex", tmp_path / f"{name}.char"
        cx.write_text(case["complex"])
        ch.write_text(case["char"])
        for command in ("analyze", "polytope", "ball"):
            runs.append(["--compact", command, "--complex", str(cx)])
        for command in (["fibering"], ["norm"], ["split", "--truncate", "10"], ["verify"]):
            runs.append(["--compact", *command, "--complex", str(cx), "--char", str(ch)])
    paths = {}
    for name, text in ERROR_CASES.items():
        paths[name] = tmp_path / f"error_{name}"
        paths[name].write_text(text)
    c4, p = str(paths["c4"]), {k: str(v) for k, v in paths.items()}
    runs += [
        ["analyze", "--complex", c4],
        ["norm", "--complex", c4, "--char", p["c4_char"]],
        ["ball", "--complex", c4],
        ["split", "--complex", c4, "--char", p["zero_char"]],
        ["verify", "--complex", c4, "--char", p["c4_char"]],
        ["fibering", "--complex", c4, "--char", p["wrong_domain"]],
        ["norm", "--complex", c4, "--char", p["float_char"]],
        ["analyze", "--complex", p["malformed"]],
        ["polytope", "--complex", p["duplicate_edges"]],
        ["norm", "--complex", c4],
        ["verify", "--suite", "--samples", "8"],
    ]
    return runs


def test_cli_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    runs = _argv_lists(tmp_path)
    src = os.path.dirname(os.path.dirname(raagnorm.__file__))
    outputs = {}
    for seed in SEEDS:
        proc = subprocess.run(
            [sys.executable, "-c", CHILD],
            input=json.dumps(runs), capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
        )
        assert proc.returncode == 0, proc.stderr
        outputs[seed] = proc.stdout
    assert outputs["1"] == outputs["2"] == outputs["3"]
    results = json.loads(outputs["1"])
    assert len(results) == len(runs)
    by_argv = {tuple(argv): (code, out) for argv, code, out, _ in results}
    for name, case in GOLDEN.items():
        for command in ("polytope", "ball"):
            argv = ("--compact", command, "--complex", str(tmp_path / f"{name}.complex"))
            assert by_argv[argv] == (case[command]["exit"], case[command]["stdout"])
    assert {code for code, _ in by_argv.values()} == {0, 1, 2}


CORES = r"""
import json
from raagnorm import FlagComplex, plant_cycle, random_chordal
from raagnorm.homology import _core

# A 5-cycle whose every vertex has a closed twin, joined to a chordal part
# with a planted hole: each twin pair keeps one of its two vertices.
names = [f"c{i}" for i in range(5)] + [f"d{i}" for i in range(5)]
edges = [(f"c{i}", f"d{i}") for i in range(5)]
for i in range(5):
    j = (i + 1) % 5
    edges += [(f"{a}{i}", f"{b}{j}") for a in "cd" for b in "cd"]
K = plant_cycle(random_chordal(30, 5), 6, "h")
L = FlagComplex(names + list(K.vertices), edges + K.edges() + [("c0", K.vertices[0])])
cores = [_core(L, set(L.vertices)).vertices]
cores += [_core(L, L._adj[v]).vertices for v in L.vertices]
json.dump(cores, __import__("sys").stdout)
"""


def test_cores_do_not_depend_on_the_hash_seed():
    src = os.path.dirname(os.path.dirname(raagnorm.__file__))
    outputs = {}
    for seed in SEEDS:
        proc = subprocess.run(
            [sys.executable, "-c", CORES], capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
        )
        assert proc.returncode == 0, proc.stderr
        outputs[seed] = proc.stdout
    assert outputs["1"] == outputs["2"] == outputs["3"]
    whole = json.loads(outputs["1"])[0]
    # One vertex of each twin pair, the chordal part's first vertex, which
    # joins the 5-cycle to the hole, and the hole.
    assert len(whole) == 5 + 1 + 6
    assert sum(v[0] in "cd" for v in whole) == 5 and "v00" in whole
