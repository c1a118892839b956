"""Byte-exact CLI output of ``split --truncate 10``, ``verify``,
``polytope`` and ``ball`` on fixed inputs, pinned in
``data/cli_golden.json``.

The cases are two paths through a dead vertex or a live centre, a
disconnected complex with a dead component and an isolated vertex, a hub
joining three triangles and a pendant vertex (cut rank 3, so its ball has
the vertices +-1/3), and three ``random_chordal`` graphs (12, 40 and 60
vertices) under characters with zeros, so that several living blocks,
complements and intersection pieces appear. Each record keeps its inputs as
the text the CLI reads, and the exit code and stdout of ``raagnorm
--compact <command> --complex ...``, with ``--char ...`` for the commands
that read a character. A change that alters any of these documents, down to
key order or a separator, fails here.
"""

import json
from pathlib import Path

import pytest

from raagnorm.cli import main

GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())
COMMANDS = {
    "split": ["split", "--truncate", "10"],
    "verify": ["verify"],
    "polytope": ["polytope"],
    "ball": ["ball"],
}
READS_CHAR = {"split", "verify"}


@pytest.mark.parametrize("name", sorted(GOLDEN))
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_cli_output_is_unchanged(name, command, tmp_path, capsys):
    case = GOLDEN[name]
    complex_path = tmp_path / "complex.json"
    char_path = tmp_path / "char.json"
    complex_path.write_text(case["complex"])
    char_path.write_text(case["char"])
    argv = ["--compact"] + COMMANDS[command] + ["--complex", str(complex_path)]
    if command in READS_CHAR:
        argv += ["--char", str(char_path)]
    code = main(argv)
    assert code == case[command]["exit"]
    assert capsys.readouterr().out == case[command]["stdout"]
