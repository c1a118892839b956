import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import raagnorm
from raagnorm import Character, GraphOfGroups, ResultTooLargeError, dual_splitting, parse_complex
from raagnorm.cli import main
from raagnorm.rationals import format_rational

P3 = '{"vertices":["a","b","c"],"edges":[["a","b"],["b","c"]]}'
C4 = '{"vertices":["a","b","c","d"],"edges":[["a","b"],["b","c"],["c","d"],["a","d"]]}'
STAR3 = '{"vertices":["c","x","y","z"],"edges":[["c","x"],["c","y"],["c","z"]]}'
PHI111 = '{"values":{"a":1,"b":1,"c":1}}'
CENTER1 = '{"values":{"c":1,"x":0,"y":0,"z":0}}'


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_norm_p3(files, capsys):
    code, out = run(
        capsys, "norm", "--complex", files("p3.json", P3), "--char", files("phi.json", PHI111)
    )
    assert code == 0
    assert json.loads(out) == {"norm": "1"}


def test_norm_not_chordal(files, capsys):
    code, out = run(
        capsys, "norm", "--complex", files("c4.json", C4), "--char", files("phi.json", PHI111)
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["error"]["kind"] == "not_chordal"
    assert doc["error"]["cycle"] == ["a", "b", "c", "d"]


def test_norm_domain_gates(files, capsys):
    code, out = run(
        capsys,
        "norm",
        "--complex",
        files("free.json", '{"vertices":["a","b"],"edges":[]}'),
        "--char",
        files("phi.json", '{"values":{"a":1,"b":1}}'),
    )
    assert code == 1 and json.loads(out)["error"]["kind"] == "disconnected"
    code, out = run(
        capsys,
        "norm",
        "--complex",
        files("pt.json", '{"vertices":["a"],"edges":[]}'),
        "--char",
        files("one.json", '{"values":{"a":1}}'),
    )
    assert code == 1 and json.loads(out)["error"]["kind"] == "not_one_ended"


def test_split_star(files, capsys):
    code, out = run(
        capsys,
        "split",
        "--complex",
        files("star.json", STAR3),
        "--char",
        files("phi.json", CENTER1),
    )
    assert code == 0
    doc = json.loads(out)
    report = doc["report"]
    assert report["complexity"] == "2"
    assert report["blocks"] == [
        {"block": ["c"], "k": 1, "chi": "-2", "contribution": "2"}
    ]
    assert report["tree_certificate"]["is_tree"] is True
    gog = GraphOfGroups.from_json_doc(doc["graph_of_groups"])
    expected, _ = dual_splitting(
        parse_complex(STAR3), Character({"c": 1, "x": 0, "y": 0, "z": 0})
    )
    assert gog == expected


def test_split_zero_character(files, capsys):
    code, out = run(
        capsys,
        "split",
        "--complex",
        files("p3.json", P3),
        "--char",
        files("zero.json", '{"values":{"a":0,"b":0,"c":0}}'),
    )
    assert code == 1 and json.loads(out)["error"]["kind"] == "zero_character"


def test_split_with_truncation(files, capsys):
    code, out = run(
        capsys,
        "split",
        "--complex",
        files("p3.json", P3),
        "--char",
        files("phi.json", PHI111),
        "--truncate",
        "2",
    )
    assert code == 0
    doc = json.loads(out)["truncation"]
    assert doc["vertex_count"] == 5
    assert doc["lift_counts"] == [4]
    assert doc["connected"] is True
    assert doc["rank_difference"] == "1"


def test_analyze(files, capsys):
    code, out = run(capsys, "analyze", "--complex", files("p3.json", P3))
    assert code == 0
    doc = json.loads(out)
    assert doc["chordality"]["chordal"] is True
    assert doc["coherent"] is True and doc["connected"] is True and doc["one_ended"] is True
    assert doc["cut_ranks"] == {"a": 0, "b": 1, "c": 0}
    assert doc["euler"] == 0
    assert all(v == "0" for v in doc["l2_betti"].values())


def test_analyze_c4(files, capsys):
    code, out = run(capsys, "analyze", "--complex", files("c4.json", C4))
    assert code == 0
    doc = json.loads(out)
    assert doc["chordality"]["chordal"] is False
    assert doc["chordality"]["bad_cycle"] == ["a", "b", "c", "d"]
    assert doc["coherent"] is False
    assert doc["l2_betti"]["2"] == "1"


def test_analyze_edge_list_input(files, capsys):
    code, out = run(capsys, "analyze", "--complex", files("p3.txt", "a b\nb c\n"))
    assert code == 0
    assert json.loads(out)["cut_ranks"] == {"a": 0, "b": 1, "c": 0}


def test_fibering(files, capsys):
    code, out = run(
        capsys,
        "fibering",
        "--complex",
        files("p3.json", P3),
        "--char",
        files("phi.json", '{"values":{"a":1,"b":0,"c":1}}'),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["fibered"] is False and doc["connected"] is False and doc["dominating"] is True
    assert doc["living"]["vertices"] == ["a", "c"]


def test_polytope_roundtrip(files, capsys):
    code, out = run(capsys, "polytope", "--complex", files("p3.json", P3))
    assert code == 0
    doc = json.loads(out)
    assert doc == {"generators": [{"dir": [0, 1, 0], "coeff": 1}]}
    from raagnorm import ZonotopeElement, l2_polytope

    assert ZonotopeElement.from_json_doc(doc, ("a", "b", "c")) == l2_polytope(
        parse_complex(P3)
    )


def test_ball(files, capsys):
    code, out = run(capsys, "ball", "--complex", files("star.json", STAR3))
    assert code == 0
    doc = json.loads(out)
    assert doc["weights"] == {"c": 2, "x": 0, "y": 0, "z": 0}
    assert doc["vertices"] == [["1/2", "0", "0", "0"], ["-1/2", "0", "0", "0"]]


def test_ball_svg(files, capsys, tmp_path):
    svg = tmp_path / "ball.svg"
    code, out = run(
        capsys, "ball", "--complex", files("p3.json", P3), "--svg", str(svg)
    )
    assert code == 0
    assert svg.read_text().startswith("<svg")
    code, _ = run(
        capsys,
        "ball",
        "--complex",
        files(
            "big.json",
            '{"vertices":["a","b","c","d"],"edges":[["a","b"],["b","c"],["c","d"]]}',
        ),
        "--svg",
        str(tmp_path / "no.svg"),
    )
    assert code == 1


def test_verify_single_case(files, capsys):
    code, out = run(
        capsys,
        "verify",
        "--complex",
        files("p3.json", P3),
        "--char",
        files("phi.json", PHI111),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["applicable"] is True and doc["equal"] is True
    assert doc["values"] == {"thickness": "1", "minus_chi2": "1", "complexity": "1"}


def test_verify_not_applicable(files, capsys):
    code, out = run(
        capsys,
        "verify",
        "--complex",
        files("free.json", '{"vertices":["a","b"],"edges":[]}'),
        "--char",
        files("phi.json", '{"values":{"a":1,"b":1}}'),
    )
    assert code == 0
    assert json.loads(out)["applicable"] is False


def test_verify_suite(files, capsys):
    code, out = run(capsys, "verify", "--suite", "--samples", "10", "--max-n", "6", "--seed", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True and doc["failures"] == 0


def test_verify_suite_config_file(files, capsys):
    cfg = files("cfg.json", '{"samples": 8, "max_n": 5, "seed": 12}')
    code, out = run(capsys, "verify", "--suite", "--config", cfg)
    assert code == 0
    assert json.loads(out)["config"] == {"samples": 8, "max_n": 5, "seed": 12}


def test_verify_usage_error(capsys):
    code, out = run(capsys, "verify")
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "usage"


def test_parse_error_exit_two(files, capsys):
    code, out = run(
        capsys,
        "analyze",
        "--complex",
        files("bad.json", '{"vertices":["a"],"edges":[["a","a"]]}'),
    )
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "parse"


def test_missing_file_exit_two(capsys):
    code, out = run(capsys, "analyze", "--complex", "/nonexistent/x.json")
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "parse"


def test_usage_error_missing_flag(capsys):
    code, out = run(capsys, "norm")
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "usage"


def test_byte_determinism(files, capsys):
    path = files("p3.json", P3)
    char = files("phi.json", PHI111)
    _, first = run(capsys, "split", "--complex", path, "--char", char)
    _, second = run(capsys, "split", "--complex", path, "--char", char)
    assert first == second


def test_compact_output(files, capsys):
    code, out = run(capsys, "--compact", "norm", "--complex", files("p3.json", P3), "--char", files("phi.json", PHI111))
    assert code == 0
    assert out == '{"norm":"1"}\n'


def test_clique_cap_env(files, capsys, monkeypatch):
    monkeypatch.setenv("RAAG_CLIQUE_CAP", "3")
    code, out = run(capsys, "analyze", "--complex", files("c4.json", C4))
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "clique_cap"
    monkeypatch.setenv("RAAG_CLIQUE_CAP", "64")
    code, _ = run(capsys, "analyze", "--complex", files("c4.json", C4))
    assert code == 0
    monkeypatch.setenv("RAAG_CLIQUE_CAP", "zz")
    code, out = run(capsys, "analyze", "--complex", files("c4.json", C4))
    assert code == 2


def test_json_array_complex_is_a_parse_error(files, capsys):
    code, out = run(capsys, "analyze", "--complex", files("arr.json", "  []\n"))
    assert code == 2
    assert json.loads(out)["error"] == {
        "kind": "parse", "detail": "top level: expected an object"
    }


def test_oversized_integer_in_complex_exit_two(files, capsys):
    text = '{"vertices": [' + "7" * 5000 + '], "edges": []}'
    code, out = run(capsys, "analyze", "--complex", files("big.json", text))
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "parse"


def test_deeply_nested_character_exit_two(files, capsys):
    deep = "[" * 200_000 + "]" * 200_000
    code, out = run(
        capsys, "norm", "--complex", files("p3.json", P3), "--char", files("deep.json", deep)
    )
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "parse"


@pytest.mark.parametrize(
    "text", ["[" * 200_000, '{"samples": ' + "9" * 5000 + "}"], ids=["nested", "big_int"]
)
def test_unreadable_suite_config_exit_two(files, capsys, text):
    code, out = run(capsys, "verify", "--suite", "--config", files("cfg.json", text))
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "parse"


@pytest.mark.parametrize(
    "value",
    ['"1e5000"', '"1e999999999"', '"0.5"', '"1/0"', '" 1"', '"1_000"', '"2/-3"',
     '"' + "9" * 4301 + '"', '"1/' + "7" * 4301 + '"'],
    ids=["exponent", "huge_exponent", "decimal", "zero_denominator", "space",
         "underscore", "signed_denominator", "too_many_digits", "long_denominator"],
)
def test_unprintable_or_inexact_character_value_exit_two(files, capsys, value):
    phi = '{"values":{"a":1,"b":' + value + ',"c":1}}'
    code = main(["norm", "--complex", files("p3.json", P3), "--char", files("phi.json", phi)])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out)["error"]["kind"] == "parse"
    assert "Traceback" not in captured.err


def test_longest_printable_character_value(files, capsys):
    big = "9" * 4300
    phi = '{"values":{"a":1,"b":"-' + big + '/7","c":"+1"}}'
    code, out = run(
        capsys, "norm", "--complex", files("p3.json", P3), "--char", files("phi.json", phi)
    )
    assert code == 0
    assert json.loads(out) == {"norm": big + "/7"}


def test_exponent_value_in_a_child_process(files):
    src = os.path.dirname(os.path.dirname(raagnorm.__file__))
    phi = files("phi.json", '{"values":{"a":1,"b":"1e5000","c":1}}')
    proc = subprocess.run(
        [sys.executable, "-m", "raagnorm.cli", "norm", "--complex", files("p3.json", P3),
         "--char", phi],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"]["kind"] == "parse"
    assert "Traceback" not in proc.stderr


def test_result_over_the_digit_limit_is_a_domain_error(files, capsys):
    # The centre's cut rank is 10, so the norm has 4301 digits while every
    # input value has at most 4300.
    leaves = [f"l{i}" for i in range(11)]
    star = json.dumps({"vertices": ["c"] + leaves, "edges": [["c", v] for v in leaves]})
    values = dict.fromkeys(leaves, 1)
    values["c"] = "9" * 4300
    phi = json.dumps({"values": values})
    code = main(["norm", "--complex", files("star.json", star), "--char", files("phi.json", phi)])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out)["error"]["kind"] == "result_too_large"
    assert "Traceback" not in captured.err


def test_format_rational_at_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    assert format_rational(10**limit - 1) == "9" * limit
    assert format_rational(Fraction(-1, 10**limit - 1)) == "-1/" + "9" * limit
    for q in (10**limit, -(10**limit), Fraction(1, 10**limit)):
        with pytest.raises(ResultTooLargeError):
            format_rational(q)
