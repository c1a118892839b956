"""The four workloads: how each builds its inputs, runs one case, and checks it.

A workload's inputs form a cycle of ``cycle`` cases with fixed sizes; the
seed and the cycle change shapes, labels and characters but not sizes.
Runs measure whole cycles. No two cycles of the library workloads hand the
library the same complex, so a cache keyed on complex content cannot turn
repeats into hits.

``run`` is the timed part and returns the library's raw answer (a domain
error that the case expects is caught inside ``run`` and returned as its
answer). ``check`` compares that answer with a harness-side oracle and
returns None or a failure reason; ``outcome`` turns it into a JSON-able
document so that traced and untraced passes can be compared.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import families as F
import raagnorm as R
from raagnorm import cli
from raagnorm.rationals import format_rational

# Library calls go through the package namespace (``R.name``) so that the
# traced run, which rebinds those attributes, sees the top-level call too.


def _complex(g):
    return R.FlagComplex(g.vertices, g.edges)


def _cross_check_failure(report):
    if not report.applicable:
        return "cross_check not applicable"
    if not report.equal:
        return f"three-way values differ: {[str(x) for x in report.values()]}"
    return None


class Pool:
    """Inputs built once in set-up and cycled through."""

    def case(self, inputs, i):
        return inputs[i % len(inputs)]


class Drawn:
    """Each case draws its (graph, values) afresh from (seed, cycle, slot),
    before its clock starts. Every cycle has the same sizes but new shapes,
    vertex names and characters, so a run averages over many shapes."""

    def build(self, seed):
        return seed

    def case(self, seed, i):
        c, slot = divmod(i, self.cycle)
        return self.make_input(F.new_rng(seed, self.name, c, slot), *self.plan[slot])


class CrosscheckStream:
    """random_chordal(n) with n cycling through 2..25, a random primitive
    character, then cross_check: acceptance criterion 1 as users run it."""

    name = "crosscheck_stream"
    sizes = tuple(range(2, 26))
    cycle = len(sizes)
    trace_cases = 10 * len(sizes)

    def build(self, seed):
        return seed  # the library generates each case's graph itself

    def case(self, seed, i):
        rng = F.new_rng(seed, self.name, i)
        return self.sizes[i % self.cycle], rng.getrandbits(64), rng.getrandbits(64)

    def run(self, case):
        n, graph_seed, char_seed = case
        L = R.random_chordal(n, graph_seed)
        phi = R.random_primitive_character(L, R.SplitMix64(char_seed))
        return L, phi, R.cross_check(L, phi)

    def check(self, case, raw):
        L, phi, report = raw
        if len(L) != case[0]:
            return "random_chordal returned the wrong vertex count"
        failure = _cross_check_failure(report)
        if failure:
            return failure
        ranks = F.cut_ranks_by_search(L.vertices, L.edges())
        expected = sum((Fraction(r) * abs(phi.value(v)) for v, r in ranks.items()), Fraction(0))
        if report.thickness != expected:
            return f"thickness {report.thickness} != searched cut-rank norm {expected}"
        return None

    def outcome(self, case, raw):
        return raw[2].to_json_doc()


class SparseScale(Drawn):
    """Paths, bounded-degree caterpillars, block trees and squares and cubes
    of paths with n in [100, 150]: cross_check + thurston_norm + norm_ball,
    where today's quadratic cut-rank code takes nearly all the time."""

    name = "sparse_scale"
    plan = (
        ("path", 150),
        ("caterpillar", 130),
        ("block_tree", 120),
        ("square", 110),
        ("cube", 100),
    )
    cycle = len(plan)
    trace_cases = cycle

    @staticmethod
    def make_input(rng, family, n):
        if family == "path":
            g = F.path(rng, n)
        elif family == "caterpillar":
            g = F.caterpillar(rng, n)
        elif family == "block_tree":
            g = F.block_tree(rng, n)
        else:
            g = F.path_power(rng, n, 2 if family == "square" else 3)
        # Links over 64 vertices raise CliqueCapError under the default cap.
        if g.max_degree() > 64:
            raise ValueError(f"{family} input has a vertex of degree over 64")
        return g, F.primitive_values(rng, g.vertices)

    def run(self, case):
        g, values = case
        L = _complex(g)
        phi = R.Character(values)
        return R.cross_check(L, phi), R.thurston_norm(L, phi), R.norm_ball(L)

    def check(self, case, raw):
        g, values = case
        report, norm, ball = raw
        failure = _cross_check_failure(report)
        if failure:
            return failure
        expected = F.block_norm(g.blocks, values)
        if norm != expected:
            return f"norm {norm} != block-structure norm {expected}"
        if report.thickness != expected:
            return f"thickness {report.thickness} != block-structure norm {expected}"
        if ball.weights != {v: g.blocks[v] - 1 for v in g.vertices}:
            return "ball weights differ from blocks(v) - 1"
        return None

    def outcome(self, case, raw):
        report, norm, ball = raw
        return [report.to_json_doc(), format_rational(norm), ball.to_json_doc()]


class DenseHomology(Drawn):
    """Powers of paths (cubes to fifth powers) and k-trees with clique
    size 5-6, three of five with a planted 4-8 cycle: reduced_betti, l2_betti_group,
    l2_betti_kernel, clique_tree_splitting with euler_check, euler_raag.
    Simplex enumeration and Bareiss elimination take the time."""

    name = "dense_homology"
    # (family, k, n, planted cycle); n + cycle stays within the 64-vertex cap.
    # An odd number of slots puts the median inside the cluster of
    # mid-cost slots, and the 5-tree is the costliest slot by about 1.8x, so
    # neither the median nor the tail falls in the gap between two slots,
    # where a small shift in slot times would move it far.
    plan = (
        ("path_power", 3, 56, True),
        ("path_power", 4, 50, False),
        ("path_power", 5, 30, True),
        ("ktree", 4, 50, True),
        ("ktree", 5, 36, False),
    )
    cycle = len(plan)
    trace_cases = cycle

    @staticmethod
    def make_input(rng, family, k, n, planted):
        g = F.path_power(rng, n, k) if family == "path_power" else F.ktree(rng, n, k)
        if planted:
            g = F.plant_hole(rng, g, rng.randint(4, 8))
        return g, F.primitive_values(rng, g.vertices)

    def run(self, case):
        g, values = case
        L = _complex(g)
        phi = R.Character(values)
        betti = R.reduced_betti(L)
        group = R.l2_betti_group(L)
        kernel = R.l2_betti_kernel(L, phi)
        try:
            gog = R.clique_tree_splitting(L)
            split = (gog, R.euler_check(gog))
        except R.NotChordalError as exc:
            split = exc
        return betti, group, kernel, split, R.euler_raag(L)

    def check(self, case, raw):
        g, values = case
        betti, group, kernel, split, euler = raw
        expected = F.expected_betti(g)
        if betti.betti != expected:
            return f"reduced Betti {betti.betti} != expected {expected}"
        if group != [Fraction(b) for b in expected]:
            return f"group L2-Betti {group} != expected {expected}"
        b1 = F.link_betti1_sum(g, values)
        if len(kernel) < 2 or kernel[1] != b1 or sum(kernel) != b1:
            return f"kernel L2-Betti {kernel} != [0, {b1}, 0...]"
        if euler != (1 if g.hole else 0):
            return f"euler_raag {euler} for a {'non-' if g.hole else ''}contractible complex"
        if g.hole:
            if not isinstance(split, R.NotChordalError):
                return "clique tree built on a complex with a planted hole"
            if frozenset(split.info["cycle"]) != g.hole:
                return f"reported cycle {split.info['cycle']} is not the planted one"
        else:
            if isinstance(split, Exception):
                return f"clique tree failed: {split!r}"
            gog, chi = split
            if len(gog.vertex_groups) != len(g.vertices) - g.k:
                return "clique tree does not have n - k maximal cliques"
            if chi != 0:
                return f"clique-tree Euler sum {chi} != 0"
        return None

    def outcome(self, case, raw):
        betti, group, kernel, split, euler = raw
        if isinstance(split, Exception):
            split_doc = {"error": split.payload()}
        else:
            split_doc = [split[0].to_json_doc(), format_rational(split[1])]
        return [betti.to_json_doc(), [format_rational(x) for x in group],
                [format_rational(x) for x in kernel], split_doc, euler]


# -- the CLI -----------------------------------------------------------------

SUBCOMMANDS = ("analyze", "norm", "polytope", "ball", "fibering", "split", "verify")
WITH_CHARACTER = {"norm", "fibering", "split", "verify"}
KINDS = ("chordal_json", "chordal_edges", "non_chordal", "malformed")


def _cli_doc(sub, L, phi):
    """The document a subcommand promises, computed through the library."""
    if sub == "analyze":
        witness = R.is_chordal(L)
        betti = R.l2_betti_group(L)
        n = len(L.vertices)
        return {
            "chordality": witness.to_json_doc(),
            "coherent": witness.chordal,
            "connected": L.is_connected(),
            "one_ended": L.is_connected() and n >= 2,
            "cut_ranks": {v: L.cut_rank(v) for v in L.vertices} if n >= 2 else {},
            "euler": R.euler_raag(L),
            "l2_betti": {str(i): format_rational(b) for i, b in enumerate(betti)},
        }
    if sub == "norm":
        return {"norm": format_rational(R.thurston_norm(L, phi))}
    if sub == "polytope":
        return R.l2_polytope(L).to_json_doc()
    if sub == "ball":
        return R.norm_ball(L).to_json_doc()
    if sub == "fibering":
        return R.is_fibered(L, phi).to_json_doc()
    if sub == "split":
        gog, report = R.dual_splitting(L, phi)
        return {
            "graph_of_groups": gog.to_json_doc(),
            "report": report.to_json_doc(),
            "truncation": R.cyclic_cover_truncation(gog, phi, 10).to_json_doc(),
        }
    return R.cross_check(L, phi).to_json_doc()


def _malformed(slot, sub, g, values):
    """(complex text, character text) with one defect, rotating by slot;
    subcommands that read no character get a defect in the complex."""
    doc = {"vertices": g.vertices, "edges": [list(e) for e in g.edges]}
    char = json.dumps({"values": values})
    defect = slot % (4 if sub in WITH_CHARACTER else 3)
    if defect == 0:
        return json.dumps(doc)[:-7], char  # truncated JSON
    if defect == 1:
        first = g.vertices[0]
        lines = [f"{a} {b}" for a, b in g.edges] + [f"{first} {first}"]  # self-loop
        return "\n".join(lines) + "\n", char
    if defect == 2:
        doc["edges"].append(list(reversed(doc["edges"][0])))  # duplicate edge
        return json.dumps(doc), char
    bad = dict(values)
    bad[g.vertices[0]] = 0.5  # floats are rejected
    return json.dumps(doc), json.dumps({"values": bad})


class CliOneshot(Pool):
    """One `python -m raagnorm.cli` process per case on small inputs (JSON and
    edge lists), about a fifth non-chordal and a fifth malformed: start-up,
    parse and emit dominate. stdout must be exactly the library's document."""

    name = "cli_oneshot"
    cycle = 2 * len(SUBCOMMANDS)  # every subcommand meets two of the input kinds
    trace_cases = cycle

    def __init__(self, root, workdir, env):
        self.root = root
        self.workdir = workdir
        self.env = env

    def build(self, seed):
        os.makedirs(self.workdir, exist_ok=True)
        pool = []
        for slot in range(self.cycle):
            sub = SUBCOMMANDS[slot % len(SUBCOMMANDS)]
            kind = KINDS[slot % len(KINDS)]
            rng = F.new_rng(seed, self.name, slot)
            n = rng.randint(8, 25)
            g = F.block_tree(rng, n) if slot % 2 else F.ktree(rng, n, rng.randint(1, 3))
            if kind == "non_chordal":
                g = F.plant_hole(rng, g, rng.randint(4, 8))
            values = F.primitive_values(rng, g.vertices)
            if kind == "malformed":
                text, char = _malformed(slot, sub, g, values)
            elif kind == "chordal_edges":
                text = "".join(f"{a} {b}\n" for a, b in g.edges)
                char = json.dumps({"values": values})
            else:
                text = json.dumps({"vertices": g.vertices, "edges": [list(e) for e in g.edges]})
                char = json.dumps({"values": values})
            complex_path = self.workdir / f"complex{slot}.txt"
            char_path = self.workdir / f"char{slot}.json"
            complex_path.write_text(text, encoding="utf-8")
            argv = ([] if slot % 3 else ["--compact"]) + [sub, "--complex", str(complex_path)]
            if sub in WITH_CHARACTER:
                char_path.write_text(char, encoding="utf-8")
                argv += ["--char", str(char_path)]
            if sub == "split":
                argv += ["--truncate", "10"]
            code, doc = self._expected(sub, text, char)
            pool.append((argv, code, doc))
        return pool

    @staticmethod
    def _expected(sub, text, char):
        """(exit code, document) as the library answers in-process."""
        try:
            L = R.parse_complex(text)
            phi = R.parse_character(char) if sub in WITH_CHARACTER else None
            doc, code = _cli_doc(sub, L, phi), 0
        except R.ParseError as exc:
            doc, code = {"error": exc.payload()}, 2
        except R.RaagError as exc:
            doc, code = {"error": exc.payload()}, 1
        return code, json.loads(json.dumps(doc))

    def run(self, case):
        argv = [sys.executable, "-m", "raagnorm.cli"] + case[0]
        proc = subprocess.run(argv, cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=60)
        return proc.returncode, proc.stdout, proc.stderr

    def run_in_process(self, case):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(case[0])
        return code, out.getvalue(), err.getvalue()

    def check(self, case, raw):
        _, code, doc = case
        got_code, stdout, stderr = raw
        if "Traceback" in stderr:
            return "traceback on stderr"
        if got_code != code:
            return f"exit code {got_code}, expected {code}"
        try:
            got = json.loads(stdout)
        except json.JSONDecodeError:
            return "stdout is not exactly one JSON document"
        if got != doc:
            return "stdout differs from the library's document"
        return None

    def outcome(self, case, raw):
        return [raw[0], raw[1]]


def make(name, root, workdir, env):
    """The named workload; ``env`` is the environment of CLI children."""
    if name == CliOneshot.name:
        return CliOneshot(root, workdir, env)
    return {w.name: w for w in (CrosscheckStream, SparseScale, DenseHomology)}[name]()


NAMES = (CrosscheckStream.name, SparseScale.name, DenseHomology.name, CliOneshot.name)
