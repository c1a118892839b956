"""Linear-time structure at 10^3-10^4 vertices, exact homology on a dense
complex, the clique tree's Euler bookkeeping and the sparse polytope and
norm ball at 10^4 vertices, and the three-way equality past 65 vertices on
the public path.

Each sparse input is a tree of blocks whose block counts are known by
construction, so the semi-norm has the closed form
sum over v of (blocks(v) - 1) * |phi(v)|, and the kernel's L2-Euler
characteristic is its negative. The dense input is a fifth power of a path
(contractible) with an induced 6-cycle hung off it by one edge, whose
homology has closed forms too.
"""

import json
from fractions import Fraction
from math import comb

import pytest

from raagnorm import (
    Character,
    FlagComplex,
    clique_tree_splitting,
    complexes,
    cross_check,
    euler_check,
    euler_raag,
    is_chordal,
    l2_betti_kernel,
    l2_euler_kernel,
    l2_polytope,
    norm_ball,
    plant_cycle,
    random_chordal,
    reduced_betti,
    thickness,
    thurston_norm,
)
from raagnorm.cli import main
from raagnorm.verify import SplitMix64


def path(n):
    names = [f"p{i}" for i in range(n)]
    blocks = {v: 2 for v in names}
    blocks[names[0]] = blocks[names[-1]] = 1
    return FlagComplex(names, zip(names, names[1:])), blocks


def block_tree(n, seed):
    """Glue cliques of 2-4 vertices at single vertices, at most four blocks
    per vertex (so every link is small)."""
    rng = SplitMix64(seed)
    names = [f"u{i}" for i in range(n)]
    blocks = {names[0]: 0}
    edges = []
    made = 1
    while made < n:
        size = min(2 + rng.below(3), n - made + 1)
        hub = names[rng.below(made)]
        while blocks[hub] >= 4:
            hub = names[rng.below(made)]
        clique = [hub] + names[made : made + size - 1]
        made += size - 1
        edges += [(a, b) for i, a in enumerate(clique) for b in clique[i + 1 :]]
        for v in clique:
            blocks[v] = blocks.get(v, 0) + 1
    return FlagComplex(names, edges), blocks


def character(L):
    values = {v: i % 7 - 3 for i, v in enumerate(L.vertices)}
    values[L.vertices[0]] = 1  # primitive
    return Character(values)


@pytest.mark.parametrize("make", [lambda: path(2000), lambda: block_tree(10_000, 7)],
                         ids=["P_2000", "block_tree_10k"])
def test_closed_form_at_scale(make):
    L, blocks = make()
    phi = character(L)
    assert [L.cut_rank(v) for v in L.vertices] == [blocks[v] - 1 for v in L.vertices]
    expected = sum(
        ((blocks[v] - 1) * abs(phi.value(v)) for v in L.vertices), start=Fraction(0)
    )
    assert expected > 0
    assert thurston_norm(L, phi) == expected
    assert l2_euler_kernel(L, phi) == -expected


def path_power_with_hole(n, k, hole):
    names = [f"p{i}" for i in range(n)]
    edges = [(names[i], names[j]) for i in range(n) for j in range(i + 1, min(n, i + k + 1))]
    return plant_cycle(FlagComplex(names, edges), hole, "h")


def link_components(L, v):
    """Components of the subgraph induced on the neighbours of v, by search."""
    around = set(L.neighbors(v))
    seen = set()
    count = 0
    for s in around:
        if s in seen:
            continue
        count += 1
        seen.add(s)
        stack = [s]
        while stack:
            u = stack.pop()
            for w in L.neighbors(u):
                if w in around and w not in seen:
                    seen.add(w)
                    stack.append(w)
    return count


def test_dense_homology_closed_forms():
    # 58 + 6 = 64 vertices; cliques of size 6
    L = path_power_with_hole(58, 5, 6)
    phi = character(L)
    assert reduced_betti(L).betti == (0, 0, 1, 0, 0, 0, 0)
    b1 = sum(
        (abs(phi.value(v)) * (link_components(L, v) - 1) for v in L.vertices),
        start=Fraction(0),
    )
    assert b1 > 0
    kernel = l2_betti_kernel(L, phi)
    assert kernel[1] == b1
    assert sum(kernel) == b1


# random_chordal(1000, 7): 5,531 simplices and clique number 7, but one
# vertex has 86 neighbours, so its link is large in vertices, small in work.


@pytest.fixture(scope="module")
def chordal_1000():
    L = random_chordal(1000, 7)
    return L, character(L)


def test_cross_check_past_65_vertices(chordal_1000):
    L, phi = chordal_1000
    assert max(len(L.neighbors(v)) for v in L.vertices) == 86
    assert sum(L.f_vector()) == 5531
    report = cross_check(L, phi)
    assert report.applicable and report.equal
    assert report.thickness == thurston_norm(L, phi) > 0


def test_clique_tree_euler_bookkeeping_at_10k():
    L = random_chordal(10**4, 7)
    gog = clique_tree_splitting(L)
    assert len(gog.edges) == len(gog.vertex_groups) - 1
    assert euler_check(gog) == euler_raag(L) == 0


def peo_f_vector(L):
    """f_d = sum over v of C(|later(v)|, d), with later(v) the neighbours of
    v after it in the kept perfect elimination ordering: each simplex is
    counted once, at its first vertex in that ordering."""
    peo = is_chordal(L).peo
    pos = {v: i for i, v in enumerate(peo)}
    later = [sum(pos[w] > pos[v] for w in L.neighbors(v)) for v in peo]
    return tuple(sum(comb(k, d) for k in later) for d in range(max(later) + 1))


@pytest.mark.parametrize("n", [1, 2, 3, 7, 25, 90, 200])
def test_enumerated_f_vector_matches_the_elimination_ordering(n):
    for seed in range(5):
        L = random_chordal(n, 100 * n + seed)
        assert L.f_vector() == peo_f_vector(L)


def test_enumerated_f_vector_matches_the_elimination_ordering_at_10k():
    L = random_chordal(10**4, 7)
    assert L.f_vector() == peo_f_vector(L)
    assert sum(L.f_vector()) == 61793


def write_case(tmp_path, L, phi):
    complex_path = tmp_path / "complex.json"
    char_path = tmp_path / "char.json"
    complex_path.write_text(json.dumps(L.to_json_doc()))
    char_path.write_text(json.dumps(phi.to_json_doc()))
    return str(complex_path), str(char_path)


def test_cli_verify_past_65_vertices(chordal_1000, tmp_path, capsys):
    complex_path, char_path = write_case(tmp_path, *chordal_1000)
    code = main(["verify", "--complex", complex_path, "--char", char_path])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["applicable"] and doc["equal"]


def test_cli_over_budget_is_one_clique_cap_document(chordal_1000, tmp_path, capsys,
                                                    monkeypatch):
    monkeypatch.setattr(complexes, "SIMPLEX_BUDGET", 1000)
    complex_path, _ = write_case(tmp_path, *chordal_1000)
    code = main(["analyze", "--complex", complex_path])
    captured = capsys.readouterr()
    assert code == 1
    error = json.loads(captured.out)["error"]  # exactly one document
    assert error["kind"] == "clique_cap" and error["budget"] == 1000
    assert "Traceback" not in captured.err


def test_sparse_polytope_and_ball_at_10k():
    L = random_chordal(10**4, 7)
    phi = Character({v: i % 7 - 3 for i, v in enumerate(L.vertices)})
    z = l2_polytope(L)
    assert thickness(z, phi) == thurston_norm(L, phi) > 0
    assert all(len(direction) == 1 for direction in z._terms)
    assert norm_ball(L).weights == {v: L.cut_rank(v) for v in L.vertices}
