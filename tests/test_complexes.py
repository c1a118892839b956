import inspect
import sys

import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import (
    brute_chordal,
    brute_maximal_cliques,
    brute_simplices_by_dim,
    recount_cut_rank,
    sorted_peo_violation,
)
from raagnorm import (
    CliqueCapError,
    DisconnectedError,
    FlagComplex,
    InvalidInput,
    NotChordalError,
    ParseError,
    UnknownVertexError,
    clique_tree,
    complexes,
    is_chordal,
    lex_bfs,
    parse_complex,
    random_chordal,
    verify_induced_cycle,
    verify_peo,
)
from raagnorm.complexes import spanning_forest
from raagnorm.verify import SplitMix64, plant_cycle, random_character


def random_graph(n, seed, density_percent=40):
    rng = SplitMix64(seed)
    names = [f"g{i}" for i in range(n)]
    edges = [
        (names[i], names[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.below(100) < density_percent
    ]
    return FlagComplex(names, edges)


@st.composite
def graphs(draw, max_n=10):
    """Small graphs of any shape (isolated vertices, several components,
    holes) with a shuffled declaration order."""
    n = draw(st.integers(0, max_n))
    L = random_graph(n, draw(st.integers(0, 2**32)), draw(st.integers(0, 100)))
    return FlagComplex(draw(st.permutations(L.vertices)), L.edges())


# -- parsing -------------------------------------------------------------------


def test_parse_json_p3(p3):
    parsed = parse_complex('{"vertices":["a","b","c"],"edges":[["a","b"],["b","c"]]}')
    assert parsed == p3


def test_parse_edge_list_p3(p3):
    assert parse_complex("a b\nb c") == p3


def test_parse_edge_list_isolated_vertex():
    L = parse_complex("a b\nc\n")
    assert L.vertices == ("a", "b", "c")
    assert L.edges() == [("a", "b")]


def test_parse_single_vertex():
    L = parse_complex('{"vertices":["a"],"edges":[]}')
    assert L.vertices == ("a",)
    assert L.edges() == []


def test_parse_empty_complex():
    assert parse_complex('{"vertices":[],"edges":[]}').vertices == ()


@pytest.mark.parametrize(
    "text, fragment",
    [
        ('{"vertices":["a"],"edges":[["a","a"]]}', "self-loop"),
        ('{"vertices":["a","b"],"edges":[["a","b"],["b","a"]]}', "duplicate"),
        ('{"vertices":["a"],"edges":[["a","b"]]}', "undeclared"),
        ('{"vertices":["a","b"],"edges":[[["a"],"b"]]}', "endpoints must be strings"),
        ('{"vertices":["a","b"],"edges":[["a",{"b":1}]]}', "endpoints must be strings"),
        ('{"vertices":["a","b"],"edges":[["a",1]]}', "endpoints must be strings"),
        ('{"vertices":["a","b"],"edges":["ab"]}', "expected a pair"),
        ('{"vertices":["a","b"],"edges":[{"a":1,"b":2}]}', "expected a pair"),
        ('{"vertices":["a","b"],"edges":[["a","b","a"]]}', "expected a pair"),
        ('{"vertices":["a","a"],"edges":[]}', "duplicate vertex"),
        ('{"vertices":"a"}', "vertices"),
        ('{"vertices":["a"],"edges":[],"extra":1}', "unexpected"),
        ("{not json", "line 1"),
        ("a b c\n", "line 1"),
        ("a b\na b\n", "line 2"),
        ("x x\n", "self-loop"),
    ],
)
def test_parse_errors_report_location(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_complex(text)
    assert fragment in str(err.value)


def test_edge_list_duplicate_edge_message():
    text = "a b\nb c\n\nc a\nc b\n"
    with pytest.raises(ParseError) as err:
        parse_complex(text)
    assert str(err.value) == "line 5: duplicate edge 'c'-'b'"


def test_edge_list_long_path():
    n = 8000
    text = "".join(f"p{i} p{i + 1}\n" for i in range(n))
    L = parse_complex(text)
    assert len(L.vertices) == n + 1
    assert len(L.edges()) == n
    with pytest.raises(ParseError, match=f"line {n + 1}: duplicate edge"):
        parse_complex(text + f"p{n} p{n - 1}\n")


def test_json_roundtrip(tt):
    assert parse_complex(__import__("json").dumps(tt.to_json_doc())) == tt


# -- cliques -------------------------------------------------------------------


def test_maximal_cliques_p3(p3):
    expected = [("a", "b"), ("b", "c")]
    assert p3.maximal_cliques() == expected
    assert brute_maximal_cliques(p3) == expected


def test_maximal_cliques_k3(k3):
    assert k3.maximal_cliques() == [("a", "b", "c")]


def test_maximal_cliques_two_triangles(tt):
    expected = [("v1", "v2", "w1"), ("v1", "v2", "w2")]
    assert tt.maximal_cliques() == expected
    assert brute_maximal_cliques(tt) == expected


def test_maximal_cliques_empty():
    assert FlagComplex([]).maximal_cliques() == []


def test_maximal_clique_larger_than_the_recursion_limit():
    for n in (120, 1100):
        names = [f"k{i}" for i in range(n)]
        K = FlagComplex(names, [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]])
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 60)
        try:
            cliques = K.maximal_cliques()
        finally:
            sys.setrecursionlimit(limit)
        assert cliques == [K.vertices]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 7), seed=st.integers(0, 2**32), density=st.integers(0, 100))
def test_maximal_cliques_match_bruteforce(n, seed, density):
    L = random_graph(n, seed, density)
    if brute_chordal(L):
        assert L.maximal_cliques() == brute_maximal_cliques(L)
    else:
        with pytest.raises(NotChordalError) as caught:
            L.maximal_cliques()
        assert verify_induced_cycle(L, caught.value.info["cycle"])


def test_clique_cap(monkeypatch):
    L = random_graph(5, 1)
    total = sum(map(len, L.simplices_by_dim()))
    # The exact budget admits the enumeration; one short stops it.
    monkeypatch.setattr(complexes, "SIMPLEX_BUDGET", total)
    assert sum(map(len, L.simplices_by_dim())) == total
    monkeypatch.setattr(complexes, "SIMPLEX_BUDGET", total - 1)
    with pytest.raises(CliqueCapError):
        L.simplices_by_dim()
    monkeypatch.setattr(complexes, "SIMPLEX_BUDGET", 4)
    with pytest.raises(CliqueCapError) as caught:
        L.simplices_by_dim()
    assert caught.value.kind == "clique_cap" and caught.value.info == {"budget": 4}
    # Reading the cliques off the elimination ordering builds no simplices.
    assert L.maximal_cliques() == brute_maximal_cliques(L)


def test_spanning_forest_counts_the_pairs_that_join_two_classes():
    assert spanning_forest(6, [(0, 1), (1, 2), (3, 4)]) == 3  # a forest: all join
    assert spanning_forest(4, [(0, 1), (1, 2), (2, 3), (3, 0)]) == 3  # a cycle
    assert spanning_forest(3, [(0, 1), (1, 0), (0, 1), (1, 2)]) == 2  # a repeated pair
    assert spanning_forest(3, iter([(2, 0)])) == 1  # pairs may stream in
    assert spanning_forest(0, []) == 0


def test_simplices_by_dim_orders(k3):
    levels = k3.simplices_by_dim()
    assert levels[0] == [("a",), ("b",), ("c",)]
    assert levels[1] == [("a", "b"), ("a", "c"), ("b", "c")]
    assert levels[2] == [("a", "b", "c")]


@settings(max_examples=120, deadline=None)
@given(L=graphs(max_n=12))
def test_simplices_by_dim_matches_bruteforce(L):
    levels = L.simplices_by_dim()
    assert levels == brute_simplices_by_dim(L)
    assert L.f_vector() == tuple(len(level) for level in levels)


def test_f_vector_counts_without_enumerating(monkeypatch):
    cases = [FlagComplex([]), random_graph(1, 3)]
    cases += [random_graph(n, n + 11, 25 + 5 * n) for n in range(2, 13)]
    cases += [random_chordal(n, n) for n in (5, 9, 14)]
    expected = [tuple(map(len, brute_simplices_by_dim(L))) for L in cases]

    def refuse(self):
        raise AssertionError("f_vector built the simplices")

    monkeypatch.setattr(FlagComplex, "simplices_by_dim", refuse)
    for L, want in zip(cases, expected):
        total = sum(want)
        fresh = FlagComplex(L.vertices, L.edges())
        monkeypatch.setattr(complexes, "SIMPLEX_BUDGET", total - 1)
        if total:
            with pytest.raises(CliqueCapError):
                fresh.f_vector()
            assert not fresh._cache
        monkeypatch.setattr(complexes, "SIMPLEX_BUDGET", total)
        assert fresh.f_vector() == want and fresh._cache == {"f_vector": want}


# -- chordality -------------------------------------------------------------------


def test_p3_chordal_with_valid_peo(p3):
    w = is_chordal(p3)
    assert w.chordal and w.bad_cycle is None
    assert verify_peo(p3, w.peo)


def test_c4_not_chordal(c4):
    w = is_chordal(c4)
    assert not w.chordal and w.peo is None
    assert w.bad_cycle == ("a", "b", "c", "d")
    assert verify_induced_cycle(c4, w.bad_cycle)


def test_two_triangles_chordal(tt):
    assert is_chordal(tt).chordal


def test_disconnected_chordality():
    L = FlagComplex(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    w = is_chordal(L)
    assert w.chordal and verify_peo(L, w.peo)


def test_long_hole_found():
    cycle = [f"n{i}" for i in range(6)]
    L = FlagComplex(cycle, [(cycle[i], cycle[(i + 1) % 6]) for i in range(6)])
    w = is_chordal(L)
    assert not w.chordal
    assert len(w.bad_cycle) == 6
    assert verify_induced_cycle(L, w.bad_cycle)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 7), seed=st.integers(0, 2**32), density=st.integers(0, 100))
def test_chordality_matches_bruteforce(n, seed, density):
    L = random_graph(n, seed, density)
    w = is_chordal(L)
    assert w.chordal == brute_chordal(L)
    if w.chordal:
        assert verify_peo(L, w.peo)
    else:
        assert verify_induced_cycle(L, w.bad_cycle)


# -- links, induced subcomplexes, components ------------------------------------------


def test_link_p3(p3):
    lk = p3.link("b")
    assert lk.vertices == ("a", "c") and lk.edges() == []


def test_link_k3(k3):
    lk = k3.link("a")
    assert lk.vertices == ("b", "c") and lk.edges() == [("b", "c")]


def test_link_star_center(star3):
    lk = star3.link("c")
    assert lk.vertices == ("x", "y", "z") and lk.edges() == []


def test_link_unknown_vertex(p3):
    with pytest.raises(UnknownVertexError):
        p3.link("zz")


def test_induced(p3, tt):
    sub = p3.induced(["a", "c"])
    assert sub.vertices == ("a", "c") and sub.edges() == []
    assert p3.induced([]).vertices == ()
    tri = tt.induced(["v1", "v2", "w1"])
    assert len(tri.edges()) == 3
    with pytest.raises(UnknownVertexError):
        p3.induced(["a", "zz"])
    # A one-shot iterator is read once for the subset and once for the error.
    assert p3.induced(v for v in ["c", "a"]) == sub
    with pytest.raises(UnknownVertexError, match="'zz'"):
        p3.induced(v for v in ["a", "zz", "yy"])


def test_components():
    L = FlagComplex(["a", "b"])
    assert [c.vertices for c in L.components()] == [("a",), ("b",)]
    p3 = FlagComplex(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert [c.vertices for c in p3.components()] == [("a", "b", "c")]
    mixed = FlagComplex(
        ["a", "b", "c", "x", "y", "z"],
        [("a", "b"), ("b", "c"), ("x", "y"), ("x", "z"), ("y", "z")],
    )
    assert [c.vertices for c in mixed.components()] == [("a", "b", "c"), ("x", "y", "z")]
    assert not FlagComplex([]).is_connected()


def subcomplex_cases():
    """(vertices, edge list) of seeded graphs: chordal, chordal with a
    planted hole, disconnected and holey random graphs in a shuffled
    declaration order, and the empty graph."""
    out = [((), [])]
    for seed in range(6):
        L = random_chordal(3 + 4 * seed, seed + 40)
        out.append((L.vertices, L.edges()))
        holey = plant_cycle(L, 4 + seed % 4, "h")
        out.append((holey.vertices, holey.edges()))
        G = random_graph(4 + 2 * seed, seed + 90, 20 + 5 * seed)
        out.append((G.vertices[::-1], [(b, a) for a, b in G.edges()]))
    return out


def parsed_subcomplex(vertices, edges, keep):
    """The complex induced on ``keep``, built through the parsing
    constructor, and its edges in the documented order."""
    verts = [v for v in vertices if v in keep]
    pos = {v: i for i, v in enumerate(verts)}
    pairs = [(a, b) if pos[a] < pos[b] else (b, a) for a, b in edges if a in keep and b in keep]
    pairs.sort(key=lambda e: (pos[e[0]], pos[e[1]]))
    return FlagComplex(verts, pairs), pairs


def assert_same_complex(got, want, pairs):
    assert got == want and want == got
    assert hash(got) == hash(want) == hash((want.vertices, frozenset(pairs)))
    assert got.edges() == want.edges() == pairs
    assert got.to_json_doc() == want.to_json_doc()
    assert repr(got) == repr(want)


def subsets_of(vertices, seed):
    rng = SplitMix64(seed)
    return [
        (),
        vertices,
        vertices[::2],
        vertices[1::3][::-1],  # any order: the result keeps declaration order
        [v for v in vertices if rng.below(3)] * 2,  # repeats count once
    ]


@pytest.mark.parametrize("case", range(19))
def test_induced_link_and_components_equal_parsed_twins(case):
    vertices, edges = subcomplex_cases()[case]
    L = FlagComplex(vertices, edges)
    for vs in subsets_of(vertices, case):
        assert_same_complex(L.induced(vs), *parsed_subcomplex(vertices, edges, set(vs)))
    for v in vertices:
        near = {w for e in edges if v in e for w in e if w != v}
        assert_same_complex(L.link(v), *parsed_subcomplex(vertices, edges, near))
    parts = L.components()
    assert sorted(v for c in parts for v in c.vertices) == sorted(vertices)
    for c in parts:
        assert_same_complex(c, *parsed_subcomplex(vertices, edges, set(c.vertices)))
    with pytest.raises(UnknownVertexError):
        L.induced(list(vertices[:1]) + ["zz"])


@pytest.mark.parametrize("case", range(19))
def test_subset_components_match_induced_components(case):
    vertices, edges = subcomplex_cases()[case]
    L = FlagComplex(vertices, edges)
    read = complexes._component_vertex_sets
    assert read(L) == tuple(c.vertices for c in L.components())
    for vs in subsets_of(vertices, case):
        assert read(L, vs) == tuple(c.vertices for c in L.induced(vs).components())


def test_cut_rank(p3, star3, tt):
    assert p3.cut_rank("b") == 1
    assert p3.cut_rank("a") == 0
    assert star3.cut_rank("c") == 2
    assert all(tt.cut_rank(v) == 0 for v in tt.vertices)
    with pytest.raises(InvalidInput):
        FlagComplex(["a"]).cut_rank("a")
    with pytest.raises(UnknownVertexError):
        p3.cut_rank("zz")


@settings(max_examples=150, deadline=None)
@given(L=graphs())
def test_cut_rank_matches_component_recount(L):
    assume(len(L) >= 2)
    for v in L.vertices:
        assert L.cut_rank(v) == recount_cut_rank(L, v)


def test_cut_rank_recount_fixed_shapes():
    chordal = [random_chordal(8, seed) for seed in range(20)]
    # Isolated vertices only, a hole with a pendant, and two components
    # with an isolated vertex between them.
    others = [
        FlagComplex(["a", "b", "c"]),
        FlagComplex(["a", "b", "c", "d", "e"],
                    [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("d", "e")]),
        FlagComplex(["a", "b", "c", "i", "x", "y", "z"],
                    [("a", "b"), ("b", "c"), ("x", "y"), ("y", "z")]),
    ]
    for L in chordal + others:
        for v in L.vertices:
            assert L.cut_rank(v) == recount_cut_rank(L, v)
    assert [others[2].cut_rank(v) for v in others[2].vertices] == [2, 3, 2, 1, 2, 3, 2]


def filtered_induced(L, vs):
    """The former definition: filter the parent's sorted edge list."""
    keep = set(vs)
    verts = [v for v in L.vertices if v in keep]
    return FlagComplex(verts, [e for e in L.edges() if e[0] in keep and e[1] in keep])


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_induced_matches_filtered_edge_list(data):
    L = data.draw(graphs())
    keep = data.draw(st.lists(st.sampled_from(L.vertices), unique=True)) if len(L) else []
    for sub, ref in [(L.induced(keep), filtered_induced(L, keep))] + [
        (L.link(v), filtered_induced(L, L.neighbors(v))) for v in L.vertices
    ]:
        assert sub == ref and hash(sub) == hash(ref) and repr(sub) == repr(ref)
        assert [sub.neighbors(v) for v in sub.vertices] == [
            ref.neighbors(v) for v in ref.vertices
        ]


def label_list_lex_bfs(L):
    """The former Lex-BFS: repeatedly take the unvisited vertex with the
    largest label list, ties by declaration order."""
    n = len(L.vertices)
    label = {v: [] for v in L.vertices}
    order = []
    unvisited = set(L.vertices)
    for step in range(n):
        best = max(unvisited, key=lambda v: (label[v], -L.index(v)))
        unvisited.discard(best)
        order.append(best)
        for w in L.neighbors(best):
            if w in unvisited:
                label[w].append(n - step)
    return tuple(order)


@settings(max_examples=200, deadline=None)
@given(L=graphs(max_n=12))
def test_lex_bfs_matches_label_list_reference(L):
    assert lex_bfs(L) == label_list_lex_bfs(L)


def test_lex_bfs_matches_label_list_reference_on_chordal():
    for seed in range(40):
        L = random_chordal(2 + seed % 24, seed)
        shuffled = FlagComplex(reversed(L.vertices), L.edges())
        for G in (L, shuffled):
            assert lex_bfs(G) == label_list_lex_bfs(G)


def test_peo_check_matches_the_sorting_oracle():
    """The elimination check reads each vertex's later neighbours in
    elimination order without sorting them; its triple, and so the
    chordality witness, must be the sorting check's."""
    rng = SplitMix64(41)
    violations = 0
    for seed in range(30):
        base = random_chordal(1 + seed % 15, seed + 4100)
        for L in (base, plant_cycle(base, 4 + seed % 5, "h")):
            peo = tuple(reversed(lex_bfs(L)))
            shuffled = tuple(rng.sample(L.vertices, len(L)))
            for order in (peo, L.vertices, tuple(reversed(L.vertices)), shuffled):
                bad = sorted_peo_violation(L, order)
                violations += bad is not None
                assert complexes._peo_violation(L, order) == bad
            bad = sorted_peo_violation(L, peo)
            if bad is None:
                expected = {"chordal": True, "peo": list(peo)}
            else:
                cycle = complexes._find_hole(L, hint=bad)
                expected = {"chordal": False, "bad_cycle": list(cycle)}
            assert is_chordal(L).to_json_doc() == expected
    assert violations >= 30


def test_cache_leaves_equality_and_hash_alone():
    a = random_chordal(12, 5)
    b = FlagComplex(a.vertices, a.edges())
    c = FlagComplex(a.vertices, a.edges())
    assert is_chordal(b).chordal and b.is_connected()
    assert [b.cut_rank(v) for v in b.vertices] == [recount_cut_rank(b, v) for v in b.vertices]
    assert b._cache is not None and c._cache is None
    assert b == c and hash(b) == hash(c) and repr(b) == repr(c)
    assert len({b, c}) == 1


# -- clique trees -------------------------------------------------------------------


def test_clique_tree_p3(p3):
    cliques, edges = clique_tree(p3)
    assert cliques == [("a", "b"), ("b", "c")]
    assert edges == [(0, 1)]


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 40), seed=st.integers(0, 2**32))
def test_clique_tree_running_intersection(n, seed):
    L = random_chordal(n, seed)
    cliques, edges = clique_tree(L)
    if n <= 12:
        assert cliques == brute_maximal_cliques(L)
    assert len(edges) == len(cliques) - 1
    adjacency = {i: set() for i in range(len(cliques))}
    for i, j in edges:
        assert i < j and set(cliques[i]) & set(cliques[j])
        adjacency[i].add(j)
        adjacency[j].add(i)
    for v in L.vertices:
        holders = {i for i, c in enumerate(cliques) if v in c}
        start = min(holders)
        seen = {start}
        stack = [start]
        while stack:
            for w in adjacency[stack.pop()] & holders - seen:
                seen.add(w)
                stack.append(w)
        assert seen == holders, f"vertex {v} not a subtree"
    assert clique_tree(FlagComplex(L.vertices, L.edges())) == (cliques, edges)
    other = random_chordal(n, seed + 1)
    union = FlagComplex(
        list(L.vertices) + [f"u{v}" for v in other.vertices],
        L.edges() + [(f"u{a}", f"u{b}") for a, b in other.edges()],
    )
    with pytest.raises(DisconnectedError):
        clique_tree(union)


def test_clique_tree_requires_connected_chordal(c4):
    with pytest.raises(NotChordalError):
        clique_tree(c4)
    with pytest.raises(DisconnectedError):
        clique_tree(FlagComplex(["a", "b"]))


# -- misc -------------------------------------------------------------------------


def test_one_neighborhood(tt):
    assert tt.one_neighborhood(["w1"]) == ("v1", "v2", "w1")


def test_vertex_order_is_declaration_order():
    L = FlagComplex(["z", "y", "x"], [("z", "x")])
    assert L.sorted(["x", "y", "z"]) == ("z", "y", "x")
    assert L.edges() == [("z", "x")]
