import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import (
    brute_chordal,
    brute_maximal_cliques,
    brute_simplices_by_dim,
    is_clique,
    recount_cut_rank,
    separates,
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
    find_separating_clique,
    is_chordal,
    lex_bfs,
    parse_complex,
    random_chordal,
    verify_induced_cycle,
    verify_peo,
)
from raagnorm.verify import SplitMix64, random_character


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


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 7), seed=st.integers(0, 2**32), density=st.integers(0, 100))
def test_maximal_cliques_match_bruteforce(n, seed, density):
    L = random_graph(n, seed, density)
    assert L.maximal_cliques() == brute_maximal_cliques(L)


def test_clique_cap():
    L = random_graph(5, 1)
    with pytest.raises(CliqueCapError):
        L.maximal_cliques(cap=4)
    with pytest.raises(CliqueCapError):
        L.simplices_by_dim(cap=4)
    assert L.maximal_cliques(cap=5)


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


def test_cache_leaves_equality_and_hash_alone():
    a = random_chordal(12, 5)
    b = FlagComplex(a.vertices, a.edges())
    c = FlagComplex(a.vertices, a.edges())
    assert is_chordal(b).chordal and b.is_connected()
    assert [b.cut_rank(v) for v in b.vertices] == [recount_cut_rank(b, v) for v in b.vertices]
    assert b._cache is not None and c._cache is None
    assert b == c and hash(b) == hash(c) and repr(b) == repr(c)
    assert len({b, c}) == 1


# -- separating cliques -----------------------------------------------------------


def test_separator_p3(p3):
    assert find_separating_clique(p3, ["a"], ["c"]) == ("b",)


def test_separator_two_triangles(tt):
    assert find_separating_clique(tt, ["w1"], ["w2"]) == ("v1", "v2")


def test_separator_precondition_errors(p3, c4):
    with pytest.raises(InvalidInput):
        find_separating_clique(p3, ["a"], ["b"])  # adjacent
    with pytest.raises(InvalidInput):
        find_separating_clique(p3, ["a"], ["a"])  # intersect
    with pytest.raises(InvalidInput):
        find_separating_clique(p3, [], ["a"])
    with pytest.raises(NotChordalError):
        find_separating_clique(c4, ["a"], ["c"])
    with pytest.raises(DisconnectedError):
        find_separating_clique(FlagComplex(["a", "b", "c"], [("a", "b")]), ["a"], ["c"])


def test_separator_properties_on_random_chordal():
    found = 0
    for seed in range(40):
        L = random_chordal(9, seed)
        pairs = [
            (a, b)
            for i, a in enumerate(L.vertices)
            for b in L.vertices[i + 1 :]
            if not L.has_edge(a, b)
        ]
        if not pairs:
            continue
        a, b = pairs[seed % len(pairs)]
        sep = find_separating_clique(L, [a], [b])
        found += 1
        assert is_clique(L, sep)
        assert separates(L, sep, [a], [b])
        for s in sep:  # inclusion-minimal
            assert not separates(L, set(sep) - {s}, [a], [b])
    assert found >= 10


# -- clique trees -------------------------------------------------------------------


def test_clique_tree_p3(p3):
    cliques, edges = clique_tree(p3)
    assert cliques == [("a", "b"), ("b", "c")]
    assert edges == [(0, 1)]


def test_clique_tree_running_intersection():
    for seed in range(25):
        L = random_chordal(10, seed + 100)
        cliques, edges = clique_tree(L)
        assert len(edges) == len(cliques) - 1
        adjacency = {i: set() for i in range(len(cliques))}
        for i, j in edges:
            adjacency[i].add(j)
            adjacency[j].add(i)
        for v in L.vertices:
            holders = [i for i, c in enumerate(cliques) if v in c]
            seen = {holders[0]}
            stack = [holders[0]]
            while stack:
                u = stack.pop()
                for w in adjacency[u]:
                    if w in set(holders) and w not in seen:
                        seen.add(w)
                        stack.append(w)
            assert len(seen) == len(holders), f"vertex {v} not a subtree"


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
