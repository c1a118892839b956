import json
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import parabolic_euler_and_b1, streamed_window
from raagnorm import (
    Amalgam,
    BlockKernel,
    Character,
    CliqueCapError,
    FlagComplex,
    GogEdge,
    GraphOfGroups,
    NotChordalError,
    Parabolic,
    ParseError,
    SplittingError,
    Trivial,
    UnknownVertexError,
    ZeroCharacterError,
    b1_of,
    clique_tree_splitting,
    complexes,
    cyclic_cover_truncation,
    dual_splitting,
    euler_check,
    euler_of,
    euler_raag,
    l2_euler_kernel,
    living_blocks,
    random_chordal,
    splitting_complexity,
    thurston_norm,
    two_triangles,
)
from raagnorm.verify import SplitMix64, random_character, random_primitive_character
from test_complexes import random_graph


# -- descriptors ---------------------------------------------------------------


def test_descriptor_euler(p3, tt):
    assert euler_of(Parabolic(("a", "b")), p3) == 0
    assert euler_of(Parabolic(("a", "c")), p3) == -1  # free of rank two
    assert euler_of(Parabolic(()), p3) == 1
    assert euler_of(Trivial(), p3) == 1
    assert euler_of(BlockKernel(("a",), 1, Fraction(-5)), p3) == -5
    amalgam = Amalgam((Parabolic(("a", "b")), Parabolic(("b", "c"))), (Parabolic(("b",)),))
    assert euler_of(amalgam, p3) == 0


def test_descriptor_b1(p3):
    assert b1_of(Parabolic(("a", "c")), p3) == 1  # two components, one reduced
    assert b1_of(Parabolic(("a", "b")), p3) == 0
    assert b1_of(Trivial(), p3) == 0
    assert b1_of(BlockKernel(("a",), 1, Fraction(-3)), p3) == 3
    assert b1_of(BlockKernel(("a",), 1, Fraction(1)), p3) == 0  # trivial kernel


@st.composite
def parabolic_cases(draw):
    """A complex, chordal or not, and a vertex tuple of it: part of a
    maximal clique or any vertices, empty or not, possibly with a repeat."""
    n = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**32))
    if draw(st.booleans()):
        L = random_chordal(n, seed)
        pool = draw(st.sampled_from([L.vertices] + L.maximal_cliques()))
    else:
        L = random_graph(n, seed, draw(st.integers(0, 100)))
        pool = L.vertices
    vs = draw(st.lists(st.sampled_from(pool), max_size=min(len(pool), 8), unique=True))
    if vs and draw(st.booleans()):
        vs.insert(draw(st.integers(0, len(vs))), draw(st.sampled_from(vs)))
    return L, tuple(vs)


@settings(max_examples=300, deadline=None)
@given(parabolic_cases())
def test_parabolic_descriptors_match_their_induced_subcomplex(case):
    L, vs = case
    chi, b1 = parabolic_euler_and_b1(L, vs)
    assert euler_of(Parabolic(vs), L) == chi
    assert b1_of(Parabolic(vs), L) == b1
    for bad in (vs + ("unknown",), ("unknown",) + vs):
        with pytest.raises(UnknownVertexError):
            euler_of(Parabolic(bad), L)
        with pytest.raises(UnknownVertexError):
            b1_of(Parabolic(bad), L)


@pytest.mark.parametrize("n", [5, 30, 200])
def test_clique_tree_euler_check_builds_no_induced_copy(n, monkeypatch):
    L = random_chordal(n, n + 17)

    def refuse(*args):
        raise AssertionError("called where it must not be")

    monkeypatch.setattr(FlagComplex, "induced", refuse)
    gog = clique_tree_splitting(L)
    assert euler_check(gog) == 0
    for g in gog.vertex_groups + tuple(e.group for e in gog.edges):
        assert b1_of(g, L) == 0


# -- clique-tree splittings ---------------------------------------------------------


def test_clique_tree_splitting_p3(p3):
    gog = clique_tree_splitting(p3)
    assert gog.vertex_groups == (Parabolic(("a", "b")), Parabolic(("b", "c")))
    assert len(gog.edges) == 1
    assert gog.edges[0].group == Parabolic(("b",))
    assert gog.tree_edges == {0}
    assert not gog.stable_letters


def test_clique_tree_splitting_simplex(k3):
    gog = clique_tree_splitting(k3)
    assert gog.vertex_groups == (Parabolic(("a", "b", "c")),)
    assert gog.edges == ()


def test_clique_tree_splitting_two_triangles(tt):
    gog = clique_tree_splitting(tt)
    assert gog.vertex_groups == (
        Parabolic(("v1", "v2", "w1")),
        Parabolic(("v1", "v2", "w2")),
    )
    assert gog.edges[0].group == Parabolic(("v1", "v2"))


def test_clique_tree_euler_bookkeeping():
    for seed in range(15):
        L = random_chordal(1 + seed % 9, seed + 40)
        assert euler_check(clique_tree_splitting(L)) == euler_raag(L) == 0
        # edge groups are faces of both endpoint cliques
        gog = clique_tree_splitting(L)
        for e in gog.edges:
            sep = set(e.group.vertices)
            assert sep <= set(gog.vertex_groups[e.source].vertices)
            assert sep <= set(gog.vertex_groups[e.target].vertices)


# -- living blocks ----------------------------------------------------------------


def test_living_blocks(p3, tt, phi111, phi101):
    assert living_blocks(p3, phi101) == [("a",), ("c",)]
    assert living_blocks(p3, phi111) == [("a", "b", "c")]
    phi = Character({"v1": 1, "v2": 0, "w1": 0, "w2": 0})
    assert living_blocks(tt, phi) == [("v1",)]
    with pytest.raises(ZeroCharacterError):
        living_blocks(p3, Character({"a": 0, "b": 0, "c": 0}))


# -- dual splittings ---------------------------------------------------------------


def test_dual_splitting_p3_fibered(p3, phi111):
    gog, report = dual_splitting(p3, phi111)
    assert gog.single_vertex
    assert len(gog.edges) == 1
    edge = gog.edges[0]
    assert edge.source == edge.target == 0
    assert edge.group == BlockKernel(("a", "b", "c"), 1, Fraction(-1))
    assert gog.vertex_groups[0] == edge.group
    assert gog.stable_letters == {0: Fraction(1)}
    assert report.complexity == 1
    assert splitting_complexity(gog, phi111) == 1
    assert report.tree_certificate["is_tree"]


def test_dual_splitting_p3_dead_middle(p3, phi101):
    gog, report = dual_splitting(p3, phi101)
    assert len(gog.edges) == 2
    for e in gog.edges:
        assert e.group.k == 1 and e.group.chi == 0
    assert report.complexity == 0
    assert splitting_complexity(gog, phi101) == 0
    # collapsed vertex amalgamates both kernels and the dead parabolic
    vertex = gog.vertex_groups[0]
    assert isinstance(vertex, Amalgam)
    assert Parabolic(("b",)) in vertex.parts
    assert vertex.edge_groups == (Parabolic(("b",)), Parabolic(("b",)))


def test_dual_splitting_star(star3):
    phi = Character({"c": 1, "x": 0, "y": 0, "z": 0})
    gog, report = dual_splitting(star3, phi)
    assert len(gog.edges) == 1
    assert gog.edges[0].group == BlockKernel(("c",), 1, Fraction(-2))
    assert report.complexity == 2
    assert len(report.blocks) == 1
    row = report.blocks[0]
    assert (row.block, row.k, row.chi, row.contribution) == (("c",), 1, Fraction(-2), Fraction(2))


def test_dual_splitting_scaled_character(p3):
    phi = Character({"a": 2, "b": 2, "c": 2})
    gog, report = dual_splitting(p3, phi)
    assert gog.edges[0].group.k == 2
    assert gog.edges[0].group.chi == -1
    assert report.complexity == 2
    assert splitting_complexity(gog, phi) == 2


def test_dual_splitting_gates(c4, p3):
    with pytest.raises(NotChordalError):
        dual_splitting(c4, Character({v: 1 for v in c4.vertices}))
    with pytest.raises(ZeroCharacterError):
        dual_splitting(p3, Character({"a": 0, "b": 0, "c": 0}))
    from raagnorm import NotIntegralError

    with pytest.raises(NotIntegralError):
        dual_splitting(p3, Character({"a": "1/2", "b": 0, "c": 0}))


def test_dual_splitting_disconnected_free_product():
    L = FlagComplex(["a", "b"])
    phi = Character({"a": 1, "b": 1})
    gog, report = dual_splitting(L, phi)
    assert gog.single_vertex and len(gog.edges) == 2
    vertex = gog.vertex_groups[0]
    assert isinstance(vertex, Amalgam)
    assert Trivial() in vertex.parts
    assert vertex.edge_groups == (Trivial(), Trivial())
    # both blocks are singleton components with trivial kernels
    for e in gog.edges:
        assert e.group.chi == 1
    assert report.complexity == -2
    assert euler_check(gog) == euler_raag(L) == -1


def test_dual_splitting_component_with_dead_character():
    L = FlagComplex(
        ["a", "b", "c", "x", "y"],
        [("a", "b"), ("b", "c"), ("x", "y")],
    )
    phi = Character({"a": 1, "b": 1, "c": 1, "x": 0, "y": 0})
    gog, report = dual_splitting(L, phi)
    assert gog.single_vertex and len(gog.edges) == 1
    vertex = gog.vertex_groups[0]
    assert Parabolic(("x", "y")) in vertex.parts
    assert report.complexity == 1
    assert euler_check(gog) == euler_raag(L)


def test_dual_splitting_fibered_single_block_covers_everything():
    rng = SplitMix64(41)
    from raagnorm import is_fibered

    hits = 0
    for seed in range(60):
        L = random_chordal(2 + seed % 8, seed + 4000)
        phi = random_primitive_character(L, rng)
        if not is_fibered(L, phi).fibered:
            continue
        hits += 1
        gog, report = dual_splitting(L, phi)
        assert len(report.blocks) == 1 and len(gog.edges) == 1  # single HNN loop
        block = report.blocks[0]
        hood = L.one_neighborhood(block.block)
        assert hood == L.vertices  # dominating block reaches everything
        assert block.chi == l2_euler_kernel(L, phi)
        assert report.complexity == -block.chi
    assert hits >= 5


def test_block_contributions_match_ambient_links():
    rng = SplitMix64(67)
    for seed in range(20):
        L = random_chordal(2 + seed % 9, seed + 12000)
        phi = random_character(L, rng)
        _, report = dual_splitting(L, phi)
        for row in report.blocks:
            ambient_sum = sum(
                abs(phi.value(v)) * euler_raag(L.link(v)) for v in row.block
            )
            assert row.contribution == -ambient_sum
            assert row.contribution == -row.k * row.chi


def test_dual_splitting_charges_the_whole_complex_once(monkeypatch):
    L = random_chordal(40, 21)
    phi = Character({v: 1 + i % 3 for i, v in enumerate(L.vertices)})
    total = sum(FlagComplex(L.vertices, L.edges()).f_vector())
    monkeypatch.setattr(complexes, "SIMPLEX_BUDGET", total - 1)
    with pytest.raises(CliqueCapError) as caught:
        dual_splitting(L, phi)
    assert caught.value.info == {"budget": total - 1}
    monkeypatch.setattr(complexes, "SIMPLEX_BUDGET", total)
    _, report = dual_splitting(L, phi)
    assert report.complexity == -l2_euler_kernel(L, phi)


@pytest.mark.parametrize("n", [5, 30, 200])
def test_splitting_path_builds_no_link_and_reads_no_cut_rank(n, monkeypatch):
    L = random_chordal(n, n + 31)
    phi = random_character(L, SplitMix64(n), -2, 2)
    twin = FlagComplex(L.vertices, L.edges())
    expected = [doc.to_json_doc() for doc in dual_splitting(twin, phi)]
    primitive, _ = phi.primitive()
    kernel = l2_euler_kernel(twin, primitive)

    def refuse(*args):
        raise AssertionError("called where it must not be")

    monkeypatch.setattr(complexes, "_cut_ranks", refuse)
    assert l2_euler_kernel(L, primitive) == kernel  # builds links, reads no cut rank
    monkeypatch.setattr(FlagComplex, "link", refuse)
    monkeypatch.setattr(FlagComplex, "induced", refuse)  # nor any other induced copy
    gog, report = dual_splitting(L, phi)
    assert [gog.to_json_doc(), report.to_json_doc()] == expected
    assert splitting_complexity(gog, phi) == report.complexity


def test_edge_group_euler_nonpositive_except_trivial_kernels():
    rng = SplitMix64(43)
    for seed in range(40):
        L = random_chordal(2 + seed % 9, seed + 6000)
        phi = random_character(L, rng)
        gog, _ = dual_splitting(L, phi)
        for e in gog.edges:
            assert isinstance(e.group, BlockKernel)
            assert e.group.chi <= 0 or (
                e.group.chi == 1 and len(L.one_neighborhood(e.group.block)) == 1
            )


# -- splitting complexity ------------------------------------------------------------


def test_complexity_requires_single_vertex(p3):
    with pytest.raises(SplittingError):
        splitting_complexity(clique_tree_splitting(p3), Character({"a": 1, "b": 1, "c": 1}))


def test_complexity_edgeless_is_zero(k3):
    gog = GraphOfGroups(k3, [Parabolic(("a", "b", "c"))], [])
    assert splitting_complexity(gog, Character({"a": 1, "b": 0, "c": 0})) == 0


def test_complexity_proportional_characters(p3, phi111):
    gog, _ = dual_splitting(p3, phi111)
    assert splitting_complexity(gog, phi111.scale(-3)) == 3
    assert splitting_complexity(gog, phi111.scale(Fraction(1, 2))) == Fraction(1, 2)
    with pytest.raises(SplittingError):
        splitting_complexity(gog, Character({"a": 1, "b": 2, "c": 3}))


def test_multiplicativity_by_rebuild():
    rng = SplitMix64(47)
    for seed in range(20):
        L = random_chordal(2 + seed % 8, seed + 7000)
        phi = random_character(L, rng)
        base_gog, base_report = dual_splitting(L, phi)
        base = splitting_complexity(base_gog, phi)
        assert base == base_report.complexity
        for k in (-3, -2, -1, 2, 3):
            gog_k, report_k = dual_splitting(L, phi.scale(k))
            assert report_k.complexity == abs(k) * base
            assert splitting_complexity(gog_k, phi.scale(k)) == abs(k) * base


# -- Euler bookkeeping ----------------------------------------------------------------


def test_euler_check_examples(p3, phi111):
    assert euler_check(clique_tree_splitting(p3)) == 0
    gog, _ = dual_splitting(p3, phi111)
    assert euler_check(gog) == 0
    assert euler_of(gog.vertex_groups[0], p3) == -1
    assert euler_of(gog.edges[0].group, p3) == -1


def test_euler_check_free_product_wrapper():
    L = FlagComplex(["a", "b"])
    wrapper = GraphOfGroups(
        L,
        [Parabolic(("a",)), Parabolic(("b",)), Trivial()],
        [GogEdge(0, 2, Trivial(), "trivial"), GogEdge(1, 2, Trivial(), "trivial")],
        tree_edges=(0, 1),
    )
    assert euler_check(wrapper) == -1  # 0 + 0 + 1 - 1 - 1


def test_euler_check_every_produced_splitting():
    rng = SplitMix64(53)
    for seed in range(25):
        L = random_chordal(1 + seed % 10, seed + 8000)
        assert euler_check(clique_tree_splitting(L)) == euler_raag(L)
        phi = random_character(L, rng)
        gog, _ = dual_splitting(L, phi)
        assert euler_check(gog) == euler_raag(L)


# -- graph-of-groups structure ---------------------------------------------------------


def test_gog_validation(p3):
    with pytest.raises(SplittingError):
        GraphOfGroups(
            p3,
            [Parabolic(("a",)), Parabolic(("b",))],
            [GogEdge(0, 1, Trivial(), "trivial")],
            tree_edges=(),
        )  # tree does not span
    with pytest.raises(SplittingError):
        GraphOfGroups(
            p3,
            [Parabolic(("a",))],
            [GogEdge(0, 0, Trivial(), "trivial")],
            tree_edges=(0,),
        )  # loop in tree
    with pytest.raises(SplittingError):
        GraphOfGroups(
            p3,
            [Parabolic(("a",)), Parabolic(("b",))],
            [
                GogEdge(0, 1, Trivial(), "trivial"),
                GogEdge(0, 1, Trivial(), "trivial"),
            ],
            tree_edges=(0,),
            stable_letters={0: Fraction(1)},
        )  # stable letter on a tree edge


def test_gog_json_roundtrip(p3, tt, phi111):
    for gog in (
        clique_tree_splitting(p3),
        clique_tree_splitting(tt),
        dual_splitting(p3, phi111)[0],
        dual_splitting(FlagComplex(["a", "b"]), Character({"a": 1, "b": 2}))[0],
    ):
        doc = gog.to_json_doc()
        json.dumps(doc)  # must be serializable
        assert GraphOfGroups.from_json_doc(doc) == gog


def _amalgam(doc):
    return doc["vertices"][0]


@pytest.mark.parametrize(
    "spoil",
    [
        lambda doc: doc.update(vertices=7),
        lambda doc: doc.update(edges=5),
        lambda doc: _amalgam(doc)["parts"][2].update(vertices=5),
        lambda doc: _amalgam(doc).update(parts=3),
        lambda doc: _amalgam(doc)["parts"][0].update(k="x"),
        lambda doc: doc["edges"][0].update(source=True, target="1"),
        lambda doc: doc["edges"][0].update(target=0.0),
        lambda doc: _amalgam(doc)["parts"][0].update(k=1.9),
        lambda doc: _amalgam(doc)["parts"][0].update(k=True),
        lambda doc: doc["edges"][0].update(inclusion=7),
        lambda doc: doc["edges"][0].update(inclusion="loop"),
        lambda doc: _amalgam(doc)["parts"][2].update(vertices=[1]),
        lambda doc: _amalgam(doc)["parts"][0].update(block="a"),
    ],
    ids=["vertices", "edges", "parabolic_vertices", "amalgam_parts", "k", "bool_source",
         "float_target", "float_k", "bool_k", "int_inclusion", "unknown_inclusion",
         "int_vertex", "string_block"],
)
def test_gog_from_malformed_json_doc_is_a_parse_error(p3, phi101, spoil):
    doc = dual_splitting(p3, phi101)[0].to_json_doc()
    assert _amalgam(doc)["parts"][2]["kind"] == "parabolic"
    spoil(doc)
    with pytest.raises(ParseError):
        GraphOfGroups.from_json_doc(doc)


# -- cyclic cover truncations ------------------------------------------------------------


def test_truncation_single_loop(p3, phi111):
    gog, _ = dual_splitting(p3, phi111)
    t = cyclic_cover_truncation(gog, phi111, 2)
    assert t.vertex_count == 5
    assert t.lift_counts == (4,)
    assert t.connected
    assert t.vertex_rank_sum == 5 and t.edge_rank_sum == 4
    assert t.rank_difference == 1


def test_truncation_difference_stabilizes(p3, phi111):
    gog, _ = dual_splitting(p3, phi111)
    for k in (1, 5, 10):
        t = cyclic_cover_truncation(gog, phi111, k)
        assert t.rank_difference == 1  # = sum over loops of |phi(t_e)| * b1


def test_truncation_letter_three(p3):
    phi = Character({"a": 3, "b": 0, "c": 1})
    gog, _ = dual_splitting(p3, phi)
    letters = sorted(abs(int(v)) for v in gog.stable_letters.values())
    assert letters == [1, 3]
    t1 = cyclic_cover_truncation(gog, phi, 1)
    by_letter = {
        abs(int(gog.stable_letters[i])): t1.lift_counts[i] for i in range(len(gog.edges))
    }
    assert by_letter[3] == 0  # max(0, 2*1 + 1 - 3)
    assert by_letter[1] == 2
    t3 = cyclic_cover_truncation(gog, phi, 3)
    assert t3.connected


def test_truncation_window_keeps_no_lifts(p3, phi111):
    gog, _ = dual_splitting(p3, phi111)
    tracemalloc.start()
    try:
        t = cyclic_cover_truncation(gog, phi111, 10**5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert t.lift_counts == (2 * 10**5,) and t.connected
    assert peak < 32 * 2**20


def test_truncation_counts_formula_and_connectivity():
    rng = SplitMix64(59)
    checked = 0
    while checked < 12:
        L = random_chordal(2 + rng.below(8), rng.next_u64())
        phi = random_primitive_character(L, rng)
        gog, _ = dual_splitting(L, phi)
        if not gog.edges:
            continue
        checked += 1
        letters = [abs(int(v)) for v in gog.stable_letters.values()]
        for k in range(0, 12):
            t = cyclic_cover_truncation(gog, phi, k)
            assert t.vertex_count == 2 * k + 1
            for i, m in enumerate(letters):
                assert t.lift_counts[i] == max(0, 2 * k + 1 - m)
            if k >= max(letters):
                assert t.connected


def test_truncation_preconditions(p3, phi111, k3):
    gog, _ = dual_splitting(p3, phi111)
    with pytest.raises(SplittingError):
        cyclic_cover_truncation(gog, phi111, -1)
    with pytest.raises(SplittingError):
        cyclic_cover_truncation(gog, phi111.scale(2), 3)  # letters gcd 2
    with pytest.raises(SplittingError):
        cyclic_cover_truncation(gog, phi111.scale(Fraction(1, 2)), 3)  # non-integer
    edgeless = GraphOfGroups(k3, [Parabolic(("a", "b", "c"))], [])
    with pytest.raises(SplittingError):
        cyclic_cover_truncation(edgeless, Character({"a": 1, "b": 0, "c": 0}), 2)


def test_main_equality_through_splittings():
    rng = SplitMix64(61)
    for seed in range(30):
        L = random_chordal(2 + seed % 10, seed + 9000)
        phi = random_primitive_character(L, rng)
        gog, report = dual_splitting(L, phi)
        assert report.complexity == -l2_euler_kernel(L, phi) == thurston_norm(L, phi)


def window_case(steps):
    """A single-vertex splitting whose stable letters take the values
    ``steps``: the vertex group has first L2-Betti number 1 (two
    components), and the edge groups alternate between 1 and 0."""
    L = FlagComplex(["a", "b", "c"], [("a", "b")])
    groups = [Parabolic(("a", "c")), Parabolic(("a",))]
    edges = [GogEdge(0, 0, groups[i % 2], "parabolic") for i in range(len(steps))]
    phi = Character({"a": 1, "b": 0, "c": 0})
    letters = {i: Fraction(m) for i, m in enumerate(steps)}
    gog = GraphOfGroups(L, [Parabolic(("a", "b", "c"))], edges, (), letters, phi)
    return gog, phi, [parabolic_euler_and_b1(L, e.group.vertices)[1] for e in edges]


def test_truncation_matches_the_streamed_window():
    rng = SplitMix64(67)
    step_sets = [[1], [-1, 1], [2, 3], [3, -5], [6, 10, 15], [4, 6, 9], [7, 12], [-1, 30]]
    while len(step_sets) < 12:
        steps = [(1 + rng.below(30)) * (1 - 2 * rng.below(2)) for _ in range(1 + rng.below(4))]
        if math.gcd(*steps) == 1:
            step_sets.append(steps)
    for steps in step_sets:
        gog, phi, edge_b1 = window_case(steps)
        for k in range(301):
            counts, connected = streamed_window(steps, k)
            edge_rank_sum = sum((c * b for c, b in zip(counts, edge_b1)), start=Fraction(0))
            expected = {
                "k": k,
                "vertex_count": 2 * k + 1,
                "lift_counts": counts,
                "connected": connected,
                "vertex_rank_sum": str(2 * k + 1),
                "edge_rank_sum": str(edge_rank_sum),
                "rank_difference": str(2 * k + 1 - edge_rank_sum),
            }
            assert cyclic_cover_truncation(gog, phi, k).to_json_doc() == expected
