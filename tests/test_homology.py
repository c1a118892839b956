from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    bareiss_rank,
    boundary_rows,
    brute_simplices_by_dim,
    clique_counts,
    dense_fraction_rank,
)
from raagnorm import (
    CliqueCapError,
    FlagComplex,
    ReducedBettiVector,
    complexes,
    euler_raag,
    homology,
    l2_betti_group,
    link_betti,
    link_euler,
    plant_cycle,
    random_chordal,
    rank_sparse_int,
    reduced_betti,
)
from raagnorm.homology import _pivots
from raagnorm.l2 import _link_f_vector
from raagnorm.verify import SplitMix64
from test_complexes import graphs, random_graph


def octahedron():
    vs = ["a1", "a2", "b1", "b2", "c1", "c2"]
    opposite = {("a1", "a2"), ("b1", "b2"), ("c1", "c2")}
    edges = [
        (u, v) for i, u in enumerate(vs) for v in vs[i + 1 :] if (u, v) not in opposite
    ]
    return FlagComplex(vs, edges)


def c5(tag="c"):
    return plant_cycle(FlagComplex([]), 5, tag)


def suspension(L, tag="s"):
    """Two new non-adjacent vertices joined to every vertex of ``L``."""
    poles = [f"{tag}+", f"{tag}-"]
    return FlagComplex(
        list(L.vertices) + poles, L.edges() + [(p, v) for p in poles for v in L.vertices]
    )


def disjoint_union(*parts):
    return FlagComplex(
        [v for K in parts for v in K.vertices], [e for K in parts for e in K.edges()]
    )


# -- exact rank ---------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 5),
    st.integers(0, 5),
    st.data(),
)
def test_rank_matches_dense_fraction_elimination(nrows, ncols, data):
    rows = []
    for _ in range(nrows):
        row = {}
        for j in range(ncols):
            x = data.draw(st.integers(-4, 4))
            if x:
                row[j] = x
        rows.append(row)
    assert rank_sparse_int(rows) == dense_fraction_rank(rows, ncols)


def test_rank_known_matrices():
    assert rank_sparse_int([]) == 0
    assert rank_sparse_int([{0: 1, 1: 1}, {0: 2, 1: 2}]) == 1
    assert rank_sparse_int([{0: 1}, {1: 1}, {0: 1, 1: 1}]) == 2


@st.composite
def int_matrices(draw, max_size=12):
    """Sparse integer matrices up to max_size x max_size with entries in
    -4..4, plus repeated rows, scalar multiples and all-zero rows (empty or
    with explicit zeros), in any order."""
    ncols = draw(st.integers(0, max_size))
    if ncols:
        row = st.dictionaries(st.integers(0, ncols - 1), st.integers(-4, 4), max_size=ncols)
    else:
        row = st.just({})
    rows = draw(st.lists(row, max_size=max_size))
    for i, k in draw(st.lists(st.tuples(st.integers(0, 99), st.integers(-2, 2)), max_size=4)):
        if rows:
            rows.append({j: k * x for j, x in rows[i % len(rows)].items()})
    order = draw(st.permutations(range(len(rows))))
    return [rows[i] for i in order], ncols


@settings(max_examples=200, deadline=None)
@given(int_matrices())
def test_rank_matches_dense_fraction_elimination_up_to_12x12(matrix):
    rows, ncols = matrix
    assert rank_sparse_int(rows) == dense_fraction_rank(rows, ncols)


def test_rank_with_leading_entries_other_than_one():
    # leading entries 6 and 4: gcd 2, combination 3*r2 - 2*r1, content 3
    rows = [{0: 3, 2: 6}, {1: 5, 2: 4}]
    assert rank_sparse_int(rows) == 2
    # the third row is 3*r1 - r2
    assert rank_sparse_int(rows + [{0: 9, 1: -5, 2: 14}]) == 2
    assert rank_sparse_int(rows + [{0: 9, 1: -5, 2: 15}]) == 3
    # a 3/2 multiple vanishes after one gcd-scaled step
    assert rank_sparse_int([{0: 6, 1: 4}, {0: 9, 1: 6}]) == 1
    assert rank_sparse_int([{0: -6, 1: -4}, {0: 9, 1: 6}, {0: 1}]) == 2
    for extra in ([], [{0: 7}], [{1: -2, 2: 10}]):
        m = rows + [{0: 9, 1: -5, 2: 14}] + extra
        assert rank_sparse_int(m) == dense_fraction_rank(m, 3) == bareiss_rank(m)


def test_rank_matches_bareiss_on_boundary_matrices():
    for seed in range(40):
        G = random_graph(6 + seed % 7, seed, 30 + (seed * 7) % 55)
        L = plant_cycle(G, 4 + seed % 4, "h")
        for K in [L] + [L.link(v) for v in L.vertices]:
            levels = K.simplices_by_dim()
            for d in range(1, len(levels)):
                rows = boundary_rows(levels, d)
                assert rank_sparse_int(rows) == bareiss_rank(rows)


def cleared_cases():
    """Complexes with cycles in several dimensions, so that clearing skips
    rows in the presence of real homology: random flag complexes with a
    planted cycle and all their links, dense random graphs, spheres of
    dimension 2 and 3, and a disjoint union with homology in dimensions 0,
    1 and 2."""
    cases = [octahedron(), suspension(octahedron()), suspension(suspension(c5()), "t")]
    cases.append(disjoint_union(octahedron(), c5("h"), FlagComplex(["p"])))
    for seed in range(30):
        G = random_graph(6 + seed % 7, seed, 30 + (seed * 7) % 55)
        L = plant_cycle(G, 4 + seed % 4, "h")
        cases += [L] + [L.link(v) for v in L.vertices]
    cases += [random_graph(11, seed, 75) for seed in range(8)]
    return cases


def bareiss_betti(levels):
    """Reduced Betti numbers from full boundary matrices ranked by Bareiss."""
    if not levels:
        return (1,)
    ranks = [1] + [bareiss_rank(boundary_rows(levels, d)) for d in range(1, len(levels))]
    ranks.append(0)
    return (0,) + tuple(len(lv) - ranks[d] - ranks[d + 1] for d, lv in enumerate(levels))


def test_cleared_ranks_and_betti_match_bareiss_on_full_matrices():
    skipped = 0
    for L in cleared_cases():
        levels = L.simplices_by_dim()
        cleared = ()
        for d in range(len(levels) - 1, 0, -1):
            rows = boundary_rows(levels, d, cleared)
            assert len(rows) == len(levels[d]) - len(cleared)
            skipped += len(cleared)
            full = bareiss_rank(boundary_rows(levels, d))
            pivots = _pivots(rows)
            assert len(pivots) == rank_sparse_int(rows) == full
            cleared = set(pivots)
        assert reduced_betti(L).betti == bareiss_betti(levels)
    assert skipped > 0


def test_full_reduction_matches_bareiss_on_every_complex_and_link():
    links = 0
    for L in cleared_cases():
        for K in [L] + [L.link(v) for v in L.vertices]:
            levels = K.simplices_by_dim()
            assert homology._reduced_betti(levels).betti == bareiss_betti(levels)
            links += K is not L and len(levels) > 1
    assert links > 0  # links with a boundary map to reduce were checked


def test_higher_spheres():
    assert reduced_betti(suspension(octahedron())).betti == (0, 0, 0, 0, 1)
    assert reduced_betti(suspension(suspension(c5()), "t")).betti == (0, 0, 0, 0, 1)
    union = disjoint_union(octahedron(), c5("h"), FlagComplex(["p"]))
    assert reduced_betti(union).betti == (0, 2, 1, 1)


def test_reduced_euler_is_an_exact_int():
    cases = [
        (FlagComplex([]), -1),
        (FlagComplex(["a"]), 0),
        (FlagComplex(["a", "b"]), 1),
        (octahedron(), 1),
    ]
    for L, expected in cases:
        value = reduced_betti(L).reduced_euler()
        assert type(value) is int and value == expected


# -- one computation per complex --------------------------------------------------


def test_betti_is_kept_on_the_complex():
    L = plant_cycle(random_chordal(12, 3), 5, "h")
    twin = FlagComplex(L.vertices, L.edges())
    rb = reduced_betti(L)
    assert reduced_betti(L) is rb
    assert euler_raag(L) == -rb.reduced_euler() == 1
    assert twin._cache is None
    assert L == twin and hash(L) == hash(twin) and repr(L) == repr(twin)
    assert len({L, twin}) == 1
    assert reduced_betti(twin) == rb and reduced_betti(twin) is not rb
    # results only: no simplex level stays on the complex
    assert set(L._cache) == {"f_vector", "reduced_betti"}


def test_one_enumeration_serves_betti_group_betti_and_euler(monkeypatch):
    enumerated = []
    original = FlagComplex.simplices_by_dim

    def counted(self):
        enumerated.append(self)
        return original(self)

    monkeypatch.setattr(FlagComplex, "simplices_by_dim", counted)
    L = plant_cycle(random_chordal(10, 4), 4, "h")
    rb = reduced_betti(L)
    assert l2_betti_group(L) == [Fraction(b) for b in rb.betti]
    assert euler_raag(L) == 1
    # L itself is never enumerated; its core, the planted 4-cycle, once.
    [core] = enumerated
    assert core is not L and core.vertices == ("h0", "h1", "h2", "h3")


def test_cap_is_checked_before_any_kept_result(monkeypatch):
    names = [f"v{i}" for i in range(80)]
    L = FlagComplex(names, list(zip(names, names[1:])))
    monkeypatch.setattr(complexes, "SIMPLEX_BUDGET", 80 + 79 - 1)
    for call in (reduced_betti, euler_raag, l2_betti_group, FlagComplex.f_vector):
        with pytest.raises(CliqueCapError):
            call(L)
    assert not L._cache  # a failed enumeration keeps nothing
    monkeypatch.setattr(complexes, "SIMPLEX_BUDGET", 80 + 79)
    assert reduced_betti(L).betti == (0, 0, 0)
    assert euler_raag(L) == 0
    assert L.f_vector() == (80, 79)
    # A kept result fitted the budget when it was computed.
    monkeypatch.setattr(complexes, "SIMPLEX_BUDGET", 1)
    assert reduced_betti(L).betti == (0, 0, 0) and L.f_vector() == (80, 79)


def test_euler_raag_on_a_fresh_complex_counts_simplices():
    for L in [octahedron(), suspension(octahedron())] + cleared_cases()[4:40]:
        twin = FlagComplex(L.vertices, L.edges())
        levels = twin.simplices_by_dim()
        assert euler_raag(L) == 1 - sum((-1) ** d * len(lv) for d, lv in enumerate(levels))
        assert set(L._cache) == {"f_vector"}


# -- reduced Betti numbers --------------------------------------------------------


def test_point_is_acyclic():
    rb = reduced_betti(FlagComplex(["a"]))
    assert rb.betti == (0, 0)
    assert rb.top_dim == 0


def test_two_points():
    rb = reduced_betti(FlagComplex(["a", "b"]))
    assert rb.betti == (0, 1)
    assert rb.rank(0) == 1


def test_empty_complex():
    rb = reduced_betti(FlagComplex([]))
    assert rb.betti == (1,)
    assert rb.top_dim == -1


def test_c4_circle(c4):
    # boundary of the 4-cycle has rank 3, leaving one 1-dimensional hole
    levels = c4.simplices_by_dim()
    assert dense_fraction_rank(boundary_rows(levels, 1), 4) == 3
    rb = reduced_betti(c4)
    assert rb.betti == (0, 0, 1)


def test_octahedron_is_a_two_sphere():
    rb = reduced_betti(octahedron())
    assert rb.betti == (0, 0, 0, 1)
    assert rb.top_dim == 2
    assert euler_raag(octahedron()) == -1


def test_k4_contractible():
    vs = ["a", "b", "c", "d"]
    k4 = FlagComplex(vs, [(u, v) for i, u in enumerate(vs) for v in vs[i + 1 :]])
    rb = reduced_betti(k4)
    assert not any(rb.betti)
    assert rb.top_dim == 3


def test_betti_json_keys(c4):
    assert reduced_betti(c4).to_json_doc() == {"-1": 0, "0": 0, "1": 1}


def test_boundary_of_boundary_vanishes():
    L = octahedron()
    levels = L.simplices_by_dim()
    for d in range(2, len(levels)):
        upper = boundary_rows(levels, d)
        lower = boundary_rows(levels, d - 1)
        for row in upper:  # each d-simplex boundary, pushed one more step down
            acc = {}
            for face, sign in row.items():
                for sub, s2 in lower[face].items():
                    acc[sub] = acc.get(sub, 0) + sign * s2
            assert all(x == 0 for x in acc.values())


def test_connected_chordal_complexes_are_acyclic():
    for seed in range(30):
        L = random_chordal(1 + seed % 10, seed)
        assert not any(reduced_betti(L).betti)


def test_rank_nullity_consistency():
    L = octahedron()
    levels = L.simplices_by_dim()
    for d in range(1, len(levels)):
        rows = boundary_rows(levels, d)
        rank = rank_sparse_int(rows)
        assert 0 <= rank <= min(len(levels[d]), len(levels[d - 1]))
        nullity = len(levels[d]) - rank
        assert rank + nullity == len(levels[d])


# -- cores ---------------------------------------------------------------------


def core_of(L):
    return homology._core(L, set(L.vertices))


def test_a_connected_chordal_complex_collapses_to_one_vertex():
    for seed in range(40):
        L = random_chordal(1 + seed % 30, seed)
        assert len(core_of(L)) == 1
    names = [f"k{i}" for i in range(7)]
    K7 = FlagComplex(names, [(u, w) for i, u in enumerate(names) for w in names[i + 1 :]])
    # Equal degrees pop in declaration order, so the last vertex stays.
    assert core_of(K7).vertices == ("k6",)


def test_octahedron_and_c5_keep_every_vertex():
    for L in (octahedron(), c5(), suspension(c5())):
        assert core_of(L) == L


def test_a_core_has_one_vertex_per_collapsible_component():
    K = random_chordal(4, 2)
    K = FlagComplex([f"t{v}" for v in K.vertices], [(f"t{a}", f"t{b}") for a, b in K.edges()])
    L = disjoint_union(random_chordal(9, 1), c5("h"), FlagComplex(["p"]), K)
    core = core_of(L)
    assert len(core) == 1 + 5 + 1 + 1 and core.component_count() == 4
    assert all(core.has_edge(*e) for e in c5("h").edges())


def closed_twin(L, v, name):
    """``L`` with a new vertex adjacent to ``v`` and to all of its neighbours."""
    return FlagComplex(
        list(L.vertices) + [name], L.edges() + [(w, name) for w in L.neighbors(v) + (v,)]
    )


def open_twin(L, v, name):
    """``L`` with a new vertex adjacent to exactly the neighbours of ``v``."""
    return FlagComplex(list(L.vertices) + [name], L.edges() + [(w, name) for w in L.neighbors(v)])


def cone(L, name):
    return FlagComplex(list(L.vertices) + [name], L.edges() + [(w, name) for w in L.vertices])


@st.composite
def shaped_complexes(draw):
    """A small random graph grown by a few steps, each one of: a closed
    twin (dominated), an open twin (not dominated by its twin), a cone
    (contractible), a disjoint union with another random graph, a planted
    hole, or a suspension."""
    L = draw(graphs(max_n=7))
    for step in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["closed", "open", "cone", "union", "hole", "suspension"]))
        tag = f"x{step}"
        if kind in ("closed", "open") and L.vertices:
            v = draw(st.sampled_from(L.vertices))
            L = (closed_twin if kind == "closed" else open_twin)(L, v, tag)
        elif kind == "cone":
            L = cone(L, tag)
        elif kind == "union":
            other = draw(graphs(max_n=5))
            L = disjoint_union(L, FlagComplex([tag + v for v in other.vertices],
                                              [(tag + a, tag + b) for a, b in other.edges()]))
        elif kind == "hole":
            L = plant_cycle(L, draw(st.integers(4, 6)), tag)
        elif kind == "suspension" and len(L) <= 10:
            L = suspension(L, tag)
    return L


@settings(max_examples=120, deadline=None)
@given(shaped_complexes())
def test_betti_from_cores_match_bareiss_on_the_full_enumeration(L):
    levels = L.simplices_by_dim()
    rb = reduced_betti(L)
    assert rb.betti == bareiss_betti(levels) and rb.top_dim == len(levels) - 1
    links = link_betti(L)
    assert list(links) == list(L.vertices)
    for v in L.vertices:
        levels = L.link(v).simplices_by_dim()
        assert links[v].betti == bareiss_betti(levels)
        assert links[v].top_dim == len(levels) - 1


# -- Euler characteristics -----------------------------------------------------


def test_euler_raag_examples(p3, k3):
    assert euler_raag(FlagComplex([])) == 1
    for n in (1, 2, 5):
        edgeless = FlagComplex([f"f{i}" for i in range(n)])
        assert euler_raag(edgeless) == 1 - n
    for n in (1, 2, 3, 6):
        names = [f"k{i}" for i in range(n)]
        K = FlagComplex(names, [(u, v) for i, u in enumerate(names) for v in names[i + 1 :]])
        assert euler_raag(K) == 0
    assert euler_raag(p3) == 0
    assert euler_raag(k3) == 0


def test_euler_matches_f_vector_and_betti():
    cases = [octahedron(), FlagComplex(["a", "b", "c"], [("a", "b")])]
    cases += [random_chordal(7, s) for s in range(5)]
    for L in cases:
        levels = L.simplices_by_dim()
        f_sum = sum((-1) ** d * len(lv) for d, lv in enumerate(levels))
        assert euler_raag(L) == 1 - f_sum
        # alternating reduced Betti sum equals the reduced Euler characteristic
        assert reduced_betti(L).reduced_euler() == -euler_raag(L)


def test_link_euler_matches_each_link():
    cases = cleared_cases() + [FlagComplex([]), FlagComplex(["p"]), FlagComplex(["p", "q"])]
    for L in cases:
        chi = link_euler(L)
        assert list(chi) == list(L.vertices)
        for v in L.vertices:
            assert chi[v] == euler_raag(L.link(v))
    assert link_euler(FlagComplex([])) == {}
    assert link_euler(FlagComplex(["p", "q"])) == {"p": 1, "q": 1}


def test_link_euler_is_one_kept_enumeration(monkeypatch):
    walked = []
    original = homology._link_euler

    def counted(K):
        walked.append(K)
        return original(K)

    def refuse(self):
        raise AssertionError("the star count built the simplices")

    L = plant_cycle(random_chordal(12, 9), 5, "h")
    want = {v: euler_raag(L.link(v)) for v in L.vertices}
    monkeypatch.setattr(homology, "_link_euler", counted)
    monkeypatch.setattr(FlagComplex, "simplices_by_dim", refuse)
    chi = link_euler(L)
    # The walk records the f-vector, so euler_raag(L) needs no second walk.
    assert L._cache["f_vector"] == tuple(map(len, brute_simplices_by_dim(L)))
    chi[L.vertices[0]] += 100  # the caller's copy; the kept vector is unchanged
    assert link_euler(L) == want
    assert euler_raag(L) == 1 - sum((-1) ** d * f for d, f in enumerate(L.f_vector()))
    assert sum(K is L for K in walked) == 1 and len(walked) == 1
    assert set(L._cache) == {"link_euler", "f_vector"}


def assert_both_link_routes_match(L, counts):
    chi = link_euler(L)
    assert list(chi) == list(L.vertices)
    for v in L.vertices:
        want = counts(L, L.neighbors(v))
        assert _link_f_vector(L.link(v)) == want
        assert chi[v] == 1 - sum((-1) ** d * f for d, f in enumerate(want))


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=11))
def test_link_euler_and_the_link_counter_match_brute_force(L):
    """Any graph, holes and isolated vertices included, against subset
    enumeration of each neighbourhood."""

    def counts(L, vs):
        return tuple(map(len, brute_simplices_by_dim(L.induced(vs))))

    assert_both_link_routes_match(L, counts)


@st.composite
def hubbed_graphs(draw):
    """A small graph of any shape, plus a hub of degree above 64: joined to
    every one of 65-75 new vertices and to some old ones, with sparse random
    edges among the new vertices and from them to the old ones."""
    base = draw(graphs(max_n=8))
    new = [f"p{i}" for i in range(draw(st.integers(65, 75)))]
    old = list(base.vertices)
    hub_old = [v for v in old if draw(st.booleans())]
    rng = SplitMix64(draw(st.integers(0, 2**32)))
    density = draw(st.integers(0, 6))
    edges = base.edges() + [("hub", v) for v in hub_old + new]
    for i, a in enumerate(new):
        for b in new[i + 1 :] + old:
            if rng.below(100) < density:
                edges.append((a, b))
    return FlagComplex(old + ["hub"] + new, edges)


@settings(max_examples=25, deadline=None)
@given(hubbed_graphs())
def test_link_euler_and_the_link_counter_past_64_neighbours(L):
    """A link mask wider than a machine word, against the exhaustive
    clique count of each neighbourhood."""
    assert len(L.neighbors("hub")) > 64
    assert_both_link_routes_match(L, clique_counts)


def test_link_euler_over_budget_keeps_nothing(monkeypatch):
    L = suspension(plant_cycle(random_chordal(10, 3), 4, "h"))
    total = sum(L.f_vector())
    twin = FlagComplex(L.vertices, L.edges())
    monkeypatch.setattr(complexes, "SIMPLEX_BUDGET", total - 1)
    with pytest.raises(CliqueCapError) as err:
        link_euler(twin)
    assert err.value.info["budget"] == total - 1
    assert not twin._cache
    monkeypatch.setattr(complexes, "SIMPLEX_BUDGET", total)
    assert link_euler(twin) == link_euler(L)
    assert twin._cache["f_vector"] == L.f_vector()


def test_link_betti_matches_each_link():
    cases = cleared_cases() + [random_graph(9 + seed % 5, 700 + seed, 55) for seed in range(40)]
    cases += [suspension(octahedron()), suspension(suspension(octahedron()), "t")]
    cases += [FlagComplex([]), FlagComplex(["p"]), FlagComplex(["p", "q"], []), c5()]
    higher = 0
    for L in cases:
        betti = link_betti(L)
        assert list(betti) == list(L.vertices)
        for v in L.vertices:
            link = reduced_betti(L.link(v))
            assert betti[v] == link  # Betti numbers and top_dim
            higher += any(link.betti[2:])
    assert higher > 0  # links with homology above dimension 0 were checked
    assert link_betti(FlagComplex([])) == {}
    empty_link = ReducedBettiVector((1,), -1)
    assert link_betti(FlagComplex(["p", "q"])) == {"p": empty_link, "q": empty_link}
    # The 3-sphere: every link is a 2-sphere.
    assert {rb.betti for rb in link_betti(suspension(octahedron())).values()} == {
        (0, 0, 0, 1)
    }


def test_link_betti_is_one_kept_enumeration(monkeypatch):
    enumerated = []
    original = FlagComplex.simplices_by_dim

    def counted(self):
        enumerated.append(self)
        return original(self)

    monkeypatch.setattr(FlagComplex, "simplices_by_dim", counted)
    L = plant_cycle(random_chordal(12, 9), 5, "h")
    betti = link_betti(L)
    # L itself is never enumerated; the core of each link once, unless it is
    # a single vertex.
    cores = [homology._core(L, L._adj[v]) for v in L.vertices]
    assert [K.vertices for K in enumerated] == [K.vertices for K in cores if len(K) > 1]
    assert enumerated and all(K is not L for K in enumerated)
    enumerated.clear()
    betti[L.vertices[0]] = ReducedBettiVector((7,), 3)  # the caller's copy
    del betti[L.vertices[1]]
    kept = link_betti(L)
    assert enumerated == []
    assert "link_betti" in L._cache
    assert kept == {v: reduced_betti(L.link(v)) for v in L.vertices}


def test_link_betti_over_budget_keeps_nothing(monkeypatch):
    L = suspension(octahedron())
    total = sum(L.f_vector())
    twin = FlagComplex(L.vertices, L.edges())
    monkeypatch.setattr(complexes, "SIMPLEX_BUDGET", total - 1)
    with pytest.raises(CliqueCapError) as err:
        link_betti(twin)
    assert err.value.info["budget"] == total - 1
    assert not twin._cache
    # Every link fits the budget on its own; link_betti counts L's f-vector first.
    assert all(sum(twin.link(v).f_vector()) < total - 1 for v in twin.vertices)
    monkeypatch.setattr(complexes, "SIMPLEX_BUDGET", total)
    assert link_betti(twin) == link_betti(L)
