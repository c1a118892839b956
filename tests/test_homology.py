from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import bareiss_rank, dense_fraction_rank
from raagnorm import (
    CliqueCapError,
    FlagComplex,
    euler_raag,
    l2_betti_group,
    plant_cycle,
    random_chordal,
    rank_sparse_int,
    reduced_betti,
)
from raagnorm.homology import _pivots, boundary_rows
from test_complexes import random_graph


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

    def counted(self, cap=None):
        enumerated.append(self)
        return original(self, cap)

    monkeypatch.setattr(FlagComplex, "simplices_by_dim", counted)
    L = plant_cycle(random_chordal(10, 4), 4, "h")
    rb = reduced_betti(L)
    assert l2_betti_group(L) == [Fraction(b) for b in rb.betti]
    assert euler_raag(L) == 1
    assert enumerated == [L]


def test_cap_is_checked_before_any_kept_result():
    names = [f"v{i}" for i in range(80)]
    L = FlagComplex(names, list(zip(names, names[1:])))
    assert reduced_betti(L, cap=100).betti == (0, 0, 0)
    assert euler_raag(L, cap=100) == 0
    assert L.f_vector(cap=100) == (80, 79)
    for call in (reduced_betti, euler_raag, l2_betti_group, FlagComplex.f_vector):
        with pytest.raises(CliqueCapError):
            call(L)


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
