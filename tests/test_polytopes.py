import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from raagnorm import (
    AmbientMismatchError,
    Character,
    CharacterDomainError,
    DisconnectedError,
    FlagComplex,
    NotChordalError,
    NotOneEndedError,
    ParseError,
    ZonotopeElement,
    l2_polytope,
    norm_ball,
    random_chordal,
    thickness,
    thurston_norm,
    two_triangles,
)
from raagnorm.polytopes import is_one_ended, require_one_ended_coherent
from raagnorm.verify import SplitMix64, random_character

from oracles import (
    DenseZonotope,
    dense_l2_polytope,
    dense_norm_ball,
    dense_thickness,
    recount_cut_rank,
)

AMBIENT = ("a", "b", "c")

vectors = st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4))
elements = st.builds(
    lambda gens: ZonotopeElement(AMBIENT, gens),
    st.lists(st.tuples(vectors, st.integers(-3, 3)), max_size=5),
)
characters = st.builds(
    lambda a, b, c: Character({"a": a, "b": b, "c": c}),
    st.integers(-5, 5),
    st.integers(-5, 5),
    st.integers(-5, 5),
)


def seg(vec, coeff=1):
    return ZonotopeElement(AMBIENT, [(vec, coeff)])


# -- canonical form and group laws ---------------------------------------------


def test_parallel_generators_merge():
    assert seg((1, 1, 0)) + seg((2, 2, 0)) == seg((1, 1, 0), 3)


def test_sign_normalization():
    assert seg((-1, -1, 0)) == seg((1, 1, 0))
    assert seg((0, -2, 0)) == seg((0, 1, 0), 2)


def test_zero_direction_is_neutral():
    assert ZonotopeElement(AMBIENT, [((0, 0, 0), 5)]).is_neutral


def test_doubling():
    e_a = seg((1, 0, 0))
    assert (e_a + e_a).coeffs == {(1, 0, 0): 2}


def test_inverse_and_neutral():
    z = seg((1, 2, 0), 3) + seg((0, 0, 1), -2)
    assert (z + -z).is_neutral
    assert z + ZonotopeElement(AMBIENT) == z


@settings(max_examples=60, deadline=None)
@given(elements, elements, elements)
def test_group_laws(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert (x - x).is_neutral


def test_ambient_mismatch():
    with pytest.raises(AmbientMismatchError):
        seg((1, 0, 0)) + ZonotopeElement(("a", "b"), [((1, 0), 1)])
    with pytest.raises(AmbientMismatchError):
        ZonotopeElement(AMBIENT, [((1, 0), 1)])


def test_is_single():
    assert seg((1, 0, 0)).is_single
    assert not (-seg((1, 0, 0))).is_single
    assert ZonotopeElement(AMBIENT).is_single


def test_zonotope_json_roundtrip():
    z = seg((1, 2, 0), 3) - seg((0, 0, 1), 2)
    doc = z.to_json_doc()
    assert ZonotopeElement.from_json_doc(doc, AMBIENT) == z


@pytest.mark.parametrize(
    "doc",
    [{"generators": 7}, {"generators": [{"dir": 5, "coeff": 1}]}],
    ids=["generators_not_a_list", "dir_not_a_list"],
)
def test_zonotope_doc_that_is_not_a_list_is_a_parse_error(doc):
    with pytest.raises(ParseError) as caught:
        ZonotopeElement.from_json_doc(doc, AMBIENT)
    assert caught.value.kind == "parse"


@pytest.mark.parametrize(
    "generator, field",
    [
        (((0.5, 1, 0), 1), "dir"),
        (((1, 0, 0), 2.9), "coeff"),
        (((1, 0, 0), Fraction(7, 2)), "coeff"),
        ((("3", True, 0), 1), "dir"),
    ],
    ids=["half_coordinate", "float_coeff", "fraction_coeff", "string_and_bool_coordinates"],
)
def test_zonotope_entries_that_are_not_ints_are_parse_errors(generator, field):
    with pytest.raises(ParseError) as caught:
        ZonotopeElement(AMBIENT, [generator])
    assert caught.value.detail.startswith(f"generators[0]: {field} ")


# -- thickness -------------------------------------------------------------------


def test_thickness_examples(phi111):
    assert thickness(seg((0, 1, 0)), phi111) == 1
    assert thickness(ZonotopeElement(AMBIENT), phi111) == 0
    assert thickness(seg((1, -2, 3)), Character({"a": 1, "b": 1, "c": 1})) == 2


@settings(max_examples=60, deadline=None)
@given(elements, elements, characters)
def test_thickness_is_a_homomorphism(z1, z2, phi):
    assert thickness(z1 + z2, phi) == thickness(z1, phi) + thickness(z2, phi)


@settings(max_examples=40, deadline=None)
@given(elements, characters, st.fractions(min_value=-4, max_value=4))
def test_thickness_scales_with_character(z, phi, q):
    assert thickness(z, phi.scale(q)) == abs(q) * thickness(z, phi)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8).flatmap(
    lambda rank: st.tuples(
        generator_lists(rank), st.lists(st.integers(-9, 9), min_size=rank, max_size=rank)
    )
))
def test_thickness_integral_path_matches_the_dense_oracle(case):
    gens, values = case
    ambient = tuple(f"x{i}" for i in range(len(values)))
    phi = Character(dict(zip(ambient, values)))
    z, oz = ZonotopeElement(ambient, gens), DenseZonotope(ambient, gens)
    width = thickness(z, phi)
    assert type(width) is Fraction and width == dense_thickness(oz, phi)
    # A non-integral multiple takes the Fraction path.
    third = phi.scale(Fraction(1, 3))
    if not third.is_integral:
        assert thickness(z, third) == width / 3 == dense_thickness(oz, third)


def test_thickness_ambient_mismatch():
    with pytest.raises(AmbientMismatchError):
        thickness(seg((1, 0, 0)), Character({"a": 1, "b": 1}))


# -- the group polytope ------------------------------------------------------------


def test_polytope_two_triangles_trivial(tt):
    assert l2_polytope(tt).is_neutral


def test_polytope_cliques_trivial():
    for n in range(2, 7):
        names = [f"k{i}" for i in range(n)]
        K = FlagComplex(names, [(u, v) for i, u in enumerate(names) for v in names[i + 1 :]])
        assert l2_polytope(K).is_neutral


def test_polytope_p3(p3):
    z = l2_polytope(p3)
    assert z.coeffs == {(0, 1, 0): 1}
    assert z.is_single


def test_polytope_always_single():
    for seed in range(15):
        L = random_chordal(2 + seed % 8, seed + 500)
        assert l2_polytope(L).is_single


def test_polytope_domain_gates(c4):
    with pytest.raises(NotChordalError) as err:
        l2_polytope(c4)
    assert err.value.info["cycle"] == ["a", "b", "c", "d"]
    with pytest.raises(DisconnectedError):
        l2_polytope(FlagComplex(["a", "b"]))
    with pytest.raises(NotOneEndedError):
        l2_polytope(FlagComplex(["a"]))


def test_one_ended_predicate_backs_the_gate():
    cases = {
        FlagComplex([]): DisconnectedError,
        FlagComplex(["a"]): NotOneEndedError,
        FlagComplex(["a", "b"]): DisconnectedError,
        FlagComplex(["a", "b"], [("a", "b")]): None,
        random_chordal(9, 2): None,
    }
    for L, error in cases.items():
        assert is_one_ended(L) is (error is None)
        if error is None:
            require_one_ended_coherent(L)
        else:
            with pytest.raises(error):
                require_one_ended_coherent(L)


# -- the norm ---------------------------------------------------------------------


def test_norm_weighted_l1(p3, star3, tt):
    assert thurston_norm(p3, Character({"a": 3, "b": 5, "c": 7})) == 5
    assert thurston_norm(star3, Character({"c": 1, "x": 0, "y": 0, "z": 0})) == 2
    for values in ({"v1": 1, "v2": 2, "w1": 3, "w2": 4}, {"v1": -9, "v2": 0, "w1": 0, "w2": 1}):
        assert thurston_norm(tt, Character(values)) == 0


def test_norm_zero_character_allowed(p3):
    assert thurston_norm(p3, Character({"a": 0, "b": 0, "c": 0})) == 0


def test_norm_gates_the_complex_before_the_domain(p3, c4):
    with pytest.raises(NotChordalError):
        thurston_norm(c4, Character({"a": 1, "b": 1}))
    for values in ({"a": 1, "b": 1}, {"a": 1, "b": 1, "c": 1, "zzz": 1}):
        with pytest.raises(CharacterDomainError):
            thurston_norm(p3, Character(values))


def test_norm_of_a_rational_character_is_the_weighted_sum():
    rng = SplitMix64(29)
    for seed in range(15):
        L = random_chordal(2 + seed % 9, seed + 2900)
        values = {v: Fraction(rng.below(11) - 5, 1 + rng.below(4)) for v in L.vertices}
        values[L.vertices[0]] = Fraction(1, 2)
        phi = Character(values)
        assert not phi.is_integral
        expected = sum(
            (recount_cut_rank(L, v) * abs(x) for v, x in values.items()), start=Fraction(0)
        )
        norm = thurston_norm(L, phi)
        assert type(norm) is Fraction and norm == expected


def test_norm_matches_polytope_thickness():
    rng = SplitMix64(3)
    for seed in range(20):
        L = random_chordal(2 + seed % 9, seed + 900)
        phi = random_character(L, rng)
        assert thurston_norm(L, phi) == thickness(l2_polytope(L), phi)


def test_norm_seminorm_axioms_sampled():
    rng = SplitMix64(17)
    for seed in range(10):
        L = random_chordal(2 + seed % 7, seed + 1300)
        for _ in range(30):
            phi = random_character(L, rng)
            psi = random_character(L, rng)
            assert thurston_norm(L, phi.add(psi)) <= thurston_norm(L, phi) + thurston_norm(L, psi)
            q = Fraction(rng.below(13) - 6, 1 + rng.below(3))
            assert thurston_norm(L, phi.scale(q)) == abs(q) * thurston_norm(L, phi)


# -- the unit ball ------------------------------------------------------------------


def test_ball_star(star3):
    ball = norm_ball(star3)
    assert ball.weights == {"c": 2, "x": 0, "y": 0, "z": 0}
    assert ball.bounded_vertices == (
        (Fraction(1, 2), 0, 0, 0),
        (Fraction(-1, 2), 0, 0, 0),
    )
    assert ball.lineality_basis == ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    assert not ball.is_whole_space


def test_ball_p3_slab(p3):
    ball = norm_ball(p3)
    assert ball.bounded_vertices == ((0, Fraction(1), 0), (0, Fraction(-1), 0))
    assert ball.lineality_basis == ((1, 0, 0), (0, 0, 1))
    assert ball.contains(Character({"a": 100, "b": 1, "c": -50}))
    assert not ball.contains(Character({"a": 0, "b": "3/2", "c": 0}))


def test_ball_whole_space(tt):
    ball = norm_ball(tt)
    assert ball.is_whole_space
    assert len(ball.lineality_basis) == 4


def test_ball_membership_matches_norm():
    rng = SplitMix64(23)
    for seed in range(15):
        L = random_chordal(2 + seed % 8, seed + 1700)
        ball = norm_ball(L)
        for _ in range(10):
            phi = random_character(L, rng).scale(Fraction(1, 1 + rng.below(9)))
            assert ball.contains(phi) == (thurston_norm(L, phi) <= 1)


def test_ball_membership_checks_the_domain(p3):
    ball = norm_ball(p3)
    for values in ({"a": 0, "b": 0, "c": 0, "zzz": 100}, {"a": 0, "b": 0}):
        with pytest.raises(CharacterDomainError):
            ball.contains(Character(values))


def test_ball_json(star3):
    doc = norm_ball(star3).to_json_doc()
    assert doc["weights"] == {"c": 2, "x": 0, "y": 0, "z": 0}
    assert doc["vertices"] == [["1/2", "0", "0", "0"], ["-1/2", "0", "0", "0"]]
    assert doc["lineality"] == [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]


# -- sparse storage against the dense oracle ----------------------------------------


@st.composite
def generator_lists(draw, rank):
    """Dense generators over an ambient of ``rank``: a few base vectors
    (zero vectors and negative entries included), each drawn again as
    parallel multiples of either sign, and some generators repeated with
    the opposite coefficient so that they cancel."""
    vector = st.lists(st.integers(-6, 6), min_size=rank, max_size=rank)
    base = draw(st.lists(st.one_of(vector, st.just([0] * rank)), min_size=1, max_size=4))
    gens = []
    for _ in range(draw(st.integers(0, 8))):
        vec = draw(st.sampled_from(base))
        mult = draw(st.integers(-3, 3))
        gens.append(([mult * x for x in vec], draw(st.integers(-3, 3))))
    if gens:
        for vec, coeff in draw(st.lists(st.sampled_from(gens), max_size=3)):
            gens.append((vec, -coeff))
    return gens


@st.composite
def element_pairs(draw):
    rank = draw(st.integers(1, 8))
    ambient = tuple(f"x{i}" for i in range(rank))
    values = draw(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=6),
                           min_size=rank, max_size=rank))
    phi = Character(dict(zip(ambient, values)))
    return ambient, draw(generator_lists(rank)), draw(generator_lists(rank)), phi


def same_element(lib, oracle):
    assert list(lib.coeffs.items()) == list(oracle.coeffs.items())
    assert json.dumps(lib.to_json_doc()) == json.dumps(oracle.to_json_doc())
    assert lib.is_single == oracle.is_single
    assert lib.is_neutral == oracle.is_neutral


@settings(max_examples=150, deadline=None)
@given(element_pairs())
def test_sparse_element_matches_the_dense_oracle(case):
    ambient, gens1, gens2, phi = case
    x, y = ZonotopeElement(ambient, gens1), ZonotopeElement(ambient, gens2)
    ox, oy = DenseZonotope(ambient, gens1), DenseZonotope(ambient, gens2)
    for lib, oracle in ((x, ox), (y, oy), (x + y, ox + oy), (x - y, ox - oy), (-x, -ox)):
        same_element(lib, oracle)
        assert thickness(lib, phi) == dense_thickness(oracle, phi)
    assert (x == y) == (ox == oy)
    if x == y:
        assert hash(x) == hash(y)
    rebuilt = (x + y) - y
    assert rebuilt == x and hash(rebuilt) == hash(x)
    assert ZonotopeElement.from_json_doc(x.to_json_doc(), ambient) == x


@pytest.mark.parametrize("n", [2, 3, 5, 9, 17, 40])
def test_polytope_and_ball_match_the_dense_oracle(n):
    rng = SplitMix64(n)
    for seed in range(6):
        L = random_chordal(n, 31 * n + seed)
        z, oz = l2_polytope(L), dense_l2_polytope(L)
        same_element(z, oz)
        assert z == ZonotopeElement(L.vertices, oz.coeffs.items())
        phi = random_character(L, rng)
        assert thickness(z, phi) == dense_thickness(oz, phi)
        ball = norm_ball(L)
        weights, bounded, lineality, doc = dense_norm_ball(L)
        assert ball.weights == weights
        assert ball.bounded_vertices == bounded
        assert ball.lineality_basis == lineality
        assert json.dumps(ball.to_json_doc()) == json.dumps(doc)
        assert ball.is_whole_space == (not bounded)
