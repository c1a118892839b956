import math
from fractions import Fraction

import pytest

from raagnorm import (
    Character,
    CharacterDomainError,
    CliqueCapError,
    FlagComplex,
    NotIntegralError,
    NotPrimitiveError,
    ParseError,
    RaagError,
    ZeroCharacterError,
    complexes,
    cut_rank_weights,
    euler_raag,
    is_fibered,
    l2,
    l2_betti_group,
    l2_betti_kernel,
    l2_euler_kernel,
    link_euler,
    living_subcomplex,
    parse_character,
    plant_cycle,
    random_chordal,
    reduced_betti,
    two_triangles,
)
from raagnorm.characters import require_integral, require_nonzero, require_primitive
from raagnorm.verify import SplitMix64, random_primitive_character
from test_complexes import random_graph


# -- Character -----------------------------------------------------------------


def test_character_parsing_and_flags():
    phi = parse_character('{"values":{"a":1,"b":"1/2","c":-3}}')
    assert phi.value("b") == Fraction(1, 2)
    assert not phi.is_integral
    psi = Character({"a": 2, "b": -4})
    assert psi.is_integral and psi.gcd() == 2 and not psi.is_primitive
    prim, g = psi.primitive()
    assert g == 2 and prim.value("b") == -2 and prim.is_primitive
    assert Character({"a": 0}).is_zero


def test_primitive_returns_a_primitive_character_itself():
    phi = Character({"a": 3, "b": -2, "c": 0})
    prim, g = phi.primitive()
    assert prim is phi and g == 1
    psi = Character({"a": 6, "b": -4, "c": 0})
    prim, g = psi.primitive()
    assert g == 2 and prim == phi and prim is not psi
    prim, g = Character({"a": -5}).primitive()
    assert g == 5 and prim == Character({"a": -1})


def _outcome(call):
    try:
        return "ok", call()
    except RaagError as exc:
        return "raised", type(exc)


def _gates(phi):
    return [
        lambda: phi.is_zero,
        lambda: phi.is_integral,
        lambda: phi.is_primitive,
        phi.gcd,
        lambda: phi.primitive()[1],
        lambda: require_integral(phi),
        lambda: require_nonzero(phi),
        lambda: require_primitive(phi),
    ]


class _Walked:
    """The character facts the gates read, recomputed from the values on
    every call."""

    def __init__(self, values):
        self.vals = [Fraction(x) for x in values.values()]

    @property
    def is_zero(self):
        return all(x == 0 for x in self.vals)

    @property
    def is_integral(self):
        return all(x.denominator == 1 for x in self.vals)

    def gcd(self):
        if not self.is_integral:
            raise NotIntegralError("not integral")
        return math.gcd(*[x.numerator for x in self.vals])

    @property
    def is_primitive(self):
        return self.is_integral and self.gcd() == 1

    def primitive(self):
        if self.is_zero:
            raise ZeroCharacterError("zero")
        return None, self.gcd()


def test_character_gates_keep_their_answers():
    cases = [
        {},
        {"a": 0, "b": 0},
        {"a": "1/2", "b": 0},
        {"a": 0, "b": "-3/4"},
        {"a": 4, "b": -6, "c": 0},
        {"a": -1, "b": 0},
        {"a": 3, "b": 5},
        {"a": 10**40, "b": 15},
    ]
    for values in cases:
        expected = [_outcome(gate) for gate in _gates(_Walked(values))]
        phi = Character(values)
        assert [_outcome(gate) for gate in _gates(phi)] == expected
        assert [_outcome(gate) for gate in _gates(phi)] == expected  # kept answers
        # A fresh character asked in the opposite order answers the same.
        backwards = [_outcome(gate) for gate in reversed(_gates(Character(values)))]
        assert backwards[::-1] == expected


def test_character_walks_its_values_once():
    class CountingDict(dict):
        walks = 0

        def values(self):
            CountingDict.walks += 1
            return super().values()

    phi = Character({"a": 6, "b": -4, "c": 0})
    phi._values = CountingDict(phi._values)
    for _ in range(3):
        require_primitive(phi.scale(Fraction(1, 2)))
        assert phi.gcd() == 2 and phi.is_integral and not phi.is_zero
        assert phi.primitive()[1] == 2
        with pytest.raises(NotPrimitiveError):
            require_primitive(phi)
    assert CountingDict.walks == 1


def test_character_rejects_floats_and_bad_docs():
    with pytest.raises(ParseError):
        Character({"a": 0.5})
    with pytest.raises(ParseError):
        parse_character('{"values":{"a":0.5}}')
    with pytest.raises(ParseError):
        parse_character('{"values":{"a":"x/y"}}')
    with pytest.raises(ParseError):
        parse_character('{"wrong":{}}')
    # A bool is an int to isinstance, but no character value.
    for value in (True, False):
        with pytest.raises(ParseError, match="is a bool"):
            Character({"a": value, "b": 1})
    with pytest.raises(ParseError):
        parse_character('{"values":{"a":true,"b":1,"c":false}}')


def test_character_arithmetic_and_proportionality():
    phi = Character({"a": 2, "b": -3})
    assert phi.scale(Fraction(1, 2)).value("a") == 1
    assert phi.add(Character({"a": 1, "b": 3})).value("b") == 0
    assert phi.scale(5).proportion_to(phi) == 5
    assert Character({"a": 1, "b": 1}).proportion_to(phi) is None
    with pytest.raises(CharacterDomainError):
        phi.add(Character({"a": 1}))
    with pytest.raises(ZeroCharacterError):
        phi.proportion_to(Character({"a": 0, "b": 0}))
    with pytest.raises(ZeroCharacterError):
        Character({"a": 0}).primitive()
    # A factor is read as a character value is: a float, bool or decimal
    # string is refused. 0.1 would scale by 3602879701896397/36028797018963968
    # and True by 1.
    for q in (0.1, 2.0, True, "0.1"):
        with pytest.raises(ParseError, match="scale factor"):
            phi.scale(q)
    assert phi.scale("-1/2") == phi.scale(Fraction(-1, 2)) == Character({"a": -1, "b": "3/2"})


def _proportion_by_fractions(phi, psi):
    """The rational route: the ratio at psi's first nonzero vertex, then a
    Fraction product and comparison per vertex."""
    q = next(phi.value(v) / x for v, x in psi.items() if x != 0)
    return q if all(phi.value(v) == q * x for v, x in psi.items()) else None


def test_integral_proportion_matches_the_fraction_route():
    """Pairs (s * base, t * base) are proportional with ratio s/t, which is
    zero for s = 0 and negative for s, t of opposite signs; independent
    draws mostly are not proportional. Entries may be zero."""
    rng = SplitMix64(51)
    seen = {"none": 0, "negative": 0, "zero": 0}
    for trial in range(600):
        names = [f"v{i}" for i in range(1 + rng.below(6))]
        base = [rng.below(7) - 3 for _ in names]
        base[rng.below(len(names))] = 1 + rng.below(3)
        if trial % 2:
            s, t = rng.below(7) - 3, rng.below(6) + 1
            t = -t if rng.below(2) else t
            phi_vals, psi_vals = [s * x for x in base], [t * x for x in base]
        else:
            phi_vals, psi_vals = [rng.below(7) - 3 for _ in names], base
        phi = Character(dict(zip(names, phi_vals)))
        psi = Character(dict(zip(names, psi_vals)))
        got = phi.proportion_to(psi)
        want = _proportion_by_fractions(phi, psi)
        assert got == want and type(got) is type(want), (phi, psi)
        seen["none"] += got is None
        seen["negative"] += got is not None and got < 0
        seen["zero"] += got == 0
    assert min(seen.values()) > 40, seen


def test_non_integral_proportion_matches_the_fraction_route():
    phi = Character({"a": Fraction(1, 2), "b": 0, "c": Fraction(-3, 4)})
    psi = Character({"a": 2, "b": 0, "c": -3})
    assert phi.proportion_to(psi) == Fraction(1, 4) == _proportion_by_fractions(phi, psi)
    assert psi.proportion_to(phi) == 4
    assert Character({"a": 1, "b": 1, "c": 1}).proportion_to(phi) is None


def test_character_json_roundtrip():
    phi = Character({"a": Fraction(-7, 3), "b": 4})
    doc = phi.to_json_doc()
    assert doc == {"values": {"a": "-7/3", "b": "4"}}
    assert parse_character(__import__("json").dumps(doc)) == phi


# -- group L2-Betti numbers -------------------------------------------------------


def test_l2_betti_group_chordal_vanishes(p3, tt):
    assert all(b == 0 for b in l2_betti_group(p3))
    assert all(b == 0 for b in l2_betti_group(tt))


def test_l2_betti_group_free():
    for n in (2, 3, 5):
        L = FlagComplex([f"f{i}" for i in range(n)])
        betti = l2_betti_group(L, max_i=3)
        assert betti == [0, n - 1, 0, 0]


def test_l2_betti_group_c4(c4):
    assert l2_betti_group(c4, max_i=3) == [0, 0, 1, 0]


# -- kernel formulas ---------------------------------------------------------------


def test_kernel_betti_p3(p3, phi111, phi101):
    assert l2_betti_kernel(p3, phi111) == [0, 1, 0]
    assert l2_betti_kernel(p3, phi101) == [0, 0, 0]


def test_kernel_betti_star(star3):
    phi = Character({"c": 1, "x": 0, "y": 0, "z": 0})
    betti = l2_betti_kernel(star3, phi)
    assert betti[1] == 2 and all(b == 0 for i, b in enumerate(betti) if i != 1)


def test_kernel_betti_preconditions(p3):
    with pytest.raises(NotPrimitiveError):
        l2_betti_kernel(p3, Character({"a": 2, "b": 2, "c": 2}))
    with pytest.raises(NotIntegralError):
        l2_betti_kernel(p3, Character({"a": "1/2", "b": 0, "c": 0}))
    with pytest.raises(ZeroCharacterError):
        l2_betti_kernel(p3, Character({"a": 0, "b": 0, "c": 0}))
    with pytest.raises(CharacterDomainError):
        l2_betti_kernel(p3, Character({"a": 1, "b": 1}))


def test_kernel_euler_examples(p3, star3, phi111, phi101):
    assert l2_euler_kernel(p3, phi111) == -1
    assert l2_euler_kernel(star3, Character({"c": 1, "x": 0, "y": 0, "z": 0})) == -2
    assert l2_euler_kernel(p3, phi101) == 0


def test_kernel_concentrated_in_degree_one_for_chordal():
    rng = SplitMix64(99)
    for seed in range(25):
        L = random_chordal(2 + seed % 9, seed * 31 + 1)
        phi = random_primitive_character(L, rng)
        betti = l2_betti_kernel(L, phi)
        assert all(b == 0 for i, b in enumerate(betti) if i != 1)
        assert l2_euler_kernel(L, phi) == -betti[1]


def test_kernel_euler_builds_a_link_only_where_phi_is_nonzero(monkeypatch):
    built = []
    original = FlagComplex.link

    def recorded(self, v):
        built.append(v)
        return original(self, v)

    L = plant_cycle(random_chordal(14, 5), 5, "h")
    values = {v: (k % 3) - 1 for k, v in enumerate(L.vertices)}  # a third are 0
    phi = Character(values)
    want = sum(abs(x) * euler_raag(L.link(v)) for v, x in values.items())
    monkeypatch.setattr(FlagComplex, "link", recorded)
    assert l2_euler_kernel(L, phi) == want
    assert built == [v for v, x in values.items() if x]
    assert L._cache is None  # reads nothing kept on L, keeps nothing


def test_kernel_euler_over_budget_keeps_nothing(monkeypatch):
    L = plant_cycle(random_chordal(12, 8), 4, "h")
    phi = Character({v: 1 for v in L.vertices})
    want = l2_euler_kernel(L, phi)
    largest = max(sum(L.link(v).f_vector()) for v in L.vertices)
    twin = FlagComplex(L.vertices, L.edges())
    monkeypatch.setattr(complexes, "SIMPLEX_BUDGET", largest - 1)
    with pytest.raises(CliqueCapError) as err:
        l2_euler_kernel(twin, phi)
    assert err.value.info["budget"] == largest - 1
    assert not twin._cache
    monkeypatch.setattr(complexes, "SIMPLEX_BUDGET", largest)
    assert l2_euler_kernel(twin, phi) == want
    assert not twin._cache


def test_kernel_euler_counts_a_large_link_without_masks(monkeypatch):
    """A fan whose hub has 3000 neighbours, and a second hub with exactly
    ``_MASK_LINK_MAX`` of them: only links up to that size are counted
    over masks, so no mask is wider than that."""
    path = [f"p{i}" for i in range(3000)]
    edges = list(zip(path, path[1:])) + [("h", p) for p in path]
    edges += [("g", p) for p in path[: l2._MASK_LINK_MAX]]
    L = FlagComplex(path + ["h", "g"], edges)
    sizes = []
    original = l2._link_f_vector

    def recorded(K):
        sizes.append(len(K.vertices))
        return original(K)

    monkeypatch.setattr(l2, "_link_f_vector", recorded)
    phi = Character({v: 1 for v in L.vertices})
    assert l2_euler_kernel(L, phi) == sum(link_euler(L).values())
    assert max(sizes) == l2._MASK_LINK_MAX and len(sizes) == len(L.vertices) - 1
    assert L.link("h").f_vector() == (3000, 2999)


def test_kernel_euler_two_code_paths_agree():
    rng = SplitMix64(7)
    for seed in range(20):
        L = random_chordal(2 + seed % 8, seed * 17 + 3)
        phi = random_primitive_character(L, rng)
        direct = l2_euler_kernel(L, phi)
        via_betti = Fraction(0)
        for v in L.vertices:
            link = L.link(v)
            chi_link = -reduced_betti(link).reduced_euler()
            assert euler_raag(link) == chi_link  # second route to the same number
            via_betti += abs(phi.value(v)) * chi_link
        assert direct == via_betti


def test_kernel_betti_alternating_sum_is_the_kernel_euler():
    """Two routes: link Betti numbers from each link's core against the
    clique count of each built link."""
    rng = SplitMix64(23)
    cases = [random_chordal(2 + seed % 12, seed * 13 + 7) for seed in range(20)]
    cases += [plant_cycle(random_chordal(10, seed), 4 + seed % 4, "h") for seed in range(10)]
    cases += [random_graph(8 + seed % 5, 300 + seed, 60) for seed in range(15)]
    for L in cases:
        phi = random_primitive_character(L, rng)
        betti = l2_betti_kernel(L, phi)
        assert sum(b if i % 2 == 0 else -b for i, b in enumerate(betti)) == (
            l2_euler_kernel(L, phi)
        )


def test_kernel_betti_builds_no_link(monkeypatch):
    def refuse(self, *args):
        raise AssertionError("l2_betti_kernel built a subcomplex")

    cases = []
    for L in (plant_cycle(random_chordal(15, 4), 6, "h"), random_graph(10, 9, 70)):
        phi = Character({v: k + 1 for k, v in enumerate(L.vertices)})
        links = [(k + 1, reduced_betti(L.link(v))) for k, v in enumerate(L.vertices)]
        want = [sum(w * rb.rank(i - 1) for w, rb in links) for i in range(6)]
        cases.append((FlagComplex(L.vertices, L.edges()), phi, want))
    monkeypatch.setattr(FlagComplex, "link", refuse)
    monkeypatch.setattr(FlagComplex, "induced", refuse)
    for L, phi, want in cases:
        assert l2_betti_kernel(L, phi, max_i=5) == want


def test_cut_rank_bridge_identity():
    rng = SplitMix64(13)
    for seed in range(20):
        L = random_chordal(2 + seed % 9, seed * 61 + 5)
        phi = random_primitive_character(L, rng)
        weights = cut_rank_weights(L)
        assert -l2_euler_kernel(L, phi) == sum(
            weights[v] * abs(phi.value(v)) for v in L.vertices
        )


# -- fibering ------------------------------------------------------------------------


def test_fibering_p3(p3, phi111, phi101):
    report = is_fibered(p3, phi111)
    assert report.fibered and report.connected and report.dominating
    assert report.living == p3
    report = is_fibered(p3, phi101)
    assert not report.fibered and not report.connected and report.dominating
    assert report.living.vertices == ("a", "c")


def test_fibering_two_triangles_paper_locus(tt):
    cases = {
        (1, 0, 0, 0): True,
        (0, 1, 0, 0): True,
        (0, 0, 1, 0): False,
        (0, 0, 0, 1): False,
        (0, 0, 1, 1): False,
        (1, -1, 2, 3): True,
        (0, 5, 1, 1): True,
    }
    for (a, b, c, d), expected in cases.items():
        phi = Character({"v1": a, "v2": b, "w1": c, "w2": d})
        assert is_fibered(tt, phi).fibered is expected


def test_fibering_accepts_rationals(tt):
    phi = Character({"v1": "1/2", "v2": 0, "w1": 0, "w2": "2/3"})
    assert is_fibered(tt, phi).fibered


def test_fibering_rejects_zero(tt):
    with pytest.raises(ZeroCharacterError):
        is_fibered(tt, Character({v: 0 for v in tt.vertices}))


def test_living_subcomplex(p3, phi101):
    assert living_subcomplex(p3, phi101).vertices == ("a", "c")
