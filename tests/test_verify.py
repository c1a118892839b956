import hashlib
import json

import pytest

from oracles import brute_chordal, reference_splitmix64
from raagnorm import (
    Character,
    FlagComplex,
    NotIntegralError,
    ReducedBettiVector,
    ZeroCharacterError,
    cross_check,
    is_chordal,
    link_betti,
    plant_cycle,
    random_chordal,
    reduced_betti,
    run_suite,
    two_triangles,
    verify_induced_cycle,
    verify_peo,
)
from raagnorm import homology, verify
from raagnorm.verify import SplitMix64, random_character, random_primitive_character


# -- the pseudorandom stream ------------------------------------------------------


def test_splitmix_matches_reference():
    for seed in (0, 1, 42, 2**63, 0xDEADBEEF):
        rng = SplitMix64(seed)
        ours = [rng.next_u64() for _ in range(8)]
        assert ours == reference_splitmix64(seed, 8)


def test_splitmix_known_first_value():
    # widely published first output for seed 0
    assert SplitMix64(0).next_u64() == 0xE220A8397B1DCDAF


def test_sample_is_distinct():
    rng = SplitMix64(5)
    got = rng.sample(list(range(10)), 6)
    assert len(set(got)) == 6


# -- generation ----------------------------------------------------------------------


def test_random_chordal_is_deterministic():
    assert random_chordal(5, 42) == random_chordal(5, 42)
    assert random_chordal(9, 1) != random_chordal(9, 2)


def test_random_chordal_single_vertex():
    L = random_chordal(1, 7)
    assert len(L.vertices) == 1


# sha256 prefixes of random_chordal(n, seed) over RANDOM_CHORDAL_SEEDS, pinned
# from the generator that rebuilt the maximal cliques at every step.
RANDOM_CHORDAL_SEEDS = (0, 1, 2, 7, 12345)
RANDOM_CHORDAL_HASHES = {
    1: "580606e4f1c0cfa0",
    2: "5f744686ee833382",
    3: "66945a38ff34b16d",
    7: "ee9b255974ed6860",
    16: "c24239decaa94f8b",
    33: "fd66a626b25b6f54",
    64: "d73941951334146f",
    65: "3172a085ae1e8318",
}


@pytest.mark.parametrize("n", sorted(RANDOM_CHORDAL_HASHES))
def test_random_chordal_golden_hashes(n):
    h = hashlib.sha256()
    for seed in RANDOM_CHORDAL_SEEDS:
        doc = random_chordal(n, seed).to_json_doc()
        h.update(json.dumps(doc, sort_keys=True).encode() + b"\n")
    assert h.hexdigest()[:16] == RANDOM_CHORDAL_HASHES[n]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_chordal_past_the_clique_cap(seed):
    L = random_chordal(200, seed)
    assert len(L.vertices) == 200
    assert L.is_connected()
    witness = is_chordal(L)
    assert witness.chordal and verify_peo(L, witness.peo)


def test_random_chordal_outputs_verify():
    for seed in range(30):
        n = 1 + seed % 12
        L = random_chordal(n, seed * 101 + 3)
        assert len(L.vertices) == n
        assert L.is_connected()
        witness = is_chordal(L)
        assert witness.chordal and verify_peo(L, witness.peo)
        if n <= 7:
            assert brute_chordal(L)


def test_random_character_support():
    rng = SplitMix64(11)
    L = random_chordal(6, 77)
    for _ in range(20):
        phi = random_character(L, rng)
        assert not phi.is_zero
        assert all(abs(phi.value(v)) <= 5 for v in L.vertices)
        prim = random_primitive_character(L, rng)
        assert prim.is_primitive


def test_plant_cycle_produces_verified_holes():
    for seed in range(10):
        base = random_chordal(5, seed + 31)
        for length in (4, 5, 7):
            planted = plant_cycle(base, length, tag="h")
            witness = is_chordal(planted)
            assert not witness.chordal
            assert verify_induced_cycle(planted, witness.bad_cycle)


def test_plant_sphere_gives_the_cross_polytope_boundary():
    for d in (1, 2, 3):
        sphere = verify.plant_sphere(FlagComplex([]), d, tag="s")
        n = 2 * (d + 1)
        assert sphere.vertices[:2] == ("s0+", "s0-")
        assert len(sphere.edges()) == n * (n - 2) // 2  # all pairs but the axes
        assert reduced_betti(sphere).betti == (0,) * (d + 1) + (1,)
    planted = verify.plant_sphere(random_chordal(6, 3), 2, tag="s")
    assert planted.has_edge(planted.vertices[0], "s0+") and planted.is_connected()


def test_sphere_check_reduces_boundary_matrices(monkeypatch):
    calls = []
    echelon = homology._echelon
    monkeypatch.setattr(homology, "_echelon", lambda rows: calls.append(1) or echelon(rows))
    result = verify.check_sphere_homology(8, 5, max_n=10)
    assert (result.passed, result.failed) == (8, 0) and calls


# -- witness oracles reject wrong evidence ----------------------------------------------


def test_verify_peo_rejects(p3, c4):
    assert not verify_peo(p3, ("a", "b"))  # not a permutation
    assert not verify_peo(c4, ("a", "b", "c", "d"))  # no PEO exists
    assert verify_peo(p3, ("a", "c", "b"))
    assert verify_peo(p3, ("c", "a", "b"))


def test_verify_induced_cycle_rejects(p3, c4, tt):
    assert verify_induced_cycle(c4, ("a", "b", "c", "d"))
    assert not verify_induced_cycle(c4, ("a", "b", "c"))  # too short
    assert not verify_induced_cycle(c4, ("a", "c", "b", "d"))  # wrong order
    assert not verify_induced_cycle(tt, ("v1", "w1", "v2", "w2"))  # has a chord


# -- cross checks --------------------------------------------------------------------


def test_cross_check_p3(p3, phi111):
    report = cross_check(p3, phi111)
    assert report.applicable and report.equal
    assert report.values() == (1, 1, 1)
    assert report.primitive_gcd == 1
    doc = report.to_json_doc()
    assert doc["values"] == {"thickness": "1", "minus_chi2": "1", "complexity": "1"}


def test_cross_check_scaled_gcd(p3):
    phi = Character({"a": 2, "b": 4, "c": 2})
    report = cross_check(p3, phi)
    assert report.primitive_gcd == 2
    assert report.equal and report.values() == (4, 4, 4)


def test_cross_check_two_triangles(tt):
    phi = Character({"v1": 1, "v2": 0, "w1": 0, "w2": 0})
    report = cross_check(tt, phi)
    assert report.applicable and report.equal
    assert report.values() == (0, 0, 0)


def test_cross_check_not_applicable_cases(c4):
    free2 = FlagComplex(["a", "b"])
    report = cross_check(free2, Character({"a": 1, "b": 1}))
    assert not report.applicable
    assert report.equal is None and report.thickness is None
    assert "values" not in report.to_json_doc()
    singleton = cross_check(FlagComplex(["a"]), Character({"a": 1}))
    assert not singleton.applicable
    bad = cross_check(c4, Character({v: 1 for v in c4.vertices}))
    assert not bad.applicable


def test_cross_check_preconditions(p3):
    with pytest.raises(ZeroCharacterError):
        cross_check(p3, Character({"a": 0, "b": 0, "c": 0}))
    with pytest.raises(NotIntegralError):
        cross_check(p3, Character({"a": "1/2", "b": 1, "c": 1}))


def test_cross_check_random_sweep():
    rng = SplitMix64(71)
    for seed in range(40):
        L = random_chordal(2 + seed % 10, seed + 11000)
        phi = random_character(L, rng)
        report = cross_check(L, phi)
        assert report.applicable and report.equal, report.to_json_doc()


# -- the suite ------------------------------------------------------------------------


def test_run_suite_default_passes():
    report = run_suite({"samples": 25, "max_n": 8, "seed": 2024})
    assert report["ok"] and report["failures"] == 0
    names = [c["name"] for c in report["checks"]]
    assert names == [
        "main_equality",
        "paper_examples",
        "negative_controls",
        "contractibility_and_cut_rank",
        "multiplicativity",
        "truncation_counts",
        "seminorm_axioms",
        "euler_bookkeeping",
        "chordality_soundness",
        "sphere_homology",
        "domain_gates",
    ]
    assert all(c["passed"] > 0 for c in report["checks"])
    import json

    json.dumps(report)  # serializable, counterexamples included


def test_run_suite_degenerate_sizes():
    report = run_suite({"samples": 15, "max_n": 2, "seed": 5})
    assert report["ok"]


def test_run_suite_is_deterministic():
    a = run_suite({"samples": 10, "max_n": 6, "seed": 99})
    b = run_suite({"samples": 10, "max_n": 6, "seed": 99})
    assert a == b


def test_cut_rank_check_reads_the_star_and_catches_a_wrong_link(monkeypatch):
    def refuse(self, v):
        raise AssertionError("the cut-rank check built a link")

    monkeypatch.setattr(FlagComplex, "link", refuse)
    result = verify.check_contractibility_and_cut_rank(20, 31, max_n=14)
    assert result.passed == 20 and result.failed == 0

    def one_more_component(L):
        betti = link_betti(L)
        v = L.vertices[-1]
        rb = betti[v]
        betti[v] = ReducedBettiVector((0, rb.rank(0) + 1) + rb.betti[2:], max(rb.top_dim, 0))
        return betti

    monkeypatch.setattr(verify, "link_betti", one_more_component)
    result = verify.check_contractibility_and_cut_rank(10, 31, min_n=2, max_n=14)
    assert result.failed == 10
    assert {f["reason"] for f in result.failures} == {"cut rank mismatch"}
