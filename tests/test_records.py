"""Value semantics of the public result records: construction by position,
keyword and default; equality within a class and inequality across classes;
the hash of the field tuple, or ``TypeError`` for the records that hold a
dict or a character; the exact ``repr``; and refusal of assignment and
deletion."""

from fractions import Fraction

import pytest

import raagnorm
from raagnorm import (
    Amalgam,
    BlockKernel,
    BlockRow,
    Character,
    ChordalityWitness,
    CoverTruncation,
    CrossCheckReport,
    FiberingReport,
    FlagComplex,
    GogEdge,
    GraphOfGroups,
    NormBall,
    Parabolic,
    ReducedBettiVector,
    SplittingReport,
    Trivial,
    clique_tree_splitting,
    cross_check,
    cyclic_cover_truncation,
    dual_splitting,
    is_chordal,
    is_fibered,
    norm_ball,
    reduced_betti,
)
from raagnorm._record import Record
from raagnorm.verify import CheckResult

P3 = FlagComplex(["a", "b", "c"], [("a", "b"), ("b", "c")])
C4 = FlagComplex(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
PHI111 = Character({"a": 1, "b": 1, "c": 1})
PHI101 = Character({"a": 1, "b": 0, "c": 1})


def _split_p3():
    return dual_splitting(P3, PHI111)


def _split_p3_dead_centre():
    return dual_splitting(P3, PHI101)


# (id, builder, field names, exact repr, hashable)
CASES = [
    (
        "chordal_witness",
        lambda: is_chordal(P3),
        ("chordal", "peo", "bad_cycle"),
        "ChordalityWitness(chordal=True, peo=('c', 'b', 'a'), bad_cycle=None)",
        True,
    ),
    (
        "non_chordal_witness",
        lambda: is_chordal(C4),
        ("chordal", "peo", "bad_cycle"),
        "ChordalityWitness(chordal=False, peo=None, bad_cycle=('a', 'b', 'c', 'd'))",
        True,
    ),
    (
        "reduced_betti",
        lambda: reduced_betti(P3),
        ("betti", "top_dim"),
        "ReducedBettiVector(betti=(0, 0, 0), top_dim=1)",
        True,
    ),
    (
        "fibering",
        lambda: is_fibered(P3, PHI101),
        ("fibered", "living", "connected", "dominating"),
        "FiberingReport(fibered=False, living=FlagComplex(['a', 'c'], []), "
        "connected=False, dominating=True)",
        True,
    ),
    (
        "norm_ball",
        lambda: norm_ball(P3),
        ("vertex_order", "weights"),
        "NormBall(vertex_order=('a', 'b', 'c'), weights={'a': 0, 'b': 1, 'c': 0})",
        False,
    ),
    (
        "parabolic",
        lambda: clique_tree_splitting(P3).vertex_groups[0],
        ("vertices",),
        "Parabolic(vertices=('a', 'b'))",
        True,
    ),
    (
        "block_kernel",
        lambda: _split_p3()[0].vertex_groups[0],
        ("block", "k", "chi"),
        "BlockKernel(block=('a', 'b', 'c'), k=1, chi=Fraction(-1, 1))",
        True,
    ),
    (
        "trivial",
        lambda: Trivial(),
        (),
        "Trivial()",
        True,
    ),
    (
        "amalgam",
        lambda: _split_p3_dead_centre()[0].vertex_groups[0],
        ("parts", "edge_groups"),
        "Amalgam(parts=(BlockKernel(block=('a',), k=1, chi=Fraction(0, 1)), "
        "BlockKernel(block=('c',), k=1, chi=Fraction(0, 1)), Parabolic(vertices=('b',))), "
        "edge_groups=(Parabolic(vertices=('b',)), Parabolic(vertices=('b',))))",
        True,
    ),
    (
        "gog_edge",
        lambda: clique_tree_splitting(P3).edges[0],
        ("source", "target", "group", "inclusion"),
        "GogEdge(source=0, target=1, group=Parabolic(vertices=('b',)), inclusion='parabolic')",
        True,
    ),
    (
        "block_row",
        lambda: _split_p3()[1].blocks[0],
        ("block", "k", "chi", "contribution"),
        "BlockRow(block=('a', 'b', 'c'), k=1, chi=Fraction(-1, 1), contribution=Fraction(1, 1))",
        True,
    ),
    (
        "splitting_report",
        lambda: _split_p3()[1],
        ("complexity", "blocks", "tree_certificate"),
        "SplittingReport(complexity=Fraction(1, 1), blocks=(BlockRow(block=('a', 'b', 'c'), "
        "k=1, chi=Fraction(-1, 1), contribution=Fraction(1, 1)),), tree_certificate="
        "{'nodes': [{'role': 'block_neighborhood', 'block': ['a', 'b', 'c'], "
        "'vertices': ['a', 'b', 'c']}], 'edges': [], 'is_tree': True})",
        False,
    ),
    (
        "cover_truncation",
        lambda: cyclic_cover_truncation(_split_p3()[0], PHI111, 2),
        (
            "k", "vertex_count", "lift_counts", "connected",
            "vertex_rank_sum", "edge_rank_sum", "rank_difference",
        ),
        "CoverTruncation(k=2, vertex_count=5, lift_counts=(4,), connected=True, "
        "vertex_rank_sum=Fraction(5, 1), edge_rank_sum=Fraction(4, 1), "
        "rank_difference=Fraction(1, 1))",
        True,
    ),
    (
        "cross_check",
        lambda: cross_check(P3, PHI111),
        (
            "complex", "character", "applicable", "primitive_gcd",
            "thickness", "minus_chi2", "complexity", "equal",
        ),
        "CrossCheckReport(complex=FlagComplex(['a', 'b', 'c'], [('a', 'b'), ('b', 'c')]), "
        "character=Character({a: 1, b: 1, c: 1}), applicable=True, primitive_gcd=1, "
        "thickness=Fraction(1, 1), minus_chi2=Fraction(1, 1), complexity=Fraction(1, 1), "
        "equal=True)",
        False,
    ),
    (
        "cross_check_not_applicable",
        lambda: cross_check(C4, Character({"a": 1, "b": 1, "c": 1, "d": 1})),
        (
            "complex", "character", "applicable", "primitive_gcd",
            "thickness", "minus_chi2", "complexity", "equal",
        ),
        "CrossCheckReport(complex=FlagComplex(['a', 'b', 'c', 'd'], [('a', 'b'), ('a', 'd'), "
        "('b', 'c'), ('c', 'd')]), character=Character({a: 1, b: 1, c: 1, d: 1}), "
        "applicable=False, primitive_gcd=1, thickness=None, minus_chi2=None, "
        "complexity=None, equal=None)",
        False,
    ),
]
IDS = [case[0] for case in CASES]
RECORD_TYPES = {
    Amalgam, BlockKernel, BlockRow, ChordalityWitness, CoverTruncation,
    CrossCheckReport, FiberingReport, GogEdge, NormBall, Parabolic,
    ReducedBettiVector, SplittingReport, Trivial,
}


def test_cases_cover_every_record_type():
    assert {type(case[1]()) for case in CASES} == RECORD_TYPES


def test_no_record_takes_a_cap_field():
    """Record constructors show ``(*args, **kwargs)`` to ``inspect``, so the
    public no-``cap`` check reads their field lists here instead."""
    public = {getattr(raagnorm, name) for name in raagnorm.__all__}
    records = {obj for obj in public if isinstance(obj, type) and issubclass(obj, Record)}
    assert records == RECORD_TYPES
    for cls in records:
        assert "cap" not in cls._fields, cls.__name__


@pytest.mark.parametrize("_id, build, fields, text, hashable", CASES, ids=IDS)
def test_repr_is_exact(_id, build, fields, text, hashable):
    assert repr(build()) == text


@pytest.mark.parametrize("_id, build, fields, text, hashable", CASES, ids=IDS)
def test_construction_by_position_and_keyword(_id, build, fields, text, hashable):
    x = build()
    values = tuple(getattr(x, f) for f in fields)
    cls = type(x)
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(fields, values)))
    assert by_position == x and by_keyword == x
    assert not (by_position != x)
    assert by_position is not x
    assert repr(by_keyword) == text
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values, no_such_field=1)
    if fields:
        with pytest.raises(TypeError):
            cls(*values, **{fields[0]: values[0]})


@pytest.mark.parametrize("_id, build, fields, text, hashable", CASES, ids=IDS)
def test_equality_needs_the_same_class(_id, build, fields, text, hashable):
    x = build()
    values = tuple(getattr(x, f) for f in fields)

    class Sub(type(x)):
        pass

    assert x.__eq__(object()) is NotImplemented
    assert x != values and values != x
    assert x != Sub(*values) and Sub(*values) != x
    for case in CASES:
        y = case[1]()
        if type(y) is not type(x):
            assert x != y and y != x


@pytest.mark.parametrize("_id, build, fields, text, hashable", CASES, ids=IDS)
def test_hash_is_the_field_tuple_or_refused(_id, build, fields, text, hashable):
    x = build()
    values = tuple(getattr(x, f) for f in fields)
    if hashable:
        assert hash(x) == hash(values) == hash(build())
        assert {x, build()} == {x}
    else:
        with pytest.raises(TypeError):
            hash(x)


@pytest.mark.parametrize("_id, build, fields, text, hashable", CASES, ids=IDS)
def test_assignment_and_deletion_raise(_id, build, fields, text, hashable):
    x = build()
    for name in fields + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(x, name, 0)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert repr(x) == text


def test_defaults():
    assert ChordalityWitness(True) == ChordalityWitness(True, None, None)
    assert ChordalityWitness(chordal=False, bad_cycle=("a",)).peo is None
    phi = Character({"a": 1, "b": 1, "c": 1, "d": 1})
    bare = CrossCheckReport(C4, phi, False, 1)
    assert bare == cross_check(C4, phi)
    assert bare.values() == (None, None, None)
    assert CrossCheckReport(C4, phi, applicable=False, primitive_gcd=1, equal=True).equal
    assert Trivial() == Trivial() and hash(Trivial()) == hash(())
    with pytest.raises(TypeError):
        ChordalityWitness()
    with pytest.raises(TypeError):
        Parabolic()


def test_nested_records_compare_by_value():
    assert GogEdge(0, 1, Parabolic(("b",)), "parabolic") == clique_tree_splitting(P3).edges[0]
    assert GogEdge(0, 1, Parabolic(("a",)), "parabolic") != clique_tree_splitting(P3).edges[0]
    assert BlockKernel(("a",), 1, Fraction(0)) == BlockKernel(("a",), 1, 0)
    assert Amalgam((Trivial(),), ()) != Amalgam((Parabolic(()),), ())


def test_unhashable_types_say_so():
    gog, _ = _split_p3()
    with pytest.raises(TypeError):
        hash(gog)
    for cls in (NormBall, SplittingReport, CrossCheckReport, GraphOfGroups):
        assert "unhashable" in cls.__doc__, cls.__name__


def test_check_results_start_with_fresh_containers():
    a, b = CheckResult("a"), CheckResult("b")
    a.fail({"case": 1})
    a.notes["x"] = 1
    a.ok(2)
    assert b.failures == [] and b.notes == {} and (b.passed, b.failed) == (0, 0)
    assert a.to_json_doc() == {
        "name": "a", "passed": 2, "failed": 1, "failures": [{"case": 1}], "notes": {"x": 1},
    }
    for _ in range(CheckResult.MAX_STORED + 5):
        b.fail({})
    assert b.failed == CheckResult.MAX_STORED + 5
    assert len(b.failures) == CheckResult.MAX_STORED
