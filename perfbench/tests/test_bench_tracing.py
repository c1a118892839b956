"""Span schema, self-time arithmetic and patch/restore of the traced run.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import importlib
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import pytest  # noqa: E402

import raagnorm  # noqa: E402
import raagnorm.cli  # noqa: E402,F401  (install imports it; snapshots must include it)
import tracing  # noqa: E402
from raagnorm import Character, FlagComplex  # noqa: E402


def snapshot():
    """Identity of every attribute of every raagnorm module and of FlagComplex."""
    mods = {n: dict(vars(m)) for n, m in sys.modules.items()
            if m is not None and (n == "raagnorm" or n.startswith("raagnorm."))}
    return mods, dict(vars(FlagComplex))


def assert_same(before, after):
    mods_a, cls_a = before
    mods_b, cls_b = after
    assert mods_a.keys() == mods_b.keys()
    for name, attrs in mods_a.items():
        for key, value in attrs.items():
            assert mods_b[name][key] is value, f"{name}.{key} not restored"
    for key, value in cls_a.items():
        assert cls_b[key] is value, f"FlagComplex.{key} not restored"


def small_case():
    L = FlagComplex(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("b", "d"), ("c", "d")])
    return L, Character({"a": 2, "b": -1, "c": 3, "d": 1})


def test_synthetic_nesting_self_time():
    spans = [
        ("outer", 0, 100, None, 7),
        ("inner", 10, 30, 0, 7),
        ("inner", 20, 50, 0, 7),   # overlaps its sibling: covered once
        ("leaf", 12, 15, 1, 7),
        ("late", 90, 120, 0, 7),   # runs past its parent: clipped
    ]
    out = tracing.self_times(spans)
    assert out["outer"] == (100 - 40 - 10, 1)
    assert out["inner"] == ((20 - 3) + 30, 2)
    assert out["leaf"] == (3, 1)
    assert out["late"] == (30, 1)


def test_covered_ns_disjoint_and_nested_intervals():
    assert tracing.covered_ns(0, 10, []) == 0
    assert tracing.covered_ns(0, 10, [(2, 4), (6, 9)]) == 5
    assert tracing.covered_ns(0, 10, [(2, 8), (3, 5)]) == 6
    assert tracing.covered_ns(5, 10, [(0, 7)]) == 2


def test_span_schema_and_nesting():
    L, phi = small_case()
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        with tracer.case(3):
            assert raagnorm.cross_check(L, phi).equal
    docs = list(tracer.span_docs())
    assert docs and docs[0]["name"] == "case"
    names = set(tracing.SPAN_NAMES) | {"case"}
    by_id = {d["id"]: d for d in docs}
    for d in docs:
        assert set(d) == {"id", "name", "start_ns", "end_ns", "parent", "case"}
        assert d["name"] in names
        assert isinstance(d["start_ns"], int) and d["start_ns"] <= d["end_ns"]
        assert d["case"] == 3
        if d["parent"] is None:
            assert d["name"] == "case"
            continue
        parent = by_id[d["parent"]]
        assert parent["id"] < d["id"]
        assert parent["start_ns"] <= d["start_ns"] and d["end_ns"] <= parent["end_ns"]
    seen = {d["name"] for d in docs}
    for name in ("verify.cross_check", "complexes.is_chordal", "complexes.cut_rank",
                 "complexes.induced", "l2.l2_euler_kernel", "splittings.dual_splitting"):
        assert name in seen
    # cross_check is called from the package namespace, cut_rank through the class.
    top = [d for d in docs if d["parent"] == 0]
    assert [d["name"] for d in top] == ["verify.cross_check"]
    assert tracer.counts["splittings.loops"] >= 1
    totals = tracing.self_times(tracer.spans)
    case_ns = docs[0]["end_ns"] - docs[0]["start_ns"]
    assert sum(ns for ns, _ in totals.values()) == case_ns


def test_traced_results_equal_untraced():
    L, phi = small_case()
    plain = raagnorm.cross_check(L, phi).to_json_doc()
    with tracing.installed(tracing.Tracer()):
        traced = raagnorm.cross_check(L, phi).to_json_doc()
    assert traced == plain


def test_install_patches_every_binding_and_restore_undoes_it():
    before = snapshot()
    original = raagnorm.euler_raag
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        # The defining module, the package and each importer see the wrapper.
        assert raagnorm.homology.euler_raag is not original
        assert raagnorm.euler_raag is raagnorm.homology.euler_raag
        assert raagnorm.l2.euler_raag is raagnorm.homology.euler_raag
        assert raagnorm.splittings.euler_raag is raagnorm.homology.euler_raag
        assert FlagComplex.__dict__["cut_rank"] is not before[1]["cut_rank"]
    finally:
        tracing.restore(undo)
    assert_same(before, snapshot())


def test_installed_restores_after_an_exception():
    before = snapshot()
    with pytest.raises(raagnorm.NotChordalError):
        with tracing.installed(tracing.Tracer()):
            c4 = FlagComplex(["a", "b", "c", "d"],
                             [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
            raagnorm.thurston_norm(c4, Character({v: 1 for v in c4.vertices}))
    assert_same(before, snapshot())


def test_every_traced_name_exists():
    for _, module, attr in tracing.TRACED:
        target = importlib.import_module(module)
        for part in attr.split("."):
            target = getattr(target, part)
        assert callable(target)
    for span, _ in tracing.COUNTERS.values():
        assert span in tracing.SPAN_NAMES
