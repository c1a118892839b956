"""Cross-checking engine: the three-way equality through independent code
paths, structural invariants, and deterministic chordal-graph generation.

All randomness comes from a hand-rolled split-mix 64-bit generator so that
identical seeds give identical cases on every platform.
"""

from __future__ import annotations

import math
from bisect import insort
from fractions import Fraction

from ._record import Record
from .characters import Character, check_domain, require_integral, require_nonzero
from .complexes import FlagComplex, is_chordal
from .errors import (
    DisconnectedError,
    InvalidInput,
    NotChordalError,
    NotOneEndedError,
    ParseError,
    RaagError,
    ZeroCharacterError,
)
from .homology import euler_raag, link_betti, reduced_betti
from .l2 import is_fibered, l2_euler_kernel
from .polytopes import (
    l2_polytope,
    norm_ball,
    require_one_ended_coherent,
    thickness,
    thurston_norm,
)
from .rationals import format_rational
from .splittings import (
    clique_tree_splitting,
    cyclic_cover_truncation,
    dual_splitting,
    euler_check,
    splitting_complexity,
)

_MASK = (1 << 64) - 1


class SplitMix64:
    """The standard split-mix mixer: state += golden gamma, then two
    xor-shift multiplies. Deterministic across platforms."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        if n <= 0:
            raise InvalidInput("below() needs a positive bound")
        return self.next_u64() % n

    def pick(self, seq):
        return seq[self.below(len(seq))]

    def sample(self, seq, count):
        """``count`` distinct elements, by partial Fisher-Yates."""
        pool = list(seq)
        out = []
        for _ in range(count):
            i = self.below(len(pool))
            out.append(pool.pop(i))
        return out


def random_chordal(n: int, seed: int) -> FlagComplex:
    """Connected chordal complex on n vertices, reproducible from the seed.

    Built by reverse perfect elimination: each new vertex attaches to a
    nonempty clique drawn from inside an existing maximal clique, so it is
    simplicial at insertion time. The maximal cliques are kept as sorted
    tuples of vertex positions, in lexicographic order: attaching the new
    vertex to ``attach`` inside ``K`` adds ``attach + (new,)`` and removes
    ``K`` only when ``attach == K``. The adjacency is built as vertices
    attach, so the generated edges are not parsed again.
    """
    if n < 1:
        raise InvalidInput("need at least one vertex")
    rng = SplitMix64(seed)
    width = max(len(str(n - 1)), 1)
    names = [f"v{i:0{width}d}" for i in range(n)]
    adj = {v: set() for v in names}
    cliques = [(0,)]
    for i in range(1, n):
        at = rng.below(len(cliques))
        clique = cliques[at]
        size = 1 + rng.below(len(clique))
        attach = tuple(sorted(rng.sample(clique, size)))
        if attach == clique:
            del cliques[at]
        insort(cliques, attach + (i,))
        new = names[i]
        near = adj[new]
        for a in attach:
            near.add(names[a])
            adj[names[a]].add(new)
    return FlagComplex._from_adjacency(tuple(names), adj)


def _draw_complex(rng: SplitMix64, min_n, max_n) -> FlagComplex:
    """A :func:`random_chordal` complex whose size is drawn from ``min_n``
    to ``max_n``, then its seed, both from ``rng``."""
    n = min_n + rng.below(max_n - min_n + 1)
    return random_chordal(n, rng.next_u64())


def random_character(L: FlagComplex, rng: SplitMix64, lo=-5, hi=5) -> Character:
    """Nonzero integral character with entries in [lo, hi]."""
    span = hi - lo + 1
    while True:
        values = {v: lo + rng.below(span) for v in L.vertices}
        if any(values.values()):
            return Character(values)


def random_primitive_character(L, rng, lo=-5, hi=5) -> Character:
    return random_character(L, rng, lo, hi).primitive()[0]


# -- the three-way cross check ---------------------------------------------------


class CrossCheckReport(Record):
    """Thickness, minus the kernel's L2-Euler characteristic, and the
    constructed splitting complexity, each through its own code path.

    ``applicable`` is False when the complex is not connected chordal with
    at least two vertices; the equality is asserted only when applicable.
    ``minus_chi2`` is evaluated on the primitive representative and scaled
    back by the gcd. The report is unhashable: its character is.
    """

    complex: FlagComplex
    character: Character
    applicable: bool
    primitive_gcd: int
    thickness: Fraction | None = None
    minus_chi2: Fraction | None = None
    complexity: Fraction | None = None
    equal: bool | None = None

    def values(self):
        return (self.thickness, self.minus_chi2, self.complexity)

    def to_json_doc(self):
        doc = {
            "complex": self.complex.to_json_doc(),
            "character": self.character.to_json_doc(),
            "applicable": self.applicable,
            "primitive_gcd": self.primitive_gcd,
        }
        if self.applicable:
            doc["values"] = {
                "thickness": format_rational(self.thickness),
                "minus_chi2": format_rational(self.minus_chi2),
                "complexity": format_rational(self.complexity),
            }
            doc["equal"] = self.equal
        return doc


def cross_check(L: FlagComplex, phi: Character) -> CrossCheckReport:
    """Compute all three quantities independently and compare exactly."""
    check_domain(phi, L)
    require_integral(phi)
    require_nonzero(phi)
    gcd = phi.gcd()
    try:
        require_one_ended_coherent(L)
    except (DisconnectedError, NotOneEndedError, NotChordalError):
        return CrossCheckReport(L, phi, False, gcd)
    width = thickness(l2_polytope(L), phi)
    primitive, _ = phi.primitive()
    minus_chi2 = -l2_euler_kernel(L, primitive) * gcd
    gog, _report = dual_splitting(L, phi)
    complexity = splitting_complexity(gog, phi)
    equal = width == minus_chi2 == complexity
    return CrossCheckReport(L, phi, True, gcd, width, minus_chi2, complexity, equal)


# -- invariant suites ---------------------------------------------------------------


class CheckResult:
    """One check's tally: passes, failures (the first ``MAX_STORED`` kept
    as payloads) and notes."""

    MAX_STORED = 10

    def __init__(self, name):
        self.name = name
        self.passed = 0
        self.failed = 0
        self.failures = []
        self.notes = {}

    def ok(self, count=1):
        self.passed += count

    def fail(self, payload):
        self.failed += 1
        if len(self.failures) < self.MAX_STORED:
            self.failures.append(payload)

    def to_json_doc(self):
        doc = {"name": self.name, "passed": self.passed, "failed": self.failed}
        if self.failures:
            doc["failures"] = self.failures
        if self.notes:
            doc["notes"] = self.notes
        return doc


def _case_doc(L, phi=None, **extra):
    doc = {"complex": L.to_json_doc()}
    if phi is not None:
        doc["character"] = phi.to_json_doc()
    doc.update(extra)
    return doc


def check_main_equality(samples, seed, min_n=2, max_n=25) -> CheckResult:
    """Thickness = -chi2 of the kernel = splitting complexity, exactly."""
    result = CheckResult("main_equality")
    rng = SplitMix64(seed)
    max_n = max(max_n, min_n)
    for _ in range(samples):
        L = _draw_complex(rng, min_n, max_n)
        phi = random_primitive_character(L, rng)
        report = cross_check(L, phi)
        if not report.applicable:
            result.notes["not_applicable"] = result.notes.get("not_applicable", 0) + 1
            continue
        if report.equal:
            result.ok()
        else:
            result.fail(
                _case_doc(
                    L,
                    phi,
                    values=[format_rational(x) for x in report.values()],
                )
            )
    return result


def two_triangles() -> FlagComplex:
    """Two 2-simplices glued along an edge (v1, v2 the shared edge)."""
    return FlagComplex(
        ["v1", "v2", "w1", "w2"],
        [("v1", "v2"), ("v1", "w1"), ("v2", "w1"), ("v1", "w2"), ("v2", "w2")],
    )


def check_paper_examples(seed=0) -> CheckResult:
    """Trivial polytopes and the fibering locus of the glued triangles."""
    result = CheckResult("paper_examples")
    rng = SplitMix64(seed)
    L = two_triangles()
    if l2_polytope(L).is_neutral:
        result.ok()
    else:
        result.fail(_case_doc(L, reason="polytope not trivial"))
    for _ in range(25):
        phi = random_character(L, rng)
        if thurston_norm(L, phi) == 0:
            result.ok()
        else:
            result.fail(_case_doc(L, phi, reason="norm not zero"))
    listed = [
        {"v1": 1, "v2": 0, "w1": 0, "w2": 0},
        {"v1": 0, "v2": 1, "w1": 0, "w2": 0},
        {"v1": 0, "v2": 0, "w1": 1, "w2": 0},
        {"v1": 0, "v2": 0, "w1": 0, "w2": 1},
        {"v1": 1, "v2": -1, "w1": 0, "w2": 0},
        {"v1": 0, "v2": 0, "w1": 1, "w2": 1},
        {"v1": 2, "v2": 3, "w1": 5, "w2": 7},
        {"v1": 0, "v2": 0, "w1": 2, "w2": -3},
        {"v1": 0, "v2": 5, "w1": 1, "w2": 1},
    ]
    for values in listed:
        phi = Character(values)
        expected = values["v1"] != 0 or values["v2"] != 0
        if is_fibered(L, phi).fibered == expected:
            result.ok()
        else:
            result.fail(_case_doc(L, phi, reason="fibering mismatch"))
    for n in range(2, 9):
        names = [f"k{i}" for i in range(n)]
        K = FlagComplex(
            names, [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)]
        )
        if l2_polytope(K).is_neutral:
            result.ok()
        else:
            result.fail(_case_doc(K, reason="clique polytope not trivial"))
    return result


def check_negative_controls() -> CheckResult:
    """Free and otherwise non-one-ended inputs must report not-applicable."""
    result = CheckResult("negative_controls")
    cases = [
        (FlagComplex(["a", "b"]), Character({"a": 1, "b": 1})),
        (FlagComplex(["a"]), Character({"a": 1})),
        (
            FlagComplex(["a", "b", "c", "d"], [("a", "b"), ("c", "d")]),
            Character({"a": 1, "b": 0, "c": 2, "d": 0}),
        ),
    ]
    for L, phi in cases:
        report = cross_check(L, phi)
        if not report.applicable and report.equal is None:
            result.ok()
        else:
            result.fail(_case_doc(L, phi, reason="expected not-applicable"))
    return result


def check_contractibility_and_cut_rank(samples, seed, min_n=1, max_n=12) -> CheckResult:
    """Generated connected chordal complexes are acyclic, the cut rank of
    each vertex matches the link's reduced component count, from the core
    of the link (:func:`raagnorm.homology.link_betti`), and the top
    dimension kept with each link's Betti numbers is two less than the
    largest maximal clique through the vertex, from the clique tree. No
    link is built."""
    result = CheckResult("contractibility_and_cut_rank")
    rng = SplitMix64(seed)
    for _ in range(samples):
        L = _draw_complex(rng, min_n, max_n)
        rb = reduced_betti(L)
        if any(rb.betti):
            result.fail(_case_doc(L, reason="nonzero reduced homology"))
            continue
        bad = None
        if len(L) >= 2:
            links = link_betti(L)
            largest = {}
            for clique in L.maximal_cliques():
                for v in clique:
                    largest[v] = max(largest.get(v, 0), len(clique))
            for v in L.vertices:
                if L.cut_rank(v) != links[v].rank(0):
                    bad = v, "cut rank mismatch"
                    break
                if links[v].top_dim != largest[v] - 2:
                    bad = v, "link top dimension mismatch"
                    break
        if bad is None:
            result.ok()
        else:
            result.fail(_case_doc(L, vertex=bad[0], reason=bad[1]))
    return result


def check_multiplicativity(samples, seed, min_n=2, max_n=12) -> CheckResult:
    """Complexity and thickness both scale by |k| under phi -> k*phi."""
    result = CheckResult("multiplicativity")
    rng = SplitMix64(seed)
    for _ in range(samples):
        L = _draw_complex(rng, min_n, max_n)
        phi = random_character(L, rng)
        base_gog, base_report = dual_splitting(L, phi)
        base_complexity = splitting_complexity(base_gog, phi)
        base_thickness = thurston_norm(L, phi)
        case_ok = base_complexity == base_report.complexity
        for k in (-3, -2, -1, 1, 2, 3):
            scaled = phi.scale(k)
            gog_k, _ = dual_splitting(L, scaled)
            if splitting_complexity(gog_k, scaled) != abs(k) * base_complexity:
                case_ok = False
            if splitting_complexity(base_gog, scaled) != abs(k) * base_complexity:
                case_ok = False
            if thurston_norm(L, scaled) != abs(k) * base_thickness:
                case_ok = False
        if case_ok:
            result.ok()
        else:
            result.fail(_case_doc(L, phi, reason="scaling violated"))
    return result


def check_truncation_counts(samples, seed, min_n=2, max_n=12, max_k=50) -> CheckResult:
    """Per-edge lift counts match max(0, 2k+1-|phi(t_e)|) for every level,
    and the window is connected once k reaches the largest letter."""
    result = CheckResult("truncation_counts")
    rng = SplitMix64(seed)
    for _ in range(samples):
        L = _draw_complex(rng, min_n, max_n)
        phi = random_primitive_character(L, rng)
        gog, _ = dual_splitting(L, phi)
        letters = [abs(v) for v in gog.stable_letters.values()]
        case_ok = True
        for k in range(max_k + 1):
            trunc = cyclic_cover_truncation(gog, phi, k)
            for idx in range(len(gog.edges)):
                expected = max(0, 2 * k + 1 - abs(int(gog.stable_letters[idx])))
                if trunc.lift_counts[idx] != expected:
                    case_ok = False
            if k >= max(letters) and not trunc.connected:
                case_ok = False
        if case_ok:
            result.ok()
        else:
            result.fail(_case_doc(L, phi, reason="truncation bookkeeping"))
    return result


def check_seminorm_axioms(complexes, pairs, seed, min_n=2, max_n=12) -> CheckResult:
    """Exact absolute homogeneity and subadditivity of the norm."""
    result = CheckResult("seminorm_axioms")
    rng = SplitMix64(seed)
    scalars = [Fraction(-3), Fraction(-1), Fraction(1, 2), Fraction(2), Fraction(7, 3)]
    for _ in range(complexes):
        L = _draw_complex(rng, min_n, max_n)
        case_ok = True
        for _ in range(pairs):
            phi = random_character(L, rng)
            psi = random_character(L, rng)
            nphi = thurston_norm(L, phi)
            npsi = thurston_norm(L, psi)
            if thurston_norm(L, phi.add(psi)) > nphi + npsi:
                case_ok = False
            q = rng.pick(scalars)
            if thurston_norm(L, phi.scale(q)) != abs(q) * nphi:
                case_ok = False
        if case_ok:
            result.ok()
        else:
            result.fail(_case_doc(L, reason="semi-norm axiom violated"))
    return result


def _block_rows_agree(L, phi, report) -> bool:
    """Each row of a dual splitting's report against independent values:
    ``k`` is the gcd of |phi| on the block, and ``chi`` is the L2-Euler
    characteristic of the kernel of phi / k on the block's neighbourhood,
    counted by the L2 path (the links' mask counter, not the star pass)."""
    for row in report.blocks:
        k = math.gcd(*(phi.value(v).numerator for v in row.block))
        hood = L.one_neighborhood(row.block)
        kernel_chi = l2_euler_kernel(L.induced(hood), phi.restrict(hood).scale(Fraction(1, k)))
        if row.k != k or row.chi != kernel_chi:
            return False
    return True


def check_euler_bookkeeping(samples, seed, min_n=1, max_n=12) -> CheckResult:
    """euler_check equals the group Euler characteristic for clique trees,
    dual splittings, and free-product wrappers, and each block row of the
    dual splitting carries its block's own k and kernel Euler
    characteristic."""
    result = CheckResult("euler_bookkeeping")
    rng = SplitMix64(seed)
    for index in range(samples):
        L = _draw_complex(rng, min_n, max_n)
        case_ok = euler_check(clique_tree_splitting(L)) == euler_raag(L)
        phi = random_character(L, rng)
        gog, report = dual_splitting(L, phi)
        if euler_check(gog) != euler_raag(L) or not _block_rows_agree(L, phi, report):
            case_ok = False
        # free-product wrapper: disjoint union of this complex and a shifted copy
        other = _draw_complex(rng, 1, max_n)
        renamed = FlagComplex(
            [f"u{v}" for v in other.vertices],
            [(f"u{a}", f"u{b}") for a, b in other.edges()],
        )
        union = FlagComplex(
            list(L.vertices) + list(renamed.vertices),
            L.edges() + renamed.edges(),
        )
        psi_values = {v: phi.value(v) for v in L.vertices}
        psi_values.update({v: 0 for v in renamed.vertices})
        psi = Character(psi_values)
        wrapper, _ = dual_splitting(union, psi)
        if euler_check(wrapper) != euler_raag(union):
            case_ok = False
        if case_ok:
            result.ok()
        else:
            result.fail(_case_doc(L, phi, reason="euler bookkeeping", index=index))
    return result


def plant_cycle(L: FlagComplex, length: int, tag: str) -> FlagComplex:
    """Attach an induced cycle of the given length to the complex by a
    single connecting edge (the cycle stays induced)."""
    names = [f"{tag}{i}" for i in range(length)]
    cycle_edges = [(names[i], names[(i + 1) % length]) for i in range(length)]
    vertices = list(L.vertices) + names
    edges = L.edges() + cycle_edges
    if L.vertices:
        edges.append((L.vertices[0], names[0]))
    return FlagComplex(vertices, edges)


def plant_sphere(L: FlagComplex, d: int, tag: str) -> FlagComplex:
    """Attach the boundary of the (d + 1)-dimensional cross-polytope, a flag
    d-sphere, to the complex by a single connecting edge. Its vertices are
    declared pair by pair, each pair the two ends of one axis, and every two
    of them are adjacent except the two ends of an axis."""
    names = [f"{tag}{i}{sign}" for i in range(d + 1) for sign in "+-"]
    sphere_edges = [
        (a, b) for i, a in enumerate(names) for b in names[i + 1 :] if a[:-1] != b[:-1]
    ]
    edges = L.edges() + sphere_edges
    if L.vertices:
        edges.append((L.vertices[0], names[0]))
    return FlagComplex(list(L.vertices) + names, edges)


def check_sphere_homology(samples, seed, min_n=1, max_n=12) -> CheckResult:
    """A chordal complex with a planted d-sphere (d = 1, 2 or 3) has reduced
    homology of rank 1 in dimension d and 0 elsewhere. The sphere's core
    is itself, so unlike every chordal case this reduces boundary
    matrices."""
    result = CheckResult("sphere_homology")
    rng = SplitMix64(seed)
    for _ in range(samples):
        base = _draw_complex(rng, min_n, max_n)
        d = 1 + rng.below(3)
        planted = plant_sphere(base, d, tag="s")
        betti = reduced_betti(planted)
        if betti.rank(d) == 1 == sum(betti.betti):
            result.ok()
        else:
            result.fail(_case_doc(planted, dim=d, betti=list(betti.betti)))
    return result


def verify_peo(L: FlagComplex, peo) -> bool:
    """Brute-force elimination-order oracle: every pair of later neighbors
    of each vertex must be adjacent."""
    if sorted(peo) != sorted(L.vertices):
        return False
    pos = {v: i for i, v in enumerate(peo)}
    for v in peo:
        later = [w for w in L.neighbors(v) if pos[w] > pos[v]]
        for i, a in enumerate(later):
            for b in later[i + 1 :]:
                if not L.has_edge(a, b):
                    return False
    return True


def verify_induced_cycle(L: FlagComplex, cycle) -> bool:
    """Oracle: consecutive vertices adjacent, all other pairs not."""
    k = len(cycle)
    if k < 4 or len(set(cycle)) != k:
        return False
    for i in range(k):
        for j in range(i + 1, k):
            adjacent = L.has_edge(cycle[i], cycle[j])
            consecutive = j - i == 1 or (i == 0 and j == k - 1)
            if adjacent != consecutive:
                return False
    return True


def check_chordality_soundness(samples, seed, min_n=1, max_n=12) -> CheckResult:
    """Verdicts and witnesses verify independently on generated chordal
    complexes and on complexes with a planted induced cycle."""
    result = CheckResult("chordality_soundness")
    rng = SplitMix64(seed)
    for _ in range(samples):
        L = _draw_complex(rng, min_n, max_n)
        witness = is_chordal(L)
        if witness.chordal and verify_peo(L, witness.peo) and L.is_connected():
            result.ok()
        else:
            result.fail(_case_doc(L, reason="chordal witness rejected"))
    for _ in range(samples):
        base = _draw_complex(rng, min_n, max_n)
        length = 4 + rng.below(5)
        planted = plant_cycle(base, length, tag="c")
        witness = is_chordal(planted)
        if not witness.chordal and verify_induced_cycle(planted, witness.bad_cycle):
            result.ok()
        else:
            result.fail(_case_doc(planted, reason="planted cycle missed"))
    return result


def check_domain_gates() -> CheckResult:
    """Adversarial inputs surface domain errors instead of crashing."""
    result = CheckResult("domain_gates")
    c4 = FlagComplex(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
    phi = Character({"a": 1, "b": 1, "c": 1, "d": 1})
    gates = [
        (lambda: thurston_norm(c4, phi), NotChordalError),
        (lambda: l2_polytope(c4), NotChordalError),
        (lambda: norm_ball(c4), NotChordalError),
        (lambda: dual_splitting(c4, phi), NotChordalError),
        (
            lambda: thurston_norm(FlagComplex(["a"]), Character({"a": 1})),
            NotOneEndedError,
        ),
        (
            lambda: l2_polytope(FlagComplex(["a", "b"])),
            DisconnectedError,
        ),
        (
            lambda: dual_splitting(
                FlagComplex(["a", "b"], [("a", "b")]), Character({"a": 0, "b": 0})
            ),
            ZeroCharacterError,
        ),
    ]
    for gate, expected in gates:
        try:
            gate()
        except expected as exc:
            payload = exc.payload()
            if expected is NotChordalError and not verify_induced_cycle(
                c4, payload.get("cycle", ())
            ):
                result.fail({"reason": "witness cycle did not verify"})
            else:
                result.ok()
        except RaagError as exc:
            result.fail({"reason": f"wrong error kind {exc.kind}"})
        else:
            result.fail({"reason": "domain error not raised"})
    return result


DEFAULT_SUITE_CONFIG = {"samples": 60, "max_n": 12, "seed": 24251}


def run_suite(config=None) -> dict:
    """Execute the invariant suites; a nonzero failure count fails the run.

    ``config`` follows ``{"samples": int, "max_n": int, "seed": int}``;
    missing keys take defaults. An unknown key, a value that is not an
    integer, ``samples`` below 0 or ``max_n`` below 1 is a
    :class:`ParseError`. The report is JSON-serializable and carries
    counterexamples for every failed case (capped per check).
    """
    cfg = dict(DEFAULT_SUITE_CONFIG)
    cfg.update(config or {})
    extra = set(cfg) - set(DEFAULT_SUITE_CONFIG)
    if extra:
        raise ParseError(f"suite config: unexpected keys {sorted(extra)}")
    for key, value in cfg.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise ParseError(f'suite config: "{key}" must be an integer')
    for key, least in (("samples", 0), ("max_n", 1)):
        if cfg[key] < least:
            raise ParseError(f'suite config: "{key}" must be at least {least}')
    samples = cfg["samples"]
    max_n = cfg["max_n"]
    seed = cfg["seed"]

    checks = [
        check_main_equality(samples, seed + 1, max_n=max(2, max_n)),
        check_paper_examples(seed + 2),
        check_negative_controls(),
        check_contractibility_and_cut_rank(samples, seed + 3, max_n=max_n),
        check_multiplicativity(max(samples // 2, 5), seed + 4, max_n=max(2, max_n)),
        check_truncation_counts(
            max(samples // 4, 5), seed + 5, max_n=max(2, max_n), max_k=20
        ),
        check_seminorm_axioms(5, max(samples, 20), seed + 6, max_n=max(2, max_n)),
        check_euler_bookkeeping(max(samples // 2, 5), seed + 7, max_n=max_n),
        check_chordality_soundness(max(samples // 2, 5), seed + 8, max_n=max_n),
        check_sphere_homology(max(samples // 4, 5), seed + 9, max_n=max_n),
        check_domain_gates(),
    ]
    failures = sum(c.failed for c in checks)
    return {
        "config": {"samples": samples, "max_n": max_n, "seed": seed},
        "checks": [c.to_json_doc() for c in checks],
        "failures": failures,
        "ok": failures == 0,
    }
