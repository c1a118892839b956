"""The zonotope subgroup of the translation-invariant polytope group.

Elements are formal integer combinations of lattice segments [0, d] in the
first homology of the group of a flag complex, identified with Z^V on the
standard generators. Parallel generators merge and signs normalize away
(translation invariance), so equality is equality of coefficient maps:
no convex-hull machinery is ever needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .characters import Character, check_domain
from .complexes import FlagComplex, require_chordal
from .errors import AmbientMismatchError, DisconnectedError, NotOneEndedError, ParseError
from .rationals import format_rational

ZERO = Fraction(0)


def _canonical_direction(vec):
    """Primitive, sign-canonical direction and its multiplier.

    Returns ``None`` for the zero vector (a point segment is a translation,
    hence neutral).
    """
    g = 0
    for x in vec:
        g = math.gcd(g, abs(x))
    if g == 0:
        return None
    # Tuples of vertex-count length are built from lists: tuple() over a
    # generator grows its result by resizing, and CPython parks each resized
    # tuple in a free list of its final length that only a full garbage
    # collection empties, so a long run of small complexes holds on to them.
    direction = tuple([x // g for x in vec])
    for x in direction:
        if x != 0:
            if x < 0:
                direction = tuple([-y for y in direction])
            break
    return direction, g


class ZonotopeElement:
    """Formal difference of zonotopes over a fixed ambient vertex order.

    ``coeffs`` maps primitive sign-canonical integer directions (tuples of
    length ``len(ambient)``) to nonzero integers; the element stands for the
    combination sum of coeff * [0, direction], up to translation.
    """

    __slots__ = ("ambient", "coeffs")

    def __init__(self, ambient, generators=()):
        self.ambient = tuple(ambient)
        n = len(self.ambient)
        acc = {}
        for vec, coeff in generators:
            vec = tuple([int(x) for x in vec])
            if len(vec) != n:
                raise AmbientMismatchError(
                    f"direction of length {len(vec)} in an ambient of rank {n}"
                )
            canon = _canonical_direction(vec)
            if canon is None:
                continue
            direction, mult = canon
            acc[direction] = acc.get(direction, 0) + mult * int(coeff)
        self.coeffs = {d: c for d, c in sorted(acc.items()) if c != 0}

    # -- group structure ------------------------------------------------------

    def _check_same_ambient(self, other):
        if self.ambient != other.ambient:
            raise AmbientMismatchError("elements live over different vertex sets")

    def __add__(self, other):
        if not isinstance(other, ZonotopeElement):
            return NotImplemented
        self._check_same_ambient(other)
        return ZonotopeElement(
            self.ambient, list(self.coeffs.items()) + list(other.coeffs.items())
        )

    def __neg__(self):
        return ZonotopeElement(self.ambient, [(d, -c) for d, c in self.coeffs.items()])

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        if not isinstance(other, ZonotopeElement):
            return NotImplemented
        return self.ambient == other.ambient and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ambient, tuple(sorted(self.coeffs.items()))))

    def __repr__(self):
        terms = " + ".join(f"{c}*[0,{list(d)}]" for d, c in self.coeffs.items())
        return f"ZonotopeElement({terms or '0'})"

    @property
    def is_neutral(self):
        return not self.coeffs

    @property
    def is_single(self) -> bool:
        """True when the element is an honest zonotope (no negative parts)."""
        return all(c >= 0 for c in self.coeffs.values())

    # -- serialization ----------------------------------------------------------

    def to_json_doc(self):
        return {
            "generators": [
                {"dir": list(d), "coeff": c} for d, c in sorted(self.coeffs.items())
            ]
        }

    @classmethod
    def from_json_doc(cls, doc, ambient):
        if not isinstance(doc, dict) or set(doc) != {"generators"}:
            raise ParseError('zonotope document must be {"generators": [...]}')
        gens = []
        for pos, g in enumerate(doc["generators"]):
            if not isinstance(g, dict) or set(g) != {"dir", "coeff"}:
                raise ParseError(f"generators[{pos}]: expected dir and coeff")
            if not isinstance(g["coeff"], int) or isinstance(g["coeff"], bool):
                raise ParseError(f"generators[{pos}]: coeff must be an integer")
            if not all(isinstance(x, int) and not isinstance(x, bool) for x in g["dir"]):
                raise ParseError(f"generators[{pos}]: dir must be integer coordinates")
            gens.append((tuple(g["dir"]), g["coeff"]))
        return cls(ambient, gens)


def thickness(z: ZonotopeElement, phi: Character) -> Fraction:
    """Width of the element along ``phi``: sum of coeff * |phi(direction)|.

    A zonotope's extent along a functional is the sum of its generators'
    extents, so this extends the polytope width linearly to formal
    differences and is a homomorphism to the rationals for fixed ``phi``.
    """
    if phi.support_domain != frozenset(z.ambient):
        raise AmbientMismatchError("character domain does not match the ambient")
    values = [phi.value(v) for v in z.ambient]
    total = ZERO
    for d, c in z.coeffs.items():
        pairing = sum((x * values[i] for i, x in enumerate(d) if x), start=ZERO)
        total += c * abs(pairing)
    return total


# -- the polytope of a one-ended coherent group --------------------------------


def _unit(n, i, value, zero):
    """The length-``n`` tuple with ``value`` at ``i`` and ``zero`` elsewhere."""
    row = [zero] * n
    row[i] = value
    return tuple(row)


def is_one_ended(L: FlagComplex) -> bool:
    """The group of ``L`` is one-ended: ``L`` is connected and has at least
    two vertices."""
    return L.is_connected() and len(L.vertices) >= 2


def require_one_ended_coherent(L: FlagComplex):
    """One-ended (:func:`is_one_ended`) and chordal; raise otherwise."""
    if not is_one_ended(L):
        if not L.is_connected():
            raise DisconnectedError("complex must be connected (one-ended group)")
        raise NotOneEndedError("complex must have at least two vertices")
    require_chordal(L)


def cut_rank_weights(L: FlagComplex) -> dict:
    """Cut rank of every vertex (computed once per complex)."""
    return {v: L.cut_rank(v) for v in L.vertices}


def l2_polytope(L: FlagComplex) -> ZonotopeElement:
    """The group's polytope: cut-rank multiples of the coordinate segments.

    Defined for connected chordal complexes on at least two vertices; always
    a single polytope (all coefficients are nonnegative).
    """
    require_one_ended_coherent(L)
    gens = [
        (_unit(len(L.vertices), i, 1, 0), w)
        for i, w in enumerate(cut_rank_weights(L).values())
        if w
    ]
    return ZonotopeElement(L.vertices, gens)


def thurston_norm(L: FlagComplex, phi: Character) -> Fraction:
    """Semi-norm value, exactly: sum of cut_rank(v) * |phi(v)|."""
    require_one_ended_coherent(L)
    check_domain(phi, L)
    return sum(
        (w * abs(phi.value(v)) for v, w in cut_rank_weights(L).items() if w), start=ZERO
    )


@dataclass(frozen=True)
class NormBall:
    """The unit ball {phi : sum weights[v] * |phi_v| <= 1} in coordinates
    dual to the standard generators.

    ``bounded_vertices`` are the extreme points +-e_v / weight for positive
    weights; ``lineality_basis`` spans the degenerate directions. With all
    weights zero the ball is the whole space.
    """

    vertex_order: tuple
    weights: dict
    bounded_vertices: tuple
    lineality_basis: tuple

    @property
    def is_whole_space(self):
        return not self.bounded_vertices

    def contains(self, phi: Character) -> bool:
        total = sum(
            (self.weights[v] * abs(phi.value(v)) for v in self.vertex_order),
            start=Fraction(0),
        )
        return total <= 1

    def to_json_doc(self):
        return {
            "weights": {v: self.weights[v] for v in self.vertex_order},
            "vertices": [
                [format_rational(x) for x in p] for p in self.bounded_vertices
            ],
            "lineality": [list(b) for b in self.lineality_basis],
        }


def norm_ball(L: FlagComplex) -> NormBall:
    require_one_ended_coherent(L)
    weights = cut_rank_weights(L)
    n = len(L.vertices)
    bounded = []
    lineality = []
    for i, w in enumerate(weights.values()):
        if w:
            for sign in (1, -1):
                bounded.append(_unit(n, i, Fraction(sign, w), ZERO))
        else:
            lineality.append(_unit(n, i, 1, 0))
    return NormBall(L.vertices, weights, tuple(bounded), tuple(lineality))
