"""The zonotope subgroup of the translation-invariant polytope group.

Elements are formal integer combinations of lattice segments [0, d] in the
first homology of the group of a flag complex, identified with Z^V on the
standard generators. Parallel generators merge and signs normalize away
(translation invariance), so equality is equality of coefficient maps:
no convex-hull machinery is ever needed.

Storage is sparse throughout. An element keeps each direction as its
nonzero ``(position, value)`` pairs, and a norm ball keeps only its
weights; the dense coordinate tuples (``coeffs``, ``bounded_vertices``,
``lineality_basis``) and the JSON documents are views derived on demand.
So ``l2_polytope``, ``thickness`` and ``norm_ball`` are linear in the
number of vertices once the cut ranks are known.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._record import Record
from .characters import Character, check_domain
from .complexes import FlagComplex, require_chordal
from .errors import (
    AmbientMismatchError,
    CharacterDomainError,
    DisconnectedError,
    NotOneEndedError,
    ParseError,
)
from .rationals import format_rational

ZERO = Fraction(0)


def _primitive(pairs):
    """Primitive, sign-canonical form of a sparse direction and its
    multiplier.

    ``pairs`` are the direction's nonzero ``(position, value)`` entries in
    position order. The result divides them by their gcd and makes the
    leading value positive; it is ``None`` for the zero vector (a point
    segment is a translation, hence neutral).
    """
    g = 0
    for _, x in pairs:
        g = math.gcd(g, x)
    if g == 0:
        return None
    signed = -g if pairs[0][1] < 0 else g
    return tuple([(i, x // signed) for i, x in pairs]), g


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


class ZonotopeElement:
    """Formal difference of zonotopes over a fixed ambient vertex order.

    The element stands for the combination sum of coeff * [0, direction],
    up to translation. It keeps one dict from sparse directions to nonzero
    integer coefficients: a direction is the tuple of its nonzero
    ``(position, value)`` pairs in position order, primitive and with a
    positive leading value. The constructor takes dense generators
    (``(vector, coeff)`` with vectors of length ``len(ambient)``) of
    ``int`` entries; any other entry, a ``bool`` too, raises ``ParseError``.

    ``coeffs`` is a read-only dense view, built on each read: primitive
    sign-canonical direction tuples of length ``len(ambient)``, in sorted
    order, mapped to their coefficients.
    """

    __slots__ = ("ambient", "_terms")

    def __init__(self, ambient, generators=()):
        self.ambient = tuple(ambient)
        n = len(self.ambient)
        terms = {}
        for pos, (vec, coeff) in enumerate(generators):
            vec = tuple(vec)
            if not _is_int(coeff):
                raise ParseError(f"generators[{pos}]: coeff must be an integer")
            if not all(map(_is_int, vec)):
                raise ParseError(f"generators[{pos}]: dir must be integer coordinates")
            if len(vec) != n:
                raise AmbientMismatchError(
                    f"direction of length {len(vec)} in an ambient of rank {n}"
                )
            canon = _primitive([(i, x) for i, x in enumerate(vec) if x])
            if canon is None:
                continue
            direction, mult = canon
            terms[direction] = terms.get(direction, 0) + mult * coeff
        self._terms = {d: c for d, c in terms.items() if c != 0}

    @classmethod
    def _from_terms(cls, ambient: tuple, terms: dict):
        """An element from canonical sparse directions and nonzero
        coefficients, taken as they are."""
        z = cls.__new__(cls)
        z.ambient = ambient
        z._terms = terms
        return z

    @property
    def coeffs(self) -> dict:
        n = len(self.ambient)
        dense = []
        for d, c in self._terms.items():
            row = [0] * n
            for i, x in d:
                row[i] = x
            dense.append((tuple(row), c))
        return dict(sorted(dense))

    # -- group structure ------------------------------------------------------

    def _check_same_ambient(self, other):
        if self.ambient != other.ambient:
            raise AmbientMismatchError("elements live over different vertex sets")

    def __add__(self, other):
        if not isinstance(other, ZonotopeElement):
            return NotImplemented
        self._check_same_ambient(other)
        terms = dict(self._terms)
        for d, c in other._terms.items():
            total = terms.get(d, 0) + c
            if total:
                terms[d] = total
            else:
                del terms[d]
        return ZonotopeElement._from_terms(self.ambient, terms)

    def __neg__(self):
        return ZonotopeElement._from_terms(
            self.ambient, {d: -c for d, c in self._terms.items()}
        )

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        if not isinstance(other, ZonotopeElement):
            return NotImplemented
        return self.ambient == other.ambient and self._terms == other._terms

    def __hash__(self):
        return hash((self.ambient, frozenset(self._terms.items())))

    def __repr__(self):
        terms = " + ".join(f"{c}*[0,{list(d)}]" for d, c in self.coeffs.items())
        return f"ZonotopeElement({terms or '0'})"

    @property
    def is_neutral(self):
        return not self._terms

    @property
    def is_single(self) -> bool:
        """True when the element is an honest zonotope (no negative parts)."""
        return all(c >= 0 for c in self._terms.values())

    # -- serialization ----------------------------------------------------------

    def to_json_doc(self):
        return {
            "generators": [
                {"dir": list(d), "coeff": c} for d, c in self.coeffs.items()
            ]
        }

    @classmethod
    def from_json_doc(cls, doc, ambient):
        if not isinstance(doc, dict) or set(doc) != {"generators"}:
            raise ParseError('zonotope document must be {"generators": [...]}')
        if not isinstance(doc["generators"], list):
            raise ParseError('zonotope document: "generators" must be a list')
        gens = []
        for pos, g in enumerate(doc["generators"]):
            if not isinstance(g, dict) or set(g) != {"dir", "coeff"}:
                raise ParseError(f"generators[{pos}]: expected dir and coeff")
            if not isinstance(g["dir"], list):
                raise ParseError(f"generators[{pos}]: dir must be integer coordinates")
            gens.append((g["dir"], g["coeff"]))
        return cls(ambient, gens)


def thickness(z: ZonotopeElement, phi: Character) -> Fraction:
    """Width of the element along ``phi``: sum of coeff * |phi(direction)|,
    each pairing taken over the direction's support.

    A zonotope's extent along a functional is the sum of its generators'
    extents, so this extends the polytope width linearly to formal
    differences and is a homomorphism to the rationals for fixed ``phi``.
    An integral ``phi`` is paired and summed in ``int``, with one
    ``Fraction`` at the end.
    """
    values = phi._values
    if values.keys() != frozenset(z.ambient):
        raise AmbientMismatchError("character domain does not match the ambient")
    ambient = z.ambient
    if phi.is_integral:
        total = 0
        for d, c in z._terms.items():
            pairing = 0
            for i, x in d:
                pairing += x * values[ambient[i]].numerator
            total += c * abs(pairing)
        return Fraction(total)
    total = ZERO
    for d, c in z._terms.items():
        pairing = sum((x * values[ambient[i]] for i, x in d), start=ZERO)
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
    terms = {
        ((i, 1),): w for i, w in enumerate(cut_rank_weights(L).values()) if w
    }
    return ZonotopeElement._from_terms(L.vertices, terms)


def thurston_norm(L: FlagComplex, phi: Character) -> Fraction:
    """Semi-norm value, exactly: the thickness of the group's polytope along
    ``phi``, that is, the sum of cut_rank(v) * |phi(v)|."""
    polytope = l2_polytope(L)
    check_domain(phi, L)
    return thickness(polytope, phi)


class NormBall(Record):
    """The unit ball {phi : sum weights[v] * |phi_v| <= 1} in coordinates
    dual to the standard generators.

    The ball keeps only its vertex order and weights. ``bounded_vertices``
    (the extreme points +-e_v / weight for positive weights, in vertex
    order) and ``lineality_basis`` (the unit vectors e_v of zero weight,
    spanning the degenerate directions) are read-only dense views, built on
    each read. With all weights zero the ball is the whole space. The ball
    is unhashable, since its weights are a dict.
    """

    vertex_order: tuple
    weights: dict

    @property
    def bounded_vertices(self) -> tuple:
        n = len(self.vertex_order)
        return tuple(
            _unit(n, i, Fraction(sign, w), ZERO)
            for i, w in enumerate(self.weights[v] for v in self.vertex_order)
            if w
            for sign in (1, -1)
        )

    @property
    def lineality_basis(self) -> tuple:
        n = len(self.vertex_order)
        return tuple(
            _unit(n, i, 1, 0) for i, v in enumerate(self.vertex_order) if not self.weights[v]
        )

    @property
    def is_whole_space(self):
        return not any(self.weights.values())

    def contains(self, phi: Character) -> bool:
        if phi._values.keys() != self.weights.keys():
            raise CharacterDomainError("character domain does not match the ball's vertices")
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
    return NormBall(L.vertices, cut_rank_weights(L))
