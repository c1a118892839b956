"""Rational characters: vertex-wise values of a homomorphism to the reals.

A character is determined by its values on the standard generators, one per
vertex; it factors through the abelianization. Values are exact rationals
(floats are rejected so exactness can never silently degrade).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .complexes import FlagComplex, load_json
from .errors import (
    CharacterDomainError,
    NotIntegralError,
    NotPrimitiveError,
    ParseError,
    ZeroCharacterError,
)
from .rationals import format_rational, parse_rational


class Character:
    """Map vertex -> rational value; immutable.

    Integrality and the gcd of the values are worked out on first use and
    kept on the instance, so the gates below read them without another walk
    over the values.
    """

    __slots__ = ("_values", "_integrality")

    def __init__(self, values):
        vals = {}
        for v, x in values.items():
            if not isinstance(v, str):
                raise ParseError("character keys must be vertex strings")
            # A bool is an int to isinstance, but no character value.
            if isinstance(x, (bool, float)):
                raise ParseError(
                    f"character value for {v!r} is a {type(x).__name__}; use "
                    'int, Fraction or "p/q"'
                )
            if isinstance(x, (int, Fraction)):
                vals[v] = Fraction(x)
            elif isinstance(x, str):
                vals[v] = parse_rational(x, where=f"character value for {v!r}")
            else:
                raise ParseError(f"character value for {v!r}: unsupported type")
        self._values = vals
        self._integrality = None

    # -- queries -----------------------------------------------------------

    def value(self, v) -> Fraction:
        try:
            return self._values[v]
        except KeyError:
            raise CharacterDomainError(f"character undefined on vertex {v!r}") from None

    def items(self):
        return self._values.items()

    def _kept_integrality(self):
        """``(is_integral, gcd)``, the gcd of the absolute values being None
        for a non-integral character; computed once."""
        kept = self._integrality
        if kept is None:
            vals = self._values.values()
            if all(x.denominator == 1 for x in vals):
                kept = (True, math.gcd(*[x.numerator for x in vals]))
            else:
                kept = (False, None)
            self._integrality = kept
        return kept

    @property
    def is_zero(self) -> bool:
        # A non-integral value is nonzero, and integral values are all zero
        # exactly when their gcd is.
        return self._kept_integrality() == (True, 0)

    @property
    def is_integral(self) -> bool:
        return self._kept_integrality()[0]

    def gcd(self) -> int:
        """gcd of the absolute integer values; 0 for the zero character."""
        integral, g = self._kept_integrality()
        if not integral:
            raise NotIntegralError("gcd is defined for integral characters")
        return g

    @property
    def is_primitive(self) -> bool:
        return self.is_integral and self.gcd() == 1

    def __eq__(self, other):
        if not isinstance(other, Character):
            return NotImplemented
        return self._values == other._values

    def __repr__(self):
        inner = ", ".join(f"{v}: {x}" for v, x in sorted(self._values.items()))
        return f"Character({{{inner}}})"

    # -- arithmetic ----------------------------------------------------------

    def scale(self, q) -> "Character":
        q = Fraction(q)
        return Character({v: x * q for v, x in self._values.items()})

    def add(self, other: "Character") -> "Character":
        if self._values.keys() != other._values.keys():
            raise CharacterDomainError("characters live on different vertex sets")
        return Character({v: x + other._values[v] for v, x in self._values.items()})

    def primitive(self):
        """The primitive representative and the gcd it was divided by; a
        character that is already primitive is its own representative."""
        if self.is_zero:
            raise ZeroCharacterError("zero character has no primitive representative")
        g = self.gcd()
        if g == 1:
            return self, 1
        return self.scale(Fraction(1, g)), g

    def restrict(self, vertices) -> "Character":
        return Character({v: self.value(v) for v in vertices})

    def proportion_to(self, other: "Character"):
        """Rational q with self = q*other, or None if not proportional.

        ``other`` must be nonzero on some vertex. Each vertex is compared by
        integer cross-multiplication against the ratio ``p/q`` read off the
        first vertex where ``other`` is nonzero: ``a == (p/q)*x`` exactly when
        ``a.num * x.den * q == p * x.num * a.den``, so no Fraction is built per
        vertex, and for integral characters every denominator is 1.
        """
        mine, theirs = self._values, other._values
        if mine.keys() != theirs.keys():
            raise CharacterDomainError("characters live on different vertex sets")
        for v, x in theirs.items():
            if x != 0:
                ratio = mine[v] / x
                break
        else:
            raise ZeroCharacterError("cannot compare against the zero character")
        p, q = ratio.numerator, ratio.denominator
        for v, x in theirs.items():
            a = mine[v]
            if a.numerator * x.denominator * q != p * x.numerator * a.denominator:
                return None
        return ratio

    # -- serialization --------------------------------------------------------

    def to_json_doc(self):
        return {
            "values": {
                v: format_rational(x) for v, x in sorted(self._values.items())
            }
        }


def check_domain(phi: Character, L: FlagComplex):
    """The character's domain must be exactly the vertex set of ``L``
    (compared as key views, so no set is built)."""
    if phi._values.keys() != L._index.keys():
        raise CharacterDomainError(
            "character domain does not match the complex's vertex set"
        )


def require_nonzero(phi: Character):
    if phi.is_zero:
        raise ZeroCharacterError("character is identically zero")


def require_integral(phi: Character):
    if not phi.is_integral:
        raise NotIntegralError("character must take integer values")


def require_primitive(phi: Character):
    require_integral(phi)
    require_nonzero(phi)
    if phi.gcd() != 1:
        raise NotPrimitiveError("character values must have gcd 1")


def parse_character(text: str) -> Character:
    return character_from_json_doc(load_json(text))


def character_from_json_doc(doc) -> Character:
    if not isinstance(doc, dict) or set(doc) != {"values"}:
        raise ParseError('character document must be {"values": {...}}')
    values = doc["values"]
    if not isinstance(values, dict):
        raise ParseError('"values" must be an object')
    return Character(values)
