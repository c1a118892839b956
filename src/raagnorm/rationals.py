"""Exact rationals in JSON payloads: integers or normalized "p/q" strings."""

import re
import sys
from fractions import Fraction

from .errors import ParseError

# An optional sign and ASCII digits, optionally over more ASCII digits.
_RATIONAL = re.compile(r"([+-]?)([0-9]+)(?:/([0-9]+))?")


def parse_rational(value, where="value"):
    """Accept an int or a "p/q" / "p" string; reject everything else.

    Floats are rejected deliberately: every number in this package is exact.
    Strings must be an optional sign and digits, or "p/q" with digits on
    both sides: no decimal points, exponents, spaces or underscores, and no
    more digits than the interpreter converts. The shape is checked before
    any integer is built, so "1e999999999" costs nothing.
    """
    if isinstance(value, bool):
        raise ParseError(f"{where}: expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise ParseError(
            f"{where}: non-integer JSON numbers are not accepted; "
            'use a "p/q" string'
        )
    if isinstance(value, str):
        m = _RATIONAL.fullmatch(value)
        if m is None:
            raise ParseError(
                f"{where}: not a rational: {value[:40]!r}; "
                'expected an integer or a "p/q" string'
            )
        sign, p, q = m.groups()
        # Decimal int<->str conversions beyond this many digits raise
        # ValueError (0: no limit, or an interpreter without one).
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit and max(len(p), len(q or "")) > limit:
            raise ParseError(f"{where}: more than {limit} digits")
        try:
            return Fraction(int(sign + p), int(q or 1))
        except ZeroDivisionError:
            raise ParseError(f"{where}: zero denominator") from None
    raise ParseError(f"{where}: expected a rational, got {type(value).__name__}")


def format_rational(q):
    """Normalized string form: "p/q" with q > 0 and gcd(p, q) = 1, or "p"."""
    return str(Fraction(q))
