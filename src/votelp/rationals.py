"""Exact rational arithmetic helpers.

All numeric computation in this package is exact: values are
``fractions.Fraction`` rationals in lowest terms with positive denominators.
They expose ``.numerator``/``.denominator`` and print as ``p/q`` (or ``p``
for integers), which is what the text formats rely on.
"""

from __future__ import annotations

from fractions import Fraction


def rat(numerator, denominator=None):
    """Build an exact rational from ints, strings like ``"3/4"``, or rationals."""
    if denominator is None:
        return Fraction(numerator)
    return Fraction(numerator, denominator)


ZERO = rat(0)
ONE = rat(1)


def is_integer_valued(q) -> bool:
    """True iff the rational has denominator 1 (exact test, no tolerance)."""
    return q.denominator == 1


def rat_str(q) -> str:
    """Canonical ``p/q`` (or ``p``) rendering used in reports and files."""
    return str(q)


def parse_rat(text: str):
    """Parse ``p`` or ``p/q`` text into an exact rational."""
    return rat(Fraction(text.strip()))
