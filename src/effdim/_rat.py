"""Shared exact-rational helpers: input readers, formatting, max-metric distances.

Every public entry point reads its numbers through the three readers here:
``rat`` for rationals, ``rat_point`` for points and ``int_arg`` for ints.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

ZERO = Fraction(0)
ONE = Fraction(1)


class PreconditionError(ValueError):
    """An operation was called outside its stated preconditions."""


def rat(value) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to a plain Fraction.

    Raises ValueError for a zero denominator and for every other type,
    bools, floats and Decimals included.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, Fraction):
        return Fraction(value.numerator, value.denominator)
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator: {value!r}") from None
    raise ValueError(f"not a rational: {value!r}")


def rat_point(value) -> tuple[Fraction, ...]:
    """A RationalPoint's coordinates, or an iterable's entries read by ``rat``; no box check."""
    coords = getattr(value, "coords", value)
    if isinstance(coords, str) or not hasattr(coords, "__iter__"):
        raise ValueError(f"not a point: {value!r}")
    return tuple(c if type(c) is Fraction else rat(c) for c in coords)


def int_arg(value, name: str) -> int:
    """value, refused with PreconditionError unless it is an int and not a bool."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise PreconditionError(f"{name} must be an int")
    return value


def fmt(value: Fraction) -> str:
    """Serialize a Fraction as 'p/q' (denominator always printed)."""
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"


def parse_point(text: str) -> tuple[Fraction, ...]:
    """Parse a comma-separated rational tuple like '1/2,3/4'."""
    parts = [p for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty point")
    return tuple(rat(p) for p in parts)


def max_dist(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    """Exact distance under the max (l-infinity) metric."""
    if len(a) != len(b):
        raise ValueError("dimension mismatch")
    return max((abs(x - y) for x, y in zip(a, b)), default=ZERO)


def float12(x: float) -> str:
    """12-significant-digit float rendering used by CLI summaries."""
    return f"{x:.12g}"
