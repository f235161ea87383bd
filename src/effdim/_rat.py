"""Shared exact-rational helpers: parsing, formatting, max-metric distances."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

ZERO = Fraction(0)
ONE = Fraction(1)


def rat(value) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to Fraction.

    Raises ValueError for a zero denominator and for every other type,
    bools and floats included.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator: {value!r}") from None
    raise ValueError(f"not a rational: {value!r}")


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
