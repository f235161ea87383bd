"""Digit-stream models of Menger-style compacta and Noebeling-style sets.

A bound sequence z picks a variable base z_0, z_1, ... (each >= 3); a
tuple of digit streams then names a point of [0,1]^m.  The level
condition `at most n coordinates carry an interior digit at level j`
carves out the Menger-type subset: interior means the digit is neither
0 nor z_j - 1.  Membership of an exact rational tuple is decided over
all admissible digit expansions of the same reals, so values with two
expansions (terminating ones) get the benefit of either reading.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Sequence

from ._rat import PreconditionError, int_arg, rat, rat_point


@dataclass(frozen=True)
class BoundSeq:
    """A base schedule j -> z_j with every z_j >= 3.

    kind is one of 'constant', 'affine' (z_j = j + offset) or 'table'
    (finite table followed by a constant tail).
    """

    kind: str
    value: int = 0
    table: tuple[int, ...] = ()
    tail: int = 3

    def __post_init__(self):
        object.__setattr__(self, "value", int_arg(self.value, "value"))
        object.__setattr__(self, "table", tuple(int_arg(v, "a table value") for v in self.table))
        object.__setattr__(self, "tail", int_arg(self.tail, "tail"))
        if self.kind == "affine":
            if self.value < 3:
                raise ValueError("affine bound sequence needs offset >= 3")
        elif self.kind in ("constant", "table"):
            values = (self.value,) if self.kind == "constant" else (*self.table, self.tail)
            if min(values) < 3:
                raise ValueError("bound sequence values must be at least 3")
        else:
            raise ValueError(f"unknown bound sequence kind {self.kind!r}")

    @staticmethod
    def constant(z: int) -> "BoundSeq":
        return BoundSeq("constant", value=int_arg(z, "z"))

    @staticmethod
    def affine(offset: int) -> "BoundSeq":
        return BoundSeq("affine", value=int_arg(offset, "offset"))

    @staticmethod
    def from_table(values: Sequence[int], tail: int = 3) -> "BoundSeq":
        return BoundSeq("table", table=values, tail=tail)

    def __call__(self, j: int) -> int:
        if j < 0:
            raise ValueError("level must be nonnegative")
        if self.kind == "constant":
            return self.value
        if self.kind == "affine":
            return j + self.value
        return self.table[j] if j < len(self.table) else self.tail

    def is_constant(self) -> bool:
        return self.kind == "constant" or (self.kind == "table" and not self.table)

    @cached_property
    def _products(self) -> list[int]:
        return [1]  # z_0 * ... * z_{k-1} at k, grown by _running_product

    def scale(self, depth: int) -> Fraction:
        """Width of a depth-k cell: 1 / (z_0 * ... * z_{k-1})."""
        return Fraction(1, _running_product(self._products, self, depth))


def _running_product(products: list[int], factor: Callable[[int], int], depth: int) -> int:
    """factor(0) * ... * factor(depth - 1): products[k] holds the first k, grown once each."""
    if depth < 0:
        raise ValueError(f"depth {depth} is negative")
    for j in range(len(products) - 1, depth):
        products.append(products[j] * factor(j))
    return products[depth]


@dataclass(frozen=True)
class DigitMatrix:
    """Finite digit data for an m-tuple: rows[i][j] is coordinate i, level j."""

    rows: tuple[tuple[int, ...], ...]
    z: BoundSeq

    def __post_init__(self):
        rows = tuple(tuple(int_arg(d, "a digit") for d in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        if not rows:
            raise ValueError("digit matrix needs at least one row")
        depth = len(rows[0])
        if any(len(r) != depth for r in rows):
            raise ValueError("all rows must share one depth")
        for r in rows:
            for j, d in enumerate(r):
                if not 0 <= d < self.z(j):
                    raise ValueError(f"digit {d} out of range at level {j}")

    @property
    def m(self) -> int:
        return len(self.rows)

    @property
    def depth(self) -> int:
        return len(self.rows[0])

    def values(self) -> tuple[Fraction, ...]:
        """Lower corner of the cell the matrix pins down."""
        return tuple(z_value(row, self.z) for row in self.rows)

    def cell_width(self) -> Fraction:
        return self.z.scale(self.depth)


@dataclass(frozen=True)
class MembershipVerdict:
    """Outcome of a membership test; level witnesses an Out verdict."""

    status: str
    level: int | None = None

    def __post_init__(self):
        if self.status not in ("In", "Out", "Unknown"):
            raise ValueError("status must be In, Out or Unknown")


def z_value(digits: Sequence[int], z: BoundSeq) -> Fraction:
    """Value of a digit string: sum of digit_j / (z_0 * ... * z_j)."""
    num = 0
    for j, d in enumerate(digits):
        zj = z(j)
        if not 0 <= int_arg(d, "a digit") < zj:
            raise ValueError(f"digit {d} out of range at level {j}")
        num = num * zj + d
    return Fraction(num, _running_product(z._products, z, len(digits)))


def _interior(d: int, zj: int) -> bool:
    return d not in (0, zj - 1)


# --- exact digit expansions of rationals ----------------------------------

# An expansion is (prefix, tail) where tail is one of:
#   ("zeros",)          all-zero continuation (terminating value)
#   ("maxes",)          all z_j - 1 continuation
#   ("cycle", digits)   periodic continuation, constant base only
#   ("unknown",)        not determined past the prefix

_EXPANSION_HORIZON = 512


def _greedy_expansion(x: Fraction, z: BoundSeq, horizon: int):
    """Greedy digits of x with remainder tracking; returns (prefix, tail)."""
    digits: list[int] = []
    rem = x
    seen: dict[Fraction, int] = {}
    constant = z.is_constant()
    for j in range(horizon):
        if rem == 0:
            return tuple(digits), ("zeros",)
        if constant:
            if rem in seen:
                start = seen[rem]
                return tuple(digits[:start]), ("cycle", tuple(digits[start:]))
            seen[rem] = j
        zj = z(j)
        d = min(int(rem * zj), zj - 1)
        digits.append(d)
        rem = rem * zj - d
    return tuple(digits), ("unknown",)


def _alternative_expansion(prefix: tuple[int, ...]):
    """Low-tailed twin of a terminating expansion: drop 1, then max digits."""
    if not any(prefix):
        return None
    last = max(j for j, d in enumerate(prefix) if d)
    altered = prefix[:last] + (prefix[last] - 1,)
    return altered, ("maxes",)


def expansions_of(x: Fraction, z: BoundSeq, horizon: int = _EXPANSION_HORIZON):
    """All admissible digit expansions of x in [0,1] (one or two)."""
    x = rat(x)
    if not 0 <= x <= 1:
        raise PreconditionError("value outside [0,1]")
    out = []
    prefix, tail = _greedy_expansion(x, z, int_arg(horizon, "horizon"))
    out.append((prefix, tail))
    if tail == ("zeros",):
        alt = _alternative_expansion(prefix)
        if alt is not None:
            out.append(alt)
    return out


def _digit_at(expansion, j: int, z: BoundSeq) -> int | None:
    prefix, tail = expansion
    if j < len(prefix):
        return prefix[j]
    if tail[0] == "zeros":
        return 0
    if tail[0] == "maxes":
        return z(j) - 1
    if tail[0] == "cycle":
        cyc = tail[1]
        return cyc[(j - len(prefix)) % len(cyc)]
    return None


def _combo_check(expansions, n: int, z: BoundSeq):
    """Level condition for one expansion choice per coordinate.

    Returns ('pass', None), ('fail', level) or ('unknown', horizon).
    Tails are either eventually extreme (zeros / maxes contribute no
    interior digits) or periodic, so a finite horizon decides all levels.
    """
    max_pre = max(len(pre) for pre, _ in expansions)
    cycle_lens = [len(tail[1]) for _, tail in expansions if tail[0] == "cycle"]
    has_unknown = any(tail[0] == "unknown" for _, tail in expansions)
    period = math.lcm(*cycle_lens) if cycle_lens else 1
    horizon = max_pre + period
    for j in range(horizon):
        count = 0
        for e in expansions:
            d = _digit_at(e, j, z)
            if d is None:
                return ("unknown", j)
            if _interior(d, z(j)):
                count += 1
        if count > n:
            return ("fail", j)
    if has_unknown:
        return ("unknown", horizon)
    return ("pass", None)


def menger_membership_point(x: Sequence[Fraction], n: int, z: BoundSeq) -> MembershipVerdict:
    """Decide membership of an exact rational tuple in the level-condition set.

    Existential over expansions: the tuple is In when some choice of digit
    expansions (canonical or low-tailed twin, per coordinate) satisfies the
    level condition everywhere.  Decidable for constant bound sequences;
    varying bases may return Unknown when a coordinate has a non-terminating
    expansion.
    """
    if int_arg(n, "n") < 0:
        raise PreconditionError("n must be nonnegative")
    per_coord = [expansions_of(c, z) for c in rat_point(x)]
    fail_levels = []
    saw_unknown = False
    for combo in itertools.product(*per_coord):
        status, level = _combo_check(combo, n, z)
        if status == "pass":
            return MembershipVerdict("In")
        if status == "fail":
            fail_levels.append(level)
        else:
            saw_unknown = True
    if saw_unknown:
        return MembershipVerdict("Unknown")
    return MembershipVerdict("Out", level=min(fail_levels))


def menger_membership(data, n: int, z: BoundSeq | None = None) -> MembershipVerdict:
    """Membership test for digit data or an exact rational tuple.

    A DigitMatrix is read as a committed expansion prefix: a level with more
    than n interior digits certifies Out at that level, and otherwise the
    finite depth cannot certify In, so the verdict is Unknown.  A tuple of
    Fractions gets the full expansion analysis of menger_membership_point.
    """
    if isinstance(data, DigitMatrix):
        if int_arg(n, "n") < 0:
            raise PreconditionError("n must be nonnegative")
        for j in range(data.depth):
            zj = data.z(j)
            count = sum(1 for row in data.rows if _interior(row[j], zj))
            if count > n:
                return MembershipVerdict("Out", level=j)
        return MembershipVerdict("Unknown", level=data.depth)
    if z is None:
        raise PreconditionError("a bound sequence is required for point input")
    return menger_membership_point(data, n, z)


# --- Noebeling-style membership -------------------------------------------


@dataclass(frozen=True)
class Coord:
    """One coordinate with a rationality tag: rational / irrational / unknown."""

    kind: str
    value: Fraction | None = None

    def __post_init__(self):
        if self.kind not in ("rational", "irrational", "unknown"):
            raise ValueError("kind must be rational, irrational or unknown")
        if self.kind == "rational":
            if self.value is None:
                raise ValueError("rational coordinate needs a value")
            object.__setattr__(self, "value", rat(self.value))
        elif self.value is not None:
            raise ValueError(f"{self.kind} coordinate holds no value")

    @staticmethod
    def rational(value) -> "Coord":
        return Coord("rational", value)

    @staticmethod
    def irrational() -> "Coord":
        return Coord("irrational")

    @staticmethod
    def unknown() -> "Coord":
        return Coord("unknown")


def noebeling_membership(coords: Sequence[Coord], n: int) -> MembershipVerdict:
    """At most n rational coordinates: count tags, Unknown when tags cannot decide."""
    if int_arg(n, "n") < 0:
        raise PreconditionError("n must be nonnegative")
    rational = sum(1 for c in coords if c.kind == "rational")
    unknown = sum(1 for c in coords if c.kind == "unknown")
    if rational > n:
        return MembershipVerdict("Out")
    if rational + unknown <= n:
        return MembershipVerdict("In")
    return MembershipVerdict("Unknown")


# --- extrema blocks and the generic point stream ---------------------------


_BLOCK_CAP = 5  # the largest n: 3^11 tuples are enumerated for it, 3^13 for n = 6


def extrema_combinatorics(n: int) -> tuple[int, tuple[str, ...]]:
    """Count and enumerate ternary blocks of length 2n+1 with at most n ones.

    The count has the closed form sum_{k<=n} C(2n+1, k) * 2^(2n-k+1); the
    blocks come back in lexicographic order.  Enumeration walks all
    3^(2n+1) ternary tuples, so n past _BLOCK_CAP is refused before any
    is built.
    """
    if int_arg(n, "n") < 0:
        raise PreconditionError("n must be nonnegative")
    if n > _BLOCK_CAP:
        raise PreconditionError(f"n = {n} is past the cap of {_BLOCK_CAP}")
    width = 2 * n + 1
    count = sum(math.comb(width, k) * 2 ** (width - k) for k in range(n + 1))
    blocks = tuple(
        "".join(str(d) for d in digits)
        for digits in itertools.product((0, 1, 2), repeat=width)
        if sum(1 for d in digits if d == 1) <= n
    )
    if len(blocks) != count:
        raise AssertionError("block enumeration disagrees with the closed form")
    return count, blocks


def generic_point_stream(word: Sequence[int], n: int) -> DigitMatrix:
    """Digit matrix of the generic point: column t is the block named by word[t].

    Rows are the 2n+1 coordinates; every column has at most n ones, so the
    level condition holds at every finite depth by construction.
    """
    count, blocks = extrema_combinatorics(n)
    word = tuple(int_arg(t, "a word letter") for t in word)
    if not word:
        raise PreconditionError("word must be nonempty")
    if any(not 0 <= t < count for t in word):
        raise PreconditionError(f"word letters must lie in [0, {count})")
    width = 2 * n + 1
    rows = tuple(
        tuple(int(blocks[t][i]) for t in word)
        for i in range(width)
    )
    return DigitMatrix(rows, BoundSeq.constant(3))
