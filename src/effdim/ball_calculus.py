"""Formal ball calculus over finite prefixes of Cauchy names.

Points live in the unit cube [0,1]^dim with the max metric, so every
distance between rational points is an exact Fraction and the formal
inclusion / disjointness predicates below are decidable by comparison.
A space is described by a total enumeration of a dense rational set;
a name prefix is a finite run of indices into that enumeration.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from ._rat import PreconditionError, int_arg, max_dist, rat, rat_point


@dataclass(frozen=True)
class RationalPoint:
    """A point of [0,1]^dim with exact rational coordinates."""

    coords: tuple[Fraction, ...]

    def __post_init__(self):
        coords = self.coords
        # a tuple of plain Fractions is kept as it is; anything else is read
        # by rat_point, which refuses a string or a non-iterable
        if type(coords) is not tuple or not all(type(c) is Fraction for c in coords):
            coords = rat_point(coords)
            object.__setattr__(self, "coords", coords)
        if not coords:
            raise ValueError("point needs at least one coordinate")
        # a Fraction's denominator is positive, so 0 <= n/d <= 1 reads 0 <= n <= d
        if not all(0 <= c.numerator <= c.denominator for c in coords):
            raise ValueError("coordinates must lie in [0,1]")

    @property
    def dim(self) -> int:
        return len(self.coords)

    def dist(self, other: "RationalPoint") -> Fraction:
        return max_dist(self.coords, other.coords)


@dataclass(frozen=True)
class FormalBall:
    """An open max-metric ball given by rational center and radius.

    The radius may exceed the distance to the cube boundary; the ball is
    always read as a subset of the ambient unit cube.
    """

    center: RationalPoint
    radius: Fraction

    def __post_init__(self):
        object.__setattr__(self, "radius", rat(self.radius))
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    @property
    def dim(self) -> int:
        return self.center.dim

    def contains(self, p) -> bool:
        """Is the point, a RationalPoint or its coordinates, in the ball inside the unit cube?"""
        coords = rat_point(p)
        if len(coords) != self.dim:
            raise PreconditionError("point dimension differs from the ball's")
        if not all(0 <= c <= 1 for c in coords):
            return False
        return max_dist(self.center.coords, coords) < self.radius


class BallRelation(enum.Enum):
    INCLUDED_IN = "IncludedIn"
    DISJOINT = "Disjoint"
    NEITHER = "Neither"


def _dyadic_level_size(level: int, dim: int) -> int:
    return (2**level + 1) ** dim


def _dyadic_point(index: int, dim: int) -> RationalPoint:
    # Levels k = 0, 1, ... enumerate the grids {j/2^k}; indices walk the
    # levels in order, each level in row-major order of its coordinates.
    level = 0
    i = index
    while i >= _dyadic_level_size(level, dim):
        i -= _dyadic_level_size(level, dim)
        level += 1
    side = 2**level + 1
    coords = []
    for _ in range(dim):
        coords.append(Fraction(i % side, 2**level))
        i //= side
    return RationalPoint(tuple(coords))


@dataclass(frozen=True)
class SpaceDescriptor:
    """A computable metric space: [0,1]^dim plus a dense rational enumeration.

    dense_rule maps an index n to the n-th point of the dense sequence; the
    default enumerates all dyadic grid points level by level.
    """

    dim: int = 1
    dense_rule: Callable[[int], RationalPoint] | None = None

    def __post_init__(self):
        if int_arg(self.dim, "dim") < 1:
            raise ValueError("dim must be at least 1")

    def dense_point(self, index: int) -> RationalPoint:
        if index < 0:
            raise ValueError("dense index must be nonnegative")
        if self.dense_rule is not None:
            p = self.dense_rule(index)
            if p.dim != self.dim:
                raise ValueError("dense rule produced a point of wrong dimension")
            return p
        return _dyadic_point(index, self.dim)


@dataclass(frozen=True)
class NamePrefix:
    """A finite prefix of a Cauchy name: indices into the dense enumeration."""

    indices: tuple[int, ...]
    space: SpaceDescriptor = field(default_factory=SpaceDescriptor)

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(int_arg(i, "an index") for i in self.indices))
        if any(i < 0 for i in self.indices):
            raise ValueError("indices must be nonnegative")

    def __len__(self) -> int:
        return len(self.indices)

    def truncate(self, length: int) -> "NamePrefix":
        return NamePrefix(self.indices[:length], self.space)


def ball_of_prefix(prefix: NamePrefix) -> FormalBall:
    """The formal ball a nonempty prefix pins down.

    Center is the dense point named by the last index; radius is
    2^(1-len(prefix)), so one more index halves the radius.
    """
    n = len(prefix)
    if n == 0:
        raise PreconditionError("degenerate prefix")
    center = prefix.space.dense_point(prefix.indices[-1])
    radius = Fraction(2) ** (1 - n)
    return FormalBall(center, radius)


def formal_relation(a: FormalBall, b: FormalBall) -> BallRelation:
    """Decide the formal relation between two balls by exact comparison.

    IncludedIn: d(c_a, c_b) + r_a < r_b.  Disjoint: d(c_a, c_b) > r_a + r_b
    (strict, so tangent balls are Neither).  Anything else is Neither.
    """
    if a.dim != b.dim:
        raise PreconditionError("dimension mismatch")
    d = a.center.dist(b.center)
    if d + a.radius < b.radius:
        return BallRelation.INCLUDED_IN
    if d > a.radius + b.radius:
        return BallRelation.DISJOINT
    return BallRelation.NEITHER


def validate_prefix(prefix: NamePrefix) -> bool:
    """Check the Cauchy condition d(a_i, a_j) < 2^-i for all i < j in range."""
    pts = [prefix.space.dense_point(i) for i in prefix.indices]
    for i in range(len(pts)):
        bound = Fraction(1, 2**i)
        for j in range(i + 1, len(pts)):
            if pts[i].dist(pts[j]) >= bound:
                return False
    return True
