"""Exact box counting and grid-search Assouad exponents.

Counts use the occupied-grid-cell proxy: |E|_r is the number of mesh-r
cells meeting E.  That differs from the covering number by a bounded
factor, which cancels in every log-slope used here.  Symbolic
level-condition sets admit exact per-depth counts via a per-level
product, kept as running products on the descriptor, so the estimators
run on exact integers and rationals and only the final slopes are floats.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from ._rat import PreconditionError, float12, fmt, int_arg, rat, rat_point
from .fractal_spaces import BoundSeq, _running_product


@dataclass(frozen=True)
class PointCloud:
    """A finite exact point set in [0,1]^dim with optional metadata.

    Points are stored as plain coordinate tuples; RationalPoint inputs
    are unwrapped on construction.
    """

    dim: int
    points: tuple[tuple[Fraction, ...], ...]
    meta: str = ""

    def __post_init__(self):
        dim = int_arg(self.dim, "dim")
        if isinstance(self.points, str) or not hasattr(self.points, "__iter__"):
            raise ValueError(f"not a point set: {self.points!r}")
        coerced = []
        for p in self.points:
            coords = rat_point(p)
            if len(coords) != dim:
                raise ValueError("point dimension mismatch")
            if any(not 0 <= c <= 1 for c in coords):
                raise ValueError("cloud points must lie in the unit cube")
            coerced.append(coords)
        object.__setattr__(self, "points", tuple(coerced))

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class ScaleCounts:
    """Per-scale cell counts, sorted by decreasing scale.

    Validates that counts do not decrease as the mesh refines.
    """

    rows: tuple[tuple[Fraction, int], ...]

    def __post_init__(self):
        rows = tuple((rat(r), int_arg(c, "a count")) for r, c in self.rows)
        rows = tuple(sorted(rows, key=lambda rc: rc[0], reverse=True))
        object.__setattr__(self, "rows", rows)
        if any(r <= 0 for r, _ in rows):
            raise ValueError("scales must be positive")
        if any(c < 0 for _, c in rows):
            raise ValueError("counts must be nonnegative")
        for (r1, c1), (r2, c2) in zip(rows, rows[1:]):
            if r1 == r2:
                raise ValueError("duplicate scale")
            if c2 < c1:
                raise ValueError("counts must not decrease as the scale refines")

    def scales(self) -> tuple[Fraction, ...]:
        return tuple(r for r, _ in self.rows)

    def counts(self) -> tuple[int, ...]:
        return tuple(c for _, c in self.rows)


@dataclass(frozen=True)
class DimEstimate:
    """Envelope and least-squares slopes of a log-log count series."""

    lower: float
    upper: float
    lsq: float
    residual: float

    def __post_init__(self):
        if self.lower > self.upper + 1e-12:
            raise ValueError("lower envelope above upper envelope")


# --- symbolic descriptors --------------------------------------------------


@dataclass(frozen=True)
class MengerDescriptor:
    """Level-condition set in [0,1]^m: at most n interior digits per level."""

    m: int
    n: int
    z: BoundSeq = field(default_factory=lambda: BoundSeq.constant(3))

    def __post_init__(self):
        if int_arg(self.m, "m") < 1:
            raise ValueError("m must be at least 1")
        if not 0 <= int_arg(self.n, "n") <= self.m:
            raise ValueError("need 0 <= n <= m")

    def level_cell_count(self, j: int) -> int:
        """Admissible digit columns at level j: sum over k interior choices."""
        zj = self.z(j)
        return sum(
            math.comb(self.m, k) * (zj - 2) ** k * 2 ** (self.m - k)
            for k in range(min(self.n, self.m) + 1)
        )

    @cached_property
    def _counts(self) -> list[int]:
        return [1]  # cells_at_depth(k) at k, grown by _running_product

    def cells_at_depth(self, depth: int) -> int:
        return _running_product(self._counts, self.level_cell_count, depth)

    def scale(self, depth: int) -> Fraction:
        return self.z.scale(depth)

    def depth_for_scale(self, r: Fraction) -> int:
        """Smallest depth whose cells are at least as fine as r."""
        r = rat(r)
        if not 0 < r <= 1:
            raise PreconditionError("scale must lie in (0, 1]")
        need = math.ceil(1 / r)  # 1 / P_d <= r iff the int P_d reaches it
        products = self.z._products
        while products[-1] < need:
            _running_product(products, self.z, len(products))
        return bisect_left(products, need)


@dataclass(frozen=True)
class CubeDescriptor:
    """The full cube [0,1]^dim on dyadic scales; every cell is occupied."""

    dim: int

    def __post_init__(self):
        if int_arg(self.dim, "dim") < 1:
            raise ValueError("dim must be at least 1")

    def level_cell_count(self, j: int) -> int:
        return 2**self.dim

    def cells_at_depth(self, depth: int) -> int:
        return 2 ** (self.dim * depth)

    def scale(self, depth: int) -> Fraction:
        return Fraction(1, 2**depth)

    def depth_for_scale(self, r: Fraction) -> int:
        r = rat(r)
        if not 0 < r <= 1:
            raise PreconditionError("scale must lie in (0, 1]")
        return (math.ceil(1 / r) - 1).bit_length()  # least d with 2^d >= 1/r


def cantor_descriptor() -> MengerDescriptor:
    return MengerDescriptor(1, 0)


def carpet_descriptor() -> MengerDescriptor:
    return MengerDescriptor(2, 1)


def sponge_descriptor() -> MengerDescriptor:
    return MengerDescriptor(3, 1)


# --- counting --------------------------------------------------------------


def box_count(data, r: Fraction) -> int:
    """Occupied mesh-r cells of a cloud, or exact depth-cell count of a descriptor.

    Cloud cells are [i*r, (i+1)*r) per axis with the top face absorbed into the
    last cell.  For a descriptor the count is taken at the smallest depth whose
    cell width is <= r.
    """
    r = rat(r)
    if r <= 0:
        raise PreconditionError("scale must be positive")
    if isinstance(data, (MengerDescriptor, CubeDescriptor)):
        return data.cells_at_depth(data.depth_for_scale(r))
    if isinstance(data, PointCloud):
        top = int(Fraction(1) / r) if (Fraction(1) / r).denominator == 1 else None
        cells = set()
        for p in data.points:
            idx = []
            for c in p:
                i = int(c / r)
                if top is not None and i >= top:
                    i = top - 1
                idx.append(i)
            cells.add(tuple(idx))
        return len(cells)
    raise PreconditionError(
        f"box_count needs a PointCloud, MengerDescriptor or CubeDescriptor, not {type(data).__name__}"
    )


def scale_counts(data, scales: Sequence[Fraction]) -> ScaleCounts:
    return ScaleCounts(tuple((r, box_count(data, r)) for r in map(rat, scales)))


def box_dimension(counts: ScaleCounts) -> DimEstimate:
    """Envelope (min/max pairwise slope) and least-squares fit of log counts.

    Slopes are taken between all scale pairs on the log(1/r) vs log N axes.
    """
    if not isinstance(counts, ScaleCounts):
        raise PreconditionError(f"box_dimension needs a ScaleCounts, not {type(counts).__name__}")
    rows = counts.rows
    if len(rows) < 2:
        raise PreconditionError("need at least two scales")
    if any(c == 0 for _, c in rows):
        raise PreconditionError("counts must be positive for a log fit")
    # logs of the exact ints: a deep scale or a huge count has no float form
    xs = [math.log(r.denominator) - math.log(r.numerator) for r, _ in rows]
    ys = [math.log(c) for _, c in rows]
    slopes = []
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            dx = xs[j] - xs[i]
            slopes.append((ys[j] - ys[i]) / dx)
    k = len(rows)
    mean_x = sum(xs) / k
    mean_y = sum(ys) / k
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    lsq = sxy / sxx
    intercept = mean_y - lsq * mean_x
    residual = sum((y - (lsq * x + intercept)) ** 2 for x, y in zip(xs, ys))
    return DimEstimate(min(slopes), max(slopes), lsq, residual)


# --- Assouad-style exponent ------------------------------------------------


def localized_count(desc, R: Fraction, r: Fraction) -> int:
    """Max over depth-a cells of the admissible depth-b cells inside one.

    Scales snap to depths a = depth(R), b = depth(r).  The level condition is
    per-level independent, so the in-cell count is the product of the level
    counts between the two depths, uniformly over cells.
    """
    if not isinstance(desc, (MengerDescriptor, CubeDescriptor)):
        name = type(desc).__name__
        raise PreconditionError(f"localized counts need a MengerDescriptor or CubeDescriptor, not {name}")
    R, r = rat(R), rat(r)
    if not r < R:
        raise PreconditionError("need r < R in each localized pair")
    a = desc.depth_for_scale(R)
    b = desc.depth_for_scale(r)
    if b <= a:
        raise PreconditionError("scales collapse to one depth")
    return desc.cells_at_depth(b) // desc.cells_at_depth(a)


# Most grid values assouad_exponent scans.  Testing s = p/q raises a count
# to the power q, and q grows with the grid, so the work grows about as the
# square of the grid length: the sponge at step 1/1024 (3074 values) takes
# about 0.4 s, and at 1/2048 about 2.6 s.
_GRID_CAP = 4096


def assouad_exponent(
    desc,
    R_list: Sequence[Fraction],
    r_list: Sequence[Fraction],
    s_step: Fraction = Fraction(1, 64),
    c_max: Fraction = Fraction(4),
) -> Fraction:
    """Smallest grid exponent s with localized counts <= c * (R/r)^s, c <= c_max.

    Pairs are taken positionally from R_list and r_list.  The admissibility of
    a grid value is monotone in s, so the scan returns the first hit; the grid
    is bounded by the ambient dimension plus one step and may hold at most
    _GRID_CAP values.
    """
    if len(R_list) != len(r_list) or not R_list:
        raise PreconditionError("scale lists empty or misordered")
    pairs = []
    for R, r in zip(R_list, r_list):
        R, r = rat(R), rat(r)
        if not r < R:
            raise PreconditionError("scale lists empty or misordered")
        pairs.append((localized_count(desc, R, r), R / r))
    s_step = rat(s_step)
    c_max = rat(c_max)
    if s_step <= 0 or c_max < 1:
        raise PreconditionError("need positive grid step and c_max >= 1")
    ambient = desc.m if isinstance(desc, MengerDescriptor) else desc.dim
    s = Fraction(0)
    top = Fraction(ambient) + s_step
    if top / s_step >= _GRID_CAP:
        raise PreconditionError(f"the exponent grid has more than {_GRID_CAP} values")
    while s <= top:
        # count <= c_max * ratio^(p/q) iff (count/c_max)^q <= ratio^p
        ok = all(
            (Fraction(count) / c_max) ** s.denominator <= ratio**s.numerator
            for count, ratio in pairs
        )
        if ok:
            return s
        s += s_step
    raise PreconditionError("no admissible exponent on the grid")


def estimate_report(counts: ScaleCounts, est: DimEstimate) -> dict:
    """CLI-facing summary: exact rows plus ~-prefixed float slopes."""
    return {
        "rows": [{"r": fmt(r), "count": c} for r, c in counts.rows],
        "~slope_lower": float12(est.lower),
        "~slope_upper": float12(est.upper),
        "~slope_lsq": float12(est.lsq),
        "~residual": float12(est.residual),
    }
