"""Finite open covers, nerves, and kappa-mappings with exact arithmetic.

Sets here are unions of formal balls read inside the unit box: under the
max metric a ball is an open axis cube, so every construction reduces to
rational box arithmetic.  The workhorse is the cell decomposition of a
box induced by the facets of finitely many cubes: membership in each
cube is constant on every cell, so coverage, multiplicity, intersection
and complement-distance queries are all decided exactly by inspecting
one representative per cell.

One primitive, ``_axis_cells``, cuts an axis of a box at the cube
facets inside it; ``_axis_runs`` cuts by the cubes that meet the box
alone, since the others hold none of its points.  On each axis a cube
holds a contiguous run of the sorted axis cells, so membership is read
off runs, on ints: as per-axis bitsets of the cubes holding each axis
cell, ANDed across axes, or as one bitboard per cube over all cells.

Every coordinate is some k/D, so ``_grid`` puts the boxes and cubes of
one query on the common grid g = 2·lcm(all D), once per query: a
carrier's mask set, an open set's complement, a family's mesh.
Fractions come back only where a caller reads them: distances,
diameters and margins.

Carriers come in two kinds, and the queries read both as closed boxes.  A
symbolic carrier is the depth-d approximant of a digit-defined
compactum, a finite union of closed grid cells.  A point cloud is the
degenerate case: each distinct point p is the zero-width box [p, p],
whose one cell is p itself.

A cover's derived datum is its mask set: the distinct sets of members
holding some carrier point.  Coverage (no empty mask), multiplicity (the
largest mask) and the nerve (the masks' subsets) all read it, so
``FiniteCover`` scans its carrier at most once.  Refinement asks the
same questions of each candidate family's mask set, and finds every
parent from one joint mask set of the family and the cover.  Which of a
family's balls meet the carrier needs no query: it follows from how the
ladder's cells are built (``_ladder``).  So do the symbolic families
that can never cover, which the ladder does not build: an empty family
keeps each one's place in the budget, or the ladder ends before them.

The mask set depends on the carrier only as a point set, and so do
diameters.  Those queries read the carrier's merged boxes
(``_merged_cells``): face-adjacent cells united axis by axis, once per
carrier, so the depth-4 interval is one box, not 81.  Within a box a
mask set needs no cells: ``_box_masks`` ANDs each axis's distinct
bitsets over their product.  Only ``shrink_cover`` reads cells of the
carrier's own boxes: its margin is a minimum over their representatives,
the products of ``_axis_cells``' axis representatives with every cube of
the cover cutting; its coverage check is the open family's mask set
alone.

An open set's derived datum is its complement: the closures of the
maximal unit-box cells that none of its cubes holds, as ints on the
set's grid, built on one int bitboard with a bit per cell of the set's
unit-box arrangement (``_uncovered_closures``), up to ``_CELL_CAP``
cells.  Kappa weights and shrinking margins are distances to it, so
each set, a single ball too, builds it at most once, however many
points are weighed.  A distance is measured in ints too: the point goes
on its own denominator q, and a gap to a bound on grid g is compared on
q·g.  General position tests affine ranks by fraction-free elimination
over ints, on one grid per call.
"""

from __future__ import annotations

import itertools
import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from typing import Iterable, Iterator, Sequence

from ._lp import affine_gap
from ._rat import ZERO, ONE, PreconditionError, fmt, int_arg, max_dist, rat, rat_point
from .ball_calculus import FormalBall, RationalPoint
from .dimension_estimators import MengerDescriptor, PointCloud
from .fractal_spaces import BoundSeq, z_value

Bounds = tuple[tuple[Fraction, Fraction], ...]
IntBounds = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Box:
    """Closed axis-aligned box given by per-axis [lo, hi] bounds."""

    bounds: Bounds

    def __post_init__(self) -> None:
        bounds = self.bounds
        try:
            if isinstance(bounds, str):
                raise TypeError
            bounds = tuple((rat(lo), rat(hi)) for lo, hi in bounds)
        except TypeError:
            raise ValueError(f"not a box: {self.bounds!r}") from None
        object.__setattr__(self, "bounds", bounds)
        for lo, hi in self.bounds:
            if lo > hi:
                raise PreconditionError("box has an empty axis interval")

    @property
    def dim(self) -> int:
        return len(self.bounds)

    def contains(self, coords: Sequence[Fraction]) -> bool:
        if len(coords) != self.dim:
            raise PreconditionError("point dimension differs from the box's")
        return all(lo <= c <= hi for (lo, hi), c in zip(self.bounds, coords))


def _unit_bounds(dim: int) -> Bounds:
    return tuple((ZERO, ONE) for _ in range(dim))


def ball(center: Sequence, radius) -> FormalBall:
    return FormalBall(RationalPoint(rat_point(center)), radius)


def _cube(b: FormalBall) -> Bounds:
    return tuple((c - b.radius, c + b.radius) for c in b.center.coords)


@dataclass(frozen=True)
class OpenSet:
    """Union of formal balls, read relative to the unit box.

    The set is (union of open cubes) intersected with [0,1]^dim, hence
    open in the subspace topology even where a cube pokes past the box.
    """

    balls: tuple[FormalBall, ...]
    _cubes: tuple[Bounds, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.balls:
            raise PreconditionError("an open set needs at least one ball")
        dims = {b.center.dim for b in self.balls}
        if len(dims) != 1:
            raise PreconditionError("balls of one set must share a dimension")
        object.__setattr__(self, "_cubes", tuple(_cube(b) for b in self.balls))

    @property
    def dim(self) -> int:
        return self.balls[0].center.dim

    def cubes(self) -> tuple[Bounds, ...]:
        return self._cubes

    def contains(self, coords: Sequence[Fraction]) -> bool:
        if len(coords) != self.dim:
            raise PreconditionError("point dimension differs from the set's")
        if not all(ZERO <= c <= ONE for c in coords):
            return False
        return any(
            all(lo < c < hi for (lo, hi), c in zip(cube, coords))
            for cube in self.cubes()
        )

    @cached_property
    def _complement(self) -> tuple[int, tuple[IntBounds, ...]]:
        return _uncovered_closures(self)


def open_set(*balls_: FormalBall) -> OpenSet:
    return OpenSet(tuple(balls_))


def interval_set(lo, hi) -> OpenSet:
    """The open interval (lo, hi) read inside [0,1], as a one-ball set."""
    lo, hi = rat(lo), rat(hi)
    return open_set(ball(((lo + hi) / 2,), (hi - lo) / 2))


# --- carriers --------------------------------------------------------------


@dataclass(frozen=True)
class SymbolicCarrier:
    """Depth-d approximant of a digit-defined compactum.

    The region is the union of the admissible closed grid cells at the
    stated depth; the admissible cells at shallower depths supply the
    refinement search with its width ladder.
    """

    descriptor: MengerDescriptor
    depth: int

    def __post_init__(self) -> None:
        if int_arg(self.depth, "depth") < 0:
            raise PreconditionError("carrier depth must be nonnegative")

    @property
    def dim(self) -> int:
        return self.descriptor.m

    def resolution(self) -> Fraction:
        return self.descriptor.scale(self.depth)

    def width_at(self, k: int) -> Fraction:
        return self.descriptor.scale(k)

    def cells_at(self, k: int) -> tuple[Box, ...]:
        return _symbolic_cells(self.descriptor, k)

    def boxes(self) -> tuple[Box, ...]:
        return self.cells_at(self.depth)


@lru_cache(maxsize=None)
def _symbolic_cells(desc: MengerDescriptor, depth: int) -> tuple[Box, ...]:
    m, n = desc.m, desc.n
    per_level: list[list[tuple[int, ...]]] = []
    for j in range(depth):
        zj = desc.z(j)
        cols = [
            col
            for col in itertools.product(range(zj), repeat=m)
            if sum(1 for d in col if 0 < d < zj - 1) <= n
        ]
        per_level.append(cols)
    width = desc.scale(depth)
    out = []
    for combo in itertools.product(*per_level):
        lows = [z_value([col[i] for col in combo], desc.z) for i in range(m)]
        out.append(Box(tuple((lo, lo + width) for lo in lows)))
    return tuple(out)


@lru_cache(maxsize=None)
def _merged_cells(desc: MengerDescriptor, depth: int) -> tuple[Bounds, ...]:
    """The depth cells' union as closed boxes with disjoint interiors.

    Two boxes that agree on every axis but one, and touch on it (one's hi
    is the other's lo), unite into one box.  Merging such runs axis by
    axis until none is left keeps the point set, so every question about
    the carrier as a point set reads these boxes instead of the cells:
    the depth-4 interval's 81 cells are one box.
    """
    boxes = [b.bounds for b in _symbolic_cells(desc, depth)]
    changed = True
    while changed:
        changed = False
        for a in range(desc.m):
            rows: dict[Bounds, list[tuple[Fraction, Fraction]]] = {}
            for b in boxes:
                rows.setdefault(b[:a] + b[a + 1 :], []).append(b[a])
            merged = []
            for rest, spans in rows.items():
                spans.sort()
                runs = [spans[0]]
                for lo, hi in spans[1:]:
                    if lo == runs[-1][1]:
                        runs[-1] = (runs[-1][0], hi)
                    else:
                        runs.append((lo, hi))
                merged.extend(rest[:a] + (run,) + rest[a:] for run in runs)
            changed |= len(merged) < len(boxes)
            boxes = merged
    return tuple(boxes)


def interval_carrier(depth: int) -> SymbolicCarrier:
    """The unit interval presented as a dyadic grid of the given depth."""
    return SymbolicCarrier(MengerDescriptor(1, 1, BoundSeq.constant(3)), depth)


def cantor_carrier(depth: int) -> SymbolicCarrier:
    return SymbolicCarrier(MengerDescriptor(1, 0, BoundSeq.constant(3)), depth)


Carrier = PointCloud | SymbolicCarrier


# --- cell decompositions ---------------------------------------------------


def _grid(
    boxes: Sequence[Bounds], groups: Sequence[Sequence[Bounds]]
) -> tuple[int, list[IntBounds], list[list[IntBounds]]]:
    """The boxes and the groups' cubes as ints on their common grid g.

    Every coordinate is some k/D, so on g = 2·lcm(all D) it is the even
    int k·g/D, and the midpoint of two such is an int too.  Order and
    membership are those of the Fractions; dividing by g gives them back.
    """
    dens = {v.denominator for b in itertools.chain(boxes, *groups) for pair in b for v in pair}
    g = 2 * math.lcm(*dens)
    mult = {d: g // d for d in dens}

    def scale(b: Bounds) -> IntBounds:
        return tuple(
            (lo.numerator * mult[lo.denominator], hi.numerator * mult[hi.denominator]) for lo, hi in b
        )

    return g, [scale(b) for b in boxes], [[scale(c) for c in cubes] for cubes in groups]


def _axis_cells(lo: int, hi: int, cuts: Iterable[int]):
    vals = sorted({lo, hi} | {c for c in cuts if lo < c < hi})
    out = []
    for t, v in enumerate(vals):
        out.append((v, v, v))
        if t + 1 < len(vals):
            nxt = vals[t + 1]
            out.append(((v + nxt) >> 1, v, nxt))
    return out


def _axis_runs(
    lo: int, hi: int, spans: Sequence[tuple[int, int]]
) -> tuple[list[tuple[int, int, int]], list[tuple[int, int]]]:
    """The cells of the axis [lo, hi] cut by the spans (``_axis_cells``), and
    per span the index run [s, e) of the cells its open interval holds."""
    cells = _axis_cells(lo, hi, [v for span in spans for v in span])
    reps = [rep for rep, _, _ in cells]
    return cells, [(bisect_right(reps, slo), bisect_left(reps, shi)) for slo, shi in spans]


def _axis_bits(lo: int, hi: int, spans: Sequence[tuple[int, int]]) -> set[int]:
    """The distinct bitsets of the axis cells, bit j set when span j holds the cell."""
    cells, runs = _axis_runs(lo, hi, spans)
    # flipping bit j at both ends of span j's run makes the running XOR the bitset
    flips = [0] * (len(cells) + 1)
    for j, (s, e) in enumerate(runs):
        flips[s] ^= 1 << j
        flips[e] ^= 1 << j
    return set(itertools.accumulate(flips[:-1], operator.xor))


def _meets(box: IntBounds, cube: IntBounds) -> bool:
    """Does the open cube share a point with the closed box?"""
    for (blo, bhi), (clo, chi) in zip(box, cube):
        if clo >= bhi or chi <= blo:
            return False
    return True


def _local(box: IntBounds, groups: Sequence[Sequence[IntBounds]]) -> list[tuple[int, IntBounds]]:
    """(group index, cube) per cube meeting the box."""
    return [(g, cube) for g, cubes in enumerate(groups) for cube in cubes if _meets(box, cube)]


def _mask(bits: int, local: Sequence[tuple[int, IntBounds]]) -> frozenset[int]:
    """The groups of the local cubes whose bits are set."""
    return frozenset(g for j, (g, _) in enumerate(local) if bits >> j & 1)


def _box_masks(box: IntBounds, groups: Sequence[Sequence[IntBounds]]) -> set[frozenset[int]]:
    """The distinct masks of the box's cells, the groups whose cubes hold
    each cell, without building the cells.

    A cell's bitset is the AND of one axis cell's bitset per axis, and
    every choice of axis cells is a cell, so the masks are the ANDs over
    the product of each axis's distinct bitsets.  Folding axis by axis
    keeps only the distinct partial ANDs.
    """
    local = _local(box, groups)
    acc = {-1}
    for a, (lo, hi) in enumerate(box):
        axis = _axis_bits(lo, hi, [c[a] for _, c in local])
        acc = {x & y for x in acc for y in axis}
    return {_mask(bits, local) for bits in acc}


def _carrier_boxes(carrier: Carrier) -> tuple[Bounds, ...]:
    """The carrier as closed boxes' bounds, one per cell or distinct point.

    A cloud point p is [p, p].  Cloud points lie in the unit box, so a
    member contains p exactly when one of its open cubes meets [p, p]
    (``_meets``), a box whose single cell is p itself.
    """
    if isinstance(carrier, PointCloud):
        return tuple(dict.fromkeys(tuple((c, c) for c in p) for p in carrier.points))
    return tuple(b.bounds for b in carrier.boxes())


def _carrier_region(carrier: Carrier) -> tuple[Bounds, ...]:
    """The carrier as a point set: its merged cells, or one box per distinct point.

    For the queries that depend on the point set alone: mask sets and
    diameters.
    """
    if isinstance(carrier, SymbolicCarrier):
        return _merged_cells(carrier.descriptor, carrier.depth)
    return _carrier_boxes(carrier)


def _carrier_masks(members: Sequence[OpenSet], carrier: Carrier) -> frozenset[frozenset[int]]:
    """Distinct membership patterns realized somewhere on the carrier:
    ``_box_masks`` over every box of the carrier region, on one grid."""
    _, boxes, groups = _grid(_carrier_region(carrier), [m.cubes() for m in members])
    return frozenset(mask for box in boxes for mask in _box_masks(box, groups))


@dataclass(frozen=True)
class FiniteCover:
    """Finitely many ball-union sets covering a carrier exactly.

    Construction verifies coverage unless validate=False is passed; the
    escape hatch exists so that error paths of the cover operations can
    be exercised on deliberately broken families.
    """

    members: tuple[OpenSet, ...]
    carrier: Carrier
    parents: tuple[int, ...] | None = None
    validate: bool = True

    def __post_init__(self) -> None:
        if not self.members:
            raise PreconditionError("empty cover")
        dims = {m.dim for m in self.members} | {self.carrier.dim}
        if len(dims) != 1:
            raise PreconditionError("cover members and carrier disagree on dimension")
        if self.validate and frozenset() in self._masks:
            raise PreconditionError("carrier point not covered by any member")

    @property
    def dim(self) -> int:
        return self.carrier.dim

    @cached_property
    def _masks(self) -> frozenset[frozenset[int]]:
        return _carrier_masks(self.members, self.carrier)


def _cover_arg(U, name: str) -> FiniteCover:
    """U, refused with PreconditionError unless it is a FiniteCover."""
    if not isinstance(U, FiniteCover):
        raise PreconditionError(f"{name} needs a FiniteCover, not {type(U).__name__}")
    return U


# --- diameters and complements ---------------------------------------------


def _pieces_within(cubes: Sequence[IntBounds], region: Sequence[IntBounds]) -> list[IntBounds]:
    """Closures of the nonempty (cube ∩ region-box) fragments, on one grid.

    A fragment's bounds are only built where the open cube meets the
    closed box (``_meets``).  Radii are positive, so the fragment
    spans a positive length on each axis of positive width, and is the
    axis value itself on a zero-width axis.
    """
    return [
        tuple((max(blo, clo), min(bhi, chi)) for (blo, bhi), (clo, chi) in zip(box, cube))
        for box in region
        for cube in cubes
        if _meets(box, cube)
    ]


def _diam_within(cubes: Sequence[IntBounds], region: Sequence[IntBounds]) -> int:
    """Max-metric diameter of the cubes' union inside the region; 0 when they miss.

    The largest pairwise distance under the max metric is the largest
    per-axis span: highest upper bound minus lowest lower bound.
    """
    pieces = _pieces_within(cubes, region)
    if not pieces:
        return 0
    return max(
        max(hi for _, hi in axis) - min(lo for lo, _ in axis) for axis in zip(*pieces)
    )


def _mesh(members: Sequence[OpenSet], carrier: Carrier) -> Fraction:
    """Largest member diameter inside the carrier, all on the family's grid.

    A piece is the closure of cube ∩ box, and the union of the pieces
    over the boxes is the closure of cube ∩ carrier, so the merged boxes
    give the cells' spans.
    """
    g, region, groups = _grid(_carrier_region(carrier), [m.cubes() for m in members])
    return Fraction(max(_diam_within(cubes, region) for cubes in groups), g)


def cover_mesh(U: FiniteCover) -> Fraction:
    """Largest member diameter measured inside the carrier region."""
    U = _cover_arg(U, "cover_mesh")
    return _mesh(U.members, U.carrier)


# Most cells an open set's complement is built over, a bit each (512 KB): with
# all faces distinct and inside the box, 512 balls pass it in 2-D, 40 in 3-D, 3 in 6-D.
_CELL_CAP = 2**22


def _repunit(st: int, n: int) -> int:
    """n one bits, st apart: times a board below bit st, n copies of it."""
    return ((1 << st * n) - 1) // ((1 << st) - 1)


def _uncovered_closures(s: OpenSet) -> tuple[int, tuple[IntBounds, ...]]:
    """The set's grid g, and on it the closures of the maximal unit-box
    cells that no cube of s holds.

    The cells of the unit box cut by the cubes meeting it are the bits of
    one int, axis 0 fastest: axis cell i on axis a is bit i·st, where
    the stride st is the product of the earlier axes' cell counts.  A
    cube holds a run of each axis's cells, so its board is a product of
    runs, one repunit per axis.

    The uncovered part of the unit box is closed, so each facet of an
    uncovered cell is uncovered too and lies in that cell's closure: a
    facet pins an interval axis (odd index) to an end, the cell st to
    either side.  Dropping every such facet keeps the union: what is
    left are the cells with no uncovered immediate coface, and each
    other uncovered closure lies in one of theirs.  Only their bits are
    read back into closures.
    """
    g, _, (cubes,) = _grid([_unit_bounds(s.dim)], [s.cubes()])
    local = [cube for _, cube in _local(((0, g),) * s.dim, [cubes])]
    axes = [_axis_runs(0, g, [c[a] for c in local]) for a in range(s.dim)]
    *strides, n = itertools.accumulate([len(c) for c, _ in axes], operator.mul, initial=1)
    if n > _CELL_CAP:
        raise PreconditionError(f"open set's arrangement has more than {_CELL_CAP} cells")
    covered = 0
    for cube_runs in zip(*(runs for _, runs in axes)):
        board = 1
        for (lo, hi), st in zip(cube_runs, strides):
            board = board * _repunit(st, hi - lo) << lo * st
        covered |= board
    uncovered = covered ^ ((1 << n) - 1)
    dominated = 0
    for (cells, _), st in zip(axes, strides):
        # the cells at an odd index on this axis: st bits at each odd multiple of st
        period = st * len(cells)
        odd = (((1 << st) - 1) << st) * _repunit(2 * st, len(cells) // 2)
        inner = uncovered & odd * _repunit(period, n // period)
        dominated |= inner << st | inner >> st
    bits = bin(uncovered & ~dominated)[:1:-1]
    closures = []
    k = bits.find("1")
    while k >= 0:
        closures.append(
            tuple(cells[k // st % len(cells)][1:] for (cells, _), st in zip(axes, strides))
        )
        k = bits.find("1", k + 1)
    return g, tuple(closures)


def _on_lcm(rows: Sequence[Sequence[Fraction]], q: int = 1) -> tuple[list[list[int]], int]:
    """The rows as ints over the lcm of q and all their denominators, and that lcm."""
    q = reduce(math.lcm, (c.denominator for row in rows for c in row), q)
    return [[c.numerator * (q // c.denominator) for c in row] for row in rows], q


def _depth(xs: Sequence[int], q: int, s: OpenSet) -> int | None:
    """complement_distance of the point xs/q, as its numerator over q·g.

    g is the grid of the set's cached ``_complement``, so the point is
    x·g and a bound v is v·q on the grid q·g, and every comparison is of
    ints.  The max-metric gap to a closure is its largest per-axis gap.
    """
    g, closures = s._complement
    ys = [x * g for x in xs]
    best = None
    for c in closures:
        gap = 0
        for (lo, hi), y in zip(c, ys):
            # gap = max(gap, lo·q − y, y − hi·q); lo <= hi, so at most
            # one of the two is positive
            d = lo * q - y
            if d > gap:
                gap = d
            else:
                d = y - hi * q
                if d > gap:
                    gap = d
        if best is None or gap < best:
            best = gap
    return best


def complement_distance(coords: Sequence[Fraction], s: OpenSet):
    """Exact distance from a point to the unit box minus the set; None if empty.

    The complement of a cube union in the unit box is the union of the
    closures of the arrangement cells missed by every cube, so the
    minimum of the exact point-to-cell distances is the exact distance.
    Only maximal closures are kept, as the set's cached ``_complement``,
    read off one bitboard of the arrangement once per set: a cell with
    an uncovered immediate coface (one zero-width axis widened to an
    adjacent interval) lies in that coface's closure, which is at least
    as near.  Every set, one ball or many, is measured this way, so a
    point outside the unit box gets the same distance however the set's
    balls are listed.  The point is put on q = lcm of its denominators
    and measured in ints (``_depth``); one Fraction is built, for the
    result.  A set whose arrangement passes ``_CELL_CAP`` cells is
    refused with PreconditionError.
    """
    coords = rat_point(coords)
    if len(coords) != s.dim:
        raise PreconditionError("point dimension differs from the set's")
    (xs,), q = _on_lcm([coords])
    d = _depth(xs, q, s)
    return None if d is None else Fraction(d, q * s._complement[0])


# --- cover operations ------------------------------------------------------


def cover_multiplicity(U: FiniteCover) -> int:
    """Largest number of members sharing a carrier point."""
    return max(len(mask) for mask in _cover_arg(U, "cover_multiplicity")._masks)


def nerve_of(U: FiniteCover) -> "Nerve":
    """Faces are exactly the subfamilies meeting in a carrier point."""
    faces: set[frozenset[int]] = set()
    for mask in _cover_arg(U, "nerve_of")._masks:
        for r in range(1, len(mask) + 1):
            faces.update(frozenset(c) for c in itertools.combinations(sorted(mask), r))
    return Nerve(len(U.members), frozenset(faces))


@dataclass(frozen=True)
class Nerve:
    vertex_count: int
    faces: frozenset[frozenset[int]]

    def validate(self) -> None:
        for f in self.faces:
            if not f or not all(0 <= v < self.vertex_count for v in f):
                raise PreconditionError("face with out-of-range vertex")
            for v in f:
                if f - {v} and (f - {v}) not in self.faces:
                    raise PreconditionError("faces are not downward closed")
        for v in range(self.vertex_count):
            if frozenset({v}) not in self.faces:
                raise PreconditionError("missing singleton face")

    def dimension(self) -> int:
        return max(len(f) for f in self.faces) - 1 if self.faces else -1


def kappa_map(x, U: FiniteCover, vertices: Sequence[RationalPoint]) -> RationalPoint:
    """Convex combination of vertices weighted by depth inside each member.

    The weight of member i is the exact distance from x to the part of
    the unit box outside that member, so the support is exactly the set
    of members containing x and the weights sum to 1 after normalizing.
    Members are read inside the unit box, so x must lie in it.  Depths
    and vertices go on common denominators: one int sum per axis.
    """
    U = _cover_arg(U, "kappa_map")
    coords = rat_point(x)
    if len(coords) != U.dim:
        raise PreconditionError("point dimension differs from the cover's")
    if not all(0 <= c.numerator <= c.denominator for c in coords):
        raise PreconditionError("point lies outside the unit box")
    if len(vertices) != len(U.members):
        raise PreconditionError("one vertex per cover member is required")
    if len({v.dim for v in vertices}) != 1:
        raise PreconditionError("vertices disagree on dimension")
    (xs,), q = _on_lcm([coords])
    depths = []
    for m in U.members:
        d = _depth(xs, q, m)
        if d is None:
            raise PreconditionError("member complement is empty; kappa weight undefined")
        depths.append((d, q * m._complement[0]))
    scale = reduce(math.lcm, (qg for _, qg in depths), 1)
    weights = [d * (scale // qg) for d, qg in depths]
    total = sum(weights)
    if total == 0:
        raise PreconditionError("uncovered point")
    rows, den = _on_lcm([v.coords for v in vertices])
    out = [0] * vertices[0].dim
    for w, row in zip(weights, rows):
        if w:
            for a, n in enumerate(row):
                out[a] += w * n
    return RationalPoint(tuple(Fraction(n, total * den) for n in out))


# --- shrinkings ------------------------------------------------------------


def _shrunk_box(cube: Bounds, pull: Fraction) -> Box | None:
    bounds = []
    for lo, hi in cube:
        nlo = ZERO if lo < ZERO else lo + pull
        nhi = ONE if hi > ONE else hi - pull
        if nlo > nhi:
            return None
        bounds.append((min(max(nlo, ZERO), ONE), min(max(nhi, ZERO), ONE)))
    return Box(tuple(bounds))


def _shrunk_set(s: OpenSet, pull: Fraction) -> OpenSet | None:
    balls = [FormalBall(b.center, b.radius - pull) for b in s.balls if b.radius > pull]
    return OpenSet(tuple(balls)) if balls else None


def shrink_cover(U: FiniteCover) -> tuple[tuple[tuple[Box, ...], ...], tuple[OpenSet, ...]]:
    """Closed boxes F and open sets V with V_k ⊆ F_k ⊆ U_k, V covering.

    The margin is the smallest over carrier representatives of the best
    depth inside a member.  F pulls each cube face in by half the margin
    except faces already outside the unit box, which stay put; V shrinks
    every ball radius by three quarters of the margin.  On each axis a V
    cube's interval (lo + 3λ/4, hi − 3λ/4), read inside [0, 1], lies in
    its F box's, so V_k ∩ [0,1]^d ⊆ F_k and F covers wherever V does.
    Only V is verified to cover exactly, halving the margin when the
    representative-based estimate was too coarse.
    """
    U = _cover_arg(U, "shrink_cover")
    # the whole-cover arrangement, not a box-local one: every cube's facets
    # cut each box, since the margin is a minimum over these representatives
    # and coarser cells could drop the ones that set it; a cell's
    # representative is one axis cell's per axis
    all_cubes = [cube for m in U.members for cube in m.cubes()]
    g, boxes, (cubes,) = _grid(_carrier_boxes(U.carrier), [all_cubes])
    cuts = [[v for c in cubes for v in c[a]] for a in range(U.dim)]
    lam = None
    for box in boxes:
        axes = [[rep for rep, _, _ in _axis_cells(lo, hi, cut)] for (lo, hi), cut in zip(box, cuts)]
        for rep in itertools.product(*axes):
            # a member's depth is on g times its own grid, which divides g
            # (g counts every cube's denominator), so the quotient is the
            # depth on g; a member with no complement counts as depth 1,
            # which no depth of a unit-box point exceeds
            depth = 0
            for m in U.members:
                d = _depth(rep, g, m)
                depth = max(depth, g if d is None else d // m._complement[0])
            if depth == 0:
                raise PreconditionError("no positive margin")
            lam = depth if lam is None else min(lam, depth)
    if lam is None:
        raise PreconditionError("no positive margin")
    lam = Fraction(lam, g)
    for _ in range(64):
        closed = []
        open_ = []
        ok = True
        for m in U.members:
            boxes = tuple(
                b for b in (_shrunk_box(cube, lam / 2) for cube in m.cubes()) if b
            )
            v = _shrunk_set(m, lam * 3 / 4)
            if not boxes or v is None:
                ok = False
                break
            closed.append(boxes)
            open_.append(v)
        if ok and frozenset() not in _carrier_masks(open_, U.carrier):
            return tuple(closed), tuple(open_)
        lam /= 2
    raise PreconditionError("no positive margin")


# --- refinement search -----------------------------------------------------


def _parents(members: Sequence[OpenSet], U: FiniteCover) -> tuple[int | None, ...]:
    """Per member, the first member of U holding it on the carrier, else None.

    Member j lies inside U's member i exactly when every mask of the
    joint family (members, then U's members) holding j holds n + i.
    """
    n = len(members)
    masks = _carrier_masks(tuple(members) + U.members, U.carrier)
    return tuple(
        next((i for i in range(len(U.members)) if all(n + i in m for m in masks if j in m)), None)
        for j in range(n)
    )


def _ladder(carrier: Carrier) -> Iterator[tuple[OpenSet, ...]]:
    """Tight then padded ball families on each grid width, coarse to fine.

    The tight ball of a width-w cell is the open cell, radius w/2; the
    padded ball has radius w.  Which balls meet the carrier follows from
    how the cells are built, so no ball is tested.  Every admissible
    level-k cell of a symbolic carrier meets it: up to the depth the cell
    holds a depth cell, since the all-zero digit column has no interior
    digit and so is admissible at every level; past the depth the cell
    lies in its depth ancestor.  So the origin lies in the carrier, and
    in no open cell: no tight family covers a symbolic carrier, and the
    empty family, which covers nothing, holds its place in the budget.
    When n < m some digit column is inadmissible (every z_j >= 3 gives
    an interior digit), and past the depth the centre of such a sub-cell
    of a carrier cell lies at distance w from every cell centre, outside
    every padded ball: that ladder ends at the depth, and the others two
    levels past it.  A cloud's cells are the w = 1/2^k cells touching a
    point, which the padded ball around the cell holds strictly; the
    tight ball stays only where a point lies inside the open cell on
    every axis.  The cloud ladder never ends.
    """
    if isinstance(carrier, SymbolicCarrier):
        desc = carrier.descriptor
        for k in range(carrier.depth + (1 if desc.n < desc.m else 3)):
            w = carrier.width_at(k)
            centers = [tuple((lo + hi) / 2 for lo, hi in c.bounds) for c in carrier.cells_at(k)]
            yield ()
            yield tuple(open_set(ball(c, w)) for c in centers)
        return
    for k in itertools.count():
        n = 2**k
        touched, inside = set(), set()
        for p in carrier.points:
            # per axis x = c·n: the cells j with j <= x <= j + 1, then the one with x inside
            xs = [c * n for c in p]
            near = [[j for j in range(math.ceil(x) - 1, math.floor(x) + 1) if 0 <= j < n]
                    for x in xs]
            touched.update(itertools.product(*near))
            strict = [[j for j in js if j < x < j + 1] for js, x in zip(near, xs)]
            inside.update(itertools.product(*strict))
        for radius, corners in ((Fraction(1, 2 * n), inside), (Fraction(1, n), touched)):
            if corners:
                yield tuple(
                    open_set(ball(tuple(Fraction(2 * j + 1, 2 * n) for j in corner), radius))
                    for corner in sorted(corners)
                )


def _point_balls(cloud: PointCloud) -> tuple[OpenSet, ...]:
    """One ball per distinct cloud point, all of one radius.

    The radius is half the smallest pairwise max-distance, or 1 for a
    single point, so the open cubes are pairwise disjoint and each holds
    its own point alone: multiplicity 1 and diameter 0 on the cloud.
    """
    points = list(dict.fromkeys(cloud.points))
    gap = min((max_dist(p, q) for p, q in itertools.combinations(points, 2)), default=Fraction(2))
    return tuple(open_set(ball(p, gap / 2)) for p in points)


def refine_cover(
    U: FiniteCover,
    target_mult: int,
    mesh: Fraction,
    budget: int = 64,
) -> FiniteCover:
    """Search widths coarse to fine for a refinement meeting both targets.

    Every candidate family is checked exactly: coverage, mesh inside the
    carrier, multiplicity, and a parent member containing each new set.
    The search ends when the family budget runs out or, on a symbolic
    carrier, when the width ladder does: at the carrier resolution, or
    two subdivision levels past it when every digit column is admissible.
    A symbolic tight family never covers, so the ladder offers the empty
    family in its slot, which is skipped without a scan and which the
    budget still counts.  On a point cloud one more family follows the ladder,
    a ball around each point, which meets every multiplicity target and
    every nonnegative mesh.
    """
    U = _cover_arg(U, "refine_cover")
    mesh, budget = rat(mesh), int_arg(budget, "budget")
    if int_arg(target_mult, "target_mult") < 1:
        raise PreconditionError("target multiplicity must be at least 1")
    carrier = U.carrier
    if isinstance(carrier, PointCloud) and not carrier.points:
        # no family of the ladder meets an empty cloud, so it would never end
        raise PreconditionError("cloud carrier has no points")
    families: Iterable[tuple[OpenSet, ...]] = itertools.islice(_ladder(carrier), max(budget, 0))
    if isinstance(carrier, PointCloud):
        # the point balls, built only if the ladder's families all fail
        families = itertools.chain(families, map(_point_balls, [carrier]))
    for members in families:
        if not members:
            # the empty family's mask set on a nonempty carrier is {∅}: no scan
            continue
        masks = _carrier_masks(members, carrier)
        if frozenset() in masks or any(len(m) > target_mult for m in masks):
            continue
        if _mesh(members, carrier) > mesh:
            continue
        parents = _parents(members, U)
        if None in parents:
            continue
        return FiniteCover(members, carrier, parents=parents)
    raise PreconditionError("search exhausted")


# --- general position ------------------------------------------------------

_FINEST_LEVEL = 40  # general_position's finest candidate grid is 1/2^_FINEST_LEVEL


def _rank(rows: list[list[int]]) -> int:
    """Rank of int rows, by fraction-free elimination.

    Bareiss's elimination ("Sylvester's identity and multistep
    integer-preserving Gaussian elimination", Math. Comp. 1968) keeps
    every entry a minor of the rows: after a pivot p, row r becomes
    (p·r − r[col]·pivot row) / previous pivot, and the division is exact.
    """
    mat = list(rows)
    rank = 0
    prev = 1
    cols = len(mat[0]) if mat else 0
    for col in range(cols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        top = mat[rank]
        p = top[col]
        for r in range(rank + 1, len(mat)):
            f = mat[r][col]
            mat[r] = [(p * a - f * b) // prev for a, b in zip(mat[r], top)]
        prev = p
        rank += 1
    return rank


def _directions(points: Sequence[Sequence[int]]) -> list[list[int]]:
    """The rows p − points[0] of the other points, spanning the hull's directions."""
    base = points[0]
    return [[c - b for c, b in zip(p, base)] for p in points[1:]]


def _span_meets(points: Sequence[Sequence[int]], sub: Sequence[Sequence[int]]) -> bool:
    """Does the affine hull of the points meet the affine hull of sub?"""
    combined = _directions(points) + _directions(sub)
    diff = [s - b for s, b in zip(sub[0], points[0])]
    if not combined:
        return not any(diff)
    return _rank(combined) == _rank(combined + [diff])


def general_position(
    points: Sequence,
    eps: Fraction,
    avoid: Sequence[Sequence[Sequence[Fraction]]] = (),
    budget: int = 200_000,
) -> tuple[RationalPoint, ...]:
    """Perturb each point by less than eps into general position.

    After the scan, every subset of at most m+1 output points is
    affinely independent, and the affine span of any at most m - dim(L)
    outputs misses each avoid flat L.  Candidates run over dyadic grids
    of increasing denominator in lexicographic order, so the result is
    deterministic.  The points, flats and candidates are int vectors on
    one grid per call, the lcm of their denominators and 2^_FINEST_LEVEL,
    so the tests subtract and eliminate ints; only the outputs are Fractions.
    Points of unequal dimension, an empty avoid flat and a flat of another
    dimension than the points' are refused with PreconditionError.
    """
    eps, budget = rat(eps), int_arg(budget, "budget")
    if eps <= 0:
        raise PreconditionError("eps must be positive")
    pts = [rat_point(p) for p in points]
    if not pts:
        return ()
    m = len(pts[0])
    if any(len(p) != m for p in pts):
        raise PreconditionError("points disagree on dimension")
    avoid_flats = [[rat_point(p) for p in flat] for flat in avoid]
    if not all(avoid_flats):
        raise PreconditionError("an avoid flat needs at least one point")
    if any(len(p) != m for flat in avoid_flats for p in flat):
        raise PreconditionError("avoid flat dimension differs from the points'")
    _, grid = _on_lcm([*pts, *itertools.chain(*avoid_flats)], 2**_FINEST_LEVEL)
    pts = _on_lcm(pts, grid)[0]
    avoid_flats = [_on_lcm(flat, grid)[0] for flat in avoid_flats]
    avoid_dims = [_rank(_directions(flat)) for flat in avoid_flats]

    placed: list[list[int]] = []

    def admissible(candidate: list[int]) -> bool:
        # the candidate with k placed points: k directions of rank k
        for k in range(1, min(m, len(placed)) + 1):
            for combo in itertools.combinations(placed, k):
                if _rank(_directions([*combo, candidate])) < k:
                    return False
        for flat, fdim in zip(avoid_flats, avoid_dims):
            for k in range(min(m - fdim, len(placed) + 1)):
                for combo in itertools.combinations(placed, k):
                    if _span_meets([*combo, candidate], flat):
                        return False
        return True

    steps = 0
    for p in pts:
        if admissible(p):
            placed.append(p)
            continue
        found = False
        level = 2
        fresh = True
        while not found:
            denom = 2**level
            step = grid // denom
            radius = math.floor(eps * denom) - 1
            if radius >= 1:
                for offs in itertools.product(range(-radius, radius + 1), repeat=m):
                    if all(o == 0 for o in offs):
                        continue
                    if not fresh and all(o % 2 == 0 for o in offs):
                        continue
                    steps += 1
                    if steps > budget:
                        raise PreconditionError("budget exceeded")
                    cand = [c + o * step for c, o in zip(p, offs)]
                    if not all(0 <= c <= grid for c in cand):
                        continue
                    if admissible(cand):
                        placed.append(cand)
                        found = True
                        break
                fresh = False
            level += 1
            if level > _FINEST_LEVEL:
                raise PreconditionError("budget exceeded")
    return tuple(RationalPoint(tuple(Fraction(c, grid) for c in p)) for p in placed)


# --- (eps; eta) certificates ----------------------------------------------


@dataclass(frozen=True)
class EpsEtaCertificate:
    """Record that close images force close sources on the checked pairs."""

    eps: Fraction
    eta: Fraction
    witness_pairs: tuple[tuple[RationalPoint, RationalPoint], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "eps", rat(self.eps))
        object.__setattr__(self, "eta", rat(self.eta))
        if self.eps <= 0 or self.eta <= 0:
            raise PreconditionError("eps and eta must be positive")

    def to_json(self) -> dict:
        return {
            "eps": fmt(self.eps),
            "eta": fmt(self.eta),
            "pairs_checked": len(self.witness_pairs),
        }


def verify_eps_eta(pairs: Sequence, eps, eta):
    """Certificate when eta-close images imply eps-close sources; else a pair.

    The returned counterexample is ((x, g(x)), (y, g(y))) for a violating
    combination.
    """
    eps, eta = rat(eps), rat(eta)
    graph = [(RationalPoint(rat_point(x)), RationalPoint(rat_point(gx))) for x, gx in pairs]
    for a in range(len(graph)):
        for b in range(a + 1, len(graph)):
            (x, gx), (y, gy) = graph[a], graph[b]
            if max_dist(gx.coords, gy.coords) < eta and not max_dist(x.coords, y.coords) < eps:
                return (graph[a], graph[b])
    return EpsEtaCertificate(eps, eta, tuple(graph))


# --- one embedding step ----------------------------------------------------


def _pow2_at_most(value: Fraction) -> int:
    """Smallest v >= 0 with 2^-v <= value; requires value > 0."""
    return (math.ceil(1 / value) - 1).bit_length()  # least v with 2^v >= 1/value


def embed_step(
    sample: PointCloud,
    U: FiniteCover,
    avoid: Sequence = (),
    i: int = 1,
    j: int = 1,
) -> tuple[PointCloud, EpsEtaCertificate]:
    """One kappa-step: push the sample through a low-multiplicity cover.

    Vertices are member-ball centers moved into general position away
    from the avoid flats; eta is the largest power of two below the
    smallest gap between affine spans of disjoint nerve faces, and the
    exhaustive pair check on the sample seals the certificate.
    """
    m = sample.dim
    n = (m - 1) // 2
    mult = cover_multiplicity(U)
    if mult > n + 1:
        raise PreconditionError("cover multiplicity exceeds n + 1")
    mesh = cover_mesh(U)
    target = Fraction(1, 2 ** int_arg(j, "j"))
    if mesh >= target:
        raise PreconditionError("mesh too coarse for the requested approximation")
    centers = [mbr.balls[0].center for mbr in U.members]
    wiggle = min((target - mesh) / 2, Fraction(1, 2 ** (j + 2)))
    vertices = general_position(centers, wiggle, avoid)
    faces = [mask for mask in U._masks if mask]
    min_gap = None
    for a in range(len(faces)):
        for b in range(a + 1, len(faces)):
            if not (faces[a] & faces[b]):
                ga = [vertices[t].coords for t in sorted(faces[a])]
                gb = [vertices[t].coords for t in sorted(faces[b])]
                gap = affine_gap(ga, gb)
                if gap == 0:
                    raise PreconditionError("general position failed to separate spans")
                min_gap = gap if min_gap is None else min(min_gap, gap)
    v = _pow2_at_most(min_gap) if min_gap is not None else 0
    eta = Fraction(1, 2**v)
    eps = Fraction(1, 2 ** int_arg(i, "i"))
    images = []
    for p in sample.points:
        img = kappa_map(p, U, vertices)
        if max_dist(p, img.coords) >= target:
            raise PreconditionError("kappa image drifted beyond the approximation bound")
        images.append(img)
    outcome = verify_eps_eta(
        [(RationalPoint(p), img) for p, img in zip(sample.points, images)], eps, eta
    )
    if not isinstance(outcome, EpsEtaCertificate):
        raise PreconditionError("certificate verification failed on the sample")
    return PointCloud(m, tuple(p.coords for p in images)), outcome


# --- Menger push step ------------------------------------------------------


def menger_push_step(
    points: Sequence,
    level: int,
    z: BoundSeq,
    eps: Fraction,
) -> tuple[Fraction, ...]:
    """Apply the level map pushing mass toward the outer child intervals.

    On each level interval [a, b] the map is piecewise linear through
    (a, a), (c - eps, a + 3w'/4), (c + eps, b - 3w'/4), (b, b) where c is
    the midpoint and w' the child width, so everything left of c - eps
    lands in the first child and everything right of c + eps in the
    last; grid points stay fixed and the map strictly increases.
    """
    eps = rat(eps)
    if int_arg(level, "level") < 0:
        raise PreconditionError("level must be nonnegative")
    w = z.scale(level)
    if not 0 < eps < w / 2:
        raise PreconditionError("eps too large for the level width")
    zi = z(level)
    child = w / zi
    out = []
    for p in points:
        x = rat(p)
        if not ZERO <= x <= ONE:
            raise PreconditionError("points must lie in the unit interval")
        idx = min((x / w).numerator // (x / w).denominator, int(1 / w) - 1)
        a = idx * w
        b = a + w
        c = (a + b) / 2
        knots = [
            (a, a),
            (c - eps, a + 3 * child / 4),
            (c + eps, b - 3 * child / 4),
            (b, b),
        ]
        for (x0, y0), (x1, y1) in zip(knots, knots[1:]):
            if x0 <= x <= x1:
                out.append(y0 + (y1 - y0) * (x - x0) / (x1 - x0))
                break
    return tuple(out)
