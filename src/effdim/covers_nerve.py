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

An open set holds its cubes as ints over one denominator D, the lcm of
their ends' denominators (``_int_cubes``), so no Fraction stands between
a ball and its cube.  A carrier box's coordinates are some k/q, and
``_grid`` puts the boxes and the sets of one family on their common grid
g = 2·lcm(every q and D), a set's ints times g/D, once per family on a
carrier; an open set's complement is built on its own grid 2·D.
Fractions come back only where a caller reads them: distances,
diameters and margins.

Carriers come in two kinds, and the queries read both as closed boxes.  A
symbolic carrier is the depth-d approximant of a digit-defined
compactum, a finite union of closed grid cells.  A point cloud is the
degenerate case: each distinct point p is the zero-width box [p, p],
whose one cell is p itself.

A family of open sets is read on a carrier in one pass (``_Pass``): one
grid, and per carrier box the cubes meeting it.  Its mask set, the
distinct sets of members holding some carrier point, decides coverage
(no empty mask), multiplicity (the largest mask) and the nerve (the
masks' subsets); its mesh is the largest span of a member's pieces,
closure(cube ∩ box).  Each is read off the pass when first asked for,
and ``FiniteCover`` keeps its pass, so it scans its carrier at most
once.  Refinement makes one pass per candidate family, finds parents
from one joint mask set of the family and the cover, and hands the
accepted pass to the cover it returns.  Which of a family's balls meet
the carrier needs no query: it follows from how the ladder's cells are
built (``_ladder``).  So do the symbolic families that can never cover,
which the ladder does not build: an empty family keeps each one's place
in the budget, or the ladder ends before them.

A pass depends on the carrier only as a point set, so it reads the
carrier's merged boxes (``_merged_cells``): face-adjacent cells united
axis by axis, once per carrier, so the depth-4 interval is one box, not
81.  Within a box a mask set needs no cells: ``_box_masks`` ANDs each
axis's distinct bitsets over their product.  Only ``shrink_cover``
reads cells of the carrier's own boxes: its margin is a minimum over
their representatives, the products of ``_axis_cells``' axis
representatives with every cube of the cover cutting; its coverage
check is the open family's mask set alone.

An open set's derived data are its int cubes, made when it is built,
and its complement: the closures of the maximal unit-box cells that
none of its cubes holds, as ints on the set's grid 2·D, built on one
int bitboard with a bit per cell of the set's unit-box arrangement
(``_uncovered_closures``), up to ``_CELL_CAP`` cells.  Kappa weights
and shrinking margins are distances to it, so each set, a single ball
too, builds it at most once, however many points are weighed.  A distance is measured in ints too: the point goes
on its own denominator q, and a gap to a bound on grid g is compared on
q·g.  General position works on ints, on one grid per call: each hull
of placed points is reduced once to fraction-free (Bareiss) elimination
steps, and a candidate is tested by reducing one row against them.
The embedding step's gap between two affine hulls runs on the same
kernel: it is read from the LP dual, over the dependencies among the
columns of the hulls' int directions (``_affine_gap``).
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
        coords = rat_point(coords)
        if len(coords) != self.dim:
            raise PreconditionError("point dimension differs from the box's")
        return all(lo <= c <= hi for (lo, hi), c in zip(self.bounds, coords))


def ball(center: Sequence, radius) -> FormalBall:
    return FormalBall(RationalPoint(rat_point(center)), radius)


def _int_cubes(balls: Sequence[FormalBall]) -> tuple[int, tuple[IntBounds, ...]]:
    """The balls' cubes, center ± radius per axis, as ints over one denominator D, and D.

    The ints are first formed over the lcm of the centers' and radii's
    denominators; dividing it and every endpoint by their gcd leaves D
    the lcm of the endpoints' reduced denominators.  So a center 1/4 with
    radius 1/4, formed as (0, 2) over 4, is held as (0, 1) over D = 2:
    every grid stays the one the endpoints' Fractions would give.
    """
    den = math.lcm(
        *(b.radius.denominator for b in balls),
        *(c.denominator for b in balls for c in b.center.coords),
    )
    cubes = []
    for b in balls:
        r = b.radius.numerator * (den // b.radius.denominator)
        ks = [c.numerator * (den // c.denominator) for c in b.center.coords]
        cubes.append(tuple((k - r, k + r) for k in ks))
    common = math.gcd(den, *(v for cube in cubes for pair in cube for v in pair))
    if common > 1:
        den //= common
        cubes = [tuple((lo // common, hi // common) for lo, hi in cube) for cube in cubes]
    return den, tuple(cubes)


@dataclass(frozen=True)
class OpenSet:
    """Union of formal balls, read relative to the unit box.

    The set is (union of open cubes) intersected with [0,1]^dim, hence
    open in the subspace topology even where a cube pokes past the box.
    Its cubes are held once, as ints over one denominator D, the lcm of
    their endpoints' denominators (``_int_cubes``): every grid the set
    goes on is a multiple of D, so it is put there by one int product
    per endpoint.  ``cubes`` reads them back as Fractions.
    """

    balls: tuple[FormalBall, ...]
    _ints: tuple[int, tuple[IntBounds, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.balls:
            raise PreconditionError("an open set needs at least one ball")
        dims = {b.center.dim for b in self.balls}
        if len(dims) != 1:
            raise PreconditionError("balls of one set must share a dimension")
        object.__setattr__(self, "_ints", _int_cubes(self.balls))

    @property
    def dim(self) -> int:
        return self.balls[0].center.dim

    def cubes(self) -> tuple[Bounds, ...]:
        den, cubes = self._ints
        return tuple(tuple((Fraction(lo, den), Fraction(hi, den)) for lo, hi in cube) for cube in cubes)

    def contains(self, coords: Sequence[Fraction]) -> bool:
        coords = rat_point(coords)
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
    boxes: Sequence[Bounds], sets: Sequence[OpenSet]
) -> tuple[int, list[IntBounds], list[list[IntBounds]]]:
    """The boxes and each set's cubes as ints on their common grid g.

    Every box coordinate is some k/q and every set's cubes are ints over
    its D, so on g = 2·lcm(every q and D) a coordinate is the even int
    k·g/q, a set's cube int is times g/D, and the midpoint of two such is
    an int too.  Order and membership are those of the Fractions; dividing
    by g gives them back.
    """
    dens = {v.denominator for b in boxes for pair in b for v in pair}
    g = 2 * math.lcm(*dens, *(s._ints[0] for s in sets))
    mult = {d: g // d for d in dens}
    int_boxes = [
        tuple((lo.numerator * mult[lo.denominator], hi.numerator * mult[hi.denominator]) for lo, hi in b)
        for b in boxes
    ]
    groups = []
    for s in sets:
        den, cubes = s._ints
        k = g // den
        groups.append([tuple((lo * k, hi * k) for lo, hi in cube) for cube in cubes])
    return g, int_boxes, groups


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


def _box_masks(box: IntBounds, local: Sequence[tuple[int, IntBounds]]) -> set[frozenset[int]]:
    """The distinct masks of the box's cells, the groups whose cubes hold
    each cell, from the cubes meeting the box (``_local``), without
    building the cells.

    A cell's bitset is the AND of one axis cell's bitset per axis, and
    every choice of axis cells is a cell, so the masks are the ANDs over
    the product of each axis's distinct bitsets.  Folding axis by axis
    keeps only the distinct partial ANDs.
    """
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


class _Pass:
    """A family on a carrier: the region's boxes and the members' cubes on
    their grid g, each box with its meeting cubes (``_local``); the mask
    set and the mesh are read off them, each the first time it is asked for."""

    def __init__(self, members: Sequence[OpenSet], carrier: Carrier) -> None:
        self.g, boxes, groups = _grid(_carrier_region(carrier), members)
        self.boxes = [(box, _local(box, groups)) for box in boxes]

    @cached_property
    def masks(self) -> frozenset[frozenset[int]]:
        """Distinct membership patterns realized somewhere on the carrier."""
        return frozenset(mask for box, local in self.boxes for mask in _box_masks(box, local))

    @cached_property
    def mesh(self) -> Fraction:
        """Largest member diameter inside the carrier; 0 when every member misses it.

        A piece is the closure of cube ∩ box: a positive length on an axis
        of positive width, the axis value itself on a zero-width one.  A
        member's pieces make up the closure of its part of the carrier,
        whose max-metric diameter is its largest per-axis span.
        """
        pieces: dict[int, list[IntBounds]] = {}
        for box, local in self.boxes:
            for i, cube in local:
                pieces.setdefault(i, []).append(
                    tuple((max(blo, clo), min(bhi, chi)) for (blo, bhi), (clo, chi) in zip(box, cube))
                )
        spans = [max(hi for _, hi in a) - min(lo for lo, _ in a) for ps in pieces.values() for a in zip(*ps)]
        return Fraction(max(spans, default=0), self.g)


@dataclass(frozen=True)
class FiniteCover:
    """Finitely many ball-union sets covering a carrier exactly.

    Construction verifies coverage unless validate=False is passed; the
    escape hatch exists so that error paths of the cover operations can
    be exercised on deliberately broken families.  The members must come
    as a tuple of OpenSets.  The cover's one pass over its carrier is
    cached on first use and left out of its pickled state, so a copy or
    an unpickled cover makes its own pass on its first query.
    """

    members: tuple[OpenSet, ...]
    carrier: Carrier
    parents: tuple[int, ...] | None = None
    validate: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.members, tuple):
            raise PreconditionError(
                f"FiniteCover needs a tuple of OpenSets, not {type(self.members).__name__}"
            )
        if not self.members:
            raise PreconditionError("empty cover")
        for m in self.members:
            if not isinstance(m, OpenSet):
                raise PreconditionError(f"FiniteCover needs an OpenSet, not {type(m).__name__}")
        if not isinstance(self.carrier, (PointCloud, SymbolicCarrier)):
            raise PreconditionError(
                f"FiniteCover needs a PointCloud or SymbolicCarrier, not {type(self.carrier).__name__}"
            )
        dims = {m.dim for m in self.members} | {self.carrier.dim}
        if len(dims) != 1:
            raise PreconditionError("cover members and carrier disagree on dimension")
        if self.validate and frozenset() in self._pass.masks:
            raise PreconditionError("carrier point not covered by any member")

    @property
    def dim(self) -> int:
        return self.carrier.dim

    @cached_property
    def _pass(self) -> _Pass:
        return _Pass(self.members, self.carrier)

    def __getstate__(self) -> dict:
        """The fields without the cached pass: a copy scans on its first query."""
        state = dict(self.__dict__)
        state.pop("_pass", None)
        return state


def _cover_arg(U, name: str) -> FiniteCover:
    """U, refused with PreconditionError unless it is a FiniteCover."""
    if not isinstance(U, FiniteCover):
        raise PreconditionError(f"{name} needs a FiniteCover, not {type(U).__name__}")
    return U


# --- diameters and complements ---------------------------------------------


def cover_mesh(U: FiniteCover) -> Fraction:
    """Largest member diameter measured inside the carrier region."""
    return _cover_arg(U, "cover_mesh")._pass.mesh


# Most cells an open set's complement is built over, a bit each (512 KB): with
# all faces distinct and inside the box, 512 balls pass it in 2-D, 40 in 3-D, 3 in 6-D.
_CELL_CAP = 2**22


def _repunit(st: int, n: int) -> int:
    """n one bits, st apart: times a board below bit st, n copies of it."""
    return ((1 << st * n) - 1) // ((1 << st) - 1)


def _uncovered_closures(s: OpenSet) -> tuple[int, tuple[IntBounds, ...]]:
    """The set's grid g, and on it the closures of the maximal unit-box
    cells that no cube of s holds.

    The set's cubes are ints over its D, and the unit box's ends are 0
    and D, so g = 2·D, what ``_grid`` gives the unit box and the set, and
    the cubes on it are the set's ints doubled.

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
    den, cubes = s._ints
    g = 2 * den
    unit = ((0, den),) * s.dim
    local = [tuple((2 * lo, 2 * hi) for lo, hi in cube) for cube in cubes if _meets(unit, cube)]
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
    return max((len(mask) for mask in _cover_arg(U, "cover_multiplicity")._pass.masks), default=0)


def nerve_of(U: FiniteCover) -> "Nerve":
    """Faces are exactly the subfamilies meeting in a carrier point."""
    faces: set[frozenset[int]] = set()
    for mask in _cover_arg(U, "nerve_of")._pass.masks:
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
    for v in vertices:
        if not isinstance(v, RationalPoint):
            raise PreconditionError(f"kappa_map needs a RationalPoint, not {type(v).__name__}")
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
        bounds.append((nlo, nhi))
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
    g, boxes, groups = _grid(_carrier_boxes(U.carrier), U.members)
    cubes = [cube for group in groups for cube in group]
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
        if ok and frozenset() not in _Pass(open_, U.carrier).masks:
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
    masks = _Pass(tuple(members) + U.members, U.carrier).masks
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

    Every candidate family is checked exactly on one pass over the
    carrier (``_Pass``): coverage and multiplicity off its mask set, then
    the mesh inside the carrier, and last a parent member containing each
    new set, off the joint mask set of the family and the cover.  The
    cover returned holds the pass that accepted its family, so neither
    its validation nor a query on it scans the carrier again.  The search
    ends when the family budget runs out or, on a symbolic carrier, when
    the width ladder does: at the carrier resolution, or two subdivision
    levels past it when every digit column is admissible.  A symbolic
    tight family never covers, so the ladder offers the empty family in
    its slot, which is skipped without a scan and which the budget still
    counts.  On a point cloud one more family follows the ladder, a ball
    around each point, which meets every multiplicity target and every
    nonnegative mesh.
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
        family = _Pass(members, carrier)
        if frozenset() in family.masks or any(len(m) > target_mult for m in family.masks):
            continue
        if family.mesh > mesh:
            continue
        parents = _parents(members, U)
        if None in parents:
            continue
        # the cover holds the pass that accepted it, so validating it and
        # querying it scan nothing again
        refined = object.__new__(FiniteCover)
        refined.__dict__["_pass"] = family
        refined.__init__(members, carrier, parents=parents)
        return refined
    raise PreconditionError("search exhausted")


# --- general position ------------------------------------------------------

_FINEST_LEVEL = 40  # general_position's finest candidate grid is 1/2^_FINEST_LEVEL

Step = tuple[int, list[int], int]  # an elimination step: pivot column, pivot row, previous pivot


def _reduce(row: list[int], ech: Sequence[Step]) -> list[int]:
    """The int row after ech's elimination steps: all zero exactly when it lies in their span.

    Bareiss's elimination ("Sylvester's identity and multistep
    integer-preserving Gaussian elimination", Math. Comp. 1968).  A step is
    a pivot row, its pivot column and the previous step's pivot, and takes
    a row r to (p·r − r[col]·pivot row) / previous pivot.  After k steps
    each entry of r is a (k+1)-minor of the pivot rows and r, so every
    division is exact, and the entries all vanish exactly when the pivot
    rows span r.
    """
    for col, top, prev in ech:
        p, f = top[col], row[col]
        row = [(p * a - f * b) // prev for a, b in zip(row, top)]
    return row


def _step(ech: Sequence[Step], reduced: list[int]) -> Step | None:
    """The step a row reduced by ech adds to them, pivoting on its first nonzero entry; None if all zero."""
    col = next((j for j, a in enumerate(reduced) if a), None)
    if col is None:
        return None
    return col, reduced, ech[-1][1][ech[-1][0]] if ech else 1


def _echelon(rows: Iterable[list[int]]) -> list[Step]:
    """Bareiss steps spanning the int rows, one per unit of rank: each row reduced by the steps before it."""
    ech: list[Step] = []
    for row in rows:
        step = _step(ech, _reduce(row, ech))
        if step is not None:
            ech.append(step)
    return ech


def _affine_gap(pts_a: Sequence[Sequence[Fraction]], pts_b: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact max-metric distance between the affine hulls of two point lists.

    With w = b0 − a0 and V the span of both lists' directions, the gap is
    the least |w − v|∞ over v in V, which by LP duality is the largest
    |y·w| / |y|₁ over y ⊥ V.  That maximum sits at an elementary vector of
    V⊥ (Rockafellar, "The elementary vectors of a subspace of R^N", 1969):
    a dependency y among the columns of the int direction matrix whose
    support is a minimal dependent set.  Every such set is an independent
    set S of columns and one later column, so the walk goes depth first
    over the independent sets, visiting at most 2^m of them for points in
    R^m.  Each next column, with the identity row e_j as its tail, is
    reduced by the Bareiss steps of S: a nonzero column part extends S,
    and a zero one leaves y as the tail.  With no dependency V is all of
    R^m and the gap is 0.
    """
    rows, q = _on_lcm([*pts_a, *pts_b])
    a0, b0 = rows[0], rows[len(pts_a)]
    dirs = [[c - s for c, s in zip(p, a0)] for p in rows[1 : len(pts_a)]]
    dirs += [[c - s for c, s in zip(p, b0)] for p in rows[len(pts_a) + 1 :]]
    m, k = len(a0), len(dirs)
    w = [b - a for a, b in zip(a0, b0)]
    cols = [[v[d] for v in dirs] + [int(e == d) for e in range(m)] for d in range(m)]
    gap = ZERO

    def walk(ech: list[Step], start: int) -> None:
        nonlocal gap
        for j in range(start, m):
            r = _reduce(cols[j], ech)
            if any(r[:k]):
                walk([*ech, _step(ech, r)], j + 1)
            else:
                y = r[k:]
                gap = max(gap, Fraction(abs(sum(map(operator.mul, y, w))), q * sum(map(abs, y))))

    walk([], 0)
    return gap


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
    dimension than the points' are refused with PreconditionError, and a
    point outside the unit box with RationalPoint's ValueError.

    Placed points are in general position, so a candidate c fails exactly
    when it is a placed point, lies in the hull of a combination S of 2..m
    placed points, or, for an avoid flat L and S of 0..m - dim(L) - 1
    placed points, hull(S ∪ {c}) meets L.  Each S is reduced once, when its
    last point is placed, to its first point s0 and the Bareiss steps of
    its directions; c is then tested by reducing the one row c − s0.  For n
    placed points the cache holds the Σ_{k=2..m} C(n, k) hulls that every
    candidate is tested against, and one entry per flat and S.  Let W be
    the span of the directions of S and of L, and u = l0 − s0.  As hull(S)
    misses L, u is outside W, and hull(S ∪ {c}) meets L exactly when c − s0
    lies in W + span(u) but not in W.
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
    # as RationalPoint refuses them, before any candidate is tried
    if m == 0:
        raise ValueError("point needs at least one coordinate")
    _, grid = _on_lcm([*pts, *itertools.chain(*avoid_flats)], 2**_FINEST_LEVEL)
    pts = _on_lcm(pts, grid)[0]
    if not all(0 <= c <= grid for p in pts for c in p):
        raise ValueError("coordinates must lie in [0,1]")

    placed: list[list[int]] = []
    # (s0, steps): a candidate c fails when c − s0 reduces to zero
    hulls: list[tuple[list[int], list[Step]]] = []
    # (s0, steps of W, [step of u]): c fails when c − s0 is in W + span(u) but not in W
    meets: list[tuple[list[int], list[Step], list[Step]]] = []
    # (l0, directions of L, the most points an S tested against L holds)
    flats: list[tuple[list[int], list[list[int]], int]] = []
    for l0, *rest in (_on_lcm(flat, grid)[0] for flat in avoid_flats):
        dirs = [[a - b for a, b in zip(p, l0)] for p in rest]
        ech = _echelon(dirs)
        if len(ech) < m:
            hulls.append((l0, ech))  # S = ∅: c fails when it lies in L
        flats.append((l0, dirs, m - len(ech) - 1))

    def admissible(c: list[int]) -> bool:
        if c in placed:
            return False
        for s0, ech in hulls:
            if not any(_reduce([a - b for a, b in zip(c, s0)], ech)):
                return False
        for s0, ech, step in meets:
            r = _reduce([a - b for a, b in zip(c, s0)], ech)
            if any(r) and not any(_reduce(r, step)):
                return False
        return True

    def place(q: list[int]) -> None:
        for k in range(1, m):
            for s0, *rest in itertools.combinations(placed, k):
                hulls.append((s0, _echelon([a - b for a, b in zip(s, s0)] for s in (*rest, q))))
        for l0, dirs, most in flats:
            for k in range(most):
                for combo in itertools.combinations(placed, k):
                    s0, *rest = (*combo, q)
                    ech = _echelon([[a - b for a, b in zip(s, s0)] for s in rest] + dirs)
                    # u = l0 − s0 is outside W, so its step exists: q passed
                    # the test for S without q, so hull(S) misses L
                    meets.append((s0, ech, [_step(ech, _reduce([a - b for a, b in zip(l0, s0)], ech))]))
        placed.append(q)

    steps = 0
    for p in pts:
        if admissible(p):
            place(p)
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
                        place(cand)
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
    combination.  A nonpositive eps or eta, and sources or images of mixed
    dimension, are refused with PreconditionError before any pair is read.
    """
    eps, eta = rat(eps), rat(eta)
    if eps <= 0 or eta <= 0:
        raise PreconditionError("eps and eta must be positive")
    graph = [(RationalPoint(rat_point(x)), RationalPoint(rat_point(gx))) for x, gx in pairs]
    if len({x.dim for x, _ in graph}) > 1:
        raise PreconditionError("sources disagree on dimension")
    if len({gx.dim for _, gx in graph}) > 1:
        raise PreconditionError("images disagree on dimension")
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
    exhaustive pair check on the sample seals the certificate.  A sample
    other than a PointCloud, or a cover other than a FiniteCover, is
    refused with PreconditionError.
    """
    if not isinstance(sample, PointCloud):
        raise PreconditionError(f"embed_step needs a PointCloud, not {type(sample).__name__}")
    U = _cover_arg(U, "embed_step")
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
    faces = [mask for mask in U._pass.masks if mask]
    min_gap = None
    for a in range(len(faces)):
        for b in range(a + 1, len(faces)):
            if not (faces[a] & faces[b]):
                ga = [vertices[t].coords for t in sorted(faces[a])]
                gb = [vertices[t].coords for t in sorted(faces[b])]
                gap = _affine_gap(ga, gb)
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
