"""Differential tests: the box-local bitset scan against the global cell loops.

The reference functions below are verbatim copies of the loops that
``covers_nerve`` ran before its box-local bitset scan replaced them:
every carrier box cut by every cube of the whole cover, and membership
tested per (cell, cube) through ``_in_cube``.  Random covers in one to
three dimensions, with cubes poking past the unit box, explicit
zero-width carrier boxes and point clouds, must get the same answers
from the scan's consumers as from these copies.  The scan reads ints on
a common grid, so half the random covers mix coprime denominators.

The int kernels past the scan, complement distances, shrink margins and
``_rank`` (fed int rows), are checked the same way against verbatim
copies of the Fraction code they replaced.

The scan itself is gone from ``covers_nerve``; ``_old_scan`` is a
verbatim copy, checked against the global loops and kept as the oracle
for what replaced it.  The queries that read the carrier as a point set,
mask sets, meshes and which cubes meet the carrier,
scan merged carrier boxes without building cells; they are checked
against ``_old_scan`` over every carrier cell.  An open set's complement
is one int bitboard over its arrangement; it is checked against
``_old_uncovered_closures``, a verbatim copy of the scan-based build.
"""

import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import effdim.covers_nerve as cn
from effdim import (
    Box,
    OpenSet,
    PointCloud,
    SymbolicCarrier,
    ball,
    cantor_carrier,
    carpet_descriptor,
    interval_carrier,
    sponge_descriptor,
)
from effdim._rat import ONE, ZERO, max_dist
from effdim.ball_calculus import PreconditionError
from effdim.covers_nerve import Bounds, IntBounds

F = Fraction
GRID = 24  # every drawn coordinate is a multiple of 1/GRID, so cuts coincide often
# ...except in the mixed covers, whose coordinates are multiples of one of these
MIXED = (24, 35, 7, 2**40)


# --- reference: the global loops, verbatim ---------------------------------


def _axis_cells(lo: Fraction, hi: Fraction, cuts: Iterable[Fraction]):
    vals = sorted({lo, hi} | {c for c in cuts if lo < c < hi})
    out = []
    for t, v in enumerate(vals):
        out.append((v, v, v))
        if t + 1 < len(vals):
            nxt = vals[t + 1]
            out.append(((v + nxt) / 2, v, nxt))
    return out


def _iter_cells(box: Box, cubes: Sequence[Bounds]) -> Iterator[tuple[tuple[Fraction, ...], Bounds]]:
    per_axis = []
    for a, (lo, hi) in enumerate(box.bounds):
        cuts = [c[a][0] for c in cubes] + [c[a][1] for c in cubes]
        per_axis.append(_axis_cells(lo, hi, cuts))
    for combo in itertools.product(*per_axis):
        rep = tuple(c[0] for c in combo)
        closure = tuple((c[1], c[2]) for c in combo)
        yield rep, closure


def _unit_bounds(dim: int) -> Bounds:
    return tuple((ZERO, ONE) for _ in range(dim))


def _in_cube(coords: Sequence[Fraction], cube: Bounds) -> bool:
    return all(lo < c < hi for (lo, hi), c in zip(cube, coords))


def _dist_to_bounds(coords: Sequence[Fraction], bounds: Bounds) -> Fraction:
    d = ZERO
    for c, (lo, hi) in zip(coords, bounds):
        if c < lo:
            d = max(d, lo - c)
        elif c > hi:
            d = max(d, c - hi)
    return d


def _carrier_masks(members, carrier) -> set[frozenset[int]]:
    all_cubes = [cube for m in members for cube in m.cubes()]
    masks: set[frozenset[int]] = set()
    if isinstance(carrier, PointCloud):
        for p in carrier.points:
            masks.add(frozenset(i for i, m in enumerate(members) if m.contains(p)))
        return masks
    for box in carrier.boxes():
        for rep, _ in _iter_cells(box, all_cubes):
            masks.add(
                frozenset(
                    i
                    for i, m in enumerate(members)
                    if any(_in_cube(rep, cube) for cube in m.cubes())
                )
            )
    return masks


def _mult_exceeds(members, carrier, limit: int) -> bool:
    if isinstance(carrier, PointCloud):
        return any(
            sum(1 for m in members if m.contains(p)) > limit for p in carrier.points
        )
    all_cubes = [cube for m in members for cube in m.cubes()]
    for box in carrier.boxes():
        for rep, _ in _iter_cells(box, all_cubes):
            hits = 0
            for m in members:
                if any(_in_cube(rep, cube) for cube in m.cubes()):
                    hits += 1
                    if hits > limit:
                        return True
    return False


def _first_uncovered(members, carrier):
    if isinstance(carrier, PointCloud):
        for p in carrier.points:
            if not any(m.contains(p) for m in members):
                return p
        return None
    all_cubes = [cube for m in members for cube in m.cubes()]
    for box in carrier.boxes():
        for rep, _ in _iter_cells(box, all_cubes):
            if not any(any(_in_cube(rep, c) for c in m.cubes()) for m in members):
                return rep
    return None


def complement_distance(coords, s: OpenSet):
    box = Box(_unit_bounds(s.dim))
    cubes = s.cubes()
    if len(cubes) == 1:
        cube = cubes[0]
        if not all(lo < c < hi for (lo, hi), c in zip(cube, coords)):
            return ZERO
        best = None
        for a, ((clo, chi), (blo, bhi)) in enumerate(zip(cube, box.bounds)):
            if clo >= blo:
                d = coords[a] - clo
                best = d if best is None else min(best, d)
            if chi <= bhi:
                d = chi - coords[a]
                best = d if best is None else min(best, d)
        return best
    best = None
    for rep, closure in _iter_cells(box, cubes):
        if not any(_in_cube(rep, cube) for cube in cubes):
            d = _dist_to_bounds(coords, closure)
            best = d if best is None else min(best, d)
    return best


def _closed_family_covers(family, carrier) -> bool:
    """Does the family of closed boxes cover the carrier?  The check
    ``shrink_cover`` made of its closed family before it checked only
    its open one."""
    if isinstance(carrier, PointCloud):
        return all(
            any(b.contains(p) for boxes in family for b in boxes)
            for p in carrier.points
        )
    closed = [b.bounds for boxes in family for b in boxes]
    for box in carrier.boxes():
        # cut by the closed boxes meeting this one only: the others hold none of its cells
        near = [
            c for c in closed if all(clo <= bhi and blo <= chi for (blo, bhi), (clo, chi) in zip(box.bounds, c))
        ]
        for rep, _ in _iter_cells(box, near):
            if not any(Box(c).contains(rep) for c in near):
                return False
    return True


def _subset_within(inner: OpenSet, outer: OpenSet, carrier) -> bool:
    if isinstance(carrier, PointCloud):
        return all(outer.contains(p) for p in carrier.points if inner.contains(p))
    cubes = list(inner.cubes()) + list(outer.cubes())
    for box in carrier.boxes():
        for rep, _ in _iter_cells(box, cubes):
            if any(_in_cube(rep, c) for c in inner.cubes()) and not any(
                _in_cube(rep, c) for c in outer.cubes()
            ):
                return False
    return True


def _pieces_within(s: OpenSet, region: Sequence[Box]) -> list[Bounds]:
    return [
        tuple((max(blo, clo), min(bhi, chi)) for (blo, bhi), (clo, chi) in zip(box.bounds, cube))
        for box in region
        for cube in s.cubes()
        if all(clo < bhi and chi > blo for (blo, bhi), (clo, chi) in zip(box.bounds, cube))
    ]


def _diam_within(s: OpenSet, carrier) -> Fraction:
    if isinstance(carrier, PointCloud):
        inside = [p for p in carrier.points if s.contains(p)]
        best = ZERO
        for i, p in enumerate(inside):
            for q in inside[i:]:
                best = max(best, max_dist(p, q))
        return best
    pieces = _pieces_within(s, carrier.boxes())
    best = ZERO
    for i, a in enumerate(pieces):
        for b in pieces[i:]:
            gap = max(
                max(ahi - blo, bhi - alo)
                for (alo, ahi), (blo, bhi) in zip(a, b)
            )
            best = max(best, gap)
    return best


# --- reference: the Fraction kernels the int kernels replaced, verbatim -----


def _slab_distance(coords, s: OpenSet):
    """A single cube's complement distance as unit-box slabs, on Fractions.

    complement_distance's former single-cube branch; it agrees with the
    closures only at points of the unit box.
    """
    cubes = s.cubes()
    cube = cubes[0]
    if not all(lo < c < hi for (lo, hi), c in zip(cube, coords)):
        return ZERO
    best = None
    for a, ((clo, chi), (blo, bhi)) in enumerate(zip(cube, _unit_bounds(s.dim))):
        if clo >= blo:
            d = coords[a] - clo
            best = d if best is None else min(best, d)
        if chi <= bhi:
            d = chi - coords[a]
            best = d if best is None else min(best, d)
    return best


def _fraction_rank(rows: list[list[Fraction]]) -> int:
    mat = [row[:] for row in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for col in range(cols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = mat[rank][col]
        mat[rank] = [v / inv for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def _shrink_cover(U):
    """shrink_cover with its margin over Fraction representatives, and
    with the closed family's coverage checked before the open one's.

    The representatives come from the global cell loop above, the
    closed check is ``_closed_family_covers`` above and the open one
    ``_first_uncovered``; the rest is verbatim.
    """
    all_cubes = [cube for m in U.members for cube in m.cubes()]
    if isinstance(U.carrier, PointCloud):
        boxes = [Box(tuple((c, c) for c in p)) for p in U.carrier.points]
    else:
        boxes = U.carrier.boxes()
    units = [rep for box in boxes for rep, _ in _iter_cells(box, all_cubes)]
    lam = None
    for u in units:
        depth = ZERO
        for m in U.members:
            d = complement_distance(u, m)
            d = ONE if d is None else min(d, ONE)
            depth = max(depth, d)
        if depth == 0:
            raise PreconditionError("no positive margin")
        lam = depth if lam is None else min(lam, depth)
    if lam is None:
        raise PreconditionError("no positive margin")
    for _ in range(64):
        closed = []
        open_ = []
        ok = True
        for m in U.members:
            boxes = tuple(
                b for b in (cn._shrunk_box(cube, lam / 2) for cube in m.cubes()) if b
            )
            v = cn._shrunk_set(m, lam * 3 / 4)
            if not boxes or v is None:
                ok = False
                break
            closed.append(boxes)
            open_.append(v)
        if ok and _closed_family_covers(closed, U.carrier):
            if _first_uncovered(open_, U.carrier) is None:
                return tuple(closed), tuple(open_)
        lam /= 2
    raise PreconditionError("no positive margin")


# --- reference: the cell scan and the complement it built, verbatim ---------
# (module helpers that are still in use are read from ``cn``)


def _old_axis_bits(
    lo: int, hi: int, spans: Sequence[tuple[int, int]]
) -> list[tuple[int, tuple[int, int], int]]:
    cells = cn._axis_cells(lo, hi, [v for span in spans for v in span])
    reps = [rep for rep, _, _ in cells]
    # the cells holding span j are the run reps[s:e]; flipping bit j at
    # both ends makes the running XOR the bitset
    flips = [0] * (len(cells) + 1)
    for j, (slo, shi) in enumerate(spans):
        s, e = bisect_right(reps, slo), bisect_left(reps, shi)
        flips[s] ^= 1 << j
        flips[e] ^= 1 << j
    bits = 0
    out = []
    for (rep, clo, chi), flip in zip(cells, flips):
        bits ^= flip
        out.append((rep, (clo, chi), bits))
    return out


def _old_scan(
    box: IntBounds, groups: Sequence[Sequence[IntBounds]]
) -> Iterator[tuple[tuple[int, ...], IntBounds, frozenset[int]]]:
    local = cn._local(box, groups)
    per_axis = [_old_axis_bits(lo, hi, [c[a] for _, c in local]) for a, (lo, hi) in enumerate(box)]
    masks: dict[int, frozenset[int]] = {}
    for combo in itertools.product(*per_axis):
        rep, closure, bitsets = zip(*combo)
        bits = bitsets[0]
        for b in bitsets[1:]:
            bits &= b
        mask = masks.get(bits)
        if mask is None:
            mask = masks[bits] = cn._mask(bits, local)
        yield rep, closure, mask


def _old_uncovered_closures(s: OpenSet) -> tuple[int, tuple[IntBounds, ...]]:
    g, _, (cubes,) = cn._grid([_unit_bounds(s.dim)], [s])
    box = tuple((0, g) for _ in range(s.dim))
    uncovered = [(rep, closure) for rep, closure, mask in _old_scan(box, [cubes]) if not mask]
    facets = set()
    for rep, closure in uncovered:
        for a, (lo, hi) in enumerate(closure):
            if lo != hi:
                facets.add(rep[:a] + (lo,) + rep[a + 1 :])
                facets.add(rep[:a] + (hi,) + rep[a + 1 :])
    return g, tuple(closure for rep, closure in uncovered if rep not in facets)


# --- random covers ---------------------------------------------------------


@dataclass(frozen=True)
class BoxCarrier:
    """A carrier given by explicit closed boxes; zero-width axes allowed."""

    dim: int
    cells: tuple[Box, ...]

    def boxes(self) -> tuple[Box, ...]:
        return self.cells


def _cover(members, carrier) -> cn.FiniteCover:
    """FiniteCover(members, carrier, validate=False) on any carrier drawn here.

    FiniteCover refuses a carrier that is neither a PointCloud nor a
    SymbolicCarrier.  The scans read a BoxCarrier's explicit boxes as
    they read a cloud's, so its cover is assembled field by field.
    """
    if not isinstance(carrier, BoxCarrier):
        return cn.FiniteCover(members, carrier, validate=False)
    U = object.__new__(cn.FiniteCover)
    U.__dict__.update(members=members, carrier=carrier, parents=None, validate=False)
    return U


def grid(lo: int, hi: int):
    return st.integers(lo, hi).map(lambda k: F(k, GRID))


def mixed(lo: int, hi: int):
    """Values in [lo/GRID, hi/GRID] that are multiples of 1/d for a d in MIXED."""
    return st.sampled_from(MIXED).flatmap(
        lambda d: st.integers(-(-lo * d // GRID), hi * d // GRID).map(lambda k: F(k, d))
    )


COORDS = st.sampled_from((grid, mixed))


@st.composite
def boxes_in_unit(draw, dim: int, coord=grid) -> Box:
    bounds = []
    for _ in range(dim):
        lo = draw(coord(0, GRID))
        width = draw(st.sampled_from((0, 0, 1, 2, 3, 6, 8, 12, 24)))
        bounds.append((lo, min(lo + F(width, GRID), ONE)))
    return Box(tuple(bounds))


@st.composite
def open_sets(draw, dim: int, max_balls: int, coord=grid) -> OpenSet:
    # radii up to 1/2 let cubes centred near a face poke past the unit box
    n = draw(st.integers(1, max_balls))
    return OpenSet(
        tuple(
            ball(tuple(draw(coord(0, GRID)) for _ in range(dim)), draw(coord(1, 12)))
            for _ in range(n)
        )
    )


SYMBOLIC = {
    1: lambda depth: (interval_carrier(depth), cantor_carrier(depth)),
    2: lambda depth: (SymbolicCarrier(carpet_descriptor(), min(depth, 1)),),
    3: lambda depth: (SymbolicCarrier(sponge_descriptor(), min(depth, 1)),),
}
# (members, balls per member) caps, so the global reference stays cheap
SIZES = {1: (4, 3), 2: (4, 2), 3: (3, 1)}


@st.composite
def carriers(draw, dim: int, coord=grid):
    kind = draw(st.sampled_from(("boxes", "symbolic", "cloud")))
    if kind == "boxes":
        n = draw(st.integers(1, 3))
        return BoxCarrier(dim, tuple(draw(boxes_in_unit(dim, coord)) for _ in range(n)))
    if kind == "symbolic":
        return draw(st.sampled_from(SYMBOLIC[dim](draw(st.integers(0, 2)))))
    n = draw(st.integers(1, 6))
    return PointCloud(dim, tuple(tuple(draw(coord(0, GRID)) for _ in range(dim)) for _ in range(n)))


@st.composite
def covers(draw):
    """(members, carrier) in one dimension; members need not cover.

    Half the covers mix coprime denominators, so that a wrong common grid
    would show; the others share the one denominator GRID.
    """
    coord = draw(COORDS)
    dim = draw(st.integers(1, 3))
    max_members, max_balls = SIZES[dim]
    n = draw(st.integers(1, max_members))
    members = tuple(draw(open_sets(dim, max_balls, coord)) for _ in range(n))
    return members, draw(carriers(dim, coord))


# --- the scan and its consumers against the reference ----------------------


@given(covers())
def test_scan_masks_equal_global_masks_per_box(case):
    members, carrier = case
    groups = [m.cubes() for m in members]
    all_cubes = [c for g in groups for c in g]
    boxes = carrier.boxes() if not isinstance(carrier, PointCloud) else (
        Box(_unit_bounds(carrier.dim)),
    )
    # the scan reads the boxes and cubes as ints on their common grid
    _, int_boxes, int_groups = cn._grid([b.bounds for b in boxes], members)
    for box, int_box in zip(boxes, int_boxes):
        local = {mask for _, _, mask in _old_scan(int_box, int_groups)}
        whole = {
            frozenset(i for i, g in enumerate(groups) if any(_in_cube(rep, c) for c in g))
            for rep, _ in _iter_cells(box, all_cubes)
        }
        assert local == whole
    assert cn._Pass(members, carrier).masks == _carrier_masks(members, carrier)


@given(covers())
def test_scan_cells_are_homogeneous_and_inside_the_box(case):
    members, carrier = case
    groups = [m.cubes() for m in members]
    if isinstance(carrier, PointCloud):
        boxes = tuple(Box(tuple((c, c) for c in p)) for p in carrier.points)
    else:
        boxes = carrier.boxes()
    g, int_boxes, int_groups = cn._grid([b.bounds for b in boxes], members)

    def cells(int_box):
        """The scan's cells of a box, read back off the grid as Fractions."""
        for rep, closure, mask in _old_scan(int_box, int_groups):
            yield tuple(F(r, g) for r in rep), tuple((F(lo, g), F(hi, g)) for lo, hi in closure), mask

    if isinstance(carrier, PointCloud):
        # a cloud point p is read as the zero-width box [p, p]: its one cell
        # is p, and the mask holds the members containing p
        for p, int_box in zip(carrier.points, int_boxes):
            assert [(rep, mask) for rep, _, mask in cells(int_box)] == [
                (p, frozenset(i for i, m in enumerate(members) if m.contains(p)))
            ]
    for box, int_box in zip(boxes, int_boxes):
        for rep, closure, mask in cells(int_box):
            assert box.contains(rep)
            assert Box(closure).contains(rep)
            assert all(blo <= lo and hi <= bhi for (lo, hi), (blo, bhi) in zip(closure, box.bounds))
            # the closure's corners lie in the closure of every member holding rep
            for corner in itertools.product(*closure):
                for i in mask:
                    assert any(Box(c).contains(corner) for c in groups[i])


@given(covers())
def test_first_uncovered_agrees(case):
    # coverage is read off the family's mask set, no empty mask, which is
    # what FiniteCover's validation reads
    members, carrier = case
    covered = _first_uncovered(members, carrier) is None
    assert (frozenset() not in cn._Pass(members, carrier).masks) == covered
    if not isinstance(carrier, BoxCarrier):
        try:
            cn.FiniteCover(members, carrier)
        except PreconditionError as exc:
            assert not covered and str(exc) == "carrier point not covered by any member"
        else:
            assert covered


@given(covers())
def test_mult_exceeds_agrees_at_every_limit(case):
    # multiplicity is read off the cover's mask set: its largest mask
    members, carrier = case
    mult = cn.cover_multiplicity(_cover(members, carrier))
    for limit in range(len(members) + 2):
        assert (mult > limit) == _mult_exceeds(members, carrier, limit)


@given(st.data())
def test_complement_distance_agrees(data):
    dim = data.draw(st.integers(1, 3))
    coord = data.draw(COORDS)
    s = data.draw(open_sets(dim, SIZES[dim][0], coord))
    for _ in range(3):
        x = tuple(data.draw(coord(0, GRID)) for _ in range(dim))
        assert cn.complement_distance(x, s) == complement_distance(x, s)


@given(st.data())
def test_cached_complement_is_the_maximal_uncovered_closures(data):
    dim = data.draw(st.integers(1, 3))
    s = data.draw(open_sets(dim, SIZES[dim][0]))
    cubes = s.cubes()
    unit = Box(_unit_bounds(dim))
    uncovered = [
        closure
        for rep, closure in _iter_cells(unit, cubes)
        if not any(_in_cube(rep, cube) for cube in cubes)
    ]
    # the cache holds the closures as ints on the set's grid g
    g, int_closures = s._complement
    closures = [tuple((F(lo, g), F(hi, g)) for lo, hi in c) for c in int_closures]
    for closure in closures:
        assert closure in uncovered
        assert not any(
            other != closure and all(olo <= lo and hi <= ohi for (lo, hi), (olo, ohi) in zip(closure, other))
            for other in uncovered
        )
    for _ in range(3):
        x = tuple(data.draw(grid(0, GRID)) for _ in range(dim))
        cached = min((_dist_to_bounds(x, c) for c in closures), default=None)
        assert cached == complement_distance(x, s)


@st.composite
def touching_sets(draw, dim: int, max_balls: int) -> OpenSet:
    """Balls with mixed denominators whose faces often sit on 0 or 1; half
    the sets are one ball, whose complement is the unit box's slabs
    beyond its faces."""
    balls = []
    for _ in range(1 if draw(st.booleans()) else draw(st.integers(2, max_balls))):
        r = draw(mixed(1, 12))
        balls.append(ball(tuple(draw(mixed(0, GRID) | st.sampled_from((r, 1 - r))) for _ in range(dim)), r))
    return OpenSet(tuple(balls))


@given(st.data())
def test_int_distance_agrees_with_the_fraction_kernels(data):
    # the set and each point coordinate draw their denominators apart, so
    # the point's q and the set's grid are coprime as often as not; the
    # point may leave the unit box, where gaps change sign, or sit on a
    # cube face, where strict and weak comparisons part
    dim = data.draw(st.integers(1, 3))
    s = data.draw(touching_sets(dim, SIZES[dim][0]))
    g, int_closures = s._complement
    closures = [tuple((F(lo, g), F(hi, g)) for lo, hi in c) for c in int_closures]
    # every face value, and the thirds between them, nearer one face than
    # the other; they lie inside cubes more often than not
    faces = sorted({v for cube in s.cubes() for pair in cube for v in pair})
    values = faces + [a + (b - a) * t for a, b in zip(faces, faces[1:]) for t in (F(1, 3), F(2, 3))]
    for _ in range(6):
        x = tuple(data.draw(mixed(-12, 36) | st.sampled_from(values)) for _ in range(dim))
        expected = min((_dist_to_bounds(x, c) for c in closures), default=None)
        assert cn.complement_distance(x, s) == expected
        if len(s.cubes()) == 1 and all(ZERO <= c <= ONE for c in x):
            # in the unit box, a single cube's closures are its slabs
            assert expected == _slab_distance(x, s)


def test_one_ball_and_its_nested_copy_agree_outside_the_box():
    # the set (1/4, 3/4) is 1 from x = 2, however its balls are listed;
    # (-1/24, 1/24) read in [0, 1] leaves [1/24, 1], 1/12 from x = -1/24
    cases = [
        ([((F(1, 2),), F(1, 4))], [((F(1, 2),), F(1, 8))], (F(2),), ONE),
        ([((ZERO,), F(1, 24))], [((ZERO,), F(1, 48))], (F(-1, 24),), F(1, 12)),
    ]
    for outer, inner, x, expected in cases:
        one = OpenSet(tuple(ball(c, r) for c, r in outer))
        nested = OpenSet(tuple(ball(c, r) for c, r in outer + inner))
        assert cn.complement_distance(x, one) == cn.complement_distance(x, nested) == expected


def test_single_cube_faces_on_the_box_bound_slabs():
    # a face on 0 or 1 bounds a slab, the box's own facet; a face past the
    # box bounds none
    cases = [
        ((F(3, 4),), F(1, 4), (F(7, 8),), F(1, 8)),
        ((F(1, 4),), F(1, 4), (F(1, 8),), F(1, 8)),
        ((F(1, 2), F(3, 4)), F(1, 4), (F(1, 2), F(7, 8)), F(1, 8)),
        ((F(1, 2),), F(3, 4), (F(1, 3),), None),
    ]
    for centre, radius, x, expected in cases:
        s = OpenSet((ball(centre, radius),))
        assert cn.complement_distance(x, s) == _slab_distance(x, s) == expected


SCALARS = st.sampled_from(MIXED).flatmap(
    lambda d: st.integers(-2 * d, 2 * d).filter(bool).map(lambda k: F(k, d))
)
ENTRIES = st.just(ZERO) | SCALARS


@st.composite
def matrices(draw):
    """Wide, square and tall rows with zero rows, copies, multiples and
    combinations mixed in; a multiple or combination carries denominators
    of its own, so a row is rank-deficient only if its scaling is exact."""
    cols = draw(st.integers(0, 5))
    row = st.lists(ENTRIES, min_size=cols, max_size=cols)
    rows = draw(st.lists(row, max_size=4))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("zero", "copy", "multiple", "combination")))
        if kind == "zero" or not rows:
            rows.append([ZERO] * cols)
        elif kind == "copy":
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "multiple":
            s = draw(SCALARS)
            rows.append([s * v for v in draw(st.sampled_from(rows))])
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(SCALARS), draw(SCALARS)
            rows.append([s * u + t * v for u, v in zip(a, b)])
    return draw(st.permutations(rows))


@given(matrices())
def test_rank_agrees_with_fraction_elimination(rows):
    # _rank reads int rows; scaling a row by the lcm of its denominators keeps its span
    scaled = []
    for row in rows:
        q = math.lcm(*(v.denominator for v in row))
        scaled.append([v.numerator * (q // v.denominator) for v in row])
    assert cn._rank(scaled) == _fraction_rank(rows)


def _corner_padding(dim: int) -> tuple[OpenSet, ...]:
    """2^dim single-ball members centred at 1/4 or 3/4 per axis, radius 5/12."""
    corners = itertools.product((F(1, 4), F(3, 4)), repeat=dim)
    return tuple(OpenSet((ball(c, F(5, 12)),)) for c in corners)


@st.composite
def shrinkable_covers(draw):
    """covers(), two thirds of them padded to a cover of the unit box.

    One padding is ``_corner_padding``, so that the margin is positive
    and the shrink is built, not only refused.  The other is one member
    holding the whole box, which has no complement and so depth 1
    everywhere.
    """
    members, carrier = draw(covers())
    padding = draw(st.sampled_from(("none", "corners", "whole")))
    if padding == "corners":
        members += _corner_padding(carrier.dim)
    elif padding == "whole":
        members += (OpenSet((ball((F(1, 2),) * carrier.dim, F(3, 4)),)),)
    return members, carrier


@given(shrinkable_covers())
# A ball at the origin whose facets at 3/8 cut sponge cells it does not
# meet: cutting each box only by the cubes meeting it drops those cuts,
# and with them the representatives that set the margin
@example(
    (
        (OpenSet((ball((0, 0, 0), F(3, 8)),)), *_corner_padding(3)),
        SymbolicCarrier(sponge_descriptor(), 1),
    )
)
def test_shrink_cover_agrees(case):
    members, carrier = case
    U = _cover(members, carrier)

    def outcome(shrink):
        try:
            return shrink(U)
        except PreconditionError as exc:
            return str(exc)

    assert outcome(cn.shrink_cover) == outcome(_shrink_cover)


@given(covers(), st.data())
def test_subset_within_agrees(case, data):
    # containment is read off the joint mask set of inner and outer
    members, carrier = case
    inner = data.draw(st.sampled_from(members))
    outer = data.draw(st.sampled_from(members) | open_sets(carrier.dim, 2))
    U = _cover((outer,), carrier)
    expected = (0,) if _subset_within(inner, outer, carrier) else (None,)
    assert cn._parents((inner,), U) == expected


@given(covers(), st.data())
def test_parents_are_first_containing_members(case, data):
    members, carrier = case
    family = data.draw(
        st.lists(st.sampled_from(members) | open_sets(carrier.dim, 2), min_size=1, max_size=3)
    )
    expected = tuple(
        next((i for i, big in enumerate(members) if _subset_within(s, big, carrier)), None)
        for s in family
    )
    assert cn._parents(family, _cover(members, carrier)) == expected


@given(covers())
def test_diam_within_equals_pairwise_maximum(case):
    # each member alone, then the whole family, whose members are all
    # measured on its one grid
    members, carrier = case
    for s in members:
        assert cn.cover_mesh(_cover((s,), carrier)) == _diam_within(s, carrier)
    U = _cover(members, carrier)
    assert cn.cover_mesh(U) == max(_diam_within(s, carrier) for s in members)



# --- reference: the per-cell carrier scan, verbatim -------------------------


def _cell_boxes(carrier) -> tuple[Bounds, ...]:
    if isinstance(carrier, PointCloud):
        return tuple(tuple((c, c) for c in p) for p in carrier.points)
    return tuple(b.bounds for b in carrier.boxes())


def _carrier_cells(carrier, members):
    _, boxes, groups = cn._grid(_cell_boxes(carrier), members)
    return (cell for box in boxes for cell in _old_scan(box, groups))


def _scanned_masks(members, carrier) -> frozenset[frozenset[int]]:
    return frozenset(mask for _, _, mask in _carrier_cells(carrier, members))


# --- the merged-box, mask-only scan against the per-cell scan ---------------


@given(covers())
def test_region_masks_equal_the_cell_scan(case):
    members, carrier = case
    assert cn._Pass(members, carrier).masks == _scanned_masks(members, carrier)


@given(covers())
def test_region_mesh_and_meeting_equal_the_cells(case):
    # the closure of cube ∩ carrier is a property of the point set, so the
    # merged boxes give the same spans, and meet the same cubes, as the
    # cells, whose pieces _diam_within compares pairwise
    members, carrier = case
    mesh = max(_diam_within(s, carrier) for s in members)
    assert cn.cover_mesh(_cover(members, carrier)) == mesh
    _, merged, int_groups = cn._grid(cn._carrier_region(carrier), members)
    _, cells, cell_groups = cn._grid(_cell_boxes(carrier), members)
    for cubes, cell_cubes in zip(int_groups, cell_groups):
        for cube, cell_cube in zip(cubes, cell_cubes):
            meets = any(cn._meets(b, cube) for b in merged)
            assert meets == any(cn._meets(b, cell_cube) for b in cells)


# --- the bitboard complement against the scan-based build -------------------


@st.composite
def complement_sets(draw) -> OpenSet:
    """Sets in one to three dimensions as open_sets or touching_sets draw
    them, at times with a nested copy of one ball, or with a ball around
    the centre that holds the box's interior (radius 1/2, leaving its
    boundary) or all of it (leaving an empty complement)."""
    dim = draw(st.integers(1, 3))
    if draw(st.booleans()):
        s = draw(touching_sets(dim, SIZES[dim][0]))
    else:
        s = draw(open_sets(dim, SIZES[dim][0], draw(COORDS)))
    balls = list(s.balls)
    extra = draw(st.sampled_from(("none", "nested", "centre")))
    if extra == "nested":
        b = draw(st.sampled_from(balls))
        balls.append(ball(b.center.coords, b.radius * draw(st.sampled_from((F(1, 3), F(1, 2), ONE)))))
    elif extra == "centre":
        r = draw(st.sampled_from((F(1, 2), F(3, 4), ONE)))
        balls.insert(draw(st.integers(0, len(balls))), ball((F(1, 2),) * dim, r))
    return OpenSet(tuple(balls))


@given(complement_sets())
def test_bitboard_complement_equals_the_scan_based_build(s):
    g, closures = cn._uncovered_closures(s)
    old_g, old_closures = _old_uncovered_closures(s)
    assert g == old_g
    # the same closures, each once; only their order may differ
    assert len(closures) == len(set(closures)) == len(old_closures)
    assert set(closures) == set(old_closures)


def test_arrangement_cap(monkeypatch):
    # (1/4, 3/4) cuts [0, 1] into 7 cells: 0, (0, 1/4), 1/4, ..., 1
    s = OpenSet((ball((F(1, 2),), F(1, 4)),))
    monkeypatch.setattr(cn, "_CELL_CAP", 7)
    assert set(cn._uncovered_closures(s)[1]) == {((0, 2),), ((6, 8),)}
    monkeypatch.setattr(cn, "_CELL_CAP", 6)
    with pytest.raises(PreconditionError, match="arrangement has more than 6 cells"):
        cn._uncovered_closures(s)
