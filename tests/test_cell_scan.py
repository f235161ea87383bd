"""Differential tests: the cover layer's cell scans against the reference.

``covers_nerve`` reads a family on a carrier without building cells: it
ANDs per-axis bitsets of the cubes meeting each merged carrier box, and
builds an open set's complement on one int bitboard.  The reference,
``tests/cover_reference.py``, cuts every carrier box by every cube facet
and tests one representative per cell with strict inequalities on
Fractions.  Random covers in one to three dimensions, with cubes poking
past the unit box, explicit zero-width carrier boxes and point clouds,
must get the same mask sets, multiplicities, meshes, parents, complement
distances and shrinkings from both.  The kernels read ints on a common
grid, so half the random covers mix coprime denominators.  The length
of ``_echelon`` (fed int rows), their rank, is checked against the
reference's Fraction elimination.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import cover_reference as ref
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
from effdim._rat import ONE, ZERO
from effdim.ball_calculus import PreconditionError

F = Fraction
GRID = 24  # every drawn coordinate is a multiple of 1/GRID, so cuts coincide often
# ...except in the mixed covers, whose coordinates are multiples of one of these
MIXED = (24, 35, 7, 2**40)


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


# --- the cover layer against the reference ---------------------------------


def _data(members, carrier):
    return ref.sets_of(members), ref.carrier_of(carrier)


def _inside(a, b) -> bool:
    """Does the closed box a lie in the closed box b?"""
    return all(blo <= alo and ahi <= bhi for (alo, ahi), (blo, bhi) in zip(a, b))


@given(covers())
def test_scan_masks_equal_global_masks_per_box(case):
    # one box's mask set, read off the cubes meeting it on the family's
    # grid; a cloud is read on the whole unit box
    members, carrier = case
    sets, boxes = _data(members, carrier)
    if isinstance(carrier, PointCloud):
        boxes = (((ZERO, ONE),) * carrier.dim,)
    _, int_boxes, int_groups = cn._grid(boxes, members)
    for box, int_box in zip(boxes, int_boxes):
        assert cn._box_masks(int_box, cn._local(int_box, int_groups)) == ref.masks(sets, (box,))


@given(covers())
def test_scan_cells_are_homogeneous_and_inside_the_box(case):
    # per axis of a carrier box cut by the cubes meeting it, the axis cells
    # are the reference's, and a cube's run [s, e) holds exactly the cells
    # whose representative lies strictly inside the cube's span; a cloud
    # point's zero-width box has one cell per axis
    members, carrier = case
    g, int_boxes, int_groups = cn._grid(ref.carrier_of(carrier), members)
    for int_box in int_boxes:
        local = [cube for _, cube in cn._local(int_box, int_groups)]
        for a, (lo, hi) in enumerate(int_box):
            spans = [c[a] for c in local]
            cells, runs = cn._axis_runs(lo, hi, spans)
            want = ref.axis_cells(F(lo, g), F(hi, g), sorted({F(v, g) for span in spans for v in span}))
            assert [tuple(F(v, g) for v in cell) for cell in cells] == want
            for (slo, shi), (s, e) in zip(spans, runs):
                assert [i for i, (rep, _, _) in enumerate(want) if F(slo, g) < rep < F(shi, g)] == list(range(s, e))


@given(covers())
def test_first_uncovered_agrees(case):
    # coverage is read off the family's mask set, no empty mask, which is
    # what FiniteCover's validation reads
    members, carrier = case
    covered = ref.first_uncovered(*_data(members, carrier)) is None
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
    assert cn.cover_multiplicity(_cover(members, carrier)) == ref.multiplicity(*_data(members, carrier))


@given(st.data())
def test_complement_distance_agrees(data):
    dim = data.draw(st.integers(1, 3))
    coord = data.draw(COORDS)
    s = data.draw(open_sets(dim, SIZES[dim][0], coord))
    for _ in range(3):
        x = tuple(data.draw(coord(0, GRID)) for _ in range(dim))
        assert cn.complement_distance(x, s) == ref.complement_distance(x, ref.balls_of(s), cn._CELL_CAP)


@given(st.data())
def test_cached_complement_is_the_maximal_uncovered_closures(data):
    dim = data.draw(st.integers(1, 3))
    s = data.draw(open_sets(dim, SIZES[dim][0]))
    balls = ref.balls_of(s)
    uncovered = ref.uncovered_cells(balls, cn._CELL_CAP).values()
    # the cache holds the closures as ints on the set's grid g
    g, int_closures = s._complement
    closures = [tuple((F(lo, g), F(hi, g)) for lo, hi in c) for c in int_closures]
    for closure in closures:
        assert closure in uncovered
        assert not any(other != closure and _inside(closure, other) for other in uncovered)
    for _ in range(3):
        x = tuple(data.draw(grid(0, GRID)) for _ in range(dim))
        cached = min((ref.distance(x, c) for c in closures), default=None)
        assert cached == ref.complement_distance(x, balls, cn._CELL_CAP)


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
    balls = ref.balls_of(s)
    # every face value, and the thirds between them, nearer one face than
    # the other; they lie inside cubes more often than not
    faces = sorted({v for cube in s.cubes() for pair in cube for v in pair})
    values = faces + [a + (b - a) * t for a, b in zip(faces, faces[1:]) for t in (F(1, 3), F(2, 3))]
    for _ in range(6):
        x = tuple(data.draw(mixed(-12, 36) | st.sampled_from(values)) for _ in range(dim))
        assert cn.complement_distance(x, s) == ref.complement_distance(x, balls, cn._CELL_CAP)


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
        assert cn.complement_distance(x, s) == ref.complement_distance(x, ref.balls_of(s), cn._CELL_CAP) == expected


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
    # _echelon reads int rows; scaling a row by the lcm of its denominators keeps its span
    scaled = []
    for row in rows:
        q = math.lcm(*(v.denominator for v in row))
        scaled.append([v.numerator * (q // v.denominator) for v in row])
    assert len(cn._echelon(scaled)) == ref.rank(rows)


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
    try:
        closed, open_ = cn.shrink_cover(_cover(members, carrier))
        got = tuple(tuple(b.bounds for b in part) for part in closed), ref.sets_of(open_)
    except PreconditionError as exc:
        got = str(exc)
    try:
        want = ref.shrink_cover(*_data(members, carrier), cn._CELL_CAP)
    except PreconditionError as exc:
        want = str(exc)
    assert got == want


@given(covers(), st.data())
def test_subset_within_agrees(case, data):
    # containment is read off the joint mask set of inner and outer
    members, carrier = case
    inner = data.draw(st.sampled_from(members))
    outer = data.draw(st.sampled_from(members) | open_sets(carrier.dim, 2))
    U = _cover((outer,), carrier)
    assert cn._parents((inner,), U) == ref.parents(ref.sets_of((inner,)), *_data((outer,), carrier))


@given(covers(), st.data())
def test_parents_are_first_containing_members(case, data):
    members, carrier = case
    family = data.draw(
        st.lists(st.sampled_from(members) | open_sets(carrier.dim, 2), min_size=1, max_size=3)
    )
    expected = ref.parents(ref.sets_of(family), *_data(members, carrier))
    assert cn._parents(family, _cover(members, carrier)) == expected


@given(covers())
def test_diam_within_equals_pairwise_maximum(case):
    # each member alone, then the whole family, whose members are all
    # measured on its one grid
    members, carrier = case
    sets, region = _data(members, carrier)
    for s, balls in zip(members, sets):
        assert cn.cover_mesh(_cover((s,), carrier)) == ref.mesh((balls,), region)
    assert cn.cover_mesh(_cover(members, carrier)) == ref.mesh(sets, region)


@given(covers())
def test_region_masks_equal_the_cell_scan(case):
    # the pass reads the merged carrier boxes, the reference every cell
    members, carrier = case
    assert cn._Pass(members, carrier).masks == ref.masks(*_data(members, carrier))


@given(covers())
def test_region_mesh_and_meeting_equal_the_cells(case):
    # the closure of cube ∩ carrier is a property of the point set, so the
    # merged boxes give the same spans, and meet the same cubes, as the
    # cells the reference reads
    members, carrier = case
    sets, cells = _data(members, carrier)
    assert cn.cover_mesh(_cover(members, carrier)) == ref.mesh(sets, cells)
    _, merged, int_groups = cn._grid(cn._carrier_region(carrier), members)
    for int_cubes, balls in zip(int_groups, sets):
        for int_cube, cube in zip(int_cubes, ref.cubes(balls)):
            meets = any(cn._meets(b, int_cube) for b in merged)
            assert meets == any(ref.meets(cube, b) for b in cells)


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
    # the set's grid is twice the lcm of its cube ends' denominators, and
    # its closures are the reference's maximal ones, each once; only their
    # order may differ
    balls = ref.balls_of(s)
    g, int_closures = cn._uncovered_closures(s)
    assert g == 2 * math.lcm(*(v.denominator for cube in ref.cubes(balls) for pair in cube for v in pair))
    closures = [tuple((F(lo, g), F(hi, g)) for lo, hi in c) for c in int_closures]
    want = ref.complement(balls, cn._CELL_CAP)
    assert len(closures) == len(set(closures)) == len(want)
    assert set(closures) == set(want)


def test_arrangement_cap(monkeypatch):
    # (1/4, 3/4) cuts [0, 1] into 7 cells: 0, (0, 1/4), 1/4, ..., 1
    s = OpenSet((ball((F(1, 2),), F(1, 4)),))
    monkeypatch.setattr(cn, "_CELL_CAP", 7)
    assert set(cn._uncovered_closures(s)[1]) == {((0, 2),), ((6, 8),)}
    monkeypatch.setattr(cn, "_CELL_CAP", 6)
    with pytest.raises(PreconditionError, match="arrangement has more than 6 cells"):
        cn._uncovered_closures(s)
