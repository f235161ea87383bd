"""Differential tests: an open set's cubes held as ints on its own denominator.

An ``OpenSet`` holds its cubes once, as ints over one denominator D, and
every grid reads them from there.  The reference, ``tests/cover_reference.py``,
forms each cube as center ± radius on Fractions.  Random sets of one to
four balls in one to three dimensions mix denominators, and half of them
are drawn so that the centers' and radii's denominators exceed the
endpoints' (center 1/4 with radius 1/4 has the cube (0, 1/2)).  The ints
must read back as the reference cubes, every grid as the boxes and cubes
on twice the lcm of their denominators, every complement as the
reference's maximal uncovered closures, and the cover operations must
give the reference's outputs, or raise its errors, under an arrangement
cap that sometimes refuses a set.
"""

import itertools
import math
import pickle
from dataclasses import dataclass, field
from fractions import Fraction
from unittest import mock

import cover_reference as ref
from hypothesis import example, given
from hypothesis import strategies as st

import effdim.covers_nerve as cn
from effdim import FiniteCover, OpenSet, PointCloud, SymbolicCarrier, ball, carpet_descriptor, open_set
from effdim._rat import ONE, ZERO
from effdim.ball_calculus import FormalBall, PreconditionError
from effdim.covers_nerve import Bounds, IntBounds, cantor_carrier, interval_carrier

F = Fraction
# a coordinate's denominator: coprime ones, ones sharing factors, and a large one
DENOMS = (1, 2, 3, 4, 6, 8, 12, 35, 64, 2**40)


@dataclass(frozen=True)
class _OldOpenSet:
    """The dataclass fields of an open set that held its Fraction cubes."""

    balls: tuple[FormalBall, ...]
    _cubes: tuple[Bounds, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_cubes", ref.cubes(ref.balls_of(self)))


# the dataclass repr names the class by its qualified name
_OldOpenSet.__qualname__ = "OpenSet"


# --- random sets -------------------------------------------------------------


def on(d: int, lo: int, hi: int):
    """k/d for the k with lo/64 <= k/d <= hi/64."""
    return st.integers(-(-lo * d // 64), hi * d // 64).map(lambda k: F(k, d))


@st.composite
def ball_specs(draw, dim: int):
    """(center, radius) with mixed denominators, or with the center and radius
    both odd over one even d, so that every endpoint's denominator divides d/2."""
    if draw(st.booleans()):
        d = draw(st.sampled_from((4, 6, 12, 70, 2**41)))
        odd = st.integers(0, (d - 1) // 2).map(lambda k: F(2 * k + 1, d))
        radius = draw(st.integers(0, (3 * d // 4 - 1) // 2).map(lambda k: F(2 * k + 1, d)))
        return tuple(draw(odd) for _ in range(dim)), radius
    center = tuple(draw(st.sampled_from(DENOMS).flatmap(lambda d: on(d, 0, 64))) for _ in range(dim))
    return center, draw(st.sampled_from(DENOMS[1:]).flatmap(lambda d: on(d, 1, 48)))


@st.composite
def set_specs(draw, dim: int):
    return tuple(draw(ball_specs(dim)) for _ in range(draw(st.integers(1, 4))))


def _set(spec) -> OpenSet:
    return open_set(*(ball(c, r) for c, r in spec))


@st.composite
def families(draw):
    """One to four sets of one dimension, 1 to 3, points in and around the unit
    box, a carrier and an arrangement cap that sometimes refuses a set."""
    dim = draw(st.integers(1, 3))
    specs = tuple(draw(set_specs(dim)) for _ in range(draw(st.integers(1, 4))))
    coord = st.sampled_from(DENOMS).flatmap(lambda d: on(d, -8, 72))
    points = tuple(tuple(draw(coord) for _ in range(dim)) for _ in range(draw(st.integers(1, 3))))
    inside = tuple(p for p in points if all(ZERO <= c <= ONE for c in p))
    carriers = [PointCloud(dim, inside)]
    if dim == 1:
        carriers += [interval_carrier(2), cantor_carrier(2)]
    elif dim == 2:
        carriers.append(SymbolicCarrier(carpet_descriptor(), 1))
    carrier = draw(st.sampled_from(carriers))
    cap = draw(st.sampled_from((cn._CELL_CAP,) * 7 + (12,)))
    return specs, points, carrier, cap


# --- the ints against the Fraction cubes ---------------------------------------


QUARTERS = ((((F(1, 4),), F(1, 4)),), (((F(1, 3),), F(1, 6)),))


@given(st.integers(1, 3).flatmap(set_specs))
@example(QUARTERS[0])
@example(QUARTERS[1])
@example((((F(1, 4), F(3, 4)), F(1, 4)), ((F(1, 2), F(1, 2)), F(1, 2))))
def test_ints_over_d_are_the_fraction_cubes(spec):
    s = _set(spec)
    den, cubes = s._ints
    want = ref.cubes(ref.balls_of(s))
    assert [[(F(lo, den), F(hi, den)) for lo, hi in cube] for cube in cubes] == [list(c) for c in want]
    assert all(type(v) is int for cube in cubes for pair in cube for v in pair)
    assert den == math.lcm(*(v.denominator for cube in want for pair in cube for v in pair))
    assert s.cubes() == want


def test_a_center_and_radius_over_4_give_ints_over_2():
    # (1/4 − 1/4, 1/4 + 1/4) = (0, 1/2): D is 2, not the 4 of the center and radius
    s = _set(QUARTERS[0])
    assert s._ints == (2, (((0, 1),),))
    # (1/3 − 1/6, 1/3 + 1/6) = (1/6, 1/2)
    assert _set(QUARTERS[1])._ints == (6, (((1, 3),),))


@given(families())
@example((QUARTERS, ((F(1, 4),), (F(1, 2),)), PointCloud(1, ((F(1, 4),), (F(1, 2),))), cn._CELL_CAP))
def test_grids_and_complements_equal_the_fraction_ones(case):
    # on g, twice the lcm of every box and cube end's denominator, the ints
    # read back as the boxes and the reference cubes; a set's complement is
    # the reference's maximal uncovered closures on its own grid
    specs, points, carrier, _ = case
    sets = [_set(spec) for spec in specs]
    cubes = [list(ref.cubes(ref.balls_of(s))) for s in sets]
    for boxes in (cn._carrier_region(carrier), cn._carrier_boxes(carrier), ()):
        g, int_boxes, groups = cn._grid(boxes, sets)
        dens = {v.denominator for b in [*boxes, *itertools.chain(*cubes)] for pair in b for v in pair}
        assert g == 2 * math.lcm(*dens)
        assert [_on(b, g) for b in int_boxes] == list(boxes)
        assert [[_on(c, g) for c in group] for group in groups] == cubes
    for s, own in zip(sets, cubes):
        g, closures = cn._uncovered_closures(s)
        assert g == 2 * math.lcm(*(v.denominator for c in own for pair in c for v in pair))
        assert sorted(_on(c, g) for c in closures) == sorted(ref.complement(ref.balls_of(s), cn._CELL_CAP))


def _on(bounds: IntBounds, g: int) -> Bounds:
    """Int bounds on the grid g as Fractions."""
    return tuple((F(lo, g), F(hi, g)) for lo, hi in bounds)


# --- the cover operations against the reference ------------------------------


def outcome(fn, *args):
    """The result, or the error's type and text; ValueError covers PreconditionError."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def _answers(specs, points, carrier) -> list:
    """complement_distance per (point, set), and on the cover of fresh sets
    kappa_map per point, cover_mesh and shrink_cover, as plain data."""
    members = tuple(_set(spec) for spec in specs)
    out = [outcome(cn.complement_distance, p, m) for p in points for m in members]
    U = outcome(FiniteCover, members, carrier)
    if not isinstance(U, FiniteCover):
        return out + [U]
    vertices = [m.balls[0].center for m in members]
    out += [outcome(lambda p: cn.kappa_map(p, U, vertices).coords, p) for p in points]

    def shrink():
        closed, open_ = cn.shrink_cover(U)
        return tuple(tuple(b.bounds for b in part) for part in closed), ref.sets_of(open_)

    return out + [outcome(cn.cover_mesh, U), outcome(shrink)]


def _reference_answers(specs, points, carrier, cap) -> list:
    sets = ref.sets_of(_set(spec) for spec in specs)
    region = ref.carrier_of(carrier)
    out = [outcome(ref.complement_distance, p, s, cap) for p in points for s in sets]
    if ref.first_uncovered(sets, region) is not None:
        return out + [(PreconditionError, "carrier point not covered by any member")]
    vertices = [s[0][0] for s in sets]
    out += [outcome(ref.kappa_map, p, sets, vertices, cap) for p in points]
    return out + [outcome(ref.mesh, sets, region), outcome(ref.shrink_cover, sets, region, cap)]


@given(families())
@example((QUARTERS, ((F(1, 4),), (F(1, 3),)), PointCloud(1, ((F(1, 4),), (F(1, 3),))), cn._CELL_CAP))
@example((QUARTERS, ((F(1, 4),),), interval_carrier(2), 4))
def test_cover_operations_equal_the_fraction_grid_ones(case):
    specs, points, carrier, cap = case
    with mock.patch.object(cn, "_CELL_CAP", cap):
        got = _answers(specs, points, carrier)
    assert got == _reference_answers(specs, points, carrier, cap)


# --- the dataclass surface ----------------------------------------------------


@given(st.integers(1, 2).flatmap(lambda dim: st.lists(set_specs(dim), min_size=2, max_size=2)))
@example([QUARTERS[0], (((F(2, 8),), F(2, 8)),)])
def test_equality_hash_and_repr_are_the_old_dataclass_ones(pair):
    new = [_set(spec) for spec in pair]
    old = [_OldOpenSet(s.balls) for s in new]
    for n, o in zip(new, old):
        assert repr(n) == repr(o) and hash(n) == hash(o)
        twin = pickle.loads(pickle.dumps(n))
        assert twin == n and hash(twin) == hash(n) and twin._ints == n._ints
    assert (new[0] == new[1]) == (old[0] == old[1])
    assert (hash(new[0]) == hash(new[1])) == (hash(old[0]) == hash(old[1]))
