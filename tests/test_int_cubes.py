"""Differential tests: an open set's cubes held as ints on its own denominator.

An ``OpenSet`` holds its cubes once, as ints over one denominator D, and
every grid reads them from there.  The reference functions below are the
Fraction path it replaced: ``_fraction_cubes`` forms center ± radius per
axis, ``_fraction_grid`` is a verbatim copy of the grid that read those
Fractions' numerators and denominators, and
``_fraction_uncovered_closures`` a verbatim copy of the complement build
on that grid.  Random sets of one to four balls in one to three
dimensions mix denominators, and half of them are drawn so that the
centers' and radii's denominators exceed the endpoints' (center 1/4 with
radius 1/4 has the cube (0, 1/2)).  The ints must equal the reference
cubes, every grid and complement must equal the reference's, and the
cover operations must give the same outputs, or raise the same errors,
when the reference grid and complement are patched in.
"""

import itertools
import math
import operator
import pickle
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence
from unittest import mock

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


# --- reference: the Fraction cubes and grid, verbatim -----------------------


def _fraction_cubes(s: OpenSet) -> tuple[Bounds, ...]:
    return tuple(tuple((c - b.radius, c + b.radius) for c in b.center.coords) for b in s.balls)


def _fraction_grid(
    boxes: Sequence[Bounds], groups: Sequence[Sequence[Bounds]]
) -> tuple[int, list[IntBounds], list[list[IntBounds]]]:
    dens = {v.denominator for b in itertools.chain(boxes, *groups) for pair in b for v in pair}
    g = 2 * math.lcm(*dens)
    mult = {d: g // d for d in dens}

    def scale(b: Bounds) -> IntBounds:
        return tuple(
            (lo.numerator * mult[lo.denominator], hi.numerator * mult[hi.denominator]) for lo, hi in b
        )

    return g, [scale(b) for b in boxes], [[scale(c) for c in cubes] for cubes in groups]


def _fraction_grid_of_sets(boxes, sets):
    """The reference grid with ``_grid``'s arguments: the sets' Fraction cubes."""
    return _fraction_grid(boxes, [_fraction_cubes(s) for s in sets])


def _fraction_uncovered_closures(s: OpenSet) -> tuple[int, tuple[IntBounds, ...]]:
    g, _, (cubes,) = _fraction_grid([((ZERO, ONE),) * s.dim], [_fraction_cubes(s)])
    local = [cube for _, cube in cn._local(((0, g),) * s.dim, [cubes])]
    axes = [cn._axis_runs(0, g, [c[a] for c in local]) for a in range(s.dim)]
    *strides, n = itertools.accumulate([len(c) for c, _ in axes], operator.mul, initial=1)
    if n > cn._CELL_CAP:
        raise PreconditionError(f"open set's arrangement has more than {cn._CELL_CAP} cells")
    covered = 0
    for cube_runs in zip(*(runs for _, runs in axes)):
        board = 1
        for (lo, hi), st_ in zip(cube_runs, strides):
            board = board * cn._repunit(st_, hi - lo) << lo * st_
        covered |= board
    uncovered = covered ^ ((1 << n) - 1)
    dominated = 0
    for (cells, _), st_ in zip(axes, strides):
        period = st_ * len(cells)
        odd = (((1 << st_) - 1) << st_) * cn._repunit(2 * st_, len(cells) // 2)
        inner = uncovered & odd * cn._repunit(period, n // period)
        dominated |= inner << st_ | inner >> st_
    bits = bin(uncovered & ~dominated)[:1:-1]
    closures = []
    k = bits.find("1")
    while k >= 0:
        closures.append(
            tuple(cells[k // st_ % len(cells)][1:] for (cells, _), st_ in zip(axes, strides))
        )
        k = bits.find("1", k + 1)
    return g, tuple(closures)


@dataclass(frozen=True)
class _OldOpenSet:
    """The dataclass fields of an open set that held its Fraction cubes."""

    balls: tuple[FormalBall, ...]
    _cubes: tuple[Bounds, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_cubes", _fraction_cubes(self))


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
    want = _fraction_cubes(s)
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
    specs, points, carrier, _ = case
    sets = [_set(spec) for spec in specs]
    for boxes in (cn._carrier_region(carrier), cn._carrier_boxes(carrier), ()):
        got = cn._grid(boxes, sets)
        assert got == _fraction_grid_of_sets(boxes, sets)
        dens = {v.denominator for b in boxes for pair in b for v in pair}
        dens |= {v.denominator for s in sets for cube in _fraction_cubes(s) for pair in cube for v in pair}
        assert got[0] == 2 * math.lcm(*dens)
    for s in sets:
        assert cn._uncovered_closures(s) == _fraction_uncovered_closures(s)


# --- the cover operations against the Fraction grid ----------------------------


def outcome(fn, *args):
    """The result, or the error's type and text; ValueError covers PreconditionError."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def _answers(specs, points, carrier) -> list:
    """complement_distance per (point, set), and on the cover of fresh sets
    kappa_map per point, cover_mesh and shrink_cover."""
    members = tuple(_set(spec) for spec in specs)
    out = [outcome(cn.complement_distance, p, m) for p in points for m in members]
    U = outcome(FiniteCover, members, carrier)
    if not isinstance(U, FiniteCover):
        return out + [U]
    vertices = [m.balls[0].center for m in members]
    out += [outcome(cn.kappa_map, p, U, vertices) for p in points]
    return out + [outcome(cn.cover_mesh, U), outcome(cn.shrink_cover, U)]


@given(families())
@example((QUARTERS, ((F(1, 4),), (F(1, 3),)), PointCloud(1, ((F(1, 4),), (F(1, 3),))), cn._CELL_CAP))
@example((QUARTERS, ((F(1, 4),),), interval_carrier(2), 4))
def test_cover_operations_equal_the_fraction_grid_ones(case):
    specs, points, carrier, cap = case
    with mock.patch.object(cn, "_CELL_CAP", cap):
        got = _answers(specs, points, carrier)
        with (
            mock.patch.object(cn, "_grid", _fraction_grid_of_sets),
            mock.patch.object(cn, "_uncovered_closures", _fraction_uncovered_closures),
        ):
            want = _answers(specs, points, carrier)
    assert got == want


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
