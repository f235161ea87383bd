"""The refinement ladder against the meeting-filter ladder it replaced.

``covers_nerve._ladder`` reads which balls meet the carrier off how the
cells are built: every cell ball of a symbolic carrier, every padded ball
of a cloud, and a cloud's tight ball only where a point lies inside its
open cell.  The reference below is the earlier code, copied verbatim: it
put each family and the carrier on one grid and tested every (box, ball)
pair.  Both must give the same families, in the same order, and
``refine_cover`` the same members and parents.  The clouds mix dyadic
coordinates, which put points on grid lines, duplicate points and
non-dyadic coordinates.
"""

import itertools
from fractions import Fraction
from typing import Iterable, Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import effdim.covers_nerve as cn
from effdim import (
    BoundSeq,
    FiniteCover,
    MengerDescriptor,
    OpenSet,
    PointCloud,
    PreconditionError,
    SymbolicCarrier,
    ball,
    cantor_carrier,
    carpet_descriptor,
    interval_carrier,
    open_set,
)
from effdim.covers_nerve import (
    _carrier_masks,
    _carrier_region,
    _grid,
    _meets,
    _mesh,
    _parents,
    _point_balls,
)

F = Fraction


# --- the earlier ladder, verbatim ------------------------------------------


def _grid_cells_for_cloud(cloud: PointCloud, w: Fraction) -> list[tuple[Fraction, ...]]:
    """Lower corners of the w-grid cells that touch some cloud point."""
    top = int(1 / w) - 1
    corners = set()
    for p in cloud.points:
        ranges = []
        for c in p:
            j0 = (c / w).numerator // (c / w).denominator
            opts = [
                j
                for j in (j0 - 1, j0)
                if 0 <= j <= top and j * w <= c <= (j + 1) * w
            ]
            ranges.append(opts)
        for combo in itertools.product(*ranges):
            corners.add(tuple(k * w for k in combo))
    return sorted(corners)


def _candidate_families(U: FiniteCover, k: int) -> Iterator[tuple[OpenSet, ...]]:
    """Tight then padded ball families on the width-k grid over the carrier."""
    carrier = U.carrier
    dim = U.dim
    if isinstance(carrier, SymbolicCarrier):
        w = carrier.width_at(k)
        centers = [
            tuple((lo + hi) / 2 for lo, hi in cell.bounds)
            for cell in carrier.cells_at(k)
        ]
    else:
        w = Fraction(1, 2**k)
        centers = [
            tuple(c + w / 2 for c in corner)
            for corner in _grid_cells_for_cloud(carrier, w)
        ]
    boxes = _carrier_region(carrier)
    for radius in (w / 2, w):
        sets = [open_set(ball(c, radius)) for c in centers]
        # keep the balls meeting the carrier, read on the family's grid
        _, region, groups = _grid(boxes, [s.cubes() for s in sets])
        members = tuple(
            s for s, (cube,) in zip(sets, groups) if any(_meets(box, cube) for box in region)
        )
        if members:
            yield members


def _refinement_families(U: FiniteCover, budget: int) -> Iterator[tuple[OpenSet, ...]]:
    """The width ladder's first budget families, then a cloud's point balls."""
    carrier = U.carrier
    if isinstance(carrier, SymbolicCarrier):
        widths: Iterable[int] = range(carrier.depth + 3)
    else:
        widths = itertools.count()
    ladder = itertools.chain.from_iterable(_candidate_families(U, k) for k in widths)
    yield from itertools.islice(ladder, max(budget, 0))
    if isinstance(carrier, PointCloud):
        yield _point_balls(carrier)


def _reference_refine(U: FiniteCover, target_mult: int, mesh: Fraction, budget: int) -> FiniteCover:
    """The earlier ``refine_cover`` search loop, over the earlier ladder."""
    carrier = U.carrier
    for members in _refinement_families(U, budget):
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


# --- comparisons -----------------------------------------------------------


def _balls(family):
    return [[(b.center.coords, b.radius) for b in s.balls] for s in family]


def _reference_ladder(U: FiniteCover, count: int):
    """The earlier ladder's first count families, without the point balls."""
    return [_balls(f) for f in itertools.islice(_refinement_families(U, count), count)]


def _outcome(refine, U, target, mesh, budget):
    try:
        refined = refine(U, target, mesh, budget)
    except PreconditionError as exc:
        return str(exc)
    return _balls(refined.members), refined.parents


dyadic = st.integers(0, 4).flatmap(lambda e: st.integers(0, 2**e).map(lambda k: F(k, 2**e)))
other = st.fractions(0, 1, max_denominator=16)
coordinates = dyadic | other


@st.composite
def clouds(draw):
    dim = draw(st.integers(1, 3))
    pool = draw(st.lists(st.tuples(*[coordinates] * dim), min_size=1, max_size=5))
    # drawing from a small pool repeats points
    points = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=7))
    return PointCloud(dim, tuple(points))


def _cover_of(cloud: PointCloud, data) -> FiniteCover:
    radii = st.fractions(F(1, 16), 1, max_denominator=16)
    balls = st.builds(ball, st.tuples(*[coordinates] * cloud.dim), radii)
    drawn = data.draw(st.lists(st.lists(balls, min_size=1, max_size=2), max_size=3))
    members = [open_set(*bs) for bs in drawn]
    missed = [p for p in cloud.points if not any(m.contains(p) for m in members)]
    if missed:
        members.append(open_set(*(ball(p, data.draw(radii)) for p in missed)))
    return FiniteCover(tuple(members), cloud)


@settings(max_examples=150, deadline=None)
@given(cloud=clouds())
def test_cloud_ladder_matches_the_meeting_filter(cloud):
    U = FiniteCover((open_set(ball((F(1, 2),) * cloud.dim, 1)),), cloud)
    got = [_balls(f) for f in itertools.islice(cn._ladder(cloud), 14)]
    assert got == _reference_ladder(U, 14)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), cloud=clouds())
def test_cloud_refinement_matches_the_meeting_filter(data, cloud):
    U = _cover_of(cloud, data)
    target = data.draw(st.integers(1, 3))
    mesh = data.draw(st.fractions(F(-1, 8), 1, max_denominator=64))
    budget = data.draw(st.integers(-1, 10))
    want = _outcome(_reference_refine, U, target, mesh, budget)
    assert _outcome(cn.refine_cover, U, target, mesh, budget) == want


SYMBOLIC = {
    "cantor-3": cantor_carrier(3),
    "carpet-1": SymbolicCarrier(carpet_descriptor(), 1),
    "interval-2": interval_carrier(2),
    "table-2-0-1": SymbolicCarrier(MengerDescriptor(2, 0, BoundSeq.from_table([5, 3], tail=4)), 1),
}


@pytest.mark.parametrize("name", sorted(SYMBOLIC))
@pytest.mark.parametrize(
    "target, mesh", [(1, F(1, 3)), (2, F(1, 2)), (2, F(1, 8)), (4, F(2, 3)), (1, F(0))]
)
def test_symbolic_refinement_matches_the_meeting_filter(name, target, mesh):
    carrier = SYMBOLIC[name]
    U = FiniteCover((open_set(ball((F(1, 2),) * carrier.dim, 1)),), carrier)
    want = _outcome(_reference_refine, U, target, mesh, 64)
    assert _outcome(cn.refine_cover, U, target, mesh, 64) == want
