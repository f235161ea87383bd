"""The refinement ladder and search against the reference.

``covers_nerve._ladder`` reads which balls meet the carrier off how the
cells are built: every padded cell ball of a symbolic carrier, every
padded ball of a cloud, and a cloud's tight ball only where a point lies
inside its open cell.  In place of each symbolic tight family, which
never covers, it offers the empty family, and it ends at the depth when
some digit column is inadmissible.  The reference,
``tests/cover_reference.py``, walks the full ladder: on a symbolic
carrier the tight and padded families of every level up to two past the
depth, each counted by the budget, and on a cloud the balls of the grid
cells holding a point that meet the carrier, then the point balls; it
checks each family on its own cells.  The cloud ladders must give the
same families in the same order, and every budget the same refined
members and parents or the same "search exhausted".  The clouds mix
dyadic coordinates, which put points on grid lines, duplicate points and
non-dyadic coordinates.
"""

import itertools
from fractions import Fraction

import cover_reference as ref
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import effdim.covers_nerve as cn
from effdim import (
    BoundSeq,
    FiniteCover,
    MengerDescriptor,
    PointCloud,
    PreconditionError,
    SymbolicCarrier,
    ball,
    cantor_carrier,
    carpet_descriptor,
    interval_carrier,
    open_set,
)

F = Fraction


# --- comparisons -----------------------------------------------------------


def _refined(U, target, mesh, budget):
    """refine_cover's outcome: (balls per member, parents), or the error's text."""
    try:
        refined = cn.refine_cover(U, target, mesh, budget)
    except PreconditionError as exc:
        return str(exc)
    return ref.sets_of(refined.members), refined.parents


def _reference(U, target, mesh, budget):
    """The reference's outcome, as _refined reads refine_cover's."""
    levels = ref.levels_of(U.carrier) if isinstance(U.carrier, SymbolicCarrier) else None
    try:
        return ref.refine_cover(ref.sets_of(U.members), ref.carrier_of(U.carrier), target, mesh, budget, levels)
    except PreconditionError as exc:
        return str(exc)


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
    got = [ref.sets_of(f) for f in itertools.islice(cn._ladder(cloud), 14)]
    assert got == list(itertools.islice(ref.ladder(ref.carrier_of(cloud)), 14))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), cloud=clouds())
def test_cloud_refinement_matches_the_meeting_filter(data, cloud):
    U = _cover_of(cloud, data)
    target = data.draw(st.integers(1, 3))
    mesh = data.draw(st.fractions(F(-1, 8), 1, max_denominator=64))
    budget = data.draw(st.integers(-1, 10))
    assert _refined(U, target, mesh, budget) == _reference(U, target, mesh, budget)


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
    assert _refined(U, target, mesh, 64) == _reference(U, target, mesh, 64)


# --- the ladder as the reference walks it ------------------------------------

# the descriptors test_symbolic_families_keep_every_cell_ball sweeps, at the
# depths whose carrier has at most _CAP cells; the budgets from -1 to 10 that
# reach only levels of at most _CAP cells in the reference's ladder
_CAP = 200
_RULES = {
    "z3": BoundSeq.constant(3),
    "z4": BoundSeq.constant(4),
    "z5": BoundSeq.constant(5),
    "affine3": BoundSeq.affine(3),
    "table-5-3-4": BoundSeq.from_table([5, 3], tail=4),
}


def _swept():
    for m in (1, 2, 3):
        for n, rule, depth in itertools.product(range(m + 1), sorted(_RULES), range(3)):
            desc = MengerDescriptor(m, n, _RULES[rule])
            if desc.cells_at_depth(depth) > _CAP:
                continue
            # the reference ladder's first b families reach levels 0 .. ceil(b / 2) - 1
            budgets = [
                b for b in range(-1, 11)
                if all(desc.cells_at_depth(k) <= _CAP for k in range((b + 1) // 2))
            ]
            yield pytest.param(desc, depth, budgets, id=f"m{m}-n{n}-{rule}-depth{depth}")


# multiplicity targets and meshes around the ladder's: a padded family's mesh
# is 2w inside the carrier, clipped at its edges, and its multiplicity is up to 2^m
_TARGETS = [(1, F(0)), (1, F(1, 3)), (2, F(1, 2)), (2, F(2, 3)), (3, F(1, 4)), (4, F(1)), (8, F(2, 9))]


@pytest.mark.parametrize("desc, depth, budgets", _swept())
def test_symbolic_refinement_matches_the_built_ladder(desc, depth, budgets):
    carrier = SymbolicCarrier(desc, depth)
    U = FiniteCover((open_set(ball((F(1, 2),) * carrier.dim, 1)),), carrier)
    sets, region = ref.sets_of(U.members), ref.carrier_of(carrier)
    families = list(itertools.islice(ref.ladder(region, ref.levels_of(carrier)), max(budgets, default=0)))
    for target, mesh in _TARGETS:
        # the reference's outcome at every budget, off one walk of its ladder
        walk = [ref.refinement(f, sets, region, target, mesh) for f in families]
        for budget in budgets:
            want = next((found for found in walk[: max(budget, 0)] if found), "search exhausted")
            assert _refined(U, target, mesh, budget) == want, (target, mesh, budget)


@pytest.mark.parametrize("name", sorted(SYMBOLIC))
def test_an_empty_family_is_never_scanned(name, monkeypatch):
    # each tight slot's empty family has the mask set {∅} on any nonempty
    # carrier, so refine_cover skips it without putting it on a grid; a
    # family's grid has one group of cubes per member
    carrier = SYMBOLIC[name]
    U = FiniteCover((open_set(ball((F(1, 2),) * carrier.dim, 1)),), carrier)
    scans = []
    grid = cn._grid

    def tracked(boxes, groups):
        scans.append(len(groups))
        return grid(boxes, groups)

    monkeypatch.setattr(cn, "_grid", tracked)
    for (target, mesh), budget in itertools.product(_TARGETS, range(-1, 9)):
        _refined(U, target, mesh, budget)
    assert scans and 0 not in scans
