"""The refinement ladder against the two ladders it replaced.

``covers_nerve._ladder`` reads which balls meet the carrier off how the
cells are built: every cell ball of a symbolic carrier, every padded ball
of a cloud, and a cloud's tight ball only where a point lies inside its
open cell.  The first reference below is the earlier code, copied
verbatim: it put each family and the carrier on one grid and tested
every (box, ball) pair.  Both must give the same families, in the same
order, and ``refine_cover`` the same members and parents.  The clouds
mix dyadic coordinates, which put points on grid lines, duplicate points
and non-dyadic coordinates.

The second reference is the ladder that still built every symbolic
family, copied verbatim with the ``refine_cover`` that read it.  The
ladder now offers the empty family in place of each tight family and
ends at the depth when some digit column is inadmissible, since none of
those families covers; every budget must give the same cover or the
same "search exhausted".
"""

import itertools
import math
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
from effdim._rat import int_arg, rat
from effdim.covers_nerve import (
    Carrier,
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


# --- the ladder that built every symbolic family, verbatim -----------------


def _built_ladder(carrier: Carrier) -> Iterator[tuple[OpenSet, ...]]:
    """Tight then padded ball families on each grid width, coarse to fine.

    The tight ball of a width-w cell is the open cell, radius w/2; the
    padded ball has radius w.  Which balls meet the carrier follows from
    how the cells are built, so no ball is tested.  Every admissible
    level-k cell of a symbolic carrier meets it: up to the depth the cell
    holds a depth cell, since the all-zero digit column has no interior
    digit and so is admissible at every level; past the depth the cell
    lies in its depth ancestor.  The ladder ends two levels past the
    depth.  A cloud's cells are the w = 1/2^k cells touching a point,
    which the padded ball around the cell holds strictly; the tight ball
    stays only where a point lies inside the open cell on every axis.
    The cloud ladder never ends.
    """
    if isinstance(carrier, SymbolicCarrier):
        for k in range(carrier.depth + 3):
            w = carrier.width_at(k)
            cells = carrier.cells_at(k)
            centers = [tuple((lo + hi) / 2 for lo, hi in cell.bounds) for cell in cells]
            for radius in (w / 2, w):
                yield tuple(open_set(ball(c, radius)) for c in centers)
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


def _built_refine(
    U: FiniteCover,
    target_mult: int,
    mesh: Fraction,
    budget: int = 64,
) -> FiniteCover:
    """Search widths coarse to fine for a refinement meeting both targets.

    Every candidate family is checked exactly: coverage, mesh inside the
    carrier, multiplicity, and a parent member containing each new set.
    The width ladder bottoms out two subdivision levels past the carrier
    resolution (symbolic) or when the family budget runs out.  On a point
    cloud one more family follows the ladder, a ball around each point,
    which meets every multiplicity target and every nonnegative mesh.
    """
    mesh, budget = rat(mesh), int_arg(budget, "budget")
    if int_arg(target_mult, "target_mult") < 1:
        raise PreconditionError("target multiplicity must be at least 1")
    carrier = U.carrier
    if isinstance(carrier, PointCloud) and not carrier.points:
        # no family of the ladder meets an empty cloud, so it would never end
        raise PreconditionError("cloud carrier has no points")
    families: Iterable[tuple[OpenSet, ...]] = itertools.islice(_built_ladder(carrier), max(budget, 0))
    if isinstance(carrier, PointCloud):
        # the point balls, built only if the ladder's families all fail
        families = itertools.chain(families, map(_point_balls, [carrier]))
    for members in families:
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


# --- comparisons with the built ladder -------------------------------------

# the descriptors test_symbolic_families_keep_every_cell_ball sweeps, at the
# depths whose carrier has at most _CAP cells; the budgets from -1 to 10 that
# reach only levels of at most _CAP cells in the built ladder
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
            # the built ladder's first b families reach levels 0 .. ceil(b / 2) - 1
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
    for (target, mesh), budget in itertools.product(_TARGETS, budgets):
        want = _outcome(_built_refine, U, target, mesh, budget)
        assert _outcome(cn.refine_cover, U, target, mesh, budget) == want, (target, mesh, budget)


@pytest.mark.parametrize("name", sorted(SYMBOLIC))
def test_an_empty_family_is_never_scanned(name, monkeypatch):
    # each tight slot's empty family has the mask set {∅} on any nonempty
    # carrier, so refine_cover skips it without a _carrier_masks call
    carrier = SYMBOLIC[name]
    U = FiniteCover((open_set(ball((F(1, 2),) * carrier.dim, 1)),), carrier)
    scans = []
    masks = cn._carrier_masks

    def tracked(members, carrier):
        scans.append(len(members))
        return masks(members, carrier)

    monkeypatch.setattr(cn, "_carrier_masks", tracked)
    for (target, mesh), budget in itertools.product(_TARGETS, range(-1, 9)):
        _outcome(cn.refine_cover, U, target, mesh, budget)
    assert scans and 0 not in scans
