"""Differential tests: general position and kappa maps on ints, against Fractions.

``general_position`` puts its points, avoid flats and candidates on one
int grid per call, and tests a candidate by reducing one int row against
the Bareiss steps cached for each placed hull; ``kappa_map`` sums its
weighted vertices as ints on common denominators.  The reference,
``tests/cover_reference.py``, searches on Fractions with Gauss–Jordan
ranks and sums Fraction weights, each a distance to the closures of a
member's uncovered cells.  Random inputs must give equal outputs, or
both must raise the same error with the same text.  The one-row
reduction itself is checked against Fraction elimination and ranks.

The general-position inputs mix repeated points, collinear and coplanar
ones and points lying on an avoid flat, with eps small enough that the
perturbation search runs.  The kappa covers mix members on different
grids, so the members' depths have different denominators; their
points sit on the box faces, inside and outside the box.
"""

from fractions import Fraction

import cover_reference as ref
from hypothesis import example, given
from hypothesis import strategies as st

import effdim.covers_nerve as cn
from effdim import FiniteCover, PointCloud, RationalPoint, ball, complement_distance, open_set
from effdim._rat import ONE, ZERO

F = Fraction
# coordinates are multiples of 1/D for one of these D; 24 holds 2^3 but not
# 2^4, so a perturbation at level 4 or finer leaves the inputs' own grid
DENOMS = (8, 24, 35, 7, 64, 2**40, 3 * 2**41)


# --- strategies ------------------------------------------------------------


def outcome(fn, *args, **kwargs):
    """The result, or the error's type and text; ValueError covers PreconditionError."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        return type(exc), str(exc)


def on_grid(d: int, lo: int = 0, hi: int | None = None):
    return st.integers(lo, d if hi is None else hi).map(lambda k: F(k, d))


COORDS = st.sampled_from(DENOMS).flatmap(on_grid) | st.sampled_from((ZERO, ONE))


@st.composite
def affine_combination(draw, points):
    """A point of the points' convex hull: collinear with two, coplanar with three."""
    weights = [draw(st.integers(0, 3)) for _ in points]
    if not any(weights):
        weights[0] = 1
    total = sum(weights)
    return tuple(sum(w * p[a] for w, p in zip(weights, points)) / total for a in range(len(points[0])))


# grid-sized entries too: general_position's rows live on grids of 2^40 and more
INTS = st.integers(-3, 3) | st.integers(-64, 64) | st.integers(-(2**45), 2**45)


@st.composite
def rows_and_row(draw):
    """Int rows of up to 5 columns, with dependent rows mixed in, and one
    more row: an int combination of them, so in their span, or free."""
    cols = draw(st.integers(1, 5))
    row = st.lists(INTS, min_size=cols, max_size=cols)
    rows = draw(st.lists(row, max_size=5))
    for _ in range(draw(st.integers(0, 2))):
        if rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            rows.insert(draw(st.integers(0, len(rows))), [s * u + t * v for u, v in zip(a, b)])
    if rows and draw(st.booleans()):
        coeffs = [draw(st.integers(-3, 3)) for _ in rows]
        v = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(cols)]
    else:
        v = draw(row)
    return rows, v


@given(rows_and_row())
@example(([], [0, 0]))
@example(([[0, 2, 4], [0, 1, 2]], [0, 3, 6]))
def test_one_row_reduction_is_exact_and_tests_the_span(case):
    rows, v = case
    ech = cn._echelon(rows)
    assert len(ech) == ref.rank(rows)
    got = cn._reduce(list(v), ech)
    # after the steps the row is the last pivot times its Fraction residual,
    # so no floor division lost a remainder
    residual = [F(a) for a in v]
    for col, top, _ in ech:
        residual = [a - residual[col] / top[col] * b for a, b in zip(residual, top)]
    last = ech[-1][1][ech[-1][0]] if ech else 1
    assert got == [last * a for a in residual]
    assert (not any(got)) == (ref.rank(rows + [v]) == ref.rank(rows))


@st.composite
def general_position_cases(draw):
    dim = draw(st.integers(1, 3))
    point = st.tuples(*[COORDS] * dim)
    avoid = []
    for _ in range(draw(st.integers(0, 2))):
        # a point, a line or a plane, sometimes degenerate (a repeated point)
        flat = [draw(point)]
        for _ in range(draw(st.integers(0, dim))):
            flat.append(draw(st.sampled_from(flat) | point))
        avoid.append(tuple(flat))
    pts: list[tuple[Fraction, ...]] = []
    # up to 8 points, so the placed hulls of every size 2..m are tested against
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(("fresh", "repeat", "collinear", "coplanar", "on flat")))
        if kind == "repeat" and pts:
            pts.append(draw(st.sampled_from(pts)))
        elif kind == "collinear" and len(pts) >= 2:
            pts.append(draw(affine_combination(draw(st.permutations(pts))[:2])))
        elif kind == "coplanar" and len(pts) >= 3:
            pts.append(draw(affine_combination(draw(st.permutations(pts))[:3])))
        elif kind == "on flat" and avoid:
            pts.append(draw(affine_combination(list(draw(st.sampled_from(avoid))))))
        else:
            pts.append(draw(point))
    wrap = draw(st.booleans())
    points = [RationalPoint(p) if wrap else p for p in pts]
    eps = F(1, draw(st.integers(8, 64)))
    budget = draw(st.sampled_from((200_000,) * 4 + (4,)))
    return points, eps, tuple(avoid), budget


@given(general_position_cases())
# a repeated point and a point on the diagonal flat: both are perturbed
@example(([(F(1, 2), F(1, 2))] * 2, F(1, 16), (((F(0), F(0)), (F(1), F(1))),), 200_000))
# a point flat: the candidate must avoid that one point
@example(([(F(1, 3),), (F(1, 3),)], F(1, 8), (((F(1, 3),),),), 200_000))
# three copies of a point: the step budget runs out during the search
@example(([(F(1, 2), F(1, 2))] * 3, F(1, 16), (), 4))
def test_general_position_agrees_with_the_fraction_search(case):
    points, eps, avoid, budget = case
    coords = [p.coords if isinstance(p, RationalPoint) else p for p in points]
    want = outcome(ref.general_position, coords, eps, avoid, budget, cn._FINEST_LEVEL)
    got = outcome(cn.general_position, points, eps, avoid, budget)
    if not isinstance(got[0], type):
        assert all(type(c) is Fraction for p in got for c in p.coords)
        got = tuple(p.coords for p in got)
    assert got == want


@st.composite
def kappa_cases(draw):
    """A cover with its own grid per member, one point and the vertices.

    Each field is sometimes drawn so that one precondition fails: a point
    outside the box or of another dimension, a vertex missing or of
    another dimension, a member holding the whole box, a point in no
    member, or an arrangement cap small enough to refuse a member.
    """
    dim = draw(st.integers(1, 3))
    specs = []
    for _ in range(draw(st.integers(1, 5))):
        d = draw(st.sampled_from(DENOMS[:5] + (2**40,)))
        if draw(st.integers(0, 31)) == 0:
            specs.append((((F(1, 2),) * dim, ONE),))
            continue
        balls = []
        for _ in range(draw(st.integers(1, 3 if dim < 3 else 2))):
            centre = tuple(draw(on_grid(d)) for _ in range(dim))
            balls.append((centre, draw(on_grid(d, max(1, d // 64), d // 2))))
        specs.append(tuple(balls))
    kinds = ("inside",) * 3 + ("shared",) * 2 + ("anywhere", "face", "outside", "dimension")
    kind = draw(st.sampled_from(kinds))
    if kind == "shared" and len(specs) >= 2:
        # a ball centre of the first member, also the centre of a ball of
        # the second on another grid: two weights on different grids
        point, _ = draw(st.sampled_from(specs[0]))
        specs[1] += ((point, draw(on_grid(draw(st.sampled_from(DENOMS[:5])), 1, 4))),)
    elif kind == "inside":
        centre, radius = draw(st.sampled_from(draw(st.sampled_from(specs))))
        point = tuple(
            min(max(c + radius * F(draw(st.integers(-15, 15)), 16), ZERO), ONE) for c in centre
        )
    elif kind == "face":
        point = tuple(draw(st.sampled_from((ZERO, ONE)) | COORDS) for _ in range(dim))
    elif kind == "outside":
        point = tuple(draw(st.sampled_from((F(-1, 8), F(3, 2))) | COORDS) for _ in range(dim))
    elif kind == "dimension":
        point = tuple(draw(COORDS) for _ in range(dim % 3 + 1))
    else:
        point = tuple(draw(COORDS) for _ in range(dim))
    tdim = draw(st.integers(1, 3))
    vertices = [RationalPoint(tuple(draw(COORDS) for _ in range(tdim))) for _ in specs]
    flaw = draw(st.sampled_from(("none",) * 8 + ("missing", "vertex dimension")))
    if flaw == "missing":
        vertices.pop()
    elif flaw == "vertex dimension":
        vertices[-1] = RationalPoint(tuple(draw(COORDS) for _ in range(tdim % 3 + 1)))
    wrap = draw(st.booleans()) and all(ZERO <= c <= ONE for c in point)
    cap = draw(st.sampled_from((cn._CELL_CAP,) * 11 + (8,)))
    return dim, tuple(specs), RationalPoint(point) if wrap else point, tuple(vertices), cap


def _cover(dim, specs):
    # a new cover per call, so no member's cached complement is shared
    members = tuple(open_set(*(ball(c, r) for c, r in balls)) for balls in specs)
    return FiniteCover(members, PointCloud(dim, ()), validate=False)


@given(kappa_cases())
def test_kappa_map_agrees_with_the_fraction_sum(case):
    dim, specs, point, vertices, cap = case
    saved = cn._CELL_CAP
    cn._CELL_CAP = cap
    try:
        got = outcome(cn.kappa_map, point, _cover(dim, specs), vertices)
    finally:
        cn._CELL_CAP = saved
    if isinstance(got, RationalPoint):
        assert all(type(c) is Fraction for c in got.coords)
        got = got.coords
    coords = point.coords if isinstance(point, RationalPoint) else point
    sets = ref.sets_of(_cover(dim, specs).members)
    assert got == outcome(ref.kappa_map, coords, sets, [v.coords for v in vertices], cap)


def test_kappa_weights_on_different_grids():
    # member grids 2·4 and 2·35: the depths 1/4 and 27/140 are on different grids
    members = (open_set(ball((F(1, 4),), F(1, 4))), open_set(ball((F(9, 35),), F(1, 5))))
    U = FiniteCover(members, PointCloud(1, ((F(1, 4),),)))
    verts = (RationalPoint((F(0),)), RationalPoint((F(1),)))
    img = cn.kappa_map((F(1, 4),), U, verts)
    assert img.coords == ref.kappa_map((F(1, 4),), ref.sets_of(members), [v.coords for v in verts], cn._CELL_CAP)
    w0, w1 = (complement_distance((F(1, 4),), m) for m in members)
    assert img.coords == (w1 / (w0 + w1),)
