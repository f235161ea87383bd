"""Differential tests: general position and kappa maps on ints, against Fractions.

``general_position`` puts its points, avoid flats and candidates on one
int grid per call, and ``kappa_map`` sums its weighted vertices as ints
on common denominators.  The reference functions below are verbatim
copies of the Fraction code they replaced (``_rank`` then cleared each
row's denominators itself).  Random inputs must give equal outputs, or
both must raise the same error with the same text.

The general-position inputs mix repeated points, collinear and coplanar
ones and points lying on an avoid flat, with eps small enough that the
perturbation search runs.  The kappa covers mix members on different
grids, so the members' depths have different denominators; their
points sit on the box faces, inside and outside the box.
"""

import itertools
import math
from fractions import Fraction
from typing import Sequence

from hypothesis import example, given
from hypothesis import strategies as st

import effdim.covers_nerve as cn
from effdim import FiniteCover, PointCloud, RationalPoint, ball, complement_distance, open_set
from effdim._rat import ONE, ZERO, rat
from effdim.ball_calculus import PreconditionError

F = Fraction
# coordinates are multiples of 1/D for one of these D; 24 holds 2^3 but not
# 2^4, so a perturbation at level 4 or finer leaves the inputs' own grid
DENOMS = (8, 24, 35, 7, 64, 2**40, 3 * 2**41)


# --- reference: the Fraction kernels, verbatim -----------------------------


def _rank(rows: list[list[Fraction]]) -> int:
    """Rank of the rows, by fraction-free elimination over ints.

    Each row is scaled by the lcm of its denominators, which keeps its
    span.  Bareiss's elimination ("Sylvester's identity and multistep
    integer-preserving Gaussian elimination", Math. Comp. 1968) keeps
    every entry a minor of those int rows: after a pivot p, row r becomes
    (p·r − r[col]·pivot row) / previous pivot, and the division is exact.
    """
    mat = []
    for row in rows:
        q = math.lcm(*(v.denominator for v in row))
        mat.append([v.numerator * (q // v.denominator) for v in row])
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


def _directions(points: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """The rows p − points[0] of the other points, spanning the hull's directions."""
    base = points[0]
    return [[c - b for c, b in zip(p, base)] for p in points[1:]]


def _affinely_independent(points: Sequence[Sequence[Fraction]]) -> bool:
    if len(points) <= 1:
        return True
    dirs = _directions(points)
    return _rank(dirs) == len(dirs)


def _span_meets(points: Sequence[Sequence[Fraction]], sub: Sequence[Sequence[Fraction]]) -> bool:
    """Does the affine hull of the points meet the affine hull of sub?"""
    combined = _directions(points) + _directions(sub)
    diff = [s - b for s, b in zip(sub[0], points[0])]
    if not combined:
        return diff == [ZERO] * len(diff)
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
    deterministic.
    """
    eps = rat(eps)
    if eps <= 0:
        raise PreconditionError("eps must be positive")
    pts = [
        list(p.coords) if isinstance(p, RationalPoint) else [rat(c) for c in p]
        for p in points
    ]
    if not pts:
        return ()
    m = len(pts[0])
    avoid_flats = [[[rat(c) for c in p] for p in flat] for flat in avoid]
    avoid_dims = [_rank(_directions(flat)) for flat in avoid_flats]

    placed: list[list[Fraction]] = []

    def admissible(candidate: list[Fraction]) -> bool:
        chosen = placed + [candidate]
        i = len(chosen) - 1
        for size in range(1, min(m + 1, len(chosen)) + 1):
            for combo in itertools.combinations(range(i), size - 1):
                subset = [chosen[c] for c in combo] + [candidate]
                if not _affinely_independent(subset):
                    return False
        for flat, fdim in zip(avoid_flats, avoid_dims):
            limit = m - fdim
            for size in range(1, min(limit, len(chosen)) + 1):
                for combo in itertools.combinations(range(i), size - 1):
                    subset = [chosen[c] for c in combo] + [candidate]
                    if _span_meets(subset, flat):
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
                    cand = [c + Fraction(o, denom) for c, o in zip(p, offs)]
                    if not all(ZERO <= c <= ONE for c in cand):
                        continue
                    if admissible(cand):
                        placed.append(cand)
                        found = True
                        break
                fresh = False
            level += 1
            if level > 40:
                raise PreconditionError("budget exceeded")
    return tuple(RationalPoint(tuple(p)) for p in placed)


def kappa_map(x, U: FiniteCover, vertices: Sequence[RationalPoint]) -> RationalPoint:
    """Convex combination of vertices weighted by depth inside each member.

    The weight of member i is the exact distance from x to the part of
    the unit box outside that member, so the support is exactly the set
    of members containing x and the weights sum to 1 after normalizing.
    Members are read inside the unit box, so x must lie in it.
    """
    coords = x.coords if isinstance(x, RationalPoint) else tuple(rat(c) for c in x)
    if len(coords) != U.dim:
        raise PreconditionError("point dimension differs from the cover's")
    if not all(ZERO <= c <= ONE for c in coords):
        raise PreconditionError("point lies outside the unit box")
    if len(vertices) != len(U.members):
        raise PreconditionError("one vertex per cover member is required")
    if len({v.dim for v in vertices}) != 1:
        raise PreconditionError("vertices disagree on dimension")
    weights = []
    for m in U.members:
        d = complement_distance(coords, m)
        if d is None:
            raise PreconditionError("member complement is empty; kappa weight undefined")
        weights.append(d)
    total = sum(weights)
    if total == 0:
        raise PreconditionError("uncovered point")
    tdim = vertices[0].dim
    out = [ZERO] * tdim
    for w, p in zip(weights, vertices):
        if w:
            for a in range(tdim):
                out[a] += w * p.coords[a] / total
    return RationalPoint(tuple(out))


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
    for _ in range(draw(st.integers(1, 5))):
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
    want = outcome(general_position, points, eps, avoid, budget)
    got = outcome(cn.general_position, points, eps, avoid, budget)
    assert got == want
    if not isinstance(got[0], type):
        assert all(type(c) is Fraction for p in got for c in p.coords)


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
        want = outcome(kappa_map, point, _cover(dim, specs), vertices)
        got = outcome(cn.kappa_map, point, _cover(dim, specs), vertices)
    finally:
        cn._CELL_CAP = saved
    assert got == want
    if isinstance(got, RationalPoint):
        assert all(type(c) is Fraction for c in got.coords)


def test_kappa_weights_on_different_grids():
    # member grids 2·4 and 2·35: the depths 1/4 and 27/140 are on different grids
    members = (open_set(ball((F(1, 4),), F(1, 4))), open_set(ball((F(9, 35),), F(1, 5))))
    U = FiniteCover(members, PointCloud(1, ((F(1, 4),),)))
    verts = (RationalPoint((F(0),)), RationalPoint((F(1),)))
    img = cn.kappa_map((F(1, 4),), U, verts)
    assert img == kappa_map((F(1, 4),), U, verts)
    w0, w1 = (complement_distance((F(1, 4),), m) for m in members)
    assert img.coords == (w1 / (w0 + w1),)
