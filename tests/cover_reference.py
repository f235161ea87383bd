"""A plain Fraction reference for effdim's cover layer.

A ball is (centre, radius), its centre a tuple of Fractions, and a set
is a tuple of balls whose cubes are centre ± radius on every axis.  A
carrier is a tuple of closed boxes, each a tuple of per-axis (lo, hi)
Fractions; a point cloud is its points as zero-width boxes.  Each
function does the textbook computation: a carrier box is cut by every
cube facet inside it, one representative per cell decides membership by
strict inequalities, and distances and spans are measured on the cells'
closures.  It imports the standard library and PreconditionError only,
takes effdim's caps as arguments, raises effdim's messages and reads
effdim's objects through their public accessors alone (``balls_of``,
``sets_of``, ``carrier_of``, ``levels_of``).
"""

from __future__ import annotations

import functools
import itertools
import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from effdim import PreconditionError

Point = tuple[Fraction, ...]
Bounds = tuple[tuple[Fraction, Fraction], ...]
Ball = tuple[Point, Fraction]
Set = tuple[Ball, ...]

ZERO, HALF, ONE = Fraction(0), Fraction(1, 2), Fraction(1)


# --- effdim's objects as plain data -------------------------------------------


def balls_of(s) -> Set:
    """An OpenSet as its balls."""
    return tuple((b.center.coords, b.radius) for b in s.balls)


def sets_of(members) -> tuple[Set, ...]:
    return tuple(map(balls_of, members))


def carrier_of(carrier) -> tuple[Bounds, ...]:
    """A PointCloud's points as zero-width boxes, else the carrier's boxes."""
    points = getattr(carrier, "points", None)
    if points is not None:
        return tuple(tuple((c, c) for c in p) for p in points)
    return tuple(b.bounds for b in carrier.boxes())


def levels_of(carrier) -> Iterator[tuple[Bounds, ...]]:
    """A symbolic carrier's cells at levels 0 .. depth + 2, the levels its ladder walks, built as read."""
    return (tuple(b.bounds for b in carrier.cells_at(k)) for k in range(carrier.depth + 3))


# --- cubes and cells --------------------------------------------------------------


@functools.lru_cache(maxsize=1024)
def cubes(balls: Set) -> tuple[Bounds, ...]:
    return tuple(tuple((c - r, c + r) for c in centre) for centre, r in balls)


def holds(cube: Bounds, point: Sequence[Fraction]) -> bool:
    """Is the point strictly inside the open cube?"""
    return all(lo < x < hi for (lo, hi), x in zip(cube, point))


def meets(cube: Bounds, box: Bounds) -> bool:
    """Does the open cube share a point with the closed box?"""
    return all(clo < bhi and blo < chi for (clo, chi), (blo, bhi) in zip(cube, box))


def facets(cube_list: Iterable[Bounds], dim: int) -> list[list[Fraction]]:
    """Per axis, the cubes' facet values, sorted."""
    cube_list = list(cube_list)
    return [sorted({v for c in cube_list for v in c[a]}) for a in range(dim)]


def axis_cells(lo: Fraction, hi: Fraction, cuts: Sequence[Fraction]) -> list[tuple[Fraction, Fraction, Fraction]]:
    """The cells of [lo, hi] cut at the sorted cuts, each (representative, lo, hi):
    the cut points and the ends, and the open intervals between them at their midpoints."""
    inner = cuts[bisect_right(cuts, lo) : bisect_left(cuts, hi)]
    vals = [lo, *inner, hi] if lo < hi else [lo]
    out = [(lo, lo, lo)]
    for v, w in zip(vals, vals[1:]):
        out += [((v + w) / 2, v, w), (w, w, w)]
    return out


def _axes(box: Bounds, cuts: Sequence[Sequence[Fraction]]) -> list[list[tuple[Fraction, Fraction, Fraction]]]:
    return [axis_cells(lo, hi, c) for (lo, hi), c in zip(box, cuts)]


def cells(box: Bounds, cuts: Sequence[Sequence[Fraction]]) -> Iterator[tuple[Point, Bounds]]:
    """(representative, closure) per cell of the box cut at cuts[a] on axis a."""
    for combo in itertools.product(*_axes(box, cuts)):
        yield tuple(r for r, _, _ in combo), tuple((lo, hi) for _, lo, hi in combo)


# --- a family on a carrier -------------------------------------------------------


def cell_masks(sets: Sequence[Set], carrier: Sequence[Bounds]) -> Iterator[tuple[Point, frozenset[int]]]:
    """(representative, mask) per cell of each carrier box cut by every facet of
    the sets' cubes, the mask the indices of the sets holding the representative."""
    tagged = [(i, c) for i, s in enumerate(sets) for c in cubes(s)]
    cuts = facets((c for _, c in tagged), len(carrier[0]) if carrier else 0)
    for box in carrier:
        near = [(i, c) for i, c in tagged if meets(c, box)]  # the others hold no point of the box
        # a cube holds a representative when each axis of it lies strictly
        # inside the cube's span there: per axis cell, the near cubes doing so
        axes = [
            [(rep, frozenset(j for j, (_, c) in enumerate(near) if c[a][0] < rep < c[a][1])) for rep, _, _ in axis]
            for a, axis in enumerate(_axes(box, cuts))
        ]
        for combo in itertools.product(*axes):
            held = frozenset.intersection(*(js for _, js in combo))
            yield tuple(rep for rep, _ in combo), frozenset(near[j][0] for j in held)


@functools.lru_cache(maxsize=1024)
def masks(sets: tuple[Set, ...], carrier: tuple[Bounds, ...]) -> frozenset[frozenset[int]]:
    return frozenset(mask for _, mask in cell_masks(sets, carrier))


def first_uncovered(sets: Sequence[Set], carrier: Sequence[Bounds]) -> Point | None:
    return next((rep for rep, mask in cell_masks(sets, carrier) if not mask), None)


def multiplicity(sets: tuple[Set, ...], carrier: tuple[Bounds, ...]) -> int:
    return max(map(len, masks(sets, carrier)), default=0)


def nerve_faces(sets: tuple[Set, ...], carrier: tuple[Bounds, ...]) -> frozenset[frozenset[int]]:
    """Every nonempty subset of a mask."""
    return frozenset(
        frozenset(face)
        for mask in masks(sets, carrier)
        for r in range(1, len(mask) + 1)
        for face in itertools.combinations(mask, r)
    )


@functools.lru_cache(maxsize=1024)
def mesh(sets: tuple[Set, ...], carrier: tuple[Bounds, ...]) -> Fraction:
    """The largest diameter of a set's part of the carrier: the span, on an axis,
    of its pieces closure(cube ∩ box) together; 0 when no set meets the carrier."""
    best = ZERO
    for own in map(cubes, sets):
        pieces = [
            tuple((max(blo, clo), min(bhi, chi)) for (blo, bhi), (clo, chi) in zip(box, c))
            for box in carrier
            for c in own
            if meets(c, box)
        ]
        for axis in zip(*pieces):
            best = max(best, max(hi for _, hi in axis) - min(lo for lo, _ in axis))
    return best


def parents(family: tuple[Set, ...], sets: tuple[Set, ...], carrier: tuple[Bounds, ...]) -> tuple[int | None, ...]:
    """Per set of the family, the first of the sets holding it on the carrier, else
    None: every cell of the joint arrangement the one holds, the other holds."""
    n = len(family)
    joint = masks(family + sets, carrier)
    return tuple(
        next((i for i in range(len(sets)) if all(n + i in m for m in joint if j in m)), None) for j in range(n)
    )


# --- complements, kappa maps and shrinkings -------------------------------------------


@functools.lru_cache(maxsize=1024)
def uncovered_cells(balls: Set, cell_cap: int) -> dict[tuple[int, ...], Bounds]:
    """The cells of the unit box that no cube of the set holds, each its closure
    under its axis cell indices (even ones points, odd ones intervals).

    The box is cut by every facet of the cubes meeting it, since the others
    are no part of the set read inside the box; an arrangement of more than
    cell_cap cells is refused.
    """
    dim = len(balls[0][0])
    unit = ((ZERO, ONE),) * dim
    own = [c for c in cubes(balls) if meets(c, unit)]
    axes = _axes(unit, facets(own, dim))
    if math.prod(map(len, axes)) > cell_cap:
        raise PreconditionError(f"open set's arrangement has more than {cell_cap} cells")
    out = {}
    for idx in itertools.product(*(range(len(axis)) for axis in axes)):
        combo = [axis[i] for axis, i in zip(axes, idx)]
        if not any(holds(c, [rep for rep, _, _ in combo]) for c in own):
            out[idx] = tuple((lo, hi) for _, lo, hi in combo)
    return out


@functools.lru_cache(maxsize=1024)
def complement(balls: Set, cell_cap: int) -> tuple[Bounds, ...]:
    """The uncovered closures less those lying in an uncovered neighbour's, the
    interval cell beside the cell on an axis where it is a point: the unit box
    minus the set is still their union."""
    cells_ = uncovered_cells(balls, cell_cap)

    def in_a_neighbour(idx: tuple[int, ...]) -> bool:
        points = [a for a, i in enumerate(idx) if i % 2 == 0]
        return any(idx[:a] + (idx[a] + d,) + idx[a + 1 :] in cells_ for a in points for d in (-1, 1))

    return tuple(closure for idx, closure in cells_.items() if not in_a_neighbour(idx))


def distance(point: Sequence[Fraction], closure: Bounds) -> Fraction:
    """Max-metric distance from the point to the closed box."""
    d = ZERO
    for (lo, hi), x in zip(closure, point):
        if x < lo:
            d = max(d, lo - x)
        elif x > hi:
            d = max(d, x - hi)
    return d


def complement_distance(point: Sequence[Fraction], balls: Set, cell_cap: int) -> Fraction | None:
    """Distance to the unit box minus the set, None when that is empty; 0 at a
    point of the box that no cube holds, since it lies in that complement."""
    closures = complement(balls, cell_cap)
    if closures and all(ZERO <= x <= ONE for x in point) and not any(holds(c, point) for c in cubes(balls)):
        return ZERO
    return min((distance(point, c) for c in closures), default=None)


def kappa_map(point: Point, sets: Sequence[Set], vertices: Sequence[Point], cell_cap: int) -> Point:
    """The vertices' sum weighted by each set's complement distance, over the weights' sum."""
    if len(point) != len(sets[0][0][0]):
        raise PreconditionError("point dimension differs from the cover's")
    if not all(ZERO <= x <= ONE for x in point):
        raise PreconditionError("point lies outside the unit box")
    if len(vertices) != len(sets):
        raise PreconditionError("one vertex per cover member is required")
    if len({len(v) for v in vertices}) != 1:
        raise PreconditionError("vertices disagree on dimension")
    weights = []
    for s in sets:
        d = complement_distance(point, s, cell_cap)
        if d is None:
            raise PreconditionError("member complement is empty; kappa weight undefined")
        weights.append(d)
    total = sum(weights)
    if total == 0:
        raise PreconditionError("uncovered point")
    return tuple(sum(w * v[a] for w, v in zip(weights, vertices)) / total for a in range(len(vertices[0])))


def shrunk_box(cube: Bounds, pull: Fraction) -> Bounds | None:
    """The cube's faces pulled in by pull, a face outside the unit box put on the box's face; None when empty."""
    bounds = tuple((ZERO if lo < 0 else lo + pull, ONE if hi > 1 else hi - pull) for lo, hi in cube)
    return None if any(lo > hi for lo, hi in bounds) else bounds


def shrink_cover(sets: Sequence[Set], carrier: Sequence[Bounds], cell_cap: int) -> tuple:
    """(closed, open): per set its cubes as shrunk_box(cube, λ/2), and its balls
    shrunk by 3λ/4, those left with a positive radius; λ halves until the open
    family covers.

    λ starts as the least, over the representatives of the carrier boxes cut
    by every cube facet, of the largest complement distance of a set there
    (1 for a set with no complement).
    """
    cuts = facets((c for s in sets for c in cubes(s)), len(sets[0][0][0]))
    lam = None
    for box in carrier:
        for rep, _ in cells(box, cuts):
            depth = max(ONE if (d := complement_distance(rep, s, cell_cap)) is None else d for s in sets)
            if depth == 0:
                raise PreconditionError("no positive margin")
            lam = depth if lam is None else min(lam, depth)
    if lam is None:
        raise PreconditionError("no positive margin")
    for _ in range(64):
        closed = tuple(tuple(b for b in (shrunk_box(c, lam / 2) for c in cubes(s)) if b) for s in sets)
        open_ = tuple(tuple((centre, r - lam * 3 / 4) for centre, r in s if r > lam * 3 / 4) for s in sets)
        if all(closed) and all(open_) and first_uncovered(open_, carrier) is None:
            return closed, open_
        lam /= 2
    raise PreconditionError("no positive margin")


# --- refinement ---------------------------------------------------------------------


def _cell_balls(boxes: Iterable[Bounds], scale: Fraction) -> tuple[Set, ...]:
    """One single-ball set per cube-shaped box: its centre, radius scale times its width."""
    return tuple((tuple((lo + hi) / 2 for lo, hi in box), (box[0][1] - box[0][0]) * scale) for box in boxes)


def ladder(carrier: Sequence[Bounds], levels: Iterable[Sequence[Bounds]] | None = None) -> Iterator[tuple[Set, ...]]:
    """Tight then padded families, coarse to fine, every set one ball.

    On a symbolic carrier, given its levels' cells, the tight family of a
    level is its open cells (radius w/2) and the padded one the balls of
    radius w around them.  On a cloud the level-k cells are the closed
    cells of width w = 1/2^k in the unit box holding a point, the families
    keep the balls meeting the carrier, and a family with none is left out;
    the cloud ladder has no end.
    """
    if levels is not None:
        for level in levels:
            yield tuple((b,) for b in _cell_balls(level, HALF))
            yield tuple((b,) for b in _cell_balls(level, ONE))
        return
    points = {tuple(lo for lo, _ in box) for box in carrier}
    for k in itertools.count():
        n = 2**k
        touched = set()
        for p in points:
            # per axis, the cells [j/n, (j + 1)/n] holding the coordinate
            near = []
            for x in (c * n for c in p):
                near.append([j for j in (math.floor(x) - 1, math.floor(x)) if 0 <= j < n and j <= x <= j + 1])
            touched.update(itertools.product(*near))
        boxes = [tuple((Fraction(j, n), Fraction(j + 1, n)) for j in corner) for corner in sorted(touched)]
        for scale in (HALF, ONE):
            sets = [(b,) for b in _cell_balls(boxes, scale)]
            family = tuple(s for s in sets if any(meets(cubes(s)[0], box) for box in carrier))
            if family:
                yield family


def point_balls(carrier: Sequence[Bounds]) -> tuple[Set, ...]:
    """A ball around each distinct cloud point, radius half the least distance of two (1 for one point)."""
    points = list(dict.fromkeys(tuple(lo for lo, _ in box) for box in carrier))
    gap = min(
        (max(abs(x - y) for x, y in zip(p, q)) for p, q in itertools.combinations(points, 2)), default=Fraction(2)
    )
    return tuple(((p, gap / 2),) for p in points)


def refinement(
    family: tuple[Set, ...], sets: tuple[Set, ...], carrier: tuple[Bounds, ...], target_mult: int, mesh_bound: Fraction
) -> tuple[tuple[Set, ...], tuple[int, ...]] | None:
    """(family, parents) when the family covers the carrier within the
    multiplicity and the mesh and each of its sets lies in one of the sets, else None."""
    found = masks(family, carrier)
    if frozenset() in found or max(map(len, found)) > target_mult or mesh(family, carrier) > mesh_bound:
        return None
    up = parents(family, sets, carrier)
    return None if None in up else (family, up)


def refine_cover(
    sets: tuple[Set, ...],
    carrier: tuple[Bounds, ...],
    target_mult: int,
    mesh_bound: Fraction,
    budget: int,
    levels: Iterable[Sequence[Bounds]] | None = None,
) -> tuple[tuple[Set, ...], tuple[int, ...]]:
    """The first refinement among the ladder's first budget families and then,
    on a cloud, the point balls."""
    if target_mult < 1:
        raise PreconditionError("target multiplicity must be at least 1")
    if levels is None and not carrier:
        raise PreconditionError("cloud carrier has no points")
    families = itertools.islice(ladder(carrier, levels), max(budget, 0))
    if levels is None:
        families = itertools.chain(families, [point_balls(carrier)])
    for family in families:
        if found := refinement(family, sets, carrier, target_mult, mesh_bound):
            return found
    raise PreconditionError("search exhausted")


# --- general position -----------------------------------------------------------------


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank by Gauss–Jordan elimination on Fractions."""
    mat = [[Fraction(v) for v in row] for row in rows]
    r = 0
    for col in range(len(mat[0]) if mat else 0):
        piv = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        top = mat[r] = [v / mat[r][col] for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], top)]
        r += 1
    return r


def _directions(points: Sequence[Point]) -> list[list[Fraction]]:
    return [[c - b for c, b in zip(p, points[0])] for p in points[1:]]


def _independent(points: Sequence[Point]) -> bool:
    return rank(_directions(points)) == len(points) - 1


def _hulls_meet(points: Sequence[Point], flat: Sequence[Point]) -> bool:
    """Does the affine hull of the points meet that of the flat?"""
    dirs = _directions(points) + _directions(flat)
    diff = [s - b for s, b in zip(flat[0], points[0])]
    return rank(dirs) == rank(dirs + [diff])


def general_position(
    points: Sequence[Point], eps: Fraction, avoid: Sequence[Sequence[Point]], budget: int, finest_level: int
) -> tuple[Point, ...]:
    """Each point, or the first admissible candidate near it, in order.

    A candidate is admissible when it is affinely independent of every at
    most m placed points, and the hull of it and every fewer than m - dim(L)
    placed points misses each avoid flat L.  The candidates are the points
    p + offsets/2^level, every offset below eps·2^level - 1 in size, not all
    zero and, past the first level tried, not all even, in lexicographic
    order, inside the unit box; each counts against the budget, and levels
    run from 2 to finest_level.  A point outside the unit box is refused
    before any candidate is tried.
    """
    if eps <= 0:
        raise PreconditionError("eps must be positive")
    if not points:
        return ()
    m = len(points[0])
    if any(len(p) != m for p in points):
        raise PreconditionError("points disagree on dimension")
    if not all(avoid):
        raise PreconditionError("an avoid flat needs at least one point")
    if any(len(p) != m for flat in avoid for p in flat):
        raise PreconditionError("avoid flat dimension differs from the points'")
    if not all(ZERO <= c <= ONE for p in points for c in p):
        raise ValueError("coordinates must lie in [0,1]")
    flats = [(flat, rank(_directions(flat))) for flat in avoid]
    placed: list[Point] = []

    def admissible(x: Point) -> bool:
        for k in range(min(m, len(placed)) + 1):
            if any(not _independent([*combo, x]) for combo in itertools.combinations(placed, k)):
                return False
        for flat, fdim in flats:
            for k in range(min(m - fdim, len(placed) + 1)):
                if any(_hulls_meet([*combo, x], flat) for combo in itertools.combinations(placed, k)):
                    return False
        return True

    steps = 0
    for p in points:
        candidates = _candidates(p, eps, finest_level)
        for x in candidates:
            if x is None:
                steps += 1
                if steps > budget:
                    raise PreconditionError("budget exceeded")
            elif admissible(x):
                placed.append(x)
                break
    return tuple(placed)


def _candidates(p: Point, eps: Fraction, finest_level: int) -> Iterator[Point | None]:
    """p itself, then per level each offset as None (a step) and, inside the
    unit box, the candidate; past finest_level "budget exceeded"."""
    yield p
    fresh = True
    for level in range(2, finest_level + 1):
        denom = 2**level
        radius = math.floor(eps * denom) - 1
        if radius < 1:
            continue
        for offs in itertools.product(range(-radius, radius + 1), repeat=len(p)):
            if not any(offs) or (not fresh and all(o % 2 == 0 for o in offs)):
                continue
            yield None
            x = tuple(c + Fraction(o, denom) for c, o in zip(p, offs))
            if all(ZERO <= c <= ONE for c in x):
                yield x
        fresh = False
    raise PreconditionError("budget exceeded")


# --- affine gap -------------------------------------------------------------------


def _solve(mat: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> list[Fraction] | None:
    """The one solution of the square system by Gauss–Jordan elimination; None when singular."""
    aug = [[*row, b] for row, b in zip(mat, rhs)]
    n = len(aug)
    for col in range(n):
        piv = next((i for i in range(col, n) if aug[i][col]), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        top = aug[col] = [v / aug[col][col] for v in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], top)]
    return [row[-1] for row in aug]


def affine_gap(pts_a: Sequence[Point], pts_b: Sequence[Point]) -> Fraction:
    """The max-metric distance between the two lists' affine hulls, as the primal LP.

    With w = b0 − a0 and a basis B of both lists' directions, the gap is
    the least t with |w − Bx|∞ <= t for some x.  The least t sits at a
    vertex, where t and the k coefficients x solve σ_d·(w − Bx)_d = t on
    k + 1 coordinates d with signs σ_d; the gap is the least t among the
    feasible solutions of every such system, or 0 when B spans R^m.
    """
    w = [b - a for a, b in zip(pts_a[0], pts_b[0])]
    basis: list[list[Fraction]] = []
    for d in _directions(pts_a) + _directions(pts_b):
        if rank(basis + [d]) > len(basis):
            basis.append(d)
    m, k = len(w), len(basis)
    if k == m:
        return ZERO
    best = None
    for coords in itertools.combinations(range(m), k + 1):
        for signs in itertools.product((1, -1), repeat=k + 1):
            # σ·(w − Bx)_d = t, as σ·(Bx)_d + t = σ·w_d
            mat = [[s * v[d] for v in basis] + [ONE] for d, s in zip(coords, signs)]
            sol = _solve(mat, [s * w[d] for d, s in zip(coords, signs)])
            if sol is None:
                continue
            *x, t = sol
            if all(abs(w[d] - sum(c * v[d] for c, v in zip(x, basis))) <= t for d in range(m)):
                best = t if best is None else min(best, t)
    return best
