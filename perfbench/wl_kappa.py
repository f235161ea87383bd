"""kappa: Kuratowski maps of point clouds through random planar covers.

Each job builds a cover of 2-5 points in [0,1]^2 (every eighth job: 2-3
points in [0,1]^3) with 4-8 members of 1-4 balls each, moves the member centres
into general position, maps each point with ``kappa_map`` and certifies the
(point, image) pairs with ``verify_eps_eta``.  The check, untimed, takes
each member's weight at each point from ``complement_distance``.

It runs the same covers_nerve layer as ``nerve`` but in another shape:
the arrangement is one box, the unit cube, against one member's cubes,
once per query point.  Every cube meets that box, so a box-local scan
filter should leave this workload unchanged; the work is per-point cell
enumeration in ``complement_distance``, ``_rank`` and the quadratic pair
check.  The 3-D jobs keep to 4-5 members of at most 2 balls and a few
points, since a 3-D member of 4 balls costs ~0.1 s per point.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from effdim import (
    EpsEtaCertificate,
    FiniteCover,
    PointCloud,
    ball,
    complement_distance,
    general_position,
    kappa_map,
    open_set,
    verify_eps_eta,
)

GP_EPS = Fraction(1, 64)
EPS = Fraction(1, 4)
ETA = Fraction(1, 64)

SPANS = (
    "covers_nerve.FiniteCover",
    "covers_nerve.general_position",
    "covers_nerve.kappa_map",
    "covers_nerve.verify_eps_eta",
    "covers_nerve.complement_distance",
)
# Sizes repeat every 32 jobs for the 3-D jobs and every 20 for the 2-D
# ones; the first 40 jobs hold every size of both.
DIGEST_JOBS = 40


@dataclass(frozen=True)
class Job:
    dim: int
    members: tuple[tuple[tuple[tuple[Fraction, ...], Fraction], ...], ...]
    points: tuple[tuple[Fraction, ...], ...]


@dataclass
class Out:
    vertices: tuple
    images: list
    verdict: object


def setup():
    return None


def trace_extras(state) -> dict[str, float]:
    return {}


def _member(rng: random.Random, dim: int, n_balls: int):
    """Balls whose union leaves a corner of the unit box uncovered.

    kappa weights are distances to the complement of a member, so a member
    covering the whole box would have no weight; such draws are redrawn.
    """
    corners = list(itertools.product((Fraction(0), Fraction(1)), repeat=dim))
    while True:
        balls = tuple(
            (
                tuple(Fraction(rng.randrange(0, 65), 64) for _ in range(dim)),
                Fraction(rng.randrange(8, 32), 64),
            )
            for _ in range(n_balls)
        )
        if not all(_inside(c, balls) for c in corners):
            return balls


def make_job(state, seed: int, i: int) -> Job:
    """Sizes cycle with the job index, so every run holds the same mix of
    member, ball and point counts; the seed draws the geometry."""
    rng = random.Random(f"kappa:{seed}:{i}")
    if i % 8 == 5:
        dim, n_members, max_balls, n_points = 3, 4 + (i // 8) % 2, 2, 2 + (i // 16) % 2
    else:
        dim, n_members, max_balls, n_points = 2, 4 + i % 5, 4, 2 + (i // 5) % 4
    members = tuple(_member(rng, dim, 1 + (i + m) % max_balls) for m in range(n_members))
    points = []
    for _ in range(n_points):
        centre, radius = rng.choice(rng.choice(members))
        # a point strictly inside the cube; clipping to [0,1] keeps it inside
        points.append(
            tuple(
                min(max(c + radius * Fraction(rng.randrange(-15, 16), 16), Fraction(0)), Fraction(1))
                for c in centre
            )
        )
    return Job(dim, members, tuple(points))


def _open_sets(job: Job):
    return tuple(open_set(*(ball(c, r) for c, r in balls)) for balls in job.members)


def run_job(state, job: Job, span) -> Out:
    members = _open_sets(job)
    with span("covers_nerve.FiniteCover"):
        U = FiniteCover(members, PointCloud(job.dim, job.points))
    with span("covers_nerve.general_position"):
        vertices = general_position([m.balls[0].center for m in members], GP_EPS)
    images = []
    for p in job.points:
        with span("covers_nerve.kappa_map"):
            images.append(kappa_map(p, U, vertices))
    with span("covers_nerve.verify_eps_eta"):
        verdict = verify_eps_eta(list(zip(job.points, images)), EPS, ETA)
    return Out(vertices, images, verdict)


def _dist(a, b) -> Fraction:
    return max(abs(x - y) for x, y in zip(a, b))


def _inside(p, balls) -> bool:
    return any(all(c - r < x < c + r for x, c in zip(p, centre)) for centre, r in balls)


def _violations(points, images):
    for a in range(len(points)):
        for b in range(a + 1, len(points)):
            if _dist(images[a], images[b]) < ETA and not _dist(points[a], points[b]) < EPS:
                yield a, b


def check(job: Job, out: Out, span) -> str | None:
    if len(out.vertices) != len(job.members):
        return "general_position lost a vertex"
    for v, balls in zip(out.vertices, job.members):
        if not _dist(v.coords, balls[0][0]) < GP_EPS:
            return "general_position moved a centre by eps or more"
    members = _open_sets(job)
    for p, img in zip(job.points, out.images):
        w = []
        for m in members:
            with span("covers_nerve.complement_distance"):
                w.append(complement_distance(p, m))
        if not all(isinstance(x, Fraction) and x >= 0 for x in w):
            return f"weights {w} are not nonnegative Fractions"
        support = [x > 0 for x in w]
        if support != [_inside(p, balls) for balls in job.members]:
            return f"weight support at {p} is not the set of members containing it"
        total = sum(w)
        expected = tuple(
            sum(x * v.coords[a] for x, v in zip(w, out.vertices)) / total
            for a in range(job.dim)
        )
        if img.coords != expected:
            return f"kappa image at {p} is not the weight-averaged vertices"
    images = [img.coords for img in out.images]
    first = next(_violations(job.points, images), None)
    if isinstance(out.verdict, EpsEtaCertificate):
        if first is not None:
            return f"certificate issued despite violating pair {first}"
    else:
        (x, gx), (y, gy) = out.verdict
        if not (_dist(gx.coords, gy.coords) < ETA and not _dist(x.coords, y.coords) < EPS):
            return "counterexample pair does not violate the condition"
    return None


def canonical(job: Job, out: Out):
    verdict = out.verdict
    if isinstance(verdict, EpsEtaCertificate):
        verdict = "certificate"
    else:
        verdict = [(x.coords, gx.coords) for x, gx in verdict]
    return {
        "vertices": [v.coords for v in out.vertices],
        "images": [img.coords for img in out.images],
        "verdict": verdict,
    }


def count(job: Job, out: Out, tally) -> None:
    # kappa_map scans the unit box against each member's cubes once per
    # point; a member of one ball is measured without a scan
    cubes = [(c, r) for balls in job.members if len(balls) > 1 for c, r in balls]
    meeting = sum(1 for c, r in cubes if all(x - r < 1 and x + r > 0 for x in c))
    tally.n["box_cube_pairs"] += len(job.points) * len(cubes)
    tally.n["meeting_pairs"] += len(job.points) * meeting
