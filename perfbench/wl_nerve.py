"""nerve: random ball covers of symbolic carriers, validated and scanned whole.

Each job builds a cover through ``ball``, ``open_set`` and ``FiniteCover``
(validation on), then calls ``nerve_of``, ``cover_multiplicity`` and
``cover_mesh``.  Three jobs in twenty also run ``refine_cover`` (family
budget 6) and ``shrink_cover`` on an interval or Cantor cover.  All four
scans cut every carrier box by every cube of the cover, and most cubes
miss most boxes, so a box-local scan (ROADMAP item 2) should show here.

Carriers: interval at depth 4 (81 boxes), Cantor at depth 5 (32), carpet
at depth 2 (64) and sponge at depth 1 (20).  Balls sit on the cells of a
coarser "parent" level, one per cell, with widths between one and two
parent cells and a centre jitter small enough that each ball still holds
its closed cell, so every cover covers by construction.  Carpet and
sponge use block covers, one ball per 2x2(x2) block of depth-1 cells:
with a ball per depth-1 cell a carpet job takes ~0.5 s and a sponge job
2-30 s, too long for a run of 20 seconds that must hold about a hundred
jobs or more.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from effdim import (
    FiniteCover,
    PreconditionError,
    SymbolicCarrier,
    ball,
    cantor_carrier,
    carpet_descriptor,
    cover_mesh,
    cover_multiplicity,
    interval_carrier,
    nerve_of,
    open_set,
    refine_cover,
    shrink_cover,
    sponge_descriptor,
)

REFINE_BUDGET = 6

# (carrier, parent level of the balls, refine and shrink?); carpet and
# sponge use the block cover instead of a parent level.
KINDS = {
    "cantor": ("cantor", None, False),
    "interval": ("interval", 2, False),
    "carpet": ("carpet", "block", False),
    "sponge": ("sponge", "block", False),
    "interval-refine": ("interval", 1, True),
    "cantor-refine": ("cantor", 2, True),
}
# Sorted by cost the kinds run cantor, cantor-refine, interval,
# interval-refine, carpet, sponge, so the median falls inside the interval
# jobs and p90 inside the sponge jobs (3 in 20), whose cost hardly depends
# on the drawn radius, rather than on a boundary between kinds.  Heavy
# kinds are spread out so that a run cut at any point holds a steady share
# of each.
SCHEDULE = (
    "interval", "cantor", "sponge", "interval", "cantor-refine",
    "interval", "carpet", "cantor", "interval", "sponge",
    "cantor", "interval", "carpet", "cantor", "interval-refine",
    "interval", "sponge", "cantor", "cantor-refine", "interval",
)
# The Cantor level alternates between schedule cycles and the block radii
# step once per cycle, so the digests cover two whole cycles.
DIGEST_JOBS = 2 * len(SCHEDULE)
SPANS = (
    "covers_nerve.FiniteCover",
    "covers_nerve.nerve_of",
    "covers_nerve.cover_multiplicity",
    "covers_nerve.cover_mesh",
    "covers_nerve.refine_cover",
    "covers_nerve.shrink_cover",
)


@dataclass(frozen=True)
class Job:
    carrier: str
    members: tuple[tuple[tuple[tuple[Fraction, ...], Fraction], ...], ...]
    refine: tuple[int, Fraction] | None


@dataclass
class Out:
    cover: FiniteCover
    nerve: object
    multiplicity: int
    mesh: Fraction
    refined: FiniteCover | str | None
    shrunk: tuple | None


def setup() -> dict[str, SymbolicCarrier]:
    carriers = {
        "interval": interval_carrier(4),
        "cantor": cantor_carrier(5),
        "carpet": SymbolicCarrier(carpet_descriptor(), 2),
        "sponge": SymbolicCarrier(sponge_descriptor(), 1),
    }
    for c in carriers.values():
        for k in range(c.depth + 1):
            c.cells_at(k)
    return carriers


def trace_extras(state) -> dict[str, float]:
    return {}


def _grid_members(carrier: SymbolicCarrier, level: int, rng: random.Random):
    parents = carrier.cells_at(level)
    pw = carrier.width_at(level)
    count = min(rng.randrange(4, 9), len(parents))
    groups: list[list] = [[] for _ in range(count)]
    for i, cell in enumerate(parents):
        groups[i if i < count else rng.randrange(count)].append(cell)
    members = []
    for cells in groups:
        balls = []
        for cell in cells:
            # radius pw/2 + k*pw/16 and jitter at most (k-1)*pw/32 per axis
            # keep the closed cell strictly inside the ball
            k = rng.randrange(1, 9)
            centre = tuple(
                (lo + hi) / 2 + Fraction(rng.randrange(1 - k, k), 32) * pw
                for lo, hi in cell.bounds
            )
            balls.append((centre, pw / 2 + Fraction(k, 16) * pw))
        members.append(tuple(balls))
    return tuple(members)


def _block_members(dim: int, seed: int, i: int):
    """One ball per corner of {1/3, 2/3}^dim, radius 1/3 + k/48 for k in 1..8.

    Each ball holds a 2^dim block of depth-1 cells.  In 3-D the balls share
    one radius, which keeps the cuts per box, and a job, under a second.
    The radii step through all eight values over eight schedule cycles,
    from an offset the seed picks, so every run holds the same mix of these
    tail jobs and p90 does not depend on which radii a seed happened to draw.
    """
    step = seed + i // len(SCHEDULE)
    corners = itertools.product((Fraction(1, 3), Fraction(2, 3)), repeat=dim)
    return tuple(
        ((corner, Fraction(1, 3) + Fraction(1 + (step + (3 * b if dim == 2 else 0)) % 8, 48)),)
        for b, corner in enumerate(corners)
    )


def make_job(state, seed: int, i: int) -> Job:
    rng = random.Random(f"nerve:{seed}:{i}")
    name, level, refine = KINDS[SCHEDULE[i % len(SCHEDULE)]]
    carrier = state[name]
    if level == "block":
        members = _block_members(carrier.dim, seed, i)
    else:
        # the two Cantor levels alternate between schedule cycles
        members = _grid_members(carrier, level if level is not None else 3 + (i // len(SCHEDULE)) % 2, rng)
    target = None
    if refine:
        target = (rng.choice((1, 2)), carrier.width_at(level) * rng.choice((1, 2)))
    return Job(name, members, target)


def run_job(state, job: Job, span) -> Out:
    carrier = state[job.carrier]
    members = tuple(open_set(*(ball(c, r) for c, r in balls)) for balls in job.members)
    with span("covers_nerve.FiniteCover"):
        U = FiniteCover(members, carrier)
    with span("covers_nerve.nerve_of"):
        N = nerve_of(U)
    with span("covers_nerve.cover_multiplicity"):
        mult = cover_multiplicity(U)
    with span("covers_nerve.cover_mesh"):
        mesh = cover_mesh(U)
    refined = shrunk = None
    if job.refine is not None:
        with span("covers_nerve.refine_cover"):
            try:
                refined = refine_cover(U, job.refine[0], job.refine[1], budget=REFINE_BUDGET)
            except PreconditionError as exc:
                if str(exc) != "search exhausted":
                    raise
                refined = "exhausted"
        with span("covers_nerve.shrink_cover"):
            shrunk = shrink_cover(U)
    return Out(U, N, mult, mesh, refined, shrunk)


def _inside(inner, outer) -> bool:
    return all(olo <= ilo and ihi <= ohi for (ilo, ihi), (olo, ohi) in zip(inner, outer))


def check(job: Job, out: Out, span) -> str | None:
    try:
        out.nerve.validate()
    except PreconditionError as exc:
        return f"nerve fails validate(): {exc}"
    if out.nerve.vertex_count != len(job.members):
        return "nerve vertex count differs from the member count"
    if out.multiplicity != out.nerve.dimension() + 1:
        return f"multiplicity {out.multiplicity} != nerve dimension + 1"
    if not 0 < out.mesh <= 1:
        return f"mesh {out.mesh} outside (0, 1]"
    if isinstance(out.refined, FiniteCover):
        parents = out.refined.parents
        if parents is None or len(parents) != len(out.refined.members):
            return "refined cover lacks one parent per member"
        if not all(0 <= p < len(job.members) for p in parents):
            return "refined cover names a parent out of range"
    if out.shrunk is not None:
        closed, opened = out.shrunk
        if len(closed) != len(job.members) or len(opened) != len(job.members):
            return "shrinking has the wrong number of members"
        for balls, boxes, v in zip(job.members, closed, opened):
            cubes = [tuple((x - r, x + r) for x in c) for c, r in balls]
            for box in boxes:
                clipped = [tuple((max(lo, 0), min(hi, 1)) for lo, hi in cube) for cube in cubes]
                if not any(_inside(box.bounds, cube) for cube in clipped):
                    return "closed shrinking leaves its member"
            radii = {c: r for c, r in balls}
            for b in v.balls:
                if not 0 < b.radius < radii.get(b.center.coords, 0):
                    return "open shrinking does not shrink a member ball"
    return None


def canonical(job: Job, out: Out):
    refined = out.refined
    if isinstance(refined, FiniteCover):
        refined = {
            "members": [[(b.center.coords, b.radius) for b in m.balls] for m in refined.members],
            "parents": refined.parents,
        }
    shrunk = None
    if out.shrunk is not None:
        closed, opened = out.shrunk
        shrunk = {
            "closed": [[box.bounds for box in boxes] for boxes in closed],
            "open": [[(b.center.coords, b.radius) for b in v.balls] for v in opened],
        }
    return {
        "faces": out.nerve.faces,
        "multiplicity": out.multiplicity,
        "mesh": out.mesh,
        "refined": refined,
        "shrunk": shrunk,
    }


def count(job: Job, out: Out, tally) -> None:
    boxes = out.cover.carrier.boxes()
    cubes = [tuple((x - r, x + r) for x in c) for balls in job.members for c, r in balls]
    meeting = sum(
        1
        for box in boxes
        for cube in cubes
        if all(clo < bhi and chi > blo for (blo, bhi), (clo, chi) in zip(box.bounds, cube))
    )
    # validation, nerve_of, cover_multiplicity and cover_mesh each scan
    # every (carrier box, cube) pair once
    tally.n["box_cube_pairs"] += 4 * len(boxes) * len(cubes)
    tally.n["meeting_pairs"] += 4 * meeting
    tally.n["faces"] += len(out.nerve.faces)
    if job.refine is not None:
        tally.n["refine_calls"] += 1
        tally.n["refine_exhausted"] += out.refined == "exhausted"
