"""inverse-limit: branch-code round trips, orbits and branching trees.

Each job draws a branch word of depth 20-40 and runs ``decode_point`` then
``encode_point`` on it, under the tent map, the five-segment map, or a
freshly generated random PL map of 3-6 vertices onto [0,1] with no
constant segment (built inside the job, so per-map derived data is a
measured cost rather than a cache hit).  Tent and five-segment jobs also
classify the orbit of a random rational with ``orbit_analyze``, and two
jobs in ten build a tent ``branching_tree`` of depth 10-12.  Fresh maps get
no orbit: their cycle table composes the map up to power 8, and the
segment count grows like k^8.

The work is the preimage and critical-value rescans on every call
(ROADMAP item 3) and Fraction arithmetic on growing denominators; no
covers code runs.  The cycle tables of the two fixed maps are built in
set-up (``inverse_limits.warmup_s``).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

import plref
from effdim import (
    BranchCode,
    InverseSystem,
    PLMap,
    branching_tree,
    decode_point,
    encode_point,
    five_segment_map,
    orbit_analyze,
    tent_map,
)

# By cost the kinds run tent and fresh (3 in 10), five with its orbit (5),
# tree (2), so the median falls inside the five-segment jobs and p90 inside
# the tree jobs rather than on a boundary between kinds.
SCHEDULE = ("five", "fresh", "tree", "five", "tent", "five", "fresh", "five", "tree", "five")
# The tree depth steps once per schedule cycle through three values.
DIGEST_JOBS = 3 * len(SCHEDULE)
SPANS = (
    "inverse_limits.PLMap",
    "inverse_limits.decode_point",
    "inverse_limits.encode_point",
    "inverse_limits.orbit_analyze",
    "inverse_limits.branching_tree",
)
ORBIT_BUDGET = 10_000


@dataclass(frozen=True)
class Job:
    map: str
    vertices: plref.Vertices
    x0: Fraction
    word: tuple[int, ...]
    expected: tuple[Fraction, ...]
    orbit_x0: Fraction | None
    tree_depth: int | None


@dataclass
class Out:
    trajectory: tuple
    code: BranchCode
    orbit: object
    leaves: int | None


@dataclass
class State:
    maps: dict
    warmup_s: float


def setup() -> State:
    maps = {"tent": tent_map(), "five": five_segment_map()}
    start = time.perf_counter()
    for f in maps.values():
        orbit_analyze(f, Fraction(1, 3))
    return State(maps, time.perf_counter() - start)


def trace_extras(state: State) -> dict[str, float]:
    return {"inverse_limits.warmup_s": state.warmup_s}


def _random_rational(rng: random.Random, max_den: int) -> Fraction:
    den = rng.randrange(1, max_den + 1)
    return Fraction(rng.randrange(0, den + 1), den)


def _fresh_vertices(rng: random.Random) -> plref.Vertices:
    """3-6 vertices, x from 0 to 1, no constant segment, range exactly [0,1]."""
    n = rng.randrange(3, 7)
    xs = [Fraction(0)] + sorted(Fraction(v, 24) for v in rng.sample(range(1, 24), n - 2)) + [Fraction(1)]
    while True:
        ys = [Fraction(rng.randrange(0, 13), 12) for _ in range(n)]
        if min(ys) == 0 and max(ys) == 1 and all(a != b for a, b in zip(ys, ys[1:])):
            return tuple(zip(xs, ys))


def make_job(state: State, seed: int, i: int) -> Job:
    rng = random.Random(f"inverse-limit:{seed}:{i}")
    kind = SCHEDULE[i % len(SCHEDULE)]
    name = "tent" if kind == "tree" else kind
    verts = {"tent": plref.TENT, "five": plref.FIVE}.get(name) or _fresh_vertices(rng)
    x0 = _random_rational(rng, 400)
    word = []
    walk = [x0]
    # depths cycle with the job index, so every run holds the same mix
    for _ in range(20 + (7 * i) % 21):
        if name == "tent":
            options = plref.tent_options(walk[-1])
        else:
            options = plref.preimages(verts, walk[-1])
        k = rng.randrange(len(options))
        word.append(k)
        walk.append(options[k])
    orbit_x0 = _random_rational(rng, 1000) if name != "fresh" else None
    tree_depth = 10 + (i // len(SCHEDULE)) % 3 if kind == "tree" else None
    return Job(name, verts, x0, tuple(word), tuple(walk), orbit_x0, tree_depth)


def run_job(state: State, job: Job, span) -> Out:
    if job.map == "fresh":
        with span("inverse_limits.PLMap"):
            f = PLMap(job.vertices)
    else:
        f = state.maps[job.map]
    system = InverseSystem.constant(f)
    with span("inverse_limits.decode_point"):
        traj = decode_point(system, BranchCode(job.x0, job.word))
    with span("inverse_limits.encode_point"):
        code = encode_point(system, traj)
    orbit = leaves = None
    if job.orbit_x0 is not None:
        with span("inverse_limits.orbit_analyze"):
            orbit = orbit_analyze(f, job.orbit_x0, budget=ORBIT_BUDGET)
    if job.tree_depth is not None:
        with span("inverse_limits.branching_tree"):
            tree = branching_tree(system, job.x0, job.tree_depth)
        leaves = tree.leaf_count()
    return Out(traj, code, orbit, leaves)


def _check_orbit(verts, x0: Fraction, orbit) -> str | None:
    if orbit.kind == "Preperiodic":
        path = plref.orbit_prefix(verts, x0, orbit.steps)
        if path[orbit.tail] != path[-1] or len(set(path[:-1])) != orbit.steps:
            return f"orbit of {x0} is not preperiodic with tail {orbit.tail}, period {orbit.period}"
    elif orbit.kind == "AsymptoticallyPeriodic":
        cycle = orbit.cycle
        if any(plref.evaluate(verts, a) != b for a, b in zip(cycle, cycle[1:] + cycle[:1])):
            return f"reported cycle {cycle} is not a cycle"
        x = plref.orbit_prefix(verts, x0, orbit.steps)[-1]
        if orbit.final_distance != min(abs(x - c) for c in cycle) or orbit.final_distance <= 0:
            return "reported distance to the cycle is wrong"
    elif orbit.steps > ORBIT_BUDGET:
        return "Unknown orbit ran past its budget"
    return None


def _leaf_count(x0: Fraction, depth: int) -> int:
    level = [x0]
    for _ in range(depth):
        level = [p for y in level for p in plref.tent_options(y)]
    return len(level)


def check(job: Job, out: Out, span) -> str | None:
    if tuple(out.trajectory) != job.expected:
        return "decoded trajectory differs from the reference walk"
    if not plref.is_backward_trajectory(job.vertices, out.trajectory):
        return "decoded trajectory breaks f(x_{n+1}) = x_n"
    critical = plref.critical_values(job.vertices)
    ex_time = frozenset(n for n, x in enumerate(job.expected) if x in critical)
    if (out.code.x0, out.code.word, out.code.ex_time) != (job.x0, job.word, ex_time):
        return "encode_point did not return the drawn code"
    if out.orbit is not None:
        error = _check_orbit(job.vertices, job.orbit_x0, out.orbit)
        if error:
            return error
    if out.leaves is not None and out.leaves != _leaf_count(job.x0, job.tree_depth):
        return "branching tree has the wrong leaf count"
    return None


def canonical(job: Job, out: Out):
    orbit = out.orbit.to_json() if out.orbit is not None else None
    return {"trajectory": out.trajectory, "code": out.code.to_json(), "orbit": orbit, "leaves": out.leaves}


def count(job: Job, out: Out, tally) -> None:
    tally.n["maps"] += 1
    tally.n["fresh_maps"] += job.map == "fresh"
    bits = [x.denominator.bit_length() for x in out.trajectory]
    if out.orbit is not None:
        tally.n["orbits"] += 1
        tally.n["orbit_unknown"] += out.orbit.kind == "Unknown"
        bits += [c.denominator.bit_length() for c in out.orbit.cycle]
        if out.orbit.final_distance is not None:
            bits.append(out.orbit.final_distance.denominator.bit_length())
    tally.denominator_bits.append(max(bits))
