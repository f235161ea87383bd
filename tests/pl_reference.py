"""A plain Fraction reference for effdim's inverse-limit layer.

A map is its vertex list, (x, y) Fractions with x running from 0 to 1,
and a system a function from level n to its map's vertex list.  Each
function does the textbook computation (scan the segments, solve each
one, iterate, rank) and raises effdim's messages.  It imports the
standard library and PreconditionError only, takes effdim's caps as
arguments and reads no kernel or derived datum of effdim.
"""

from __future__ import annotations

import functools
from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Sequence

from effdim import PreconditionError

Vertices = tuple[tuple[Fraction, Fraction], ...]
Levels = Callable[[int], Vertices]


def _segments(verts: Vertices) -> list[tuple[Fraction, Fraction, Fraction, Fraction, Fraction]]:
    """Each segment as (x0, x1, y0, y1, slope)."""
    return [(x0, x1, y0, y1, (y1 - y0) / (x1 - x0)) for (x0, y0), (x1, y1) in zip(verts, verts[1:])]


def _value(segments, x: Fraction) -> Fraction:
    if not 0 <= x <= 1:
        raise PreconditionError("argument outside [0,1]")
    for x0, x1, y0, _, s in segments:
        if x <= x1:
            return y0 + s * (x - x0)


def evaluate(verts: Vertices, x: Fraction) -> Fraction:
    """f(x), read off the first segment whose right end is at or past x."""
    return _value(_segments(verts), x)


def _solutions(segments, y: Fraction) -> set[Fraction]:
    return {x0 + (y - y0) / s for x0, _, y0, y1, s in segments if y0 <= y <= y1 or y1 <= y <= y0}


def _preimages(segments, y: Fraction) -> tuple[Fraction, ...]:
    sols = _solutions(segments, y)
    if not sols:
        raise PreconditionError("value outside the range of the map")
    return tuple(sorted(sols))


def preimages(verts: Vertices, y: Fraction) -> tuple[Fraction, ...]:
    """The solutions of f(x) = y, each segment solved, repeats dropped, sorted."""
    return _preimages(_segments(verts), y)


def critical_values(verts: Vertices) -> set[Fraction]:
    """The values at interior vertices where the slope changes sign."""
    return {y1 for (_, y0), (_, y1), (_, y2) in zip(verts, verts[1:], verts[2:]) if (y1 > y0) != (y2 > y1)}


def compose(f: Vertices, g: Vertices) -> Vertices:
    """f∘g, cut at g's vertices and where g meets the x value of a vertex of f."""
    at = dict(g)  # each cut x and g(x)
    g_segments, f_segments = _segments(g), _segments(f)
    for v, _ in f:
        at.update((x, v) for x in _solutions(g_segments, v))
    return tuple((x, _value(f_segments, at[x])) for x in sorted(at))


def _next_power(f: Vertices, fp: Vertices, p: int, segment_cap: int) -> Vertices:
    """f^p from f^(p-1), refused when (segments of f) x (segments of f^(p-1)) passes the cap."""
    if (len(f) - 1) * (len(fp) - 1) > segment_cap:
        raise PreconditionError(f"f^{p} may exceed {segment_cap} segments")
    return compose(f, fp)


def iterate_map(f: Vertices, power: int, segment_cap: int) -> Vertices:
    if power < 1:
        raise PreconditionError("power must be at least 1")
    fp = f
    for p in range(2, power + 1):
        fp = _next_power(f, fp, p, segment_cap)
    return fp


@functools.lru_cache(maxsize=None)
def cycles(f: Vertices, max_period: int, segment_cap: int) -> tuple[tuple[Fraction, ...], ...]:
    """The cycles of period <= max_period, lowest period first, each traced from its smallest point.

    A period-p point is a fixed point of a segment of f^p: both ends of a
    segment on the diagonal, else where the segment's line meets it.
    """
    found: list[tuple[Fraction, ...]] = []
    known: set[Fraction] = set()
    fp, segments = f, _segments(f)
    for p in range(1, max_period + 1):
        if p > 1:
            fp = _next_power(f, fp, p, segment_cap)
        fixed = set()
        for x0, x1, y0, _, s in _segments(fp):
            if s == 1:
                fixed.update((x0, x1) if y0 == x0 else ())
            elif x0 <= (x := (y0 - s * x0) / (1 - s)) <= x1:
                fixed.add(x)
        for x in sorted(fixed):
            if x in known:
                continue
            orbit = [x]
            while (y := _value(segments, orbit[-1])) != x:
                orbit.append(y)
            if len(orbit) == p:
                found.append(tuple(orbit))
                known.update(orbit)
    return tuple(found)


def _start(x0: Fraction) -> None:
    if not 0 <= x0 <= 1:
        raise PreconditionError("start point outside [0,1]")


@functools.lru_cache(maxsize=None)
def _cycle_index(f: Vertices, max_period: int, segment_cap: int) -> tuple:
    """The cycles, every cycle point v with its cycle's index i as (v, i) ascending, and the vs alone."""
    found = cycles(f, max_period, segment_cap)
    points = sorted((v, i) for i, cycle in enumerate(found) for v in cycle)
    return found, points, [v for v, _ in points]


def orbit_analyze(
    f: Vertices, x0: Fraction, budget: int, tol: Fraction, max_period: int, segment_cap: int, bit_cap: int
) -> tuple:
    """The orbit report's fields (kind, tail, period, cycle, steps, final_distance).

    Exact repeats come from a seen dict; the candidate cycles at x own a
    cycle point in (x - tol, x + tol), found by bisecting the sorted points.
    """
    _start(x0)
    if budget < 1:
        raise PreconditionError("budget must be positive")
    if max_period < 0:
        raise PreconditionError("max_cycle_period must be nonnegative")
    found, points, values = _cycle_index(f, max_period, segment_cap)
    segments = _segments(f)
    seen: dict[Fraction, int] = {}
    x = x0
    for step in range(budget + 1):
        if x in seen:
            return ("Preperiodic", seen[x], step - seen[x], (), step, None)
        seen[x] = step
        # the window (x - tol, x + tol), from where x falls among the points
        lo = hi = bisect_left(values, x)
        while lo and values[lo - 1] > x - tol:
            lo -= 1
        while hi < len(values) and values[hi] < x + tol:
            hi += 1
        for i in sorted({i for _, i in points[lo:hi]}):
            d = min(abs(x - v) for v in found[i])
            if 0 < d < tol and min(abs(_value(segments, x) - v) for v in found[i]) <= d:
                return ("AsymptoticallyPeriodic", None, None, found[i], step, d)
        if x.denominator.bit_length() > bit_cap:
            return ("Unknown", None, None, (), step, None)
        if step < budget:
            x = _value(segments, x)
    return ("Unknown", None, None, (), budget, None)


def branching_tree(levels: Levels, x0: Fraction, depth: int, node_cap: int) -> list[tuple[Fraction, int]]:
    """The backward tree from x0 as a preorder list of (value, arity).

    Built a level at a time, so the errors come in effdim's order: a
    value off a level's range, or the node count passing node_cap once
    a value's preimages are in.
    """
    if depth < 0:
        raise PreconditionError("depth must be nonnegative")
    _start(x0)
    values, arities, nodes = [[x0]], [], 1
    for n in range(depth):
        segments = _segments(levels(n))
        level, arity = [], []
        for y in values[-1]:
            pre = _preimages(segments, y)
            level += pre
            arity.append(len(pre))
            if nodes + len(level) > node_cap:
                raise PreconditionError(f"branching tree exceeds {node_cap} nodes")
        nodes += len(level)
        values.append(level)
        arities.append(arity)
    firsts = [list(accumulate(a, initial=0)) for a in arities]
    out, stack = [], [(0, 0)]
    while stack:
        k, i = stack.pop()
        if k == depth:
            out.append((values[k][i], 0))
        else:
            out.append((values[k][i], arities[k][i]))
            stack.extend((k + 1, j) for j in reversed(range(firsts[k][i], firsts[k][i + 1])))
    return out


def decode_point(levels: Levels, x0: Fraction, word: Sequence[int], depth: int | None = None) -> tuple:
    """The backward trajectory taking the word[n]-th smallest preimage at level n."""
    depth = len(word) if depth is None else depth
    if depth < 0:
        raise PreconditionError("depth must be nonnegative")
    _start(x0)
    if depth > len(word):
        raise PreconditionError("word shorter than requested depth")
    traj = [x0]
    for n in range(depth):
        pre = preimages(levels(n), traj[-1])
        if not 0 <= word[n] < len(pre):
            raise PreconditionError(f"branch index {word[n]} out of range at level {n}")
        traj.append(pre[word[n]])
    return tuple(traj)


def encode_point(levels: Levels, traj: Sequence[Fraction]) -> tuple[Fraction, tuple[int, ...], frozenset[int]]:
    """(x0, word, ex_time): each x_(n+1)'s rank among x_n's preimages, and
    the levels whose value is a critical value of that level's map."""
    if not traj:
        raise PreconditionError("empty trajectory")
    _start(traj[0])
    word, ex_time = [], set()
    for n, (y, x) in enumerate(zip(traj, traj[1:])):
        verts = levels(n)
        if y in critical_values(verts):
            ex_time.add(n)
        if not 0 <= x <= 1:
            raise PreconditionError("argument outside [0,1]")
        sols = _solutions(_segments(verts), y)
        if x not in sols:
            raise PreconditionError(f"not a backward trajectory at level {n}")
        word.append(sorted(sols).index(x))
    try:
        if traj[-1] in critical_values(levels(len(traj) - 1)):
            ex_time.add(len(traj) - 1)
    except ValueError:  # a system may end at the trajectory's last level
        pass
    return traj[0], tuple(word), frozenset(ex_time)
