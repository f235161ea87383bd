"""Exact coding of points in inverse limits of piecewise-linear interval maps.

Maps are given by rational vertex lists with no constant segment, so
evaluation, preimage enumeration and composition all stay exact.  Each
map keeps its affine pieces, computed on first use, in two forms: int
pieces y = (a*x + b) / e with one denominator each, for evaluation and
composition, and the inverse pieces x = a*y + b with their y-ranges as
ints, for preimages.  One int step takes a reduced pair n / d to that of
f(n / d) with gcds against small ints only; orbits and cycles walk it.
Composition cuts g's int pieces where g crosses a vertex of f, so the
powers of f are built as int pieces, and the cycle table reads each
fixed point b / (e - a) off them, traces its cycle with the step and
files cycle points by floor(v * 2^64), one table for every tol.  A
point of the inverse limit is a backward trajectory; its branch code
records the starting value, the rank of each backward choice among
the sorted preimages, and the levels where it meets a critical value.

The loops that run once per value key and compare each exact value as
its reduced (numerator, denominator) int pair, the same equality as the
Fraction's without its hash: the levels of a branching tree, the levels
of a branch code's decoding and encoding, the steps and repeats of an
orbit and the cycle table's points.  One preimage kernel solves a whole
level of pairs at once; a branch code's level is a level of one pair.
A branching tree is held as its levels, built with the cyclic collector
paused since they hold no cycles: its nodes are built from their level
pairs when they are read, each builds a Fraction only when its value is
read, and its leaf count, arity profile and full-binary test are read
off the kernel's per-pair counts.
"""

from __future__ import annotations

import functools
import gc
import itertools
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterator, Sequence

from ._rat import PreconditionError, fmt, int_arg, rat


def _start_point(x0: Fraction) -> Fraction:
    """x0 read through ``_rat.rat``, refused with PreconditionError outside [0,1]."""
    x0 = rat(x0)
    if not 0 <= x0 <= 1:
        raise PreconditionError("start point outside [0,1]")
    return x0


def _map_arg(f, name: str) -> PLMap:
    """f, refused with PreconditionError unless it is a PLMap."""
    if not isinstance(f, PLMap):
        raise PreconditionError(f"{name} needs a PLMap, not {type(f).__name__}")
    return f


def _system_arg(system, name: str) -> InverseSystem:
    """system, refused with PreconditionError unless it is an InverseSystem."""
    if not isinstance(system, InverseSystem):
        raise PreconditionError(f"{name} needs an InverseSystem, not {type(system).__name__}")
    return system


# A piece (xn, xd, a, b, e) of a map or of one of its powers is
# y = (a * x + b) / e on [x_prev, xn / xd], all ints, with xn / xd reduced,
# e > 0 and gcd(a, b, e) = 1.  A map's pieces ascend in x and cover [0,1],
# so each piece's left end x_prev is the right end of the one before it,
# and 0 for the first.
Piece = tuple[int, int, int, int, int]


@dataclass(frozen=True)
class PLMap:
    """A piecewise-linear self-map of [0,1] through rational vertices.

    Vertices must have strictly increasing x from 0 to 1 and no two equal
    consecutive y values, which keeps the map finite-to-one.
    """

    vertices: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        try:
            if isinstance(self.vertices, str):
                raise TypeError
            verts = []
            for v in self.vertices:
                if len(v) != 2:  # refused here, not by unpacking's ValueError
                    raise TypeError
                x, y = v
                verts.append((rat(x), rat(y)))
        except TypeError:
            raise PreconditionError(f"PLMap needs a sequence of (x, y) vertices, not {self.vertices!r}") from None
        verts = tuple(verts)
        object.__setattr__(self, "vertices", verts)
        if len(verts) < 2:
            raise ValueError("need at least two vertices")
        xs = [x for x, _ in verts]
        if xs[0] != 0 or xs[-1] != 1:
            raise ValueError("vertex x-range must run from 0 to 1")
        if any(a >= b for a, b in zip(xs, xs[1:])):
            raise ValueError("vertex x values must strictly increase")
        for (_, y0), (_, y1) in zip(verts, verts[1:]):
            if y0 == y1:
                raise ValueError("constant segments are not allowed")
        if any(not 0 <= y <= 1 for _, y in verts):
            raise ValueError("values must lie in [0,1]")
        object.__setattr__(self, "_xs", xs)

    def __call__(self, x: Fraction) -> Fraction:
        x = rat(x)
        if not 0 <= x <= 1:
            raise PreconditionError("argument outside [0,1]")
        # every gcd here is against a, e or 1; Fraction(*self._step(...))
        # would re-run a full-size gcd in the constructor
        _, _, a, b, e = self._piece(x.numerator, x.denominator)
        return (a * x + b) / e

    def _piece(self, n: int, d: int) -> Piece:
        """The piece at n / d in [0,1], d > 0: the one segment lookup.

        It bisects the int vertex grid, as powers of a map reach thousands
        of segments: for an int g, g > (n / d)·den exactly when g > floor(n·den / d).
        """
        den, grid = self._grid
        return self._pieces[min(bisect_right(grid, n * den // d), len(grid) - 1) - 1]

    def _step(self, n: int, d: int) -> tuple[int, int]:
        """f(n / d) as a reduced pair, for a reduced pair n / d in [0,1], d > 0.

        As gcd(n, d) = 1, a prime of d that divides m = a*n + b*d also
        divides a, so gcd(m, e*d) = gcd(m, e*gcd(a, d)): both gcds are
        against small ints, however many bits n and d have.
        """
        _, _, a, b, e = self._piece(n, d)
        m = a * n + b * d
        g = gcd(m, e * gcd(a, d))
        return m // g, e * d // g

    def segments(self):
        return tuple(zip(self.vertices, self.vertices[1:]))

    @functools.cached_property
    def _pieces(self) -> tuple[Piece, ...]:
        """Per segment, its right end and affine piece as ints; see Piece."""
        out = []
        for (x0, y0), (x1, y1) in self.segments():
            s = (y1 - y0) / (x1 - x0)
            c = y0 - s * x0
            e = lcm(s.denominator, c.denominator)
            out.append((
                x1.numerator, x1.denominator,
                s.numerator * (e // s.denominator), c.numerator * (e // c.denominator), e,
            ))
        return tuple(out)

    @functools.cached_property
    def _grid(self) -> tuple[int, list[int]]:
        """The common denominator den of the vertex x values, and each x * den."""
        den = lcm(*(x.denominator for x in self._xs))
        return den, [x.numerator * (den // x.denominator) for x in self._xs]

    @functools.cached_property
    def _inverse(self) -> tuple[tuple[int, ...], ...]:
        """Per segment, its y-range and inverse piece x = a * y + b as ints.

        Each entry is (lo.num, lo.den, hi.num, hi.den, an, bn, d) with
        [lo, hi] the segment's y-range and a = an / d, b = bn / d.
        """
        out = []
        for (x0, y0), (x1, y1) in self.segments():
            lo, hi = min(y0, y1), max(y0, y1)
            a = (x1 - x0) / (y1 - y0)
            b = x0 - a * y0
            out.append((
                lo.numerator, lo.denominator, hi.numerator, hi.denominator,
                a.numerator * b.denominator, b.numerator * a.denominator,
                a.denominator * b.denominator,
            ))
        return tuple(out)

    @functools.cached_property
    def _extrema(self) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
        # Computed on first use: iterate_map builds huge maps that never
        # need their extrema.
        verts = self.vertices
        turns = [
            v for u, v, w in zip(verts, verts[1:], verts[2:]) if (v[1] > u[1]) != (w[1] > v[1])
        ]
        return tuple(x for x, _ in turns), tuple(sorted({y for _, y in turns}))

    @functools.cached_property
    def _critical_pairs(self) -> frozenset[tuple[int, int]]:
        """The critical values of ``_extrema`` as reduced (numerator, denominator) pairs."""
        return frozenset((y.numerator, y.denominator) for y in self._extrema[1])


def tent_map() -> PLMap:
    return PLMap(((Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(1)), (Fraction(1), Fraction(0))))


def five_segment_map() -> PLMap:
    """An increasing interval map with two interior folds and fixed endpoints."""
    pts = ((0, 0), (Fraction(1, 5), Fraction(1, 6)), (Fraction(2, 5), Fraction(4, 5)),
           (Fraction(3, 5), Fraction(1, 5)), (Fraction(4, 5), Fraction(5, 6)), (1, 1))
    return PLMap(tuple((Fraction(x), Fraction(y)) for x, y in pts))


def extrema_of(f: PLMap) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Interior local extrema: vertices where the slope changes sign.

    Returns (ex, ex_val) sorted ascending; ex_val keeps one copy per value.
    """
    return _map_arg(f, "extrema_of")._extrema


def _preimage_level(
    f: PLMap, level: Sequence[tuple[int, int]], room: int
) -> tuple[list[tuple[int, int]], list[int]]:
    """The solutions x of f(x) = p / q for every reduced pair (p, q), q > 0, of a level.

    The one preimage kernel, behind preimages, the branch codes and
    branching_tree.  Returns every pair's solutions as reduced pairs
    (x.numerator, x.denominator), concatenated in the level's order, and
    each pair's count.  Segment i contributes its solution, which lies in
    [x_i, x_(i+1)], when its y-range holds y; so a pair's solutions come
    out ascending, and a repeat can only be the vertex shared with the
    previous segment.  Raises PreconditionError when no segment's y-range
    holds a pair's value and, once that pair's solutions are in, when
    there are more than room of them: room is what is left of
    _TREE_NODE_CAP.
    """
    inverse = f._inverse
    sols: list[tuple[int, int]] = []
    counts: list[int] = []
    start = 0
    for p, q in level:
        last = None
        for lo_n, lo_d, hi_n, hi_d, an, bn, d in inverse:
            if lo_n * q <= p * lo_d and p * hi_d <= hi_n * q:
                n, m = an * p + bn * q, d * q
                g = gcd(n, m)
                x = (n // g, m // g)
                if x != last:
                    sols.append(x)
                    last = x
        end = len(sols)
        if end == start:
            raise PreconditionError("value outside the range of the map")
        counts.append(end - start)
        if end > room:
            raise PreconditionError(f"branching tree exceeds {_TREE_NODE_CAP} nodes")
        start = end
    return sols, counts


def _preimage_pairs(f: PLMap, p: int, q: int) -> list[tuple[int, int]]:
    """The solutions of f(x) = p / q, q > 0, ascending: a level of one pair, with no cap."""
    return _preimage_level(f, ((p, q),), len(f._inverse))[0]


def preimages(f: PLMap, y: Fraction) -> tuple[Fraction, ...]:
    """All exact solutions of f(x) = y, sorted ascending."""
    f, y = _map_arg(f, "preimages"), rat(y)
    return tuple(Fraction(n, m) for n, m in _preimage_pairs(f, y.numerator, y.denominator))


def _refine(f: PLMap, pieces: Sequence[Piece]) -> list[Piece]:
    """The pieces of f∘g from those of g, on ints.

    Each piece of g is cut where g crosses a vertex of f.  Between two
    cuts g stays inside one segment of f, so the slope of f∘g there is a
    product of two nonzero slopes: no constant piece can arise.  The
    segments g passes through are found by bisecting f's vertex x values
    scaled to their common denominator, and g's value at each piece's
    right end is carried in as the next piece's left-end value.
    """
    den, grid = f._grid
    fpieces = f._pieces
    out = []
    _, _, _, yn, yd = pieces[0]  # g's value yn / yd at the piece's left end
    for xn, xd, a, b, e in pieces:
        zn, zd = a * xn + b * xd, e * xd  # and at its right end
        up = a > 0
        (ln, ld), (hn, hd) = ((yn, yd), (zn, zd)) if up else ((zn, zd), (yn, yd))
        # the segments of f that g passes through, in order: those whose
        # scaled vertices bracket floor(lo * den) and ceil(hi * den)
        segs = range(bisect_right(grid, ln * den // ld) - 1, bisect_left(grid, -(-hn * den // hd)))
        segs = segs if up else segs[::-1]
        # g leaves segment j through its right vertex going up, else its left;
        # it meets vertex v at x = (v * e - b * den) / (a * den)
        bd, ad = b * den, a * den
        for j in segs:
            if j == segs[-1]:
                cn, cd = xn, xd
            else:
                cn, cd = grid[j + up] * e - bd, ad
                if cd < 0:
                    cn, cd = -cn, -cd
                g = gcd(cn, cd)
                cn, cd = cn // g, cd // g
            _, _, fa, fb, fe = fpieces[j]
            na, nb, ne = fa * a, fa * b + fb * e, fe * e
            g = gcd(na, nb, ne)
            out.append((cn, cd, na // g, nb // g, ne // g))
        yn, yd = zn, zd
    return out


def _vertices(pieces: Sequence[Piece]) -> tuple[tuple[Fraction, Fraction], ...]:
    _, _, _, b, e = pieces[0]
    return ((Fraction(0), Fraction(b, e)),) + tuple(
        (Fraction(xn, xd), Fraction(a * xn + b * xd, e * xd)) for xn, xd, a, b, e in pieces
    )


def compose(f: PLMap, g: PLMap) -> PLMap:
    """Exact composition x -> f(g(x)) as a PLMap."""
    f, g = _map_arg(f, "compose"), _map_arg(g, "compose")
    return PLMap(_vertices(_refine(f, g._pieces)))


# Largest segment count a power of f may reach.  f∘g has at most
# (segments of f) x (segments of g) segments; f^p of an l-lap map has about
# l^p.  On a 2-vCPU VM, the int pieces of the tent map's powers up to its
# 2^14 segments build in about 0.05 s, and iterate_map's PLMap of them,
# with its Fraction vertices, in about 0.2 s.  The five-segment map needs
# 5 x 2917 = 14585 for f^8.
_SEGMENT_CAP = 2**14


def _powers(f: PLMap) -> Iterator[Sequence[Piece]]:
    """The pieces of f, f^2, f^3, ..., refused past _SEGMENT_CAP."""
    pieces = f._pieces
    for p in itertools.count(2):
        yield pieces
        if len(f._pieces) * len(pieces) > _SEGMENT_CAP:
            raise PreconditionError(f"f^{p} may exceed {_SEGMENT_CAP} segments")
        pieces = _refine(f, pieces)


def iterate_map(f: PLMap, power: int) -> PLMap:
    """f composed with itself power times, refused past _SEGMENT_CAP."""
    _map_arg(f, "iterate_map")
    if int_arg(power, "power") < 1:
        raise PreconditionError("power must be at least 1")
    return PLMap(_vertices(next(itertools.islice(_powers(f), power - 1, None))))


@dataclass(frozen=True)
class OrbitReport:
    """Forward-orbit classification of a rational start point.

    kind is 'Preperiodic' (exact repeat: tail and period are exact),
    'AsymptoticallyPeriodic' (certified approach to an exact cycle within
    tolerance) or 'Unknown' (budget exhausted).
    """

    kind: str
    tail: int | None = None
    period: int | None = None
    cycle: tuple[Fraction, ...] = ()
    steps: int = 0
    final_distance: Fraction | None = None

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind, "steps": self.steps}
        if self.kind == "Preperiodic":
            out["tail"] = self.tail
            out["period"] = self.period
        if self.cycle:
            out["cycle"] = [fmt(c) for c in self.cycle]
        if self.final_distance is not None:
            out["final_distance"] = fmt(self.final_distance)
        return out


_DENOM_BIT_CAP = 20000


def _key(n: int, d: int) -> int:
    """floor(n / d * 2^64), the cycle table's integer key for n / d, d > 0."""
    return (n << 64) // d


def _cycle_points(f: PLMap, max_period: int) -> list[list[tuple[int, int]]]:
    """The exact cycles of period <= max_period, as reduced (numerator, denominator) pairs.

    A period-p point is a fixed point b / (e - a) of a piece of f^p.
    Cycles come lowest period first, each from its smallest point.
    """
    cycles: list[list[tuple[int, int]]] = []
    known: set[tuple[int, int]] = set()
    for p, pieces in zip(range(1, max_period + 1), _powers(f)):
        # the pieces ascend in x, so their fixed points come in ascending order
        ln, ld = 0, 1
        for xn, xd, a, b, e in pieces:
            if a == e:
                fixed = ((ln, ld), (xn, xd)) if b == 0 else ()
            else:
                n, d = (b, e - a) if e > a else (-b, a - e)
                fixed = ()
                if ln * d <= n * ld and n * xd <= xn * d:
                    g = gcd(n, d)
                    fixed = ((n // g, d // g),)
            ln, ld = xn, xd
            for x in fixed:
                if x in known:
                    continue
                # x is fixed by f^p, so it returns within p steps
                orbit = [x]
                cur = f._step(*x)
                while cur != x and len(orbit) < p:
                    orbit.append(cur)
                    cur = f._step(*cur)
                if cur == x and len(orbit) == p:
                    cycles.append(orbit)
                    known.update(orbit)
    return cycles


@functools.lru_cache(maxsize=64)
def _cycle_table(f: PLMap, max_period: int):
    """The exact cycles of period <= max_period, and their points by key.

    Cycles are _cycle_points', as Fraction tuples; keys lists _key of
    every cycle point in ascending order, and owners[i] the index of the
    cycle behind keys[i].  The powers of f and the known points are
    freed before any Fraction is built.
    """
    cycles = _cycle_points(f, max_period)
    entries = sorted((_key(*pt), idx) for idx, cycle in enumerate(cycles) for pt in cycle)
    return (
        tuple(tuple(Fraction(n, d) for n, d in cycle) for cycle in cycles),
        [k for k, _ in entries],
        [idx for _, idx in entries],
    )


def orbit_analyze(
    f: PLMap,
    x0: Fraction,
    budget: int = 10_000,
    tol: Fraction = Fraction(1, 2**40),
    max_cycle_period: int = 8,
) -> OrbitReport:
    """Classify the forward orbit of x0 under f.

    Exact repeats are found by hashing orbit values.  Failing that, the orbit
    is compared against the exactly-detected cycles of period up to
    max_cycle_period: once within tol of a cycle and not receding, the orbit
    is certified AsymptoticallyPeriodic.  Otherwise Unknown after the budget.
    A nonpositive tol puts no cycle within reach, and a max_cycle_period of
    0 detects no cycle.
    """
    _map_arg(f, "orbit_analyze")
    x0 = _start_point(x0)
    if int_arg(budget, "budget") < 1:
        raise PreconditionError("budget must be positive")
    if int_arg(max_cycle_period, "max_cycle_period") < 0:
        raise PreconditionError("max_cycle_period must be nonnegative")
    tol = rat(tol)
    cycles, keys, owners = _cycle_table(f, max_cycle_period)
    # A cycle point v within tol of x has |_key(v) - _key(x)| <= reach, so
    # that key window names every candidate cycle; any others it names are
    # at least tol away.  A negative reach names none.
    reach = -(-(tol.numerator << 64) // tol.denominator)
    # the orbit walks reduced (numerator, denominator) pairs: the same equality
    # as the Fraction's, without Fraction.__hash__'s modular inverse
    seen: dict[tuple[int, int], int] = {}
    pair = (x0.numerator, x0.denominator)
    for step in range(budget + 1):
        if pair in seen:
            tail = seen[pair]
            return OrbitReport("Preperiodic", tail=tail, period=step - tail, steps=step)
        seen[pair] = step
        k = _key(*pair)
        lo = bisect_left(keys, k - reach)
        hi = bisect_right(keys, k + reach)
        if lo < hi:
            x = Fraction(*pair)
            for ci in sorted(set(owners[lo:hi])):
                cycle = cycles[ci]
                d = min(abs(x - pt) for pt in cycle)
                if 0 < d < tol:
                    nxt = f(x)
                    d_next = min(abs(nxt - pt) for pt in cycle)
                    if d_next <= d:
                        return OrbitReport(
                            "AsymptoticallyPeriodic", cycle=cycle, steps=step, final_distance=d
                        )
        if pair[1].bit_length() > _DENOM_BIT_CAP:
            return OrbitReport("Unknown", steps=step)
        if step < budget:
            pair = f._step(*pair)
    return OrbitReport("Unknown", steps=budget)


# --- inverse systems and branch codes --------------------------------------


@dataclass(frozen=True)
class InverseSystem:
    """A level-indexed family of bonding maps; level n map carries X_{n+1} to X_n."""

    map_rule: Callable[[int], PLMap]

    @staticmethod
    def constant(f: PLMap) -> "InverseSystem":
        return InverseSystem(lambda n: f)

    def at(self, level: int) -> PLMap:
        if int_arg(level, "level") < 0:
            raise ValueError("level must be nonnegative")
        return self._at(level)

    def _at(self, level: int) -> PLMap:
        """The level's map; the library's level loops call this, as they count their levels from 0."""
        return _map_arg(self.map_rule(level), "InverseSystem.at")


@dataclass(frozen=True)
class BranchCode:
    """Branch coding of a backward trajectory: start, choice word, critical levels."""

    x0: Fraction
    word: tuple[int, ...]
    ex_time: frozenset[int] = frozenset()

    def to_json(self) -> dict:
        return {
            "x0": fmt(self.x0),
            "word": list(self.word),
            "ex_time": sorted(self.ex_time),
        }


def decode_point(system: InverseSystem, code: BranchCode, depth: int | None = None) -> tuple[Fraction, ...]:
    """Backward trajectory selected by a branch word.

    Level n step picks the word[n]-th preimage (ascending order) of the
    current value under the level-n map; the levels run on reduced
    (numerator, denominator) pairs, one Fraction built per level.  A start
    point outside [0,1] is refused at every depth.
    """
    _system_arg(system, "decode_point")
    if not isinstance(code, BranchCode):
        raise PreconditionError(f"decode_point needs a BranchCode, not {type(code).__name__}")
    try:
        size = len(code.word)
    except TypeError:
        kind = type(code.word).__name__
        raise PreconditionError(f"decode_point needs a tuple of branch indices, not {kind}") from None
    depth = size if depth is None else int_arg(depth, "depth")
    if depth < 0:
        raise PreconditionError("depth must be nonnegative")
    traj = [_start_point(code.x0)]
    if depth > size:
        raise PreconditionError("word shorter than requested depth")
    p, q = traj[0].numerator, traj[0].denominator
    for n in range(depth):
        pre = _preimage_pairs(system._at(n), p, q)
        k = int_arg(code.word[n], "a branch index")
        if not 0 <= k < len(pre):
            raise PreconditionError(f"branch index {k} out of range at level {n}")
        p, q = pre[k]
        traj.append(Fraction(p, q))
    return tuple(traj)


def encode_point(system: InverseSystem, trajectory: Sequence[Fraction]) -> BranchCode:
    """Recover the branch code of an exact backward trajectory.

    Ranks each x_{n+1} in [0,1] among the sorted preimages of x_n, which
    also verifies f_n(x_{n+1}) = x_n: x_{n+1} is a preimage exactly when
    it is among them.  ex_time collects the levels whose value is a
    critical value of that level's map, a reduced pair looked up in the
    map's cached pair set; only the last level's map is fetched for this
    alone, and a rule that ends there leaves that level out.  A start
    point outside [0,1] is refused, however short the trajectory.
    """
    _system_arg(system, "encode_point")
    try:
        if isinstance(trajectory, str):
            raise TypeError
        traj = [rat(x) for x in trajectory]
    except TypeError:
        kind = type(trajectory).__name__
        raise PreconditionError(f"encode_point needs a sequence of rationals, not {kind}") from None
    if not traj:
        raise PreconditionError("empty trajectory")
    _start_point(traj[0])
    word = []
    ex_time = set()
    for n in range(len(traj) - 1):
        f = system._at(n)
        x, y = traj[n + 1], traj[n]
        if (y.numerator, y.denominator) in f._critical_pairs:
            ex_time.add(n)
        # 0 <= x <= 1, read on the reduced pair without Fraction comparisons
        if not 0 <= x.numerator <= x.denominator:
            raise PreconditionError("argument outside [0,1]")
        try:
            # a value outside f's range, or a pair not among its solutions
            pre = _preimage_pairs(f, y.numerator, y.denominator)
            word.append(pre.index((x.numerator, x.denominator)))
        except ValueError:
            raise PreconditionError(f"not a backward trajectory at level {n}") from None
    n, y = len(traj) - 1, traj[-1]
    try:
        f = system.map_rule(n)
    except ValueError:
        # the rule may end before the trajectory's last level
        pass
    else:
        if (y.numerator, y.denominator) in _map_arg(f, "InverseSystem.at")._critical_pairs:
            ex_time.add(n)
    return BranchCode(traj[0], tuple(word), frozenset(ex_time))


class BranchNode:
    """A node of the backward branching tree.

    Holds its value as the reduced (numerator, denominator) int pair and
    builds the Fraction when value is read; equality, hashing, repr and
    frozenness are those of a frozen dataclass with fields value and
    children.  A hand-built node holds the tuple of children it is given.  A node
    that branching_tree made holds its place in its tree's levels
    instead: its children are built from the next level, with the same
    link, the first time they are read, and leaf_count, arity_profile
    and is_full_binary read the levels' counts rather than walk the
    nodes.  Such a node, while it is alive, keeps its whole tree's levels
    alive.  Equality, hashing and repr walk the nodes on an explicit
    stack, and a node pickles and copies as a flat preorder of its
    nodes, rebuilt hand-built; so all of them hold at any depth.
    """

    # _link is set only on the nodes branching_tree makes, to (levels, level,
    # index); their _children stays unset until children is first read
    __slots__ = ("_pair", "_children", "_link", "__weakref__")
    __match_args__ = ("value", "children")

    def __init__(self, value: Fraction, children: tuple["BranchNode", ...] = ()):
        if type(children) is not tuple:
            raise PreconditionError(f"BranchNode needs a tuple of children, not {type(children).__name__}")
        value = rat(value)
        _set_pair(self, (value.numerator, value.denominator))
        _set_children(self, children)

    @property
    def value(self) -> Fraction:
        return Fraction(*self._pair)

    @property
    def children(self) -> tuple["BranchNode", ...]:
        try:
            return self._children
        except AttributeError:
            levels, level, index = self._link
            children = levels.children(level, index)
            _set_children(self, children)
            return children

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # a walk over pairs of nodes, not a recursion per level
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if not (a.__class__ is b.__class__ and isinstance(a, BranchNode)):
                if a == b:
                    continue
                return False
            if a._pair != b._pair:
                return False
            ca, cb = a.children, b.children
            if len(ca) != len(cb):
                return False
            stack.extend(zip(reversed(ca), reversed(cb)))
        return True

    def __hash__(self):
        # hash((value, children)), taken bottom up rather than by a recursion
        # per level: each child node goes into its parent's tuple as a stand-in
        # carrying the child's hash, which is all a tuple hash reads of it
        order = [self]
        for node in order:
            order.extend(c for c in node.children if isinstance(c, BranchNode))
        hashes = {}
        for node in reversed(order):
            children = [_Hashed(hashes[id(c)]) if isinstance(c, BranchNode) else c for c in node.children]
            hashes[id(node)] = hash((node.value, tuple(children)))
        return hashes[id(self)]

    def __repr__(self):
        # the dataclass repr, written out from an explicit stack of nodes to
        # render and text to copy, not by a recursion per level
        parts = []
        stack: list[tuple[object, bool]] = [(self, False)]
        while stack:
            item, text = stack.pop()
            if text:
                parts.append(item)
            elif not isinstance(item, BranchNode):
                parts.append(repr(item))
            else:
                children = item.children
                parts.append(f"{type(item).__qualname__}(value={item.value!r}, children=(")
                stack.append((",))" if len(children) == 1 else "))", True))
                for i in reversed(range(len(children))):
                    stack.append((children[i], False))
                    if i:
                        stack.append((", ", True))
        return "".join(parts)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # a flat preorder of (pair, node-child count, (position, child) of
        # each other child), so pickle and deepcopy do not recurse per level
        order = []
        stack = [self]
        while stack:
            node = stack.pop()
            kids = [c for c in node.children if isinstance(c, BranchNode)]
            others = tuple((i, c) for i, c in enumerate(node.children) if not isinstance(c, BranchNode))
            order.append((node._pair, len(kids), others))
            stack.extend(reversed(kids))
        return _rebuild, (order,)

    def leaf_count(self) -> int:
        link = getattr(self, "_link", None)
        if link is not None:
            levels, level, index = link
            return levels.leaf_count(level, index)
        leaves = 0
        stack = [self]
        while stack:
            node = stack.pop()
            if node.children:
                stack.extend(node.children)
            else:
                leaves += 1
        return leaves

    def arity_profile(self) -> dict[int, int]:
        """How many internal nodes have each arity, in ascending arity."""
        link = getattr(self, "_link", None)
        if link is not None:
            levels, level, index = link
            return levels.arity_profile(level, index)
        profile: dict[int, int] = {}
        stack = [self]
        while stack:
            node = stack.pop()
            if node.children:
                profile[len(node.children)] = profile.get(len(node.children), 0) + 1
                stack.extend(node.children)
        return dict(sorted(profile.items()))

    def is_full_binary(self) -> bool:
        link = getattr(self, "_link", None)
        if link is not None:
            levels, level, index = link
            return levels.is_full_binary(level, index)
        stack = [self]
        while stack:
            node = stack.pop()
            if node.children:
                if len(node.children) != 2:
                    return False
                stack.extend(node.children)
        return True


class _Hashed:
    """A stand-in for an object inside a tuple being hashed: it hashes to the object's hash."""

    __slots__ = ("hash",)

    def __init__(self, hash_: int):
        self.hash = hash_

    def __hash__(self):
        return self.hash


_set_pair = BranchNode._pair.__set__
_set_children = BranchNode._children.__set__
_set_link = BranchNode._link.__set__


def _rebuild(order: list[tuple[tuple[int, int], int, tuple]]) -> BranchNode:
    """The hand-built tree of BranchNode.__reduce__'s preorder, built bottom up.

    Read backwards, a preorder meets each node after its subtree, so a
    node's children are the last ones built, its first child on top.
    """
    built: list[BranchNode] = []
    for pair, arity, others in reversed(order):
        children = [built.pop() for _ in range(arity)]
        for i, child in others:
            children.insert(i, child)
        node = object.__new__(BranchNode)
        _set_pair(node, pair)
        _set_children(node, tuple(children))
        built.append(node)
    return built[0]


class _Levels:
    """A branching tree as its levels, shared by every node made from them.

    pairs[k] lists level k's reduced (numerator, denominator) pairs,
    counts[k] the preimage count of each pair of a level k above the
    last, and offsets[k] their running sums from 0: the children of node
    (k, i) are the pairs offsets[k][i] to offsets[k][i + 1] - 1 of level
    k + 1.  The kernel raises on a pair with no preimage, so every node
    above the last level has children: the leaves are exactly the last
    level, and a node's subtree is one index range on each level.
    """

    __slots__ = ("pairs", "counts", "offsets")

    def __init__(self, pairs: list[list[tuple[int, int]]], counts: list[list[int]]):
        self.pairs = pairs
        self.counts = counts
        self.offsets = [list(itertools.accumulate(c, initial=0)) for c in counts]

    def node(self, level: int, index: int) -> BranchNode:
        """Node (level, index), linked to the levels, its children not yet built."""
        node = object.__new__(BranchNode)
        _set_pair(node, self.pairs[level][index])
        _set_link(node, (self, level, index))
        return node

    def children(self, level: int, index: int) -> tuple[BranchNode, ...]:
        if level == len(self.counts):
            return ()
        offsets = self.offsets[level]
        return tuple(self.node(level + 1, j) for j in range(offsets[index], offsets[index + 1]))

    def _spans(self, level: int, index: int) -> Iterator[tuple[int, int]]:
        """The index range [lo, hi) of node (level, index)'s subtree on its
        own level and on each one below it, down to the leaves."""
        lo, hi = index, index + 1
        yield lo, hi
        for offsets in self.offsets[level:]:
            lo, hi = offsets[lo], offsets[hi]
            yield lo, hi

    def leaf_count(self, level: int, index: int) -> int:
        for lo, hi in self._spans(level, index):
            pass
        return hi - lo

    def arity_profile(self, level: int, index: int) -> dict[int, int]:
        profile: Counter[int] = Counter()
        for counts, (lo, hi) in zip(self.counts[level:], self._spans(level, index)):
            profile.update(counts[lo:hi])
        return dict(sorted(profile.items()))

    def is_full_binary(self, level: int, index: int) -> bool:
        return all(
            counts[lo:hi].count(2) == hi - lo
            for counts, (lo, hi) in zip(self.counts[level:], self._spans(level, index))
        )


# Most nodes branching_tree may hold.  The tent map doubles each level, so
# depth 16 (131,071 nodes) still builds, its levels in about 0.08 s on a
# 2-vCPU VM under Python 3.11, and depth 30 would need 2^31 nodes.
_TREE_NODE_CAP = 2**17


def branching_tree(system: InverseSystem, x0: Fraction, depth: int) -> BranchNode:
    """Backward preimage tree from x0: node arity is the exact preimage count.

    Built level by level without recursion: each level is a list of
    reduced (numerator, denominator) pairs, read off the previous one by
    one call of the preimage kernel, which also gives each pair's count.
    The cyclic collector is paused for the levels, since they hold no
    cycles, and its prior state restored.  The tree is its levels
    (_Levels): the root returned is the one node built, and every other
    node is built from its level pair when its parent's children are
    first read (no Fraction is built until a node's value is read).  A
    node kept alive keeps its tree's levels alive.  Raises
    PreconditionError for a start point outside [0,1] and once the tree
    would pass _TREE_NODE_CAP nodes.
    """
    _system_arg(system, "branching_tree")
    if int_arg(depth, "depth") < 0:
        raise PreconditionError("depth must be nonnegative")
    x0 = _start_point(x0)
    collecting = gc.isenabled()
    gc.disable()
    try:
        levels = [[(x0.numerator, x0.denominator)]]
        arities: list[list[int]] = []
        room = _TREE_NODE_CAP - 1
        for level in range(depth):
            pairs, counts = _preimage_level(system._at(level), levels[-1], room)
            room -= len(pairs)
            levels.append(pairs)
            arities.append(counts)
    finally:
        if collecting:
            gc.enable()
    return _Levels(levels, arities).node(0, 0)
