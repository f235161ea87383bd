"""Tests for interval maps, orbit certificates and inverse-limit coding."""

import copy
import functools
import gc
import itertools
import pickle
import random
import weakref
from bisect import bisect_left, bisect_right
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import effdim.inverse_limits as il
from effdim import (
    BranchCode,
    InverseSystem,
    PLMap,
    PreconditionError,
    branching_tree,
    compose,
    decode_point,
    encode_point,
    extrema_of,
    five_segment_map,
    iterate_map,
    orbit_analyze,
    preimages,
    tent_map,
)

F = Fraction
TENT = InverseSystem.constant(tent_map())


@st.composite
def pl_maps(draw, max_vertices=6):
    """Random PL self-maps of [0,1]: x on a 1/24 grid, y on a 1/12 grid."""
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    inner = draw(st.lists(st.integers(1, 23), min_size=n - 2, max_size=n - 2, unique=True))
    xs = [F(0)] + sorted(F(v, 24) for v in inner) + [F(1)]
    ys = draw(
        st.lists(st.integers(0, 12), min_size=n, max_size=n).filter(
            lambda v: all(a != b for a, b in zip(v, v[1:]))
        )
    )
    return PLMap(tuple(zip(xs, (F(v, 12) for v in ys))))


unit_points = st.fractions(min_value=0, max_value=1, max_denominator=64)


class TestPLMap:
    def test_tent_values(self):
        f = tent_map()
        assert f(F(0)) == 0
        assert f(F(1, 4)) == F(1, 2)
        assert f(F(1, 2)) == 1
        assert f(F(3, 4)) == F(1, 2)
        assert f(F(1)) == 0

    def test_five_segment_values(self):
        f = five_segment_map()
        assert f(F(1, 5)) == F(1, 6)
        assert f(F(2, 5)) == F(4, 5)
        assert f(F(1, 2)) == F(1, 2)
        # Interior of the second segment: slope 19/6 from (1/5, 1/6).
        assert f(F(3, 10)) == F(29, 60)

    def test_vertex_validation(self):
        with pytest.raises(ValueError):
            PLMap(((F(0), F(0)), (F(0), F(1))))  # x not increasing
        with pytest.raises(ValueError):
            PLMap(((F(0), F(0)), (F(1, 2), F(0)), (F(1), F(1))))  # flat piece
        with pytest.raises(ValueError):
            PLMap(((F(0), F(0)), (F(1), F(2))))  # leaves the unit interval

    def test_argument_outside_domain(self):
        with pytest.raises(PreconditionError, match="outside"):
            tent_map()(F(3, 2))

    @given(f=pl_maps())
    def test_extrema_match_slope_signs(self, f):
        verts = f.vertices
        ex = []
        vals = set()
        for i in range(1, len(verts) - 1):
            (xa, ya), (xb, yb), (xc, yc) = verts[i - 1 : i + 2]
            left = (yb - ya) / (xb - xa)
            right = (yc - yb) / (xc - xb)
            if left * right < 0:
                ex.append(xb)
                vals.add(yb)
        assert extrema_of(f) == (tuple(ex), tuple(sorted(vals)))

    def test_extrema(self):
        ex, ex_vals = extrema_of(tent_map())
        assert ex == (F(1, 2),)
        assert ex_vals == (F(1),)
        ex, ex_vals = extrema_of(five_segment_map())
        assert ex == (F(2, 5), F(3, 5))
        # Critical values come back as a sorted set, not aligned with ex.
        assert ex_vals == (F(1, 5), F(4, 5))


class TestPreimages:
    def test_tent_preimages_sorted_without_repeats(self):
        f = tent_map()
        assert preimages(f, F(1, 2)) == (F(1, 4), F(3, 4))
        assert preimages(f, F(1)) == (F(1, 2),)
        assert preimages(f, F(0)) == (F(0), F(1))

    @given(y=st.fractions(min_value=0, max_value=1, max_denominator=64))
    def test_preimages_map_back(self, y):
        f = five_segment_map()
        pre = preimages(f, y)
        assert pre == tuple(sorted(set(pre)))
        assert pre, "a surjective map must have preimages"
        for p in pre:
            assert f(p) == y

    def test_value_above_the_range(self):
        f = PLMap(((F(0), F(0)), (F(1), F(1, 2))))
        assert preimages(f, F(1, 2)) == (F(1),)
        with pytest.raises(PreconditionError, match="value outside the range of the map"):
            preimages(f, F(3, 4))

    @given(f=pl_maps(), y=unit_points)
    def test_preimages_of_random_maps(self, f, y):
        ys = [v for _, v in f.vertices]
        if not min(ys) <= y <= max(ys):
            with pytest.raises(PreconditionError, match="value outside the range of the map"):
                preimages(f, y)
            return
        pre = preimages(f, y)
        assert pre == tuple(sorted(set(pre)))
        assert pre and all(f(p) == y for p in pre)

    @given(f=pl_maps(), g=pl_maps(), xs=st.lists(unit_points, max_size=8))
    def test_compose_agrees_pointwise(self, f, g, xs):
        fg = compose(f, g)
        for x in [x for x, _ in g.vertices] + xs:
            assert fg(x) == f(g(x))

    def test_compose_and_iterate(self):
        f = tent_map()
        ff = compose(f, f)
        assert ff(F(1, 4)) == f(F(1, 2)) == 1
        assert iterate_map(f, 3)(F(1, 8)) == 1

    def test_iterate_map_segment_cap(self, monkeypatch):
        # f^p of the tent map has 2^p segments; building f^7 from f^6 is
        # bounded by 2 * 64 = 128 segments
        monkeypatch.setattr(il, "_SEGMENT_CAP", 64)
        il._cycle_table.cache_clear()
        assert len(iterate_map(tent_map(), 6).vertices) == 65
        with pytest.raises(PreconditionError, match="64 segments"):
            iterate_map(tent_map(), 7)
        with pytest.raises(PreconditionError, match="64 segments"):
            orbit_analyze(tent_map(), F(1, 3), max_cycle_period=12)


# --- verbatim copies of the Fraction kernels the affine pieces replaced -----


def _old_call(f, x):
    x = Fraction(x)
    if not 0 <= x <= 1:
        raise PreconditionError("argument outside [0,1]")
    verts = f.vertices
    i = min(bisect_right([x for x, _ in verts], x), len(verts) - 1) - 1
    (x0, y0), (x1, y1) = verts[i], verts[i + 1]
    return y0 + (x - x0) * (y1 - y0) / (x1 - x0)


def _old_solutions(f, y):
    return {
        x0 + (y - y0) * (x1 - x0) / (y1 - y0)
        for (x0, y0), (x1, y1) in f.segments()
        if min(y0, y1) <= y <= max(y0, y1)
    }


def _old_preimages(f, y):
    sols = _old_solutions(f, Fraction(y))
    if not sols:
        raise PreconditionError("value outside the range of the map")
    return tuple(sorted(sols))


def _old_compose(f, g):
    cuts = {x for x, _ in g.vertices}.union(*(_old_solutions(g, bx) for bx, _ in f.vertices))
    xs = sorted(cuts)
    verts = []
    for x in xs:
        y = _old_call(f, _old_call(g, x))
        if verts and verts[-1][1] == y:
            raise PreconditionError("composition has a constant segment")
        verts.append((x, y))
    return PLMap(tuple(verts))


def _cycles_by_power(f, max_period):
    """The cycle table from powers of f chained through _old_compose: the
    fixed points of each f^p read off its segments' vertices."""
    cycles = []
    known = set()
    fp = f
    for p in range(1, max_period + 1):
        if p > 1:
            fp = _old_compose(f, fp)
        fixed = set()
        for (x0, y0), (x1, y1) in fp.segments():
            slope = (y1 - y0) / (x1 - x0)
            if slope == 1:
                if y0 == x0:
                    fixed.add(x0)
                    fixed.add(x1)
                continue
            x = (x0 * slope - y0) / (slope - 1)
            if x0 <= x <= x1:
                fixed.add(x)
        for x in sorted(fixed):
            if x in known:
                continue
            orbit = [x]
            cur = _old_call(f, x)
            while cur != x:
                orbit.append(cur)
                cur = _old_call(f, cur)
            if len(orbit) == p:
                cycles.append(tuple(orbit))
                known.update(orbit)
    return tuple(cycles)


@functools.lru_cache(maxsize=None)
def _old_cycle_point_index(f, max_period):
    cycles = _cycles_by_power(f, max_period)
    entries = sorted(
        (pt, idx) for idx, cycle in enumerate(cycles) for pt in cycle
    )
    values = [pt for pt, _ in entries]
    owners = [idx for _, idx in entries]
    return cycles, values, owners


def _old_orbit_analyze(f, x0, budget, tol, max_cycle_period):
    """orbit_analyze with the sorted cycle points and its bisect window."""
    x0 = Fraction(x0)
    tol = Fraction(tol)
    cycles, cyc_values, cyc_owners = _old_cycle_point_index(f, max_cycle_period)
    seen = {}
    x = x0
    for step in range(budget + 1):
        if x in seen:
            tail = seen[x]
            return il.OrbitReport("Preperiodic", tail=tail, period=step - tail, steps=step)
        seen[x] = step
        lo = bisect_right(cyc_values, x - tol)
        hi = bisect_right(cyc_values, x + tol)
        for ci in sorted({cyc_owners[i] for i in range(lo, hi)}):
            cycle = cycles[ci]
            d = min(abs(x - pt) for pt in cycle)
            if 0 < d < tol:
                nxt = _old_call(f, x)
                d_next = min(abs(nxt - pt) for pt in cycle)
                if d_next <= d:
                    return il.OrbitReport(
                        "AsymptoticallyPeriodic",
                        cycle=cycle,
                        steps=step,
                        final_distance=d,
                    )
        if x.denominator.bit_length() > il._DENOM_BIT_CAP:
            return il.OrbitReport("Unknown", steps=step)
        if step < budget:
            x = _old_call(f, x)
    return il.OrbitReport("Unknown", steps=budget)


def _old_branching_tree(system, x0, depth):
    """branching_tree with Fraction levels, built on _old_preimages."""
    if depth < 0:
        raise PreconditionError("depth must be nonnegative")
    levels = [[Fraction(x0)]]
    arities = []
    total = 1
    for level in range(depth):
        f = system.at(level)
        values = []
        counts = []
        for value in levels[-1]:
            pre = _old_preimages(f, value)
            counts.append(len(pre))
            values.extend(pre)
            if total + len(values) > il._TREE_NODE_CAP:
                raise PreconditionError(f"branching tree exceeds {il._TREE_NODE_CAP} nodes")
        total += len(values)
        levels.append(values)
        arities.append(counts)
    nodes = [il.BranchNode(v) for v in levels[-1]]
    for values, counts in zip(reversed(levels[:-1]), reversed(arities)):
        children = iter(nodes)
        nodes = [
            il.BranchNode(v, tuple(itertools.islice(children, n))) for v, n in zip(values, counts)
        ]
    return nodes[0]


OUTSIDE = (PreconditionError, "start point outside [0,1]")


def _outcome(fn, *args):
    """fn's value, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except (PreconditionError, ValueError) as exc:
        return type(exc), str(exc)


@st.composite
def map_and_values(draw):
    """A random map and values to solve for: its vertex values, 0 and 1,
    values outside [0,1] and the map's range, and large denominators."""
    f = draw(pl_maps())
    special = st.sampled_from(sorted({y for _, y in f.vertices} | {F(0), F(1)}))
    wide = st.fractions(min_value=-1, max_value=2, max_denominator=10**6)
    huge = st.integers(1, 2**200).flatmap(lambda q: st.integers(-q, 2 * q).map(lambda p: F(p, q)))
    return f, draw(st.lists(special | wide | huge, min_size=1, max_size=12))


TOLS = (F(1, 2**40), F(1, 7), F(2), F(0), F(-1, 3))


class TestAffinePieces:
    @given(case=map_and_values())
    def test_preimages_and_evaluation_match_the_fraction_kernel(self, case):
        f, ys = case
        for y in ys:
            assert _outcome(preimages, f, y) == _outcome(_old_preimages, f, y)
            assert _outcome(f, y) == _outcome(_old_call, f, y)

    @given(f=pl_maps(), g=pl_maps())
    def test_compose_matches_the_fraction_kernel(self, f, g):
        new = _outcome(compose, f, g)
        old = _outcome(_old_compose, f, g)
        assert (new.vertices if isinstance(new, PLMap) else new) == (
            old.vertices if isinstance(old, PLMap) else old
        )

    def test_shared_vertex_is_listed_once(self):
        assert preimages(five_segment_map(), F(4, 5)) == _old_preimages(five_segment_map(), F(4, 5))
        assert preimages(tent_map(), F(1)) == (F(1, 2),)

    def test_inverse_pieces_built_once_per_tree(self, monkeypatch):
        calls = []
        build = il.PLMap.__dict__["_inverse"].func
        counted = functools.cached_property(lambda self: calls.append(1) or build(self))
        counted.__set_name__(il.PLMap, "_inverse")
        monkeypatch.setattr(il.PLMap, "_inverse", counted)
        f = PLMap(((F(0), F(0)), (F(1, 3), F(1)), (F(2, 3), F(1, 4)), (F(1), F(3, 4))))
        tree = branching_tree(InverseSystem.constant(f), F(1, 2), 5)
        assert tree.leaf_count() > 5
        assert len(calls) == 1


class TestOrbitWindow:
    @pytest.mark.parametrize("tol", TOLS, ids=str)
    @given(x0=unit_points, max_period=st.integers(1, 4), name=st.sampled_from(["tent", "five"]))
    def test_named_maps_match_the_bisect_window(self, tol, x0, max_period, name):
        f = tent_map() if name == "tent" else five_segment_map()
        new = orbit_analyze(f, x0, budget=300, tol=tol, max_cycle_period=max_period)
        assert new == _old_orbit_analyze(f, x0, 300, tol, max_period)

    @pytest.mark.parametrize("tol", TOLS, ids=str)
    @given(f=pl_maps(), x0=unit_points, max_period=st.integers(1, 4))
    def test_random_maps_match_the_bisect_window(self, tol, f, x0, max_period):
        new = _outcome(orbit_analyze, f, x0, 200, tol, max_period)
        assert new == _outcome(_old_orbit_analyze, f, x0, 200, tol, max_period)

    @given(q=st.integers(50, 500).map(lambda v: 2 * v + 1), k=st.integers(0, 2**20), shift=st.integers(0, 4))
    def test_tent_repeats_match_the_bisect_window(self, q, k, shift):
        # k / (q * 2^shift), q odd, lands on the grid j / q within shift
        # steps and then cycles on it, so the orbit repeats exactly within
        # q + shift + 1 steps, mostly after hundreds of distinct values
        f = tent_map()
        x0 = F(k % (q << shift), q << shift)
        new = orbit_analyze(f, x0, budget=1200)
        assert new == _old_orbit_analyze(f, x0, 1200, F(1, 2**40), 8)
        assert new.kind == "Preperiodic"
        assert new.tail + new.period == new.steps
        path = [x0]
        for _ in range(new.steps):
            path.append(_old_call(f, path[-1]))
        assert path[new.tail] == path[-1]
        assert len(set(path[:-1])) == new.steps

    def test_window_reaches_the_key_distance_of_tol(self):
        # 1 - d, with d just below tol = 2^-40, has a key tol * 2^64 = 2^24
        # below that of the fixed point 1, which attracts at slope 5/6
        d = F(1, 2**40) - F(1, 2**70)
        r = orbit_analyze(five_segment_map(), 1 - d, budget=5, max_cycle_period=1)
        assert (r.kind, r.cycle, r.steps) == ("AsymptoticallyPeriodic", (F(1),), 0)
        assert r.final_distance == d
        # 2/3 * 2^64 has fractional part 2/3, so 2/3 + d, with d * 2^64 =
        # 2^24 - 1/4, has a key 2^24 above that of 2/3, fixed at slope 1/2
        d = F(1, 2**40) - F(1, 2**66)
        g = PLMap(((F(0), F(1, 3)), (F(1), F(5, 6))))
        r = orbit_analyze(g, F(2, 3) + d, budget=5, max_cycle_period=1)
        assert (r.kind, r.cycle, r.steps) == ("AsymptoticallyPeriodic", (F(2, 3),), 0)
        assert r.final_distance == d

    def test_nonpositive_tol_never_certifies(self):
        f = five_segment_map()
        r = orbit_analyze(f, F(2, 5), budget=200, max_cycle_period=1)
        assert (r.kind, r.cycle) == ("AsymptoticallyPeriodic", (F(1),))
        for tol in (F(0), F(-1, 3)):
            r = orbit_analyze(f, F(2, 5), budget=200, tol=tol, max_cycle_period=1)
            assert (r.kind, r.steps) == ("Unknown", 200)


class TestCycleTable:
    @given(f=pl_maps(), max_period=st.integers(1, 4))
    def test_chain_equals_per_power_table(self, f, max_period):
        assert il._cycle_table(f, max_period)[0] == _cycles_by_power(f, max_period)

    @pytest.mark.parametrize("f", [tent_map(), five_segment_map()], ids=["tent", "five"])
    def test_chain_equals_per_power_table_on_named_maps(self, f):
        assert il._cycle_table(f, 6)[0] == _cycles_by_power(f, 6)

    def test_five_segment_table_at_period_eight(self):
        assert il._cycle_table(five_segment_map(), 8)[0] == _cycles_by_power(five_segment_map(), 8)

    def test_one_composition_per_period(self, monkeypatch):
        calls = []
        real = il._refine
        monkeypatch.setattr(il, "_refine", lambda f, pieces: calls.append(1) or real(f, pieces))
        il._cycle_table.cache_clear()
        il._cycle_table(tent_map(), 6)
        assert len(calls) == 5

    def test_one_table_serves_every_tol(self):
        il._cycle_table.cache_clear()
        f = five_segment_map()
        for tol in TOLS:
            for x0 in (F(1, 3), F(2, 5), F(7, 9)):
                orbit_analyze(f, x0, budget=100, tol=tol, max_cycle_period=4)
        assert il._cycle_table.cache_info().misses == 1

    def test_table_builds_no_plmap(self, monkeypatch):
        f = five_segment_map()
        built = []
        check = il.PLMap.__post_init__
        monkeypatch.setattr(il.PLMap, "__post_init__", lambda self: built.append(1) or check(self))
        il._cycle_table.cache_clear()
        assert len(il._cycle_table(f, 6)[0]) > 1
        assert built == []

    @given(f=pl_maps(), power=st.integers(1, 4))
    def test_iterate_map_matches_the_old_compose_chain(self, f, power):
        fp = f
        for _ in range(power - 1):
            fp = _old_compose(f, fp)
        assert iterate_map(f, power).vertices == fp.vertices


# --- verbatim copies of the Fraction pieces the int pieces replaced ---------
# Each reads _old_forward(f) where it read the PLMap's Fraction _forward.


@functools.lru_cache(maxsize=None)
def _old_forward(f):
    """Per segment, its affine piece (x0, x1, slope, intercept)."""
    out = []
    for (x0, y0), (x1, y1) in f.segments():
        slope = (y1 - y0) / (x1 - x0)
        out.append((x0, x1, slope, y0 - slope * x0))
    return tuple(out)


def _old_refine(f, pieces):
    xs, forward = f._xs, _old_forward(f)
    out = []
    slopes = {}  # a power of f has few distinct slopes: keep one object each
    for x0, x1, s, c in pieces:
        up = s > 0
        lo, hi = (s * x0 + c, s * x1 + c) if up else (s * x1 + c, s * x0 + c)
        # the segments of f that g passes through on [x0, x1], in order;
        # g leaves segment j through its right vertex going up, else its left
        segs = range(bisect_right(xs, lo) - 1, bisect_left(xs, hi))
        segs = segs if up else segs[::-1]
        ends = [(xs[j + up] - c) / s for j in segs[:-1]] + [x1]
        for a, b, j in zip([x0] + ends, ends, segs):
            _, _, fs, fc = forward[j]
            slope = slopes.get((j, s))
            if slope is None:
                slope = slopes[j, s] = fs * s
            out.append((a, b, slope, fs * c + fc))
    return out


def _old_vertices(pieces):
    x0, _, s, c = pieces[0]
    return ((x0, s * x0 + c),) + tuple((x1, s * x1 + c) for _, x1, s, c in pieces)


def _old_powers(f):
    pieces = _old_forward(f)
    for p in itertools.count(2):
        yield pieces
        if len(_old_forward(f)) * len(pieces) > il._SEGMENT_CAP:
            raise PreconditionError(f"f^{p} may exceed {il._SEGMENT_CAP} segments")
        pieces = _old_refine(f, pieces)


def _old_iterate_map(f, power):
    if power < 1:
        raise PreconditionError("power must be at least 1")
    return PLMap(_old_vertices(next(itertools.islice(_old_powers(f), power - 1, None))))


def _old_key(v):
    return (v.numerator << 64) // v.denominator


@functools.lru_cache(maxsize=None)
def _old_cycle_table(f, max_period):
    cycles = []
    known = set()  # (numerator, denominator) of each cycle point
    for p, pieces in zip(range(1, max_period + 1), _old_powers(f)):
        # the pieces ascend in x, so their fixed points come in ascending order
        for x0, x1, s, c in pieces:
            if s == 1:
                fixed = (x0, x1) if c == 0 else ()
            else:
                x = c / (1 - s)
                fixed = (x,) if x0 <= x <= x1 else ()
            for x in fixed:
                if (x.numerator, x.denominator) in known:
                    continue
                orbit = [x]
                cur = f(x)
                while cur != x:
                    orbit.append(cur)
                    cur = f(cur)
                if len(orbit) == p:
                    cycles.append(tuple(orbit))
                    known.update((v.numerator, v.denominator) for v in orbit)
    entries = sorted((_old_key(pt), idx) for idx, cycle in enumerate(cycles) for pt in cycle)
    return tuple(cycles), [k for k, _ in entries], [idx for _, idx in entries]


@st.composite
def collinear_maps(draw):
    """Random maps with extra vertices on the lines of their segments, so
    their pieces, and those of their powers, carry redundant cuts."""
    f = draw(pl_maps(max_vertices=3))
    verts = [f.vertices[0]]
    for (x0, y0), (x1, y1) in f.segments():
        for t in sorted(set(draw(st.lists(st.integers(1, 3), max_size=2)))):
            verts.append((x0 + (x1 - x0) * t / 4, y0 + (y1 - y0) * t / 4))
        verts.append((x1, y1))
    return PLMap(tuple(verts))


any_maps = pl_maps() | collinear_maps()


def _piece_values(pieces):
    """Each int piece as (x0, x1, slope, intercept) Fractions, checking that
    its right end is reduced over a positive denominator and that
    gcd(a, b, e) = 1 with e > 0."""
    out = []
    x0 = F(0)
    for xn, xd, a, b, e in pieces:
        assert xd > 0 and gcd(xn, xd) == 1
        assert e > 0 and gcd(a, b, e) == 1
        out.append((x0, F(xn, xd), F(a, e), F(b, e)))
        x0 = F(xn, xd)
    return out


def _xs_call(f, x):
    """PLMap.__call__ bisecting the Fraction vertex list, verbatim but for
    reading _old_forward(f)'s slope and intercept."""
    x = Fraction(x)
    if not 0 <= x <= 1:
        raise PreconditionError("argument outside [0,1]")
    _, _, s, c = _old_forward(f)[min(bisect_right(f._xs, x), len(f._xs) - 1) - 1]
    return s * x + c


HUGE_UNIT = st.integers(2**1999, 2**2000).flatmap(
    lambda q: st.integers(0, q).map(lambda p: F(p, q))
)


class TestIntPieces:
    @given(f=any_maps, xs=st.lists(unit_points | HUGE_UNIT, min_size=1, max_size=4))
    def test_call_matches_the_fraction_bisect(self, f, xs):
        # at every vertex, 2^-60 to either side of it (past 0 and 1 too),
        # and at small and ~2,000-bit points; against the Fraction vertex
        # bisect and against the Fraction (slope, intercept) evaluation
        eps = F(1, 2**60)
        near = [x + d for x, _ in f.vertices for d in (-eps, 0, eps)]
        for x in near + xs:
            new = _outcome(f, x)
            assert new == _outcome(_xs_call, f, x) == _outcome(_fraction_call, f, x)

    @given(f=any_maps, g=any_maps)
    def test_refine_matches_the_fraction_pieces(self, f, g):
        assert _piece_values(il._refine(f, g._pieces)) == _old_refine(f, _old_forward(g))

    @given(f=any_maps, power=st.integers(1, 4))
    def test_powers_match_the_fraction_pieces(self, f, power):
        new = list(itertools.islice(il._powers(f), power))
        old = list(itertools.islice(_old_powers(f), power))
        assert [_piece_values(p) for p in new] == [list(p) for p in old]

    @given(f=any_maps, g=any_maps)
    def test_compose_matches_the_fraction_chain(self, f, g):
        assert compose(f, g).vertices == _old_vertices(_old_refine(f, _old_forward(g)))

    @given(f=any_maps, power=st.integers(0, 5))
    def test_iterate_map_matches_the_fraction_chain(self, f, power):
        new = _outcome(iterate_map, f, power)
        old = _outcome(_old_iterate_map, f, power)
        assert (new.vertices if isinstance(new, PLMap) else new) == (
            old.vertices if isinstance(old, PLMap) else old
        )

    @given(f=any_maps, max_period=st.integers(1, 5))
    def test_cycle_table_matches_the_fraction_table(self, f, max_period):
        new = _outcome(il._cycle_table, f, max_period)
        assert new == _outcome(_old_cycle_table, f, max_period)
        if not isinstance(new[0], type):
            assert all(type(v) is Fraction for cycle in new[0] for v in cycle)

    @pytest.mark.parametrize("f", [tent_map(), five_segment_map()], ids=["tent", "five"])
    def test_named_tables_at_period_eight(self, f):
        il._cycle_table.cache_clear()
        assert il._cycle_table(f, 8) == _old_cycle_table(f, 8)

    def test_identity_pieces_and_redundant_cuts(self):
        # the identity, with redundant vertices, fixes every point: each
        # piece of each power is slope-1 through 0, so its fixed points
        # are its two ends
        f = PLMap(((F(0), F(0)), (F(1, 3), F(1, 3)), (F(1, 2), F(1, 2)), (F(1), F(1))))
        new = il._cycle_table(f, 3)
        assert new == _old_cycle_table(f, 3)
        assert new[0] == ((F(0),), (F(1, 3),), (F(1, 2),), (F(1),))
        # a slope-1 piece off the diagonal fixes nothing
        g = PLMap(((F(0), F(1, 4)), (F(3, 4), F(1)), (F(1), F(0))))
        assert il._cycle_table(g, 4) == _old_cycle_table(g, 4)


# --- verbatim copies of the Fraction evaluation the int step replaced -------
# PLMap._forward as a function of the map, PLMap.__call__ reading it, and
# orbit_analyze stepping on Fractions through that __call__.


@functools.lru_cache(maxsize=None)
def _fraction_forward(f):
    """Per segment, (slope, intercept) as Fractions, for evaluation."""
    return tuple((Fraction(a, e), Fraction(b, e)) for _, _, a, b, e in f._pieces)


def _fraction_call(f, x):
    x = Fraction(x)
    if not 0 <= x <= 1:
        raise PreconditionError("argument outside [0,1]")
    # Powers of a map reach thousands of segments, so the segment
    # lookup must not scan linearly.  It bisects the int vertex grid:
    # for an int g, g > x·den exactly when g > floor(x·den).
    den, grid = f._grid
    i = bisect_right(grid, x.numerator * den // x.denominator)
    s, c = _fraction_forward(f)[min(i, len(grid) - 1) - 1]
    return s * x + c


def _fraction_orbit_analyze(
    f,
    x0,
    budget=10_000,
    tol=Fraction(1, 2**40),
    max_cycle_period=8,
):
    x0 = il._start_point(x0)
    if il.int_arg(budget, "budget") < 1:
        raise PreconditionError("budget must be positive")
    il.int_arg(max_cycle_period, "max_cycle_period")
    tol = il.rat(tol)
    cycles, keys, owners = il._cycle_table(f, max_cycle_period)
    # A cycle point v within tol of x has |_key(v) - _key(x)| <= reach, so
    # that key window names every candidate cycle; any others it names are
    # at least tol away.  A negative reach names none.
    reach = -(-(tol.numerator << 64) // tol.denominator)
    # keyed by (numerator, denominator): the same equality as the Fraction,
    # without Fraction.__hash__'s modular inverse of the denominator
    seen = {}
    x = x0
    for step in range(budget + 1):
        pair = (x.numerator, x.denominator)
        if pair in seen:
            tail = seen[pair]
            return il.OrbitReport("Preperiodic", tail=tail, period=step - tail, steps=step)
        seen[pair] = step
        k = il._key(*pair)
        lo = bisect_left(keys, k - reach)
        hi = bisect_right(keys, k + reach)
        for ci in sorted(set(owners[lo:hi])) if lo < hi else ():
            cycle = cycles[ci]
            d = min(abs(x - pt) for pt in cycle)
            if 0 < d < tol:
                nxt = _fraction_call(f, x)
                d_next = min(abs(nxt - pt) for pt in cycle)
                if d_next <= d:
                    return il.OrbitReport(
                        "AsymptoticallyPeriodic",
                        cycle=cycle,
                        steps=step,
                        final_distance=d,
                    )
        if x.denominator.bit_length() > il._DENOM_BIT_CAP:
            return il.OrbitReport("Unknown", steps=step)
        if step < budget:
            x = _fraction_call(f, x)
    return il.OrbitReport("Unknown", steps=budget)


def _unit_fractions(bits):
    """Points p / q of [0,1], q of the given bit length, from a seeded rng
    (20,000-bit draws would overrun Hypothesis's buffer)."""

    def point(seed):
        rng = random.Random(seed)
        q = rng.getrandbits(bits) | 1 << (bits - 1)
        return F(rng.randrange(q + 1), q)

    return st.integers(0, 2**64).map(point)


# Starts with small denominators, near a cycle point of the named maps,
# and of ~2,000 bits.  Their orbits repeat, reach a cycle, run out of
# budget or pass a lowered _DENOM_BIT_CAP.
ORBIT_STARTS = (
    unit_points
    | st.sampled_from([F(0), F(1), F(2, 3), F(1, 2), F(2, 7), F(1, 3)]).flatmap(
        lambda v: st.integers(-(2**20), 2**20).map(lambda k: min(max(v + F(k, 2**60), F(0)), F(1)))
    )
    | HUGE_UNIT
)
STEP_TOLS = TOLS + (F(1, 2**20), F(-1, 2**40))


class TestIntStep:
    @pytest.mark.parametrize("bits", [10, 2000, 20000])
    @given(f=any_maps | st.sampled_from([tent_map(), five_segment_map()]), data=st.data())
    def test_step_matches_fraction_arithmetic(self, bits, f, data):
        # the vertices too, where m = a*n + b*d may be 0 or share a factor with e
        xs = data.draw(st.lists(_unit_fractions(bits), min_size=1, max_size=3))
        for x in [v for v, _ in f.vertices] + xs:
            y = _fraction_call(f, x)
            assert f._step(x.numerator, x.denominator) == (y.numerator, y.denominator)

    def test_step_takes_no_full_size_gcd(self, monkeypatch):
        sizes = []

        def counted(*args):
            sizes.append(min(abs(v).bit_length() for v in args))
            return gcd(*args)

        monkeypatch.setattr(il, "gcd", counted)
        f = five_segment_map()
        rng = random.Random(5)
        for _ in range(20):
            q = rng.getrandbits(20000) | 1 << 19999
            y = f._step(*f._step(rng.randrange(q + 1), q))
            assert y[1].bit_length() > 19000
        assert len(sizes) == 80 and max(sizes) < 16

    @pytest.mark.parametrize("tol", STEP_TOLS, ids=str)
    @given(
        f=any_maps | st.sampled_from([tent_map(), five_segment_map()]),
        x0=ORBIT_STARTS,
        budget=st.integers(1, 60),
        max_period=st.integers(0, 4),
    )
    def test_orbit_matches_the_fraction_steps(self, tol, f, x0, budget, max_period):
        new = _outcome(orbit_analyze, f, x0, budget, tol, max_period)
        assert new == _outcome(_fraction_orbit_analyze, f, x0, budget, tol, max_period)

    @pytest.mark.parametrize("cap", [0, 8, 64, 2100])
    @given(
        f=any_maps | st.sampled_from([tent_map(), five_segment_map()]),
        x0=ORBIT_STARTS,
        tol=st.sampled_from(STEP_TOLS),
        max_period=st.integers(0, 3),
    )
    def test_orbit_matches_under_a_lowered_bit_cap(self, cap, f, x0, tol, max_period):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(il, "_DENOM_BIT_CAP", cap)
            new = _outcome(orbit_analyze, f, x0, 400, tol, max_period)
            assert new == _outcome(_fraction_orbit_analyze, f, x0, 400, tol, max_period)

    @pytest.mark.parametrize("name", ["tent", "five"])
    def test_named_orbits_match_the_fraction_steps(self, name):
        # workload-style starts, denominators up to 1000, at the default
        # budget, tol and period
        f = tent_map() if name == "tent" else five_segment_map()
        rng = random.Random(7919)
        for _ in range(300):
            q = rng.randrange(1, 1001)
            x0 = F(rng.randrange(q + 1), q)
            assert orbit_analyze(f, x0) == _fraction_orbit_analyze(f, x0)


# --- verbatim copies of the Fraction decode and encode ----------------------


def _old_decode_point(system, code, depth=None):
    depth = len(code.word) if depth is None else depth
    if depth > len(code.word):
        raise PreconditionError("word shorter than requested depth")
    traj = [Fraction(code.x0)]
    for n in range(depth):
        pre = preimages(system.at(n), traj[-1])
        k = code.word[n]
        if not 0 <= k < len(pre):
            raise PreconditionError(f"branch index {k} out of range at level {n}")
        traj.append(pre[k])
    return tuple(traj)


def _old_encode_point(system, trajectory):
    traj = [Fraction(x) for x in trajectory]
    if not traj:
        raise PreconditionError("empty trajectory")
    word = []
    ex_time = set()
    for n in range(len(traj) - 1):
        f = system.at(n)
        if f(traj[n + 1]) != traj[n]:
            raise PreconditionError(f"not a backward trajectory at level {n}")
        pre = preimages(f, traj[n])
        word.append(pre.index(traj[n + 1]))
    for n in range(len(traj)):
        try:
            f = system.at(n)
        except ValueError:
            break
        _, ex_vals = extrema_of(f)
        if traj[n] in ex_vals:
            ex_time.add(n)
    return BranchCode(traj[0], tuple(word), frozenset(ex_time))


def _start_values(f):
    """A map's vertex values, unit points, and values outside its range or [0,1]."""
    vertex = st.sampled_from(sorted({y for _, y in f.vertices}))
    wide = st.fractions(min_value=-1, max_value=2, max_denominator=48)
    return vertex | unit_points | wide


@st.composite
def decode_cases(draw):
    """A random map, a code whose word holds out-of-range indices, and a
    depth that may pass the word's length."""
    f = draw(pl_maps())
    word = draw(st.lists(st.integers(-1, 3), max_size=8))
    depth = draw(st.none() | st.integers(0, len(word) + 1))
    return f, BranchCode(draw(_start_values(f)), tuple(word)), depth


@st.composite
def encode_cases(draw):
    """A random map and a backward trajectory of it, cut short (maybe to
    nothing), and maybe with one value swapped for an arbitrary one."""
    f = draw(pl_maps())
    traj = [draw(_start_values(f))]
    for _ in range(draw(st.integers(0, 8))):
        if not min(y for _, y in f.vertices) <= traj[-1] <= max(y for _, y in f.vertices):
            break
        traj.append(draw(st.sampled_from(_old_preimages(f, traj[-1]))))
    traj = traj[: draw(st.integers(0, len(traj)))]
    if traj and draw(st.booleans()):
        traj[draw(st.integers(0, len(traj) - 1))] = draw(_start_values(f))
    return f, traj


class TestBranchCodeDifferential:
    @given(case=decode_cases())
    def test_decode_matches_the_fraction_levels(self, case):
        f, code, depth = case
        system = InverseSystem.constant(f)
        new = _outcome(decode_point, system, code, depth)
        old = _outcome(_old_decode_point, system, code, depth)
        if not 0 <= code.x0 <= 1:
            # the old levels let such a start through only at depth 0
            assert new == OUTSIDE
            assert isinstance(old[0], type) or len(old) == 1
            return
        assert new == old
        if not isinstance(new[0], type):
            assert all(type(v) is Fraction for v in new)

    @given(case=encode_cases())
    def test_encode_matches_the_fraction_ranks(self, case):
        f, traj = case
        system = InverseSystem.constant(f)
        new = _outcome(encode_point, system, traj)
        old = _outcome(_old_encode_point, system, traj)
        if traj and not 0 <= traj[0] <= 1:
            # the old ranks let such a start through only alone
            assert new == OUTSIDE
            assert isinstance(old, tuple) or len(traj) == 1
            return
        assert new == old

    def test_error_messages(self):
        half = InverseSystem.constant(PLMap(((F(0), F(0)), (F(1), F(1, 2)))))
        cases = [
            (decode_point, _old_decode_point, (TENT, BranchCode(F(1), (1,)))),
            (decode_point, _old_decode_point, (TENT, BranchCode(F(1, 3), (0, -1)))),
            (decode_point, _old_decode_point, (TENT, BranchCode(F(1, 3), (0,)), 2)),
            (decode_point, _old_decode_point, (half, BranchCode(F(3, 4), (0,)))),
            (decode_point, _old_decode_point, (half, BranchCode(F(1, 2), (0, 0)))),
            (encode_point, _old_encode_point, (TENT, ())),
            (encode_point, _old_encode_point, (TENT, (F(1, 2), F(1, 4), F(1, 3)))),
            (encode_point, _old_encode_point, (TENT, (F(1, 2), F(3, 2)))),
            (encode_point, _old_encode_point, (half, (F(3, 4), F(1)))),
        ]
        for new, old, args in cases:
            out = _outcome(new, *args)
            assert out == _outcome(old, *args)
            assert isinstance(out, tuple) and out[0] is PreconditionError


class TestOrbitAnalyze:
    def test_periodic_orbit(self):
        r = orbit_analyze(tent_map(), F(2, 7))
        assert (r.kind, r.tail, r.period) == ("Preperiodic", 0, 3)

    def test_preperiodic_orbit(self):
        r = orbit_analyze(tent_map(), F(1, 2))
        assert (r.kind, r.tail, r.period) == ("Preperiodic", 2, 1)

    def test_fixed_point_of_the_five_segment_map(self):
        r = orbit_analyze(five_segment_map(), F(1, 2))
        assert (r.kind, r.tail, r.period) == ("Preperiodic", 0, 1)

    def test_asymptotic_orbit_certificate(self):
        # 2/5 maps through 4/5 and then climbs monotonically toward the
        # fixed point 1 with contraction factor 5/6 per step.
        r = orbit_analyze(five_segment_map(), F(2, 5))
        assert r.kind == "AsymptoticallyPeriodic"
        assert r.cycle == (F(1),)
        assert 0 < r.final_distance < Fraction(1, 2**40)

    def test_report_json_shape(self):
        r = orbit_analyze(tent_map(), F(1, 2))
        assert r.to_json() == {"kind": "Preperiodic", "steps": 3, "tail": 2, "period": 1}
        r = orbit_analyze(five_segment_map(), F(2, 5))
        j = r.to_json()
        assert j["kind"] == "AsymptoticallyPeriodic"
        assert j["cycle"] == ["1/1"]
        assert "~final_distance" in j or "final_distance" in j

    def test_input_validation(self):
        with pytest.raises(PreconditionError):
            orbit_analyze(tent_map(), F(2))
        with pytest.raises(PreconditionError):
            orbit_analyze(tent_map(), F(1, 2), budget=0)


class TestBranchCoding:
    def test_decode_known_thread(self):
        code = BranchCode(F(3, 16), (0, 1))
        assert decode_point(TENT, code) == (F(3, 16), F(3, 32), F(61, 64))

    def test_decode_depth_control(self):
        code = BranchCode(F(3, 16), (0, 1))
        assert decode_point(TENT, code, depth=1) == (F(3, 16), F(3, 32))
        with pytest.raises(PreconditionError, match="word shorter"):
            decode_point(TENT, code, depth=3)

    def test_branch_index_out_of_range(self):
        # 1 has the single preimage 1/2, so branch index 1 is invalid there.
        code = BranchCode(F(1), (1,))
        with pytest.raises(PreconditionError, match="out of range at level 0"):
            decode_point(TENT, code)

    def test_encode_recovers_word_and_extrema_times(self):
        traj = (F(1), F(1, 2), F(1, 4))
        code = encode_point(TENT, traj)
        assert code.word == (0, 0)
        assert code.ex_time == frozenset({0})
        assert code.to_json() == {"x0": "1/1", "word": [0, 0], "ex_time": [0]}

    def test_encode_rejects_non_trajectories(self):
        with pytest.raises(PreconditionError, match="empty trajectory"):
            encode_point(TENT, ())
        with pytest.raises(PreconditionError, match="not a backward trajectory at level 0"):
            encode_point(TENT, (F(1, 2), F(1, 2)))

    def test_round_trip_on_sampled_threads(self):
        rng = random.Random(7)
        for _ in range(50):
            x0 = F(rng.randrange(0, 2**8 + 1), 2**8)
            traj = [x0]
            word = []
            for n in range(12):
                pre = preimages(TENT.at(n), traj[-1])
                k = rng.randrange(len(pre))
                word.append(k)
                traj.append(pre[k])
            code = encode_point(TENT, traj)
            assert code.word == tuple(word)
            assert decode_point(TENT, code) == tuple(traj)

    @given(
        x0=st.fractions(min_value=0, max_value=1, max_denominator=2**6),
        bits=st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=10),
    )
    def test_round_trip_property(self, x0, bits):
        traj = [x0]
        word = []
        for n, b in enumerate(bits):
            pre = preimages(TENT.at(n), traj[-1])
            k = b % len(pre)
            word.append(k)
            traj.append(pre[k])
        code = encode_point(TENT, traj)
        assert code.word == tuple(word)
        assert decode_point(TENT, code) == tuple(traj)


class TestBranchingTree:
    def test_full_binary_tree_off_the_critical_orbit(self):
        tree = branching_tree(TENT, F(3, 16), 3)
        assert tree.leaf_count() == 8
        assert tree.is_full_binary()
        assert tree.arity_profile() == {2: 7}

    def test_endpoint_tree_mixes_arities(self):
        # 0 pulls back to {0, 1}; the branch through 1 continues with the
        # single preimage 1/2, so the tree is not full binary.
        tree = branching_tree(TENT, F(0), 2)
        assert not tree.is_full_binary()
        values = sorted(c.value for c in tree.children)
        assert values == [F(0), F(1)]
        one_node = next(c for c in tree.children if c.value == 1)
        assert [c.value for c in one_node.children] == [F(1, 2)]
        profile = tree.arity_profile()
        assert profile[1] >= 1 and profile[2] >= 1

    def test_depth_validation(self):
        with pytest.raises(PreconditionError, match="nonnegative"):
            branching_tree(TENT, F(1, 2), -1)

    def test_depth_zero_is_a_leaf(self):
        tree = branching_tree(TENT, F(1, 2), 0)
        assert tree.leaf_count() == 1
        assert tree.children == ()

    def test_deep_chain_builds_without_recursion(self):
        identity = InverseSystem.constant(PLMap(((F(0), F(0)), (F(1), F(1)))))
        tree = branching_tree(identity, F(1, 2), 2000)
        assert tree.leaf_count() == 1
        assert not tree.is_full_binary()
        assert tree.arity_profile() == {1: 2000}

    def test_node_cap(self, monkeypatch):
        # the depth-3 tent tree from a generic point has 1 + 2 + 4 + 8 nodes
        monkeypatch.setattr(il, "_TREE_NODE_CAP", 15)
        assert branching_tree(TENT, F(3, 16), 3).leaf_count() == 8
        with pytest.raises(PreconditionError, match="exceeds 15 nodes"):
            branching_tree(TENT, F(3, 16), 4)

    def test_real_cap(self):
        # the tent tree from a generic point doubles each level: depth 16
        # has 2^17 - 1 nodes, and depth 17 would need 2^18 - 1
        assert il._TREE_NODE_CAP == 2**17
        assert branching_tree(TENT, F(3, 16), 16).leaf_count() == 65_536
        with pytest.raises(PreconditionError, match=f"exceeds {2**17} nodes"):
            branching_tree(TENT, F(3, 16), 17)

    @given(x0=unit_points, depth=st.integers(0, 6))
    def test_matches_the_recursive_build(self, x0, depth):
        f = five_segment_map()

        def build(value, level):
            if level == depth:
                return il.BranchNode(value)
            return il.BranchNode(value, tuple(build(p, level + 1) for p in _old_preimages(f, value)))

        assert branching_tree(InverseSystem.constant(f), x0, depth) == build(x0, 0)


def _preorder(tree):
    """Each node's value type, value and arity, in preorder."""
    out = []
    stack = [tree]
    while stack:
        node = stack.pop()
        out.append((type(node.value), node.value, len(node.children)))
        stack.extend(reversed(node.children))
    return out


@st.composite
def tree_cases(draw):
    """A random map, a start value (a vertex value, a unit point, or one
    outside the map's range or [0,1]), a depth and a node cap."""
    f = draw(pl_maps())
    vertex = st.sampled_from(sorted({y for _, y in f.vertices}))
    wide = st.fractions(min_value=-1, max_value=2, max_denominator=48)
    x0 = draw(vertex | unit_points | wide)
    return f, x0, draw(st.integers(0, 6)), draw(st.sampled_from([1, 7, 40, il._TREE_NODE_CAP]))


class TestBranchingTreeDifferential:
    @given(case=tree_cases())
    def test_matches_the_fraction_levels(self, case):
        f, x0, depth, cap = case
        system = InverseSystem.constant(f)
        with mock.patch.object(il, "_TREE_NODE_CAP", cap):
            new = _outcome(branching_tree, system, x0, depth)
            old = _outcome(_old_branching_tree, system, x0, depth)
        if not 0 <= x0 <= 1:
            # the old levels let such a start through only at depth 0
            assert new == OUTSIDE
            assert isinstance(old, tuple) or depth == 0
        elif isinstance(old, il.BranchNode):
            assert isinstance(new, il.BranchNode)
            assert _preorder(new) == _preorder(old)
            assert all(kind is Fraction for kind, _, _ in _preorder(new))
        else:
            assert new == old

    def test_off_range_start_and_cap_errors(self):
        half = InverseSystem.constant(PLMap(((F(0), F(0)), (F(1), F(1, 2)))))
        for system, x0, depth, cap in ((half, F(3, 4), 1, 10), (half, F(1, 2), 3, 10), (TENT, F(1, 3), 4, 20)):
            with mock.patch.object(il, "_TREE_NODE_CAP", cap):
                new = _outcome(branching_tree, system, x0, depth)
                assert new == _outcome(_old_branching_tree, system, x0, depth)
                assert isinstance(new, tuple) and new[0] is PreconditionError


class TestBranchingTreeCollector:
    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize("depth", [5, 6], ids=["builds", "past-cap"])
    def test_collector_state_is_restored(self, enabled, depth, monkeypatch):
        # the depth-5 tent tree from a generic point has 63 nodes
        monkeypatch.setattr(il, "_TREE_NODE_CAP", 63)
        was = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            if depth == 5:
                assert branching_tree(TENT, F(3, 16), depth).leaf_count() == 32
            else:
                with pytest.raises(PreconditionError, match="exceeds 63 nodes"):
                    branching_tree(TENT, F(3, 16), depth)
            assert gc.isenabled() is enabled
        finally:
            gc.enable() if was else gc.disable()

    def test_collector_is_paused_for_every_level(self, monkeypatch):
        # each level below the root comes from one call of the level kernel
        states = []
        level = il._preimage_level

        def tracked(*args):
            states.append(gc.isenabled())
            return level(*args)

        monkeypatch.setattr(il, "_preimage_level", tracked)
        was = gc.isenabled()
        try:
            gc.enable()
            branching_tree(TENT, F(3, 16), 3)
            assert gc.isenabled()
        finally:
            gc.enable() if was else gc.disable()
        assert states == [False] * 3


# --- verbatim copies of the per-pair kernel and the tree it built -------------
# Module names are read through il, so a patched _TREE_NODE_CAP reaches them.


def _pair_preimages(f, p, q):
    sols = []
    for lo_n, lo_d, hi_n, hi_d, an, bn, d in f._inverse:
        if lo_n * q <= p * lo_d and p * hi_d <= hi_n * q:
            n, m = an * p + bn * q, d * q
            g = gcd(n, m)
            x = (n // g, m // g)
            if not sols or sols[-1] != x:
                sols.append(x)
    if not sols:
        raise PreconditionError("value outside the range of the map")
    return sols


def _pair_node(pair, children):
    node = object.__new__(il.BranchNode)
    il._set_pair(node, pair)
    il._set_children(node, children)
    return node


def _pair_branching_tree(system, x0, depth):
    if il.int_arg(depth, "depth") < 0:
        raise PreconditionError("depth must be nonnegative")
    x0 = il._start_point(x0)
    levels = [[(x0.numerator, x0.denominator)]]
    arities = []
    total = 1
    for level in range(depth):
        f = system.at(level)
        pairs = []
        counts = []
        for p, q in levels[-1]:
            pre = _pair_preimages(f, p, q)
            counts.append(len(pre))
            pairs += pre
            if total + len(pairs) > il._TREE_NODE_CAP:
                raise PreconditionError(f"branching tree exceeds {il._TREE_NODE_CAP} nodes")
        total += len(pairs)
        levels.append(pairs)
        arities.append(counts)
    collecting = gc.isenabled()
    gc.disable()
    try:
        node = _pair_node
        nodes = levels.pop()
        for i, pair in enumerate(nodes):
            nodes[i] = node(pair, ())
        while levels:
            children = iter(nodes)
            nodes = levels.pop()
            for i, (pair, n) in enumerate(zip(nodes, arities.pop())):
                nodes[i] = node(pair, tuple(itertools.islice(children, n)))
    finally:
        if collecting:
            gc.enable()
    return nodes[0]


def _pair_shape(tree):
    """Each node's pair and arity in preorder, without recursion."""
    out = []
    stack = [tree]
    while stack:
        node = stack.pop()
        out.append((node._pair, len(node.children)))
        stack.extend(reversed(node.children))
    return out


def _tree_outcome(fn, system, x0, depth, cap):
    """fn's tree as _pair_shape, or its error, under a node cap; the collector
    must come back as it was."""
    was = gc.isenabled()
    with mock.patch.object(il, "_TREE_NODE_CAP", cap):
        out = _outcome(fn, system, x0, depth)
    assert gc.isenabled() is was
    return _pair_shape(out) if isinstance(out, il.BranchNode) else out


IDENTITY = PLMap(((F(0), F(0)), (F(1), F(1))))
# alternate maps by level, so each level's kernel reads a different map
MIXED = InverseSystem(lambda n: (tent_map(), five_segment_map(), IDENTITY)[n % 3])
KNOWN = {"tent": TENT, "five": InverseSystem.constant(five_segment_map()), "mixed": MIXED}


class TestEncodeCriticalValues:
    """encode_point tests each level's value for a critical value on the
    map its first loop fetched, as a reduced pair, and fetches only the
    last level's map again."""

    @given(data=st.data())
    def test_per_level_maps_match_the_fraction_encode(self, data):
        # starts at the critical values of tent (1) and five-segment (1/5,
        # 4/5) as often as not, so that ex_time is seldom empty
        system = KNOWN[data.draw(st.sampled_from(sorted(KNOWN)))]
        traj = [data.draw(st.sampled_from([F(1), F(1, 5), F(4, 5), F(1, 2)]) | unit_points)]
        for n, k in enumerate(data.draw(st.lists(st.integers(0, 3), max_size=8))):
            pre = preimages(system.at(n), traj[-1])
            traj.append(pre[k % len(pre)])
        if data.draw(st.booleans()):
            traj[data.draw(st.integers(0, len(traj) - 1))] = data.draw(unit_points)
        assert _outcome(encode_point, system, traj) == _outcome(_old_encode_point, system, traj)

    def test_each_level_map_is_fetched_once(self):
        calls = []

        def rule(n):
            calls.append(n)
            return MIXED.map_rule(n)

        # 2/5, 4/5, 2/5, 2/5, 1/5 under tent, five-segment, identity, tent
        # and five-segment: 4/5 and the last value 1/5 are critical values
        traj = decode_point(MIXED, BranchCode(F(2, 5), (1, 0, 0, 0)))
        code = encode_point(InverseSystem(rule), traj)
        assert calls == list(range(len(traj)))
        assert code == _old_encode_point(MIXED, traj)
        assert code.ex_time == frozenset({1, 4})

    def test_a_rule_may_end_at_the_last_level(self):
        def rule(n):
            if n >= 3:
                raise ValueError("no map past level 2")
            return tent_map()

        system = InverseSystem(rule)
        traj = (F(1), F(1, 2), F(1, 4), F(1, 8))
        assert encode_point(system, traj) == _old_encode_point(system, traj)
        assert encode_point(system, traj).ex_time == frozenset({0})
        # before the last level the first loop reads the rule, which raises
        assert _outcome(encode_point, system, traj + (F(1, 16),)) == (ValueError, "no map past level 2")


@st.composite
def known_tree_cases(draw):
    """A fixed system, x0 in {0, 1/2, 1} (the shared vertex values) or a unit point, a depth."""
    system = KNOWN[draw(st.sampled_from(sorted(KNOWN)))]
    x0 = draw(st.sampled_from([F(0), F(1, 2), F(1)]) | unit_points)
    return system, x0, draw(st.integers(0, 8))


class TestLevelKernelDifferential:
    @settings(max_examples=300)
    @given(case=tree_cases())
    @example(case=(tent_map(), F(1, 2), 5, il._TREE_NODE_CAP))
    @example(case=(five_segment_map(), F(1), 4, 40))
    def test_matches_the_per_pair_tree(self, case):
        f, x0, depth, cap = case
        system = InverseSystem.constant(f)
        new = _tree_outcome(branching_tree, system, x0, depth, cap)
        assert new == _tree_outcome(_pair_branching_tree, system, x0, depth, cap)

    @settings(max_examples=200)
    @given(case=known_tree_cases() | tree_cases().map(lambda c: (InverseSystem.constant(c[0]), c[1], c[2])))
    def test_cap_at_the_node_count_and_one_below(self, case):
        system, x0, depth = case
        old = _tree_outcome(_pair_branching_tree, system, x0, depth, il._TREE_NODE_CAP)
        if not isinstance(old, list):
            assert _tree_outcome(branching_tree, system, x0, depth, il._TREE_NODE_CAP) == old
            return
        n = len(old)
        assert _tree_outcome(branching_tree, system, x0, depth, n) == old
        below = _tree_outcome(branching_tree, system, x0, depth, n - 1)
        assert below == _tree_outcome(_pair_branching_tree, system, x0, depth, n - 1)
        if depth:
            # only a lone root fits every cap
            assert below == (PreconditionError, f"branching tree exceeds {n - 1} nodes")

    @pytest.mark.parametrize("x0", [F(0), F(1, 2), F(1), F(1, 3)], ids=str)
    @pytest.mark.parametrize("depth", [1, 999, 3000])
    def test_deep_identity_chains(self, x0, depth):
        system = InverseSystem.constant(IDENTITY)
        for cap in (depth + 1, depth, il._TREE_NODE_CAP):
            new = _tree_outcome(branching_tree, system, x0, depth, cap)
            assert new == _tree_outcome(_pair_branching_tree, system, x0, depth, cap)
        assert new == [((x0.numerator, x0.denominator), 1)] * depth + [((x0.numerator, x0.denominator), 0)]

    @pytest.mark.parametrize("x0", [F(0), F(1, 2), F(1)], ids=str)
    @pytest.mark.parametrize("name", sorted(KNOWN))
    def test_shared_vertex_values(self, name, x0):
        # 0, 1/2 and 1 are values at vertices two segments share, where the
        # kernel's repeat check keeps one solution
        for depth in range(9):
            new = _tree_outcome(branching_tree, KNOWN[name], x0, depth, il._TREE_NODE_CAP)
            assert new == _tree_outcome(_pair_branching_tree, KNOWN[name], x0, depth, il._TREE_NODE_CAP)

    @given(f=pl_maps(), level=st.lists(st.fractions(-1, 2, max_denominator=48), max_size=6), room=st.integers(0, 20))
    def test_level_is_the_per_pair_kernel_concatenated(self, f, level, room):
        pairs = [(y.numerator, y.denominator) for y in level]
        want = ([], [])
        try:
            for p, q in pairs:
                pre = _pair_preimages(f, p, q)
                want[0].extend(pre)
                want[1].append(len(pre))
                if len(want[0]) > room:
                    raise PreconditionError(f"branching tree exceeds {il._TREE_NODE_CAP} nodes")
        except PreconditionError as exc:
            want = (PreconditionError, str(exc))
        assert _outcome(il._preimage_level, f, pairs, room) == want
        for p, q in pairs:
            assert _outcome(il._preimage_pairs, f, p, q) == _outcome(_pair_preimages, f, p, q)


# --- a verbatim copy of the dataclass node and its pair-level node pass ------


@dataclass(frozen=True)
class _OldBranchNode:
    """A node of the backward branching tree."""

    value: Fraction
    children: tuple["_OldBranchNode", ...] = ()


# the dataclass repr names the class by its qualified name
_OldBranchNode.__qualname__ = "BranchNode"


def _old_pair_tree(system, x0, depth):
    """branching_tree with one Fraction and one dataclass node per node."""
    if depth < 0:
        raise PreconditionError("depth must be nonnegative")
    x0 = Fraction(x0)
    levels = [[(x0.numerator, x0.denominator)]]
    arities = []
    total = 1
    for level in range(depth):
        f = system.at(level)
        pairs = []
        counts = []
        for p, q in levels[-1]:
            pre = il._preimage_pairs(f, p, q)
            counts.append(len(pre))
            pairs += pre
            if total + len(pairs) > il._TREE_NODE_CAP:
                raise PreconditionError(f"branching tree exceeds {il._TREE_NODE_CAP} nodes")
        total += len(pairs)
        levels.append(pairs)
        arities.append(counts)
    collecting = gc.isenabled()
    gc.disable()
    try:
        nodes = levels.pop()
        for i, (p, q) in enumerate(nodes):
            nodes[i] = _OldBranchNode(Fraction(p, q))
        while levels:
            children = iter(nodes)
            nodes = levels.pop()
            for i, ((p, q), n) in enumerate(zip(nodes, arities.pop())):
                nodes[i] = _OldBranchNode(Fraction(p, q), tuple(itertools.islice(children, n)))
    finally:
        if collecting:
            gc.enable()
    return nodes[0]


def _preorder_nodes(tree):
    out = []
    stack = [tree]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(reversed(node.children))
    return out


class TestPairNodes:
    @given(case=tree_cases())
    @example(case=(tent_map(), F(3, 16), 4, il._TREE_NODE_CAP))
    @example(case=(tent_map(), F(0), 3, il._TREE_NODE_CAP))
    def test_matches_the_dataclass_nodes(self, case):
        f, x0, depth, cap = case
        system = InverseSystem.constant(f)
        with mock.patch.object(il, "_TREE_NODE_CAP", cap):
            new = _outcome(branching_tree, system, x0, depth)
            old = _outcome(_old_pair_tree, system, x0, depth)
        if not 0 <= x0 <= 1:
            assert new == OUTSIDE
            return
        if not isinstance(old, _OldBranchNode):
            assert new == old
            return
        assert _preorder(new) == _preorder(old)
        assert all(kind is Fraction for kind, _, _ in _preorder(new))
        assert repr(new) == repr(old)
        assert hash(new) == hash(old)
        news, olds = _preorder_nodes(new)[:24], _preorder_nodes(old)[:24]
        for a, b in zip(news, olds):
            assert hash(a) == hash(b)
            assert a.__eq__(b) is NotImplemented and not a == b
            assert [a == c for c in news] == [b == c for c in olds]
        with mock.patch.object(il, "_TREE_NODE_CAP", cap):
            assert branching_tree(system, x0, depth) == new
        for name in ("value", "children"):
            with pytest.raises(FrozenInstanceError):
                setattr(new, name, getattr(old, name))
            with pytest.raises(FrozenInstanceError):
                delattr(new, name)

    def test_constructor_matches_the_dataclass(self):
        leaf = il.BranchNode(F(1, 4))
        tree = il.BranchNode(value=F(1, 2), children=(leaf, il.BranchNode(3)))
        old = _OldBranchNode(F(1, 2), (_OldBranchNode(F(1, 4)), _OldBranchNode(F(3))))
        assert repr(tree) == repr(old) == (
            "BranchNode(value=Fraction(1, 2), children=(BranchNode(value=Fraction(1, 4), children=()), "
            "BranchNode(value=Fraction(3, 1), children=())))"
        )
        assert hash(tree) == hash(old)
        assert [type(n.value) for n in _preorder_nodes(tree)] == [Fraction] * 3
        assert tree == il.BranchNode(F(2, 4), (il.BranchNode(F(1, 4)), il.BranchNode(F(3))))
        assert tree != il.BranchNode(F(1, 2), (leaf,))
        assert tree.__eq__(F(1, 2)) is NotImplemented
        with pytest.raises(FrozenInstanceError):
            tree.other = 1
        match tree:
            case il.BranchNode(value, (first, _)):
                assert (value, first) == (F(1, 2), leaf)

    def test_deep_chains_compare_and_hash_without_recursion(self):
        # test_deep_chain_builds_without_recursion's depth-2000 tree, a
        # rebuilt twin and a hand-built chain of the same values, and chains
        # one level short or with another leaf
        identity = InverseSystem.constant(PLMap(((F(0), F(0)), (F(1), F(1)))))

        def chain(depth, leaf=F(1, 2)):
            node = il.BranchNode(leaf)
            for _ in range(depth):
                node = il.BranchNode(F(1, 2), (node,))
            return node

        tree = branching_tree(identity, F(1, 2), 2000)
        for twin in (branching_tree(identity, F(1, 2), 2000), chain(2000)):
            assert tree == twin and twin == tree and hash(twin) == hash(tree)
        for other in (branching_tree(identity, F(1, 2), 1999), chain(2000, F(1, 3)), chain(2001)):
            assert tree != other and other != tree
        # the walks give the dataclass's values at a depth its recursion reaches
        old = _OldBranchNode(F(1, 2))
        for _ in range(150):
            old = _OldBranchNode(F(1, 2), (old,))
        assert hash(chain(150)) == hash(branching_tree(identity, F(1, 2), 150)) == hash(old)
        assert hash(chain(150, F(1, 3))) != hash(old)

    @pytest.mark.parametrize("value", [0.5, True, None, 1j, (1, 2)], ids=repr)
    def test_values_must_be_rational(self, value):
        with pytest.raises(ValueError, match="not a rational"):
            il.BranchNode(value)

    def test_copies_pickles_and_weak_references(self):
        tree = branching_tree(TENT, F(3, 16), 3)
        assert copy.deepcopy(tree) == tree
        assert pickle.loads(pickle.dumps(tree)) == tree
        assert weakref.ref(tree)() is tree


def _queries(node):
    return node.leaf_count(), list(node.arity_profile().items()), node.is_full_binary()


class TestLevelCounts:
    """A tree's nodes are built from its levels when read, and the three
    queries read the levels' counts; a pickled copy is hand-built, so its
    queries walk the nodes."""

    def _check_every_node(self, tree):
        copy_ = pickle.loads(pickle.dumps(tree))
        nodes, copies = _preorder_nodes(tree), _preorder_nodes(copy_)
        assert len(nodes) == len(copies)
        for node, twin in zip(nodes, copies):
            assert node._link is not None and getattr(twin, "_link", None) is None
            assert node == twin and _queries(node) == _queries(twin)
        # the root, an inner node when there is one and the last leaf, each pickled alone
        inner = [n for n in nodes[1:] if n.children][:1]
        for node in [tree, *inner, nodes[-1]]:
            assert _queries(node) == _queries(pickle.loads(pickle.dumps(node)))

    @settings(max_examples=60)
    @given(case=tree_cases())
    @example(case=(tent_map(), F(0), 4, il._TREE_NODE_CAP))
    @example(case=(five_segment_map(), F(1, 5), 3, il._TREE_NODE_CAP))
    def test_every_node_answers_as_its_pickled_copy(self, case):
        f, x0, depth, cap = case
        with mock.patch.object(il, "_TREE_NODE_CAP", cap):
            tree = _outcome(branching_tree, InverseSystem.constant(f), x0, depth)
        if isinstance(tree, il.BranchNode):
            self._check_every_node(tree)

    @settings(max_examples=60)
    @given(case=known_tree_cases())
    def test_known_systems_answer_as_their_pickled_copies(self, case):
        tree = _outcome(branching_tree, *case)
        if isinstance(tree, il.BranchNode):
            self._check_every_node(tree)

    def test_the_queries_build_only_the_root(self, monkeypatch):
        made = []
        set_pair = il._set_pair
        monkeypatch.setattr(il, "_set_pair", lambda node, pair: made.append(pair) or set_pair(node, pair))
        tree = branching_tree(TENT, F(3, 16), 12)
        assert tree.leaf_count() == 4096
        assert made == [(3, 16)]
        assert tree.arity_profile() == {2: 4095} and tree.is_full_binary()
        assert made == [(3, 16)]
        # reading children builds that one level of nodes, once
        assert tree.children is tree.children
        assert made == [(3, 16), (3, 32), (29, 32)]

    def test_a_node_outlives_its_root(self):
        tree = branching_tree(TENT, F(0), 6)
        child = tree.children[1].children[0]
        want = _queries(pickle.loads(pickle.dumps(child)))
        root = weakref.ref(tree)
        del tree
        gc.collect()
        assert root() is None
        assert _queries(child) == want
        assert child == branching_tree(TENT, F(0), 6).children[1].children[0]
        self._check_every_node(child)

    def test_a_hand_built_node_over_built_children_walks(self):
        tree = branching_tree(TENT, F(0), 5)
        mixed = il.BranchNode(F(1, 7), tree.children + (tree,))
        assert getattr(mixed, "_link", None) is None
        assert _queries(mixed) == _queries(pickle.loads(pickle.dumps(mixed)))
        assert mixed.leaf_count() == 2 * tree.leaf_count()


class TestArgumentChecks:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: decode_point(TENT, BranchCode(F(1, 3), (0, 1)), depth=-1),
            lambda: decode_point(TENT, BranchCode(F(1, 3), (0, 1)), depth=1.0),
            lambda: decode_point(TENT, BranchCode(F(1, 3), (0, 1)), depth=True),
            lambda: branching_tree(TENT, F(1, 3), 2.0),
            lambda: branching_tree(TENT, F(1, 3), True),
            lambda: orbit_analyze(tent_map(), F(1, 3), budget=2.5),
            lambda: orbit_analyze(tent_map(), F(1, 3), budget=True),
            lambda: orbit_analyze(tent_map(), F(1, 3), max_cycle_period=2.5),
            lambda: orbit_analyze(tent_map(), F(1, 3), max_cycle_period=True),
            lambda: orbit_analyze(tent_map(), F(1, 3), max_cycle_period=-1),
            lambda: orbit_analyze(tent_map(), F(1, 3), max_cycle_period=-3),
            lambda: iterate_map(tent_map(), 1.5),
            lambda: iterate_map(tent_map(), True),
        ],
        ids=[
            "decode-depth-negative", "decode-depth-float", "decode-depth-bool",
            "tree-depth-float", "tree-depth-bool",
            "orbit-budget-float", "orbit-budget-bool",
            "orbit-period-float", "orbit-period-bool",
            "orbit-period-minus-one", "orbit-period-minus-three",
            "iterate-power-float", "iterate-power-bool",
        ],
    )
    def test_integer_arguments(self, call):
        with pytest.raises(PreconditionError):
            call()

    def test_period_zero_detects_no_cycle(self):
        il._cycle_table.cache_clear()
        f = five_segment_map()
        r = orbit_analyze(f, F(2, 5), budget=200, max_cycle_period=0)
        assert (r.kind, r.steps) == ("Unknown", 200)
        assert orbit_analyze(f, F(1, 2), max_cycle_period=0).kind == "Preperiodic"
        with pytest.raises(PreconditionError, match="max_cycle_period must be nonnegative"):
            orbit_analyze(f, F(2, 5), max_cycle_period=-3)
        # a refused period fills no cache slot
        assert il._cycle_table.cache_info().currsize == 1

    @pytest.mark.parametrize("depth", [0, 1, 3])
    @pytest.mark.parametrize("x0", [F(-1, 3), F(5), F(2)], ids=str)
    def test_start_point_outside_the_unit_interval(self, x0, depth):
        word = (0,) * depth
        with pytest.raises(PreconditionError, match=r"start point outside \[0,1\]"):
            branching_tree(TENT, x0, depth)
        with pytest.raises(PreconditionError, match=r"start point outside \[0,1\]"):
            decode_point(TENT, BranchCode(x0, word))
        with pytest.raises(PreconditionError, match=r"start point outside \[0,1\]"):
            encode_point(TENT, (x0,) + (F(1, 2),) * depth)

    @pytest.mark.parametrize(
        "call",
        [
            lambda x: branching_tree(TENT, x, 2),
            lambda x: decode_point(TENT, BranchCode(x, (0, 1))),
            lambda x: encode_point(TENT, (x,)),
            lambda x: orbit_analyze(tent_map(), x),
            lambda x: orbit_analyze(tent_map(), F(1, 3), tol=x),
            lambda x: tent_map()(x),
            lambda x: preimages(tent_map(), x),
            lambda x: PLMap(((0, 0), (x, 1), (1, 0))),
            lambda x: PLMap(((0, x), (1, 1))),
        ],
        ids=["tree", "decode", "encode", "orbit", "orbit-tol", "call", "preimages",
             "vertex-x", "vertex-y"],
    )
    def test_floats_are_refused(self, call):
        # a float is not read as its binary expansion, as BranchNode(0.1) is
        # not, and a bool is not read as 0 or 1
        with pytest.raises(ValueError, match="not a rational"):
            call(0.1)
        with pytest.raises(ValueError, match="not a rational"):
            call(0.5)
        with pytest.raises(ValueError, match="not a rational"):
            call(True)
        call(F(1, 10))
        call("1/10")
