"""Tests for interval maps, orbit certificates and inverse-limit coding.

The differential tests check effdim's int kernels against one plain
Fraction reference, ``pl_reference`` (tests/pl_reference.py), which
works on vertex lists, imports nothing of effdim but PreconditionError,
and takes the caps as arguments.  Their inputs are random maps, maps
with redundant collinear vertices, the named maps, shared vertex
values, huge denominators, and caps lowered through monkeypatch.  The
private kernels are checked against the reference's results too:
``_refine`` and ``_powers`` against its consecutive vertices,
``_cycle_table`` against its cycle points keyed by floor(v * 2^64),
``_step`` against its evaluation and ``_preimage_level`` against its
preimages.  The one copy of earlier library code kept here is
``_OldBranchNode``, the frozen dataclass whose repr, hash and equality
``BranchNode`` must match.
"""

import copy
import functools
import gc
import itertools
import pickle
import random
import weakref
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from math import gcd
from unittest import mock

import pl_reference as ref
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


def _outcome(fn, *args):
    """fn's value, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except (PreconditionError, ValueError) as exc:
        return type(exc), str(exc)


def _levels(system):
    """A system as the reference reads it: level n's vertex list."""
    return lambda n: system.at(n).vertices


def _orbits(f, x0, budget, tol, max_period):
    """orbit_analyze's report as its fields, or its error, and the reference's, at the current caps."""
    new = _outcome(orbit_analyze, f, x0, budget, tol, max_period)
    if isinstance(new, il.OrbitReport):
        new = (new.kind, new.tail, new.period, new.cycle, new.steps, new.final_distance)
    args = (f.vertices, x0, budget, tol, max_period, il._SEGMENT_CAP, il._DENOM_BIT_CAP)
    return new, _outcome(ref.orbit_analyze, *args)


def _ref_table(f, max_period):
    """The reference's cycles, their points' keys floor(v * 2^64) ascending, and each key's cycle."""
    cycles = ref.cycles(f.vertices, max_period, il._SEGMENT_CAP)
    entries = sorted(((v.numerator << 64) // v.denominator, i) for i, cycle in enumerate(cycles) for v in cycle)
    return cycles, [k for k, _ in entries], [i for _, i in entries]


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
            assert _outcome(preimages, f, y) == _outcome(ref.preimages, f.vertices, y)
            assert _outcome(f, y) == _outcome(ref.evaluate, f.vertices, y)

    def test_shared_vertex_is_listed_once(self):
        assert preimages(five_segment_map(), F(4, 5)) == ref.preimages(five_segment_map().vertices, F(4, 5))
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
        new, old = _orbits(f, x0, 300, tol, max_period)
        assert new == old

    @pytest.mark.parametrize("tol", TOLS, ids=str)
    @given(f=pl_maps(), x0=unit_points, max_period=st.integers(1, 4))
    def test_random_maps_match_the_bisect_window(self, tol, f, x0, max_period):
        new, old = _orbits(f, x0, 200, tol, max_period)
        assert new == old

    @given(q=st.integers(50, 500).map(lambda v: 2 * v + 1), k=st.integers(0, 2**20), shift=st.integers(0, 4))
    def test_tent_repeats_match_the_bisect_window(self, q, k, shift):
        # k / (q * 2^shift), q odd, lands on the grid j / q within shift
        # steps and then cycles on it, so the orbit repeats exactly within
        # q + shift + 1 steps, mostly after hundreds of distinct values
        f = tent_map()
        x0 = F(k % (q << shift), q << shift)
        new, old = _orbits(f, x0, 1200, F(1, 2**40), 8)
        assert new == old
        kind, tail, period, _, steps, _ = new
        assert kind == "Preperiodic" and tail + period == steps
        path = [x0]
        for _ in range(steps):
            path.append(ref.evaluate(f.vertices, path[-1]))
        assert path[tail] == path[-1]
        assert len(set(path[:-1])) == steps

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
        assert il._cycle_table(f, max_period)[0] == ref.cycles(f.vertices, max_period, il._SEGMENT_CAP)

    @pytest.mark.parametrize("f", [tent_map(), five_segment_map()], ids=["tent", "five"])
    def test_chain_equals_per_power_table_on_named_maps(self, f):
        assert il._cycle_table(f, 6)[0] == ref.cycles(f.vertices, 6, il._SEGMENT_CAP)

    def test_five_segment_table_at_period_eight(self):
        assert il._cycle_table(five_segment_map(), 8)[0] == ref.cycles(five_segment_map().vertices, 8, il._SEGMENT_CAP)

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


def _piece_vertices(pieces):
    """The vertices of int pieces, each checked to meet its left neighbour, its right
    end reduced over a positive denominator and gcd(a, b, e) = 1 with e > 0."""
    verts = [(F(0), F(pieces[0][3], pieces[0][4]))]
    for xn, xd, a, b, e in pieces:
        assert xd > 0 and gcd(xn, xd) == 1
        assert e > 0 and gcd(a, b, e) == 1
        assert (a * verts[-1][0] + b) / e == verts[-1][1]
        verts.append((F(xn, xd), (a * F(xn, xd) + b) / e))
    return tuple(verts)


HUGE_UNIT = st.integers(2**1999, 2**2000).flatmap(lambda q: st.integers(0, q).map(lambda p: F(p, q)))


class TestIntPieces:
    @given(f=any_maps, xs=st.lists(unit_points | HUGE_UNIT, min_size=1, max_size=4))
    def test_call_matches_the_fraction_bisect(self, f, xs):
        # at every vertex, 2^-60 to either side of it (past 0 and 1 too),
        # and at small and ~2,000-bit points
        eps = F(1, 2**60)
        near = [x + d for x, _ in f.vertices for d in (-eps, 0, eps)]
        for x in near + xs:
            assert _outcome(f, x) == _outcome(ref.evaluate, f.vertices, x)

    @given(f=any_maps, g=any_maps)
    def test_refine_matches_the_fraction_pieces(self, f, g):
        assert _piece_vertices(il._refine(f, g._pieces)) == ref.compose(f.vertices, g.vertices)

    @given(f=any_maps, power=st.integers(1, 4))
    def test_powers_match_the_fraction_pieces(self, f, power):
        new = list(itertools.islice(il._powers(f), power))
        old = [ref.iterate_map(f.vertices, p, il._SEGMENT_CAP) for p in range(1, power + 1)]
        assert [_piece_vertices(p) for p in new] == old

    @given(f=any_maps, g=any_maps)
    def test_compose_matches_the_fraction_chain(self, f, g):
        assert compose(f, g).vertices == ref.compose(f.vertices, g.vertices)

    @given(f=any_maps, power=st.integers(0, 5))
    def test_iterate_map_matches_the_fraction_chain(self, f, power):
        new = _outcome(iterate_map, f, power)
        old = _outcome(ref.iterate_map, f.vertices, power, il._SEGMENT_CAP)
        assert (new.vertices if isinstance(new, PLMap) else new) == old

    @given(f=any_maps, max_period=st.integers(1, 5))
    def test_cycle_table_matches_the_fraction_table(self, f, max_period):
        new = _outcome(il._cycle_table, f, max_period)
        assert new == _outcome(_ref_table, f, max_period)
        if not isinstance(new[0], type):
            assert all(type(v) is Fraction for cycle in new[0] for v in cycle)

    @pytest.mark.parametrize("f", [tent_map(), five_segment_map()], ids=["tent", "five"])
    def test_named_tables_at_period_eight(self, f):
        il._cycle_table.cache_clear()
        assert il._cycle_table(f, 8) == _ref_table(f, 8)

    def test_identity_pieces_and_redundant_cuts(self):
        # the identity, with redundant vertices, fixes every point: each
        # piece of each power is slope-1 through 0, so its fixed points
        # are its two ends
        f = PLMap(((F(0), F(0)), (F(1, 3), F(1, 3)), (F(1, 2), F(1, 2)), (F(1), F(1))))
        new = il._cycle_table(f, 3)
        assert new == _ref_table(f, 3)
        assert new[0] == ((F(0),), (F(1, 3),), (F(1, 2),), (F(1),))
        # a slope-1 piece off the diagonal fixes nothing
        g = PLMap(((F(0), F(1, 4)), (F(3, 4), F(1)), (F(1), F(0))))
        assert il._cycle_table(g, 4) == _ref_table(g, 4)


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
            y = ref.evaluate(f.vertices, x)
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
        new, old = _orbits(f, x0, budget, tol, max_period)
        assert new == old

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
            new, old = _orbits(f, x0, 400, tol, max_period)
            assert new == old

    @pytest.mark.parametrize("name", ["tent", "five"])
    def test_named_orbits_match_the_fraction_steps(self, name):
        # workload-style starts, denominators up to 1000, at the default
        # budget, tol and period
        f = tent_map() if name == "tent" else five_segment_map()
        rng = random.Random(7919)
        for _ in range(300):
            q = rng.randrange(1, 1001)
            x0 = F(rng.randrange(q + 1), q)
            r = orbit_analyze(f, x0)
            new = (r.kind, r.tail, r.period, r.cycle, r.steps, r.final_distance)
            assert new == _orbits(f, x0, 10_000, F(1, 2**40), 8)[1]


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
        traj.append(draw(st.sampled_from(ref.preimages(f.vertices, traj[-1]))))
    traj = traj[: draw(st.integers(0, len(traj)))]
    if traj and draw(st.booleans()):
        traj[draw(st.integers(0, len(traj) - 1))] = draw(_start_values(f))
    return f, traj


def _decodes(system, code, depth=None):
    """decode_point's trajectory, or its error, and the reference's."""
    new = _outcome(decode_point, system, code, depth)
    return new, _outcome(ref.decode_point, _levels(system), code.x0, code.word, depth)


def _codes(system, traj):
    """encode_point's (x0, word, ex_time), or its error, and the reference's."""
    new = _outcome(encode_point, system, traj)
    if isinstance(new, BranchCode):
        new = (new.x0, new.word, new.ex_time)
    return new, _outcome(ref.encode_point, _levels(system), traj)


class TestBranchCodeDifferential:
    @given(case=decode_cases())
    def test_decode_matches_the_fraction_levels(self, case):
        f, code, depth = case
        new, old = _decodes(InverseSystem.constant(f), code, depth)
        assert new == old
        if not isinstance(new[0], type):
            assert all(type(v) is Fraction for v in new)

    @given(case=encode_cases())
    def test_encode_matches_the_fraction_ranks(self, case):
        f, traj = case
        new, old = _codes(InverseSystem.constant(f), traj)
        assert new == old

    def test_error_messages(self):
        half = InverseSystem.constant(PLMap(((F(0), F(0)), (F(1), F(1, 2)))))
        for new, old in [
            _decodes(TENT, BranchCode(F(1), (1,))),
            _decodes(TENT, BranchCode(F(1, 3), (0, -1))),
            _decodes(TENT, BranchCode(F(1, 3), (0,)), 2),
            _decodes(half, BranchCode(F(3, 4), (0,))),
            _decodes(half, BranchCode(F(1, 2), (0, 0))),
            _codes(TENT, ()),
            _codes(TENT, (F(1, 2), F(1, 4), F(1, 3))),
            _codes(TENT, (F(1, 2), F(3, 2))),
            _codes(half, (F(3, 4), F(1))),
        ]:
            assert new == old
            assert isinstance(new, tuple) and new[0] is PreconditionError


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
            return il.BranchNode(value, tuple(build(p, level + 1) for p in ref.preimages(f.vertices, value)))

        assert branching_tree(InverseSystem.constant(f), x0, depth) == build(x0, 0)


def _preorder_nodes(tree):
    out = []
    stack = [tree]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(reversed(node.children))
    return out


def _preorder(tree):
    """Each node's value and arity in preorder; every value must be a Fraction."""
    nodes = _preorder_nodes(tree)
    assert all(type(node.value) is Fraction for node in nodes)
    return [(node.value, len(node.children)) for node in nodes]


def _tree_outcome(system, x0, depth, cap):
    """branching_tree's preorder, or its error, under a node cap; the collector
    must come back as it was."""
    was = gc.isenabled()
    with mock.patch.object(il, "_TREE_NODE_CAP", cap):
        out = _outcome(branching_tree, system, x0, depth)
    assert gc.isenabled() is was
    return _preorder(out) if isinstance(out, il.BranchNode) else out


def _ref_tree(system, x0, depth, cap):
    """The reference's preorder, or its error."""
    return _outcome(ref.branching_tree, _levels(system), x0, depth, cap)


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
        assert _tree_outcome(system, x0, depth, cap) == _ref_tree(system, x0, depth, cap)

    def test_off_range_start_and_cap_errors(self):
        half = InverseSystem.constant(PLMap(((F(0), F(0)), (F(1), F(1, 2)))))
        for system, x0, depth, cap in ((half, F(3, 4), 1, 10), (half, F(1, 2), 3, 10), (TENT, F(1, 3), 4, 20)):
            new = _tree_outcome(system, x0, depth, cap)
            assert new == _ref_tree(system, x0, depth, cap)
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
            pre = ref.preimages(system.at(n).vertices, traj[-1])
            traj.append(pre[k % len(pre)])
        if data.draw(st.booleans()):
            traj[data.draw(st.integers(0, len(traj) - 1))] = data.draw(unit_points)
        new, old = _codes(system, traj)
        assert new == old

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
        assert (code.x0, code.word, code.ex_time) == ref.encode_point(_levels(MIXED), traj)
        assert code.ex_time == frozenset({1, 4})

    def test_a_rule_may_end_at_the_last_level(self):
        def rule(n):
            if n >= 3:
                raise ValueError("no map past level 2")
            return tent_map()

        system = InverseSystem(rule)
        traj = (F(1), F(1, 2), F(1, 4), F(1, 8))
        new, old = _codes(system, traj)
        assert new == old
        assert new[2] == frozenset({0})
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
        assert _tree_outcome(system, x0, depth, cap) == _ref_tree(system, x0, depth, cap)

    @settings(max_examples=200)
    @given(case=known_tree_cases() | tree_cases().map(lambda c: (InverseSystem.constant(c[0]), c[1], c[2])))
    def test_cap_at_the_node_count_and_one_below(self, case):
        system, x0, depth = case
        old = _ref_tree(system, x0, depth, il._TREE_NODE_CAP)
        if not isinstance(old, list):
            assert _tree_outcome(system, x0, depth, il._TREE_NODE_CAP) == old
            return
        n = len(old)
        assert _tree_outcome(system, x0, depth, n) == old
        below = _tree_outcome(system, x0, depth, n - 1)
        assert below == _ref_tree(system, x0, depth, n - 1)
        if depth:
            # only a lone root fits every cap
            assert below == (PreconditionError, f"branching tree exceeds {n - 1} nodes")

    @pytest.mark.parametrize("x0", [F(0), F(1, 2), F(1), F(1, 3)], ids=str)
    @pytest.mark.parametrize("depth", [1, 999, 3000])
    def test_deep_identity_chains(self, x0, depth):
        system = InverseSystem.constant(IDENTITY)
        for cap in (depth + 1, depth, il._TREE_NODE_CAP):
            new = _tree_outcome(system, x0, depth, cap)
            assert new == _ref_tree(system, x0, depth, cap)
        assert new == [(x0, 1)] * depth + [(x0, 0)]

    @pytest.mark.parametrize("x0", [F(0), F(1, 2), F(1)], ids=str)
    @pytest.mark.parametrize("name", sorted(KNOWN))
    def test_shared_vertex_values(self, name, x0):
        # 0, 1/2 and 1 are values at vertices two segments share, where the
        # kernel's repeat check keeps one solution
        for depth in range(9):
            new = _tree_outcome(KNOWN[name], x0, depth, il._TREE_NODE_CAP)
            assert new == _ref_tree(KNOWN[name], x0, depth, il._TREE_NODE_CAP)

    @given(f=pl_maps(), level=st.lists(st.fractions(-1, 2, max_denominator=48), max_size=6), room=st.integers(0, 20))
    def test_level_is_the_per_pair_kernel_concatenated(self, f, level, room):
        pairs = [(y.numerator, y.denominator) for y in level]
        sols = [_outcome(ref.preimages, f.vertices, y) for y in level]
        sols = [s if isinstance(s[0], type) else [(x.numerator, x.denominator) for x in s] for s in sols]
        want = ([], [])
        for s in sols:
            if isinstance(s[0], type):
                want = s
                break
            want[0].extend(s)
            want[1].append(len(s))
            if len(want[0]) > room:
                want = (PreconditionError, f"branching tree exceeds {il._TREE_NODE_CAP} nodes")
                break
        assert _outcome(il._preimage_level, f, pairs, room) == want
        for (p, q), s in zip(pairs, sols):
            assert _outcome(il._preimage_pairs, f, p, q) == s


# --- the frozen dataclass BranchNode replaced, its spec for repr, hash and equality


@dataclass(frozen=True)
class _OldBranchNode:
    """A node of the backward branching tree."""

    value: Fraction
    children: tuple["_OldBranchNode", ...] = ()


# the dataclass repr names the class by its qualified name
_OldBranchNode.__qualname__ = "BranchNode"


def _dataclass_tree(shape):
    """The _OldBranchNode tree of a preorder (value, arity) list, built bottom up."""
    built = []
    for value, arity in reversed(shape):
        built.append(_OldBranchNode(value, tuple(built.pop() for _ in range(arity))))
    return built[0]


class TestPairNodes:
    @given(case=tree_cases())
    @example(case=(tent_map(), F(3, 16), 4, il._TREE_NODE_CAP))
    @example(case=(tent_map(), F(0), 3, il._TREE_NODE_CAP))
    def test_matches_the_dataclass_nodes(self, case):
        f, x0, depth, cap = case
        system = InverseSystem.constant(f)
        with mock.patch.object(il, "_TREE_NODE_CAP", cap):
            new = _outcome(branching_tree, system, x0, depth)
        shape = _ref_tree(system, x0, depth, cap)
        if not isinstance(shape, list):
            assert new == shape
            return
        old = _dataclass_tree(shape)
        assert _preorder(new) == _preorder(old) == shape
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

    def test_deep_chains_repr_pickle_and_copy_without_recursion(self):
        # depth-2000 identity chains from 1/2, one a tree and one hand-built over a non-node
        # child; a recursion per level fails from depth 300 (deepcopy) and 340 (repr, pickle)
        identity = InverseSystem.constant(PLMap(((F(0), F(0)), (F(1), F(1)))))
        head = "BranchNode(value=Fraction(1, 2), children=("
        leaf = "BranchNode(value=Fraction(1, 2), children=())"
        tree = branching_tree(identity, F(1, 2), 2000)
        assert repr(tree) == head * 2000 + leaf + ",))" * 2000
        odd = il.BranchNode(F(1, 2), (il.BranchNode(F(1, 3)), "x"))
        for _ in range(2000):
            odd = il.BranchNode(F(1, 2), (odd,))
        assert repr(odd) == head * 2001 + "BranchNode(value=Fraction(1, 3), children=()), 'x'))" + ",))" * 2000
        for node in (tree, odd):
            for twin in (pickle.loads(pickle.dumps(node)), copy.deepcopy(node)):
                assert twin == node and repr(twin) == repr(node)
                assert getattr(twin, "_link", None) is None and getattr(twin.children[0], "_link", None) is None

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
