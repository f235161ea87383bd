"""Tests for interval maps, orbit certificates and inverse-limit coding."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
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
        assert len(iterate_map(tent_map(), 6).vertices) == 65
        with pytest.raises(PreconditionError, match="64 segments"):
            iterate_map(tent_map(), 7)
        with pytest.raises(PreconditionError, match="64 segments"):
            orbit_analyze(tent_map(), F(1, 3), max_cycle_period=12)


def _cycles_by_power(f, max_period):
    """The cycle table as it was built before the chain: each f^p afresh."""
    cycles = []
    known = set()
    for p in range(1, max_period + 1):
        fixed = set()
        for (x0, y0), (x1, y1) in iterate_map(f, p).segments():
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
            cur = f(x)
            while cur != x:
                orbit.append(cur)
                cur = f(cur)
            if len(orbit) == p:
                cycles.append(tuple(orbit))
                known.update(orbit)
    return tuple(cycles)


class TestCycleTable:
    @given(f=pl_maps(), max_period=st.integers(1, 4))
    def test_chain_equals_per_power_table(self, f, max_period):
        assert il._cycles_upto(f, max_period) == _cycles_by_power(f, max_period)

    @pytest.mark.parametrize("f", [tent_map(), five_segment_map()], ids=["tent", "five"])
    def test_chain_equals_per_power_table_on_named_maps(self, f):
        assert il._cycles_upto(f, 6) == _cycles_by_power(f, 6)

    def test_one_composition_per_period(self, monkeypatch):
        calls = []
        real = il.compose
        monkeypatch.setattr(il, "compose", lambda f, g: calls.append(1) or real(f, g))
        il._cycles_upto(tent_map(), 6)
        assert len(calls) == 5


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
