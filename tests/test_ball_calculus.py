"""Tests for the exact ball calculus on name prefixes."""

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from effdim import (
    BallRelation,
    FormalBall,
    NamePrefix,
    PreconditionError,
    RationalPoint,
    SpaceDescriptor,
    ball_of_prefix,
    formal_relation,
    validate_prefix,
)

# The default dense enumeration walks dyadic grids level by level; the
# level-k block in dimension 1 starts at index k + 2^k - 1.
DIM1_PREFIX_DENSE = ["0", "1", "0", "1/2", "1", "0", "1/4", "1/2", "3/4", "1"]


def _dyadic_index_1d(level: int, j: int) -> int:
    return level + 2**level - 1 + j


def ball(center, radius) -> FormalBall:
    coords = center if isinstance(center, (tuple, list)) else (center,)
    return FormalBall(RationalPoint(tuple(Fraction(c) for c in coords)), Fraction(radius))


class TestRationalPoint:
    def test_max_metric_is_coordinatewise_max(self):
        a = RationalPoint((Fraction(0), Fraction(1, 2)))
        b = RationalPoint((Fraction(1, 4), Fraction(1, 8)))
        assert a.dist(b) == Fraction(3, 8)

    def test_rejects_empty_and_out_of_box(self):
        with pytest.raises(ValueError):
            RationalPoint(())
        with pytest.raises(ValueError):
            RationalPoint((Fraction(3, 2),))

    def test_coordinate_inputs_become_plain_fractions(self):
        # the coordinates every input type gave when each one went through Fraction()
        class Half(Fraction):
            pass

        inputs = ("1/2", " 3/4 ", 0, 1, True, 0.5, 0.1, Decimal("0.25"), Half(1, 2), Fraction(0))
        p = RationalPoint(inputs)
        assert p.coords == tuple(Fraction(c) for c in inputs)
        assert all(type(c) is Fraction for c in p.coords)
        assert p.coords[6] == Fraction(3602879701896397, 36028797018963968)

    def test_box_and_empty_errors_keep_their_texts(self):
        for coords in ((Fraction(3, 2),), (Fraction(-1, 8),), ("1/2", 2), (1.5,), (Fraction(1, 2), -1e-9)):
            with pytest.raises(ValueError, match=r"^coordinates must lie in \[0,1\]$"):
                RationalPoint(coords)
        with pytest.raises(ValueError, match="^point needs at least one coordinate$"):
            RationalPoint(())
        # the edges of the box belong to it
        assert RationalPoint((0, 1, Fraction(0), Fraction(1))).coords == (0, 1, 0, 1)

    def test_dimension_mismatch_in_dist(self):
        a = RationalPoint((Fraction(0),))
        b = RationalPoint((Fraction(0), Fraction(0)))
        with pytest.raises(ValueError):
            a.dist(b)


class TestFormalBall:
    def test_contains_is_the_open_max_metric_ball(self):
        b = ball((Fraction(1, 2), Fraction(1, 4)), Fraction(1, 4))
        assert b.dim == 2
        assert b.contains(RationalPoint((Fraction(1, 2), Fraction(1, 4))))
        assert b.contains(RationalPoint((Fraction(5, 8), Fraction(3, 8))))
        # the max metric: a corner point of the cube is at distance 1/4, on the boundary
        assert not b.contains(RationalPoint((Fraction(3, 4), Fraction(1, 2))))
        assert not b.contains(RationalPoint((Fraction(1, 2), Fraction(0))))
        assert b.contains(RationalPoint((Fraction(1, 2), Fraction(1, 64))))
        with pytest.raises(ValueError):
            b.contains(RationalPoint((Fraction(1, 2),)))


class TestDenseEnumeration:
    def test_dim1_prefix_frozen(self):
        S = SpaceDescriptor(dim=1)
        got = [str(S.dense_point(i).coords[0]) for i in range(10)]
        assert got == DIM1_PREFIX_DENSE

    def test_dim2_level_blocks_enumerate_each_grid_once(self):
        # Oracle: the block for level k must be a permutation of the full
        # (2^k+1)^2 dyadic grid at that level, independent of the ordering
        # the enumeration happens to use inside the block.
        S = SpaceDescriptor(dim=2)
        start = 0
        for level in range(4):
            side = 2**level + 1
            block = [tuple(S.dense_point(start + i).coords) for i in range(side**2)]
            grid = {
                (Fraction(a, 2**level), Fraction(b, 2**level))
                for a in range(side)
                for b in range(side)
            }
            assert set(block) == grid
            assert len(set(block)) == len(block)
            start += side**2

    def test_points_lie_in_unit_box(self):
        S = SpaceDescriptor(dim=3)
        for i in range(0, 200, 7):
            p = S.dense_point(i)
            assert all(0 <= c <= 1 for c in p.coords)


class TestBallOfPrefix:
    def test_length_one_gives_radius_one(self):
        S = SpaceDescriptor(dim=1)
        b = ball_of_prefix(NamePrefix((5,), S))
        assert b.radius == 1
        assert b.center.coords == S.dense_point(5).coords

    def test_radius_halves_with_length(self):
        S = SpaceDescriptor(dim=1)
        assert ball_of_prefix(NamePrefix((5, 9), S)).radius == Fraction(1, 2)
        b = ball_of_prefix(NamePrefix((1, 3, 7), S))
        assert b.radius == Fraction(1, 4)
        assert b.center.coords == S.dense_point(7).coords

    def test_empty_prefix_rejected(self):
        with pytest.raises(PreconditionError, match="degenerate prefix"):
            ball_of_prefix(NamePrefix((), SpaceDescriptor(dim=1)))


class TestFormalRelation:
    def test_included_case(self):
        a = ball("1/4", "1/4")
        b = ball("3/8", "1/2")
        assert formal_relation(a, b) is BallRelation.INCLUDED_IN

    def test_disjoint_case(self):
        a = ball(0, "1/4")
        b = ball("3/4", "1/4")
        assert formal_relation(a, b) is BallRelation.DISJOINT
        assert formal_relation(b, a) is BallRelation.DISJOINT

    def test_identical_balls_are_neither(self):
        a = ball("1/2", "1/4")
        assert formal_relation(a, a) is BallRelation.NEITHER

    def test_tangent_balls_are_neither(self):
        # Touching radii sum exactly: the strict criterion refuses Disjoint.
        a = ball(0, "1/4")
        b = ball("1/2", "1/4")
        assert formal_relation(a, b) is BallRelation.NEITHER

    def test_dimension_mismatch(self):
        a = ball(0, "1/4")
        b = ball((0, 0), "1/4")
        with pytest.raises(PreconditionError):
            formal_relation(a, b)

    @given(
        ca=st.fractions(min_value=0, max_value=1, max_denominator=64),
        cb=st.fractions(min_value=0, max_value=1, max_denominator=64),
        ra=st.fractions(min_value=Fraction(1, 64), max_value=1, max_denominator=64),
        rb=st.fractions(min_value=Fraction(1, 64), max_value=1, max_denominator=64),
    )
    def test_included_implies_pointwise_containment(self, ca, cb, ra, rb):
        a = ball(ca, ra)
        b = ball(cb, rb)
        if formal_relation(a, b) is BallRelation.INCLUDED_IN:
            # Sample dense rationals of the open interval (ca-ra, ca+ra).
            for k in range(-8, 9):
                x = ca + ra * Fraction(k, 9)
                assert abs(x - cb) < rb

    @given(
        ca=st.fractions(min_value=0, max_value=1, max_denominator=32),
        cb=st.fractions(min_value=0, max_value=1, max_denominator=32),
        ra=st.fractions(min_value=Fraction(1, 32), max_value=1, max_denominator=32),
        rb=st.fractions(min_value=Fraction(1, 32), max_value=1, max_denominator=32),
    )
    def test_disjoint_is_symmetric(self, ca, cb, ra, rb):
        a = ball(ca, ra)
        b = ball(cb, rb)
        assert (formal_relation(a, b) is BallRelation.DISJOINT) == (
            formal_relation(b, a) is BallRelation.DISJOINT
        )

    def test_inclusion_transitive_when_criterion_composes(self):
        a = ball("1/2", "1/16")
        b = ball("7/16", "1/4")
        c = ball("1/2", "1/2")
        assert formal_relation(a, b) is BallRelation.INCLUDED_IN
        assert formal_relation(b, c) is BallRelation.INCLUDED_IN
        assert formal_relation(a, c) is BallRelation.INCLUDED_IN


class TestValidatePrefix:
    def test_short_and_constant_prefixes_validate(self):
        S = SpaceDescriptor(dim=1)
        assert validate_prefix(NamePrefix((3,), S))
        assert validate_prefix(NamePrefix((4, 4, 4), S))

    def test_distance_one_at_start_fails(self):
        S = SpaceDescriptor(dim=1)
        # Indices 0 and 1 are the endpoints 0 and 1, at distance 1 >= 2^0.
        assert not validate_prefix(NamePrefix((0, 1), S))

    def test_truncate_preserves_validity(self):
        S = SpaceDescriptor(dim=1)
        p = NamePrefix((0, 2, 5), S)
        assert validate_prefix(p)
        assert validate_prefix(p.truncate(2))

    @given(
        target=st.fractions(min_value=0, max_value=1, max_denominator=2**6),
        length=st.integers(min_value=2, max_value=7),
    )
    def test_fast_names_validate_and_nest(self, target, length):
        # Build a name for `target` by taking, at position n, the dyadic
        # level-(n+1) grid point nearest to it.  Entry n then sits within
        # 2^-(n+2) of the target, so consecutive entries are closer than
        # 2^-(n+1): well inside the validation bound, and tight enough
        # that each prefix ball is formally included in its parent.
        S = SpaceDescriptor(dim=1)
        indices = []
        for n in range(length):
            j = round(target * 2 ** (n + 1))
            indices.append(_dyadic_index_1d(n + 1, j))
        p = NamePrefix(tuple(indices), S)
        assert validate_prefix(p)
        rel = formal_relation(ball_of_prefix(p), ball_of_prefix(p.truncate(length - 1)))
        assert rel is BallRelation.INCLUDED_IN

    def test_valid_prefix_near_the_bound_need_not_nest(self):
        # Validation only constrains d(entry_n, entry_m) by 2^-n for n < m.
        # An entry drifting close to that bound keeps the prefix valid while
        # the induced balls stop being formally nested, so nesting is a
        # property of fast convergence, not of bare validity.
        S = SpaceDescriptor(dim=1)
        drifting = NamePrefix((0, 8), S)  # 0 then 3/4: distance 3/4 < 2^0
        assert validate_prefix(drifting)
        rel = formal_relation(
            ball_of_prefix(drifting), ball_of_prefix(drifting.truncate(1))
        )
        assert rel is BallRelation.NEITHER
