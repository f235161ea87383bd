"""Tests for digit streams, membership verdicts and extrema blocks."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import effdim.fractal_spaces as fs
from effdim import (
    BoundSeq,
    Coord,
    DigitMatrix,
    PreconditionError,
    expansions_of,
    extrema_combinatorics,
    generic_point_stream,
    menger_membership,
    menger_membership_point,
    noebeling_membership,
    z_value,
)

Z3 = BoundSeq.constant(3)


class TestBoundSeq:
    def test_constant_affine_table_values(self):
        assert [Z3(j) for j in range(4)] == [3, 3, 3, 3]
        aff = BoundSeq.affine(3)
        assert [aff(j) for j in range(4)] == [3, 4, 5, 6]
        tab = BoundSeq.from_table([5, 7], tail=4)
        assert [tab(j) for j in range(4)] == [5, 7, 4, 4]

    def test_scale_is_reciprocal_product(self):
        assert Z3.scale(3) == Fraction(1, 27)
        assert BoundSeq.affine(3).scale(2) == Fraction(1, 12)
        assert Z3.scale(0) == 1

    def test_bounds_below_three_rejected(self):
        with pytest.raises(ValueError):
            BoundSeq.constant(2)
        with pytest.raises(ValueError):
            BoundSeq.affine(2)
        with pytest.raises(ValueError):
            BoundSeq.from_table([3, 2])

    def test_is_constant(self):
        assert Z3.is_constant()
        assert not BoundSeq.affine(3).is_constant()


class TestZValue:
    def test_known_values(self):
        assert z_value((1, 2), Z3) == Fraction(5, 9)
        assert z_value((0, 0, 1), Z3) == Fraction(1, 27)
        # Affine base: 1/3 + 2/(3*4) = 1/2.
        assert z_value((1, 2), BoundSeq.affine(3)) == Fraction(1, 2)

    def test_digit_out_of_range(self):
        with pytest.raises(ValueError):
            z_value((3,), Z3)

    @given(st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=8))
    def test_lex_order_matches_numeric_order(self, digits):
        # Bumping any digit up by one exceeds every possible lower tail,
        # so lexicographic order on equal-length strings is numeric order.
        for k in range(len(digits)):
            if digits[k] == 2:
                continue
            bumped = list(digits)
            bumped[k] += 1
            bumped[k + 1 :] = [0] * (len(digits) - k - 1)
            floor_tail = list(digits[:k]) + [digits[k]] + [2] * (len(digits) - k - 1)
            assert z_value(digits, Z3) <= z_value(floor_tail, Z3) < z_value(bumped, Z3)


class TestDigitMatrix:
    def test_values_and_cell_width(self):
        M = DigitMatrix(((0, 2), (1, 0)), Z3)
        assert M.m == 2
        assert M.depth == 2
        assert M.values() == (Fraction(2, 9), Fraction(1, 3))
        assert M.cell_width() == Fraction(1, 9)

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            DigitMatrix(((0, 1), (0,)), Z3)

    def test_digit_bound_checked_per_level(self):
        aff = BoundSeq.affine(3)
        DigitMatrix(((2, 3),), aff)  # 3 < z_1 = 4 is fine
        with pytest.raises(ValueError):
            DigitMatrix(((3, 0),), aff)  # 3 >= z_0 = 3


class TestMengerMembershipMatrix:
    def test_interior_digit_budget_violation_reports_level(self):
        # Cantor rule: no interior digits at all.
        v = menger_membership(DigitMatrix(((0, 1, 0),), Z3), n=0)
        assert v.status == "Out"
        assert v.level == 1

    def test_clean_prefix_stays_unknown_at_depth(self):
        v = menger_membership(DigitMatrix(((0, 2, 0),), Z3), n=0)
        assert v.status == "Unknown"
        assert v.level == 3

    def test_carpet_budget_counts_per_level(self):
        rows = ((1, 0), (0, 1))  # one interior digit per level: allowed for n=1
        assert menger_membership(DigitMatrix(rows, Z3), n=1).status == "Unknown"
        rows = ((1, 0), (1, 1))  # two interior digits at level 0
        v = menger_membership(DigitMatrix(rows, Z3), n=1)
        assert v.status == "Out"
        assert v.level == 0


class TestMengerMembershipPoint:
    def test_boundary_point_uses_the_clean_expansion(self):
        # 1/3 = 0.1000... = 0.0222...; the low-tailed twin has no interior
        # digits, so the point lies in the Cantor set.
        v = menger_membership_point((Fraction(1, 3),), n=0, z=Z3)
        assert v.status == "In"

    def test_middle_point_is_out_at_level_zero(self):
        v = menger_membership_point((Fraction(1, 2),), n=0, z=Z3)
        assert v.status == "Out"
        assert v.level == 0

    def test_carpet_center_out_edge_midpoint_in(self):
        half = Fraction(1, 2)
        assert menger_membership_point((half, half), n=1, z=Z3).status == "Out"
        assert menger_membership_point((half, Fraction(0)), n=1, z=Z3).status == "In"

    def test_dispatch_accepts_coordinate_sequences(self):
        v = menger_membership((Fraction(1, 4), Fraction(3, 4)), n=1, z=Z3)
        assert v.status in ("In", "Out", "Unknown")
        with pytest.raises(PreconditionError, match="bound sequence"):
            menger_membership((Fraction(1, 4),), n=1)


class TestExpansions:
    def test_terminating_value_has_two_expansions(self):
        got = expansions_of(Fraction(1, 3), Z3)
        assert got == [((1,), ("zeros",)), ((0,), ("maxes",))]

    def test_zero_and_one_have_single_expansions(self):
        assert expansions_of(Fraction(0), Z3) == [((), ("zeros",))]
        assert expansions_of(Fraction(1), Z3) == [((), ("cycle", (2,)))]

    def test_periodic_expansion_detected(self):
        assert expansions_of(Fraction(1, 2), Z3) == [((), ("cycle", (1,)))]

    def test_affine_twin_reconstructs_the_value(self):
        aff = BoundSeq.affine(3)
        got = expansions_of(Fraction(1, 2), aff)
        assert ((1, 2), ("zeros",)) in got
        assert ((1, 1), ("maxes",)) in got
        # Max-digit tail contributes exactly one unit of the prefix scale.
        assert z_value((1, 1), aff) + aff.scale(2) == Fraction(1, 2)

    def test_outside_unit_interval_rejected(self):
        with pytest.raises(PreconditionError):
            expansions_of(Fraction(3, 2), Z3)

    @given(st.fractions(min_value=0, max_value=1, max_denominator=3**5))
    def test_expansions_converge_to_the_value(self, x):
        got = expansions_of(x, Z3)
        assert 1 <= len(got) <= 2
        for prefix, tail in got:
            if tail == ("zeros",):
                assert z_value(prefix, Z3) == x
            elif tail == ("maxes",):
                assert z_value(prefix, Z3) + Z3.scale(len(prefix)) == x
            else:
                kind, cycle = tail
                assert kind == "cycle"
                repeated = tuple(prefix) + tuple(cycle) * 3
                approx = z_value(repeated, Z3)
                assert 0 <= x - approx <= Z3.scale(len(repeated))


class TestNoebeling:
    def test_verdict_from_coordinate_tags(self):
        rat = Coord.rational(Fraction(1, 2))
        irr = Coord.irrational()
        unk = Coord.unknown()
        assert noebeling_membership((rat, irr, irr), n=1).status == "In"
        assert noebeling_membership((rat, rat, irr), n=1).status == "Out"
        assert noebeling_membership((rat, unk, irr), n=1).status == "Unknown"
        assert noebeling_membership((unk, irr), n=1).status == "In"

    def test_negative_budget_rejected(self):
        with pytest.raises(PreconditionError):
            noebeling_membership((Coord.irrational(),), n=-1)


class TestExtremaCombinatorics:
    def test_frozen_counts(self):
        assert extrema_combinatorics(0)[0] == 2
        assert extrema_combinatorics(1)[0] == 20
        assert extrema_combinatorics(2)[0] == 192

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_against_direct_enumeration(self, n):
        # Oracle: walk all ternary strings of length 2n+1 and keep those
        # with at most n ones.
        width = 2 * n + 1
        wanted = sorted(
            "".join(s)
            for s in itertools.product("012", repeat=width)
            if s.count("1") <= n
        )
        count, blocks = extrema_combinatorics(n)
        assert list(blocks) == wanted
        assert count == len(wanted)

    def test_blocks_sorted_and_bounded(self):
        count, blocks = extrema_combinatorics(2)
        assert list(blocks) == sorted(blocks)
        assert all(len(b) == 5 and b.count("1") <= 2 for b in blocks)
        assert blocks[0] == "00000"
        assert blocks[-1] == "22222"

    def test_closed_form_matches(self):
        for n in range(5):
            width = 2 * n + 1
            expect = sum(math.comb(width, k) * 2 ** (width - k) for k in range(n + 1))
            assert extrema_combinatorics(n)[0] == expect

    def test_block_cap(self, monkeypatch):
        # checked before any tuple is built, so a huge n is refused at once
        assert fs._BLOCK_CAP == 5
        for call in (extrema_combinatorics, lambda n: generic_point_stream((0,), n)):
            with pytest.raises(PreconditionError, match="past the cap of 5"):
                call(10**9)
        monkeypatch.setattr(fs, "_BLOCK_CAP", 2)
        assert extrema_combinatorics(2)[0] == 192
        assert generic_point_stream((191,), 2).m == 5
        with pytest.raises(PreconditionError, match="n = 3 is past the cap of 2"):
            extrema_combinatorics(3)


class TestGenericPointStream:
    def test_columns_are_the_named_blocks(self):
        count, blocks = extrema_combinatorics(1)
        M = generic_point_stream((0, 19, 3), n=1)
        assert M.m == 3
        assert M.depth == 3
        for t, letter in enumerate((0, 19, 3)):
            column = "".join(str(M.rows[i][t]) for i in range(3))
            assert column == blocks[letter]

    def test_letters_out_of_range_rejected(self):
        with pytest.raises(PreconditionError):
            generic_point_stream((20,), n=1)
        with pytest.raises(PreconditionError):
            generic_point_stream((), n=1)

    @given(
        word=st.lists(st.integers(min_value=0, max_value=19), min_size=1, max_size=12)
    )
    def test_stream_never_leaves_the_carrier(self, word):
        # Each column carries at most one interior digit, so the level
        # condition for n = 1 can never fail on a generic-point prefix.
        M = generic_point_stream(word, n=1)
        v = menger_membership(M, n=1)
        assert v.status == "Unknown"
        assert v.level == M.depth
