"""Tests for exact box counts, slope envelopes and Assouad grid search."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from effdim import (
    BoundSeq,
    CubeDescriptor,
    MengerDescriptor,
    PointCloud,
    PreconditionError,
    ScaleCounts,
    assouad_exponent,
    box_count,
    box_dimension,
    cantor_descriptor,
    carpet_descriptor,
    estimate_report,
    localized_count,
    sponge_descriptor,
)

LOG2_3 = math.log(2) / math.log(3)


def _binom(m, k):
    return math.comb(m, k)


def _oracle_level_count(m, n, zj):
    # Independent count of admissible digit tuples at one level: choose
    # which coordinates take interior digits (at most n of them), then
    # multiply the per-coordinate digit choices.
    return sum(_binom(m, k) * (zj - 2) ** k * 2 ** (m - k) for k in range(n + 1))


class TestMengerDescriptor:
    def test_constant_base_level_counts(self):
        assert cantor_descriptor().level_cell_count(0) == 2
        assert carpet_descriptor().level_cell_count(0) == 8
        assert sponge_descriptor().level_cell_count(5) == 20

    def test_level_counts_match_direct_enumeration(self):
        aff = MengerDescriptor(3, 1, BoundSeq.affine(3))
        got = [aff.level_cell_count(j) for j in range(6)]
        want = [_oracle_level_count(3, 1, j + 3) for j in range(6)]
        assert got == want == [20, 32, 44, 56, 68, 80]

    def test_cells_at_depth_is_the_level_product(self):
        assert cantor_descriptor().cells_at_depth(5) == 2**5
        assert sponge_descriptor().cells_at_depth(3) == 20**3
        aff = MengerDescriptor(3, 1, BoundSeq.affine(3))
        assert aff.cells_at_depth(3) == 20 * 32 * 44

    def test_scale_and_depth_for_scale(self):
        d = cantor_descriptor()
        assert d.scale(4) == Fraction(1, 81)
        assert d.depth_for_scale(Fraction(1)) == 0
        assert d.depth_for_scale(Fraction(1, 3)) == 1
        assert d.depth_for_scale(Fraction(1, 4)) == 2
        with pytest.raises(PreconditionError, match="scale must lie"):
            d.depth_for_scale(Fraction(0))

    def test_full_cube_special_case(self):
        # n = m puts no restriction on interior digits.
        full = MengerDescriptor(2, 2, BoundSeq.constant(3))
        assert full.level_cell_count(0) == 9


class TestCubeDescriptor:
    def test_dyadic_counts(self):
        c = CubeDescriptor(2)
        assert c.cells_at_depth(3) == 64
        assert c.scale(3) == Fraction(1, 8)
        assert c.depth_for_scale(Fraction(1, 5)) == 3

    def test_dimension_validated(self):
        with pytest.raises(ValueError):
            CubeDescriptor(0)


class TestScaleCounts:
    def test_rows_sorted_coarse_to_fine(self):
        sc = ScaleCounts(((Fraction(1, 9), 4), (Fraction(1, 3), 2)))
        assert sc.scales() == (Fraction(1, 3), Fraction(1, 9))
        assert sc.counts() == (2, 4)

    def test_duplicate_scale_rejected(self):
        with pytest.raises(ValueError, match="duplicate scale"):
            ScaleCounts(((Fraction(1, 3), 2), (Fraction(1, 3), 4)))

    def test_decreasing_counts_rejected(self):
        with pytest.raises(ValueError, match="must not decrease"):
            ScaleCounts(((Fraction(1, 3), 4), (Fraction(1, 9), 2)))


class TestPointCloud:
    def test_len_counts_every_point_repeats_included(self):
        assert len(PointCloud(1, ())) == 0
        cloud = PointCloud(2, ((0, 0), (Fraction(1, 2), 1), (0, 0)))
        assert len(cloud) == 3 == len(cloud.points)


class TestBoxCount:
    def test_cloud_cells_with_top_clamp(self):
        cloud = PointCloud(
            2,
            (
                (Fraction(0), Fraction(0)),
                (Fraction(1, 2), Fraction(1, 2)),
                (Fraction(3, 4), Fraction(1, 4)),
                (Fraction(1), Fraction(1)),
            ),
        )
        # Mesh 1/2 buckets: (0,0), (1,1), (1,0) and the clamped top corner
        # joins (1,1).
        assert box_count(cloud, Fraction(1, 2)) == 3
        assert box_count(cloud, Fraction(1)) == 1

    def test_descriptor_count_uses_matching_depth(self):
        assert box_count(cantor_descriptor(), Fraction(1, 9)) == 4
        assert box_count(carpet_descriptor(), Fraction(1, 4)) == 64

    @given(
        r=st.fractions(
            min_value=Fraction(1, 64), max_value=1, max_denominator=64
        ),
        pts=st.lists(
            st.tuples(
                st.fractions(min_value=0, max_value=1, max_denominator=32),
                st.fractions(min_value=0, max_value=1, max_denominator=32),
            ),
            min_size=1,
            max_size=24,
        ),
    )
    def test_cloud_count_matches_direct_bucketing(self, r, pts):
        cloud = PointCloud(2, tuple(pts))
        top = math.ceil(1 / r) - 1
        cells = {
            tuple(min(int(c / r), top) for c in p)
            for p in cloud.points
        }
        assert box_count(cloud, r) == len(cells)


class TestBoxDimension:
    def test_cantor_envelope_collapses_to_the_exact_slope(self):
        rows = tuple(
            (cantor_descriptor().scale(d), cantor_descriptor().cells_at_depth(d))
            for d in range(1, 9)
        )
        est = box_dimension(ScaleCounts(rows))
        assert abs(est.lower - LOG2_3) < 1e-9
        assert abs(est.upper - LOG2_3) < 1e-9
        assert abs(est.lsq - LOG2_3) < 1e-9
        assert est.residual < 1e-18

    def test_mixed_scale_data_orders_envelope(self):
        rows = ((Fraction(1, 2), 2), (Fraction(1, 4), 6), (Fraction(1, 16), 40))
        est = box_dimension(ScaleCounts(rows))
        assert est.lower <= est.lsq <= est.upper

    def test_scales_and_counts_past_float_range(self):
        # 3^-400 underflows a float to 0 and 8^400 overflows one
        rows = ((Fraction(1, 3), 8), (Fraction(1, 3**400), 8**400))
        est = box_dimension(ScaleCounts(rows))
        slope = math.log(8) / math.log(3)
        for value in (est.lower, est.upper, est.lsq):
            assert abs(value - slope) < 1e-9

    def test_too_few_scales_rejected(self):
        with pytest.raises(PreconditionError, match="at least two scales"):
            box_dimension(ScaleCounts(((Fraction(1, 2), 3),)))

    def test_zero_count_rejected(self):
        with pytest.raises(PreconditionError, match="positive"):
            box_dimension(ScaleCounts(((Fraction(1, 2), 0), (Fraction(1, 4), 1))))

    def test_report_renders_exact_scales(self):
        rows = ((Fraction(1, 3), 2), (Fraction(1, 9), 4))
        est = box_dimension(ScaleCounts(rows))
        rep = estimate_report(ScaleCounts(rows), est)
        assert rep["rows"][0] == {"r": "1/3", "count": 2}
        assert set(rep) >= {"rows", "~slope_lower", "~slope_upper", "~slope_lsq"}


class TestLocalizedCount:
    def test_product_over_the_depth_window(self):
        sp = sponge_descriptor()
        assert localized_count(sp, Fraction(1), Fraction(1, 27)) == 20**3
        aff = MengerDescriptor(3, 1, BoundSeq.affine(3))
        assert localized_count(aff, Fraction(1), aff.scale(3)) == 20 * 32 * 44

    def test_window_inside_the_set(self):
        sp = sponge_descriptor()
        # Depths 1 to 3: levels 1 and 2 contribute.
        assert localized_count(sp, Fraction(1, 3), Fraction(1, 27)) == 400

    def test_misordered_and_collapsed_windows_rejected(self):
        sp = sponge_descriptor()
        with pytest.raises(PreconditionError, match="need r < R"):
            localized_count(sp, Fraction(1, 9), Fraction(1, 9))
        with pytest.raises(PreconditionError, match="collapse"):
            localized_count(sp, Fraction(1, 2), Fraction(1, 3))


class TestAssouadExponent:
    def test_cube_recovers_its_dimension_exactly(self):
        c = CubeDescriptor(2)
        got = assouad_exponent(
            c, [Fraction(1)], [Fraction(1, 64)], s_step=Fraction(1, 8), c_max=Fraction(1)
        )
        assert got == Fraction(2)

    def test_cantor_grid_values_frozen(self):
        # Window 1 -> 3^-6: count 64, ratio 729.  With c_max = 1 the first
        # admissible 1/64 grid point sits just above log2/log3, at 41/64
        # (3^(240/64) < 64 <= 3^(246/64)).  With c_max = 4 two doublings
        # are absorbed and the constraint drops to 16 <= 729^s, whose
        # first grid solution is 27/64 (3^(39/16) < 16 <= 3^(162/64)).
        args = (cantor_descriptor(), [Fraction(1)], [Fraction(1, 3**6)])
        tight = assouad_exponent(*args, s_step=Fraction(1, 64), c_max=Fraction(1))
        slack = assouad_exponent(*args, s_step=Fraction(1, 64), c_max=Fraction(4))
        assert tight == Fraction(41, 64)
        assert slack == Fraction(27, 64)
        assert slack < tight

    def test_admissibility_is_exact_at_the_boundary(self):
        # Carpet at one exact depth pair: count 8, ratio 3.  The smallest
        # admissible s on a 1/32 grid with c_max = 1 solves 8 <= 3^s.
        got = assouad_exponent(
            carpet_descriptor(),
            [Fraction(1)],
            [Fraction(1, 3)],
            s_step=Fraction(1, 32),
            c_max=Fraction(1),
        )
        want = Fraction(math.ceil(32 * math.log(8) / math.log(3)), 32)
        assert got == want == Fraction(61, 32)

    def test_rounding_gap_can_leave_no_grid_exponent(self):
        # Full interval but a scale pair whose ratio (2) is smaller than
        # the cell refinement (3): count 3 never fits under 2^s on the
        # coarse grid that stops just past the ambient dimension.
        full = MengerDescriptor(1, 1, BoundSeq.constant(3))
        with pytest.raises(PreconditionError, match="no admissible exponent"):
            assouad_exponent(
                full,
                [Fraction(1)],
                [Fraction(1, 2)],
                s_step=Fraction(1, 2),
                c_max=Fraction(1),
            )

    def test_input_validation(self):
        sp = sponge_descriptor()
        with pytest.raises(PreconditionError, match="empty or misordered"):
            assouad_exponent(sp, [], [], s_step=Fraction(1, 8), c_max=Fraction(1))
        with pytest.raises(PreconditionError, match="positive grid step"):
            assouad_exponent(
                sp,
                [Fraction(1)],
                [Fraction(1, 3)],
                s_step=Fraction(0),
                c_max=Fraction(1),
            )
        with pytest.raises(PreconditionError, match="c_max"):
            assouad_exponent(
                sp,
                [Fraction(1)],
                [Fraction(1, 3)],
                s_step=Fraction(1, 8),
                c_max=Fraction(1, 2),
            )

    @given(step_pow=st.integers(min_value=3, max_value=7))
    def test_value_refines_downward_with_the_grid(self, step_pow):
        # A finer grid can only move the first admissible point down.
        coarse = assouad_exponent(
            carpet_descriptor(),
            [Fraction(1)],
            [Fraction(1, 9)],
            s_step=Fraction(1, 2**step_pow),
            c_max=Fraction(1),
        )
        fine = assouad_exponent(
            carpet_descriptor(),
            [Fraction(1)],
            [Fraction(1, 9)],
            s_step=Fraction(1, 2 ** (step_pow + 1)),
            c_max=Fraction(1),
        )
        assert fine <= coarse
