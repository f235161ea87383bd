"""Tests for singular-graph samplers and chain-of-links descriptors."""

from fractions import Fraction

import pytest

from effdim import (
    ChainSpec,
    PreconditionError,
    RationalPoint,
    SegmentPath,
    chain_descriptor,
    dyadic_path,
    iterate_S,
    path_param,
    sample_S,
)

F = Fraction


class TestSegmentPath:
    def test_dyadic_anchor_order(self):
        P = dyadic_path(7)
        assert [a.coords[0] for a in P.anchors] == [
            F(0),
            F(1),
            F(1, 2),
            F(1, 4),
            F(3, 4),
            F(1, 8),
            F(3, 8),
        ]
        assert P.k_dim == 1

    def test_needs_two_anchors(self):
        with pytest.raises(PreconditionError, match="at least two anchors"):
            SegmentPath((RationalPoint((F(0),)),))

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(PreconditionError, match="share a dimension"):
            SegmentPath((RationalPoint((F(0),)), RationalPoint((F(0), F(0)))))


class TestPathParam:
    def test_integer_parameters_hit_vertices(self):
        P = dyadic_path(4)
        for i, height in [(0, F(1)), (1, F(1, 2)), (2, F(1, 4)), (3, F(1, 8))]:
            point, h = path_param(P, i)
            assert point == P.anchors[i]
            assert h == height

    def test_midpoint_interpolates_anchor_and_height(self):
        P = dyadic_path(4)
        point, h = path_param(P, F(5, 2))
        # halfway from (1/2, 1/4) to (1/4, 1/8)
        assert point.coords == (F(3, 8),)
        assert h == F(3, 16)

    def test_parameter_range(self):
        P = dyadic_path(4)
        with pytest.raises(PreconditionError, match="nonnegative"):
            path_param(P, -1)
        with pytest.raises(PreconditionError, match="beyond the last anchor"):
            path_param(P, F(7, 2))
        with pytest.raises(PreconditionError, match="beyond the last anchor"):
            path_param(P, 4)


class TestSampleS:
    def test_graph_rows_frozen(self):
        P = dyadic_path(8)
        cloud = sample_S((0, 1), P, 0, [F(1, 2), F(1, 4)], fiber_points=2)
        assert cloud.dim == 3
        assert cloud.points == (
            (F(1, 2), F(1, 2), F(1, 4)),
            (F(1, 4), F(3, 4), F(1, 16)),
            (F(0), F(0), F(0)),
            (F(0), F(1), F(0)),
        )

    def test_fiber_points_range(self):
        # 0 up to the anchor count append that many fiber rows; anything else is refused
        P = dyadic_path(8)
        n = len(P.anchors)
        assert len(sample_S((0, 1), P, 0, [F(1, 2)], fiber_points=n).points) == 1 + n
        for bad in (n + 1, 20, -1, -2):
            with pytest.raises(PreconditionError, match=rf"fiber points must lie in \[0, {n}\]"):
                sample_S((0, 1), P, 0, [F(1, 2)], fiber_points=bad)

    def test_non_integer_parameter_row(self):
        P = dyadic_path(8)
        cloud = sample_S((0, 1), P, 0, [F(2, 5)])
        assert cloud.points == ((F(2, 5), F(3, 8), F(3, 16)),)

    def test_height_shrinks_toward_the_singularity(self):
        P = dyadic_path(64)
        xs = [F(1, 2), F(1, 4), F(1, 8), F(1, 16)]
        cloud = sample_S((0, 1), P, 0, xs)
        heights = [row[-1] for row in cloud.points]
        assert heights == sorted(heights, reverse=True)
        assert heights[-1] < heights[0]
        assert all(h > 0 for h in heights)

    def test_errors(self):
        P = dyadic_path(4)
        with pytest.raises(PreconditionError, match="singular point outside"):
            sample_S((0, 1), P, 2, [F(1, 2)])
        with pytest.raises(PreconditionError, match="sample outside"):
            sample_S((0, 1), P, 0, [F(3, 2)])
        with pytest.raises(PreconditionError, match="coincides"):
            sample_S((0, 1), P, F(1, 2), [F(1, 2)])


class TestIterateS:
    def test_zero_stages_returns_bare_samples(self):
        P = dyadic_path(8)
        cloud = iterate_S((0, 1), P, [0, 1], 0, [F(1, 2), F(1, 3)])
        assert cloud.dim == 1
        assert cloud.points == ((F(1, 2),), (F(1, 3),))

    def test_one_stage_matches_sample_S(self):
        P = dyadic_path(8)
        xs = [F(1, 2), F(1, 4)]
        via_iterate = iterate_S((0, 1), P, [0], 1, xs)
        via_sample = sample_S((0, 1), P, 0, xs)
        assert via_iterate.points == via_sample.points

    def test_two_stages_frozen(self):
        P = dyadic_path(8)
        cloud = iterate_S((0, 1), P, [0, 1], 2, [F(1, 2)])
        assert cloud.dim == 5
        # stage 1 lifts 1/2 to (1/2, 1/2, 1/4) and the queue point 1 to
        # (1, 1, 1/2); stage 2 is at distance 1/2 from that image.
        assert cloud.points == ((F(1, 2), F(1, 2), F(1, 4), F(1, 2), F(1, 4)),)

    def test_first_coordinate_recovers_the_sample(self):
        P = dyadic_path(16)
        xs = [F(1, 3), F(2, 3), F(1, 5)]
        cloud = iterate_S((0, 1), P, [0, 1, F(1, 2)], 3, xs)
        assert [row[0] for row in cloud.points] == xs
        assert cloud.dim == 7

    def test_errors(self):
        P = dyadic_path(8)
        with pytest.raises(PreconditionError, match="stage count"):
            iterate_S((0, 1), P, [0], -1, [F(1, 2)])
        with pytest.raises(PreconditionError, match="not enough queue points"):
            iterate_S((0, 1), P, [0], 2, [F(1, 2)])
        with pytest.raises(PreconditionError, match="queue point outside"):
            iterate_S((0, 1), P, [2], 1, [F(1, 2)])
        with pytest.raises(PreconditionError, match="collides"):
            iterate_S((0, 1), P, [F(1, 2)], 1, [F(1, 2)])


class TestChainDescriptor:
    def test_default_kappa_doubles_per_size(self):
        spec = chain_descriptor([1, 2, 3], None, 3)
        assert spec.stages == ((1, 2), (2, 4), (3, 8))
        assert spec.link_sizes() == (1, 2, 3)
        assert spec.total_links() == 14
        # row gluing inside stages plus one bridge between stages
        assert len(spec.glue) == (2 - 1) + (4 - 1) + (8 - 1) + 2
        assert ((0, 1), (1, 0)) in spec.glue
        assert ((1, 3), (2, 0)) in spec.glue

    def test_explicit_kappa(self):
        spec = chain_descriptor([3, 5], [1, 1], 2)
        assert spec.stages == ((3, 1), (5, 1))
        assert spec.glue == ((((0, 0)), (1, 0)),)

    def test_zero_stages(self):
        spec = chain_descriptor([], None, 0)
        assert spec == ChainSpec((), ())
        assert spec.total_links() == 0

    def test_to_json_shape(self):
        spec = chain_descriptor([1, 2], [2, 1], 2)
        assert spec.to_json() == {
            "stages": [
                {"link_size": 1, "link_count": 2},
                {"link_size": 2, "link_count": 1},
            ],
            "glue": [
                {"from": [0, 0], "to": [0, 1]},
                {"from": [0, 1], "to": [1, 0]},
            ],
            "total_links": 3,
        }

    def test_errors(self):
        with pytest.raises(PreconditionError, match="stage count"):
            chain_descriptor([1], None, -1)
        with pytest.raises(PreconditionError, match="not enough g values"):
            chain_descriptor([1], None, 2)
        with pytest.raises(PreconditionError, match="strictly increasing"):
            chain_descriptor([2, 2], None, 2)
        with pytest.raises(PreconditionError, match="not enough kappa values"):
            chain_descriptor([1, 2], [4], 2)
        with pytest.raises(PreconditionError, match="positive"):
            chain_descriptor([1, 2], [2, 0], 2)
