"""Tests for covers, nerves, kappa maps, shrinkings and embedding steps."""

import copy
import itertools
import math
import pickle
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import cover_reference as ref
import effdim.covers_nerve as cn
from effdim import (
    BoundSeq,
    Box,
    EpsEtaCertificate,
    FiniteCover,
    MengerDescriptor,
    Nerve,
    OpenSet,
    PointCloud,
    PreconditionError,
    RationalPoint,
    SymbolicCarrier,
    ball,
    cantor_carrier,
    carpet_descriptor,
    complement_distance,
    cover_mesh,
    cover_multiplicity,
    embed_step,
    general_position,
    interval_carrier,
    interval_set,
    kappa_map,
    menger_push_step,
    nerve_of,
    open_set,
    refine_cover,
    shrink_cover,
    sponge_descriptor,
    verify_eps_eta,
)
from test_cell_scan import shrinkable_covers

F = Fraction


def two_sided_cover(depth: int = 2) -> FiniteCover:
    # [0, 3/5) and (2/5, 1] as balls overhanging the unit interval.
    members = (open_set(ball((0,), F(3, 5))), open_set(ball((1,), F(3, 5))))
    return FiniteCover(members, interval_carrier(depth))


def seven_point_cloud_cover() -> FiniteCover:
    # two members over a 2-D cloud whose points lie off every dyadic grid line
    pts = (
        (F(1, 3), F(1, 5)), (F(2, 5), F(1, 3)), (F(2, 3), F(3, 5)), (F(3, 5), F(5, 7)),
        (F(1, 5), F(2, 3)), (F(1, 7), F(6, 7)), (F(5, 7), F(2, 7)),
    )
    cloud = PointCloud(2, pts)
    members = (
        open_set(ball((F(1, 4), F(1, 4)), F(3, 8)), ball((F(1, 4), F(3, 4)), F(3, 8))),
        open_set(ball((F(3, 4), F(1, 2)), F(3, 8))),
    )
    return FiniteCover(members, cloud)


class TestOpenSet:
    def test_contains_is_strict_and_clipped(self):
        s = open_set(ball((F(1, 4),), F(1, 4)))
        assert s.contains((F(1, 4),))
        assert s.contains((F(1, 8),))
        assert not s.contains((F(0),))  # boundary of the ball
        assert not s.contains((F(1, 2),))
        overhang = open_set(ball((0,), F(1, 2)))
        assert overhang.contains((F(0),))  # clipped set keeps the endpoint

    def test_needs_a_ball(self):
        with pytest.raises(PreconditionError, match="at least one ball"):
            OpenSet(())

    def test_interval_set_is_the_open_interval(self):
        s = interval_set(F(1, 4), F(3, 4))
        assert s.contains((F(1, 2),))
        assert not s.contains((F(1, 4),))
        assert not s.contains((F(3, 4),))

    def test_box_dim_counts_its_axes(self):
        assert Box(((F(0), F(1, 3)),)).dim == 1
        assert Box(((F(0), F(1)), (F(1, 2), F(1, 2)), (F(1), F(1)))).dim == 3
        assert Box(()).dim == 0

    def test_box_contains_is_closed(self):
        b = Box(((F(0), F(1, 3)),))
        assert b.contains((F(0),))
        assert b.contains((F(1, 3),))
        assert not b.contains((F(1, 2),))

    @pytest.mark.parametrize(
        "region, point",
        [
            (Box(((F(0), F(1)), (F(0), F(1)))), (F(1, 2),)),
            (open_set(ball((F(1, 2), F(1, 2)), F(1, 4))), (F(1, 2),)),
            (open_set(ball((F(1, 2),), F(1, 4))), (F(1, 2), F(1, 3))),
        ],
    )
    def test_contains_refuses_another_dimension(self, region, point):
        # zipped against the axes, the point used to be read on fewer of them
        with pytest.raises(PreconditionError, match="point dimension differs"):
            region.contains(point)


class TestSymbolicCarrier:
    def test_interval_carrier_cells(self):
        c = interval_carrier(2)
        assert c.dim == 1
        assert c.resolution() == F(1, 9)
        assert c.width_at(1) == F(1, 3)
        level1 = [b.bounds for b in c.cells_at(1)]
        assert level1 == [
            ((F(0), F(1, 3)),),
            ((F(1, 3), F(2, 3)),),
            ((F(2, 3), F(1)),),
        ]
        assert len(c.boxes()) == 9

    def test_cantor_carrier_cells(self):
        c = cantor_carrier(2)
        got = sorted(b.bounds[0] for b in c.boxes())
        assert got == [
            (F(0), F(1, 9)),
            (F(2, 9), F(1, 3)),
            (F(2, 3), F(7, 9)),
            (F(8, 9), F(1)),
        ]

    def test_carpet_level_one(self):
        c = SymbolicCarrier(carpet_descriptor(), 1)
        assert c.dim == 2
        assert len(c.boxes()) == 8  # all 1/3-cells except the center

    def test_negative_depth_rejected(self):
        with pytest.raises(PreconditionError):
            SymbolicCarrier(carpet_descriptor(), -1)


NAMED_DESCRIPTORS = {
    "interval": interval_carrier(0).descriptor,
    "cantor": cantor_carrier(0).descriptor,
    "carpet": carpet_descriptor(),
    "sponge": sponge_descriptor(),
}
RULES = st.one_of(
    st.integers(3, 6).map(BoundSeq.constant),
    st.integers(3, 5).map(BoundSeq.affine),
    st.builds(BoundSeq.from_table, st.lists(st.integers(3, 6), max_size=3), st.integers(3, 6)),
)


def _assert_merged_tiling(desc, depth):
    """The merged boxes tile the depth cells: one box per cell, no more room."""
    cells = [b.bounds for b in cn._symbolic_cells(desc, depth)]
    merged = cn._merged_cells(desc, depth)
    w = desc.scale(depth)
    assert sum(math.prod(hi - lo for lo, hi in b) for b in merged) == len(cells) * w**desc.m
    # every merged bound lies on the depth grid, so a box is a union of
    # grid cells; count how many boxes hold each one
    boxes = []
    for box in merged:
        steps = [(lo / w, hi / w) for lo, hi in box]
        assert all(lo < hi and lo.denominator == hi.denominator == 1 for lo, hi in steps)
        boxes.append(tuple((int(lo), int(hi)) for lo, hi in steps))
    held = Counter(c for b in boxes for c in itertools.product(*(range(lo, hi) for lo, hi in b)))
    corners = [tuple(int(lo / w) for lo, _ in cell) for cell in cells]
    # each cell lies in exactly one merged box, and the boxes hold nothing else
    assert held == Counter(corners) and max(held.values()) == 1
    # interiors are pairwise disjoint: sorted by the first axis's lo, a box
    # can share interior only with the boxes that start before it ends
    boxes.sort()
    for i, a in enumerate(boxes):
        for b in boxes[i + 1 :]:
            if b[0][0] >= a[0][1]:
                break
            assert any(ahi <= blo or bhi <= alo for (alo, ahi), (blo, bhi) in zip(a, b))


class TestMergedCells:
    @pytest.mark.parametrize("depth", range(4))
    @pytest.mark.parametrize("name", NAMED_DESCRIPTORS)
    def test_named_carriers_tile(self, name, depth):
        _assert_merged_tiling(NAMED_DESCRIPTORS[name], depth)

    @settings(max_examples=40, deadline=None)
    @given(z=RULES, m=st.integers(1, 3), data=st.data())
    def test_random_descriptors_tile(self, z, m, data):
        desc = MengerDescriptor(m, data.draw(st.integers(0, m)), z)
        depth = data.draw(st.integers(0, 3))
        assume(desc.cells_at_depth(depth) <= 4000)
        _assert_merged_tiling(desc, depth)

    @pytest.mark.parametrize(
        "name, depth, count",
        [("interval", 4, 1), ("cantor", 5, 32), ("carpet", 2, 20), ("sponge", 1, 12)],
    )
    def test_counts(self, name, depth, count):
        assert len(cn._merged_cells(NAMED_DESCRIPTORS[name], depth)) == count

    def test_cloud_keeps_one_box_per_distinct_point(self):
        cloud = PointCloud(1, ((F(1, 2),), (F(0),), (F(1, 2),)))
        assert cn._carrier_region(cloud) == (((F(1, 2), F(1, 2)),), ((F(0), F(0)),))


class TestFiniteCover:
    def test_valid_cover_and_multiplicity(self):
        U = two_sided_cover()
        assert cover_multiplicity(U) == 2
        assert U.dim == 1

    def test_disjoint_cover_has_multiplicity_one(self):
        members = (
            open_set(ball((F(1, 6),), F(1, 4))),
            open_set(ball((F(5, 6),), F(1, 4))),
        )
        U = FiniteCover(members, cantor_carrier(1))
        assert cover_multiplicity(U) == 1

    def test_construction_errors(self):
        with pytest.raises(PreconditionError, match="empty cover"):
            FiniteCover((), interval_carrier(1))
        with pytest.raises(PreconditionError, match="disagree on dimension"):
            FiniteCover(
                (open_set(ball((0, 0), F(1, 2))),), interval_carrier(1)
            )
        with pytest.raises(PreconditionError, match="not covered"):
            FiniteCover((open_set(ball((0,), F(1, 4))),), interval_carrier(1))

    def test_validate_escape_hatch(self):
        U = FiniteCover(
            (open_set(ball((0,), F(1, 4))),), interval_carrier(1), validate=False
        )
        assert len(U.members) == 1

    def test_carrier_is_scanned_once(self, monkeypatch):
        # a scan of the carrier puts its boxes and the members' cubes on one grid
        calls = []
        grid = cn._grid
        monkeypatch.setattr(cn, "_grid", lambda *a: calls.append(a) or grid(*a))
        members = (open_set(ball((0,), F(3, 5))), open_set(ball((1,), F(3, 5))))
        lazy = FiniteCover(members, interval_carrier(2), validate=False)
        assert calls == []
        assert nerve_of(lazy).dimension() == 1 and cover_multiplicity(lazy) == 2
        assert len(calls) == 1
        validated = two_sided_cover()
        assert len(calls) == 2
        assert nerve_of(validated).dimension() == 1 and cover_multiplicity(validated) == 2
        assert len(calls) == 2

    def test_cloud_carrier(self):
        cloud = PointCloud(1, ((F(0),), (F(1, 2),), (F(1),)))
        U = FiniteCover(two_sided_cover().members, cloud)
        assert cover_multiplicity(U) == 2
        assert cover_mesh(U) == F(1, 2)

    def test_one_grid_serves_every_query(self, monkeypatch):
        # validation, nerve_of, cover_multiplicity and cover_mesh read one
        # pass over the carrier, so the cover's boxes and cubes go on one grid
        two_sided = two_sided_cover().members
        cases = [
            (two_sided, interval_carrier(2)),
            (two_sided, PointCloud(1, ((F(0),), (F(1, 2),)))),
            ((open_set(ball((F(1, 2),), 1)),), cantor_carrier(3)),
            ((open_set(ball((F(1, 2),) * 2, 1)),), SymbolicCarrier(carpet_descriptor(), 1)),
        ]
        grids = []
        grid = cn._grid
        monkeypatch.setattr(cn, "_grid", lambda *a: grids.append(a) or grid(*a))
        for members, carrier in cases:
            grids.clear()
            U = FiniteCover(members, carrier)
            nerve_of(U), cover_multiplicity(U), cover_mesh(U)
            assert len(grids) == 1

    @pytest.mark.parametrize(
        "carrier, target, mesh, scans",
        [
            # the interval's padded families of radius 1, 1/3 and 1/9, the
            # last accepted, then the joint pass for its parents: 4 grids
            (interval_carrier(2), 2, F(1, 2), 4),
            (cantor_carrier(2), 2, F(1, 3), 3),
            (PointCloud(1, ((F(1, 5),), (F(4, 5),))), 1, F(1, 4), 4),
        ],
        ids=["interval-2", "cantor-2", "cloud"],
    )
    def test_a_refined_cover_is_not_scanned_again(self, monkeypatch, carrier, target, mesh, scans):
        U = FiniteCover((open_set(ball((F(1, 2),), 1)),), carrier)
        fresh = refine_cover(U, target, mesh)
        grids = []
        grid = cn._grid
        monkeypatch.setattr(cn, "_grid", lambda *a: grids.append(a) or grid(*a))
        refined = refine_cover(U, target, mesh)
        # one pass per family offered, one joint pass, and none to validate
        # the result: it holds the pass that accepted its family
        assert len(grids) == scans
        grids.clear()
        answers = nerve_of(refined), cover_multiplicity(refined), cover_mesh(refined)
        assert grids == []
        # the seeded cover is the cover a caller would build
        rebuilt = FiniteCover(refined.members, carrier, parents=refined.parents)
        assert refined == fresh == rebuilt and refined.validate
        assert repr(refined) == repr(rebuilt) and hash(refined) == hash(rebuilt)
        assert answers == (nerve_of(rebuilt), cover_multiplicity(rebuilt), cover_mesh(rebuilt))
        for twin in (copy.copy(refined), copy.deepcopy(refined), pickle.loads(pickle.dumps(refined))):
            assert twin == refined
            assert (nerve_of(twin), cover_multiplicity(twin), cover_mesh(twin)) == answers

    @pytest.mark.parametrize(
        "make",
        [two_sided_cover, seven_point_cloud_cover, lambda: refine_cover(two_sided_cover(), 2, F(1, 2))],
        ids=["interval", "cloud", "refined"],
    )
    def test_the_pass_is_not_pickled(self, monkeypatch, make):
        queried, unqueried = make(), make()
        answers = nerve_of(queried), cover_multiplicity(queried), cover_mesh(queried)
        assert "_pass" in queried.__dict__
        assert pickle.dumps(queried) == pickle.dumps(unqueried)
        grids = []
        grid = cn._grid
        monkeypatch.setattr(cn, "_grid", lambda *a: grids.append(a) or grid(*a))
        for twin in (pickle.loads(pickle.dumps(queried)), copy.copy(queried), copy.deepcopy(queried)):
            assert "_pass" not in twin.__dict__
            assert twin == queried and hash(twin) == hash(queried) and repr(twin) == repr(queried)
            grids.clear()
            assert (nerve_of(twin), cover_multiplicity(twin), cover_mesh(twin)) == answers
            # the copy makes its own pass, once
            assert len(grids) == 1

    def test_members_must_be_a_tuple(self):
        members = list(two_sided_cover().members)
        with pytest.raises(PreconditionError, match="^FiniteCover needs a tuple of OpenSets, not list$"):
            FiniteCover(members, interval_carrier(2))
        U = FiniteCover(tuple(members), interval_carrier(2))
        assert hash(U) == hash(two_sided_cover()) and U == two_sided_cover()
        assert refine_cover(U, 2, F(1, 2)) == refine_cover(two_sided_cover(), 2, F(1, 2))

    def test_multiplicity_on_an_empty_carrier_is_zero(self):
        # no carrier point, so no mask: the nerve has no faces and no member
        # has a diameter, and multiplicity agrees with nerve dimension + 1
        U = FiniteCover((open_set(ball((F(1, 3),), F(1, 4))),), PointCloud(1, ()))
        assert cover_multiplicity(U) == 0 == nerve_of(U).dimension() + 1
        assert cover_mesh(U) == 0


class TestNerve:
    def test_two_member_overlap(self):
        N = nerve_of(two_sided_cover())
        assert N.vertex_count == 2
        assert N.faces == frozenset(
            {frozenset({0}), frozenset({1}), frozenset({0, 1})}
        )
        assert N.dimension() == 1
        N.validate()

    def test_disjoint_members_give_isolated_vertices(self):
        members = (
            open_set(ball((F(1, 6),), F(1, 4))),
            open_set(ball((F(5, 6),), F(1, 4))),
        )
        N = nerve_of(FiniteCover(members, cantor_carrier(1)))
        assert N.faces == frozenset({frozenset({0}), frozenset({1})})
        assert N.dimension() == 0

    def test_validate_rejects_bad_complexes(self):
        with pytest.raises(PreconditionError, match="out-of-range"):
            Nerve(1, frozenset({frozenset({3})})).validate()
        # a 2-face without its edges
        bad = Nerve(
            3,
            frozenset(
                {frozenset({0}), frozenset({1}), frozenset({2}), frozenset({0, 1, 2})}
            ),
        )
        with pytest.raises(PreconditionError, match="downward closed"):
            bad.validate()
        with pytest.raises(PreconditionError, match="missing singleton"):
            Nerve(2, frozenset({frozenset({0})})).validate()

    def test_against_sampling_oracle_interval(self):
        members = (
            open_set(ball((0,), F(2, 5))),
            open_set(ball((F(1, 2),), F(1, 4))),
            open_set(ball((1,), F(2, 5))),
        )
        U = FiniteCover(members, interval_carrier(2))
        assert nerve_of(U).faces == ref.nerve_faces(ref.sets_of(members), ref.carrier_of(U.carrier))

    def test_against_sampling_oracle_cantor(self):
        members = (
            open_set(ball((0,), F(1, 2))),
            open_set(ball((1,), F(1, 2))),
        )
        U = FiniteCover(members, cantor_carrier(2))
        assert nerve_of(U).faces == ref.nerve_faces(ref.sets_of(members), ref.carrier_of(U.carrier))

    def test_against_sampling_oracle_carpet(self):
        members = (
            open_set(ball((F(1, 4), F(1, 4)), F(2, 3))),
            open_set(ball((F(3, 4), F(3, 4)), F(2, 3))),
            open_set(ball((F(3, 4), F(1, 4)), F(2, 3))),
            open_set(ball((F(1, 4), F(3, 4)), F(2, 3))),
        )
        U = FiniteCover(members, SymbolicCarrier(carpet_descriptor(), 2))
        N = nerve_of(U)
        assert N.faces == ref.nerve_faces(ref.sets_of(members), ref.carrier_of(U.carrier))
        N.validate()


class TestKappaMap:
    def test_symmetric_point_lands_midway(self):
        U = two_sided_cover()
        verts = (RationalPoint((F(0),)), RationalPoint((F(1),)))
        img = kappa_map((F(1, 2),), U, verts)
        assert img.coords == (F(1, 2),)

    def test_support_is_the_containing_members(self):
        U = two_sided_cover()
        verts = (RationalPoint((F(0),)), RationalPoint((F(1),)))
        # 1/5 lies only in the left member, so the image is its vertex.
        assert kappa_map((F(1, 5),), U, verts).coords == (F(0),)

    def test_target_dimension_follows_the_vertices(self):
        U = two_sided_cover()
        verts = (RationalPoint((F(0), F(0))), RationalPoint((F(1), F(1))))
        img = kappa_map((F(1, 2),), U, verts)
        assert img.coords == (F(1, 2), F(1, 2))

    def test_weights_reflect_complement_distances(self):
        U = two_sided_cover()
        x = (F(1, 2),)
        d0 = complement_distance(x, U.members[0])
        d1 = complement_distance(x, U.members[1])
        assert d0 == d1 == F(1, 10)

    def test_complement_distance_reads_its_point(self):
        # a 'p/q' string coordinate is read as its Fraction, a RationalPoint
        # as its coordinates; a bool is not read as 1
        s = interval_set(F(1, 4), F(3, 4))
        assert complement_distance(("1/2",), s) == F(1, 4)
        assert complement_distance(RationalPoint((F(1, 2),)), s) == F(1, 4)
        with pytest.raises(ValueError, match="^not a rational: True$"):
            complement_distance((True,), s)

    def test_errors(self):
        U = two_sided_cover()
        verts = (RationalPoint((F(0),)),)
        with pytest.raises(PreconditionError, match="one vertex per cover member"):
            kappa_map((F(1, 2),), U, verts)
        whole = FiniteCover(
            (open_set(ball((F(1, 2),), F(2))),), interval_carrier(1)
        )
        with pytest.raises(PreconditionError, match="complement is empty"):
            kappa_map(
                (F(1, 2),), whole, (RationalPoint((F(0),)),)
            )
        partial = FiniteCover(
            (open_set(ball((0,), F(1, 4))),), interval_carrier(1), validate=False
        )
        with pytest.raises(PreconditionError, match="uncovered point"):
            kappa_map((F(3, 4),), partial, (RationalPoint((F(0),)),))

    def test_point_must_lie_in_the_unit_box(self):
        U = two_sided_cover()
        verts = (RationalPoint((F(0),)), RationalPoint((F(1),)))
        assert kappa_map((F(1),), U, verts).coords == (F(1),)
        for x in (F(3, 2), F(-1, 8)):
            with pytest.raises(PreconditionError, match="outside the unit box"):
                kappa_map((x,), U, verts)

    def test_each_member_complement_is_scanned_once(self, monkeypatch):
        cloud = PointCloud(2, ((F(1, 4), F(1, 4)), (F(1, 2), F(1, 2)), (F(3, 4), F(3, 4))))
        members = (
            open_set(ball((F(1, 4), F(1, 4)), F(1, 4)), ball((F(1, 2), F(1, 2)), F(1, 8))),
            open_set(ball((F(3, 4), F(3, 4)), F(1, 4)), ball((F(1, 2), F(1, 2)), F(1, 8))),
            open_set(ball((F(1, 2), F(1, 2)), F(1, 4))),
        )
        U = FiniteCover(members, cloud)
        calls = []
        build = cn._uncovered_closures
        monkeypatch.setattr(cn, "_uncovered_closures", lambda s: calls.append(s) or build(s))
        verts = tuple(m.balls[0].center for m in members)
        for p in cloud.points:
            kappa_map(p, U, verts)
        # each member once, the single ball too; a later query rescans nothing
        assert len(calls) == 3
        assert complement_distance(cloud.points[1], members[0]) == F(1, 8)
        assert complement_distance(cloud.points[1], members[2]) == F(1, 4)
        assert len(calls) == 3

    def test_vertices_must_share_a_dimension(self):
        U = two_sided_cover()
        for verts in (
            (RationalPoint((F(0), F(0))), RationalPoint((F(1),))),
            (RationalPoint((F(0),)), RationalPoint((F(1), F(1)))),
        ):
            with pytest.raises(PreconditionError, match="vertices disagree on dimension"):
                kappa_map((F(1, 2),), U, verts)

    def test_point_dimension_must_match(self):
        cloud = PointCloud(2, ((F(1, 4), F(1, 4)), (F(3, 4), F(3, 4))))
        U = FiniteCover(
            (open_set(ball((F(1, 4), F(1, 4)), F(1, 4))), open_set(ball((F(3, 4), F(3, 4)), F(1, 4)))),
            cloud,
        )
        verts = tuple(m.balls[0].center for m in U.members)
        for x in ((F(1, 4),), (F(1, 4), F(1, 4), F(9))):
            with pytest.raises(PreconditionError, match="point dimension"):
                kappa_map(x, U, verts)
            with pytest.raises(PreconditionError, match="point dimension"):
                complement_distance(x, U.members[0])


class TestShrinkCover:
    def test_two_sided_shrinking_frozen(self):
        F_fam, V_fam = shrink_cover(two_sided_cover())
        assert [tuple(b.bounds for b in part) for part in F_fam] == [
            (((F(0), F(11, 20)),),),
            (((F(9, 20), F(1)),),),
        ]
        # Open shrinking pulls radii by 3/4 of the margin.
        radii = [v.balls[0].radius for v in V_fam]
        assert radii == [F(21, 40), F(21, 40)]

    def test_closed_family_still_covers(self):
        U = two_sided_cover()
        F_fam, V_fam = shrink_cover(U)
        for cell in U.carrier.boxes():
            rep = tuple((lo + hi) / 2 for lo, hi in cell.bounds)
            assert any(b.contains(rep) for part in F_fam for b in part)
            assert any(v.contains(rep) for v in V_fam)

    @given(shrinkable_covers())
    @example((two_sided_cover().members, interval_carrier(2)))
    def test_open_shrinking_sits_inside_the_closed_one(self, case):
        # V_k ∩ [0,1]^d ⊆ F_k is why shrink_cover checks only that V covers:
        # F covers wherever V does.  Membership in V_k's open cubes and in
        # F_k's closed boxes is constant on each cell of the unit box cut by
        # all their faces, so one representative per cell decides it.
        members, carrier = case
        try:
            F_fam, V_fam = shrink_cover(FiniteCover(members, carrier, validate=False))
        except PreconditionError:
            assume(False)
        for part, v in zip(F_fam, V_fam):
            boxes = [b.bounds for b in part]
            cuts = ref.facets([*v.cubes(), *boxes], v.dim)
            for rep, _ in ref.cells(((F(0), F(1)),) * v.dim, cuts):
                if v.contains(rep):
                    assert any(b.contains(rep) for b in part)

    def test_cloud_shrinking_frozen(self):
        # exact outputs frozen from the pointwise cloud loops this scan replaced
        F_fam, V_fam = shrink_cover(seven_point_cloud_cover())
        assert [tuple(b.bounds for b in part) for part in F_fam] == [
            (
                ((F(0), F(61, 112)), (F(0), F(61, 112))),
                ((F(0), F(61, 112)), (F(51, 112), F(1))),
            ),
            (((F(51, 112), F(1)), (F(23, 112), F(89, 112))),),
        ]
        assert [[(b.center.coords, b.radius) for b in v.balls] for v in V_fam] == [
            [((F(1, 4), F(1, 4)), F(57, 224)), ((F(1, 4), F(3, 4)), F(57, 224))],
            [((F(3, 4), F(1, 2)), F(57, 224))],
        ]

    def test_open_family_gap_halves_the_margin(self):
        # the closed boxes cover at the first two margins, but the open balls
        # leave a gap there, so the margin is halved twice
        members = (open_set(ball((F(1, 24),), F(1, 2))), open_set(ball((F(7, 12),), F(1, 2))))
        U = FiniteCover(members, interval_carrier(0))
        F_fam, V_fam = shrink_cover(U)
        FiniteCover(V_fam, U.carrier)  # raises unless V covers the carrier
        assert [tuple(b.bounds for b in part) for part in F_fam] == [
            (((F(0), F(197, 384)),),),
            (((F(43, 384), F(1)),),),
        ]
        assert [b.radius for v in V_fam for b in v.balls] == [F(117, 256), F(117, 256)]

    def test_no_margin_without_coverage(self):
        U = FiniteCover(
            (open_set(ball((0,), F(1, 4))),), interval_carrier(1), validate=False
        )
        with pytest.raises(PreconditionError, match="no positive margin"):
            shrink_cover(U)


class TestRefineCover:
    def test_interval_refinement_frozen(self):
        U = two_sided_cover()
        refined = refine_cover(U, 2, F(1, 2))
        assert len(refined.members) == 27
        assert cover_multiplicity(refined) == 2
        assert cover_mesh(refined) == F(2, 27)
        assert refined.parents is not None
        assert len(refined.parents) == 27
        for member, parent in zip(refined.members, refined.parents):
            assert parent in (0, 1)
            center = member.balls[0].center.coords
            assert complement_distance(center, U.members[parent]) > 0

    def test_cloud_refinement_frozen(self):
        # exact outputs frozen from the pointwise cloud loops this scan replaced
        refined = refine_cover(seven_point_cloud_cover(), 1, F(1, 8))
        r = F(1, 8)
        assert [[(b.center.coords, b.radius) for b in m.balls] for m in refined.members] == [
            [((F(1, 8), F(5, 8)), r)],
            [((F(1, 8), F(7, 8)), r)],
            [((F(3, 8), F(1, 8)), r)],
            [((F(3, 8), F(3, 8)), r)],
            [((F(5, 8), F(3, 8)), r)],
            [((F(5, 8), F(5, 8)), r)],
        ]
        assert refined.parents == (0, 0, 0, 0, 1, 1)
        assert cover_multiplicity(refined) == 1
        assert cover_mesh(refined) == F(4, 35)

    def test_cantor_multiplicity_one(self):
        U0 = FiniteCover(
            (open_set(ball((F(1, 2),), F(1))),), cantor_carrier(2)
        )
        refined = refine_cover(U0, 1, F(1, 3))
        assert cover_multiplicity(refined) == 1
        assert cover_mesh(refined) <= F(1, 3)
        centers = sorted(m.balls[0].center.coords[0] for m in refined.members)
        assert centers == [F(1, 6), F(5, 6)]

    def test_unreachable_multiplicity_exhausts(self):
        U = two_sided_cover()
        with pytest.raises(PreconditionError, match="search exhausted"):
            refine_cover(U, 1, F(1, 2))

    def test_budget_cuts_the_search(self):
        U = two_sided_cover()
        with pytest.raises(PreconditionError, match="search exhausted"):
            refine_cover(U, 2, F(1, 2), budget=1)

    def test_target_validation(self):
        with pytest.raises(PreconditionError, match="at least 1"):
            refine_cover(two_sided_cover(), 0, F(1, 2))

    @pytest.mark.parametrize("target, mesh", [(1, F(1, 4)), (2, F(1, 8))])
    def test_cloud_on_grid_lines_falls_back_to_point_balls(self, target, mesh):
        # every dyadic grid cell touching one of these points has another
        # point on its boundary, so the width ladder runs out
        pts = ((F(1, 4), F(1, 4)), (F(3, 4), F(3, 4)), (F(1, 2), F(1, 4)), (F(3, 4), F(1, 2)))
        members = (open_set(ball((F(1, 2), F(1, 2)), F(1, 2))), open_set(ball((F(3, 4), F(3, 4)), F(1, 8))))
        refined = refine_cover(FiniteCover(members, PointCloud(2, pts)), target, mesh)
        assert [[(b.center.coords, b.radius) for b in m.balls] for m in refined.members] == [
            [(p, F(1, 8))] for p in pts
        ]
        assert refined.parents == (0, 0, 0, 0)
        assert cover_multiplicity(refined) == 1
        assert cover_mesh(refined) == 0

    def test_single_point_ball_has_radius_one(self):
        U = FiniteCover((open_set(ball((F(1, 2),), F(1, 4))),), PointCloud(1, ((F(1, 2),), (F(1, 2),))))
        assert cn._point_balls(U.carrier) == (open_set(ball((F(1, 2),), 1)),)

    def test_cloud_checks_still_apply(self):
        cloud = PointCloud(1, ((F(1, 3),),))
        with pytest.raises(PreconditionError, match="search exhausted"):
            refine_cover(FiniteCover((open_set(ball((F(1, 3),), F(1, 4))),), cloud), 1, F(-1))
        empty = FiniteCover((open_set(ball((F(1, 3),), F(1, 4))),), PointCloud(1, ()))
        with pytest.raises(PreconditionError, match="no points"):
            refine_cover(empty, 1, F(1, 2))

    def test_symbolic_families_keep_every_cell_ball(self):
        # Each level-k cell's open interior meets the carrier: for k past the
        # depth the cell lies in a carrier cell, and before it the cell holds
        # admissible carrier cells.  So each padded slot of the ladder holds
        # every cell ball of a symbolic carrier at radius w, untested.  The
        # origin lies in the carrier and in no open cell, so no tight family
        # covers, and each tight slot holds the empty family.  When n < m no
        # padded family past the depth covers, so the ladder has depth + 1
        # widths, and depth + 3 when n == m.  Levels of more than 200 cells
        # are skipped to keep the sweep short; cell counts grow with k, so the
        # levels kept are a prefix, the ladder is read up to them, and its end
        # is checked where every width is kept.
        rules = (
            BoundSeq.constant(3), BoundSeq.constant(4), BoundSeq.constant(5),
            BoundSeq.affine(3), BoundSeq.from_table([5, 3], tail=4),
        )
        checked = ended = 0
        for m in (1, 2, 3):
            for n, z, depth in itertools.product(range(m + 1), rules, range(3)):
                desc = MengerDescriptor(m, n, z)
                carrier = SymbolicCarrier(desc, depth)
                widths = depth + 1 if n < m else depth + 3
                levels = [
                    k for k in range(widths)
                    if max(desc.cells_at_depth(k), desc.cells_at_depth(depth)) <= 200
                ]
                assert levels == list(range(len(levels)))
                ladder = cn._ladder(carrier)
                got = [
                    [(b.center.coords, b.radius) for s in family for b in s.balls]
                    for family in itertools.islice(ladder, 2 * len(levels))
                ]
                want = []
                for k in levels:
                    w = carrier.width_at(k)
                    centers = [tuple((lo + hi) / 2 for lo, hi in c.bounds) for c in carrier.cells_at(k)]
                    want += [[], [(c, w) for c in centers]]
                assert got == want
                if len(levels) == widths:
                    assert next(ladder, None) is None
                    ended += 1
                checked += len(got)
        assert (checked, ended) == (506, 92)

    @given(data=st.data(), dim=st.integers(1, 2), target=st.integers(1, 3))
    def test_every_cloud_cover_refines(self, data, dim, target):
        coords = st.fractions(0, 1, max_denominator=8)
        points = data.draw(st.lists(st.tuples(*[coords] * dim), min_size=1, max_size=6))
        radii = st.fractions(F(1, 16), 1, max_denominator=16)
        balls = st.builds(ball, st.tuples(*[coords] * dim), radii)
        members = [open_set(*bs) for bs in data.draw(st.lists(st.lists(balls, min_size=1, max_size=2), max_size=3))]
        missed = [p for p in points if not any(m.contains(p) for m in members)]
        if missed:
            members.append(open_set(*(ball(p, data.draw(radii)) for p in missed)))
        U = FiniteCover(tuple(members), PointCloud(dim, tuple(points)))
        mesh = data.draw(st.fractions(F(1, 2**20), 2, max_denominator=2**20))
        refined = refine_cover(U, target, mesh)
        assert cover_multiplicity(refined) <= target
        assert cover_mesh(refined) <= mesh
        for member, parent in zip(refined.members, refined.parents):
            assert all(U.members[parent].contains(p) for p in points if member.contains(p))


class TestGeneralPosition:
    def test_separated_points_pass_through(self):
        pts = ((F(0), F(0)), (F(1), F(0)), (F(0), F(1)))
        got = general_position(pts, F(1, 8))
        assert tuple(p.coords for p in got) == pts

    def test_collinear_triple_gets_perturbed(self):
        pts = ((F(0), F(0)), (F(1, 2), F(1, 2)), (F(1), F(1)))
        got = general_position(pts, F(1, 8))
        assert len(got) == 3
        (x0, y0), (x1, y1), (x2, y2) = (p.coords for p in got)
        det = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
        assert det != 0
        for before, after in zip(pts, got):
            assert max(abs(a - b) for a, b in zip(before, after.coords)) < F(1, 8)

    def test_avoid_flat_pushes_points_off_the_diagonal(self):
        diag = ((F(0), F(0)), (F(1), F(1)))
        pts = ((F(1, 2), F(1, 2)), (F(1, 4), F(1, 4)))
        got = general_position(pts, F(1, 16), avoid=(diag,))
        for p in got:
            x, y = p.coords
            assert x != y

    def test_eps_and_budget_validation(self):
        with pytest.raises(PreconditionError, match="eps must be positive"):
            general_position(((F(0),),), F(0))
        with pytest.raises(PreconditionError, match="budget exceeded"):
            general_position(
                ((F(1, 2),), (F(1, 2),)), F(1, 2), budget=0
            )
        # eps below every reachable grid also exhausts
        with pytest.raises(PreconditionError, match="budget exceeded"):
            general_position(((F(1, 2),), (F(1, 2),)), F(1, 2**45))

    def test_empty_input(self):
        assert general_position((), F(1, 2)) == ()

    def test_input_shapes_are_checked(self):
        # a point or flat point of another dimension would be zipped to the
        # first point's axes, dropping coordinates, and an empty flat has no base
        with pytest.raises(PreconditionError, match="points disagree on dimension"):
            general_position(((F(1, 2),), (F(1, 2), F(1, 4))), F(1, 8))
        with pytest.raises(PreconditionError, match="points disagree on dimension"):
            general_position([RationalPoint((F(1, 2), F(1, 4))), (F(1, 2),)], F(1, 8))
        with pytest.raises(PreconditionError, match="flat dimension differs"):
            general_position(((F(1, 2), F(1, 4)),), F(1, 8), avoid=(((F(0),), (F(1),)),))
        with pytest.raises(PreconditionError, match="flat dimension differs"):
            general_position(((F(1, 2),),), F(1, 8), avoid=(((F(0),), (F(1), F(1))),))
        with pytest.raises(PreconditionError, match="avoid flat needs at least one point"):
            general_position(((F(1, 2),),), F(1, 8), avoid=((),))
        with pytest.raises(PreconditionError, match="avoid flat needs at least one point"):
            general_position(((F(1, 2),),), F(1, 8), avoid=(((F(0),),), ()))
        # a point needs a coordinate, as RationalPoint says
        with pytest.raises(ValueError, match="^point needs at least one coordinate$"):
            general_position(((), ()), F(1, 8))
        # flats of the points' dimension, a point flat included, still pass
        got = general_position(((F(1, 2),),), F(1, 8), avoid=(((F(1, 4),),),))
        assert got == (RationalPoint((F(1, 2),)),)

    def test_points_outside_the_unit_box_are_refused_before_the_search(self):
        # a repeated point at 3/2 would be perturbed until the budget ran out;
        # it is refused first, with the error RationalPoint gives a lone one
        for budget in (100_000, 0):
            with pytest.raises(ValueError, match=r"^coordinates must lie in \[0,1\]$"):
                general_position([(F(3, 2),), (F(3, 2),)], F(1, 8), (), budget)
        with pytest.raises(ValueError, match=r"^coordinates must lie in \[0,1\]$"):
            general_position([(F(3, 2),)], F(1, 8))
        with pytest.raises(ValueError, match=r"^coordinates must lie in \[0,1\]$"):
            RationalPoint((F(3, 2),))
        # an avoid flat may reach past the box
        got = general_position(((F(1, 2),),), F(1, 8), avoid=(((F(3, 2),),),))
        assert got == (RationalPoint((F(1, 2),)),)


class TestEpsEta:
    def test_certificate_on_an_isometry(self):
        pairs = [((F(0),), (F(0),)), ((F(1, 2),), (F(1, 2),)), ((F(1),), (F(1),))]
        out = verify_eps_eta(pairs, F(1, 4), F(1, 4))
        assert isinstance(out, EpsEtaCertificate)
        assert out.to_json() == {"eps": "1/4", "eta": "1/4", "pairs_checked": 3}

    def test_counterexample_on_a_collapse(self):
        pairs = [((F(0),), (F(0),)), ((F(1),), (F(0),))]
        out = verify_eps_eta(pairs, F(1, 2), F(1, 2))
        assert not isinstance(out, EpsEtaCertificate)
        (x, _), (y, _) = out
        assert {x.coords[0], y.coords[0]} == {F(0), F(1)}

    def test_positivity_enforced(self):
        with pytest.raises(PreconditionError):
            EpsEtaCertificate(F(0), F(1, 2), ())

    def test_arguments_are_checked_before_the_scan(self):
        # a collapse is a counterexample for any eps, so a scan that ran
        # first would return it instead of refusing the bound
        collapse = [((F(0),), (F(0),)), ((F(1),), (F(0),))]
        for eps, eta in ((-1, F(1, 4)), (F(1, 4), 0), (0, 0)):
            for pairs in (collapse, []):
                with pytest.raises(PreconditionError, match="^eps and eta must be positive$"):
                    verify_eps_eta(pairs, eps, eta)
        # mixed dimensions are refused whether the images are close or far apart
        for far in ((F(1),), (F(0),)):
            with pytest.raises(PreconditionError, match="^sources disagree on dimension$"):
                verify_eps_eta([((F(0),), (F(0),)), ((F(1), F(1)), far)], F(1, 2), F(1, 2))
        for far in ((F(1), F(1)), (F(0), F(0))):
            with pytest.raises(PreconditionError, match="^images disagree on dimension$"):
                verify_eps_eta([((F(0),), (F(0),)), ((F(1),), far)], F(1, 2), F(1, 2))
        # sources and images may differ from each other in dimension
        out = verify_eps_eta([((F(0),), (F(0), F(0))), ((F(1),), (F(1), F(1)))], F(1, 2), F(1, 2))
        assert isinstance(out, EpsEtaCertificate)


class TestAffineGap:
    def test_point_to_point_is_max_metric(self):
        assert cn._affine_gap([(F(0), F(0))], [(F(1), F(1, 2))]) == 1

    def test_parallel_segments(self):
        a = [(F(0), F(0)), (F(1), F(0))]
        b = [(F(0), F(1, 2)), (F(1), F(1, 2))]
        assert cn._affine_gap(a, b) == F(1, 2)

    def test_crossing_lines_touch(self):
        a = [(F(0), F(0)), (F(1), F(1))]
        b = [(F(0), F(1)), (F(1), F(0))]
        assert cn._affine_gap(a, b) == 0


class TestEmbedStep:
    def _disjoint_cover(self):
        members = (
            open_set(ball((F(1, 6),), F(1, 4))),
            open_set(ball((F(5, 6),), F(1, 4))),
        )
        return FiniteCover(members, cantor_carrier(1))

    def test_single_step_certificate(self):
        sample = PointCloud(1, ((F(0),), (F(1, 3),), (F(1),)))
        images, cert = embed_step(sample, self._disjoint_cover())
        assert isinstance(cert, EpsEtaCertificate)
        assert images.points == ((F(1, 6),), (F(1, 6),), (F(5, 6),))
        assert cert.eps == F(1, 2)
        assert cert.eta == F(1, 2)

    def test_multiplicity_gate(self):
        sample = PointCloud(1, ((F(1, 2),),))
        with pytest.raises(PreconditionError, match="multiplicity exceeds"):
            embed_step(sample, two_sided_cover())

    def test_mesh_gate(self):
        sample = PointCloud(1, ((F(0),),))
        with pytest.raises(PreconditionError, match="mesh too coarse"):
            embed_step(sample, self._disjoint_cover(), j=2)

    @given(value=st.fractions(0, 4, max_denominator=2**16).filter(lambda v: v > 0))
    @example(value=F(4))
    @example(value=F(1))
    @example(value=F(1, 2**12))
    @example(value=F(1, 2**12) + F(1, 2**40))
    @example(value=F(1, 2**12) - F(1, 2**40))
    @example(value=F(1, 3**9))
    def test_eta_exponent_is_the_halving_count(self, value):
        # eta = 2^-v reads v off ceil(1 / value) as CubeDescriptor.depth_for_scale
        # does; the count of halvings of 1 down to value is its definition
        v, r = 0, F(1)
        while r > value:
            r /= 2
            v += 1
        assert cn._pow2_at_most(value) == v


class TestMengerPush:
    def test_level_zero_knots(self):
        got = menger_push_step(
            (F(1, 4), F(1, 2), F(7, 8)), 0, BoundSeq.constant(3), F(1, 8)
        )
        assert got == (F(1, 6), F(1, 2), F(11, 12))

    def test_grid_points_stay_fixed(self):
        z = BoundSeq.constant(3)
        got = menger_push_step((F(0), F(1, 3), F(2, 3), F(1)), 1, z, F(1, 24))
        assert got == (F(0), F(1, 3), F(2, 3), F(1))

    def test_eps_window_validation(self):
        z = BoundSeq.constant(3)
        with pytest.raises(PreconditionError, match="eps too large"):
            menger_push_step((F(1, 2),), 1, z, F(1, 6))
        with pytest.raises(PreconditionError, match="level must be nonnegative"):
            menger_push_step((F(1, 2),), -1, z, F(1, 8))
        with pytest.raises(PreconditionError, match="unit interval"):
            menger_push_step((F(3, 2),), 0, z, F(1, 8))

    @given(
        xs=st.lists(
            st.fractions(min_value=0, max_value=1, max_denominator=54),
            min_size=2,
            max_size=8,
            unique=True,
        )
    )
    def test_strictly_monotone(self, xs):
        z = BoundSeq.constant(3)
        xs = sorted(xs)
        got = menger_push_step(xs, 1, z, F(1, 24))
        assert all(a < b for a, b in zip(got, got[1:]))
