"""Differential tests: running-product tables against the per-call loops.

The reference functions below are verbatim copies of the loops that
``BoundSeq``, ``z_value``, the descriptors, ``localized_count`` and
``_symbolic_cells`` ran before every product was read from a running
product cached on the base rule or the descriptor.  Constant, affine and
table rules (tables with a tail) must give the same answers, whatever
order the depths are asked in.  One work count shows that a run of
depths costs one factor per level, and another that a cover file
declaring a huge depth is refused without growing a table out to that
depth.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import effdim.cli as cli
import effdim.covers_nerve as cn
from effdim import (
    BoundSeq,
    CubeDescriptor,
    MengerDescriptor,
    PreconditionError,
    carpet_descriptor,
    localized_count,
    scale_counts,
    z_value,
)
from effdim._rat import ZERO
from effdim.covers_nerve import Box


# --- reference: the per-call loops, verbatim --------------------------------


def _scale(z, depth):
    w = Fraction(1)
    for j in range(depth):
        w /= z(j)
    return w


def _z_value(digits, z):
    total = Fraction(0)
    denom = 1
    for j, d in enumerate(digits):
        zj = z(j)
        if not 0 <= d < zj:
            raise ValueError(f"digit {d} out of range at level {j}")
        denom *= zj
        total += Fraction(d, denom)
    return total


def _cells_at_depth(desc, depth):
    total = 1
    for j in range(depth):
        total *= desc.level_cell_count(j)
    return total


def _menger_depth_for_scale(desc, r):
    if not 0 < r <= 1:
        raise PreconditionError("scale must lie in (0, 1]")
    depth = 0
    while _scale(desc.z, depth) > r:
        depth += 1
    return depth


def _cube_depth_for_scale(desc, r):
    if not 0 < r <= 1:
        raise PreconditionError("scale must lie in (0, 1]")
    depth = 0
    while Fraction(1, 2**depth) > r:
        depth += 1
    return depth


def _localized_count(desc, depth_for_scale, R, r):
    R, r = Fraction(R), Fraction(r)
    if not r < R:
        raise PreconditionError("need r < R in each localized pair")
    a = depth_for_scale(desc, R)
    b = depth_for_scale(desc, r)
    if b <= a:
        raise PreconditionError("scales collapse to one depth")
    total = 1
    for j in range(a, b):
        total *= desc.level_cell_count(j)
    return total


def _symbolic_cells(desc, depth):
    m, n = desc.m, desc.n
    per_level = []
    for j in range(depth):
        zj = desc.z(j)
        cols = [
            col
            for col in itertools.product(range(zj), repeat=m)
            if sum(1 for d in col if 0 < d < zj - 1) <= n
        ]
        per_level.append(cols)
    width = _scale(desc.z, depth)
    out = []
    for combo in itertools.product(*per_level):
        lows = [ZERO] * m
        for j, col in enumerate(combo):
            s = _scale(desc.z, j + 1)
            for i in range(m):
                lows[i] += col[i] * s
        out.append(Box(tuple((lo, lo + width) for lo in lows)))
    return tuple(out)


# --- strategies --------------------------------------------------------------

rules = st.one_of(
    st.integers(3, 7).map(BoundSeq.constant),
    st.integers(3, 6).map(BoundSeq.affine),
    st.builds(BoundSeq.from_table, st.lists(st.integers(3, 7), max_size=4), st.integers(3, 7)),
)
depth_lists = st.lists(st.integers(0, 12), min_size=1, max_size=8)


@st.composite
def scales(draw, z):
    """A scale in (0, 1]: a cell width, one just beside it, or any fraction."""
    k = draw(st.integers(0, 10))
    w = _scale(z, k)
    nudge = Fraction(1, draw(st.integers(10**6, 10**9)))
    choice = draw(st.sampled_from(("width", "above", "below", "any")))
    if choice == "width":
        return w
    if choice == "above":
        return min(w + nudge * w, Fraction(1))
    if choice == "below":
        return w - nudge * w
    den = draw(st.integers(1, 10**8))
    return Fraction(draw(st.integers(1, den)), den)


# --- differential tests ------------------------------------------------------


@given(z=rules, depths=depth_lists)
def test_scale_matches_the_loop_in_any_order(z, depths):
    assert [z.scale(k) for k in depths] == [_scale(z, k) for k in depths]


@given(z=rules, data=st.data())
def test_z_value_matches_the_loop(z, data):
    k = data.draw(st.integers(0, 8))
    digits = [data.draw(st.integers(0, z(j) - 1 + (j == k - 1))) for j in range(k)]
    try:
        expected = _z_value(digits, z)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            z_value(digits, z)
    else:
        assert z_value(digits, z) == expected


@given(z=rules, m=st.integers(1, 3), data=st.data())
def test_menger_counts_and_depths_match_the_loops(z, m, data):
    desc = MengerDescriptor(m, data.draw(st.integers(0, m)), z)
    depths = data.draw(depth_lists)
    assert [desc.cells_at_depth(k) for k in depths] == [_cells_at_depth(desc, k) for k in depths]
    for _ in range(4):
        r = data.draw(scales(z))
        assert desc.depth_for_scale(r) == _menger_depth_for_scale(desc, r)


@given(dim=st.integers(1, 3), data=st.data())
def test_cube_depth_for_scale_matches_the_loop(dim, data):
    desc = CubeDescriptor(dim)
    for _ in range(4):
        r = data.draw(scales(BoundSeq.constant(3)) | st.integers(0, 30).map(lambda k: Fraction(1, 2**k)))
        assert desc.depth_for_scale(r) == _cube_depth_for_scale(desc, r)


@given(z=rules, m=st.integers(1, 3), cube=st.booleans(), data=st.data())
def test_localized_count_matches_the_loop(z, m, cube, data):
    if cube:
        desc, old_depth = CubeDescriptor(m), _cube_depth_for_scale
    else:
        desc, old_depth = MengerDescriptor(m, data.draw(st.integers(0, m)), z), _menger_depth_for_scale
    R, r = sorted((data.draw(scales(z)), data.draw(scales(z))), reverse=True)
    try:
        expected = _localized_count(desc, old_depth, R, r)
    except PreconditionError as exc:
        with pytest.raises(PreconditionError, match=str(exc)):
            localized_count(desc, R, r)
    else:
        assert localized_count(desc, R, r) == expected


@settings(max_examples=40, deadline=None)
@given(z=rules, m=st.integers(1, 2), data=st.data())
def test_symbolic_cells_match_the_loop(z, m, data):
    desc = MengerDescriptor(m, data.draw(st.integers(0, m)), z)
    depth = data.draw(st.integers(0, 3 if m == 1 else 2))
    assert cn._symbolic_cells.__wrapped__(desc, depth) == _symbolic_cells(desc, depth)


def test_negative_depth_is_rejected():
    desc = carpet_descriptor()
    for call in (desc.z.scale, desc.scale, desc.cells_at_depth):
        with pytest.raises(ValueError, match="depth -1 is negative"):
            call(-1)


# --- work counts ---------------------------------------------------------------


def _counting(monkeypatch, cls, name):
    calls = []
    inner = getattr(cls, name)

    def counted(self, *args):
        calls.append(args)
        return inner(self, *args)

    monkeypatch.setattr(cls, name, counted)
    return calls


def test_a_run_of_depths_takes_each_factor_once(monkeypatch):
    bound_calls = _counting(monkeypatch, BoundSeq, "__call__")
    level_calls = _counting(monkeypatch, MengerDescriptor, "level_cell_count")
    desc = carpet_descriptor()
    counts = scale_counts(desc, [desc.scale(k) for k in range(1, 201)])
    assert counts.counts()[-1] == 8**200
    # 200 base factors for the scales, and one per level count
    assert len(bound_calls) <= 2 * 200
    assert len(level_calls) <= 201


@pytest.mark.parametrize(
    "carrier",
    [
        {"kind": "interval"},
        {"kind": "cantor"},
        {"kind": "menger", "m": 2, "n": 1},
        {"kind": "menger", "m": 1, "n": 0, "base_rule": {"kind": "affine", "offset": 3}},
    ],
    ids=["interval", "cantor", "carpet", "affine"],
)
def test_huge_carrier_depth_is_refused_within_log2_cap_levels(monkeypatch, carrier):
    level_calls = _counting(monkeypatch, MengerDescriptor, "level_cell_count")
    with pytest.raises(PreconditionError, match="more than 4096 cells"):
        cli._read_carrier({**carrier, "depth": 10**12})
    # every level has at least two columns, so 13 levels pass 4096 cells
    assert len(level_calls) <= math.log2(cli._CARRIER_CELL_CAP) + 1
