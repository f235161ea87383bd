"""Samplers for condensation-of-singularities spaces and chain specs.

The basic object is a polygonal path descending toward height zero: its
vertices sit at (a_i, 2^{-i}) for a dense-in-K anchor sequence a_i.  A
singular graph over an interval sends x to the path point at parameter
1/d(x, t), so the graph spirals along the whole anchor sequence as x
approaches the singularity t.  Iterating the construction against a
queue of singular points produces finite stages whose coordinates stay
exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from ._rat import ONE, ZERO, max_dist, rat
from .ball_calculus import PreconditionError, RationalPoint
from .dimension_estimators import PointCloud


@dataclass(frozen=True)
class SegmentPath:
    """Polygonal path with vertex i at (anchors[i], 2^{-i}).

    Anchors are points of the compact factor K; the height coordinate
    halves from each vertex to the next, so the path is injective no
    matter how the anchors repeat.
    """

    anchors: tuple[RationalPoint, ...]

    def __post_init__(self) -> None:
        if len(self.anchors) < 2:
            raise PreconditionError("a path needs at least two anchors")
        if len({a.dim for a in self.anchors}) != 1:
            raise PreconditionError("anchors must share a dimension")

    @property
    def k_dim(self) -> int:
        return self.anchors[0].dim


def _dyadic_sequence(count: int) -> list[Fraction]:
    out = [ZERO, ONE]
    denom = 2
    while len(out) < count:
        out.extend(Fraction(num, denom) for num in range(1, denom, 2))
        denom *= 2
    return out[:count]


def dyadic_path(count: int) -> SegmentPath:
    """Default path: the dyadic rationals of [0,1] as 1-dimensional anchors."""
    return SegmentPath(
        tuple(RationalPoint((v,)) for v in _dyadic_sequence(count))
    )


def path_param(P: SegmentPath, t) -> tuple[RationalPoint, Fraction]:
    """Point and height of the path at parameter t >= 0.

    Integer parameters hit the vertices exactly; in between, both the
    anchor coordinates and the height interpolate linearly.
    """
    t = rat(t)
    if t < 0:
        raise PreconditionError("path parameter must be nonnegative")
    i = t.numerator // t.denominator
    frac = t - i
    if i + (1 if frac else 0) > len(P.anchors) - 1:
        raise PreconditionError("parameter beyond the last anchor segment")
    a = P.anchors[i].coords
    height_a = Fraction(1, 2**i)
    if frac == 0:
        return P.anchors[i], height_a
    b = P.anchors[i + 1].coords
    height_b = height_a / 2
    point = tuple(x + frac * (y - x) for x, y in zip(a, b))
    return RationalPoint(point), height_a + frac * (height_b - height_a)


def sample_S(
    E: tuple,
    K_anchors: SegmentPath,
    t,
    xs: Sequence,
    fiber_points: int = 0,
) -> PointCloud:
    """Sample the singular graph over E: x maps to (x, path(1/d(x, t))).

    Graph coordinates are (x, anchor coords, height).  When requested,
    the first fiber_points anchors are appended at height zero over t,
    sampling the fiber copy of K; fiber_points runs from 0 to the anchor
    count.
    """
    lo, hi = rat(E[0]), rat(E[1])
    t = rat(t)
    if not lo <= t <= hi:
        raise PreconditionError("singular point outside the interval")
    if not 0 <= fiber_points <= len(K_anchors.anchors):
        raise PreconditionError(f"fiber points must lie in [0, {len(K_anchors.anchors)}]")
    rows = []
    for x in xs:
        x = rat(x)
        if not lo <= x <= hi:
            raise PreconditionError("sample outside the interval")
        if x == t:
            raise PreconditionError("sample coincides with the singular point")
        point, height = path_param(K_anchors, 1 / abs(x - t))
        rows.append((x,) + point.coords + (height,))
    for i in range(fiber_points):
        rows.append((t,) + K_anchors.anchors[i].coords + (ZERO,))
    dim = 1 + K_anchors.k_dim + 1
    return PointCloud(dim, tuple(rows))


def iterate_S(
    E: tuple,
    K_anchors: SegmentPath,
    Q_prefix: Sequence,
    stages: int,
    xs: Sequence,
) -> PointCloud:
    """Push samples through the first `stages` singular-graph stages.

    Stage k grafts the graph construction onto the previous stage at the
    image of q_k, so every point grows by (anchor, height) coordinates
    per stage; the first coordinate always recovers the source sample.
    """
    lo, hi = rat(E[0]), rat(E[1])
    if stages < 0:
        raise PreconditionError("stage count must be nonnegative")
    if stages > len(Q_prefix):
        raise PreconditionError("not enough queue points for the requested stages")
    points = []
    for x in xs:
        x = rat(x)
        if not lo <= x <= hi:
            raise PreconditionError("sample outside the interval")
        points.append((x,))
    qimgs = []
    for q in Q_prefix:
        q = rat(q)
        if not lo <= q <= hi:
            raise PreconditionError("queue point outside the interval")
        qimgs.append((q,))
    for k in range(stages):
        target = qimgs[k]

        def lift(y: tuple) -> tuple:
            d = max_dist(y, target)
            if d == 0:
                raise PreconditionError("sample collides with a used queue point")
            point, height = path_param(K_anchors, 1 / d)
            return y + point.coords + (height,)

        points = [lift(y) for y in points]
        for j in range(k + 1, len(qimgs)):
            qimgs[j] = lift(qimgs[j])
    dim = 1 + stages * (K_anchors.k_dim + 1)
    return PointCloud(dim, tuple(points))


@dataclass(frozen=True)
class ChainSpec:
    """Stages of (link size, link count) plus the gluing identifications.

    Glue entries ((s, i), (s', i')) identify the b-point of link i in
    stage s with the a-point of link i' in stage s'.
    """

    stages: tuple[tuple[int, int], ...]
    glue: tuple[tuple[tuple[int, int], tuple[int, int]], ...]

    def total_links(self) -> int:
        return sum(count for _, count in self.stages)

    def link_sizes(self) -> tuple[int, ...]:
        return tuple(size for size, _ in self.stages)

    def to_json(self) -> dict:
        return {
            "stages": [
                {"link_size": size, "link_count": count}
                for size, count in self.stages
            ],
            "glue": [
                {"from": list(a), "to": list(b)} for a, b in self.glue
            ],
            "total_links": self.total_links(),
        }


# Most links a chain spec may hold: one glue entry per link is built and
# printed, and the default link count 2^g doubles with each unit of g.
_LINK_CAP = 2**14


def chain_descriptor(
    g: Sequence[int],
    kappa_growth: Sequence[int] | None,
    stages: int,
) -> ChainSpec:
    """Chain-of-links description: stage i holds kappa(g(i)) links of size g(i).

    Links of one stage are glued in a row, and the last link of each
    stage attaches to the first link of the next.  kappa defaults to
    m -> 2^m applied to the link sizes.  More than _LINK_CAP links in all
    is refused before any glue is built.
    """
    if stages < 0:
        raise PreconditionError("stage count must be nonnegative")
    if len(g) < stages:
        raise PreconditionError("not enough g values for the requested stages")
    sizes = [int(v) for v in g[:stages]]
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise PreconditionError("g must be strictly increasing")
    if kappa_growth is None:
        # a size past bit_length(cap) alone exceeds the cap, so 2^size is
        # never built for it
        counts = [2 ** min(s, _LINK_CAP.bit_length()) for s in sizes]
    else:
        if len(kappa_growth) < stages:
            raise PreconditionError("not enough kappa values for the requested stages")
        counts = [int(v) for v in kappa_growth[:stages]]
    if any(c < 1 for c in counts):
        raise PreconditionError("link counts must be positive")
    if sum(counts) > _LINK_CAP:
        raise PreconditionError(f"the chain has more than {_LINK_CAP} links")
    glue = []
    for s, count in enumerate(counts):
        for i in range(count - 1):
            glue.append(((s, i), (s, i + 1)))
        if s + 1 < stages:
            glue.append(((s, count - 1), (s + 1, 0)))
    return ChainSpec(
        tuple(zip(sizes, counts)),
        tuple(glue),
    )
