"""Reference piecewise-linear arithmetic, independent of effdim.

The inverse-limit and cli workloads draw valid branch words with these
functions and check effdim's trajectories, codes and orbits against
them.  A map is a tuple of (x, y) Fraction vertices with x running from
0 to 1.
"""

from __future__ import annotations

from fractions import Fraction

Vertices = tuple[tuple[Fraction, Fraction], ...]

TENT: Vertices = ((Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(1)), (Fraction(1), Fraction(0)))
FIVE: Vertices = tuple(
    (Fraction(x), Fraction(y))
    for x, y in (
        (0, 0),
        (Fraction(1, 5), Fraction(1, 6)),
        (Fraction(2, 5), Fraction(4, 5)),
        (Fraction(3, 5), Fraction(1, 5)),
        (Fraction(4, 5), Fraction(5, 6)),
        (1, 1),
    )
)


def evaluate(verts: Vertices, x: Fraction) -> Fraction:
    for (x0, y0), (x1, y1) in zip(verts, verts[1:]):
        if x0 <= x <= x1:
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    raise ValueError(f"{x} outside the domain")


def preimages(verts: Vertices, y: Fraction) -> list[Fraction]:
    """Sorted distinct solutions of f(x) = y."""
    sols = set()
    for (x0, y0), (x1, y1) in zip(verts, verts[1:]):
        if min(y0, y1) <= y <= max(y0, y1):
            sols.add(x0 + (x1 - x0) * (y - y0) / (y1 - y0))
    return sorted(sols)


def tent_options(y: Fraction) -> list[Fraction]:
    """Tent preimages of y, written out: y/2 and 1 - y/2, one when y = 1."""
    return [y / 2] if y == 1 else [y / 2, 1 - y / 2]


def critical_values(verts: Vertices) -> set[Fraction]:
    """Values at interior vertices where the slope changes sign."""
    return {
        y1
        for (_, y0), (_, y1), (_, y2) in zip(verts, verts[1:], verts[2:])
        if (y1 > y0) != (y2 > y1)
    }


def is_backward_trajectory(verts: Vertices, traj) -> bool:
    return all(evaluate(verts, b) == a for a, b in zip(traj, traj[1:]))


def orbit_prefix(verts: Vertices, x0: Fraction, steps: int) -> list[Fraction]:
    """x0, f(x0), ..., f^steps(x0)."""
    out = [x0]
    for _ in range(steps):
        out.append(evaluate(verts, out[-1]))
    return out
