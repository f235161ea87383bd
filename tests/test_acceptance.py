"""Acceptance checks for the full workflow, one criterion per test.

Each test records a "[criterion N] PASS/FAIL: ..." line that the shared
conftest prints as a scorecard section after the run, so every test run
shows the complete scorecard regardless of output capture.  Oracles here
avoid the library internals: counting is done by direct enumeration,
nerves by the cell enumeration of ``tests/cover_reference.py``, and codes
by explicit string arithmetic.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import conftest
import cover_reference as ref

from effdim import (
    BUILTIN_COMPRESSORS,
    BoundSeq,
    BranchCode,
    FiniteCover,
    InverseSystem,
    MengerDescriptor,
    PointCloud,
    RationalPoint,
    SymbolicCarrier,
    assouad_exponent,
    ball,
    box_dimension,
    branching_tree,
    cantor_carrier,
    cantor_descriptor,
    carpet_descriptor,
    co_compressible_check,
    complement_distance,
    decode_point,
    encode_point,
    extrema_combinatorics,
    generic_point_stream,
    interval_carrier,
    kappa_map,
    nerve_of,
    open_set,
    orbit_analyze,
    precision_complexity,
    prefixfree_transform,
    scale_counts,
    sponge_descriptor,
    tent_map,
)

F = Fraction


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


def test_criterion_01_extrema_counts():
    t0 = time.monotonic()
    exact = {1: 20, 2: 192}
    ok = all(extrema_combinatorics(n)[0] == v for n, v in exact.items())
    mismatches = []
    for n in range(5):
        count = extrema_combinatorics(n)[0]
        brute = sum(
            1
            for t in itertools.product((0, 1, 2), repeat=2 * n + 1)
            if sum(1 for d in t if d == 1) <= n
        )
        if count != brute:
            mismatches.append((n, count, brute))
    elapsed = time.monotonic() - t0
    ok = ok and not mismatches and elapsed < 1.0
    _report(
        1,
        ok,
        f"m(1)=20, m(2)=192, enumeration agrees for n<=4, {elapsed:.2f}s"
        + (f"; mismatches {mismatches}" if mismatches else ""),
    )


def test_criterion_02_box_dimensions():
    t0 = time.monotonic()
    cases = [
        ("cantor", cantor_descriptor(), range(1, 9), math.log(2) / math.log(3), 1e-9),
        ("carpet", carpet_descriptor(), range(1, 7), math.log(8) / math.log(3), 1e-6),
        ("sponge", sponge_descriptor(), range(1, 5), math.log(20) / math.log(3), 1e-6),
    ]
    errors = []
    parts = []
    for name, desc, depths, target, tol in cases:
        counts = scale_counts(desc, [desc.scale(k) for k in depths])
        est = box_dimension(counts)
        worst = max(abs(v - target) for v in (est.lower, est.upper, est.lsq))
        parts.append(f"{name} {est.lsq:.9f}")
        if worst >= tol:
            errors.append((name, worst))
    elapsed = time.monotonic() - t0
    ok = not errors and elapsed < 5.0
    _report(2, ok, ", ".join(parts) + f", {elapsed:.2f}s" + (f"; off {errors}" if errors else ""))


def test_criterion_03_assouad_depth_grading():
    const = MengerDescriptor(3, 1, BoundSeq.constant(3))
    graded = MengerDescriptor(3, 1, BoundSeq.affine(3))
    step = F(1, 64)
    const_vals = []
    graded_vals = []
    for depth in range(2, 7):
        const_vals.append(
            assouad_exponent(const, [1], [const.scale(depth)], s_step=step, c_max=1)
        )
        graded_vals.append(
            assouad_exponent(graded, [1], [graded.scale(depth)], s_step=step, c_max=1)
        )
    smaller = all(g < c for g, c in zip(graded_vals, const_vals))
    decreasing = all(a > b for a, b in zip(graded_vals, graded_vals[1:]))
    ok = smaller and decreasing
    _report(
        3,
        ok,
        "constant "
        + ", ".join(str(v) for v in const_vals)
        + " vs graded "
        + ", ".join(str(v) for v in graded_vals),
    )


def test_criterion_04_prefix_free_codes():
    t0 = time.monotonic()
    machine = prefixfree_transform(BUILTIN_COMPRESSORS["identity"]())
    codes = []
    length_ok = True
    for n in range(11):
        overhead = 2 * math.ceil(math.log2(n + 1)) + 2
        for bits in itertools.product("01", repeat=n):
            sigma = "".join(bits)
            code = machine.code_for_input(sigma)
            codes.append(code)
            if len(code) != n + overhead:
                length_ok = False
    codes.sort()
    prefix_ok = not any(b.startswith(a) for a, b in zip(codes, codes[1:]))
    kraft = sum(F(1, 2 ** len(c)) for c in codes)
    elapsed = time.monotonic() - t0
    ok = length_ok and prefix_ok and kraft <= 1 and elapsed < 2.0
    _report(
        4,
        ok,
        f"{len(codes)} codes, lengths exact, prefix-free, Kraft {kraft}, {elapsed:.2f}s",
    )


def _random_planar_cover(rng: random.Random) -> FiniteCover:
    count = rng.randrange(3, 7)
    centers = []
    members = []
    for _ in range(count):
        c = (F(rng.randrange(0, 65), 64), F(rng.randrange(0, 65), 64))
        r = F(rng.randrange(8, 32), 64)
        centers.append(c)
        members.append(open_set(ball(c, r)))
    return FiniteCover(tuple(members), PointCloud(2, tuple(centers)))


def _clip01(v: Fraction) -> Fraction:
    return min(max(v, F(0)), F(1))


def test_criterion_05_kappa_invariants():
    pairs = 0
    failures = 0
    for c in range(100):
        rng = random.Random(11000 + c)
        U = _random_planar_cover(rng)
        count = len(U.members)
        verts = tuple(
            RationalPoint((F(i, count), F(i * i, count * count))) for i in range(count)
        )
        for _ in range(100):
            j = rng.randrange(count)
            b = U.members[j].balls[0]
            x = tuple(
                _clip01(cc + b.radius * F(rng.randrange(-15, 16), 16))
                for cc in b.center.coords
            )
            pairs += 1
            weights = [complement_distance(x, m) for m in U.members]
            total = sum(weights)
            good = (
                total > 0
                and all(isinstance(w, Fraction) and w >= 0 for w in weights)
                and sum(w / total for w in weights) == 1
                and all((w > 0) == m.contains(x) for w, m in zip(weights, U.members))
                and weights[j] > 0
            )
            if good:
                expected = tuple(
                    sum(w * v.coords[a] for w, v in zip(weights, verts)) / total
                    for a in range(2)
                )
                good = kappa_map(x, U, verts).coords == expected
            failures += 0 if good else 1
    ok = failures == 0 and pairs == 10_000
    _report(5, ok, f"{pairs} cover/point pairs, {failures} failures")


def test_criterion_06_branch_coding_round_trip():
    t0 = time.monotonic()
    tent = tent_map()
    system = InverseSystem.constant(tent)
    rng = random.Random(424242)
    bad = 0
    for _ in range(1000):
        den = rng.randrange(1, 400)
        x0 = F(rng.randrange(0, den + 1), den)
        # independent walk: tent preimages of y are y/2 and 1 - y/2
        word = []
        expected = [x0]
        current = x0
        for _ in range(20):
            options = [current / 2] if current == 1 else [current / 2, 1 - current / 2]
            branch = rng.randrange(len(options))
            word.append(branch)
            current = options[branch]
            expected.append(current)
        code = BranchCode(x0, tuple(word), frozenset())
        traj = decode_point(system, code)
        back = encode_point(system, traj)
        if (
            list(traj) != expected
            or back.x0 != x0
            or back.word != tuple(word)
        ):
            bad += 1
    third = orbit_analyze(tent, F(2, 7))
    half = orbit_analyze(tent, F(1, 2))
    orbit_ok = (
        third.kind == "Preperiodic"
        and (third.tail, third.period) == (0, 3)
        and half.kind == "Preperiodic"
        and (half.tail, half.period) == (2, 1)
    )
    dyadic_bad = sum(
        1
        for k in range(2**10 + 1)
        if orbit_analyze(tent, F(k, 2**10)).kind != "Preperiodic"
    )
    elapsed = time.monotonic() - t0
    ok = bad == 0 and orbit_ok and dyadic_bad == 0 and elapsed < 10.0
    _report(
        6,
        ok,
        f"1000 round trips ({bad} bad), 2/7 and 1/2 orbits as stated, "
        f"{dyadic_bad} non-preperiodic dyadics, {elapsed:.2f}s",
    )


def test_criterion_07_full_binary_tree():
    system = InverseSystem.constant(tent_map())
    tree = branching_tree(system, F(3, 16), 10)
    ok = tree.is_full_binary() and tree.leaf_count() == 2**10
    _report(7, ok, f"depth 10 tree: {tree.leaf_count()} leaves, full binary {tree.is_full_binary()}")


def _zero_run_code_bits(n: int) -> int:
    # Run-length code of 0^n: the first bit, then n - 1 in 7-bit chunks,
    # each chunk led by a continuation bit.
    return 1 + 8 * max(1, math.ceil(F((n - 1).bit_length(), 7)))


def test_criterion_08_co_compressibility_windows():
    M = BUILTIN_COMPRESSORS["runlength"]()
    g = lambda k: 2 ** (k + 4)
    s = F(1, 10)
    bits = "0" * g(9)
    flags = co_compressible_check(bits, M, g, s, 8)
    format_ok = all(
        len(M.encode("0" * n)) == _zero_run_code_bits(n) for n in (1, 128, 129, 8191)
    )
    # Naive window scan: every n of window k, no floor-based skipping.
    oracle = [
        any(_zero_run_code_bits(n) + k < s * n for n in range(g(k), g(k + 1)))
        for k in range(9)
    ]
    # 9 bits is the shortest nonempty run-length code, and windows 0 and 1
    # stay out of its reach: 9 >= 31/10 and 9 + 1 >= 63/10.
    early_out_of_reach = all(
        9 + k >= s * n for k in (0, 1) for n in range(g(k), g(k + 1))
    )
    later_hit = all(flags[2:])
    zero_flags = co_compressible_check(bits, M, g, 0, 8)
    zero_ok = not any(zero_flags)
    grid = [F(i, 8) for i in range(1, 9)]
    rows = [co_compressible_check(bits, M, g, t, 8) for t in grid]
    monotone = all(
        all(a <= b for a, b in zip(lo, hi)) for lo, hi in zip(rows, rows[1:])
    )
    ok = (
        format_ok
        and flags == oracle
        and early_out_of_reach
        and later_hit
        and zero_ok
        and monotone
    )
    first = oracle.index(True) if any(oracle) else None
    _report(
        8,
        ok,
        f"s=1/10 flags {flags} vs oracle {oracle}, first window reached k={first}; "
        f"code lengths as formula {format_ok}; s=0 all False {zero_ok}; "
        f"monotone on 8-grid {monotone}",
    )


def _random_symbolic_cover(carrier, rng: random.Random) -> FiniteCover:
    parent_level = min(carrier.depth, 2) if carrier.depth > 0 else 0
    parents = carrier.cells_at(parent_level)
    pwidth = carrier.width_at(parent_level)
    count = min(rng.randrange(4, 13), len(parents) + 2)
    groups = [[] for _ in range(count)]
    for b in parents:
        groups[rng.randrange(count)].append(b)
    members = []
    for g in groups:
        balls = [
            ball(tuple((lo + hi) / 2 for lo, hi in b.bounds), pwidth)
            for b in g
        ]
        if not balls:
            center = tuple(
                F(rng.randrange(0, 9), 8) for _ in range(carrier.dim)
            )
            balls = [ball(center, pwidth / 2)]
        members.append(open_set(*balls))
    return FiniteCover(tuple(members), carrier)


def test_criterion_09_nerve_against_sampling():
    carriers = [
        interval_carrier(3),
        cantor_carrier(3),
        SymbolicCarrier(carpet_descriptor(), 3),
    ]
    checked = 0
    mismatched = 0
    for ci, carrier in enumerate(carriers):
        for trial in range(3):
            rng = random.Random(900 + 10 * ci + trial)
            U = _random_symbolic_cover(carrier, rng)
            assert len(U.members) <= 12
            checked += 1
            if nerve_of(U).faces != ref.nerve_faces(ref.sets_of(U.members), ref.carrier_of(carrier)):
                mismatched += 1
    ok = checked == 9 and mismatched == 0
    _report(9, ok, f"{checked} random covers on depth-3 carriers, {mismatched} nerve mismatches")


def test_criterion_10_generic_point_complexity():
    stream = generic_point_stream([0, 19] * 100, 1)
    M = BUILTIN_COMPRESSORS["dictionary"]()
    worst = F(0)
    for r in range(50, 181):
        worst = max(worst, F(precision_complexity(stream, r, M), r))
    ok = worst < F(3, 2)
    _report(10, ok, f"worst C/r over [50,180] is {worst} ~ {float(worst):.4f} < 3/2")
