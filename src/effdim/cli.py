"""Command-line surface: one subcommand per library entry point.

All exact values print as "p/q" strings; floating summaries are marked
with a ~ prefix and 12 significant digits.  Output is deterministic for
fixed inputs.  Exit codes: 0 success, 1 unknown subcommand, 2 violated
precondition, 3 malformed input.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
from fractions import Fraction

from . import algorithmic_dim as alg
from . import condensation_geometry as cond
from . import covers_nerve as cov
from . import dimension_estimators as dim
from . import fractal_spaces as fs
from . import inverse_limits as il
from ._rat import float12, fmt, parse_point, rat
from .ball_calculus import PreconditionError, RationalPoint

class _ParseFailure(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _ParseFailure(message)


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2))


# --- input parsing ---------------------------------------------------------


def _ints(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v != ""]


def _fractions(text: str) -> list[Fraction]:
    return [rat(v) for v in text.split(",") if v != ""]


def _depth_range(text: str) -> list[int]:
    if ".." in text:
        a, b = text.split("..", 1)
        return list(range(int(a), int(b) + 1))
    return _ints(text)


def _zspec(text: str) -> fs.BoundSeq:
    if text.startswith("affine:"):
        return fs.BoundSeq.affine(int(text.split(":", 1)[1]))
    if text.startswith("table:"):
        parts = text.split(":")
        values = _ints(parts[1])
        tail = int(parts[2]) if len(parts) > 2 else 3
        return fs.BoundSeq.from_table(values, tail)
    return fs.BoundSeq.constant(int(text))


def _expect(value, kind: type, what: str):
    """The value when it has the JSON type kind, else ValueError."""
    if not isinstance(value, kind):
        name = {dict: "object", list: "array", str: "string"}[kind]
        raise ValueError(f"{what} must be a JSON {name}")
    return value


def _int(value, what: str) -> int:
    """A JSON integer or integer string as int, else ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"{what} must be an integer")
    return int(value)


def _zspec_json(rule) -> fs.BoundSeq:
    rule = _expect(rule, dict, "base_rule")
    kind = rule.get("kind", "constant")
    if kind == "constant":
        return fs.BoundSeq.constant(_int(rule["z"], "z"))
    if kind == "affine":
        return fs.BoundSeq.affine(_int(rule["offset"], "offset"))
    if kind == "table":
        values = [_int(v, "a table value") for v in _expect(rule["values"], list, "values")]
        return fs.BoundSeq.from_table(values, _int(rule.get("tail", 3), "tail"))
    raise ValueError(f"unknown base rule kind: {kind}")


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return _expect(json.load(fh), dict, "the top level")


def _read_stream(path: str) -> fs.DigitMatrix:
    data = _load_json(path)
    z = _zspec_json(data.get("base_rule", {"kind": "constant", "z": 3}))
    rows = []
    for row in _expect(data["rows"], list, "rows"):
        digits = row if isinstance(row, str) else _expect(row, list, "a row")
        rows.append(tuple(_int(d, "a digit") for d in digits))
    depth = data.get("depth")
    if depth is not None and any(len(r) != _int(depth, "depth") for r in rows):
        raise ValueError("row lengths disagree with the declared depth")
    return fs.DigitMatrix(tuple(rows), z)


def _json_cloud(data: dict, meta: str = "") -> dim.PointCloud:
    rows = _expect(data["points"], list, "points")
    points = tuple(tuple(rat(v) for v in _expect(row, list, "a point")) for row in rows)
    return dim.PointCloud(_int(data["dim"], "dim"), points, meta)


def _read_cloud(path: str) -> dim.PointCloud:
    if path.endswith(".csv"):
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            _require(header is not None, "the CSV file has no header row")
            points = [tuple(rat(v) for v in row) for row in reader if row]
        return dim.PointCloud(len(header), tuple(points))
    data = _load_json(path)
    return _json_cloud(data, _expect(data.get("meta", ""), str, "meta"))


def _cloud_json(cloud: dim.PointCloud) -> dict:
    out = {
        "dim": cloud.dim,
        "points": [[fmt(c) for c in p] for p in cloud.points],
    }
    if cloud.meta:
        out["meta"] = cloud.meta
    return out


_NAMED_DESCRIPTORS = {
    "cantor": dim.cantor_descriptor,
    "carpet": dim.carpet_descriptor,
    "sponge": dim.sponge_descriptor,
}


# Most grid cells a cover file's symbolic carrier may hold: 4096 is the
# carpet at depth 4 (8^4), the interval has 2187 at depth 7.  Cover
# operations scan every cell, and the count grows geometrically with depth.
_CARRIER_CELL_CAP = 4096


def _read_carrier(data):
    data = _expect(data, dict, "carrier")
    kind = data["kind"]
    if kind == "cloud":
        return _json_cloud(data)
    depth = _int(data.get("depth", 0), "depth")
    if kind == "interval":
        carrier = cov.interval_carrier(depth)
    elif kind == "cantor":
        carrier = cov.cantor_carrier(depth)
    elif kind == "menger":
        z = _zspec_json(data.get("base_rule", {"kind": "constant", "z": 3}))
        desc = dim.MengerDescriptor(_int(data["m"], "m"), _int(data["n"], "n"), z)
        carrier = cov.SymbolicCarrier(desc, depth)
    else:
        raise ValueError(f"unknown carrier kind: {kind}")
    # every level has at least 2 admissible columns, so this stops within
    # log2 of the cap levels however deep the file says the carrier is
    cells = 1
    for j in range(depth):
        cells *= carrier.descriptor.level_cell_count(j)
        if cells > _CARRIER_CELL_CAP:
            raise PreconditionError(f"carrier has more than {_CARRIER_CELL_CAP} cells")
    return carrier


def _read_cover(path: str) -> cov.FiniteCover:
    data = _load_json(path)
    carrier = _read_carrier(data["carrier"])
    members = []
    for balls in _expect(data["members"], list, "members"):
        member = []
        for b in _expect(balls, list, "a member"):
            b = _expect(b, dict, "a ball")
            member.append(cov.ball(_expect(b["center"], list, "center"), b["radius"]))
        members.append(cov.OpenSet(tuple(member)))
    return cov.FiniteCover(tuple(members), carrier)


def _cover_json(U: cov.FiniteCover) -> dict:
    out = {
        "members": [
            [
                {"center": [fmt(c) for c in b.center.coords], "radius": fmt(b.radius)}
                for b in m.balls
            ]
            for m in U.members
        ]
    }
    if U.parents is not None:
        out["parents"] = list(U.parents)
    return out


def _read_map(args) -> il.PLMap:
    if getattr(args, "map_file", None):
        verts = []
        for v in _expect(_load_json(args.map_file)["vertices"], list, "vertices"):
            _require(isinstance(v, list) and len(v) == 2, "a vertex must be a list [x, y]")
            verts.append((rat(v[0]), rat(v[1])))
        return il.PLMap(tuple(verts))
    name = args.map
    if name == "tent":
        return il.tent_map()
    if name == "five":
        return il.five_segment_map()
    raise ValueError(f"unknown map name: {name}")


def _compressor(name: str) -> alg.Compressor:
    try:
        return alg.BUILTIN_COMPRESSORS[name]()
    except KeyError:
        raise ValueError(f"unknown compressor: {name}") from None


def _verdict_json(v: fs.MembershipVerdict) -> dict:
    return {"status": v.status, "level": v.level}


# --- subcommand handlers ---------------------------------------------------


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _cmd_menger_check(args) -> None:
    n = args.n
    _require(bool(args.infile) or bool(args.x), "provide --x or --in")
    if args.infile:
        _emit(_verdict_json(fs.menger_membership(_read_stream(args.infile), n)))
        return
    z = _zspec(args.z)
    coords = tuple(_fractions(args.x))
    _emit(_verdict_json(fs.menger_membership(coords, n, z)))


def _cmd_noebeling_check(args) -> None:
    coords = []
    for token in args.coords.split(","):
        token = token.strip()
        if token == "irr":
            coords.append(fs.Coord.irrational())
        elif token == "unk":
            coords.append(fs.Coord.unknown())
        else:
            coords.append(fs.Coord.rational(rat(token)))
    _emit(_verdict_json(fs.noebeling_membership(coords, args.n)))


def _cmd_generic_point(args) -> None:
    count, blocks = fs.extrema_combinatorics(args.n)
    if args.word:
        word = _ints(args.word)
        if args.length is not None and len(word) != args.length:
            raise ValueError("--len disagrees with the explicit word")
    else:
        if args.length is None:
            raise ValueError("provide --word or --len")
        rng = random.Random(args.seed)
        word = [rng.randrange(count) for _ in range(args.length)]
    matrix = fs.generic_point_stream(word, args.n)
    _emit(
        {
            "base_rule": {"kind": "constant", "z": 3},
            "depth": matrix.depth,
            "rows": ["".join(str(d) for d in row) for row in matrix.rows],
            "word": list(word),
            "block_count": count,
        }
    )


def _cmd_boxdim(args) -> None:
    _require(bool(args.set_name) or bool(args.infile), "provide --set or --in")
    _require(not args.infile or bool(args.scales), "cloud input needs --scales")
    if args.set_name:
        desc = _NAMED_DESCRIPTORS[args.set_name]()
        depths = _depth_range(args.depths)
        scales = [desc.scale(k) for k in depths]
        counts = dim.scale_counts(desc, scales)
    else:
        cloud = _read_cloud(args.infile)
        counts = dim.scale_counts(cloud, _fractions(args.scales))
    est = dim.box_dimension(counts)
    _emit(dim.estimate_report(counts, est))


def _cmd_assouad(args) -> None:
    _require(
        bool(args.set_name) or (args.m is not None and args.n is not None),
        "provide --set or both --m and --n",
    )
    desc = (
        _NAMED_DESCRIPTORS[args.set_name]()
        if args.set_name
        else dim.MengerDescriptor(args.m, args.n, _zspec(args.z))
    )
    R_list = _fractions(args.big)
    r_list = _fractions(args.small)
    s = dim.assouad_exponent(
        desc, R_list, r_list, s_step=rat(args.step), c_max=rat(args.c_max)
    )
    _emit({"exponent": fmt(s), "~exponent": float12(float(s))})


def _cmd_kdim(args) -> None:
    _require(bool(args.infile) or bool(args.x), "provide --x or --in")
    M = _compressor(args.compressor)
    x = _read_stream(args.infile) if args.infile else tuple(_fractions(args.x))
    rs = _ints(args.r)
    cs = alg.precision_complexities(x, M, rs)
    ratios = [cs[r] / r for r in rs]
    values = [{"r": r, "C": cs[r], "~ratio": float12(q)} for r, q in zip(rs, ratios)]
    _emit({"values": values, "~dim_lower": float12(min(ratios)), "~dim_upper": float12(max(ratios))})


def _read_bits(args) -> str:
    if args.infile:
        return _expect(_load_json(args.infile)["bits"], str, "bits")
    return args.prefix


def _cmd_cocompress(args) -> None:
    _require(args.prefix is not None or bool(args.infile), "provide --prefix or --in")
    _require(args.s is not None or args.s_grid is not None, "provide --s or --s-grid")
    M = _compressor(args.compressor)
    bits = _read_bits(args)
    marks = _ints(args.g)
    g = lambda k: marks[k]
    if args.k_max > len(marks) - 2:
        raise ValueError("need g values up to k_max + 1")
    grid = _fractions(args.s_grid) if args.s_grid else [rat(args.s)]
    results = []
    for s in grid:
        flags = alg.co_compressible_check(bits, M, g, s, args.k_max)
        results.append({"s": fmt(s), "flags": flags})
    _emit({"results": results})


def _cmd_pf_transform(args) -> None:
    machine = alg.prefixfree_transform(_compressor(args.compressor))
    code = machine.code_for_input(args.input)
    out = {
        "payload": machine.base.encode(args.input),
        "code": code,
        "length": len(code),
        "decodes_to": machine.decode(code),
    }
    if args.kraft_bound is not None:
        out["kraft_partial"] = fmt(machine.kraft_sum(args.kraft_bound))
    _emit(out)


def _cmd_orbit(args) -> None:
    f = _read_map(args)
    report = il.orbit_analyze(
        f,
        rat(args.x0),
        budget=args.budget,
        tol=rat(args.tol),
        max_cycle_period=args.max_period,
    )
    _emit(report.to_json())


def _cmd_il_encode(args) -> None:
    system = il.InverseSystem.constant(_read_map(args))
    code = il.encode_point(system, _fractions(args.trajectory))
    _emit(code.to_json())


def _cmd_il_decode(args) -> None:
    system = il.InverseSystem.constant(_read_map(args))
    code = il.BranchCode(rat(args.x0), tuple(_ints(args.word)), frozenset())
    traj = il.decode_point(system, code)
    _emit({"trajectory": [fmt(x) for x in traj]})


def _cmd_il_tree(args) -> None:
    system = il.InverseSystem.constant(_read_map(args))
    tree = il.branching_tree(system, rat(args.x0), args.depth)
    profile = tree.arity_profile()
    _emit(
        {
            "leaf_count": tree.leaf_count(),
            "full_binary": tree.is_full_binary(),
            "arity_profile": {str(k): v for k, v in sorted(profile.items())},
        }
    )


def _cmd_kappa(args) -> None:
    U = _read_cover(args.infile)
    x = tuple(_fractions(args.x))
    if args.vertices:
        vertices = [
            RationalPoint(tuple(parse_point(tok))) for tok in args.vertices.split(";")
        ]
    else:
        vertices = [m.balls[0].center for m in U.members]
    image = cov.kappa_map(x, U, vertices)
    _emit({"image": [fmt(c) for c in image.coords]})


def _cmd_refine(args) -> None:
    U = _read_cover(args.infile)
    refined = cov.refine_cover(U, args.target_mult, rat(args.mesh))
    out = _cover_json(refined)
    out["multiplicity"] = cov.cover_multiplicity(refined)
    out["mesh"] = fmt(cov.cover_mesh(refined))
    _emit(out)


def _cmd_condense_sample(args) -> None:
    path = cond.dyadic_path(args.anchors)
    xs = _fractions(args.xs)
    if args.stages is not None:
        _require(args.q is not None, "--stages needs --q")
        cloud = cond.iterate_S(
            (rat(args.lo), rat(args.hi)), path, _fractions(args.q), args.stages, xs
        )
    else:
        _require(args.t is not None, "provide --t (or --stages with --q)")
        cloud = cond.sample_S(
            (rat(args.lo), rat(args.hi)), path, rat(args.t), xs, fiber_points=args.fiber
        )
    _emit(_cloud_json(cloud))


def _cmd_chain_spec(args) -> None:
    kappa_vals = _ints(args.kappa) if args.kappa else None
    spec = cond.chain_descriptor(_ints(args.g), kappa_vals, args.stages)
    _emit(spec.to_json())


# --- parser wiring ---------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="effdim", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("menger-check", help="digit-stream or rational-point membership")
    p.add_argument("--x", help="comma-separated rational coordinates")
    p.add_argument("--in", dest="infile", help="digit-stream JSON file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--z", default="3", help="base rule: Z | affine:K | table:a,b[:tail]")
    p.set_defaults(func=_cmd_menger_check)

    p = sub.add_parser("noebeling-check", help="rationality-pattern membership")
    p.add_argument("--coords", required=True, help="tokens: p/q, irr, unk")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_noebeling_check)

    p = sub.add_parser("generic-point", help="digit stream driven by an extrema-block word")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--word", help="comma-separated block indices")
    p.add_argument("--len", dest="length", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_generic_point)

    p = sub.add_parser("boxdim", help="box-counting estimate")
    p.add_argument("--set", dest="set_name", choices=sorted(_NAMED_DESCRIPTORS))
    p.add_argument("--depths", default="1..6", help="range a..b or comma list")
    p.add_argument("--in", dest="infile", help="cloud JSON/CSV file")
    p.add_argument("--scales", help="comma-separated rational scales (cloud input)")
    p.set_defaults(func=_cmd_boxdim)

    p = sub.add_parser("assouad", help="grid search for the Assouad exponent")
    p.add_argument("--set", dest="set_name", choices=sorted(_NAMED_DESCRIPTORS))
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--z", default="3")
    p.add_argument("--R", dest="big", required=True, help="comma-separated outer scales")
    p.add_argument("--r", dest="small", required=True, help="comma-separated inner scales")
    p.add_argument("--c-max", default="4")
    p.add_argument("--step", default="1/64")
    p.set_defaults(func=_cmd_assouad)

    p = sub.add_parser("kdim", help="precision complexity and Schnorr bounds")
    p.add_argument("--x", help="comma-separated rational coordinates")
    p.add_argument("--in", dest="infile", help="digit-stream JSON file")
    p.add_argument("--r", required=True, help="comma-separated precisions")
    p.add_argument("--compressor", default="dictionary", choices=sorted(alg.BUILTIN_COMPRESSORS))
    p.set_defaults(func=_cmd_kdim)

    p = sub.add_parser("cocompress", help="computably-often compressibility windows")
    p.add_argument("--prefix", help="bit string")
    p.add_argument("--in", dest="infile", help='JSON file {"bits": "..."}')
    p.add_argument("--compressor", default="runlength", choices=sorted(alg.BUILTIN_COMPRESSORS))
    p.add_argument("--g", required=True, help="comma-separated window marks g(0..k_max+1)")
    p.add_argument("--k-max", dest="k_max", type=int, required=True)
    p.add_argument("--s")
    p.add_argument("--s-grid", dest="s_grid")
    p.set_defaults(func=_cmd_cocompress)

    p = sub.add_parser("pf-transform", help="self-delimiting code of a compressed input")
    p.add_argument("--compressor", default="identity", choices=sorted(alg.BUILTIN_COMPRESSORS))
    p.add_argument("--input", required=True, help="bit string")
    p.add_argument("--kraft-bound", dest="kraft_bound", type=int)
    p.set_defaults(func=_cmd_pf_transform)

    p = sub.add_parser("orbit", help="orbit classification for an interval map")
    p.add_argument("--map", default="tent", help="tent or five")
    p.add_argument("--map-file", dest="map_file", help="JSON vertex list")
    p.add_argument("--x0", required=True)
    p.add_argument("--budget", type=int, default=10_000)
    p.add_argument("--tol", default=Fraction(1, 2**40))
    p.add_argument("--max-period", dest="max_period", type=int, default=8)
    p.set_defaults(func=_cmd_orbit)

    for name, fn in (
        ("il-encode", _cmd_il_encode),
        ("il-decode", _cmd_il_decode),
        ("il-tree", _cmd_il_tree),
    ):
        p = sub.add_parser(name, help="inverse-limit coding")
        p.add_argument("--map", default="tent")
        p.add_argument("--map-file", dest="map_file")
        if name == "il-encode":
            p.add_argument("--trajectory", required=True, help="comma-separated rationals")
        else:
            p.add_argument("--x0", required=True)
        if name == "il-decode":
            p.add_argument("--word", required=True, help="comma-separated branch indices")
        if name == "il-tree":
            p.add_argument("--depth", type=int, required=True)
        p.set_defaults(func=fn)

    p = sub.add_parser("kappa", help="Kuratowski map of a point through a cover")
    p.add_argument("--in", dest="infile", required=True, help="cover JSON file")
    p.add_argument("--x", required=True)
    p.add_argument("--vertices", help="semicolon-separated points")
    p.set_defaults(func=_cmd_kappa)

    p = sub.add_parser("refine", help="low-multiplicity refinement search")
    p.add_argument("--in", dest="infile", required=True, help="cover JSON file")
    p.add_argument("--target-mult", dest="target_mult", type=int, required=True)
    p.add_argument("--mesh", required=True)
    p.set_defaults(func=_cmd_refine)

    p = sub.add_parser("condense-sample", help="singular-graph point clouds")
    p.add_argument("--lo", default="0")
    p.add_argument("--hi", default="1")
    p.add_argument("--t")
    p.add_argument("--xs", required=True, help="comma-separated samples")
    p.add_argument("--anchors", type=int, default=16)
    p.add_argument("--fiber", type=int, default=0)
    p.add_argument("--stages", type=int)
    p.add_argument("--q", help="comma-separated queue points")
    p.set_defaults(func=_cmd_condense_sample)

    p = sub.add_parser("chain-spec", help="chain-of-links combinatorial descriptor")
    p.add_argument("--g", required=True, help="comma-separated link sizes")
    p.add_argument("--kappa", help="comma-separated link counts")
    p.add_argument("--stages", type=int, required=True)
    p.set_defaults(func=_cmd_chain_spec)

    parser.commands = tuple(sub.choices)
    return parser


def run(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    if argv and argv[0] in ("-h", "--help"):
        parser.print_help()
        return 0
    if not argv or argv[0] not in parser.commands:
        parser.print_usage(sys.stderr)
        return 1
    try:
        args = parser.parse_args(argv)
    except _ParseFailure as exc:
        print(f"effdim: {exc}", file=sys.stderr)
        return 3
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.func(args)
    except PreconditionError as exc:
        print(f"effdim: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"effdim: {exc}", file=sys.stderr)
        return 3
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
