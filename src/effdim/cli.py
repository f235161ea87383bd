"""Command-line surface: one subcommand per library entry point.

All exact values print as "p/q" strings; floating summaries are marked
with a ~ prefix and 12 significant digits.  Output is deterministic for
fixed inputs.  Exit codes: 0 success, 1 unknown subcommand, 2 violated
precondition, 3 malformed input.

Each subcommand is one ``_COMMANDS`` entry, and ``run()`` builds only the
called one's parser.  (This paragraph stays out of ``--help``.)
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


# Deepest depth `boxdim --depths` takes.  Depth k costs k-term running
# products (about 4k bits of int per term on the sponge), and 1..1024 on
# the sponge runs in about 0.2 s.
_DEPTH_CAP = 1024


def _depth_range(text: str) -> list[int]:
    """A range a..b or a comma list of depths, each in [0, _DEPTH_CAP].

    A range is checked at its two ends, before it is built.
    """
    ranged = ".." in text
    ends = [int(v) for v in text.split("..", 1)] if ranged else _ints(text)
    for k in ends:
        _require(k >= 0, f"depth {k} is negative")
        if k > _DEPTH_CAP:
            raise PreconditionError(f"depth {k} is past the cap of {_DEPTH_CAP}")
    return list(range(ends[0], ends[1] + 1)) if ranged else ends


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
# carpet at depth 4 (8^4), the interval has 2187 at depth 7.  Building the
# cells (_symbolic_cells) and shrink_cover's margin still visit every one, and
# the count grows geometrically with depth.
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
    # each level has 2 or more columns: bit_length(cap) levels pass the cap
    shallow = min(depth, _CARRIER_CELL_CAP.bit_length())
    if carrier.descriptor.cells_at_depth(shallow) > _CARRIER_CELL_CAP:
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
    if args.map_file:
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
    ratios = [Fraction(cs[r], r) for r in rs]
    values = [{"r": r, "C": cs[r], "~ratio": float12(float(q))} for r, q in zip(rs, ratios)]
    lo, hi = float(min(ratios)), float(max(ratios))
    _emit({"values": values, "~dim_lower": float12(lo), "~dim_upper": float12(hi)})


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
    grid = _fractions(args.s_grid) if args.s_grid is not None else [rat(args.s)]
    _require(bool(grid), "--s-grid names no value")
    results = []
    for s in grid:
        flags = alg.co_compressible_check(bits, M, g, s, args.k_max)
        results.append({"s": fmt(s), "flags": flags})
    _emit({"results": results})


# Longest payload `pf-transform --kraft-bound` takes.  The partial Kraft
# sum runs the image test on all 2^(n+1) - 1 bit strings up to length n,
# so each unit doubles the work; 16 takes 0.2-0.7 s, by compressor.
_KRAFT_CAP = 16


def _cmd_pf_transform(args) -> None:
    bound = args.kraft_bound
    if bound is not None:
        _require(bound >= 0, f"--kraft-bound {bound} is negative")
        if bound > _KRAFT_CAP:
            raise PreconditionError(f"--kraft-bound {bound} is past the cap of {_KRAFT_CAP}")
    machine = alg.prefixfree_transform(_compressor(args.compressor))
    code = machine.code_for_input(args.input)
    out = {
        "payload": machine.base.encode(args.input),
        "code": code,
        "length": len(code),
        "decodes_to": machine.decode(code),
    }
    if bound is not None:
        out["kraft_partial"] = fmt(machine.kraft_sum(bound))
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


# --- subcommand table ------------------------------------------------------

_COMPRESSORS = sorted(alg.BUILTIN_COMPRESSORS)
_IL_MAP = (("--map", dict(default="tent")), ("--map-file", dict(dest="map_file")))

# name -> (help, handler, add_argument calls as (flag, keywords) pairs)
_COMMANDS = {
    "menger-check": ("digit-stream or rational-point membership", _cmd_menger_check, (
        ("--x", dict(help="comma-separated rational coordinates")),
        ("--in", dict(dest="infile", help="digit-stream JSON file")),
        ("--n", dict(type=int, required=True)),
        ("--z", dict(default="3", help="base rule: Z | affine:K | table:a,b[:tail]")),
    )),
    "noebeling-check": ("rationality-pattern membership", _cmd_noebeling_check, (
        ("--coords", dict(required=True, help="tokens: p/q, irr, unk")),
        ("--n", dict(type=int, required=True)),
    )),
    "generic-point": ("digit stream driven by an extrema-block word", _cmd_generic_point, (
        ("--n", dict(type=int, required=True)),
        ("--word", dict(help="comma-separated block indices")),
        ("--len", dict(dest="length", type=int)),
        ("--seed", dict(type=int, default=0)),
    )),
    "boxdim": ("box-counting estimate", _cmd_boxdim, (
        ("--set", dict(dest="set_name", choices=sorted(_NAMED_DESCRIPTORS))),
        ("--depths", dict(default="1..6", help="range a..b or comma list")),
        ("--in", dict(dest="infile", help="cloud JSON/CSV file")),
        ("--scales", dict(help="comma-separated rational scales (cloud input)")),
    )),
    "assouad": ("grid search for the Assouad exponent", _cmd_assouad, (
        ("--set", dict(dest="set_name", choices=sorted(_NAMED_DESCRIPTORS))),
        ("--m", dict(type=int)),
        ("--n", dict(type=int)),
        ("--z", dict(default="3")),
        ("--R", dict(dest="big", required=True, help="comma-separated outer scales")),
        ("--r", dict(dest="small", required=True, help="comma-separated inner scales")),
        ("--c-max", dict(default="4")),
        ("--step", dict(default="1/64")),
    )),
    "kdim": ("precision complexity and Schnorr bounds", _cmd_kdim, (
        ("--x", dict(help="comma-separated rational coordinates")),
        ("--in", dict(dest="infile", help="digit-stream JSON file")),
        ("--r", dict(required=True, help="comma-separated precisions")),
        ("--compressor", dict(default="dictionary", choices=_COMPRESSORS)),
    )),
    "cocompress": ("computably-often compressibility windows", _cmd_cocompress, (
        ("--prefix", dict(help="bit string")),
        ("--in", dict(dest="infile", help='JSON file {"bits": "..."}')),
        ("--compressor", dict(default="runlength", choices=_COMPRESSORS)),
        ("--g", dict(required=True, help="comma-separated window marks g(0..k_max+1)")),
        ("--k-max", dict(dest="k_max", type=int, required=True)),
        ("--s", dict()),
        ("--s-grid", dict(dest="s_grid")),
    )),
    "pf-transform": ("self-delimiting code of a compressed input", _cmd_pf_transform, (
        ("--compressor", dict(default="identity", choices=_COMPRESSORS)),
        ("--input", dict(required=True, help="bit string")),
        ("--kraft-bound", dict(dest="kraft_bound", type=int)),
    )),
    "orbit": ("orbit classification for an interval map", _cmd_orbit, (
        ("--map", dict(default="tent", help="tent or five")),
        ("--map-file", dict(dest="map_file", help="JSON vertex list")),
        ("--x0", dict(required=True)),
        ("--budget", dict(type=int, default=10_000)),
        ("--tol", dict(default=Fraction(1, 2**40))),
        ("--max-period", dict(dest="max_period", type=int, default=8)),
    )),
    "il-encode": ("inverse-limit coding", _cmd_il_encode, _IL_MAP + (
        ("--trajectory", dict(required=True, help="comma-separated rationals")),
    )),
    "il-decode": ("inverse-limit coding", _cmd_il_decode, _IL_MAP + (
        ("--x0", dict(required=True)),
        ("--word", dict(required=True, help="comma-separated branch indices")),
    )),
    "il-tree": ("inverse-limit coding", _cmd_il_tree, _IL_MAP + (
        ("--x0", dict(required=True)),
        ("--depth", dict(type=int, required=True)),
    )),
    "kappa": ("Kuratowski map of a point through a cover", _cmd_kappa, (
        ("--in", dict(dest="infile", required=True, help="cover JSON file")),
        ("--x", dict(required=True)),
        ("--vertices", dict(help="semicolon-separated points")),
    )),
    "refine": ("low-multiplicity refinement search", _cmd_refine, (
        ("--in", dict(dest="infile", required=True, help="cover JSON file")),
        ("--target-mult", dict(dest="target_mult", type=int, required=True)),
        ("--mesh", dict(required=True)),
    )),
    "condense-sample": ("singular-graph point clouds", _cmd_condense_sample, (
        ("--lo", dict(default="0")),
        ("--hi", dict(default="1")),
        ("--t", dict()),
        ("--xs", dict(required=True, help="comma-separated samples")),
        ("--anchors", dict(type=int, default=16)),
        ("--fiber", dict(type=int, default=0)),
        ("--stages", dict(type=int)),
        ("--q", dict(help="comma-separated queue points")),
    )),
    "chain-spec": ("chain-of-links combinatorial descriptor", _cmd_chain_spec, (
        ("--g", dict(required=True, help="comma-separated link sizes")),
        ("--kappa", dict(help="comma-separated link counts")),
        ("--stages", dict(type=int, required=True)),
    )),
}


def _build_parser(*names: str) -> _Parser:
    """The effdim parser with the named subcommands, or with all of them."""
    parser = _Parser(prog="effdim", description=__doc__.rsplit("\n\n", 1)[0])
    sub = parser.add_subparsers(dest="command")
    for name in names or _COMMANDS:
        help_text, func, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flag, keywords in arguments:
            p.add_argument(flag, **keywords)
        p.set_defaults(func=func)
    return parser


def run(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if not argv or argv[0] not in _COMMANDS:
        parser = _build_parser()
        if argv and argv[0] in ("-h", "--help"):
            parser.print_help()
            return 0
        parser.print_usage(sys.stderr)
        return 1
    try:
        args = _build_parser(argv[0]).parse_args(argv)
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
