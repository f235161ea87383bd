"""The table-built CLI parser against a verbatim copy of the hand-wired one.

``_build_parser`` and ``run`` below are the code that wired all sixteen
subparsers by hand and built them on every call.  Rebound to the globals
of ``effdim.cli`` (and to its old module docstring, the ``--help``
description), they are the reference.  The top-level and per-subcommand
help, the stdout, stderr and exit code of every help, usage and
parse-error case, and the parsed namespace of one valid argv per
subcommand must be the same from ``effdim.cli``.  ``run()`` on a known
subcommand must build exactly one subparser on its first call in a
process and none after that, and a reused parser must give every valid
argv the same outcome as a fresh one.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import types

import pytest

import effdim.cli as cli

REFERENCE_DOC = """Command-line surface: one subcommand per library entry point.

All exact values print as "p/q" strings; floating summaries are marked
with a ~ prefix and 12 significant digits.  Output is deterministic for
fixed inputs.  Exit codes: 0 success, 1 unknown subcommand, 2 violated
precondition, 3 malformed input.
"""


# --- the reference: verbatim, its names resolved in REFERENCE below -------


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


REFERENCE = dict(vars(cli), __doc__=REFERENCE_DOC)


def _rebind(fn):
    return types.FunctionType(fn.__code__, REFERENCE, fn.__name__, fn.__defaults__)


REFERENCE["_build_parser"] = reference_parser = _rebind(_build_parser)
reference_run = _rebind(run)

NAMES = tuple(cli._COMMANDS)
CASES = [["--help"], ["-h"], [], ["frobnicate"], ["frobnicate", "--help"], ["--bogus"]] + [
    [name, *extra] for name in NAMES for extra in ([], ["--help"], ["--bogus"])
]
VALID = {
    "menger-check": ["--x", "1/3,2/3", "--n", "1", "--z", "affine:1"],
    "noebeling-check": ["--coords", "1/2,irr", "--n", "1"],
    "generic-point": ["--n", "1", "--len", "5", "--seed", "3"],
    "boxdim": ["--set", "carpet", "--depths", "1..3"],
    "assouad": ["--m", "1", "--n", "1", "--R", "1/3", "--r", "1/27", "--c-max", "2", "--step", "1/8"],
    "kdim": ["--x", "1/2", "--r", "1,2", "--compressor", "identity"],
    "cocompress": ["--prefix", "0101", "--g", "2,4,8", "--k-max", "1", "--s-grid", "0,1/2"],
    "pf-transform": ["--input", "0110", "--kraft-bound", "3"],
    "orbit": ["--map", "five", "--x0", "1/3", "--budget", "50", "--tol", "1/8", "--max-period", "2"],
    "il-encode": ["--map-file", "map.json", "--trajectory", "1/2,1/4"],
    "il-decode": ["--x0", "1/2", "--word", "0,1"],
    "il-tree": ["--map", "five", "--x0", "1/2", "--depth", "2"],
    "kappa": ["--in", "cover.json", "--x", "1/2", "--vertices", "0;1"],
    "refine": ["--in", "cover.json", "--target-mult", "1", "--mesh", "1/2"],
    "condense-sample": [
        "--lo", "0", "--hi", "1", "--t", "1/2", "--xs", "0,1/2", "--anchors", "8",
        "--fiber", "1", "--stages", "2", "--q", "1/4",
    ],
    "chain-spec": ["--g", "2,3", "--kappa", "1,1", "--stages", "2"],
}


def _subparsers(parser: argparse.ArgumentParser) -> dict:
    (action,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _actions(parser: argparse.ArgumentParser) -> list:
    """Each action's class and fields, without the group that holds it."""
    return [
        (type(a), {k: v for k, v in vars(a).items() if k != "container"}) for a in parser._actions
    ]


def _outcome(runner, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = runner(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_top_level_help_and_usage():
    new, old = cli._build_parser(), reference_parser()
    assert new.format_help() == old.format_help()
    assert new.format_usage() == old.format_usage()
    assert tuple(_subparsers(old)) == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_subcommand_help_and_usage(name):
    old = _subparsers(reference_parser())[name]
    for new in (_subparsers(cli._build_parser())[name], _subparsers(cli._build_parser(name))[name]):
        assert new.format_help() == old.format_help()
        assert new.format_usage() == old.format_usage()
        # defaults and types too, which the help text does not show
        assert _actions(new) == _actions(old)


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_help_usage_and_parse_errors(argv):
    assert _outcome(cli.run, argv) == _outcome(reference_run, argv)


def test_every_subcommand_has_a_valid_argv():
    assert sorted(VALID) == sorted(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_parsed_namespace(name):
    argv = [name, *VALID[name]]
    assert vars(cli._build_parser(name).parse_args(argv)) == vars(reference_parser().parse_args(argv))


def _counting_builds(monkeypatch) -> list:
    """The names of the subparsers built from now on, in order."""
    calls = []
    add_parser = argparse._SubParsersAction.add_parser

    def counting(self, name, **kwargs):
        calls.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    return calls


@pytest.mark.parametrize(
    "argv, built",
    [
        (["chain-spec", "--g", "2,3", "--stages", "1"], 1),
        (["orbit"], 1),
        (["il-tree", "--help"], 1),
        (["--help"], len(NAMES)),
        ([], len(NAMES)),
        (["frobnicate"], len(NAMES)),
    ],
)
def test_run_builds_only_the_called_subparser(monkeypatch, argv, built):
    # as in a fresh process: no subcommand's parser is cached yet
    cli._command_parser.cache_clear()
    calls = _counting_builds(monkeypatch)
    _outcome(cli.run, argv)
    assert len(calls) == built
    assert built > 1 or calls == argv[:1]


@pytest.mark.parametrize(
    "argv, built",
    [
        (["chain-spec", "--g", "2,3", "--stages", "1"], 0),
        (["il-tree", "--help"], 0),
        (["frobnicate"], len(NAMES)),
    ],
)
def test_a_second_run_reuses_the_subparser(monkeypatch, argv, built):
    """The called subcommand's parser is built once per process; the full one every time."""
    cli._command_parser.cache_clear()
    _outcome(cli.run, argv)
    calls = _counting_builds(monkeypatch)
    _outcome(cli.run, argv)
    assert len(calls) == built


SITUATIONS = ("first", "after a parse failure", "after --help", "twice in a row")


@pytest.mark.parametrize("situation", SITUATIONS)
@pytest.mark.parametrize("name", NAMES)
def test_no_state_leaks_through_a_cached_parser(tmp_path, monkeypatch, name, situation):
    # the input files VALID names, so that their handlers run too
    monkeypatch.chdir(tmp_path)
    (tmp_path / "map.json").write_text(json.dumps({"vertices": [["0", "0"], ["1/2", "1"], ["1", "0"]]}))
    cover = {
        "carrier": {"kind": "interval", "depth": 2},
        "members": [[{"center": ["1/4"], "radius": "1/2"}], [{"center": ["3/4"], "radius": "1/2"}]],
    }
    (tmp_path / "cover.json").write_text(json.dumps(cover))
    argv = [name, *VALID[name]]
    cli._command_parser.cache_clear()
    expected = _outcome(cli.run, argv)
    cli._command_parser.cache_clear()
    earlier = {
        "first": [],
        "after a parse failure": [([name, "--bogus"], 3)],
        "after --help": [([name, "--help"], 0)],
        "twice in a row": [(argv, expected[0])],
    }[situation]
    for earlier_argv, code in earlier:
        assert _outcome(cli.run, earlier_argv)[0] == code
    assert _outcome(cli.run, argv) == expected
    # the checked run reused the parser the earlier run built
    assert cli._command_parser.cache_info().hits == len(earlier)
    parsed = cli._command_parser(name).parse_args(argv)
    assert vars(parsed) == vars(reference_parser().parse_args(argv))
