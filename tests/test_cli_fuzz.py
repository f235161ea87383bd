"""Fuzz of the CLI's file readers: malformed input exits 2 or 3, never crashes.

Hypothesis draws JSON documents of random shape (lists, objects, floats,
zero denominators, bools, nulls) and valid documents with one value
replaced by such a shape or one key removed, for every subcommand that
reads ``--in`` or ``--map-file``, plus random CSV text for ``boxdim``,
random ``kappa --x`` strings, and random ``orbit --x0``/``--tol``
strings.  Every run must exit 0, 2 or 3, and any error must be one
``effdim:`` line; ``kappa`` exits 0 exactly for a point of the unit box
with the cover's dimension, and ``orbit`` exactly for a start point in
[0, 1] and any rational tolerance.  Documents nest at
most two levels below a replaced value, and integers stay in [-1, 2],
so depths and dimensions stay at most 2 and each run stays cheap.  The
list, bit-string and size flags of nine subcommands (``--depths``,
``--r``, ``--g``, ``--xs``, ``--word``, ``--prefix``, ``--input``,
``--kraft-bound``, ``--fiber``, ``--n``) get random token strings under
the same checks, with ints past the lowered depth, link, Kraft and block
caps, which must exit 2; a negative ``--kraft-bound`` exits 3, and a
``--fiber`` count exits 0 exactly when it lies in [0, 16], the anchor
count.
"""

import copy
import json
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import effdim.cli as cli
import effdim.condensation_geometry as cond
import effdim.fractal_spaces as fs
from effdim.cli import run

KEYS = (
    "bits", "base_rule", "carrier", "center", "depth", "dim", "kind", "m", "members", "meta",
    "n", "offset", "points", "radius", "rows", "tail", "values", "vertices", "z",
)
STRINGS = (
    "", "0", "1", "-1", "1/2", "1/0", "abc", "0101", "constant", "affine", "table",
    "cloud", "interval", "cantor", "menger",
)
scalars = (
    st.none()
    | st.booleans()
    | st.integers(-1, 2)
    | st.floats(-2, 2)
    | st.sampled_from(STRINGS)
)


def _nest(children):
    return (
        scalars
        | st.lists(children, max_size=3)
        | st.dictionaries(st.sampled_from(KEYS), children, max_size=3)
    )


values = _nest(_nest(scalars))

STREAM = {"base_rule": {"kind": "constant", "z": 3}, "depth": 2, "rows": ["01", "20"]}
CLOUD = {"dim": 1, "points": [["0"], ["1/2"], ["1"]]}
BITS = {"bits": "0101"}
MAP = {"vertices": [["0", "0"], ["1/2", "1"], ["1", "0"]]}
COVER = {
    "carrier": {"kind": "interval", "depth": 1},
    "members": [
        [{"center": ["1/4"], "radius": "5/16"}],
        [{"center": ["3/4"], "radius": "5/16"}],
    ],
}
# the flags before the file path, and a valid document for that path
COMMANDS = {
    "menger-check": (("--n", "1", "--in"), STREAM),
    "kdim": (("--r", "2,4", "--in"), STREAM),
    "boxdim": (("--scales", "1/2,1/4", "--in"), CLOUD),
    "cocompress": (("--g", "2,4,8", "--k-max", "1", "--s", "1/2", "--in"), BITS),
    "orbit": (("--x0", "1/3", "--budget", "50", "--max-period", "2", "--map-file"), MAP),
    "il-encode": (("--trajectory", "1/2,1/4", "--map-file"), MAP),
    "il-decode": (("--x0", "1/2", "--word", "0,1", "--map-file"), MAP),
    "il-tree": (("--x0", "1/2", "--depth", "2", "--map-file"), MAP),
    "kappa": (("--x", "1/2", "--in"), COVER),
    "refine": (("--target-mult", "1", "--mesh", "1/2", "--in"), COVER),
}


def _paths(doc, prefix=()):
    """Every key path into the document, the root included."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, child in items:
        yield from _paths(child, prefix + (key,))


@st.composite
def documents(draw, template):
    if draw(st.booleans()):
        return draw(values)
    doc = copy.deepcopy(template)
    *head, last = draw(st.sampled_from(list(_paths(template))[1:]))
    parent = doc
    for key in head:
        parent = parent[key]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[last]
    else:
        parent[last] = draw(values)
    return doc


def _check(capsys, argv):
    code = run(list(argv))
    err = capsys.readouterr().err
    assert code in (0, 2, 3), err
    assert "Traceback" not in err
    if code:
        assert err.startswith("effdim: ") and err.count("\n") == 1, err
    return code


FUZZ = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@pytest.mark.parametrize("name", sorted(COMMANDS))
@FUZZ
@given(data=st.data())
def test_json_input_exits_cleanly(capsys, tmp_path, name, data):
    flags, template = COMMANDS[name]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data.draw(documents(template))))
    _check(capsys, (name, *flags, str(path)))


@FUZZ
@given(rows=st.lists(st.lists(st.sampled_from(STRINGS + ("0.5", " ")), max_size=3), max_size=3))
def test_csv_cloud_exits_cleanly(capsys, tmp_path, rows):
    path = tmp_path / "cloud.csv"
    path.write_text("".join(",".join(row) + "\n" for row in rows))
    _check(capsys, ("boxdim", "--scales", "1/2,1/4", "--in", str(path)))


# covers of the whole unit box in one and two dimensions, each member
# leaving some of it uncovered, so every point of the box has an image
BOX_COVERS = {
    1: COVER,
    2: {
        "carrier": {"kind": "cloud", "dim": 2, "points": [["1/2", "1/2"]]},
        "members": [
            [{"center": [x, y], "radius": "5/16"} for x, y in pair]
            for pair in ((("1/4", "1/4"), ("3/4", "3/4")), (("1/4", "3/4"),), (("3/4", "1/4"),))
        ],
    },
}
coordinates = (
    st.fractions(0, 1, max_denominator=16).map(str)
    | st.fractions(-2, 2, max_denominator=16).map(str)
    | st.floats(allow_nan=True, allow_infinity=True).map(repr)
    | st.sampled_from(("", " ", "1/0", "-1/0", "abc", "1//2", "0x1", " 1/3 "))
)


def _rational(text: str) -> Fraction | None:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        return None


def _unit_point(text: str, dim: int) -> bool:
    """Does text name a point of [0,1]^dim, empty fields skipped?"""
    point = [_rational(f) for f in text.split(",") if f != ""]
    return len(point) == dim and all(c is not None and 0 <= c <= 1 for c in point)


@pytest.mark.parametrize("dim", sorted(BOX_COVERS))
@FUZZ
@given(fields=st.lists(coordinates, max_size=4))
def test_kappa_point_exits_cleanly(capsys, tmp_path, dim, fields):
    path = tmp_path / "cover.json"
    path.write_text(json.dumps(BOX_COVERS[dim]))
    text = ",".join(fields)
    code = _check(capsys, ("kappa", "--in", str(path), f"--x={text}"))
    assert (code == 0) == _unit_point(text, dim), text


numbers = (
    st.fractions(-2, 2, max_denominator=64).map(str)
    | st.floats(allow_nan=True, allow_infinity=True).map(repr)
    | st.sampled_from(("0", "-0", "-1/3", "1/0", "0/0", "", " ", "abc", "1//2", "2**-40", " 1/7 "))
)


@pytest.mark.parametrize("name", ["tent", "five"])
@FUZZ
@given(x0=numbers, tol=numbers)
def test_orbit_arguments_exit_cleanly(capsys, name, x0, tol):
    argv = ("orbit", "--map", name, f"--x0={x0}", f"--tol={tol}", "--budget", "50", "--max-period", "3")
    code = _check(capsys, argv)
    start = _rational(x0)
    assert (code == 0) == (start is not None and 0 <= start <= 1 and _rational(tol) is not None)


def test_orbit_zero_tol_is_unknown(capsys):
    assert run(["orbit", "--map", "five", "--x0", "1/3", "--tol", "0", "--budget", "50"]) == 0
    assert json.loads(capsys.readouterr().out) == {"kind": "Unknown", "steps": 50}


# Argument strings: up to four tokens, each an int in [-2, 40] or a
# malformed token, joined by any of the CLI's separators, and for the
# capped flags also well-formed int lists and ranges, which reach the caps
# far more often.  The depth, link, Kraft and block caps are lowered to 12
# depths, 2^8 links, a bound of 8 and n = 2, so the ints run past them and
# those runs must exit 2 at once; under the caps each run stays cheap.
DEPTH_CAP, LINK_CAP, KRAFT_CAP, BLOCK_CAP = 12, 2**8, 8, 2
ints = st.integers(-2, 40)
tokens = ints.map(str) | st.sampled_from(("", "a", "1/2", "1/0", "-"))
separators = st.sampled_from((",", "..", ":", ";"))


@st.composite
def token_lists(draw):
    first, *rest = draw(st.lists(tokens, min_size=1, max_size=4))
    return first + "".join(draw(separators) + t for t in rest)


int_lists = st.lists(ints, min_size=1, max_size=4).map(lambda v: ",".join(map(str, v)))
int_ranges = st.tuples(ints, ints).map(lambda ab: f"{ab[0]}..{ab[1]}")
bit_strings = st.text(alphabet="01x", max_size=12)
# each argv with {} where the fuzzed string goes, and its strategy
ARGUMENTS = {
    "boxdim --depths": (("boxdim", "--set", "carpet", "--depths={}"), token_lists() | int_lists | int_ranges),
    "kdim --r": (("kdim", "--x", "1/3", "--r={}"), token_lists()),
    "assouad --r": (("assouad", "--set", "cantor", "--R", "1/3", "--r={}"), token_lists()),
    "cocompress --g": (
        ("cocompress", "--prefix", "0101", "--g={}", "--k-max", "1", "--s", "1/2"),
        token_lists(),
    ),
    "cocompress --prefix": (
        ("cocompress", "--prefix={}", "--g", "2,4,8", "--k-max", "1", "--s", "1/2"),
        bit_strings,
    ),
    "chain-spec --g": (("chain-spec", "--g={}", "--stages", "2"), token_lists() | int_lists | int_ranges),
    "condense-sample --xs": (("condense-sample", "--t", "1/2", "--xs={}"), token_lists()),
    "condense-sample --fiber": (
        ("condense-sample", "--t", "1/2", "--xs", "1/4", "--anchors", "16", "--fiber={}"),
        tokens,
    ),
    "generic-point --n": (("generic-point", "--len", "3", "--n={}"), tokens),
    "generic-point --word": (("generic-point", "--n", "1", "--word={}"), token_lists()),
    "il-decode --word": (("il-decode", "--x0", "1/2", "--word={}"), token_lists()),
    "pf-transform --input": (("pf-transform", "--input={}"), bit_strings),
    "pf-transform --kraft-bound": (("pf-transform", "--input", "0110", "--kraft-bound={}"), tokens),
}


def _int_list(parts) -> list[int] | None:
    try:
        return [int(v) for v in parts]
    except ValueError:
        return None


def _past_cap(name: str, text: str) -> bool:
    """Does the fuzzed string pass a cap while meeting every earlier check?"""
    if name == "boxdim --depths":
        # both ends of a range are checked, or every depth of a list
        ends = _int_list(text.split("..", 1) if ".." in text else [v for v in text.split(",") if v])
        return bool(ends) and min(ends) >= 0 and max(ends) > DEPTH_CAP
    if name == "chain-spec --g":
        sizes = _int_list([v for v in text.split(",") if v])
        return sizes is not None and len(sizes) >= 2 and 0 <= sizes[0] < sizes[1] and (
            2 ** sizes[0] + 2 ** sizes[1] > LINK_CAP
        )
    if name == "pf-transform --kraft-bound":
        bound = _int_list([text])
        return bound is not None and bound[0] > KRAFT_CAP
    if name == "generic-point --n":
        n = _int_list([text])
        return n is not None and n[0] > BLOCK_CAP
    return False


@pytest.mark.parametrize("name", sorted(ARGUMENTS))
@FUZZ
@given(data=st.data())
def test_argument_strings_exit_cleanly(capsys, monkeypatch, name, data):
    monkeypatch.setattr(cli, "_DEPTH_CAP", DEPTH_CAP)
    monkeypatch.setattr(cond, "_LINK_CAP", LINK_CAP)
    monkeypatch.setattr(cli, "_KRAFT_CAP", KRAFT_CAP)
    monkeypatch.setattr(fs, "_BLOCK_CAP", BLOCK_CAP)
    template, values = ARGUMENTS[name]
    text = data.draw(values)
    code = _check(capsys, [arg.format(text) for arg in template])
    if _past_cap(name, text):
        assert code == 2, text
    if name == "pf-transform --kraft-bound" and text.startswith("-"):
        # a negative bound, or a token that is no int at all
        assert code == 3, text
    if name == "condense-sample --fiber" and _int_list([text]) is not None:
        # the path has 16 anchors, so 0 to 16 fiber points can be taken
        assert (code == 0) == (0 <= int(text) <= 16), text
