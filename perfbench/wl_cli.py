"""cli: the ``effdim`` command line, one subcommand call after another.

The mix covers all sixteen subcommands, three ``generic-point`` -> ``kdim
--in`` pipelines in every twenty jobs, cover JSON files -> ``kappa`` and
``refine``, and ``orbit`` on the tent and five-segment maps.  It is the
only workload where ``cli``, ``algorithmic_dim``, ``dimension_estimators``,
``fractal_spaces`` and ``condensation_geometry`` do the work.

Each call runs in this process through ``effdim.cli.run(argv)``, with its
stdout and exit code captured.  Run as ``python -m effdim.cli``
subprocesses, as users do, the same jobs took 0.2-0.5 s each, almost all
interpreter start and package import, and on a shared 2-vCPU virtual
machine their p90 moved by up to 24% of its median between runs, with no
in-process calibration able to follow the child's core.  So the
per-process cost is measured apart, in traced runs, as
``cli.interpreter_s`` (bare ``python -c pass``) and ``cli.import_s``
(``import effdim.cli`` minus bare), from real subprocesses.  Set-up builds
the two fixed maps' cycle tables, which every ``orbit --map five`` process
would otherwise rebuild (``inverse_limits.warmup_s``).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import effdim
import effdim.cli
import plref

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".bench_out" / "cli-inputs"
CALL_TIMEOUT_S = 120

# Most calls take 5-60 ms and a two-call pipeline ~70 ms; three pipelines
# in twenty, with the slow single calls, make up the tail above p90.
SCHEDULE = (
    "boxdim", "il-decode", "kappa", "kdim", "pipeline",
    "menger-check", "orbit", "refine", "assouad", "il-tree",
    "pipeline", "cocompress", "noebeling-check", "il-encode", "condense-sample",
    "pf-transform", "kappa", "chain-spec", "generic-point", "pipeline",
)
# orbit alternates between the tent and five-segment maps per cycle.
DIGEST_JOBS = 2 * len(SCHEDULE)

# Keys each subcommand's JSON output must hold.
EXPECTED_KEYS = {
    "boxdim": {"rows", "~slope_lower", "~slope_upper"},
    "assouad": {"exponent", "~exponent"},
    "menger-check": {"status", "level"},
    "noebeling-check": {"status", "level"},
    "generic-point": {"rows", "word", "depth", "block_count"},
    "kdim": {"values", "~dim_lower", "~dim_upper"},
    "cocompress": {"results"},
    "pf-transform": {"payload", "code", "length", "decodes_to"},
    "orbit": {"kind", "steps"},
    "il-encode": {"x0", "word", "ex_time"},
    "il-decode": {"trajectory"},
    "il-tree": {"leaf_count", "full_binary", "arity_profile"},
    "kappa": {"image"},
    "refine": {"members", "parents", "multiplicity", "mesh"},
    "condense-sample": {"dim", "points"},
    "chain-spec": {"stages", "glue"},
}
SPANS = tuple(f"cli.{name}" for name in EXPECTED_KEYS)


@dataclass(frozen=True)
class Job:
    calls: tuple[tuple[str, ...], ...]
    # the first call's stdout is written here before the second call runs
    pipe_to: str | None = None
    expect: dict = field(default_factory=dict)


@dataclass
class State:
    warmup_s: float


def setup() -> State:
    WORKDIR.mkdir(parents=True, exist_ok=True)
    # refine would read a step budget from the environment
    os.environ.pop("EFFDIM_STEP_BUDGET", None)
    start = time.perf_counter()
    for f in (effdim.tent_map(), effdim.five_segment_map()):
        effdim.orbit_analyze(f, Fraction(1, 3))
    return State(time.perf_counter() - start)


def _median_wall(argv: list[str], reps: int = 5) -> float:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, check=True, timeout=CALL_TIMEOUT_S)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def trace_extras(state: State) -> dict[str, float]:
    bare = _median_wall([sys.executable, "-c", "pass"])
    imported = _median_wall([sys.executable, "-c", "import effdim.cli"])
    return {"cli.interpreter_s": bare, "cli.import_s": imported - bare, "inverse_limits.warmup_s": state.warmup_s}


def _q(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _rational(rng: random.Random, max_den: int) -> Fraction:
    den = rng.randrange(1, max_den + 1)
    return Fraction(rng.randrange(0, den + 1), den)


def _bits(rng: random.Random, n: int) -> str:
    # runs of equal bits, so the compressors have something to find
    out = ""
    while len(out) < n:
        out += rng.choice("01") * rng.randrange(1, 9)
    return out[:n]


def _tent_walk(rng: random.Random, x0: Fraction, depth: int):
    word, walk = [], [x0]
    for _ in range(depth):
        options = plref.tent_options(walk[-1])
        k = rng.randrange(len(options))
        word.append(k)
        walk.append(options[k])
    return word, walk


def _write_cover(rng: random.Random, i: int) -> str:
    """Three balls over the depth-2 interval, radius 1/4 to 1/3, jitter 1/64.

    Every ball holds its closed third of [0,1], so the file is a cover, and
    the balls are wide enough that refine finds a family at width 1/9.
    """
    members = []
    for j in range(3):
        centre = Fraction(2 * j + 1, 6) + Fraction(rng.randrange(-1, 2), 64)
        radius = Fraction(rng.randrange(17, 22), 64)
        members.append([{"center": [_q(centre)], "radius": _q(radius)}])
    path = WORKDIR / f"cover-{i % len(SCHEDULE)}.json"
    path.write_text(json.dumps({"carrier": {"kind": "interval", "depth": 2}, "members": members}))
    return str(path)


def make_job(state: State, seed: int, i: int) -> Job:
    rng = random.Random(f"cli:{seed}:{i}")
    kind = SCHEDULE[i % len(SCHEDULE)]
    if kind == "boxdim":
        args = ("--set", rng.choice(("cantor", "carpet", "sponge")), "--depths", f"1..{rng.randrange(3, 7)}")
    elif kind == "assouad":
        args = ("--set", rng.choice(("cantor", "carpet")), "--R", "1", "--r", _q(Fraction(1, 3 ** rng.randrange(4, 7))),
                "--step", "1/64", "--c-max", "1")
    elif kind == "menger-check":
        coords = ",".join(_q(_rational(rng, 81)) for _ in range(rng.randrange(1, 4)))
        args = ("--x", coords, "--n", str(rng.randrange(0, 2)))
    elif kind == "noebeling-check":
        tokens = [rng.choice(("irr", "unk", _q(_rational(rng, 50)))) for _ in range(rng.randrange(1, 5))]
        args = ("--coords", ",".join(tokens), "--n", str(rng.randrange(0, 3)))
    elif kind == "generic-point":
        args = ("--n", "1", "--len", str(rng.randrange(20, 41)), "--seed", str(rng.randrange(1000)))
    elif kind == "kdim":
        coords = ",".join(_q(_rational(rng, 100)) for _ in range(rng.randrange(1, 3)))
        args = ("--x", coords, "--r", rng.choice(("16,32", "16,32,64", "24,48")),
                "--compressor", rng.choice(("dictionary", "runlength", "identity")))
    elif kind == "pipeline":
        path = str(WORKDIR / f"stream-{i % len(SCHEDULE)}.json")
        # kdim at r = 32 needs more than 20 ternary digits
        first = ("generic-point", "--n", "1", "--len", str(rng.randrange(24, 41)), "--seed", str(rng.randrange(1000)))
        second = ("kdim", "--in", path, "--r", "16,32", "--compressor", "dictionary")
        return Job((first, second), pipe_to=path)
    elif kind == "cocompress":
        args = ("--prefix", _bits(rng, rng.randrange(40, 65)), "--g", "4,8,16,32", "--k-max", "2",
                "--s", rng.choice(("1/2", "3/4", "1/4")))
    elif kind == "pf-transform":
        args = ("--input", _bits(rng, rng.randrange(3, 25)), "--compressor",
                rng.choice(("identity", "runlength", "dictionary")), "--kraft-bound", str(rng.randrange(3, 7)))
    elif kind == "orbit":
        name = ("tent", "five")[(i // len(SCHEDULE)) % 2]
        args = ("--map", name, "--x0", _q(_rational(rng, 1000)))
    elif kind == "il-encode":
        word, walk = _tent_walk(rng, _rational(rng, 400), rng.randrange(4, 13))
        args = ("--map", "tent", "--trajectory", ",".join(_q(x) for x in walk))
        return Job((("il-encode",) + args,), expect={"word": word})
    elif kind == "il-decode":
        name = rng.choice(("tent", "five"))
        x0 = _rational(rng, 400)
        if name == "tent":
            word, walk = _tent_walk(rng, x0, rng.randrange(4, 13))
        else:
            word, walk = [], [x0]
            for _ in range(rng.randrange(4, 9)):
                options = plref.preimages(plref.FIVE, walk[-1])
                word.append(rng.randrange(len(options)))
                walk.append(options[word[-1]])
        args = ("--map", name, "--x0", _q(x0), "--word", ",".join(map(str, word)))
        return Job((("il-decode",) + args,), expect={"trajectory": [_q(x) for x in walk]})
    elif kind == "il-tree":
        x0, depth = _rational(rng, 400), rng.randrange(6, 11)
        args = ("--map", "tent", "--x0", _q(x0), "--depth", str(depth))
        level = [x0]
        for _ in range(depth):
            level = [p for y in level for p in plref.tent_options(y)]
        return Job((("il-tree",) + args,), expect={"leaf_count": len(level)})
    elif kind == "kappa":
        args = ("--in", _write_cover(rng, i), "--x", _q(_rational(rng, 64)))
    elif kind == "refine":
        target, mesh = 2, rng.choice((Fraction(1, 3), Fraction(1, 2)))
        args = ("--in", _write_cover(rng, i), "--target-mult", str(target), "--mesh", _q(mesh))
        return Job((("refine",) + args,), expect={"multiplicity": target, "mesh": mesh})
    elif kind == "condense-sample":
        t = rng.choice((Fraction(0), Fraction(1, 2), Fraction(1, 3)))
        # the path parameter 1/|x - t| must stay within the 15 anchor segments
        xs = [x for x in (_rational(rng, 32) for _ in range(12)) if abs(x - t) >= Fraction(1, 15)][:6]
        args = ("--t", _q(t), "--xs", ",".join(map(_q, xs)), "--anchors", "16", "--fiber", str(rng.randrange(0, 3)))
    else:  # chain-spec
        g = sorted(rng.sample(range(1, 10), rng.randrange(2, 5)))
        args = ("--g", ",".join(map(str, g)), "--stages", str(len(g)))
    return Job(((kind,) + args,))


@dataclass
class Call:
    argv: tuple[str, ...]
    returncode: int
    stdout: str
    stderr: str


def run_job(state: State, job: Job, span) -> list[Call]:
    calls = []
    for argv in job.calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with span(f"cli.{argv[0]}"):
                code = effdim.cli.run(list(argv))
        calls.append(Call(argv, code, out.getvalue(), err.getvalue()))
        if job.pipe_to is not None and len(calls) == 1:
            Path(job.pipe_to).write_text(out.getvalue())
    return calls


def check(job: Job, out: list[Call], span) -> str | None:
    for call in out:
        name = call.argv[0]
        if call.returncode != 0:
            return f"{name} exited {call.returncode}: {call.stderr.strip()[-200:]}"
        try:
            data = json.loads(call.stdout)
        except json.JSONDecodeError:
            return f"{name} printed no JSON"
        missing = EXPECTED_KEYS[name] - set(data)
        if missing:
            return f"{name} output lacks {sorted(missing)}"
        expect = job.expect
        if name == "il-decode" and data["trajectory"] != expect["trajectory"]:
            return "il-decode trajectory differs from the reference walk"
        if name == "il-encode" and data["word"] != expect["word"]:
            return "il-encode word differs from the drawn word"
        if name == "il-tree" and data["leaf_count"] != expect["leaf_count"]:
            return "il-tree leaf count differs from the reference count"
        if name == "refine" and (
            data["multiplicity"] > expect["multiplicity"] or Fraction(data["mesh"]) > expect["mesh"]
        ):
            return "refine result misses its multiplicity or mesh target"
        if name == "pf-transform" and data["decodes_to"] != call.argv[call.argv.index("--input") + 1]:
            return "pf-transform code does not decode to its input"
    return None


def canonical(job: Job, out: list[Call]):
    return [call.stdout for call in out]


def count(job: Job, out: list[Call], tally) -> None:
    for call in out:
        tally.n["cli_calls"] += 1
        tally.n["cli_nonzero"] += call.returncode != 0
