"""End-to-end tests for the command-line surface.

Commands run in process through run(); one subprocess check confirms the
module is launchable on its own.
"""

import json
import os
import re
import subprocess
import sys
import time

import pytest

import effdim
import effdim.cli as cli
import effdim.condensation_geometry as cond
import effdim.dimension_estimators as dim
import effdim.inverse_limits as il
from effdim.cli import _build_parser, run

# the subcommand names as the top-level usage line lists them
SUBCOMMANDS = tuple(re.search(r"\{(.*?)\}", _build_parser().format_usage()).group(1).split(","))

COVER1 = {
    "carrier": {"kind": "interval", "depth": 2},
    "members": [
        [{"center": ["1/4"], "radius": "5/16"}],
        [{"center": ["3/4"], "radius": "5/16"}],
    ],
}


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def invoke_json(capsys, *argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


@pytest.fixture
def cover_file(tmp_path):
    path = tmp_path / "cover1.json"
    path.write_text(json.dumps(COVER1))
    return str(path)


class TestDispatch:
    def test_help(self, capsys):
        code, out, _ = invoke(capsys, "--help")
        assert code == 0
        assert "usage:" in out

    def test_unknown_subcommand(self, capsys):
        code, _, err = invoke(capsys, "frobnicate")
        assert code == 1
        assert "usage:" in err

    def test_no_arguments(self, capsys):
        code, _, err = invoke(capsys)
        assert code == 1
        assert "usage:" in err

    def test_missing_required_flag(self, capsys):
        code, _, err = invoke(capsys, "orbit")
        assert code == 3
        assert "effdim:" in err

    def test_precondition_maps_to_two(self, capsys):
        code, _, err = invoke(capsys, "orbit", "--x0", "3/2")
        assert code == 2
        assert "effdim:" in err

    def test_missing_file_maps_to_three(self, capsys):
        code, _, err = invoke(capsys, "kappa", "--in", "/nonexistent.json", "--x", "1/2")
        assert code == 3

    def test_sixteen_subcommands(self):
        assert len(SUBCOMMANDS) == 16

    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_subcommand_help(self, capsys, name):
        code, out, _ = invoke(capsys, name, "--help")
        assert code == 0
        assert f"usage: effdim {name}" in out

    def test_subprocess_entry(self):
        # the child finds effdim where this process found it, however that was
        src = os.path.dirname(os.path.dirname(effdim.__file__))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "from effdim.cli import main; main()",
                "il-tree",
                "--map",
                "tent",
                "--x0",
                "1/2",
                "--depth",
                "2",
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["leaf_count"] == 4


class TestMembershipCommands:
    def test_point_in_cantor_dust(self, capsys):
        data = invoke_json(capsys, "menger-check", "--x", "1/3", "--n", "0")
        assert data["status"] == "In"

    def test_point_out_of_cantor_dust(self, capsys):
        data = invoke_json(capsys, "menger-check", "--x", "1/2", "--n", "0")
        assert data == {"status": "Out", "level": 0}

    def test_stream_input(self, capsys, tmp_path):
        path = tmp_path / "stream.json"
        path.write_text(json.dumps({"rows": ["010"]}))
        data = invoke_json(capsys, "menger-check", "--in", str(path), "--n", "0")
        assert data == {"status": "Out", "level": 1}

    def test_menger_needs_an_input(self, capsys):
        code, _, err = invoke(capsys, "menger-check", "--n", "0")
        assert code == 3
        assert "provide --x or --in" in err

    def test_noebeling_statuses(self, capsys):
        assert (
            invoke_json(capsys, "noebeling-check", "--coords", "1/2,irr", "--n", "1")[
                "status"
            ]
            == "In"
        )
        assert (
            invoke_json(capsys, "noebeling-check", "--coords", "1/2,1/3", "--n", "1")[
                "status"
            ]
            == "Out"
        )
        assert (
            invoke_json(capsys, "noebeling-check", "--coords", "1/2,unk", "--n", "1")[
                "status"
            ]
            == "Unknown"
        )


class TestGenericPoint:
    def test_seeded_stream_shape(self, capsys):
        data = invoke_json(
            capsys, "generic-point", "--n", "1", "--len", "5", "--seed", "3"
        )
        assert data["block_count"] == 20
        assert len(data["word"]) == 5
        assert all(0 <= w < 20 for w in data["word"])
        assert len(data["rows"]) == 3
        assert all(len(row) == data["depth"] for row in data["rows"])
        assert data["base_rule"] == {"kind": "constant", "z": 3}

    def test_explicit_word(self, capsys):
        data = invoke_json(capsys, "generic-point", "--n", "1", "--word", "0,1,2")
        assert data["word"] == [0, 1, 2]

    def test_word_length_disagreement(self, capsys):
        code, _, err = invoke(
            capsys, "generic-point", "--n", "1", "--word", "0,1", "--len", "3"
        )
        assert code == 3

    def test_seed_determinism(self, capsys):
        a = invoke_json(capsys, "generic-point", "--n", "1", "--len", "6", "--seed", "9")
        b = invoke_json(capsys, "generic-point", "--n", "1", "--len", "6", "--seed", "9")
        assert a == b

    def test_block_cap_exits_two(self, capsys):
        # n = 6 would walk 3^13 ternary tuples; the cap refuses it before any is built
        code, out, err = invoke(capsys, "generic-point", "--n", "6", "--len", "2")
        assert (code, out, err) == (2, "", "effdim: n = 6 is past the cap of 5\n")


class TestEstimatorCommands:
    def test_carpet_box_dimension(self, capsys):
        data = invoke_json(capsys, "boxdim", "--set", "carpet", "--depths", "1..6")
        assert data["~slope_lsq"] == "1.89278926071"
        assert data["~slope_lower"] == data["~slope_upper"] == "1.89278926071"
        assert data["rows"][0] == {"r": "1/3", "count": 8}
        assert len(data["rows"]) == 6

    @pytest.mark.parametrize(
        "name, depth, slope", [("carpet", 400, "1.89278926071"), ("cantor", 700, "0.630929753571")]
    )
    def test_box_dimension_past_float_range(self, capsys, name, depth, slope):
        # the depth-400 carpet count overflows a float, the depth-700 Cantor scale underflows one
        code, out, err = invoke(capsys, "boxdim", "--set", name, "--depths", f"1,{depth}")
        assert code == 0, err
        assert "Traceback" not in err
        data = json.loads(out)
        assert data["~slope_lower"] == data["~slope_upper"] == data["~slope_lsq"] == slope

    @pytest.mark.parametrize("depths", ["-2,3", "-2..12", "3..-2", "1,-1"])
    def test_negative_depth_exits_three(self, capsys, depths):
        code, out, err = invoke(capsys, "boxdim", "--set", "carpet", f"--depths={depths}")
        negative = min(int(v) for v in depths.replace("..", ",").split(","))
        assert (code, out, err) == (3, "", f"effdim: depth {negative} is negative\n")

    def test_depth_cap_exits_two(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_DEPTH_CAP", 5)
        assert len(invoke_json(capsys, "boxdim", "--set", "sponge", "--depths", "0..5")["rows"]) == 6
        # a range is refused at its end, before it is built
        for depths in ("1..6", "6,1", "1..10000000000000", "7..3"):
            code, out, err = invoke(capsys, "boxdim", "--set", "sponge", "--depths", depths)
            past = max(int(v) for v in depths.replace("..", ",").split(","))
            assert (code, out, err) == (2, "", f"effdim: depth {past} is past the cap of 5\n")

    def test_depth_1_to_300_is_fast(self, capsys):
        # each new depth multiplies each running product once, so the range
        # costs time linear in its length
        start = time.perf_counter()
        data = invoke_json(capsys, "boxdim", "--set", "carpet", "--depths", "1..300")
        assert time.perf_counter() - start < 0.5
        assert data["rows"][-1]["count"] == 8**300

    def test_assouad_grid_cap_exits_two(self, capsys, monkeypatch):
        # the Cantor grid at step 1/8 holds 0, 1/8, ..., 9/8: ten values
        argv = ("assouad", "--set", "cantor", "--R", "1", "--r", "1/27", "--step", "1/8", "--c-max", "1")
        monkeypatch.setattr(dim, "_GRID_CAP", 10)
        assert invoke_json(capsys, *argv)["exponent"] == "3/4"
        monkeypatch.setattr(dim, "_GRID_CAP", 9)
        code, out, err = invoke(capsys, *argv)
        assert (code, out, err) == (2, "", "effdim: the exponent grid has more than 9 values\n")

    def test_step_budget_env_is_not_read(self, capsys, monkeypatch):
        # no subcommand reads EFFDIM_STEP_BUDGET, so a malformed value cannot fail boxdim
        monkeypatch.setenv("EFFDIM_STEP_BUDGET", "lots")
        code, out, err = invoke(capsys, "boxdim", "--set", "cantor", "--depths", "1..2")
        assert code == 0, err
        assert json.loads(out)["rows"][0] == {"r": "1/3", "count": 2}

    def test_cloud_input_needs_scales(self, capsys, tmp_path):
        path = tmp_path / "cloud.json"
        path.write_text(json.dumps({"dim": 1, "points": [["0"], ["1/2"]]}))
        code, _, err = invoke(capsys, "boxdim", "--in", str(path))
        assert code == 3
        assert "needs --scales" in err

    def test_cloud_box_count(self, capsys, tmp_path):
        path = tmp_path / "cloud.json"
        path.write_text(json.dumps({"dim": 1, "points": [["0"], ["1/2"], ["1"]]}))
        data = invoke_json(
            capsys, "boxdim", "--in", str(path), "--scales", "1/2,1/4"
        )
        assert [row["count"] for row in data["rows"]] == [2, 3]

    def test_cantor_assouad_exponent(self, capsys):
        data = invoke_json(
            capsys,
            "assouad",
            "--set",
            "cantor",
            "--R",
            "1",
            "--r",
            "1/729",
            "--step",
            "1/64",
            "--c-max",
            "1",
        )
        assert data["exponent"] == "41/64"
        assert data["~exponent"] == "0.640625"

    def test_assouad_needs_a_set(self, capsys):
        code, _, err = invoke(capsys, "assouad", "--R", "1", "--r", "1/3")
        assert code == 3


class TestAlgorithmicCommands:
    def test_identity_precision_complexity(self, capsys):
        data = invoke_json(
            capsys, "kdim", "--x", "1/3", "--r", "4,8", "--compressor", "identity"
        )
        assert [v["C"] for v in data["values"]] == [15, 23]
        assert data["values"][0]["~ratio"] == "3.75"
        assert "~dim_lower" in data and "~dim_upper" in data

    def test_kdim_keeps_precision_order_and_repeats(self, capsys):
        # identity compressor: C_r = 2r + 7
        data = invoke_json(
            capsys, "kdim", "--x", "1/3", "--r", "8,4,8", "--compressor", "identity"
        )
        assert [(v["r"], v["C"], v["~ratio"]) for v in data["values"]] == [
            (8, 23, "2.875"),
            (4, 15, "3.75"),
            (8, 23, "2.875"),
        ]
        assert data["~dim_lower"] == "2.875"
        assert data["~dim_upper"] == "3.75"

    def test_kdim_ratios_are_exact_until_printed(self, capsys):
        # identity compressor: C_r = 2r + 7, so the ratios are 13/3, 19/6, 3
        data = invoke_json(
            capsys, "kdim", "--x", "1/3", "--r", "3,6,7", "--compressor", "identity"
        )
        assert [v["~ratio"] for v in data["values"]] == ["4.33333333333", "3.16666666667", "3"]
        assert data["~dim_lower"] == "3"
        assert data["~dim_upper"] == "4.33333333333"

    def test_kdim_candidate_cap(self, capsys):
        # each coordinate 1/3 has 4 grid candidates: 4^6 pass the cap, 4^7 do not
        data = invoke_json(capsys, "kdim", "--x", ",".join(["1/3"] * 6), "--r", "2")
        assert [v["r"] for v in data["values"]] == [2]
        code, out, err = invoke(capsys, "kdim", "--x", ",".join(["1/3"] * 7), "--r", "2")
        assert code == 2
        assert out == ""
        assert err == "effdim: 16384 grid candidates exceed the cap of 4096\n"

    @pytest.mark.parametrize("r", ["0", "16,-4"])
    def test_kdim_rejects_nonpositive_precisions(self, capsys, r):
        code, out, err = invoke(capsys, "kdim", "--x", "1/3", "--r", r)
        assert code == 2
        assert out == ""
        assert "positive integers" in err
        assert "Traceback" not in err

    def test_cocompress_windows(self, capsys):
        data = invoke_json(
            capsys,
            "cocompress",
            "--prefix",
            "0" * 512,
            "--g",
            "16,32,64,128,256,512",
            "--k-max",
            "4",
            "--s",
            "1/10",
        )
        assert data["results"] == [
            {"s": "1/10", "flags": [False, False, True, True, True]}
        ]

    def test_cocompress_grid(self, capsys):
        data = invoke_json(
            capsys,
            "cocompress",
            "--prefix",
            "0" * 64,
            "--g",
            "16,32,64",
            "--k-max",
            "1",
            "--s-grid",
            "0,1/2",
        )
        assert [r["s"] for r in data["results"]] == ["0/1", "1/2"]
        assert data["results"][0]["flags"] == [False, False]

    @pytest.mark.parametrize("grid", ["", ","])
    def test_cocompress_empty_grid(self, capsys, grid):
        # an empty grid is an error even with --s given
        code, out, err = invoke(
            capsys, "cocompress", "--prefix", "0101", "--g", "2,4,8", "--k-max", "1",
            "--s", "1/2", f"--s-grid={grid}",
        )
        assert (code, out, err) == (3, "", "effdim: --s-grid names no value\n")

    def test_cocompress_needs_enough_marks(self, capsys):
        code, _, err = invoke(
            capsys,
            "cocompress",
            "--prefix",
            "00",
            "--g",
            "16,32,64",
            "--k-max",
            "2",
            "--s",
            "1/10",
        )
        assert code == 3
        assert "k_max + 1" in err

    def test_pf_transform_identity(self, capsys):
        data = invoke_json(
            capsys, "pf-transform", "--input", "011", "--compressor", "identity"
        )
        assert data["payload"] == "011"
        assert data["code"] == "101011011"
        assert data["length"] == 9
        assert data["decodes_to"] == "011"

    def test_pf_transform_kraft(self, capsys):
        data = invoke_json(
            capsys,
            "pf-transform",
            "--input",
            "0",
            "--compressor",
            "identity",
            "--kraft-bound",
            "2",
        )
        assert "kraft_partial" in data

    def test_kraft_bound_cap_exits_two(self, capsys, monkeypatch):
        # the partial Kraft sum doubles its work with each unit of the bound
        monkeypatch.setattr(cli, "_KRAFT_CAP", 3)
        argv = ("pf-transform", "--input", "0", "--kraft-bound")
        # identity payloads of length 0..3 carry headers of 2, 4, 6 and 6 bits
        assert invoke_json(capsys, *argv, "3")["kraft_partial"] == "11/32"
        for bound in ("4", "100000"):
            code, out, err = invoke(capsys, *argv, bound)
            assert (code, out, err) == (2, "", f"effdim: --kraft-bound {bound} is past the cap of 3\n")

    @pytest.mark.parametrize("bound", ["-1", "-40"])
    def test_negative_kraft_bound_exits_three(self, capsys, bound):
        code, out, err = invoke(capsys, "pf-transform", "--input", "0", f"--kraft-bound={bound}")
        assert (code, out, err) == (3, "", f"effdim: --kraft-bound {bound} is negative\n")


class TestInverseLimitCommands:
    def test_orbit_fixed_point(self, capsys):
        data = invoke_json(capsys, "orbit", "--map", "five", "--x0", "1/2")
        assert data["kind"] == "Preperiodic"
        assert data["tail"] == 0
        assert data["period"] == 1

    def test_orbit_cycle(self, capsys):
        data = invoke_json(capsys, "orbit", "--map", "tent", "--x0", "2/7")
        assert data["kind"] == "Preperiodic"
        assert data["tail"] == 0
        assert data["period"] == 3

    def test_il_decode_frozen(self, capsys):
        data = invoke_json(
            capsys, "il-decode", "--map", "tent", "--x0", "3/16", "--word", "0,1"
        )
        assert data == {"trajectory": ["3/16", "3/32", "61/64"]}

    def test_il_encode_round(self, capsys):
        data = invoke_json(
            capsys, "il-encode", "--map", "tent", "--trajectory", "1,1/2,1/4"
        )
        assert data == {"x0": "1/1", "word": [0, 0], "ex_time": [0]}

    def test_il_tree_full_binary(self, capsys):
        data = invoke_json(
            capsys, "il-tree", "--map", "tent", "--x0", "1/2", "--depth", "3"
        )
        assert data == {
            "leaf_count": 8,
            "full_binary": True,
            "arity_profile": {"2": 7},
        }

    def test_map_file_input(self, capsys, tmp_path):
        path = tmp_path / "map.json"
        path.write_text(
            json.dumps({"vertices": [["0", "0"], ["1/2", "1"], ["1", "0"]]})
        )
        data = invoke_json(
            capsys,
            "il-decode",
            "--map-file",
            str(path),
            "--x0",
            "3/16",
            "--word",
            "0,1",
        )
        assert data["trajectory"] == ["3/16", "3/32", "61/64"]

    def test_unknown_map_name(self, capsys):
        code, _, err = invoke(capsys, "orbit", "--map", "saw", "--x0", "1/2")
        assert code == 3
        assert "unknown map name" in err


class TestMalformedInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ("kdim", "--x", "1/0", "--r", "4"),
            ("orbit", "--x0", "1/0"),
            ("assouad", "--set", "cantor", "--R", "1", "--r", "1/0"),
            ("cocompress", "--prefix", "0101", "--g", "1,2,3", "--k-max", "0", "--s", "1/0"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_zero_denominator_flag(self, capsys, argv):
        code, _, err = invoke(capsys, *argv)
        assert code == 3
        assert err == "effdim: zero denominator: '1/0'\n"

    @pytest.mark.parametrize(
        "command, doc",
        [
            ("kappa", dict(COVER1, members=[[{"center": ["1/2"], "radius": "1/0"}]])),
            ("kappa", dict(COVER1, members=[[{"center": ["1/2"], "radius": 0.75}]])),
            ("boxdim", {"dim": 1, "points": [[0.5]]}),
        ],
        ids=["radius-1/0", "radius-float", "cloud-float"],
    )
    def test_non_rational_in_file(self, capsys, tmp_path, command, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        extra = ("--x", "1/2") if command == "kappa" else ("--scales", "1/2")
        code, _, err = invoke(capsys, command, "--in", str(path), *extra)
        assert code == 3
        assert err.startswith("effdim: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, text, message",
        [
            (("boxdim", "--scales", "1/2", "--in"), "", "no header row"),
            (("boxdim", "--scales", "1/2", "--in"), "[1]", "top level must be a JSON object"),
            (("kappa", "--x", "1/2", "--in"), "[1]", "top level must be a JSON object"),
            (("orbit", "--x0", "1/2", "--map-file"), "[1]", "top level must be a JSON object"),
            (("kdim", "--r", "4", "--in"), '{"rows": [5]}', "a row must be a JSON array"),
            (("boxdim", "--scales", "1/2", "--in"), '{"dim": 1, "points": 5}', "points must be"),
        ],
        ids=["empty-csv", "boxdim-list", "kappa-list", "orbit-list", "rows-int", "points-int"],
    )
    def test_malformed_file_shape(self, capsys, tmp_path, argv, text, message):
        path = tmp_path / ("in.csv" if text == "" else "in.json")
        path.write_text(text)
        code, _, err = invoke(capsys, *argv, str(path))
        assert code == 3
        assert err.startswith("effdim: ") and message in err and err.count("\n") == 1

    def test_orbit_segment_cap_exits_two(self, capsys, monkeypatch):
        # one cycle table serves every tol, and a refused table is not kept
        monkeypatch.setattr(il, "_SEGMENT_CAP", 64)
        il._cycle_table.cache_clear()
        for tol in ((), ("--tol", "1/7"), ("--tol", "0"), ("--tol", "2")):
            argv = ("orbit", "--map", "tent", "--x0", "1/3", "--max-period", "12", *tol)
            assert invoke(capsys, *argv) == (2, "", "effdim: f^7 may exceed 64 segments\n")

    @pytest.mark.parametrize("period", ["-1", "-3"])
    def test_negative_max_period_exits_two(self, capsys, period):
        # a refused period fills no cycle-table cache slot; period 0 means no cycles
        il._cycle_table.cache_clear()
        for argv in (("--max-period", period), (f"--max-period={period}",)):
            code, out, err = invoke(capsys, "orbit", "--map", "tent", "--x0", "1/3", *argv)
            assert (code, out, err) == (2, "", "effdim: max_cycle_period must be nonnegative\n")
        assert il._cycle_table.cache_info().currsize == 0
        data = invoke_json(capsys, "orbit", "--map", "tent", "--x0", "1/3", "--max-period", "0")
        assert data == {"kind": "Preperiodic", "steps": 2, "tail": 1, "period": 1}

    def test_il_tree_node_cap_exits_two(self, capsys, monkeypatch):
        # the depth-3 tent tree from 1/2 has 15 nodes
        monkeypatch.setattr(il, "_TREE_NODE_CAP", 15)
        assert invoke_json(capsys, "il-tree", "--x0", "1/2", "--depth", "3")["leaf_count"] == 8
        code, _, err = invoke(capsys, "il-tree", "--x0", "1/2", "--depth", "4")
        assert code == 2
        assert err == "effdim: branching tree exceeds 15 nodes\n"

    def test_deep_il_tree_exits_cleanly(self, capsys, tmp_path):
        path = tmp_path / "identity.json"
        path.write_text(json.dumps({"vertices": [["0", "0"], ["1", "1"]]}))
        data = invoke_json(capsys, "il-tree", "--map-file", str(path), "--x0", "1/2", "--depth", "2000")
        assert data == {"leaf_count": 1, "full_binary": False, "arity_profile": {"1": 2000}}


class TestCoverCommands:
    def test_kappa_default_vertices(self, capsys, cover_file):
        data = invoke_json(capsys, "kappa", "--in", cover_file, "--x", "1/2")
        assert data == {"image": ["1/2"]}

    def test_kappa_explicit_vertices(self, capsys, cover_file):
        data = invoke_json(
            capsys, "kappa", "--in", cover_file, "--x", "1/2", "--vertices", "0;1"
        )
        assert data == {"image": ["1/2"]}

    @pytest.mark.parametrize("x", ["1/4", "1/4,1/4,9"])
    def test_kappa_point_dimension_mismatch(self, capsys, tmp_path, x):
        path = tmp_path / "cloud.json"
        path.write_text(
            json.dumps(
                {
                    "carrier": {"kind": "cloud", "dim": 2, "points": [["1/4", "1/4"], ["3/4", "3/4"]]},
                    "members": [
                        [{"center": ["1/4", "1/4"], "radius": "1/4"}],
                        [{"center": ["3/4", "3/4"], "radius": "1/4"}],
                    ],
                }
            )
        )
        code, out, err = invoke(capsys, "kappa", "--in", str(path), "--x", x)
        assert code == 2
        assert out == ""
        assert "point dimension" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("vertices", ["0,0;1", "0;1,1"])
    def test_kappa_vertex_dimension_mismatch(self, capsys, cover_file, vertices):
        code, out, err = invoke(
            capsys, "kappa", "--in", cover_file, "--x", "1/2", "--vertices", vertices
        )
        assert code == 2
        assert out == ""
        assert "vertices disagree on dimension" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("x", ["3/2", "-1/8"])
    def test_kappa_point_outside_unit_box(self, capsys, tmp_path, x):
        # members are read inside [0,1], so such a point lies in no member
        path = tmp_path / "cover.json"
        path.write_text(
            json.dumps(
                {
                    "carrier": {"kind": "interval", "depth": 2},
                    "members": [
                        [{"center": ["3/8"], "radius": "1/2"}],
                        [{"center": ["3/4"], "radius": "1/8"}, {"center": ["1"], "radius": "3/16"}],
                    ],
                }
            )
        )
        assert invoke_json(capsys, "kappa", "--in", str(path), "--x", "1") == {"image": ["3/4"]}
        code, out, err = invoke(capsys, "kappa", "--in", str(path), f"--x={x}")
        assert (code, out) == (2, "")
        assert err == "effdim: point lies outside the unit box\n"

    @pytest.mark.parametrize(
        "carrier, cells",
        [
            ({"kind": "interval", "depth": 3}, 27),
            ({"kind": "cantor", "depth": 4}, 16),
            ({"kind": "menger", "m": 2, "n": 1, "depth": 2}, 64),
        ],
        ids=["interval", "cantor", "carpet"],
    )
    def test_carrier_cell_cap_exits_two(self, capsys, tmp_path, monkeypatch, carrier, cells):
        dim = carrier.get("m", 1)
        path = tmp_path / "cover.json"
        path.write_text(
            json.dumps({"carrier": carrier, "members": [[{"center": ["1/2"] * dim, "radius": "1"}]]})
        )
        refine = ("refine", "--in", str(path), "--target-mult", "1", "--mesh", "1")
        monkeypatch.setattr(cli, "_CARRIER_CELL_CAP", cells)
        assert invoke(capsys, *refine)[0] == 0
        monkeypatch.setattr(cli, "_CARRIER_CELL_CAP", cells - 1)
        for argv in (refine, ("kappa", "--in", str(path), "--x", ",".join(["1/2"] * dim))):
            code, out, err = invoke(capsys, *argv)
            assert (code, out) == (2, "")
            assert err == f"effdim: carrier has more than {cells - 1} cells\n"

    def test_member_arrangement_cap_exits_two(self, capsys, tmp_path):
        # three balls with distinct faces cut each of six axes into 15
        # cells: 15**6 = 11,390,625 cells, past the cap of 2**22
        centre = ["1/2"] * 6
        path = tmp_path / "cover.json"
        path.write_text(
            json.dumps(
                {
                    "carrier": {"kind": "cloud", "dim": 6, "points": [centre]},
                    "members": [
                        [
                            {"center": centre, "radius": "1/4"},
                            {"center": ["1/3"] * 6, "radius": "1/5"},
                            {"center": ["2/3"] * 6, "radius": "1/7"},
                        ]
                    ],
                }
            )
        )
        code, out, err = invoke(capsys, "kappa", "--in", str(path), "--x", ",".join(centre))
        assert (code, out) == (2, "")
        assert err == f"effdim: open set's arrangement has more than {2**22} cells\n"

    def test_refine(self, capsys, cover_file):
        data = invoke_json(
            capsys, "refine", "--in", cover_file, "--target-mult", "2", "--mesh", "1/2"
        )
        assert data["multiplicity"] == 2
        assert data["mesh"] == "2/27"
        assert len(data["members"]) == 27
        assert len(data["parents"]) == 27

    def test_refine_ignores_budget_env(self, capsys, cover_file, monkeypatch):
        argv = ("refine", "--in", cover_file, "--target-mult", "2", "--mesh", "1/2")
        monkeypatch.delenv("EFFDIM_STEP_BUDGET", raising=False)
        unset = invoke(capsys, *argv)
        monkeypatch.setenv("EFFDIM_STEP_BUDGET", "lots")
        code, out, err = invoke(capsys, *argv)
        assert code == 0, err
        assert (code, out, err) == unset


class TestCondensationCommands:
    def test_sample_rows(self, capsys):
        data = invoke_json(
            capsys,
            "condense-sample",
            "--t",
            "0",
            "--xs",
            "1/2,1/4",
            "--anchors",
            "8",
            "--fiber",
            "1",
        )
        assert data["dim"] == 3
        assert data["points"] == [
            ["1/2", "1/2", "1/4"],
            ["1/4", "3/4", "1/16"],
            ["0/1", "0/1", "0/1"],
        ]

    @pytest.mark.parametrize("fiber", ["17", "20", "-2"])
    def test_fiber_past_the_anchors_exits_two(self, capsys, fiber):
        # --anchors 16 gives 16 anchors, so --fiber runs from 0 to 16
        argv = ("condense-sample", "--xs", "1/4", "--t", "1/2", "--anchors", "16")
        assert len(invoke_json(capsys, *argv, "--fiber", "16")["points"]) == 17
        err = "effdim: fiber points must lie in [0, 16]\n"
        assert invoke(capsys, *argv, f"--fiber={fiber}") == (2, "", err)

    def test_iterated_stages(self, capsys):
        data = invoke_json(
            capsys,
            "condense-sample",
            "--stages",
            "2",
            "--q",
            "0,1",
            "--xs",
            "1/2",
            "--anchors",
            "8",
        )
        assert data["dim"] == 5
        assert data["points"] == [["1/2", "1/2", "1/4", "1/2", "1/4"]]

    def test_needs_t_or_stages(self, capsys):
        code, _, err = invoke(capsys, "condense-sample", "--xs", "1/2")
        assert code == 3

    def test_chain_spec(self, capsys):
        data = invoke_json(capsys, "chain-spec", "--g", "1,2", "--stages", "2")
        assert data["total_links"] == 6
        assert data["stages"] == [
            {"link_size": 1, "link_count": 2},
            {"link_size": 2, "link_count": 4},
        ]

    def test_chain_spec_link_cap_exits_two(self, capsys, monkeypatch):
        monkeypatch.setattr(cond, "_LINK_CAP", 6)
        assert invoke_json(capsys, "chain-spec", "--g", "1,2", "--stages", "2")["total_links"] == 6
        for argv in (("--g", "1,2,3"), ("--g", "1,2", "--kappa", "3,4"), ("--g", "1000000000")):
            stages = str(len(argv[1].split(",")))
            code, out, err = invoke(capsys, "chain-spec", *argv, "--stages", stages)
            assert (code, out, err) == (2, "", "effdim: the chain has more than 6 links\n")

    def test_chain_spec_monotonicity_gate(self, capsys):
        code, _, err = invoke(capsys, "chain-spec", "--g", "2,2", "--stages", "2")
        assert code == 2
        assert "strictly increasing" in err
