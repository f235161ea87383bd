"""``import effdim`` loads each submodule on first use of one of its names.

The package's names are read through a module ``__getattr__`` (PEP 562),
so a caller pays at start-up only for the modules it reads from.  The
load checks run in fresh interpreters; the name checks pin the 100
names ``effdim.__all__`` has always held, each to the module that
defines it, independently of the package's own table.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import effdim

SRC = Path(__file__).resolve().parent.parent / "src"

DEFINED_IN = {
    "_rat": ("PreconditionError",),
    "algorithmic_dim": (
        "BUILTIN_COMPRESSORS", "Compressor", "PrefixFreeMachine", "bplus", "co_compressible_check",
        "compress_len", "dictionary_compressor", "grid_point_encoding", "header_overhead",
        "identity_compressor", "precision_candidates", "precision_complexity", "prefixfree_transform",
        "runlength_compressor", "schnorr_dims",
    ),
    "ball_calculus": (
        "BallRelation", "FormalBall", "NamePrefix", "RationalPoint", "SpaceDescriptor", "ball_of_prefix",
        "formal_relation", "validate_prefix",
    ),
    "condensation_geometry": (
        "ChainSpec", "SegmentPath", "chain_descriptor", "dyadic_path", "iterate_S", "path_param", "sample_S",
    ),
    "covers_nerve": (
        "Box", "EpsEtaCertificate", "FiniteCover", "Nerve", "OpenSet", "SymbolicCarrier", "ball",
        "cantor_carrier", "complement_distance", "cover_mesh", "cover_multiplicity", "embed_step",
        "general_position", "interval_carrier", "interval_set", "kappa_map", "menger_push_step", "nerve_of",
        "open_set", "refine_cover", "shrink_cover", "verify_eps_eta",
    ),
    "dimension_estimators": (
        "CubeDescriptor", "DimEstimate", "MengerDescriptor", "PointCloud", "ScaleCounts", "assouad_exponent",
        "box_count", "box_dimension", "cantor_descriptor", "carpet_descriptor", "estimate_report",
        "localized_count", "scale_counts", "sponge_descriptor",
    ),
    "fractal_spaces": (
        "BoundSeq", "Coord", "DigitMatrix", "MembershipVerdict", "expansions_of", "extrema_combinatorics",
        "generic_point_stream", "menger_membership", "menger_membership_point", "noebeling_membership",
        "z_value",
    ),
    "inverse_limits": (
        "BranchCode", "BranchNode", "InverseSystem", "OrbitReport", "PLMap", "branching_tree", "compose",
        "decode_point", "encode_point", "extrema_of", "five_segment_map", "iterate_map", "orbit_analyze",
        "preimages", "tent_map",
    ),
}
SUBMODULES = [module for module in DEFINED_IN if not module.startswith("_")]


def _loaded_after(statement: str) -> set[str]:
    """The effdim submodules a fresh interpreter holds after running statement."""
    code = f"{statement}\nimport json, sys\nprint(json.dumps([m for m in sys.modules if m.startswith('effdim.')]))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_import_loads_no_submodule():
    assert _loaded_after("import effdim") == set()


def test_a_map_name_loads_only_the_inverse_limits():
    assert _loaded_after("from effdim import PLMap") == {"effdim._rat", "effdim.inverse_limits"}


def test_a_cover_name_leaves_the_other_layers_unloaded():
    loaded = _loaded_after("from effdim import kappa_map")
    assert "effdim.covers_nerve" in loaded
    assert not loaded & {"effdim.inverse_limits", "effdim.algorithmic_dim", "effdim.condensation_geometry"}


def test_all_holds_the_same_names():
    assert len(effdim.__all__) == 100
    assert set(effdim.__all__) == {name for names in DEFINED_IN.values() for name in names} | set(SUBMODULES)


@pytest.mark.parametrize("module", list(DEFINED_IN))
def test_each_name_is_its_modules_object(module):
    home = importlib.import_module(f"effdim.{module}")
    for name in DEFINED_IN[module]:
        assert getattr(effdim, name) is getattr(home, name), name
    if module in SUBMODULES:
        assert getattr(effdim, module) is home


def test_dir_lists_every_name():
    assert set(dir(effdim)) >= set(effdim.__all__)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'effdim' has no attribute 'no_such_name'$"):
        effdim.no_such_name  # noqa: B018


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from effdim import *", namespace)
    assert set(effdim.__all__) <= set(namespace)
    for name in effdim.__all__:
        assert namespace[name] is getattr(effdim, name), name
