"""Exact effective-dimension toolkit.

Formal balls over rational Cauchy-name prefixes, digit-stream models of
Menger and Noebeling spaces, exact box-counting and localized-count
estimators, compressor-based complexity at precision, finite covers with
nerve and Kuratowski-map machinery, inverse-limit branch coding, and
singular-graph condensation samples.  Everything numeric is a Fraction;
no floats enter any decision.

Each public name is imported on first use (PEP 562): ``import effdim``
loads no submodule, and ``from effdim import PLMap`` loads
``inverse_limits`` and what it imports, not the cover, compressor or
condensation modules.
"""

import importlib

# module -> the public names it defines
_EXPORTS = {
    "_rat": ("PreconditionError",),
    "algorithmic_dim": (
        "BUILTIN_COMPRESSORS",
        "Compressor",
        "PrefixFreeMachine",
        "bplus",
        "co_compressible_check",
        "compress_len",
        "dictionary_compressor",
        "grid_point_encoding",
        "header_overhead",
        "identity_compressor",
        "precision_candidates",
        "precision_complexity",
        "prefixfree_transform",
        "runlength_compressor",
        "schnorr_dims",
    ),
    "ball_calculus": (
        "BallRelation",
        "FormalBall",
        "NamePrefix",
        "RationalPoint",
        "SpaceDescriptor",
        "ball_of_prefix",
        "formal_relation",
        "validate_prefix",
    ),
    "condensation_geometry": (
        "ChainSpec",
        "SegmentPath",
        "chain_descriptor",
        "dyadic_path",
        "iterate_S",
        "path_param",
        "sample_S",
    ),
    "covers_nerve": (
        "Box",
        "EpsEtaCertificate",
        "FiniteCover",
        "Nerve",
        "OpenSet",
        "SymbolicCarrier",
        "ball",
        "cantor_carrier",
        "complement_distance",
        "cover_mesh",
        "cover_multiplicity",
        "embed_step",
        "general_position",
        "interval_carrier",
        "interval_set",
        "kappa_map",
        "menger_push_step",
        "nerve_of",
        "open_set",
        "refine_cover",
        "shrink_cover",
        "verify_eps_eta",
    ),
    "dimension_estimators": (
        "CubeDescriptor",
        "DimEstimate",
        "MengerDescriptor",
        "PointCloud",
        "ScaleCounts",
        "assouad_exponent",
        "box_count",
        "box_dimension",
        "cantor_descriptor",
        "carpet_descriptor",
        "estimate_report",
        "localized_count",
        "scale_counts",
        "sponge_descriptor",
    ),
    "fractal_spaces": (
        "BoundSeq",
        "Coord",
        "DigitMatrix",
        "MembershipVerdict",
        "expansions_of",
        "extrema_combinatorics",
        "generic_point_stream",
        "menger_membership",
        "menger_membership_point",
        "noebeling_membership",
        "z_value",
    ),
    "inverse_limits": (
        "BranchCode",
        "BranchNode",
        "InverseSystem",
        "OrbitReport",
        "PLMap",
        "branching_tree",
        "compose",
        "decode_point",
        "encode_point",
        "extrema_of",
        "five_segment_map",
        "iterate_map",
        "orbit_analyze",
        "preimages",
        "tent_map",
    ),
}
# every exported name, and every public submodule under its own name
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_HOME.update((module, module) for module in _EXPORTS if not module.startswith("_"))

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Import the module that defines ``name`` and cache the name here."""
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
        globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
