"""Exact effective-dimension toolkit.

Formal balls over rational Cauchy-name prefixes, digit-stream models of
Menger and Noebeling spaces, exact box-counting and localized-count
estimators, compressor-based complexity at precision, finite covers with
nerve and Kuratowski-map machinery, inverse-limit branch coding, and
singular-graph condensation samples.  Everything numeric is a Fraction;
no floats enter any decision.
"""

from .algorithmic_dim import (
    BUILTIN_COMPRESSORS,
    Compressor,
    PrefixFreeMachine,
    bplus,
    co_compressible_check,
    compress_len,
    dictionary_compressor,
    grid_point_encoding,
    header_overhead,
    identity_compressor,
    precision_candidates,
    precision_complexity,
    prefixfree_transform,
    runlength_compressor,
    schnorr_dims,
)
from .ball_calculus import (
    BallRelation,
    FormalBall,
    NamePrefix,
    PreconditionError,
    RationalPoint,
    SpaceDescriptor,
    ball_of_prefix,
    formal_relation,
    validate_prefix,
)
from .condensation_geometry import (
    ChainSpec,
    SegmentPath,
    chain_descriptor,
    dyadic_path,
    iterate_S,
    path_param,
    sample_S,
)
from .covers_nerve import (
    Box,
    EpsEtaCertificate,
    FiniteCover,
    Nerve,
    OpenSet,
    SymbolicCarrier,
    ball,
    cantor_carrier,
    complement_distance,
    cover_mesh,
    cover_multiplicity,
    embed_step,
    general_position,
    interval_carrier,
    interval_set,
    kappa_map,
    menger_push_step,
    nerve_of,
    open_set,
    refine_cover,
    shrink_cover,
    verify_eps_eta,
)
from .dimension_estimators import (
    CubeDescriptor,
    DimEstimate,
    MengerDescriptor,
    PointCloud,
    ScaleCounts,
    assouad_exponent,
    box_count,
    box_dimension,
    cantor_descriptor,
    carpet_descriptor,
    estimate_report,
    localized_count,
    scale_counts,
    sponge_descriptor,
)
from .fractal_spaces import (
    BoundSeq,
    Coord,
    DigitMatrix,
    MembershipVerdict,
    expansions_of,
    extrema_combinatorics,
    generic_point_stream,
    menger_membership,
    menger_membership_point,
    noebeling_membership,
    z_value,
)
from .inverse_limits import (
    BranchCode,
    BranchNode,
    InverseSystem,
    OrbitReport,
    PLMap,
    branching_tree,
    compose,
    decode_point,
    encode_point,
    extrema_of,
    five_segment_map,
    iterate_map,
    orbit_analyze,
    preimages,
    tent_map,
)

__all__ = [name for name in dir() if not name.startswith("_")]
