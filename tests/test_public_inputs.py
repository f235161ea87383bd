"""Every public entry point reads its numbers through the readers in ``_rat``.

A rational slot takes ints, Fractions (subclasses included) and 'p/q'
strings, and refuses floats, bools, Decimals and complex numbers with
``ValueError("not a rational: ...")``.  An int slot takes ints only and
refuses everything else, 1.7 included, with a PreconditionError, so no
input is truncated.  The guard at the end keeps the table complete: a
new public callable must be listed in it or exempted with a reason.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

import pytest

import effdim
from effdim import (
    BoundSeq,
    Box,
    BranchCode,
    BranchNode,
    Coord,
    CubeDescriptor,
    DigitMatrix,
    EpsEtaCertificate,
    FiniteCover,
    FormalBall,
    InverseSystem,
    MengerDescriptor,
    NamePrefix,
    PLMap,
    PointCloud,
    PreconditionError,
    RationalPoint,
    ScaleCounts,
    SpaceDescriptor,
    SymbolicCarrier,
    assouad_exponent,
    ball,
    bplus,
    box_count,
    box_dimension,
    branching_tree,
    cantor_carrier,
    cantor_descriptor,
    carpet_descriptor,
    chain_descriptor,
    co_compressible_check,
    complement_distance,
    compose,
    compress_len,
    cover_mesh,
    cover_multiplicity,
    decode_point,
    dyadic_path,
    embed_step,
    encode_point,
    expansions_of,
    extrema_combinatorics,
    extrema_of,
    general_position,
    generic_point_stream,
    grid_point_encoding,
    header_overhead,
    identity_compressor,
    interval_carrier,
    interval_set,
    iterate_S,
    iterate_map,
    kappa_map,
    localized_count,
    menger_membership,
    menger_membership_point,
    menger_push_step,
    nerve_of,
    noebeling_membership,
    open_set,
    orbit_analyze,
    path_param,
    precision_candidates,
    precision_complexity,
    prefixfree_transform,
    preimages,
    refine_cover,
    runlength_compressor,
    sample_S,
    scale_counts,
    schnorr_dims,
    shrink_cover,
    tent_map,
    verify_eps_eta,
    z_value,
)

F = Fraction


class Half(Fraction):
    """A Fraction subclass: read as the plain Fraction of the same value."""


BAD = (0.5, True, Decimal("0.5"), 1j)
BAD_INTS = BAD + (1.7,)

Z3 = BoundSeq.constant(3)
TENT = tent_map()
SYSTEM = InverseSystem.constant(TENT)
PATH = dyadic_path(8)


def _two_sided():
    members = (open_set(ball((0,), F(3, 5))), open_set(ball((1,), F(3, 5))))
    return FiniteCover(members, interval_carrier(2))


def _disjoint():
    members = (open_set(ball((F(1, 6),), F(1, 4))), open_set(ball((F(5, 6),), F(1, 4))))
    return FiniteCover(members, cantor_carrier(1))


def _kappa(v):
    return kappa_map((v,), _two_sided(), (RationalPoint((0,)), RationalPoint((1,))))


def _embed(i=1, j=1):
    return embed_step(PointCloud(1, ((F(0),), (F(1, 3),), (F(1),))), _disjoint(), i=i, j=j)


def _cocompress(s=F(1, 2), k_max=2):
    return co_compressible_check("0" * 64, runlength_compressor(), lambda k: 2 ** (k + 3), s, k_max)


# name -> ((slot, kind, good value, call), ...); kind "rat" reads a
# rational (a point's coordinate included) and "int" an int.
TABLE = {
    # ball calculus
    "RationalPoint": (("coordinate", "rat", F(1, 2), lambda v: RationalPoint((F(1, 4), v))),),
    "FormalBall": (
        ("radius", "rat", F(1, 4), lambda v: FormalBall(RationalPoint((F(1, 2),)), v)),
        ("contains", "rat", F(1, 2), lambda v: ball((F(1, 2), F(1, 2)), F(1, 4)).contains((v, F(1, 2)))),
    ),
    "NamePrefix": (("index", "int", 3, lambda v: NamePrefix((0, v))),),
    "SpaceDescriptor": (("dim", "int", 2, lambda v: SpaceDescriptor(v)),),
    # condensation geometry
    "chain_descriptor": (
        ("g", "int", 2, lambda v: chain_descriptor([1, v], None, 2)),
        ("kappa_growth", "int", 3, lambda v: chain_descriptor([1, 2], [1, v], 2)),
        ("stages", "int", 2, lambda v: chain_descriptor([1, 2], None, v)),
    ),
    "dyadic_path": (("count", "int", 3, lambda v: dyadic_path(v)),),
    "path_param": (("t", "rat", F(3, 2), lambda v: path_param(PATH, v)),),
    "sample_S": (
        ("E", "rat", F(0), lambda v: sample_S((v, 1), PATH, F(1, 2), [F(1, 4)])),
        ("t", "rat", F(1, 2), lambda v: sample_S((0, 1), PATH, v, [F(1, 4)])),
        ("xs", "rat", F(1, 4), lambda v: sample_S((0, 1), PATH, F(1, 2), [v])),
        ("fiber_points", "int", 1, lambda v: sample_S((0, 1), PATH, F(1, 2), [F(1, 4)], v)),
    ),
    "iterate_S": (
        ("Q_prefix", "rat", F(1, 2), lambda v: iterate_S((0, 1), PATH, [v], 1, [F(1, 4)])),
        ("stages", "int", 1, lambda v: iterate_S((0, 1), PATH, [F(1, 2)], v, [F(1, 4)])),
        ("xs", "rat", F(1, 4), lambda v: iterate_S((0, 1), PATH, [F(1, 2)], 1, [v])),
    ),
    # covers and nerves
    "Box": (
        ("bound", "rat", F(1, 2), lambda v: Box(((F(1, 4), v),))),
        ("point", "rat", F(1, 2), lambda v: Box(((F(1, 4), F(1, 2)), (0, 1))).contains((v, F(1, 4)))),
    ),
    "OpenSet": (
        ("contains", "rat", F(1, 2), lambda v: open_set(ball((F(1, 2), F(1, 2)), F(1, 4))).contains((v, F(1, 2)))),
    ),
    "SymbolicCarrier": (("depth", "int", 2, lambda v: SymbolicCarrier(cantor_descriptor(), v)),),
    "ball": (
        ("center", "rat", F(1, 2), lambda v: ball((F(1, 4), v), F(1, 8))),
        ("radius", "rat", F(1, 4), lambda v: ball((F(1, 2),), v)),
    ),
    "cantor_carrier": (("depth", "int", 2, lambda v: cantor_carrier(v)),),
    "interval_carrier": (("depth", "int", 2, lambda v: interval_carrier(v)),),
    "interval_set": (("lo", "rat", F(1, 4), lambda v: interval_set(v, F(3, 4))),),
    "complement_distance": (
        ("coordinate", "rat", F(1, 2), lambda v: complement_distance((v,), interval_set(F(1, 4), F(3, 4)))),
    ),
    "kappa_map": (("coordinate", "rat", F(1, 2), _kappa),),
    "general_position": (
        ("eps", "rat", F(1, 8), lambda v: general_position([(F(1, 2), F(1, 2)), (F(1, 2), F(1, 2))], v)),
        ("point", "rat", F(1, 2), lambda v: general_position([(F(1, 4), v)], F(1, 8))),
        ("avoid", "rat", F(1, 2), lambda v: general_position([(F(1, 4), F(1, 4))], F(1, 8), [[(v, v)]])),
        ("budget", "int", 100, lambda v: general_position([(F(1, 4), F(1, 4))], F(1, 8), (), v)),
    ),
    "verify_eps_eta": (
        ("eps", "rat", F(1, 2), lambda v: verify_eps_eta([((0,), (0,)), ((1,), (1,))], v, F(1, 2))),
        ("eta", "rat", F(1, 2), lambda v: verify_eps_eta([((0,), (0,)), ((1,), (1,))], F(1, 2), v)),
        ("point", "rat", F(1, 2), lambda v: verify_eps_eta([((v,), (0,)), ((1,), (1,))], F(1, 2), F(1, 2))),
    ),
    "EpsEtaCertificate": (
        ("eps", "rat", F(1, 2), lambda v: EpsEtaCertificate(v, F(1, 4), ())),
        ("eta", "rat", F(1, 4), lambda v: EpsEtaCertificate(F(1, 2), v, ())),
    ),
    "refine_cover": (
        ("target_mult", "int", 2, lambda v: refine_cover(_two_sided(), v, F(1, 2))),
        ("mesh", "rat", F(1, 2), lambda v: refine_cover(_two_sided(), 2, v)),
        ("budget", "int", 8, lambda v: refine_cover(_two_sided(), 2, F(1, 2), v)),
    ),
    "embed_step": (
        ("i", "int", 1, lambda v: _embed(i=v)),
        ("j", "int", 1, lambda v: _embed(j=v)),
    ),
    "menger_push_step": (
        ("points", "rat", F(1, 4), lambda v: menger_push_step((v,), 0, Z3, F(1, 8))),
        ("level", "int", 1, lambda v: menger_push_step((F(1, 4),), v, Z3, F(1, 32))),
        ("eps", "rat", F(1, 8), lambda v: menger_push_step((F(1, 4),), 0, Z3, v)),
    ),
    # dimension estimators
    "PointCloud": (
        ("dim", "int", 1, lambda v: PointCloud(v, ((F(1, 2),),))),
        ("coordinate", "rat", F(1, 2), lambda v: PointCloud(1, ((v,),))),
    ),
    "ScaleCounts": (
        ("scale", "rat", F(1, 2), lambda v: ScaleCounts(((v, 2), (F(1, 4), 4)))),
        ("count", "int", 2, lambda v: ScaleCounts(((F(1, 2), v), (F(1, 4), 4)))),
    ),
    "MengerDescriptor": (
        ("m", "int", 2, lambda v: MengerDescriptor(v, 1)),
        ("n", "int", 1, lambda v: MengerDescriptor(2, v)),
    ),
    "CubeDescriptor": (("dim", "int", 2, lambda v: CubeDescriptor(v)),),
    "box_count": (
        ("r on a descriptor", "rat", F(1, 9), lambda v: box_count(carpet_descriptor(), v)),
        ("r on a cube", "rat", F(1, 4), lambda v: box_count(CubeDescriptor(2), v)),
        ("r on a cloud", "rat", F(1, 2), lambda v: box_count(PointCloud(1, ((0,), (1,))), v)),
    ),
    "scale_counts": (("scale", "rat", F(1, 3), lambda v: scale_counts(cantor_descriptor(), [v])),),
    "localized_count": (
        ("R", "rat", F(1, 3), lambda v: localized_count(carpet_descriptor(), v, F(1, 27))),
        ("r", "rat", F(1, 27), lambda v: localized_count(carpet_descriptor(), F(1, 3), v)),
    ),
    "assouad_exponent": (
        ("R_list", "rat", F(1), lambda v: assouad_exponent(cantor_descriptor(), [v], [F(1, 27)])),
        ("r_list", "rat", F(1, 27), lambda v: assouad_exponent(cantor_descriptor(), [1], [v])),
        ("s_step", "rat", F(1, 8), lambda v: assouad_exponent(cantor_descriptor(), [1], [F(1, 27)], v)),
        ("c_max", "rat", F(2), lambda v: assouad_exponent(cantor_descriptor(), [1], [F(1, 27)], F(1, 8), v)),
    ),
    # digit streams; BoundSeq and Coord read their numbers both through
    # their named constructors and built field by field
    "BoundSeq": (
        ("constant", "int", 3, lambda v: BoundSeq.constant(v)),
        ("affine", "int", 4, lambda v: BoundSeq.affine(v)),
        ("table value", "int", 4, lambda v: BoundSeq.from_table([v])),
        ("table tail", "int", 5, lambda v: BoundSeq.from_table([4], v)),
        ("value field", "int", 3, lambda v: BoundSeq("constant", v)),
        ("table field", "int", 4, lambda v: BoundSeq("table", table=(v,))),
        ("tail field", "int", 5, lambda v: BoundSeq("table", tail=v)),
    ),
    "DigitMatrix": (("digit", "int", 1, lambda v: DigitMatrix(((0, v),), Z3)),),
    "Coord": (
        ("rational", "rat", F(1, 2), lambda v: Coord.rational(v)),
        ("value field", "rat", F(1, 2), lambda v: Coord("rational", v)),
    ),
    "z_value": (("digit", "int", 1, lambda v: z_value((2, v), Z3)),),
    "expansions_of": (
        ("x", "rat", F(1, 3), lambda v: expansions_of(v, Z3)),
        ("horizon", "int", 8, lambda v: expansions_of(F(1, 4), Z3, v)),
    ),
    "menger_membership_point": (
        ("coordinate", "rat", F(1, 2), lambda v: menger_membership_point((v, F(1, 3)), 1, Z3)),
        ("n", "int", 1, lambda v: menger_membership_point((F(1, 2), F(1, 3)), v, Z3)),
    ),
    "menger_membership": (
        ("coordinate", "rat", F(1, 2), lambda v: menger_membership((v, F(1, 3)), 1, Z3)),
        ("n on a point", "int", 1, lambda v: menger_membership((F(1, 2), F(1, 3)), v, Z3)),
        ("n on a matrix", "int", 1, lambda v: menger_membership(DigitMatrix(((1,), (1,)), Z3), v)),
    ),
    "noebeling_membership": (
        ("n", "int", 1, lambda v: noebeling_membership((Coord.rational(0), Coord.irrational()), v)),
    ),
    "extrema_combinatorics": (("n", "int", 1, lambda v: extrema_combinatorics(v)),),
    "generic_point_stream": (
        ("word", "int", 5, lambda v: generic_point_stream((0, v), 1)),
        ("n", "int", 1, lambda v: generic_point_stream((0, 5), v)),
    ),
    # inverse limits
    "PLMap": (("vertex", "rat", F(1, 2), lambda v: PLMap(((0, 0), (v, 1), (1, 0)))),),
    "InverseSystem": (("level", "int", 0, lambda v: SYSTEM.at(v)),),
    "BranchNode": (("value", "rat", F(1, 2), lambda v: BranchNode(v)),),
    "iterate_map": (("power", "int", 2, lambda v: iterate_map(TENT, v)),),
    "preimages": (("y", "rat", F(1, 2), lambda v: preimages(TENT, v)),),
    "orbit_analyze": (
        ("x0", "rat", F(2, 7), lambda v: orbit_analyze(TENT, v)),
        ("budget", "int", 50, lambda v: orbit_analyze(TENT, F(2, 7), v)),
        ("tol", "rat", F(1, 64), lambda v: orbit_analyze(TENT, F(2, 7), 50, v)),
        ("max_cycle_period", "int", 4, lambda v: orbit_analyze(TENT, F(2, 7), 50, F(1, 64), v)),
    ),
    "decode_point": (
        ("x0", "rat", F(1, 2), lambda v: decode_point(SYSTEM, BranchCode(v, (0, 1)))),
        ("word", "int", 1, lambda v: decode_point(SYSTEM, BranchCode(F(1, 2), (0, v)))),
        ("depth", "int", 1, lambda v: decode_point(SYSTEM, BranchCode(F(1, 2), (0, 1)), v)),
    ),
    "encode_point": (("trajectory", "rat", F(1, 4), lambda v: encode_point(SYSTEM, (F(1, 2), v))),),
    "branching_tree": (
        ("x0", "rat", F(1, 2), lambda v: branching_tree(SYSTEM, v, 2)),
        ("depth", "int", 2, lambda v: branching_tree(SYSTEM, F(1, 2), v)),
    ),
    # compressor complexity
    "bplus": (("n", "int", 5, lambda v: bplus(v)),),
    "header_overhead": (("payload_len", "int", 5, lambda v: header_overhead(v)),),
    "grid_point_encoding": (
        ("ks", "int", 3, lambda v: grid_point_encoding((1, v), 2)),
        ("r", "int", 2, lambda v: grid_point_encoding((1, 3), v)),
    ),
    "precision_candidates": (
        ("coordinate", "rat", F(1, 3), lambda v: precision_candidates((v,), 3)),
        ("r", "int", 3, lambda v: precision_candidates((F(1, 3),), v)),
    ),
    "precision_complexity": (
        ("coordinate", "rat", F(1, 3), lambda v: precision_complexity((v,), 3, identity_compressor())),
        ("r", "int", 3, lambda v: precision_complexity((F(1, 3),), v, identity_compressor())),
    ),
    "schnorr_dims": (
        ("coordinate", "rat", F(1, 3), lambda v: schnorr_dims((v,), identity_compressor(), [2, 3])),
        ("r_range", "int", 3, lambda v: schnorr_dims((F(1, 3),), identity_compressor(), [2, v])),
    ),
    "co_compressible_check": (
        ("s", "rat", F(1, 2), lambda v: _cocompress(s=v)),
        ("k_max", "int", 2, lambda v: _cocompress(k_max=v)),
    ),
}

_OBJECTS = "takes library objects only, each of which read its numbers when it was built"
_COVER = "takes a FiniteCover; other types are refused in test_wrong_types"
_MAP = "takes PLMaps; other types are refused in test_wrong_types"
EXEMPT = {
    "BallRelation": "an enum of formal_relation's answers",
    "PreconditionError": "an exception type",
    "ball_of_prefix": _OBJECTS,
    "formal_relation": _OBJECTS,
    "validate_prefix": _OBJECTS,
    "ChainSpec": "the record chain_descriptor returns, built from read ints",
    "SegmentPath": _OBJECTS,
    "FiniteCover": (
        "takes a tuple of OpenSets and a carrier, other types refused in test_wrong_types; "
        "its parents are the indices refine_cover fills in"
    ),
    "Nerve": "the record nerve_of returns",
    "open_set": _OBJECTS,
    "cover_mesh": _COVER,
    "cover_multiplicity": _COVER,
    "nerve_of": _COVER,
    "shrink_cover": _COVER,
    "DimEstimate": "the float slopes box_dimension fits; no exact number goes in",
    "box_dimension": "takes a ScaleCounts; other types are refused in test_wrong_types",
    "estimate_report": _OBJECTS,
    "cantor_descriptor": "takes no argument",
    "carpet_descriptor": "takes no argument",
    "sponge_descriptor": "takes no argument",
    "MembershipVerdict": "the record the membership tests return",
    "BranchCode": "a record; decode_point reads its start and word (see its entries)",
    "OrbitReport": "the record orbit_analyze returns",
    "compose": _MAP,
    "extrema_of": _MAP,
    "five_segment_map": "takes no argument",
    "tent_map": "takes no argument",
    "Compressor": "takes encode, decode and floor functions",
    "PrefixFreeMachine": _OBJECTS,
    "prefixfree_transform": _OBJECTS,
    "compress_len": "takes a compressor, refused in test_wrong_types if not one, and a bit string",
    "dictionary_compressor": "takes no argument",
    "identity_compressor": "takes no argument",
    "runlength_compressor": "takes no argument",
}

SLOTS = [
    pytest.param(kind, good, call, id=f"{name}-{slot}")
    for name, slots in TABLE.items()
    for slot, kind, good, call in slots
]


def _good_forms(kind, good):
    """The accepted spellings of one value; each must give its result."""
    if kind == "int":
        return [good]
    forms = [good, Half(good), f"{good.numerator}/{good.denominator}", f" {good} "]
    if good.denominator == 1:
        forms.append(good.numerator)
    return forms


@pytest.mark.parametrize("kind, good, call", SLOTS)
def test_accepted_forms_give_the_fraction_result(kind, good, call):
    want = call(good)
    for form in _good_forms(kind, good):
        got = call(form)
        assert got == want, form
        # a Fraction subclass comes back as a plain Fraction, so reprs agree too
        if " at 0x" not in repr(want):
            assert repr(got) == repr(want), form


@pytest.mark.parametrize("kind, good, call", SLOTS)
def test_refused_forms(kind, good, call):
    if kind == "int":
        for bad in BAD_INTS:
            with pytest.raises(PreconditionError, match="must be an int$"):
                call(bad)
    else:
        for bad in BAD:
            with pytest.raises(ValueError, match="^not a rational: "):
                call(bad)


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda: box_dimension([]), "box_dimension needs a ScaleCounts, not list"),
        (lambda: box_dimension(None), "box_dimension needs a ScaleCounts, not NoneType"),
        (lambda: box_count([], F(1, 2)), "box_count needs a PointCloud, MengerDescriptor or CubeDescriptor, not list"),
        (
            lambda: localized_count(PointCloud(1, ((0,),)), F(1, 2), F(1, 4)),
            "localized counts need a MengerDescriptor or CubeDescriptor, not PointCloud",
        ),
        (
            lambda: assouad_exponent(PointCloud(1, ((0,),)), [F(1, 2)], [F(1, 4)]),
            "localized counts need a MengerDescriptor or CubeDescriptor, not PointCloud",
        ),
        # a cover slot names FiniteCover
        (lambda: nerve_of([]), "nerve_of needs a FiniteCover, not list"),
        (lambda: cover_multiplicity(None), "cover_multiplicity needs a FiniteCover, not NoneType"),
        (lambda: cover_mesh(None), "cover_mesh needs a FiniteCover, not NoneType"),
        (lambda: shrink_cover(None), "shrink_cover needs a FiniteCover, not NoneType"),
        (lambda: refine_cover(None, 1, F(1, 2)), "refine_cover needs a FiniteCover, not NoneType"),
        (
            lambda: kappa_map((F(1, 2),), None, (RationalPoint((0,)),)),
            "kappa_map needs a FiniteCover, not NoneType",
        ),
        # embed_step names itself for both its sample and its cover
        (lambda: embed_step(None, _disjoint()), "embed_step needs a PointCloud, not NoneType"),
        (
            lambda: embed_step(PointCloud(1, ((F(0),),)), None),
            "embed_step needs a FiniteCover, not NoneType",
        ),
        # a cover's members are a tuple of OpenSets and its carrier a PointCloud
        # or SymbolicCarrier; a kappa vertex is a RationalPoint
        (
            lambda: FiniteCover(list(_two_sided().members), interval_carrier(2)),
            "FiniteCover needs a tuple of OpenSets, not list",
        ),
        (lambda: FiniteCover(None, interval_carrier(1)), "FiniteCover needs a tuple of OpenSets, not NoneType"),
        (
            lambda: FiniteCover(open_set(ball((0,), 1)), interval_carrier(1)),
            "FiniteCover needs a tuple of OpenSets, not OpenSet",
        ),
        (lambda: FiniteCover((None,), interval_carrier(1)), "FiniteCover needs an OpenSet, not NoneType"),
        (
            lambda: FiniteCover((open_set(ball((0,), 1)), ball((0,), 1)), interval_carrier(1)),
            "FiniteCover needs an OpenSet, not FormalBall",
        ),
        (
            lambda: FiniteCover(_two_sided().members, None),
            "FiniteCover needs a PointCloud or SymbolicCarrier, not NoneType",
        ),
        (
            lambda: FiniteCover(_two_sided().members, interval_carrier(2).descriptor),
            "FiniteCover needs a PointCloud or SymbolicCarrier, not MengerDescriptor",
        ),
        (lambda: kappa_map((F(1, 2),), _two_sided(), [None]), "kappa_map needs a RationalPoint, not NoneType"),
        (
            lambda: kappa_map((F(1, 2),), _two_sided(), (RationalPoint((0,)), (1,))),
            "kappa_map needs a RationalPoint, not tuple",
        ),
        # a map slot names PLMap, a system slot InverseSystem, a compressor slot Compressor
        (lambda: compose(None, TENT), "compose needs a PLMap, not NoneType"),
        (lambda: compose(TENT, None), "compose needs a PLMap, not NoneType"),
        (lambda: iterate_map(None, 2), "iterate_map needs a PLMap, not NoneType"),
        (lambda: preimages(None, F(1, 2)), "preimages needs a PLMap, not NoneType"),
        (lambda: orbit_analyze(None, F(1, 3)), "orbit_analyze needs a PLMap, not NoneType"),
        (lambda: orbit_analyze(SYSTEM, F(1, 3)), "orbit_analyze needs a PLMap, not InverseSystem"),
        (lambda: extrema_of(None), "extrema_of needs a PLMap, not NoneType"),
        (lambda: branching_tree(None, F(1, 2), 2), "branching_tree needs an InverseSystem, not NoneType"),
        (lambda: branching_tree(TENT, F(1, 2), 0), "branching_tree needs an InverseSystem, not PLMap"),
        (
            lambda: decode_point(None, BranchCode(F(1, 2), (0,))),
            "decode_point needs an InverseSystem, not NoneType",
        ),
        (lambda: decode_point(SYSTEM, 5), "decode_point needs a BranchCode, not int"),
        (lambda: encode_point(None, (F(1, 2),)), "encode_point needs an InverseSystem, not NoneType"),
        # InverseSystem.at checks the map its rule gives, at every level read
        (lambda: InverseSystem(lambda n: "tent").at(0), "InverseSystem.at needs a PLMap, not str"),
        (
            lambda: branching_tree(InverseSystem.constant(None), F(1, 2), 2),
            "InverseSystem.at needs a PLMap, not NoneType",
        ),
        (
            lambda: decode_point(InverseSystem.constant(None), BranchCode(F(1, 2), (0,))),
            "InverseSystem.at needs a PLMap, not NoneType",
        ),
        (
            lambda: encode_point(InverseSystem.constant(None), (F(1, 2), F(1, 4))),
            "InverseSystem.at needs a PLMap, not NoneType",
        ),
        (
            lambda: encode_point(InverseSystem.constant(None), (F(1, 2),)),
            "InverseSystem.at needs a PLMap, not NoneType",
        ),
        # a whole vertex list, branch word, trajectory or child tuple names its slot
        (lambda: PLMap((0, 1)), "PLMap needs a sequence of (x, y) vertices, not (0, 1)"),
        (lambda: PLMap(5), "PLMap needs a sequence of (x, y) vertices, not 5"),
        (lambda: PLMap("0,1"), "PLMap needs a sequence of (x, y) vertices, not '0,1'"),
        # so does a vertex of another length than two
        (lambda: PLMap(((0, 0, 0), (1, 1))), "PLMap needs a sequence of (x, y) vertices, not ((0, 0, 0), (1, 1))"),
        (lambda: PLMap(((0,), (1, 1))), "PLMap needs a sequence of (x, y) vertices, not ((0,), (1, 1))"),
        (
            lambda: decode_point(SYSTEM, BranchCode(F(1, 2), 5)),
            "decode_point needs a tuple of branch indices, not int",
        ),
        (lambda: encode_point(SYSTEM, 5), "encode_point needs a sequence of rationals, not int"),
        (lambda: encode_point(SYSTEM, "1/2"), "encode_point needs a sequence of rationals, not str"),
        (lambda: BranchNode(F(1, 2), 5), "BranchNode needs a tuple of children, not int"),
        (lambda: BranchNode(F(1, 2), [BranchNode(0)]), "BranchNode needs a tuple of children, not list"),
        (lambda: compress_len(None, "01"), "compress_len needs a Compressor, not NoneType"),
        (lambda: compress_len(runlength_compressor, "01"), "compress_len needs a Compressor, not function"),
        # every reader of a compressor's length names itself
        (
            lambda: precision_complexity((F(1, 3),), 2, None),
            "precision_complexity needs a Compressor, not NoneType",
        ),
        (
            lambda: schnorr_dims((F(1, 3),), runlength_compressor, [2, 3]),
            "precision_complexity needs a Compressor, not function",
        ),
        (
            lambda: co_compressible_check("0101", None, lambda k: k + 1, F(1, 2), 1),
            "co_compressible_check needs a Compressor, not NoneType",
        ),
        # a prefix-free machine refuses its base when it is built
        (lambda: prefixfree_transform(None), "PrefixFreeMachine needs a Compressor, not NoneType"),
    ],
)
def test_wrong_types(call, expected):
    with pytest.raises(PreconditionError) as info:
        call()
    assert str(info.value) == expected


@pytest.mark.parametrize(
    "call",
    [
        lambda: kappa_map(0.5, _two_sided(), (RationalPoint((0,)), RationalPoint((1,)))),
        lambda: complement_distance(0.5, interval_set(F(1, 4), F(3, 4))),
        lambda: complement_distance("1/2", interval_set(F(1, 4), F(3, 4))),
        lambda: ball(F(1, 2), F(1, 4)),
        lambda: PointCloud(1, (F(1, 2),)),
        lambda: precision_candidates(F(1, 2), 3),
    ],
)
def test_a_point_must_be_an_iterable_of_rationals(call):
    with pytest.raises(ValueError, match="^not a point: "):
        call()


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda: RationalPoint(0.5), "not a point: 0.5"),
        (lambda: RationalPoint("1/2"), "not a point: '1/2'"),
        (lambda: RationalPoint("1"), "not a point: '1'"),
        (lambda: Box(0.5), "not a box: 0.5"),
        (lambda: Box("1/2"), "not a box: '1/2'"),
        (lambda: Box((F(1, 2),)), "not a box: (Fraction(1, 2),)"),
        (lambda: PointCloud(1, 0.5), "not a point set: 0.5"),
        (lambda: PointCloud(1, "1/2"), "not a point set: '1/2'"),
    ],
)
def test_a_whole_point_or_box_slot_names_the_value(call, expected):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == expected


@pytest.mark.parametrize(
    "call, expected",
    [
        # the named constructors and the fields check alike
        (lambda: BoundSeq("constant", 2), "bound sequence values must be at least 3"),
        (lambda: BoundSeq("constant"), "bound sequence values must be at least 3"),
        (lambda: BoundSeq.constant(2), "bound sequence values must be at least 3"),
        (lambda: BoundSeq("affine", 2), "affine bound sequence needs offset >= 3"),
        (lambda: BoundSeq.affine(2), "affine bound sequence needs offset >= 3"),
        (lambda: BoundSeq("table", table=(5, 2)), "bound sequence values must be at least 3"),
        (lambda: BoundSeq("table", table=(5,), tail=2), "bound sequence values must be at least 3"),
        (lambda: BoundSeq.from_table([5], 2), "bound sequence values must be at least 3"),
        (lambda: BoundSeq("bogus"), "unknown bound sequence kind 'bogus'"),
        (lambda: BoundSeq("bogus", 3), "unknown bound sequence kind 'bogus'"),
        (lambda: BoundSeq(None, 3), "unknown bound sequence kind None"),
        (lambda: Coord("irrational", 0.5), "irrational coordinate holds no value"),
        (lambda: Coord("unknown", 0.5), "unknown coordinate holds no value"),
        (lambda: Coord("unknown", F(1, 2)), "unknown coordinate holds no value"),
        (lambda: Coord("rational"), "rational coordinate needs a value"),
        (lambda: Coord("real", F(1, 2)), "kind must be rational, irrational or unknown"),
    ],
)
def test_records_check_their_fields(call, expected):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == expected


def test_contains_reads_its_point():
    s = open_set(ball((F(1, 2), F(1, 2)), F(1, 4)))
    box = Box(((F(1, 4), F(3, 4)), (F(1, 4), F(3, 4))))
    for member in (s, box, ball((F(1, 2), F(1, 2)), F(1, 4))):
        assert member.contains(RationalPoint((F(1, 2), F(1, 2))))
        assert member.contains(("1/2", 1 - Half(1, 2)))
        with pytest.raises(ValueError, match="^not a point: '1/2'$"):
            member.contains("1/2")
        with pytest.raises(PreconditionError, match="^point dimension differs from the "):
            member.contains((F(1, 2),))
    # the cube (0, 2) holds 3/2, but the set is read inside the unit box
    assert not open_set(ball((1,), 1)).contains(("3/2",))
    assert not ball((1,), 1).contains(("3/2",))
    assert Box(((0, 2),)).contains(("3/2",))


def test_every_public_callable_is_listed():
    public = {name for name in effdim.__all__ if callable(getattr(effdim, name))}
    assert not set(TABLE) & set(EXEMPT)
    assert public - set(TABLE) - set(EXEMPT) == set()
    assert set(TABLE) | set(EXEMPT) <= public
