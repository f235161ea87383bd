"""The inverse-limit reference, tests/pl_reference.py, checked on its own.

tests/test_inverse_limits.py trusts the reference as the independent side
of its differential tests, so the reference's imports are pinned to the
standard library and effdim's PreconditionError, and its answers to
closed forms that can be checked by hand.
"""

import ast
import sys
from fractions import Fraction as F
from pathlib import Path

import pl_reference as ref

TENT = ((F(0), F(0)), (F(1, 2), F(1)), (F(1), F(0)))
FIVE = (
    (F(0), F(0)), (F(1, 5), F(1, 6)), (F(2, 5), F(4, 5)), (F(3, 5), F(1, 5)), (F(4, 5), F(5, 6)), (F(1), F(1)),
)
CAP = 2**14


def test_imports_only_the_standard_library_and_precondition_error():
    tree = ast.parse(Path(ref.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "effdim" and node.level == 0:
            assert [alias.name for alias in node.names] == ["PreconditionError"]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0 and node.module.split(".")[0] in sys.stdlib_module_names, node.module
        elif isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name.split(".")[0] in sys.stdlib_module_names, alias.name


def test_closed_forms():
    # the tent map's preimages of y are y/2 and 1 - y/2, one when y = 1
    for y in (F(0), F(1, 3), F(1, 2), F(5, 7), F(1)):
        assert ref.preimages(TENT, y) == tuple(sorted({y / 2, 1 - y / 2}))
    # 2x = x and 2 - 2x = x fix 0 and 2/3; doubling mod the fold gives the
    # 2-cycle 2/5 -> 4/5 and the 3-cycles 2/9 -> 4/9 -> 8/9 and 2/7 -> 4/7 -> 6/7,
    # each traced from its smallest point and ordered by it within a period
    assert ref.cycles(TENT, 3, CAP) == (
        (F(0),), (F(2, 3),), (F(2, 5), F(4, 5)), (F(2, 9), F(4, 9), F(8, 9)), (F(2, 7), F(4, 7), F(6, 7)),
    )
    # the five-segment map fixes 0, 1/2 and 1 on its slope-5/6 and slope-(-3)
    # segments, and 14/65 and 51/65 on its two slope-19/6 ones
    assert ref.cycles(FIVE, 1, CAP) == ((F(0),), (F(14, 65),), (F(1, 2),), (F(51, 65),), (F(1),))
    # 3/16 -> its smaller tent preimage 3/32 -> the larger one of that, 1 - 3/64
    traj = ref.decode_point(lambda n: TENT, F(3, 16), (0, 1))
    assert traj == (F(3, 16), F(3, 32), F(61, 64))
    assert ref.encode_point(lambda n: TENT, traj) == (F(3, 16), (0, 1), frozenset())
    # 1 is the tent's critical value, so the level that holds it is an ex_time
    assert ref.encode_point(lambda n: TENT, (F(1), F(1, 2), F(3, 4), F(3, 8))) == (F(1), (0, 1, 0), frozenset({0}))
