"""The cover reference, tests/cover_reference.py, checked on its own.

The cover-layer differential tests trust the reference as their
independent side, so its imports are pinned to the standard library and
effdim's PreconditionError, it reads no attribute that would reach into
an effdim object's derived data, and its answers are checked against
closed forms that can be worked out by hand.
"""

import ast
import itertools
import sys
from fractions import Fraction as F
from pathlib import Path

import cover_reference as ref

CAP = 2**22
# the depth-1 carpet: the cells [i/3, (i+1)/3] x [j/3, (j+1)/3] but the middle one
CELLS = [(i, j) for i, j in itertools.product(range(3), repeat=2) if (i, j) != (1, 1)]
CARPET = tuple(((F(i, 3), F(i + 1, 3)), (F(j, 3), F(j + 1, 3))) for i, j in CELLS)


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


def test_reads_nothing_of_covers_nerve():
    # no covers_nerve module, no kernel or derived datum (_ints, _complement,
    # _pass), and no cubes() or contains() of an effdim set
    tree = ast.parse(Path(ref.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            assert not node.attr.startswith("_") and node.attr not in ("covers_nerve", "cubes", "contains"), node.attr
        elif isinstance(node, ast.Name):
            assert node.id not in ("cn", "covers_nerve"), node.id


def test_one_balls_complement_distance_at_its_centre_is_its_radius():
    # inside the box the nearest uncovered points are the cube's faces; a
    # cube past the box at 0 is nearest its face at 3/4; one holding the box has no complement
    assert ref.complement_distance((F(1, 2), F(1, 3)), (((F(1, 2), F(1, 3)), F(1, 4)),), CAP) == F(1, 4)
    assert ref.complement_distance((F(1, 4),), (((F(1, 4),), F(1, 2)),), CAP) == F(1, 2)
    assert ref.complement_distance((F(1, 2),), (((F(1, 2),), F(3, 4)),), CAP) is None


def test_interval_cover_multiplicity():
    # [0, 3/5) and (2/5, 1] share (2/5, 3/5); k intervals around 1/2 all share it
    two_sided = ((((F(0),), F(3, 5)),), (((F(1),), F(3, 5)),))
    interval = (((F(0), F(1)),),)
    assert ref.multiplicity(two_sided, interval) == 2
    around = tuple((((F(1, 2),), F(1, k)),) for k in range(2, 7))
    assert ref.multiplicity(around, interval) == 5
    assert ref.masks(two_sided, interval) == {frozenset({0}), frozenset({0, 1}), frozenset({1})}


def test_carpet_nerve_under_its_padded_cells():
    # the radius-1/3 balls around the depth-1 carpet's cells are its ladder's
    # padded level-1 family; two meet when their cells are neighbours, and
    # the faces are the four corner triangles of neighbours, the middle
    # cell being absent, and their subsets
    level0 = (((F(0), F(1)), (F(0), F(1))),)
    family = list(ref.ladder(CARPET, [level0, CARPET]))[3]
    centres = [tuple(c * 6 for c in centre) for ((centre, _),) in family]
    assert centres == [(2 * i + 1, 2 * j + 1) for i, j in CELLS]
    assert {r for ((_, r),) in family} == {F(1, 3)}
    index = {cell: k for k, cell in enumerate(CELLS)}
    triangles = [((0, 0), (1, 0), (0, 1)), ((2, 0), (1, 0), (2, 1)), ((0, 2), (1, 2), (0, 1)), ((2, 2), (1, 2), (2, 1))]
    faces = {
        frozenset(index[c] for c in face) for t in triangles for r in (1, 2, 3) for face in itertools.combinations(t, r)
    }
    assert ref.nerve_faces(family, CARPET) == faces
    assert len(faces) == 8 + 12 + 4


def test_rank_of_a_singular_matrix():
    # the second row is twice the first and the third a copy of it; in the
    # second matrix the second row is three times the first
    assert ref.rank([[1, 2, 3], [2, 4, 6], [1, 2, 3]]) == 1
    assert ref.rank([[F(1, 2), F(1, 3), 0], [F(3, 2), 1, 0], [0, 0, F(5, 7)]]) == 2
    assert ref.rank([[0, 0], [0, 0]]) == 0
    assert ref.rank([]) == 0
