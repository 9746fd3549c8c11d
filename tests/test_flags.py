from fractions import Fraction

import pytest

from leonard_kit.errors import AmbientMismatch, DegenerateDimension, NotOpposite
from leonard_kit.flags import (
    Flag,
    are_opposite,
    decomposition_from_flags,
    induced_flag,
    principal_relation,
    standard_flag_set,
)
from leonard_kit.leonard import Decomposition, Kind, standard_decompositions, verify_leonard
from leonard_kit.linalg import ExactMatrix, Subspace


def line_dec(*vectors):
    return Decomposition(tuple(Subspace.line(v) for v in vectors))


def test_induced_flag_d1():
    flag = induced_flag(line_dec((1, 0), (0, 1)))
    assert flag.components == (Subspace.line((1, 0)), Subspace.full(2))
    inverted = induced_flag(line_dec((0, 1), (1, 0)))
    assert inverted.components == (Subspace.line((0, 1)), Subspace.full(2))


def test_induced_flag_partial_sums():
    dec = line_dec((1, 0, 0), (1, 1, 0), (0, 0, 1))
    flag = induced_flag(dec)
    assert flag.components[0] == Subspace.line((1, 0, 0))
    assert flag.components[1] == Subspace.span(3, [(1, 0, 0), (0, 1, 0)])
    assert flag.components[2] == Subspace.full(3)


def test_opposite_of_inversion():
    dec = line_dec((1, 0, 0), (1, 1, 0), (0, 0, 1))
    assert are_opposite(induced_flag(dec), induced_flag(dec.inversion()))


def test_flag_not_opposite_to_itself():
    flag = induced_flag(line_dec((1, 0), (0, 1)))
    assert not are_opposite(flag, flag)


def test_distinct_lines_in_plane_are_opposite():
    f = induced_flag(line_dec((1, 0), (0, 1)))
    g = induced_flag(line_dec((1, 1), (1, 0)))
    assert are_opposite(f, g)


def test_are_opposite_shape_mismatch():
    f = induced_flag(line_dec((1, 0), (0, 1)))
    g = induced_flag(line_dec((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(AmbientMismatch):
        are_opposite(f, g)


def test_bijection_round_trip():
    dec = line_dec((1, 2, 0), (0, 1, 1), (3, 0, 1))
    f = induced_flag(dec)
    g = induced_flag(dec.inversion())
    assert decomposition_from_flags(f, g) == dec
    assert decomposition_from_flags(g, f) == dec.inversion()


def test_decomposition_from_equal_flags_rejected():
    f = induced_flag(line_dec((1, 0), (0, 1)))
    with pytest.raises(NotOpposite):
        decomposition_from_flags(f, f)


def test_flag_validation():
    with pytest.raises(ValueError):
        Flag((Subspace.line((1, 0)),))  # top component is not the whole plane
    with pytest.raises(ValueError):
        Flag((Subspace.full(2), Subspace.full(2)))


def test_flag_rejects_components_that_are_not_nested():
    line = Subspace.line((1, 0, 0))
    plane = Subspace.span(3, [(0, 1, 0), (0, 0, 1)])
    with pytest.raises(ValueError, match="must be nested"):
        Flag((line, plane, Subspace.full(3)))
    assert Flag((line, Subspace.span(3, [(1, 0, 0), (0, 1, 0)]), Subspace.full(3))).d == 2


def test_standard_flag_set_d1():
    pair = verify_leonard(ExactMatrix.diagonal([1, -1]), ExactMatrix([[0, 1], [1, 0]]))
    flag_set = standard_flag_set(pair)
    bottoms = {f.components[0] for f in flag_set.all_flags()}
    assert bottoms == {
        Subspace.line((1, 0)),
        Subspace.line((0, 1)),
        Subspace.line((1, 1)),
        Subspace.line((1, -1)),
    }
    assert len(flag_set.as_set()) == 4


def test_standard_flag_set_d0():
    pair = verify_leonard(ExactMatrix([[2]]), ExactMatrix([[3]]))
    flag_set = standard_flag_set(pair)
    assert len(flag_set.as_set()) == 1


def test_flags_mutually_opposite(kraw):
    pair = kraw(2, Fraction(1, 2))
    flags = standard_flag_set(pair).all_flags()
    assert len(set(flags)) == 4
    for i, f in enumerate(flags):
        for g in flags[i + 1 :]:
            assert are_opposite(f, g)


def test_a_standard_flags_disjoint_from_dual(kraw):
    for d in (1, 2, 3):
        pair = kraw(d, Fraction(1, 3))
        flag_set = standard_flag_set(pair)
        assert not set(flag_set.a_flags) & set(flag_set.a_star_flags)


def test_pair_of_a_standard_flags_recovers_decompositions(kraw):
    pair = kraw(2, Fraction(1, 2))
    x, y = standard_flag_set(pair).a_flags
    decs = set(standard_decompositions(pair, Kind.A))
    assert decomposition_from_flags(x, y) in decs
    assert decomposition_from_flags(y, x) in decs
    assert decomposition_from_flags(x, y) == decomposition_from_flags(y, x).inversion()


def test_principal_relation_partition(kraw):
    pair = kraw(1, Fraction(1, 2))
    relation = principal_relation(pair)
    blocks = {
        frozenset(f.components[0].representative() for f in block)
        for block in relation.blocks
    }
    assert blocks == {
        frozenset({(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))}),
        frozenset({(Fraction(1), Fraction(1)), (Fraction(1), Fraction(-1))}),
    }
    assert sum(len(b) for b in relation.blocks) == 4


def test_principal_relation_unordered(kraw):
    pair = kraw(2, Fraction(1, 3))
    assert principal_relation(pair) == principal_relation(pair.swapped())


def test_principal_relation_degenerate():
    pair = verify_leonard(ExactMatrix([[1]]), ExactMatrix([[2]]))
    with pytest.raises(DegenerateDimension):
        principal_relation(pair)
