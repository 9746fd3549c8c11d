import random
from fractions import Fraction

import pytest

from leonard_kit import flags
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
from leonard_kit.linalg import ExactMatrix, Subspace, subspace_intersection


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
    with pytest.raises(AmbientMismatch, match="^flags live in different ambient spaces$"):
        decomposition_from_flags(f, g)


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


# --- building [fg] decides opposition -----------------------------------


def _reference_decomposition_from_flags(f, g):
    """The opposition test first, then the componentwise intersections."""
    if not are_opposite(f, g):
        raise NotOpposite("the flags are not opposite")
    d = f.d
    return Decomposition(
        tuple(subspace_intersection(f.components[i], g.components[d - i]) for i in range(d + 1))
    )


def _random_decomposition(rng, n, lines=()):
    """Random lines of Q^n with a direct sum, some of them maybe from `lines`."""
    while True:
        vecs = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(n)]
        vecs = [rng.choice(lines) if lines and rng.random() < 0.4 else v for v in vecs]
        if ExactMatrix(vecs).det() != 0:
            return line_dec(*vecs)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_decomposition_from_flags_raises_exactly_on_flags_that_are_not_opposite(n):
    rng = random.Random(n)
    outcomes = set()
    for _ in range(40):
        dec = _random_decomposition(rng, n)
        other = _random_decomposition(rng, n, [c.representative() for c in dec.components])
        f, g = induced_flag(dec), induced_flag(other)
        try:
            expected = _reference_decomposition_from_flags(f, g)
        except NotOpposite as exc:
            assert not are_opposite(f, g)
            with pytest.raises(NotOpposite) as excinfo:
                decomposition_from_flags(f, g)
            assert str(excinfo.value) == str(exc)
            outcomes.add(False)
            continue
        found = decomposition_from_flags(f, g)
        assert found == expected
        assert (induced_flag(found), induced_flag(found.inversion())) == (f, g)
        outcomes.add(True)
    assert outcomes == {True, False}


def _traced_intersections(monkeypatch):
    seen = []

    def traced(u, w):
        seen.append(subspace_intersection(u, w))
        return seen[-1]

    monkeypatch.setattr(flags, "subspace_intersection", traced)
    return seen


@pytest.mark.parametrize("n", [3, 4, 5])
def test_flag_against_itself_fails_at_a_plane(n, monkeypatch):
    # L_1 = F_1 ∩ F_{d-1} = F_1 is a plane once d >= 2; nothing past it is built
    f = induced_flag(line_dec(*[[int(i == k) for i in range(n)] for k in range(n)]))
    seen = _traced_intersections(monkeypatch)
    with pytest.raises(NotOpposite, match="^the flags are not opposite$"):
        decomposition_from_flags(f, f)
    assert [s.dim for s in seen] == [1, 2]


def test_lines_that_are_not_independent_fail(monkeypatch):
    e1, e2, e3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    f, g = induced_flag(line_dec(e1, e2, e3)), induced_flag(line_dec(e1, e3, e2))
    seen = _traced_intersections(monkeypatch)
    with pytest.raises(NotOpposite, match="^the flags are not opposite$") as excinfo:
        decomposition_from_flags(f, g)
    assert seen == [Subspace.line(e1)] * 3
    assert excinfo.value.__suppress_context__


def test_bijection_makes_no_opposition_pre_pass(kraw, monkeypatch):
    def no_pre_pass(f, g):
        raise AssertionError("are_opposite was called")

    decs = [line_dec((1, 2, 0), (0, 1, 1), (3, 0, 1))]
    decs += kraw(3, Fraction(1, 3)).a_standard_decompositions
    monkeypatch.setattr(flags, "are_opposite", no_pre_pass)
    for dec in decs:
        f, g = induced_flag(dec), induced_flag(dec.inversion())
        assert decomposition_from_flags(f, g) == dec
        assert decomposition_from_flags(g, f) == dec.inversion()


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
