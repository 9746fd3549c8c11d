import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leonard_kit import leonard, linalg, split
from leonard_kit.adjacency import are_adjacent
from leonard_kit.errors import NotADecomposition, NotArithmetic
from leonard_kit.flags import decomposition_from_flags, induced_flag, standard_flag_set
from leonard_kit.leonard import Decomposition, Kind, standard_decompositions, verify_leonard
from leonard_kit.linalg import (
    ExactMatrix,
    Subspace,
    bidiagonal_in_basis,
    conjugate_all,
    represent_all_in_basis,
)
from leonard_kit.sequences import (
    SequenceClass,
    SequenceTag,
    check_three_term_ratio,
    classify_sequence,
)
from leonard_kit.sl2 import companions
from leonard_kit.split import (
    BidiagonalShape,
    SplitType,
    bidiagonal_shape,
    split_type,
    split_type_via_flags,
)


def test_diagonal_is_both():
    assert bidiagonal_shape(ExactMatrix.diagonal([1, 2, 3])) is BidiagonalShape.BOTH


def test_lower_bidiagonal():
    assert bidiagonal_shape(ExactMatrix([[1, 0], [5, 2]])) is BidiagonalShape.LOWER


def test_upper_bidiagonal():
    assert bidiagonal_shape(ExactMatrix([[1, 7], [0, 2]])) is BidiagonalShape.UPPER


def test_irreducible_tridiagonal_is_neither():
    m = ExactMatrix([[1, 2, 0], [3, 4, 5], [0, 6, 7]])
    assert bidiagonal_shape(m) is BidiagonalShape.NEITHER


def test_shape_invariant_under_diagonal_conjugation():
    # rescaling the basis vectors never changes the zero pattern
    rng = random.Random(11)
    m = ExactMatrix([[1, 0, 0], [5, 2, 0], [0, 7, 3]])
    for _ in range(10):
        scale = ExactMatrix.diagonal([Fraction(rng.randint(1, 9)) for _ in range(3)])
        assert bidiagonal_shape(scale.inverse() * m * scale) is bidiagonal_shape(m)


def _band_scan_shape(m):
    """Reference: scan every entry off the two bands of diagonals j - i."""

    def zero_off(band):
        n = m.rows
        return all(m[i, j] == 0 for i in range(n) for j in range(n) if j - i not in band)

    if zero_off((0, -1)):
        return BidiagonalShape.BOTH if zero_off((0, 1)) else BidiagonalShape.LOWER
    return BidiagonalShape.UPPER if zero_off((0, 1)) else BidiagonalShape.NEITHER


def test_shape_matches_the_band_scan():
    rng = random.Random(20)
    seen = set()
    for _ in range(300):
        n = rng.randint(1, 5)
        m = ExactMatrix(
            [
                [
                    Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                    if rng.random() < (0.9 if i == j else 0.5 if abs(i - j) == 1 else 0.1)
                    else 0
                    for j in range(n)
                ]
                for i in range(n)
            ]
        )
        shape = bidiagonal_shape(m)
        assert shape is _band_scan_shape(m)
        seen.add(shape)
    assert seen == set(BidiagonalShape)


def test_verdicts_build_no_change_of_basis(kraw, standard_triple, monkeypatch):
    """Recognition reads zero patterns off the integer solve, and split and
    adjacency test span membership with no solve at all, so none of them
    needs a fraction-building change of basis."""
    kraw_pair, member, other = kraw(3, Fraction(1, 3)), *standard_triple(3)[1:]

    def refuse(*args):
        raise AssertionError("a verdict built S^-1 M S in fractions")

    def refuse_solve(*args):
        raise AssertionError("a split verdict solved in the basis")

    for module in (linalg, leonard, split):
        for name in ("represent_in_basis", "represent_all_in_basis"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    for pair in (kraw_pair, member):
        assert verify_leonard(pair.a, pair.a_star) == pair
    monkeypatch.setattr(linalg, "_solve", refuse_solve)
    for pair in (kraw_pair, member):
        for dec in standard_decompositions(pair, Kind.A):
            assert split_type(dec, pair) is SplitType.NONE
    dec = standard_decompositions(other, Kind.A)[0]
    assert split_type(dec, member) in (SplitType.LU, SplitType.UL)
    assert not are_adjacent(kraw_pair, kraw_pair)
    assert are_adjacent(member, other)


# --- span membership against the change of basis -------------------------


def _split_by_change_of_basis(dec, pair):
    """The verdict read off the zero patterns of S^-1 A S and S^-1 A* S,
    built by one solve in the basis of component representatives, with
    no span membership test."""
    reps = [c.representative() for c in dec.components]
    shape_a, shape_a_star = map(
        bidiagonal_shape, represent_all_in_basis((pair.a, pair.a_star), reps)
    )
    lower = (BidiagonalShape.LOWER, BidiagonalShape.BOTH)
    upper = (BidiagonalShape.UPPER, BidiagonalShape.BOTH)
    lu = shape_a in lower and shape_a_star in upper
    ul = shape_a in upper and shape_a_star in lower
    return split._verdict(lu, ul, pair)


def _integer_conjugate(pair, rng):
    n = pair.d + 1
    while True:
        t = ExactMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        if t.det() != 0:
            return verify_leonard(*conjugate_all((pair.a, pair.a_star), t))


@given(st.integers(1, 5), st.integers(0, 2), st.booleans(), st.data())
@settings(max_examples=80, deadline=None)
def test_membership_matches_the_change_of_basis_on_random_bases(
    standard_triple, d, member, swap, data
):
    pair = standard_triple(d)[member]
    pair = pair.swapped() if swap else pair
    entries = st.integers(-3, 3).map(Fraction)
    vectors = data.draw(
        st.lists(st.lists(entries, min_size=d + 1, max_size=d + 1), min_size=d + 1, max_size=d + 1)
        .filter(lambda rows: ExactMatrix(rows).det() != 0)
    )
    dec = Decomposition(tuple(Subspace.line(v) for v in vectors))
    assert split_type(dec, pair) is _split_by_change_of_basis(dec, pair)


@pytest.mark.parametrize("d", range(1, 5))
def test_membership_matches_the_change_of_basis_on_standard_bases(standard_triple, d):
    """The standard decompositions of the triple members, their swapped
    pairs and random integer conjugates, each against every one of them."""
    members = list(standard_triple(d))
    rng = random.Random(d)
    members += [pair.swapped() for pair in members[:3]]
    members += [_integer_conjugate(pair, rng) for pair in members[:3]]
    decs = {
        dec
        for pair in members
        for dec in pair.a_standard_decompositions + pair.a_star_standard_decompositions
    }
    verdicts = set()
    for dec in decs:
        for pair in members:
            verdict = split_type(dec, pair)
            assert verdict is _split_by_change_of_basis(dec, pair)
            verdicts.add(verdict)
    assert verdicts == {SplitType.LU, SplitType.UL, SplitType.NONE}


def test_membership_gives_each_verdict_as_the_change_of_basis_does(kraw):
    pair = kraw(2, Fraction(1, 3))
    flag_set = standard_flag_set(pair)
    mixed = decomposition_from_flags(flag_set.a_star_flags[0], flag_set.a_flags[0])
    point = verify_leonard(ExactMatrix([[1]]), ExactMatrix([[2]]))
    cases = [
        (mixed, pair, SplitType.LU),
        (mixed.inversion(), pair, SplitType.UL),
        (standard_decompositions(point, Kind.A)[0], point, SplitType.BOTH),
        (standard_decompositions(pair, Kind.A)[0], pair, SplitType.NONE),
    ]
    for dec, p, verdict in cases:
        assert split_type(dec, p) is _split_by_change_of_basis(dec, p) is verdict


@pytest.mark.parametrize("d", [2, 4])
def test_membership_holds_for_a_killed_basis_vector(standard_triple, d):
    """At even d each operator has the eigenvalue 0, so its standard basis
    holds a vector it sends to 0, which lies in every span."""
    members = standard_triple(d)
    for pair in members:
        for dec in pair.a_standard_decompositions:
            reps = [c.representative() for c in dec.components]
            assert any(not any(pair.a.apply(s)) for s in reps)
            assert bidiagonal_in_basis(pair.a, reps, 1) and bidiagonal_in_basis(pair.a, reps, -1)
            for other in members:
                assert split_type(dec, other) is _split_by_change_of_basis(dec, other)


def test_membership_reads_the_bidiagonal_side():
    unit = [tuple(Fraction(int(i == k)) for i in range(3)) for k in range(3)]
    lower = ExactMatrix([[1, 0, 0], [5, 2, 0], [0, 7, 3]])
    cases = [
        (lower, (True, False)),
        (lower.transpose(), (False, True)),
        (ExactMatrix.diagonal([1, 0, -1]), (True, True)),
        (ExactMatrix([[1, 2, 0], [3, 4, 5], [0, 6, 7]]), (False, False)),
    ]
    for m, sides in cases:
        assert (bidiagonal_in_basis(m, unit, 1), bidiagonal_in_basis(m, unit, -1)) == sides
    assert bidiagonal_in_basis(ExactMatrix([[5]]), [(Fraction(3),)], 1)


def test_own_standard_decomposition_is_not_split(kraw):
    pair = kraw(2, Fraction(1, 2))
    for kind in Kind:
        for dec in standard_decompositions(pair, kind):
            assert split_type(dec, pair) is SplitType.NONE
            assert split_type_via_flags(dec, pair) is SplitType.NONE


def test_d0_is_both():
    pair = verify_leonard(ExactMatrix([[1]]), ExactMatrix([[2]]))
    dec = standard_decompositions(pair, Kind.A)[0]
    assert split_type(dec, pair) is SplitType.BOTH
    assert split_type_via_flags(dec, pair) is SplitType.BOTH


def test_standard_basis_decomposition_is_ul_for_lifted_companion(standard_triple):
    # the unit decomposition diagonalizes the first pair and splits the second
    pairs = standard_triple(2)
    unit = Decomposition(
        tuple(Subspace.line(tuple(1 if i == k else 0 for i in range(3))) for k in range(3))
    )
    b_pair = pairs[1]
    assert bidiagonal_shape(b_pair.a) is BidiagonalShape.UPPER
    assert bidiagonal_shape(b_pair.a_star) is BidiagonalShape.LOWER
    assert split_type(unit, b_pair) is SplitType.UL
    assert split_type(unit.inversion(), b_pair) is SplitType.LU


def test_split_inversion_swaps_lu_and_ul(standard_triple):
    for d in (1, 2, 3):
        pairs = standard_triple(d)
        a_pair, b_pair = pairs[0], pairs[1]
        for dec in standard_decompositions(a_pair, Kind.A):
            forward = split_type(dec, b_pair)
            backward = split_type(dec.inversion(), b_pair)
            assert {forward, backward} == {SplitType.LU, SplitType.UL}


def test_routes_agree_on_all_flag_combinations(kraw, standard_triple):
    for pair in (kraw(2, Fraction(1, 2)), standard_triple(3)[1]):
        flags = standard_flag_set(pair).all_flags()
        for x in flags:
            for y in flags:
                if x == y:
                    continue
                dec = decomposition_from_flags(x, y)
                assert split_type(dec, pair) is split_type_via_flags(dec, pair)


def test_mixed_flag_decomposition_is_lu(kraw):
    pair = kraw(2, Fraction(1, 3))
    flag_set = standard_flag_set(pair)
    x = flag_set.a_star_flags[0]
    y = flag_set.a_flags[0]
    dec = decomposition_from_flags(x, y)
    assert split_type(dec, pair) is SplitType.LU
    assert split_type_via_flags(dec, pair) is SplitType.LU


def test_random_decomposition_is_none_from_both_routes(kraw):
    rng = random.Random(33)
    pair = kraw(2, Fraction(1, 2))
    found = 0
    while found < 5:
        vecs = [[Fraction(rng.randint(-4, 4)) for _ in range(3)] for _ in range(3)]
        if ExactMatrix(vecs).det() == 0 or any(all(x == 0 for x in v) for v in vecs):
            continue
        dec = Decomposition(tuple(Subspace.line(v) for v in vecs))
        if split_type(dec, pair) is SplitType.NONE:
            assert split_type_via_flags(dec, pair) is SplitType.NONE
            found += 1


def test_wrong_ambient_rejected(kraw):
    pair = kraw(2, Fraction(1, 2))
    dec = Decomposition((Subspace.line((1, 0)), Subspace.line((0, 1))))
    with pytest.raises(NotADecomposition):
        split_type(dec, pair)
    with pytest.raises(NotADecomposition):
        split_type_via_flags(dec, pair)


# --- a Leonard pair outside the Krawtchouk family -----------------------


def q_racah_split_form(d, q=Fraction(2), s=3, s_star=5, r1=7):
    """The q-Racah pair with theta_0 = theta*_0 = 0 and h = h* = 1, in split
    form: A is lower bidiagonal with theta_i on the diagonal and 1 below it,
    A* upper bidiagonal with theta*_i on the diagonal and phi_i at (i-1, i)."""
    r2 = s * s_star * q ** (d + 1) / r1
    theta = [(1 - q**i) * (1 - s * q ** (i + 1)) / q**i for i in range(d + 1)]
    theta_star = [(1 - q**i) * (1 - s_star * q ** (i + 1)) / q**i for i in range(d + 1)]
    phi = [
        q ** (1 - 2 * i) * (1 - q**i) * (1 - q ** (i - d - 1)) * (1 - r1 * q**i) * (1 - r2 * q**i)
        for i in range(1, d + 1)
    ]
    n = d + 1
    a = ExactMatrix([[theta[i] if i == j else int(i == j + 1) for j in range(n)] for i in range(n)])
    a_star = ExactMatrix(
        [[theta_star[i] if i == j else phi[i] if j == i + 1 else 0 for j in range(n)]
         for i in range(n)]
    )
    return a, a_star


# s = s* = 0 gives the affine q-Krawtchouk family: theta_i = theta*_i = 2^-i - 1
AFFINE_Q_KRAWTCHOUK = [
    pytest.param(d, {"s": 0, "s_star": 0, "r1": r1}, id=f"affine-q-krawtchouk-{name}-{d}")
    for r1, name in [(7, "r7"), (Fraction(1, 5), "r1over5")]
    for d in range(2, 6)
]


@pytest.mark.parametrize(
    "d, family", [pytest.param(d, {}, id=str(d)) for d in range(1, 6)] + AFFINE_Q_KRAWTCHOUK
)
def test_q_racah_pair_keeps_its_sequences_flags_and_split_routes(d, family):
    # no q-Racah sequence branch is asserted: at d >= 3 theta mixes q^i and q^-i terms
    a, a_star = q_racah_split_form(d, **family)
    plain = verify_leonard(a, a_star)
    n = d + 1
    unit = Decomposition(tuple(Subspace.line([int(i == k) for i in range(n)]) for k in range(n)))
    assert split_type(unit, plain) is split_type_via_flags(unit, plain) is SplitType.LU
    rng = random.Random(d)
    while True:
        t = ExactMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        if t.det() != 0:
            break
    pair = verify_leonard(*conjugate_all((a, a_star), t))
    assert pair.eigenvalue_sequences == plain.eigenvalue_sequences
    assert pair.dual_eigenvalue_sequences == plain.dual_eigenvalue_sequences
    for dec in pair.a_standard_decompositions + pair.a_star_standard_decompositions:
        assert decomposition_from_flags(induced_flag(dec), induced_flag(dec.inversion())) == dec
    ordered = list(permutations(standard_flag_set(pair).all_flags(), 2))
    assert len(ordered) == 12
    for x, y in ordered:
        dec = decomposition_from_flags(x, y)
        assert split_type(dec, pair) is split_type_via_flags(dec, pair)
    if family:
        theta, theta_star = pair.eigenvalue_sequences[0], pair.dual_eigenvalue_sequences[0]
        for seq in (theta, theta_star):
            assert classify_sequence(seq) == SequenceClass(
                SequenceTag.Q_CLASSICAL, alpha=1, beta=-1, q=Fraction(1, 2)
            )
        ratio = Fraction(7, 2) if d >= 3 else None
        assert check_three_term_ratio(theta, theta_star) == (True, ratio)
        for p in (plain, pair):
            with pytest.raises(NotArithmetic):
                companions(p)


# --- an inversion flips the split type ------------------------------------

FLIP = {
    SplitType.LU: SplitType.UL,
    SplitType.UL: SplitType.LU,
    SplitType.BOTH: SplitType.BOTH,
    SplitType.NONE: SplitType.NONE,
}


def assert_inversion_flips(dec, pair):
    assert split_type(dec.inversion(), pair) is FLIP[split_type(dec, pair)]


@pytest.mark.parametrize("d", range(5))
def test_inversion_flips_split_type_of_standard_decompositions(standard_triple, d):
    # the reversed basis turns each matrix R into J R J, which swaps lower
    # and upper bidiagonal; adjacency tests one orientation per kind on this
    members = list(standard_triple(d))
    members += [pair.swapped() for pair in members]
    for source in members:
        decs = source.a_standard_decompositions + source.a_star_standard_decompositions
        flags = standard_flag_set(source).all_flags() if d >= 1 else ()
        decs += tuple(
            decomposition_from_flags(x, y) for x in flags for y in flags if x != y
        )
        for dec in decs:
            for pair in members:
                assert_inversion_flips(dec, pair)


@given(st.integers(1, 3), st.integers(0, 2), st.data())
@settings(max_examples=60, deadline=None)
def test_inversion_flips_split_type_of_random_decompositions(standard_triple, d, member, data):
    pair = standard_triple(d)[member]
    entries = st.integers(-3, 3).map(Fraction)
    vectors = data.draw(
        st.lists(st.lists(entries, min_size=d + 1, max_size=d + 1), min_size=d + 1, max_size=d + 1)
        .filter(lambda rows: ExactMatrix(rows).det() != 0)
    )
    assert_inversion_flips(Decomposition(tuple(Subspace.line(v) for v in vectors)), pair)
