import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leonard_kit import linalg, sl2
from leonard_kit.errors import (
    DependentVectors,
    InvalidP,
    NotArithmetic,
    NotKrawtchouk,
    NotTraceless,
    TheoremViolation,
    ZeroScale,
)
from leonard_kit.flags import standard_flag_set
from leonard_kit.leonard import verify_leonard
from leonard_kit.linalg import ExactMatrix, Subspace, commutator
from leonard_kit.sequences import SequenceTag, classify_sequence
from leonard_kit.split import split_type
from leonard_kit.sl2 import (
    ChevalleyBasis,
    KrawtchoukNormalForm,
    KrawtchoukParameters,
    Sl2Element,
    affine_transform,
    check_ptl,
    chevalley_from_basis,
    companions,
    construct_six,
    decompose_sl2,
    krawtchouk_normal_form,
    krawtchouk_pair,
    lift,
    matrix_with_eigenpairs,
    standard_generators,
    three_mutually_adjacent,
)

WITNESSES = ((1, 0), (0, 1), (1, 1), (1, -1))


def random_vector(rng):
    while True:
        v = (Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5)))
        if v != (0, 0):
            return v


def random_independent_quadruple(rng):
    while True:
        vs = [random_vector(rng) for _ in range(4)]
        if all(
            vs[i][0] * vs[j][1] != vs[i][1] * vs[j][0]
            for i in range(4)
            for j in range(i + 1, 4)
        ):
            return vs


# --- generators and Chevalley bases --------------------------------------


def test_standard_generators_d1():
    e, f, h = standard_generators(1)
    assert e == ExactMatrix([[0, 1], [0, 0]])
    assert f == ExactMatrix([[0, 0], [1, 0]])
    assert h == ExactMatrix.diagonal([1, -1])


def test_standard_generators_d2():
    e, f, h = standard_generators(2)
    assert e == ExactMatrix([[0, 2, 0], [0, 0, 1], [0, 0, 0]])
    assert f == ExactMatrix([[0, 0, 0], [1, 0, 0], [0, 2, 0]])
    assert h == ExactMatrix.diagonal([2, 0, -2])


@pytest.mark.parametrize("d", range(9))
def test_generator_bracket(d):
    e, f, h = standard_generators(d)
    assert commutator(e, f) == h


def test_chevalley_standard_pair():
    basis = chevalley_from_basis((1, 0), (0, 1))
    std = ChevalleyBasis.standard()
    assert (basis.e, basis.f, basis.h) == (std.e, std.f, std.h)


def test_chevalley_derived_pair():
    basis = chevalley_from_basis((1, 1), (1, -1))
    half = Fraction(1, 2)
    assert basis.e == ExactMatrix([[half, -half], [half, -half]])
    assert basis.f == ExactMatrix([[half, half], [-half, -half]])
    assert basis.h == ExactMatrix([[0, 1], [1, 0]])


def test_chevalley_bracket_relations_random():
    rng = random.Random(4096)
    count = 0
    while count < 50:
        v0, v1 = random_vector(rng), random_vector(rng)
        if v0[0] * v1[1] == v0[1] * v1[0]:
            continue
        basis = chevalley_from_basis(v0, v1)  # brackets checked on construction
        assert commutator(basis.e, basis.f) == basis.h
        count += 1


def test_chevalley_rejects_dependent():
    with pytest.raises(DependentVectors):
        chevalley_from_basis((1, 2), (2, 4))


# --- eigenpair matrices and decomposition --------------------------------


def test_matrix_with_eigenpairs_axes():
    assert matrix_with_eigenpairs((1, 0), (0, 1)) == ExactMatrix.diagonal([1, -1])


def test_matrix_with_eigenpairs_derived():
    assert matrix_with_eigenpairs((1, 0), (1, 1)) == ExactMatrix([[1, -2], [0, -1]])
    assert matrix_with_eigenpairs((1, 1), (1, -1)) == ExactMatrix([[0, 1], [1, 0]])


def test_matrix_with_eigenpairs_traceless_det():
    rng = random.Random(17)
    for _ in range(20):
        v0, v1, _, _ = random_independent_quadruple(rng)
        m = matrix_with_eigenpairs(v0, v1)
        assert m.trace() == 0 and m.det() == -1


def test_decompose_h_is_unit_alpha():
    std = ChevalleyBasis.standard()
    assert decompose_sl2(std.h, std) == Sl2Element(Fraction(1), Fraction(0), Fraction(0))


def test_decompose_upper_triangular():
    std = ChevalleyBasis.standard()
    elem = decompose_sl2(ExactMatrix([[1, -2], [0, -1]]), std)
    assert (elem.alpha, elem.beta, elem.gamma) == (1, -2, 0)


def test_decompose_krawtchouk_plane_operator():
    p = Fraction(1, 3)
    m = ExactMatrix(
        [[1 - 2 * p, 2 * p], [2 * (1 - p), -(1 - 2 * p)]]
    )
    elem = decompose_sl2(m, ChevalleyBasis.standard())
    assert (elem.alpha, elem.beta, elem.gamma) == (
        Fraction(1, 3),
        Fraction(2, 3),
        Fraction(4, 3),
    )


def test_decompose_rejects_trace():
    with pytest.raises(NotTraceless):
        decompose_sl2(ExactMatrix([[1, 0], [0, 0]]), ChevalleyBasis.standard())


# --- lift -----------------------------------------------------------------


def test_lift_h_is_diagonal():
    elem = Sl2Element(Fraction(1), Fraction(0), Fraction(0))
    assert lift(elem, 2) == ExactMatrix.diagonal([2, 0, -2])


def test_lift_e_is_superdiagonal():
    elem = Sl2Element(Fraction(0), Fraction(1), Fraction(0))
    assert lift(elem, 2) == ExactMatrix([[0, 2, 0], [0, 0, 1], [0, 0, 0]])


@pytest.mark.parametrize("d", range(6))
def test_lift_respects_brackets(d):
    rng = random.Random(d + 100)
    std = ChevalleyBasis.standard()
    for _ in range(5):
        x = ExactMatrix([[rng.randint(-3, 3), rng.randint(-3, 3)], [rng.randint(-3, 3), 0]])
        x = x - ExactMatrix.diagonal([x.trace(), 0])
        y = ExactMatrix([[rng.randint(-3, 3), rng.randint(-3, 3)], [rng.randint(-3, 3), 0]])
        y = y - ExactMatrix.diagonal([y.trace(), 0])
        lifted_bracket = lift(decompose_sl2(commutator(x, y), std), d)
        bracket_of_lifts = commutator(
            lift(decompose_sl2(x, std), d), lift(decompose_sl2(y, std), d)
        )
        assert lifted_bracket == bracket_of_lifts


# --- the three generation conditions --------------------------------------


def test_ptl_all_hold_for_standard_witnesses():
    report = check_ptl(ExactMatrix.diagonal([1, -1]), ExactMatrix([[0, 1], [1, 0]]))
    assert report.consistent() and report.all_hold()


def test_ptl_all_fail_for_equal_operators():
    report = check_ptl(ExactMatrix.diagonal([1, -1]), ExactMatrix.diagonal([1, -1]))
    assert report.consistent() and not report.all_hold()


def test_ptl_all_fail_for_wrong_determinant():
    report = check_ptl(ExactMatrix.diagonal([1, -1]), ExactMatrix([[0, 2], [1, 0]]))
    assert report.consistent() and not report.all_hold()


def test_ptl_consistency_randomized():
    rng = random.Random(314)
    # positives: operators cut out by pairwise independent eigenvector pairs
    for _ in range(50):
        v0, v1, w0, w1 = random_independent_quadruple(rng)
        report = check_ptl(matrix_with_eigenpairs(v0, v1), matrix_with_eigenpairs(w0, w1))
        assert report.consistent() and report.all_hold()
    # negatives: shared eigenvectors, scaled determinants, non-diagonalizable
    for _ in range(50):
        v0, v1, w0, _ = random_independent_quadruple(rng)
        a = matrix_with_eigenpairs(v0, v1)
        case = rng.choice(["shared", "scaled", "nilpotent-shift"])
        if case == "shared":
            a_star = matrix_with_eigenpairs(v0, w0)  # shares the v0 eigenline
        elif case == "scaled":
            a_star = 2 * matrix_with_eigenpairs(w0, v1)
        else:
            a_star = ExactMatrix([[0, 1], [0, 0]])
        report = check_ptl(a, a_star)
        assert report.consistent()
        assert not report.all_hold()


# --- the six operators and the lifted triples ------------------------------


def test_construct_six_on_standard_witnesses():
    a, a_star, b, b_star, c, c_star = construct_six(*WITNESSES)
    assert a == ExactMatrix.diagonal([1, -1])
    assert a_star == ExactMatrix([[0, 1], [1, 0]])
    assert b == ExactMatrix([[1, -2], [0, -1]])
    assert b_star == ExactMatrix([[1, 0], [-2, -1]])
    assert c == ExactMatrix([[1, 2], [0, -1]])
    assert c_star == ExactMatrix([[1, 0], [2, -1]])
    for m in (a, a_star, b, b_star, c, c_star):
        assert m.trace() == 0 and m.det() == -1
    for x, y in ((a, a_star), (b, b_star), (c, c_star)):
        assert check_ptl(x, y).all_hold()


def test_construct_six_rejects_dependent_vectors():
    with pytest.raises(DependentVectors):
        construct_six((1, 0), (0, 1), (1, 1), (2, 2))


def test_triple_d1(standard_triple):
    pairs = standard_triple(1)
    assert all(p.d == 1 for p in pairs)


def test_triple_d3_sequences(standard_triple):
    pairs = standard_triple(3)
    expected = (3, 1, -1, -3)
    for pair in pairs:
        assert pair.eigenvalue_sequences[0] == expected
        assert pair.dual_eigenvalue_sequences[0] == expected


def test_lifted_ptl_pairs_are_leonard():
    # any plane pair passing the generation conditions lifts to a Leonard
    # pair with spectrum d, d-2, ..., -d on both sides
    rng = random.Random(2718)
    for _ in range(5):
        v0, v1, w0, w1 = random_independent_quadruple(rng)
        basis = chevalley_from_basis(v0, v1)
        a = matrix_with_eigenpairs(v0, v1)
        a_star = matrix_with_eigenpairs(w0, w1)
        assert check_ptl(a, a_star).all_hold()
        for d in range(7):
            pair = verify_leonard(
                lift(decompose_sl2(a, basis), d), lift(decompose_sl2(a_star, basis), d)
            )
            expected = tuple(Fraction(d - 2 * i) for i in range(d + 1))
            assert pair.eigenvalue_sequences[0] == expected
            assert pair.dual_eigenvalue_sequences[0] == expected


# --- Krawtchouk pairs and affine transforms --------------------------------


def test_krawtchouk_d1_entries(kraw):
    pair = kraw(1, Fraction(1, 3))
    assert pair.a == ExactMatrix.diagonal([1, -1])
    assert pair.a_star == ExactMatrix([["1/3", "2/3"], ["4/3", "-1/3"]])


def test_krawtchouk_d2_half(kraw):
    pair = kraw(2, Fraction(1, 2))
    assert pair.a_star == ExactMatrix([[0, 2, 0], [1, 0, 1], [0, 2, 0]])
    cubed = pair.a_star * pair.a_star * pair.a_star
    assert cubed == 4 * pair.a_star  # spectrum {2, 0, -2}


def test_krawtchouk_dual_sequence(kraw):
    for d in (1, 2, 3, 4):
        pair = kraw(d, Fraction(2, 5))
        assert pair.dual_eigenvalue_sequences[0] == tuple(d - 2 * i for i in range(d + 1))


def test_krawtchouk_rejects_bad_p():
    with pytest.raises(InvalidP):
        KrawtchoukParameters(2, Fraction(0))
    with pytest.raises(InvalidP):
        KrawtchoukParameters(2, Fraction(1))


def test_affine_identity(kraw):
    pair = kraw(2, Fraction(1, 2))
    same = affine_transform(pair, 1, 0, 1, 0)
    assert same.a == pair.a and same.a_star == pair.a_star


def test_affine_maps_sequences(kraw):
    pair = kraw(2, Fraction(1, 3))
    moved = affine_transform(pair, 2, 5, -1, 0)
    assert moved.eigenvalue_sequences[0] == tuple(
        2 * t + 5 for t in pair.eigenvalue_sequences[0]
    )
    dual = {tuple(-t for t in seq) for seq in pair.dual_eigenvalue_sequences}
    assert set(moved.dual_eigenvalue_sequences) == dual


def test_affine_preserves_flag_set(kraw):
    pair = kraw(2, Fraction(1, 2))
    moved = affine_transform(pair, 2, 5, -1, 0)
    assert standard_flag_set(moved).as_set() == standard_flag_set(pair).as_set()


def test_affine_rejects_zero_scale(kraw):
    with pytest.raises(ZeroScale):
        affine_transform(kraw(1, Fraction(1, 3)), 0, 1, 1, 0)


# --- normal form and companions --------------------------------------------


def test_normal_form_fixed_point(kraw):
    pair = kraw(1, Fraction(1, 3))
    nf = krawtchouk_normal_form(pair)
    assert nf.s == ExactMatrix.identity(2)
    assert nf.p == Fraction(1, 3)
    assert nf.affine == (1, 0, 1, 0)


def test_normal_form_of_conjugated_pair(kraw):
    base = kraw(1, Fraction(1, 3))
    t = ExactMatrix([[1, 1], [0, 1]])
    pair = verify_leonard(t * base.a * t.inverse(), t * base.a_star * t.inverse())
    nf = krawtchouk_normal_form(pair)
    assert nf.p == Fraction(1, 3)
    s_inv = nf.s.inverse()
    assert s_inv * pair.a * nf.s == base.a
    assert s_inv * pair.a_star * nf.s == base.a_star


def test_normal_form_d0():
    pair = verify_leonard(ExactMatrix([[4]]), ExactMatrix([["-5/3"]]))
    nf = krawtchouk_normal_form(pair)
    assert nf.s == ExactMatrix.identity(1)
    assert nf.p == Fraction(1, 2)
    assert nf.note is not None


def test_normal_form_rejects_non_arithmetic():
    # a genuine Leonard pair whose eigenvalue sequence 4, 2, 1 is
    # geometric rather than arithmetic
    a = ExactMatrix.diagonal([4, 2, 1])
    a_star = ExactMatrix([[0, 1, 0], [3, 0, 2], [0, 3, 0]])
    pair = verify_leonard(a, a_star)
    assert classify_sequence(pair.eigenvalue_sequences[0]).tag is SequenceTag.Q_CLASSICAL
    with pytest.raises(NotArithmetic):
        krawtchouk_normal_form(pair)
    with pytest.raises(NotArithmetic):
        companions(pair)


def test_companions_bidiagonal_in_normal_coordinates(kraw):
    from leonard_kit.split import BidiagonalShape, bidiagonal_shape

    pair = kraw(1, Fraction(1, 3))  # already in normal coordinates
    nf, b_pair, c_pair = companions(pair)
    assert nf == krawtchouk_normal_form(pair)
    for member in (b_pair, c_pair):
        assert bidiagonal_shape(member.a) is BidiagonalShape.UPPER
        assert bidiagonal_shape(member.a_star) is BidiagonalShape.LOWER


def test_companions_at_d0_degenerate():
    pair = verify_leonard(ExactMatrix([[4]]), ExactMatrix([[-1]]))
    _, b_pair, c_pair = companions(pair)
    out = (b_pair.a, b_pair.a_star, c_pair.a, c_pair.a_star)
    assert all(m == ExactMatrix([[0]]) for m in out)


def test_companions_sequences_arithmetic(kraw):
    pair = kraw(2, Fraction(2, 5))
    for member in companions(pair)[1:]:
        for seq in member.eigenvalue_sequences + member.dual_eigenvalue_sequences:
            assert classify_sequence(seq).tag is SequenceTag.ARITHMETIC


def test_companions_conjugate_covariantly(kraw):
    base = kraw(2, Fraction(1, 3))
    t = ExactMatrix([[1, 2, 0], [0, 1, 1], [1, 0, 1]])
    assert t.det() != 0
    t_inv = t.inverse()
    conjugated = verify_leonard(t * base.a * t_inv, t * base.a_star * t_inv)
    direct = [(q.a, q.a_star) for q in companions(conjugated)[1:]]
    pushed = [(t * q.a * t_inv, t * q.a_star * t_inv) for q in companions(base)[1:]]
    assert direct == pushed


# --- one solve against the inverse products it replaced -------------------

plane_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=5)
plane_vectors = st.tuples(plane_rationals, plane_rationals).filter(lambda v: v != (0, 0))
independent_plane_pairs = st.tuples(plane_vectors, plane_vectors).filter(
    lambda uv: uv[0][0] * uv[1][1] != uv[0][1] * uv[1][0]
)
SL2_ORACLE = settings(max_examples=60, deadline=None)


@given(independent_plane_pairs)
@example(((1, 0), (0, 1)))
@example(((Fraction(1, 3), Fraction(-2, 3)), (1, 1)))
@SL2_ORACLE
def test_conjugations_match_inverse_products(uv):
    s = ExactMatrix.from_columns(uv)
    s_inv = s.inverse()
    assert matrix_with_eigenpairs(*uv) == s * ExactMatrix.diagonal([1, -1]) * s_inv
    std = ChevalleyBasis.standard()
    assert chevalley_from_basis(*uv) == ChevalleyBasis(
        s * std.e * s_inv, s * std.f * s_inv, s * std.h * s_inv
    )


def _reference_decompose_sl2(m, basis):
    """Coordinates from the 4x4 system (h | e | f | m) on the flattened
    matrices, reduced to its canonical row basis."""
    if m.shape != (2, 2):
        raise NotTraceless("decomposition needs a 2x2 matrix")
    if m.trace() != 0:
        raise NotTraceless("the matrix must be traceless")
    flat = [[x[i, j] for i in range(2) for j in range(2)] for x in (basis.h, basis.e, basis.f, m)]
    reduced = Subspace.span(4, zip(*flat)).basis
    if [row[:3] for row in reduced] != [(1, 0, 0), (0, 1, 0), (0, 0, 1)]:
        raise ValueError("the claimed Chevalley basis does not span sl2")
    return Sl2Element(*(row[3] for row in reduced))


def _reference_generators(d):
    n = d + 1
    e = [[0] * n for _ in range(n)]
    f = [[0] * n for _ in range(n)]
    for i in range(d):
        e[i][i + 1] = d - i
        f[i + 1][i] = i + 1
    return ExactMatrix(e), ExactMatrix(f), ExactMatrix.diagonal([d - 2 * i for i in range(n)])


def _reference_lift(elem, d):
    e, f, h = _reference_generators(d)
    return elem.alpha * h + elem.beta * e + elem.gamma * f


@given(independent_plane_pairs, plane_rationals, plane_rationals, plane_rationals, st.integers(0, 3))
@example(((1, 0), (0, 1)), Fraction(1), Fraction(0), Fraction(0), 2)
@SL2_ORACLE
def test_sl2_coordinates_match_decompose_sl2(uv, a, b, c, d):
    m = ExactMatrix([[a, b], [c, -a]])
    basis = chevalley_from_basis(*uv)
    expected = _reference_lift(_reference_decompose_sl2(m, basis), d)
    assert sl2._lift_all([m], *uv, d) == [expected]
    assert decompose_sl2(m, basis) == _reference_decompose_sl2(m, basis)


def test_decompose_sl2_rejects_the_zero_triple_like_the_reference():
    zero = ExactMatrix.zeros(2, 2)
    basis = ChevalleyBasis(zero, zero, zero)
    m = ExactMatrix([[1, 2], [3, -1]])
    for decompose in (decompose_sl2, _reference_decompose_sl2):
        with pytest.raises(ValueError, match="does not span sl2"):
            decompose(m, basis)
        with pytest.raises(NotTraceless):
            decompose(ExactMatrix([[1, 0], [0, 0]]), basis)


@pytest.mark.parametrize("d", range(8))
def test_generators_match_the_summed_reference(d):
    assert standard_generators(d) == _reference_generators(d)


@given(plane_rationals, plane_rationals, plane_rationals, st.integers(0, 5))
@example(1, -2, 3, 3)  # integer coefficients
@SL2_ORACLE
def test_lift_matches_the_summed_reference(a, b, c, d):
    elem = Sl2Element(a, b, c)
    assert lift(elem, d) == _reference_lift(elem, d)


@pytest.mark.parametrize("d", range(7))
@pytest.mark.parametrize("p", [Fraction(1, 3), Fraction(-2, 5), Fraction(7, 2)])
def test_krawtchouk_matrices_match_the_entrywise_reference(d, p):
    n = d + 1
    a_star = [[0] * n for _ in range(n)]
    for i in range(n):
        a_star[i][i] = (1 - 2 * p) * (d - 2 * i)
        if i < d:
            a_star[i][i + 1] = 2 * p * (d - i)
        if i > 0:
            a_star[i][i - 1] = 2 * (1 - p) * i
    expected = (ExactMatrix.diagonal([d - 2 * i for i in range(n)]), ExactMatrix(a_star))
    assert sl2._krawtchouk_matrices(d, p) == expected


@pytest.mark.parametrize("bad", ["1/2", 0.5, None])
def test_lift_rejects_coefficients_that_are_not_exact(bad):
    for elem in (Sl2Element(bad, 0, 0), Sl2Element(0, bad, 0), Sl2Element(0, 0, bad)):
        with pytest.raises(TypeError):
            lift(elem, 2)
        with pytest.raises(TypeError):
            _reference_lift(elem, 2)


def test_negative_diameter_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        lift(Sl2Element(1, 0, 0), -1)
    with pytest.raises(ValueError, match="nonnegative"):
        standard_generators(-1)


def test_sl2_coordinates_reject_a_traced_operator():
    with pytest.raises(TheoremViolation):
        sl2._lift_all([ExactMatrix([[1, 0], [0, 0]])], (1, 0), (1, 1), 2)


@pytest.fixture
def command_linalg_only(monkeypatch):
    """ExactMatrix.inverse and matrix-by-matrix products raise."""

    def forbidden(*args, **kwargs):
        raise RuntimeError("no inverse or matrix product on a command path")

    product = ExactMatrix.__mul__

    def scalar_product(self, other):
        if isinstance(other, ExactMatrix):
            forbidden()
        return product(self, other)

    monkeypatch.setattr(ExactMatrix, "__mul__", scalar_product)
    monkeypatch.setattr(ExactMatrix, "inverse", forbidden)


def test_command_paths_run_on_the_one_solve(command_linalg_only, monkeypatch):
    d, p = 3, Fraction(1, 3)
    pairs = three_mutually_adjacent(d, (1, 0), (0, 1), (1, 1), (p, p - 1))
    assert krawtchouk_normal_form(pairs[0]).p == p
    _, b_pair, c_pair = companions(pairs[0])
    assert {b_pair.a, c_pair.a} == {pairs[1].a, pairs[2].a}
    nf, _, _ = companions(pairs[1])  # normal-form basis other than the identity
    assert nf.s != ExactMatrix.identity(d + 1)

    solves = []
    solve = linalg._solve
    monkeypatch.setattr(linalg, "_solve", lambda *args: solves.append(args) or solve(*args))
    for dec in pairs[1].a_standard_decompositions + pairs[1].a_star_standard_decompositions:
        split_type(dec, pairs[0])
    assert not solves  # split verdicts test span membership and solve nothing


# --- one orientation against the four-orientation search ------------------


def _reference_candidates(pair):
    """The normal form attempted at every orientation (A first, then A*),
    in the order the four-orientation search tries them: a
    KrawtchoukNormalForm where the orientations match, None elsewhere."""
    d = pair.d
    identity = ExactMatrix.identity(d + 1)
    out = []
    for orient, theta in enumerate(pair.eigenvalue_sequences):
        alpha, beta = sl2._normalizing_affine(theta, d)
        reps = [c.representative() for c in pair.a_standard_decompositions[orient].components]
        rep_a, rep_a_star = linalg.represent_all_in_basis((pair.a, pair.a_star), reps)
        for theta_star in pair.dual_eigenvalue_sequences:
            alpha_star, beta_star = sl2._normalizing_affine(theta_star, d)
            m = alpha_star * rep_a_star + beta_star * identity
            p = (Fraction(d) - m[0, 0]) / (2 * d)
            if p in (0, 1):
                out.append(None)
                continue
            scales = [Fraction(1)]
            for i in range(d):
                scales.append(scales[i] * m[i + 1, i] / (2 * (1 - p) * (i + 1)))
            rescaled = ExactMatrix(
                [[scales[j] * m[i, j] / scales[i] for j in range(d + 1)] for i in range(d + 1)]
            )
            a_target, target = sl2._krawtchouk_matrices(d, p)
            if rescaled != target or alpha * rep_a + beta * identity != a_target:
                out.append(None)
                continue
            s = ExactMatrix.from_columns([[x * c for x in v] for c, v in zip(scales, reps)])
            out.append(KrawtchoukNormalForm(s, p, (alpha, beta, alpha_star, beta_star)))
    return out


def _reference_normal_form(pair):
    """The four-orientation search: the first orientation pair that matches."""
    for nf in _reference_candidates(pair):
        if nf is not None:
            return nf
    raise NotKrawtchouk("no orientation matches the tridiagonal normal form")


def _integer_conjugate(pair, rng):
    n = pair.d + 1
    while True:
        t = ExactMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        if t.det() != 0:
            return verify_leonard(*linalg.conjugate_all((pair.a, pair.a_star), t))


krawtchouk_ps = st.fractions(min_value=-2, max_value=3, max_denominator=5).filter(
    lambda p: p not in (0, 1)
)
nonzero_scales = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(
    lambda x: x != 0
)


@st.composite
def arithmetic_pairs(draw):
    """Pairs with arithmetic sequences: Krawtchouk pairs, members of a
    triple on random independent witnesses, or companions, then maybe
    conjugated by a random integer matrix, swapped, and moved by an affine
    map whose negative leading coefficients reverse the orientations."""
    d = draw(st.integers(1, 6))
    rng = draw(st.randoms(use_true_random=False))
    source = draw(st.sampled_from(("krawtchouk", "triple", "companion")))
    if source == "triple":
        pair = rng.choice(three_mutually_adjacent(d, *random_independent_quadruple(rng)))
    else:
        pair = krawtchouk_pair(KrawtchoukParameters(d, draw(krawtchouk_ps)))
        if source == "companion":
            pair = rng.choice(companions(pair)[1:])
    if draw(st.booleans()):
        pair = _integer_conjugate(pair, rng)
    if draw(st.booleans()):
        pair = pair.swapped()
    if draw(st.booleans()):
        pair = affine_transform(pair, *(draw(nonzero_scales) for _ in range(4)))
    return pair


@given(arithmetic_pairs())
@settings(max_examples=60, deadline=None)
def test_normal_form_matches_the_four_orientation_search(pair):
    candidates = _reference_candidates(pair)
    assert krawtchouk_normal_form(pair) == _reference_normal_form(pair) == candidates[0]
    # all four orientations match, each reversal sending p to 1 - p
    p = candidates[0].p
    assert [nf.p for nf in candidates] == [p, 1 - p, 1 - p, p]
    n = pair.d + 1
    for nf in candidates:
        al, be, als, bes = nf.affine
        s_inv = nf.s.inverse()
        a = s_inv * (al * pair.a + be * ExactMatrix.identity(n)) * nf.s
        a_star = s_inv * (als * pair.a_star + bes * ExactMatrix.identity(n)) * nf.s
        assert (a, a_star) == sl2._krawtchouk_matrices(pair.d, nf.p)


def test_normal_form_makes_one_solve_and_fails_on_its_one_candidate(kraw, monkeypatch):
    solves = []
    solve = sl2.represent_all_in_basis
    monkeypatch.setattr(
        sl2, "represent_all_in_basis", lambda *args: solves.append(args) or solve(*args)
    )
    for d in range(1, 5):
        pair = kraw(d, Fraction(1, 3)).swapped()
        solves.clear()
        assert krawtchouk_normal_form(pair).p == Fraction(1, 3)
        assert len(solves) == 1

    # a target no orientation reaches: the one candidate fails, after one solve
    def unreachable(d, p):
        return lift(Sl2Element(1, 0, 0), d), ExactMatrix.zeros(d + 1, d + 1)

    monkeypatch.setattr(sl2, "_krawtchouk_matrices", unreachable)
    solves.clear()
    with pytest.raises(NotKrawtchouk, match="^no orientation matches the tridiagonal normal form; "):
        krawtchouk_normal_form(kraw(3, Fraction(1, 3)))
    assert len(solves) == 1
