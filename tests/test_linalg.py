import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leonard_kit.errors import AmbientMismatch, NotSimpleRationalSpectrum, SingularBasis
from leonard_kit.linalg import (
    ExactMatrix,
    Subspace,
    _rational_roots,
    charpoly,
    kernel,
    rank,
    represent_in_basis,
    rref,
    simple_rational_eigen,
    subspace_intersection,
    subspace_sum,
)

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def small_matrix(rows, cols):
    return st.lists(
        st.lists(rationals, min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    ).map(ExactMatrix)


square_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: small_matrix(n, n)
)
any_matrices = st.tuples(
    st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4)
).flatmap(lambda s: small_matrix(*s))


def random_subspace(rng, ambient, dim):
    while True:
        vecs = [
            [Fraction(rng.randint(-5, 5)) for _ in range(ambient)] for _ in range(dim)
        ]
        space = Subspace.span(ambient, vecs)
        if space.dim == dim:
            return space


# --- rref ---------------------------------------------------------------


def test_rref_proportional_rows_collapse():
    m = ExactMatrix([[2, 4], [1, 2]])
    assert rref(m) == ExactMatrix([[1, 2], [0, 0]])


def test_rref_identity_fixed_point():
    eye = ExactMatrix.identity(3)
    assert rref(eye) == eye


def test_rref_row_swap():
    assert rref(ExactMatrix([[0, 1], [1, 0]])) == ExactMatrix.identity(2)


@given(any_matrices)
def test_rref_idempotent(m):
    reduced = rref(m)
    assert rref(reduced) == reduced


@given(any_matrices)
def test_rref_preserves_row_space(m):
    reduced = rref(m)
    assert rank(m) == rank(reduced)
    original = Subspace.span(m.cols, m.entries)
    after = Subspace.span(m.cols, reduced.entries)
    assert original.contains(after) and after.contains(original)


# --- subspaces ----------------------------------------------------------


def test_sum_of_axes_is_plane():
    u = Subspace.line((1, 0))
    w = Subspace.line((0, 1))
    assert subspace_sum(u, w) == Subspace.full(2)


def test_sum_idempotent():
    u = Subspace.span(3, [(1, 2, 0), (0, 0, 1)])
    assert subspace_sum(u, u) == u


def test_sum_derived_example():
    u = Subspace.line((1, 0, 0))
    w = Subspace.line((1, 1, 0))
    total = subspace_sum(u, w)
    assert total == Subspace.span(3, [(1, 0, 0), (0, 1, 0)])


def test_intersection_of_axes_is_zero():
    assert subspace_intersection(Subspace.line((1, 0)), Subspace.line((0, 1))).is_zero


def test_intersection_idempotent():
    u = Subspace.span(3, [(1, 0, 2), (0, 1, 5)])
    assert subspace_intersection(u, u) == u


def test_intersection_of_planes_is_common_axis():
    u = Subspace.span(3, [(1, 0, 0), (0, 1, 0)])
    w = Subspace.span(3, [(0, 1, 0), (0, 0, 1)])
    assert subspace_intersection(u, w) == Subspace.line((0, 1, 0))


def test_ambient_mismatch_rejected():
    with pytest.raises(AmbientMismatch):
        subspace_sum(Subspace.line((1, 0)), Subspace.line((1, 0, 0)))
    with pytest.raises(AmbientMismatch):
        subspace_intersection(Subspace.line((1, 0)), Subspace.line((1, 0, 0)))


def test_grassmann_identity_randomized():
    rng = random.Random(2401)
    for _ in range(60):
        ambient = rng.randint(1, 5)
        u = random_subspace(rng, ambient, rng.randint(0, ambient))
        w = random_subspace(rng, ambient, rng.randint(0, ambient))
        total = subspace_sum(u, w)
        meet = subspace_intersection(u, w)
        assert total.dim + meet.dim == u.dim + w.dim


def test_canonical_form_is_basis_independent():
    rng = random.Random(99)
    ambient, dim = 5, 3
    space = random_subspace(rng, ambient, dim)
    for _ in range(100):
        # random invertible recombination of the basis rows
        while True:
            coeffs = [
                [Fraction(rng.randint(-4, 4)) for _ in range(dim)] for _ in range(dim)
            ]
            if ExactMatrix(coeffs).det() != 0:
                break
        mixed = [
            tuple(
                sum(coeffs[i][j] * space.basis[j][k] for j in range(dim))
                for k in range(ambient)
            )
            for i in range(dim)
        ]
        assert Subspace.span(ambient, mixed) == space


def test_subspace_rejects_non_canonical_basis():
    with pytest.raises(ValueError):
        Subspace(2, ((2, 0),))
    with pytest.raises(ValueError):
        Subspace(2, ((0, 1), (1, 0)))


# --- eigendecomposition -------------------------------------------------


def test_eigen_diagonal():
    pairs = simple_rational_eigen(ExactMatrix.diagonal([2, 0, -2]))
    assert [lam for lam, _ in pairs] == [2, 0, -2]
    assert pairs[0][1] == Subspace.line((1, 0, 0))
    assert pairs[1][1] == Subspace.line((0, 1, 0))
    assert pairs[2][1] == Subspace.line((0, 0, 1))


def test_eigen_symmetric_swap():
    pairs = simple_rational_eigen(ExactMatrix([[0, 1], [1, 0]]))
    assert pairs[0] == (1, Subspace.line((1, 1)))
    assert pairs[1] == (-1, Subspace.line((1, -1)))


def test_eigen_rejects_irrational_spectrum():
    with pytest.raises(NotSimpleRationalSpectrum):
        simple_rational_eigen(ExactMatrix([[0, 2], [1, 0]]))


def test_eigen_rejects_repeated_eigenvalue():
    with pytest.raises(NotSimpleRationalSpectrum):
        simple_rational_eigen(ExactMatrix.diagonal([3, 3]))


def test_eigen_trace_and_annihilation_randomized():
    rng = random.Random(5150)
    for _ in range(25):
        n = rng.randint(1, 4)
        values = rng.sample(range(-8, 9), n)
        while True:
            s = ExactMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
            if s.det() != 0:
                break
        m = s * ExactMatrix.diagonal(values) * s.inverse()
        pairs = simple_rational_eigen(m)
        assert sum(lam for lam, _ in pairs) == m.trace()
        product = ExactMatrix.identity(n)
        for lam, space in pairs:
            product = product * (m - ExactMatrix.diagonal([lam] * n))
            for vec in space.basis:
                assert m.apply(vec) == tuple(lam * x for x in vec)
        assert product.is_zero()


def _reference_divisors(n):
    n = abs(n)
    factors = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    divs = [1]
    for p, e in factors.items():
        divs = [dv * p**k for dv in divs for k in range(e + 1)]
    return sorted(divs)


def _reference_rational_roots(coeffs):
    """Trial-division search over the candidates p/q with p dividing the
    cleared constant term and q the leading one, deflating each root."""
    work = list(coeffs)
    roots = []
    while len(work) > 1:
        den = lcm(*(c.denominator for c in work))
        ints = [int(c * den) for c in work]
        content = gcd(*ints)
        ints = [v // content for v in ints]
        if ints[0] == 0:
            root = Fraction(0)
        else:
            candidates = (
                s * Fraction(p, q)
                for p in _reference_divisors(ints[0])
                for q in _reference_divisors(ints[-1])
                for s in (1, -1)
            )
            root = next(
                (x for x in candidates if sum(c * x**i for i, c in enumerate(ints)) == 0),
                None,
            )
            if root is None:
                return None
        roots.append(root)
        quotient, acc = [], work[-1]
        for c in reversed(work[:-1]):
            quotient.append(acc)
            acc = c + root * acc
        assert acc == 0
        work = quotient[::-1]
    return roots


def _poly_mul(f, g):
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


linear_factors = st.lists(
    st.tuples(st.integers(1, 6), st.integers(-12, 12), st.integers(1, 3)),
    max_size=5,
)


@given(
    linear_factors,
    st.sampled_from([None, (-2, 0, 3), (1, 1, 1), (-6, 1, 1)]),
    st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool),
)
@settings(max_examples=150, deadline=None)
def test_rational_roots_match_trial_division(factors, quadratic, scale):
    """Products of (q x - p)^k, times an optional quadratic (3x^2 - 2 and
    x^2 + x + 1 are irreducible, x^2 + x - 6 splits) and a scalar."""
    coeffs = [scale]
    for q, p, k in factors:
        for _ in range(k):
            coeffs = _poly_mul(coeffs, [Fraction(-p), Fraction(q)])
    if quadratic is not None:
        coeffs = _poly_mul(coeffs, [Fraction(c) for c in quadratic])
    expected = _reference_rational_roots(coeffs)
    found = _rational_roots(coeffs)
    if expected is None:
        assert found is None
    else:
        assert sorted(found) == sorted(expected)


def test_charpoly_matches_det_and_trace():
    m = ExactMatrix([[1, 2], [3, 4]])
    coeffs = charpoly(m)
    assert coeffs[2] == 1
    assert coeffs[1] == -m.trace()
    assert coeffs[0] == m.det()


def test_kernel_of_rank_one():
    vecs = kernel(ExactMatrix([[1, 2, 3]]))
    assert len(vecs) == 2
    for v in vecs:
        assert ExactMatrix([[1, 2, 3]]).apply(v) == (0,)


# --- change of basis ----------------------------------------------------


def test_represent_standard_basis_is_identity_map():
    m = ExactMatrix([[1, 2], [3, 4]])
    assert represent_in_basis(m, [(1, 0), (0, 1)]) == m


def test_represent_eigenbasis_diagonalizes():
    m = ExactMatrix([[0, 1], [1, 0]])
    assert represent_in_basis(m, [(1, 1), (1, -1)]) == ExactMatrix.diagonal([1, -1])


def test_represent_permutation():
    m = ExactMatrix.diagonal([1, -1])
    assert represent_in_basis(m, [(0, 1), (1, 0)]) == ExactMatrix.diagonal([-1, 1])


def test_represent_rejects_singular_basis():
    with pytest.raises(SingularBasis):
        represent_in_basis(ExactMatrix.identity(2), [(1, 1), (2, 2)])


@given(square_matrices)
@settings(max_examples=40)
def test_similarity_preserves_charpoly(m):
    n = m.rows
    perm = list(range(n))
    perm.reverse()
    basis = [tuple(1 if i == perm[j] else 0 for i in range(n)) for j in range(n)]
    assert charpoly(represent_in_basis(m, basis)) == charpoly(m)
