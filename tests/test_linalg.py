import random
from fractions import Fraction
from itertools import islice
from math import gcd, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leonard_kit import linalg
from leonard_kit.errors import AmbientMismatch, NotSimpleRationalSpectrum, SingularBasis
from leonard_kit.leonard import verify_leonard
from leonard_kit.linalg import (
    ExactMatrix,
    Subspace,
    _is_prime,
    _moduli,
    _PRIMES,
    _integer_roots,
    _squarefree_part,
    charpoly,
    conjugate_all,
    kernel,
    rank,
    represent_all_in_basis,
    represent_in_basis,
    simple_rational_eigen,
    subspace_intersection,
    subspace_sum,
    support_in_basis,
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


def random_subspace(rng, ambient, dim):
    while True:
        vecs = [
            [Fraction(rng.randint(-5, 5)) for _ in range(ambient)] for _ in range(dim)
        ]
        space = Subspace.span(ambient, vecs)
        if space.dim == dim:
            return space


# --- matrices -----------------------------------------------------------


@pytest.mark.parametrize("rows", [[], [[]], (), [()]])
def test_matrix_needs_a_row_and_a_column(rows):
    with pytest.raises(ValueError, match="a matrix needs at least one row and one column"):
        ExactMatrix(rows)


@pytest.mark.parametrize("rows", [[[1, 2], [3]], [[1], [2, 3]], [[1, 2], []]])
def test_matrix_rows_must_have_one_length(rows):
    with pytest.raises(ValueError, match="all rows must have the same length"):
        ExactMatrix(rows)


def test_matrix_entries_must_be_exact():
    with pytest.raises(TypeError):
        ExactMatrix([[1.5]])
    with pytest.raises(ValueError):
        ExactMatrix([["1.5"]])


def test_matrix_entries_become_fractions_however_given():
    from_ints = ExactMatrix([[2, 0], [-1, 3]])
    from_strs = ExactMatrix([["2", "0"], ["-1", "3"]])
    from_fracs = ExactMatrix(((Fraction(4, 2), Fraction(0)), (Fraction(-1), Fraction(3))))
    from_iter = ExactMatrix(iter([(2, "0"), iter(["-1", Fraction(3)])]))
    for m in (from_strs, from_fracs, from_iter):
        assert m == from_ints and hash(m) == hash(from_ints)
    assert all(type(x) is Fraction for row in from_ints.entries for x in row)
    assert type(from_ints.entries) is tuple and type(from_ints.entries[0]) is tuple
    assert from_ints != from_ints.entries and from_ints.entries != from_ints


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


def _reference_integer_roots(f):
    """Trial division of a monic integer f over the divisors of its
    constant term, deflating each root found."""
    work = list(f)
    roots = []
    while len(work) > 1:
        divisors = _reference_divisors(work[0]) if work[0] else [0]
        candidates = [s * x for x in divisors for s in (1, -1)]
        root = next((x for x in candidates if sum(c * x**i for i, c in enumerate(work)) == 0), None)
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


def _reference_gcd(a, b):
    """Primitive gcd over Z with positive leading coefficient, by the
    primitive remainder sequence.  Coefficients run from constant to
    leading, and a is nonzero."""

    def strip(f):
        while f and f[-1] == 0:
            f.pop()
        return f

    b = strip(list(b))
    while b:
        r = list(a)
        while len(r) >= len(b):
            lead, shift = r[-1], len(r) - len(b)
            r = [b[-1] * x for x in r]
            for i, c in enumerate(b):
                r[i + shift] -= lead * c
            strip(r)
        content = gcd(*r) or 1
        a, b = b, [x // content for x in r]
    content = gcd(*a)
    if a[-1] < 0:
        content = -content
    return [x // content for x in a]


def _reference_squarefree_part(f):
    """f / gcd(f, f') for a monic integer f, with the gcd from the
    remainder sequence: it divides f, so it is monic and the long
    division is exact."""
    d = _reference_gcd(f, [i * c for i, c in enumerate(f)][1:])
    r, q = list(f), [0] * (len(f) - len(d) + 1)
    for k in reversed(range(len(q))):
        q[k] = r[k + len(d) - 1]
        for i, c in enumerate(d):
            r[i + k] -= q[k] * c
    assert d[-1] == 1 and not any(r)
    return q


def _poly_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def _product(factors, quadratic):
    """(x - r)^k for each (r, k), times the quadratic's coefficients if any."""
    f = [1]
    for r, k in factors:
        for _ in range(k):
            f = _poly_mul(f, [-r, 1])
    if quadratic is not None:
        f = _poly_mul(f, list(quadratic))
    return f


@given(
    st.lists(st.tuples(st.integers(-12, 12), st.integers(1, 3)), max_size=5),
    st.sampled_from([None, (-2, 0, 1), (1, 1, 1), (-6, 1, 1)]),
)
@settings(max_examples=150, deadline=None)
def test_rational_roots_match_trial_division(factors, quadratic):
    """Products of (x - r)^k, times an optional quadratic (x^2 - 2 and
    x^2 + x + 1 are irreducible, x^2 + x - 6 splits)."""
    f = _product(factors, quadratic)
    expected = _reference_integer_roots(f)
    found = _integer_roots(f)
    if expected is None:
        assert found is None
    else:
        assert sorted(found) == sorted(set(expected))


@given(
    st.lists(st.tuples(st.integers(-(2**64), 2**64), st.integers(1, 3)), max_size=4),
    st.sampled_from([None, (-2, 0, 1), (1, 1, 1)]),
)
@example([(0, 1), (2**64 - 1, 1)], None)  # a simple zero root
@example([(0, 2), (-(2**64), 3)], (1, 1, 1))  # a repeated one
@settings(max_examples=100, deadline=None)
def test_rational_roots_of_products_with_large_roots(factors, quadratic):
    """Products of (x - r)^k with |r| up to 2^64, which trial division
    cannot factor, times an optional irreducible quadratic: the roots
    are the constructed r, or None."""
    found = _integer_roots(_product(factors, quadratic))
    if quadratic is None:
        assert sorted(found) == sorted({r for r, _ in factors})
    else:
        assert found is None


@given(
    st.lists(st.tuples(st.integers(-(2**70), 2**70), st.integers(1, 3)), max_size=4),
    st.sampled_from([None, (-2, 0, 1), (1, 1, 1)]),
)
@example([(5, 2), (5 + _PRIMES[0], 2)], None)  # roots that meet modulo 2^61 - 1
@example([(-(2**70), 3), (2**70, 3), (0, 2)], (1, 1, 1))
@settings(max_examples=150, deadline=None)
def test_squarefree_part_matches_the_remainder_sequence(factors, quadratic):
    f = _product(factors, quadratic)
    assert _squarefree_part(f) == _reference_squarefree_part(f)


@pytest.fixture
def squarefree_primes(monkeypatch):
    """For each ``_squarefree_part`` call, the primes it takes a gcd modulo."""
    calls = []
    squarefree_part, gcd_mod = linalg._squarefree_part, linalg._gcd_mod

    def part(f):
        calls.append([])
        return squarefree_part(f)

    def gcd_mod_spy(f, g, p):
        if p in _PRIMES:  # the root search takes its own gcds modulo small primes
            calls[-1].append(p)
        return gcd_mod(f, g, p)

    monkeypatch.setattr(linalg, "_squarefree_part", part)
    monkeypatch.setattr(linalg, "_gcd_mod", gcd_mod_spy)
    return calls


@pytest.mark.parametrize(
    "coeffs, roots",
    [
        # (x - 1)(x - 2^61): 2^61 - 1 divides the discriminant
        ([2**61, -(2**61) - 1, 1], [1, 2**61]),
    ],
)
def test_rational_roots_take_the_gcd_when_the_large_prime_fails(coeffs, roots, squarefree_primes):
    """Modulo 2^61 - 1 the gcd has degree 1, and x - 1 divides f but not
    f', so the squarefree part takes the next prime, where the gcd is 1."""
    assert sorted(_integer_roots(coeffs)) == roots
    assert squarefree_primes == [list(_PRIMES[:2])]


@pytest.mark.parametrize("r", [0, 7, -(2**59), 2**59 - 1])
def test_squarefree_part_restarts_past_unlucky_primes(r, squarefree_primes):
    """(x - r)^2 (x - s) with s = r + p_0 p_1: modulo the first two primes
    the roots meet, so the gcd has degree 2 there; the third prime gives
    degree 1 and starts the combination over."""
    s = r + _PRIMES[0] * _PRIMES[1]
    f = _product([(r, 2), (s, 1)], None)
    expected = _product([(r, 1), (s, 1)], None)
    assert linalg._squarefree_part(f) == expected == _reference_squarefree_part(f)
    assert squarefree_primes == [list(_PRIMES[:3])]


def test_scaled_krawtchouk_takes_no_gcd(kraw, squarefree_primes):
    """A simple spectrum with wide denominators is squarefree at the
    first prime."""
    k, c = kraw(8, Fraction(1, 3)), Fraction(2**31 + 12345, 2**31)
    eye = ExactMatrix.identity(9)
    pair = verify_leonard(c * k.a + c * eye, c * k.a_star + c * eye)
    for scaled, seqs in (
        (pair.eigenvalue_sequences, k.eigenvalue_sequences),
        (pair.dual_eigenvalue_sequences, k.dual_eigenvalue_sequences),
    ):
        assert scaled == tuple(tuple(c * (x + 1) for x in seq) for seq in seqs)
    assert squarefree_primes and all(primes == [_PRIMES[0]] for primes in squarefree_primes)


def test_scaled_krawtchouk_lifts_to_short_moduli(kraw, monkeypatch):
    """The roots are lifted on the monic polynomial of the primitive
    integer matrix N = (D·M - t·I)/g, so the moduli follow the roots'
    size, not the size of 2^(31·9)."""
    moduli = []
    eval_mod = linalg._eval_mod

    def spy(f, x, m):
        moduli.append(m)
        return eval_mod(f, x, m)

    monkeypatch.setattr(linalg, "_eval_mod", spy)
    k, c = kraw(8, Fraction(1, 3)), Fraction(2**31 + 12345, 2**31)
    eye = ExactMatrix.identity(9)
    verify_leonard(c * k.a + c * eye, c * k.a_star + c * eye)
    assert moduli and max(moduli).bit_length() <= 128


def test_affine_image_is_decomposed_at_the_size_of_the_pair(kraw, monkeypatch):
    """c·A + c·I with a 500-bit c is decomposed as the primitive integer
    matrix (D·M - t·I)/g, which is the same for every c: neither the
    polynomial nor the matrix it comes from carries c."""
    coefficients, entries = [], []
    integer_roots, char = linalg._integer_roots, linalg.charpoly

    def roots_spy(f):
        coefficients.extend(f)
        return integer_roots(f)

    def charpoly_spy(m):
        entries.extend(x for row in m.entries for x in row)
        return char(m)

    monkeypatch.setattr(linalg, "_integer_roots", roots_spy)
    monkeypatch.setattr(linalg, "charpoly", charpoly_spy)
    rng = random.Random(7)
    c = Fraction(rng.getrandbits(500) | 1 << 499, rng.getrandbits(500) | 1 << 499)
    k, eye = kraw(8, Fraction(1, 3)), ExactMatrix.identity(9)
    pair = verify_leonard(c * k.a + c * eye, c * k.a_star + c * eye)
    for scaled, seqs in (
        (pair.eigenvalue_sequences, k.eigenvalue_sequences),
        (pair.dual_eigenvalue_sequences, k.dual_eigenvalue_sequences),
    ):
        assert scaled == tuple(tuple(c * x + c for x in seq) for seq in seqs)
    assert coefficients and max(abs(x) for x in coefficients) < 2**64
    assert entries and max(max(abs(x.numerator), x.denominator) for x in entries) < 2**16


def test_support_solve_reads_the_primitive_form(kraw, monkeypatch):
    """The support solve of recognition takes the tridiagonal operator as
    its primitive integer matrix (D·M - t·I)/g, so the 500-bit c of
    c·A + c·I never reaches the elimination."""
    rng = random.Random(7)
    c = Fraction(rng.getrandbits(500) | 1 << 499, rng.getrandbits(500) | 1 << 499)
    k, eye = kraw(8, Fraction(1, 3)), ExactMatrix.identity(9)
    entries = []
    solve_in_basis = linalg._solve_in_basis

    def spy(integer, basis):
        entries.extend(x for b, _ in integer for row in b for x in row)
        return solve_in_basis(integer, basis)

    monkeypatch.setattr(linalg, "_solve_in_basis", spy)
    pair = verify_leonard(c * k.a + c * eye, c * k.a_star + c * eye)
    assert pair.a_star_standard_decompositions == k.a_star_standard_decompositions
    assert entries and max(map(abs, entries)) < 2**16


def test_large_diagonal_takes_no_gcd(squarefree_primes):
    rng = random.Random(5)
    diagonal = [10**20 + 7 * i + rng.randint(1, 10**19) for i in range(8)]
    a = ExactMatrix.diagonal(diagonal)
    assert [lam for lam, _ in simple_rational_eigen(a)] == sorted(diagonal, reverse=True)
    path = ExactMatrix([[int(abs(i - j) == 1) for j in range(8)] for i in range(8)])
    with pytest.raises(NotSimpleRationalSpectrum) as caught:
        verify_leonard(a, path)
    assert str(caught.value) == "the characteristic polynomial has an irrational root"
    assert squarefree_primes and all(primes == [_PRIMES[0]] for primes in squarefree_primes)


@pytest.mark.parametrize(
    "m, message",
    [
        (ExactMatrix.identity(3), "only 1 distinct rational eigenvalues for size 3"),
        (ExactMatrix.diagonal([1, 1, 2]), "only 2 distinct rational eigenvalues for size 3"),
        (ExactMatrix.diagonal([0, 0, 1]), "only 2 distinct rational eigenvalues for size 3"),
        (ExactMatrix([[0, 2], [1, 0]]), "the characteristic polynomial has an irrational root"),
        (
            ExactMatrix.diagonal([Fraction(-7, 2)] * 3),
            "only 1 distinct rational eigenvalues for size 3",
        ),
    ],
)
def test_spectrum_rejections_name_the_distinct_roots(m, message):
    with pytest.raises(NotSimpleRationalSpectrum) as caught:
        simple_rational_eigen(m)
    assert str(caught.value) == message


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


# --- integer kernels against the Fraction code they replaced -------------


def _reference_gauss_jordan(rows):
    """Fraction Gauss-Jordan to RREF in place; returns the pivot columns."""
    n_rows, n_cols = len(rows), len(rows[0])
    pivots = []
    for c in range(n_cols):
        r = len(pivots)
        if r == n_rows:
            break
        piv = next((i for i in range(r, n_rows) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return pivots


def _reference_kernel(m):
    rows = [list(r) for r in m.entries]
    pivots = _reference_gauss_jordan(rows)
    basis = []
    for c in range(m.cols):
        if c in pivots:
            continue
        x = [Fraction(0)] * m.cols
        x[c] = Fraction(1)
        for r, pc in enumerate(pivots):
            x[pc] = -rows[r][c]
        basis.append(tuple(x))
    return tuple(basis)


def _reference_rank(m):
    return len(_reference_gauss_jordan([list(r) for r in m.entries]))


def _reference_inverse(m):
    """Gauss-Jordan on (m | I), or None when m is singular."""
    n = m.rows
    aug = [list(m.entries[i]) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    if _reference_gauss_jordan(aug) != list(range(n)):
        return None
    return ExactMatrix([row[n:] for row in aug])


def _reference_charpoly(m):
    """Faddeev-LeVerrier: M_k = A (M_{k-1} + c_{n-k+1} I), c_{n-k} = -tr(M_k)/k."""
    n = m.rows
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    power = m
    coeffs[n - 1] = -power.trace()
    for k in range(2, n + 1):
        power = m * (power + coeffs[n - k + 1] * ExactMatrix.identity(n))
        coeffs[n - k] = -power.trace() / k
    return tuple(coeffs)


wide_rationals = st.builds(
    Fraction, st.integers(-(2**200), 2**200), st.integers(1, 2**200)
)


def _matrices(rows, cols):
    """Small or ~200-bit entries, or a product of lower rank."""
    full = st.sampled_from([rationals, wide_rationals]).flatmap(
        lambda elements: st.lists(
            st.lists(elements, min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        ).map(ExactMatrix)
    )
    if min(rows, cols) == 1:
        return full
    low_rank = st.integers(1, min(rows, cols) - 1).flatmap(
        lambda k: st.tuples(small_matrix(rows, k), small_matrix(k, cols))
    ).map(lambda uv: uv[0] * uv[1])
    return st.one_of(full, low_rank)


oracle_square = st.integers(1, 5).flatmap(lambda n: _matrices(n, n))
oracle_any = st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(lambda s: _matrices(*s))
ORACLE = settings(max_examples=80, deadline=None)


@given(oracle_square)
@example(ExactMatrix.zeros(3, 3))
@example(ExactMatrix([[Fraction(-7, 3)]]))
@ORACLE
def test_charpoly_matches_faddeev_leverrier(m):
    assert charpoly(m) == _reference_charpoly(m)


@given(oracle_any)
@example(ExactMatrix.zeros(2, 4))
@example(ExactMatrix([[0]]))
@example(ExactMatrix([[Fraction(5, 2)]]))
@example(ExactMatrix([[0, 3], [0, 0], [Fraction(1, 2), 1]]))
@example(ExactMatrix([[1, Fraction(2, 3), 0, 5], [3, 2, 0, 15], [0, 0, 0, 0]]))
@ORACLE
def test_kernel_rank_match_gauss_jordan(m):
    assert kernel(m) == _reference_kernel(m)
    assert rank(m) == _reference_rank(m)
    rows = [list(r) for r in m.entries]
    pivots = _reference_gauss_jordan(rows)
    assert all(x == 0 for row in rows[len(pivots):] for x in row)
    assert Subspace.span(m.cols, m.entries).basis == tuple(map(tuple, rows[: len(pivots)]))


@given(oracle_square)
@example(ExactMatrix.zeros(2, 2))
@example(ExactMatrix([[Fraction(-3, 8)]]))
@ORACLE
def test_inverse_det_match_references(m):
    expected = _reference_inverse(m)
    if expected is None:
        with pytest.raises(SingularBasis):
            m.inverse()
    else:
        assert m.inverse() == expected
    assert m.det() == (-1) ** m.rows * _reference_charpoly(m)[0]


@given(st.integers(1, 5).flatmap(lambda n: st.tuples(_matrices(n, n), _matrices(n, n))))
@example((ExactMatrix([[2]]), ExactMatrix([[Fraction(1, 3)]])))
@example((ExactMatrix([[1, 2], [3, 4]]), ExactMatrix.zeros(2, 2)))
@ORACLE
def test_represent_in_basis_matches_reference(ms):
    m, s = ms
    basis = [s.column(j) for j in range(s.cols)]
    s_inv = _reference_inverse(s)
    if s_inv is None:
        with pytest.raises(SingularBasis):
            represent_in_basis(m, basis)
    else:
        assert represent_in_basis(m, basis) == s_inv * m * s


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(st.lists(_matrices(n, n), min_size=1, max_size=3), _matrices(n, n))
    )
)
@example(([ExactMatrix([[Fraction(2, 3)]]), ExactMatrix([[-4]])], ExactMatrix([[Fraction(-5, 7)]])))
@example(([ExactMatrix([[1]])], ExactMatrix([[0]])))
@example(([ExactMatrix.identity(2), ExactMatrix([[0, 1], [1, 0]])], ExactMatrix([[1, 2], [2, 4]])))
@ORACLE
def test_one_solve_for_several_operators_matches_inverse_products(case):
    """Every block of the one solve equals the products with the inverse,
    and a singular basis is rejected before any block is read."""
    ms, s = case
    basis = [s.column(j) for j in range(s.cols)]
    if _reference_inverse(s) is None:
        with pytest.raises(SingularBasis):
            represent_all_in_basis(ms, basis)
        with pytest.raises(SingularBasis):
            conjugate_all(ms, s)
        return
    s_inv = s.inverse()
    assert represent_all_in_basis(ms, basis) == tuple(s_inv * m * s for m in ms)
    assert conjugate_all(ms, s) == tuple(s * m * s_inv for m in ms)


def test_one_solve_rejects_mismatched_operators():
    basis = [(1, 0), (0, 1)]
    with pytest.raises(ValueError):
        represent_all_in_basis([ExactMatrix.identity(2), ExactMatrix([[1, 2]])], basis)
    with pytest.raises(AmbientMismatch):
        represent_all_in_basis([ExactMatrix.identity(2), ExactMatrix.identity(3)], basis)


def _off_diagonal_support(m):
    return {(i, j) for i in range(m.rows) for j in range(m.cols) if i != j and m[i, j] != 0}


def _random_operator(rng, n, tridiagonal):
    return ExactMatrix(
        [
            [
                Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                if not tridiagonal or abs(i - j) <= 1
                else 0
                for j in range(n)
            ]
            for i in range(n)
        ]
    )


@pytest.mark.parametrize("n", range(1, 8))
def test_support_in_basis_is_the_nonzero_pattern_of_the_change_of_basis(n):
    """On seeded random integer bases, the positions read off the integer
    solve for the primitive form of each operator are those of the nonzero
    off-diagonal entries of represent_all_in_basis: for dense and
    tridiagonal operators, and for operators S T S^-1 whose representation
    T is tridiagonal with scattered zeros."""
    rng = random.Random(n)
    found = 0
    while found < 6:
        s = ExactMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        if s.det() == 0:
            continue
        found += 1
        basis = [s.column(j) for j in range(n)]
        t = _random_operator(rng, n, True)
        ms = [_random_operator(rng, n, False), _random_operator(rng, n, True)]
        ms += conjugate_all((t,), s)
        reps = represent_all_in_basis(ms, basis)
        assert reps[2] == t
        for m, r in zip(ms, reps):
            assert support_in_basis(m, basis) == _off_diagonal_support(r)


def test_support_in_basis_rejects_what_the_change_of_basis_rejects():
    for reader in (represent_in_basis, support_in_basis):
        with pytest.raises(SingularBasis) as singular:
            reader(ExactMatrix.identity(2), [(1, 1), (2, 2)])
        assert str(singular.value) == "matrix is singular"
        with pytest.raises(AmbientMismatch) as mismatch:
            reader(ExactMatrix.identity(3), [(1, 0), (0, 1)])
        assert str(mismatch.value) == "basis size differs from the matrix dimension"


# --- the Bareiss core against the step that rescales every row -----------


def _reference_bareiss(rows, width=None):
    """Bareiss elimination as written before rows were left alone: each
    step rewrites every row below the pivot, dividing by the previous
    pivot, including the rows with a zero in the pivot column."""
    n_rows = len(rows)
    width = len(rows[0]) if width is None else width
    pivots = []
    sign, prev = 1, 1
    for c in range(width):
        r = len(pivots)
        if r == n_rows:
            break
        piv = next((i for i in range(r, n_rows) if rows[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        top = rows[r][c:]
        p = top[0]
        for row in rows[r + 1 :]:
            a = row[c]
            if a:
                row[c:] = [(p * x - a * y) // prev for x, y in zip(row[c:], top)]
            elif p != prev:
                row[c:] = [p * x // prev for x in row[c:]]
        prev = p
        pivots.append(c)
    return pivots, sign


def _banded(n, lower, upper):
    """n x n integer matrices that are zero off the band lower..upper."""
    entry = st.one_of(st.integers(-5, 5), st.integers(-(2**64), 2**64))
    return st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n).map(
        lambda rows: [
            [x if -lower <= j - i <= upper else 0 for j, x in enumerate(row)]
            for i, row in enumerate(rows)
        ]
    )


@st.composite
def _block_sparse(draw, rows, cols):
    """Blocks of a random size, each nonzero with the drawn density."""
    size = draw(st.integers(1, 3))
    density = draw(st.sampled_from([0.15, 0.25, 0.35, 0.5]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    live = {
        (i, j)
        for i in range(0, rows, size)
        for j in range(0, cols, size)
        if rng.random() < density
    }
    return [
        [rng.randint(-4, 4) if (i - i % size, j - j % size) in live else 0 for j in range(cols)]
        for i in range(rows)
    ]


@st.composite
def _zero_leading(draw):
    """Rows that start with runs of zeros of random lengths, shuffled, so
    rows skipped by early pivots are later swapped up as pivot rows."""
    n, cols = draw(st.integers(2, 8)), draw(st.integers(2, 8))
    rng = random.Random(draw(st.integers(0, 2**32)))
    rows = []
    for _ in range(n):
        lead = rng.randrange(cols)
        head = rng.choice([-3, -2, -1, 1, 2, 3, 7])
        rows.append([0] * lead + [head] + [rng.randint(-3, 3) for _ in range(cols - lead - 1)])
    rng.shuffle(rows)
    return rows


_square_bands = st.integers(1, 8).flatmap(
    lambda n: st.sampled_from([(0, 0), (1, 0), (0, 1), (1, 1)]).flatmap(
        lambda band: _banded(n, *band)
    )
)


def _assert_bareiss_matches_reference(rows, width=None):
    ours, theirs = [list(r) for r in rows], [list(r) for r in rows]
    pivots, sign = linalg._bareiss(ours, width)
    assert (pivots, sign) == _reference_bareiss(theirs, width)
    if width is None:
        assert ours == theirs
    else:
        assert ours[: len(pivots)] == theirs[: len(pivots)]


@given(
    st.one_of(
        _square_bands,
        st.tuples(st.integers(1, 9), st.integers(1, 9)).flatmap(lambda s: _block_sparse(*s)),
        _zero_leading(),
    )
)
@example([[2, 1, 0], [0, 0, 3], [0, 5, 1]])
@example([[0, 0, 1], [0, 2, 1], [3, 1, 1], [1, 1, 1]])
@example([[0]])
@settings(max_examples=300, deadline=None)
def test_bareiss_matches_the_rescaling_loop(rows):
    """Leaving a row alone until it is eliminated gives the same pivots,
    sign and rows as rescaling it at every step; in the first example
    the stale third row is swapped up as the second pivot row."""
    _assert_bareiss_matches_reference(rows)


@st.composite
def _augmented(draw):
    """(S | R) rows of an n x n S, often singular or sparse, and n."""
    n, k = draw(st.integers(1, 7)), draw(st.integers(0, 4))
    s = draw(st.one_of(_banded(n, 1, 1), _block_sparse(n, n)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return [row + [rng.randint(-9, 9) for _ in range(k)] for row in s], n


@given(_augmented())
@example(([[2, 1, 5], [0, 0, 7]], 2))
@example(([[0, 1, 0, 4], [1, 0, 0, 5], [0, 0, 3, 6]], 3))
@settings(max_examples=300, deadline=None)
def test_bareiss_with_width_matches_the_rescaling_loop(case):
    """With the pivots sought in S only, the pivot rows agree; the rows
    below them are zero on S in both and are never read."""
    rows, n = case
    _assert_bareiss_matches_reference(rows, n)


class _CountedRow(list):
    writes = 0

    def __setitem__(self, key, value):
        if isinstance(key, slice):
            _CountedRow.writes += 1
        super().__setitem__(key, value)


def test_a_row_is_rewritten_only_when_it_is_eliminated(monkeypatch):
    """A 40 x 40 tridiagonal matrix needs one elimination per pivot; the
    rescaling loop wrote 780 rows for it."""
    n = 40
    rows = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)]
    expected = [list(r) for r in rows]
    _reference_bareiss(expected)
    monkeypatch.setattr(_CountedRow, "writes", 0)
    counted = [_CountedRow(r) for r in rows]
    assert linalg._bareiss(counted) == (list(range(n)), 1)
    assert counted == expected
    assert _CountedRow.writes <= 2 * n


def _reference_contains(space, other):
    """The row reduction Subspace.contains used before the rank test:
    reduce each row of other by the canonical rows of space."""
    if other.ambient_dim != space.ambient_dim:
        raise AmbientMismatch("subspaces live in different ambient spaces")
    for v in other.basis:
        residual = list(v)
        for row in space.basis:
            pivot = next(j for j, x in enumerate(row) if x != 0)
            coeff = residual[pivot]
            if coeff != 0:
                residual = [x - coeff * y for x, y in zip(residual, row)]
        if any(residual):
            return False
    return True


def _subspace_pairs(n):
    """(U, W) with W spanned by combinations of U's spanning vectors and
    extra vectors, so that both W ⊆ U and W ⊄ U occur; either may be 0."""
    vectors = st.lists(st.lists(rationals, min_size=n, max_size=n), max_size=n)
    return st.tuples(vectors, vectors, st.lists(rationals, max_size=n)).map(
        lambda t: (
            Subspace.span(n, t[0]),
            Subspace.span(
                n,
                [[sum(c * v[i] for c, v in zip(t[2], t[0])) for i in range(n)]] + t[1],
            ),
        )
    )


@given(st.integers(1, 5).flatmap(_subspace_pairs))
@example((Subspace.zero(3), Subspace.zero(3)))
@example((Subspace.zero(2), Subspace.line((1, 2))))
@example((Subspace.line((1, 2)), Subspace.zero(2)))
@example((Subspace.full(3), Subspace.line((0, 0, 1))))
@ORACLE
def test_contains_matches_row_reduction(spaces):
    u, w = spaces
    assert u.contains(w) == _reference_contains(u, w)
    assert w.contains(u) == _reference_contains(w, u)


def test_contains_rejects_ambient_mismatch():
    for u, w in [(Subspace.zero(2), Subspace.zero(3)), (Subspace.full(2), Subspace.line((1, 0, 0)))]:
        with pytest.raises(AmbientMismatch):
            u.contains(w)
        with pytest.raises(AmbientMismatch):
            _reference_contains(u, w)


def _reference_intersection(u, w):
    """The stacked kernel subspace_intersection used before it solved W's
    equations: the coefficient pairs (a, b) with a·U = b·W form the kernel
    of the system with columns (U^T | -W^T)."""
    n = u.ambient_dim
    if u.is_zero or w.is_zero:
        return Subspace.zero(n)
    stacked = ExactMatrix(
        [[row[r] for row in u.basis] + [-row[r] for row in w.basis] for r in range(n)]
    )
    vectors = [
        [sum(c * row[r] for c, row in zip(coeffs, u.basis)) for r in range(n)]
        for coeffs in kernel(stacked)
    ]
    return Subspace.span(n, vectors)


@given(st.integers(1, 5).flatmap(_subspace_pairs))
@example((Subspace.zero(3), Subspace.zero(3)))
@example((Subspace.zero(2), Subspace.line((1, 2))))
@example((Subspace.full(3), Subspace.zero(3)))
@example((Subspace.full(3), Subspace.full(3)))
@example((Subspace.full(3), Subspace.line((0, 0, 1))))
@example((Subspace.line((1, 2, 0)), Subspace.line((Fraction(-1, 2), -1, 0))))
@example((Subspace.line((1, 2, 0)), Subspace.line((0, 1, 0))))
@ORACLE
def test_intersection_matches_stacked_kernel(spaces):
    u, w = spaces
    expected = _reference_intersection(u, w)
    assert subspace_intersection(u, w) == subspace_intersection(w, u) == expected


def test_intersection_matches_stacked_kernel_on_large_shapes():
    """A line in and out of a plane of Q^64, and two dense 31-dimensional
    spaces of Q^32, which meet in 30 dimensions."""
    rng = random.Random(64)
    p, q, r = ([rng.randint(-5, 5) for _ in range(64)] for _ in range(3))
    plane = Subspace.span(64, [p, q])
    inside = Subspace.line([3 * x - y for x, y in zip(p, q)])
    outside = Subspace.line([x + y + z for x, y, z in zip(p, q, r)])
    dense = [random_subspace(rng, 32, 31) for _ in range(2)]
    for u, w, dim in [(inside, plane, 1), (outside, plane, 0), (*dense, 30)]:
        meet = subspace_intersection(u, w)
        assert meet.dim == dim
        assert meet == subspace_intersection(w, u) == _reference_intersection(u, w)


def _sylvester_hadamard(order):
    h = [[1]]
    while len(h) < order:
        h = [row + row for row in h] + [row + [-x for x in row] for row in h]
    return h


def test_charpoly_at_exact_hadamard_bound():
    """|det| of 2^40 times the order-8 Sylvester Hadamard matrix is
    (sqrt(8) 2^40)^8 = 2^332, exactly the bound the CRT must exceed twice."""
    m = ExactMatrix([[x << 40 for x in row] for row in _sylvester_hadamard(8)])
    coeffs = charpoly(m)
    assert abs(coeffs[0]) == 2**332
    assert coeffs == _reference_charpoly(m)


@pytest.mark.parametrize("entry", [-8, 8, -52, 52])
def test_crt_stops_past_twice_the_bound(entry, monkeypatch):
    """With the moduli 3, 5, 7, ...: for [[-8]] the product 15 exceeds the
    bound 8 but not twice it, and for [[-52]] the product 105 leaves 52
    exactly at the edge of the symmetric range."""
    monkeypatch.setattr(linalg, "_PRIMES", (3, 5, 7, 11, 13))
    assert charpoly(ExactMatrix([[entry]])) == (-entry, 1)


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _miller_rabin(n):
    """A proof of primality below 3.1e23 with these bases (Sorenson-Webster)."""
    if n < 2:
        return False
    if n in _MR_BASES:
        return True
    if any(n % a == 0 for a in _MR_BASES):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_checked_in_primes_are_the_largest_below_2_61():
    assert len(_PRIMES) == 512 and prod(_PRIMES) > 2**31000
    assert list(_PRIMES) == sorted(_PRIMES, reverse=True) and _PRIMES[0] < 2**61
    assert all(_miller_rabin(p) for p in _PRIMES)
    odd = range(2**61 - 1, _PRIMES[-1] - 1, -2)
    assert [n for n in odd if _miller_rabin(n)] == list(_PRIMES)


def test_moduli_extend_past_the_table():
    sieve = [n for n in range(200) if all(n % k for k in range(2, n)) and n > 1]
    assert [n for n in range(200) if _is_prime(n)] == sieve
    extra = list(islice(_moduli(), len(_PRIMES), len(_PRIMES) + 8))
    below = (n for n in range(_PRIMES[-1] - 2, 0, -2) if _miller_rabin(n))
    assert extra == list(islice(below, 8))


# --- eigenlines ----------------------------------------------------------


def _invertible(rng, n):
    while True:
        t = ExactMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        if t.det() != 0:
            return t


def _wide(pair, m):
    """A -> cA + cI and A* -> cA* + cI with c = M / 2^(m-1), M the least
    m-bit prime, as the wide-entries benchmark rescales its pairs."""
    c = Fraction(next(n for n in range(2 ** (m - 1) + 1, 2**m) if _is_prime(n)), 2 ** (m - 1))
    eye = ExactMatrix.identity(pair.d + 1)
    return c * pair.a + c * eye, c * pair.a_star + c * eye


def _eigen_pairs(kraw, standard_triple):
    """(A, A*) inputs to recognition: Krawtchouk pairs, their wide-entries
    rescalings and the members of mutually adjacent triples."""
    pairs = [kraw(d, p) for d in range(9) for p in (Fraction(1, 3), Fraction(2, 5))]
    out = [(pair.a, pair.a_star) for pair in pairs]
    out += [_wide(kraw(d, Fraction(1, 3)), m) for d in (2, 4) for m in (12, 16, 22)]
    out += [(q.a, q.a_star) for d in range(1, 5) for q in standard_triple(d)]
    return out


def _eigen_matrices():
    """Simple rational spectra with eigenvalues p/q, q > 1, conjugated by
    integer T, and by diagonals whose entries give the rows very different
    denominators; also a negative 1 x 1 and a rational diagonal whose
    first entry is neither the largest nor the smallest."""
    rng = random.Random(1212)
    out = [
        ExactMatrix([[Fraction(-7, 3)]]),
        ExactMatrix.diagonal([Fraction(1, 2), Fraction(5, 3), Fraction(-2, 7)]),
    ]
    for n in range(1, 6):
        # k/q with q prime and k % q != 0: distinct, and none an integer
        values = rng.sample(
            [Fraction(k, q) for q in (2, 3, 7) for k in range(-3 * q, 3 * q) if k % q], n
        )
        t = _invertible(rng, n)
        out.append(t * ExactMatrix.diagonal(values) * t.inverse())
        scale = ExactMatrix.diagonal([Fraction(7**i, 3 ** (2 * (n - i))) for i in range(n)])
        out.append(scale * out[-1] * scale.inverse())
    return out


def test_eigenlines_match_the_kernel_route(kraw, standard_triple):
    matrices = _eigen_matrices()
    matrices += [m for pair in _eigen_pairs(kraw, standard_triple) for m in pair]
    for m in matrices:
        n = m.rows
        eigen = simple_rational_eigen(m)
        coeffs = charpoly(m)
        assert len({lam for lam, _ in eigen}) == n
        assert all(sum(c * lam**k for k, c in enumerate(coeffs)) == 0 for lam, _ in eigen)
        shift = lambda lam: m - ExactMatrix.diagonal([lam] * n)
        assert eigen == tuple((lam, Subspace.span(n, kernel(shift(lam)))) for lam, _ in eigen)
        for _, line in eigen:
            twin = Subspace(n, line.basis)
            assert twin == line and hash(twin) == hash(line) and repr(twin) == repr(line)


def test_recognition_eliminates_each_eigenline_once(kraw, standard_triple, monkeypatch):
    """No kernel and no span: recognition reads each eigenline off its
    one elimination."""
    pairs = _eigen_pairs(kraw, standard_triple)
    matrices = _eigen_matrices()

    def forbidden(*args, **kwargs):
        raise RuntimeError("recognition eliminates each eigenline once")

    monkeypatch.setattr(linalg, "kernel", forbidden)
    monkeypatch.setattr(Subspace, "span", classmethod(forbidden))
    for a, a_star in pairs:
        assert verify_leonard(a, a_star).d == a.rows - 1
    for m in matrices:
        assert len(simple_rational_eigen(m)) == m.rows
