import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leonard_kit import jsonio
from leonard_kit.cli import main
from leonard_kit.errors import (
    DecompositionNotStandard,
    DimensionMismatch,
    NotADecomposition,
    NotSimpleRationalSpectrum,
    NotTridiagonalizable,
)
from leonard_kit.leonard import (
    Decomposition,
    Kind,
    eigenvalue_sequence,
    standard_decompositions,
    verify_leonard,
)
from leonard_kit.linalg import ExactMatrix, Subspace, charpoly, subspace_intersection
from leonard_kit.sl2 import KrawtchoukParameters, krawtchouk_pair


def test_verify_krawtchouk_d1():
    pair = verify_leonard(
        ExactMatrix.diagonal([1, -1]),
        ExactMatrix([["1/3", "2/3"], ["4/3", "-1/3"]]),
    )
    assert pair.d == 1
    assert pair.eigenvalue_sequences == ((1, -1), (-1, 1))
    assert pair.dual_eigenvalue_sequences == ((1, -1), (-1, 1))


def test_verify_rejects_diagonal_partner():
    with pytest.raises(NotTridiagonalizable):
        verify_leonard(ExactMatrix.diagonal([1, -1]), ExactMatrix.diagonal([1, -1]))


def test_verify_rejects_irrational_partner_spectrum():
    # a_star has eigenvalues +-sqrt(2), so the swapped side fails
    with pytest.raises(NotSimpleRationalSpectrum):
        verify_leonard(ExactMatrix.diagonal([1, -1]), ExactMatrix([[0, 2], [1, 0]]))


# Entries whose cleared characteristic polynomials have large prime
# factors: recognition must not depend on factoring them.


def test_verify_200_bit_prime_entries():
    big, other = 2**200 - 75, 2**200 - 117  # both prime
    pair = verify_leonard(ExactMatrix.diagonal([big, other]), ExactMatrix([[0, 1], [1, 0]]))
    assert pair.eigenvalue_sequences == ((big, other), (other, big))
    assert pair.dual_eigenvalue_sequences == ((1, -1), (-1, 1))


def test_verify_krawtchouk_rescaled_by_wide_prime(kraw):
    c = Fraction(2**24 - 3, 2**23)  # the largest 24-bit prime over 2^23
    base = kraw(8, Fraction(1, 3))
    shift = c * ExactMatrix.identity(9)
    pair = verify_leonard(c * base.a + shift, c * base.a_star + shift)
    theta = tuple(c * (9 - 2 * i) for i in range(9))
    assert pair.eigenvalue_sequences[0] == theta
    assert set(pair.dual_eigenvalue_sequences) == {theta, theta[::-1]}


def test_dense_conjugated_krawtchouk_d24(kraw):
    """Correctness at scale: T A T^-1 and T A* T^-1 with T a dense random
    integer matrix, entries in [-3, 3]."""
    d = 24
    base = kraw(d, Fraction(1, 3))
    rng = random.Random(d)
    while True:
        t = ExactMatrix([[rng.randint(-3, 3) for _ in range(d + 1)] for _ in range(d + 1)])
        if t.det() != 0:
            break
    t_inv = t.inverse()
    a = t * base.a * t_inv
    theta = tuple(Fraction(d - 2 * i) for i in range(d + 1))
    expected = [Fraction(1)]
    for root in theta:  # times (x - root)
        expected = [Fraction(0)] + expected
        for e in range(len(expected) - 1):
            expected[e] -= root * expected[e + 1]
    assert charpoly(a) == tuple(expected)
    pair = verify_leonard(a, t * base.a_star * t_inv)
    assert pair.eigenvalue_sequences[0] == theta
    assert pair.dual_eigenvalue_sequences[0] == theta


wide_rationals = st.builds(Fraction, st.integers(-(2**64), 2**64), st.integers(1, 2**64))


@given(
    d=st.integers(1, 5),
    p=st.sampled_from((Fraction(1, 3), Fraction(1, 2), Fraction(2, 5), Fraction(-1, 2))),
    xi=wide_rationals.filter(bool),
    zeta=wide_rationals,
    xi_star=wide_rationals.filter(bool),
    zeta_star=wide_rationals,
)
@settings(max_examples=40, deadline=None)
def test_affine_images_keep_the_decompositions(d, p, xi, zeta, xi_star, zeta_star):
    """(ξA + ζI, ξ*A* + ζ*I) is a Leonard pair with the same standard
    decompositions, and θ_i becomes ξθ_i + ζ (Terwilliger 2001)."""
    pair = krawtchouk_pair(KrawtchoukParameters(d, p))
    eye = ExactMatrix.identity(d + 1)
    image = verify_leonard(xi * pair.a + zeta * eye, xi_star * pair.a_star + zeta_star * eye)
    for kind in Kind:
        assert set(standard_decompositions(image, kind)) == set(
            standard_decompositions(pair, kind)
        )
    for seqs, mapped, x, z in (
        (pair.eigenvalue_sequences, image.eigenvalue_sequences, xi, zeta),
        (pair.dual_eigenvalue_sequences, image.dual_eigenvalue_sequences, xi_star, zeta_star),
    ):
        assert set(mapped) == {tuple(x * t + z for t in seq) for seq in seqs}


def test_verify_rejects_wide_irrational_block():
    c = Fraction(2**32 - 5, 2**31)  # 32-bit prime over 2^31
    # eigenvalues c (1 +- sqrt 2)
    with pytest.raises(NotSimpleRationalSpectrum):
        verify_leonard(ExactMatrix([[c, c], [2 * c, c]]), ExactMatrix([[0, 1], [1, 0]]))


def test_verify_rejects_size_mismatch():
    with pytest.raises(DimensionMismatch):
        verify_leonard(ExactMatrix.identity(2), ExactMatrix.identity(3))


def _both_ways(*edges):
    return {p for i, j in edges for p in ((i, j), (j, i))}


# (n, support of the 0/1 matrix A*, reason) with A = diag(n - 1, ..., 0)
SUPPORT_GRAPH_DEFECTS = [
    (
        4,
        _both_ways((0, 1), (1, 2), (2, 3), (0, 2)),
        "support graph has 4 edges where a path on 4 vertices needs 3",
    ),
    (4, _both_ways((0, 1), (0, 2), (0, 3)), "support graph has a vertex of degree above two"),
    (4, _both_ways((1, 2), (2, 3), (1, 3)), "support graph is not a single path"),
    (5, _both_ways((0, 1), (2, 3), (3, 4), (2, 4)), "support graph is disconnected"),
    (
        3,
        _both_ways((1, 2)) | {(0, 1)},
        "an off-diagonal entry vanishes on one side of the path",
    ),
]


@pytest.mark.parametrize("n, support, reason", SUPPORT_GRAPH_DEFECTS)
def test_recognition_names_the_support_graph_defect(n, support, reason, tmp_path, capsys):
    a = ExactMatrix.diagonal(range(n - 1, -1, -1))
    a_star = ExactMatrix([[int((i, j) in support) for j in range(n)] for i in range(n)])
    with pytest.raises(NotTridiagonalizable) as exc:
        verify_leonard(a, a_star)
    assert str(exc.value) == reason
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(jsonio.pair_to_obj(a, a_star)))
    assert main(["verify", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["error"] == "NotTridiagonalizable"
    assert report["reason"] == reason


def test_verify_recovers_order_after_permutation(kraw):
    base = kraw(2, Fraction(1, 2))
    # conjugate by the permutation swapping coordinates 0 and 1
    perm = ExactMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    pair = verify_leonard(perm * base.a * perm.inverse(), perm * base.a_star * perm.inverse())
    assert pair.d == 2
    assert pair.a == ExactMatrix.diagonal([0, 2, -2])
    # the path ordering recovers the spectral order regardless of the permutation
    assert pair.eigenvalue_sequences == ((2, 0, -2), (-2, 0, 2))


def test_d0_pair_accepted():
    pair = verify_leonard(ExactMatrix([[5]]), ExactMatrix([["7/2"]]))
    assert pair.d == 0
    assert len(standard_decompositions(pair, Kind.A)) == 1
    assert len(standard_decompositions(pair, Kind.A_STAR)) == 1


def test_standard_decompositions_are_inversions(kraw):
    pair = kraw(2, Fraction(1, 2))
    for kind in Kind:
        decs = standard_decompositions(pair, kind)
        assert len(decs) == 2
        assert decs[1] == decs[0].inversion()


def test_standard_decompositions_d1_spans(kraw):
    pair = kraw(1, Fraction(1, 3))
    decs = standard_decompositions(pair, Kind.A)
    assert decs[0].components == (Subspace.line((1, 0)), Subspace.line((0, 1)))
    assert decs[1].components == (Subspace.line((0, 1)), Subspace.line((1, 0)))


def test_eigenvalue_sequence_orientations(kraw):
    pair = kraw(2, Fraction(1, 2))
    decs = standard_decompositions(pair, Kind.A)
    assert eigenvalue_sequence(pair, decs[0], Kind.A) == (2, 0, -2)
    assert eigenvalue_sequence(pair, decs[1], Kind.A) == (-2, 0, 2)


def test_dual_sequence_d1(kraw):
    pair = kraw(1, Fraction(1, 3))
    dec = standard_decompositions(pair, Kind.A_STAR)[0]
    assert eigenvalue_sequence(pair, dec, Kind.A_STAR) == (1, -1)
    assert pair.a_star.det() == -1
    assert pair.a_star.trace() == 0


def test_wrong_kind_rejected(kraw):
    pair = kraw(2, Fraction(1, 2))
    dec = standard_decompositions(pair, Kind.A_STAR)[0]
    with pytest.raises(DecompositionNotStandard):
        eigenvalue_sequence(pair, dec, Kind.A)


def test_eigenvalues_pairwise_distinct(kraw):
    for d in range(1, 6):
        pair = kraw(d, Fraction(1, 3))
        for seq in pair.eigenvalue_sequences + pair.dual_eigenvalue_sequences:
            assert len(set(seq)) == len(seq)


def test_no_common_eigenline(kraw):
    # no line is simultaneously an eigenspace of A and of A* when d >= 1
    for d in (1, 2, 3):
        pair = kraw(d, Fraction(2, 5))
        for dec_a in standard_decompositions(pair, Kind.A):
            for dec_s in standard_decompositions(pair, Kind.A_STAR):
                for u in dec_a.components:
                    for w in dec_s.components:
                        assert subspace_intersection(u, w).is_zero


def test_three_term_ratio_on_verified_pairs(kraw):
    from leonard_kit.sequences import check_three_term_ratio

    for d in (3, 4, 5):
        pair = kraw(d, Fraction(1, 3))
        for i, theta in enumerate(pair.eigenvalue_sequences):
            holds, common = check_three_term_ratio(
                theta, pair.dual_eigenvalue_sequences[i]
            )
            assert holds
            if d >= 3:
                assert common == 3  # arithmetic sequences give ratio 3


def test_decomposition_validation():
    with pytest.raises(NotADecomposition):
        Decomposition((Subspace.line((1, 0)), Subspace.line((2, 0))))
    with pytest.raises(NotADecomposition):
        Decomposition((Subspace.line((1, 0)),))
    with pytest.raises(NotADecomposition):
        Decomposition((Subspace.full(2), Subspace.line((1, 0))))


def test_swapped_pair_is_verified_view(kraw):
    pair = kraw(2, Fraction(1, 2))
    swapped = pair.swapped()
    assert swapped.a == pair.a_star
    assert swapped.eigenvalue_sequences == pair.dual_eigenvalue_sequences
    # the swap agrees with verifying from scratch
    direct = verify_leonard(pair.a_star, pair.a)
    assert direct == swapped
