"""Constructions from sl2: Chevalley bases, irreducible actions, the
six-operator family on pairwise independent plane vectors, Krawtchouk
pairs, affine transforms, the Krawtchouk normal form, and companions.

An element a of sl2 with determinant -1 on the plane acts on the
(d+1)-dimensional irreducible module with spectrum d, d-2, ..., -d.
Lifting the six operators cut out by four pairwise independent plane
vectors produces three mutually adjacent Leonard pairs; conversely a
pair with arithmetic eigenvalue data is conjugate to an explicit
tridiagonal normal form, from which two adjacent companions are built.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence

from ._record import Record
from .adjacency import check_mutually_adjacent
from .errors import (
    DependentVectors,
    InvalidP,
    NotArithmetic,
    NotKrawtchouk,
    NotSimpleRationalSpectrum,
    NotTraceless,
    TheoremViolation,
    ZeroScale,
)
from .leonard import LeonardPair, verify_leonard
from .linalg import (
    ONE,
    ZERO,
    ExactMatrix,
    Scalar,
    Vector,
    as_fraction,
    as_vector,
    commutator,
    conjugate_all,
    kernel,
    rank,
    represent_all_in_basis,
    simple_rational_eigen,
)
from .sequences import SequenceTag, classify_sequence


def _plane_vector(v: Iterable[Scalar]) -> Vector:
    vec = as_vector(v)
    if len(vec) != 2:
        raise DependentVectors("plane constructions need vectors of length 2")
    if all(x == 0 for x in vec):
        raise DependentVectors("the zero vector is not allowed")
    return vec


def _independent(u: Vector, v: Vector) -> bool:
    return u[0] * v[1] - u[1] * v[0] != 0


class ChevalleyBasis(Record):
    """Basis e, f, h of sl2 with [e,f] = h, [e,h] = -2e, [f,h] = 2f."""

    __slots__ = ("e", "f", "h")

    e: ExactMatrix
    f: ExactMatrix
    h: ExactMatrix

    def _validate(self):
        for m in (self.e, self.f, self.h):
            if m.shape != (2, 2) or m.trace() != 0:
                raise NotTraceless("Chevalley basis elements must be traceless 2x2")
        if (
            commutator(self.e, self.f) != self.h
            or commutator(self.e, self.h) != -2 * self.e
            or commutator(self.f, self.h) != 2 * self.f
        ):
            raise ValueError("bracket relations fail for the claimed Chevalley basis")

    @classmethod
    def standard(cls) -> "ChevalleyBasis":
        return cls(*standard_generators(1))


class Sl2Element(Record):
    """Coefficients (alpha, beta, gamma) of alpha*h + beta*e + gamma*f
    relative to some Chevalley basis."""

    __slots__ = ("alpha", "beta", "gamma")

    alpha: Fraction
    beta: Fraction
    gamma: Fraction


class KrawtchoukParameters(Record):
    __slots__ = ("d", "p")

    d: int
    p: Fraction

    def _validate(self):
        object.__setattr__(self, "p", as_fraction(self.p))
        if self.d < 0:
            raise InvalidP("the diameter must be nonnegative")
        if self.p in (0, 1):
            raise InvalidP("p must avoid 0 and 1")


def standard_generators(d: int) -> tuple[ExactMatrix, ExactMatrix, ExactMatrix]:
    """The (d+1)-dimensional irreducible action of a Chevalley basis:
    E with superdiagonal d, d-1, ..., 1; F with subdiagonal 1, ..., d;
    H = diag(d, d-2, ..., -d)."""
    return tuple(lift(Sl2Element(*c), d) for c in ((0, 1, 0), (0, 0, 1), (1, 0, 0)))


def chevalley_from_basis(v0: Iterable[Scalar], v1: Iterable[Scalar]) -> ChevalleyBasis:
    """The Chevalley basis acting by e: v1 -> v0 -> 0, f: v0 -> v1 -> 0,
    h: v0 -> v0, v1 -> -v1."""
    u0, u1 = _plane_vector(v0), _plane_vector(v1)
    if not _independent(u0, u1):
        raise DependentVectors("v0 and v1 must be linearly independent")
    s = ExactMatrix.from_columns([u0, u1])
    return ChevalleyBasis(*conjugate_all(standard_generators(1), s))


def matrix_with_eigenpairs(
    u_plus: Iterable[Scalar], u_minus: Iterable[Scalar]
) -> ExactMatrix:
    """The unique plane operator fixing u_plus and negating u_minus;
    it is traceless with determinant -1."""
    a, b = _plane_vector(u_plus), _plane_vector(u_minus)
    if not _independent(a, b):
        raise DependentVectors("eigenvectors must be linearly independent")
    s = ExactMatrix.from_columns([a, b])
    return conjugate_all((ExactMatrix.diagonal([1, -1]),), s)[0]


def decompose_sl2(m: ExactMatrix, basis: ChevalleyBasis) -> Sl2Element:
    """Coefficients of a traceless plane operator in the given basis.

    A basis that spans sl2 is the one chevalley_from_basis(v0, f v0)
    builds, v0 spanning the kernel of h - I; only the zero triple fails."""
    if m.shape != (2, 2):
        raise NotTraceless("decomposition needs a 2x2 matrix")
    if m.trace() != 0:
        raise NotTraceless("the matrix must be traceless")
    line = kernel(basis.h - ExactMatrix.identity(2))
    if len(line) != 1:
        raise ValueError("the claimed Chevalley basis does not span sl2")
    return _sl2_coordinates([m], line[0], basis.f.apply(line[0]))[0]


def _sl2_coordinates(
    operators: Sequence[ExactMatrix], v0: Iterable[Scalar], v1: Iterable[Scalar]
) -> list[Sl2Element]:
    """Coordinates of plane operators in chevalley_from_basis(v0, v1), read
    off one solve: with S = (v0 | v1), S^{-1} m S = [[alpha, beta], [gamma, -alpha]]."""
    reps = represent_all_in_basis(operators, (v0, v1))
    if any(r[1, 1] != -r[0, 0] for r in reps):
        raise TheoremViolation("a plane operator of the family must be traceless")
    return [Sl2Element(r[0, 0], r[0, 1], r[1, 0]) for r in reps]


def _lift_all(
    operators: Sequence[ExactMatrix], v0: Iterable[Scalar], v1: Iterable[Scalar], d: int
) -> list[ExactMatrix]:
    """Lift plane operators by their Chevalley coordinates for (v0, v1)."""
    return [lift(elem, d) for elem in _sl2_coordinates(operators, v0, v1)]


def lift(elem: Sl2Element, d: int) -> ExactMatrix:
    """The action alpha*H + beta*E + gamma*F on the (d+1)-dimensional
    module: row i has alpha(d-2i) on the diagonal, beta(d-i) above it and
    gamma*i below it."""
    if d < 0:
        raise ValueError("the diameter must be nonnegative")
    alpha, beta, gamma = elem.alpha, elem.beta, elem.gamma
    if not all(isinstance(c, (Fraction, int)) for c in (alpha, beta, gamma)):
        raise TypeError("sl2 coefficients must be Fractions or integers")
    rows = [[ZERO] * (d + 1) for _ in range(d + 1)]
    for i in range(d + 1):
        rows[i][i] = alpha * (d - 2 * i)
        if i < d:
            rows[i][i + 1] = beta * (d - i)
        if i > 0:
            rows[i][i - 1] = gamma * i
    return ExactMatrix(rows)


class PtlReport(Record):
    """Verdicts of the three equivalent generation conditions for a
    plane pair (a, a*): four independent rational +-1 eigenvectors,
    generation with determinants -1, and the Chevalley form with
    beta*gamma = 1 - alpha^2 nonzero."""

    __slots__ = ("eigenvector_condition", "generation_condition", "chevalley_condition")

    eigenvector_condition: bool
    generation_condition: bool
    chevalley_condition: bool

    def consistent(self) -> bool:
        return (
            self.eigenvector_condition
            == self.generation_condition
            == self.chevalley_condition
        )

    def all_hold(self) -> bool:
        return self.consistent() and self.eigenvector_condition


def _unit_eigenlines(m: ExactMatrix):
    """The (+1, -1) eigenlines of a plane operator, or None."""
    if m.shape != (2, 2):
        return None
    try:
        eigen = simple_rational_eigen(m)
    except NotSimpleRationalSpectrum:
        return None
    values = tuple(lam for lam, _ in eigen)
    if values != (ONE, -ONE):
        return None
    return eigen[0][1], eigen[1][1]


def check_ptl(a: ExactMatrix, a_star: ExactMatrix) -> PtlReport:
    """Evaluate all three conditions independently and report each verdict."""
    lines_a = _unit_eigenlines(a)
    lines_a_star = _unit_eigenlines(a_star)
    eigenvector_condition = False
    if lines_a is not None and lines_a_star is not None:
        four = [*lines_a, *lines_a_star]
        eigenvector_condition = all(
            u != v for i, u in enumerate(four) for v in four[i + 1 :]
        )

    generation_condition = False
    if a.shape == (2, 2) and a_star.shape == (2, 2):
        if a.trace() == 0 and a_star.trace() == 0 and a.det() == -1 and a_star.det() == -1:
            flat = ExactMatrix(
                [
                    [m[i, j] for i in range(2) for j in range(2)]
                    for m in (a, a_star, commutator(a, a_star))
                ]
            )
            generation_condition = rank(flat) == 3

    chevalley_condition = False
    if lines_a is not None and a_star.shape == (2, 2) and a_star.trace() == 0:
        plus, minus = lines_a
        basis = chevalley_from_basis(plus.representative(), minus.representative())
        if a != basis.h:
            raise TheoremViolation("the Chevalley basis must have h equal to a")
        elem = decompose_sl2(a_star, basis)
        product = elem.beta * elem.gamma
        chevalley_condition = product == 1 - elem.alpha**2 and product != 0

    return PtlReport(eigenvector_condition, generation_condition, chevalley_condition)


def construct_six(
    v0: Iterable[Scalar],
    v1: Iterable[Scalar],
    w0: Iterable[Scalar],
    w1: Iterable[Scalar],
) -> tuple[ExactMatrix, ...]:
    """The six operators a, a*, b, b*, c, c* determined by fixing and
    negating the vectors in the pattern (v0,v1), (w0,w1), (v0,w0),
    (w1,v1), (v0,w1), (w0,v1)."""
    vs = [_plane_vector(v) for v in (v0, v1, w0, w1)]
    names = ("v0", "v1", "w0", "w1")
    for i in range(4):
        for j in range(i + 1, 4):
            if not _independent(vs[i], vs[j]):
                raise DependentVectors(f"{names[i]} and {names[j]} are dependent")
    p0, p1, q0, q1 = vs
    return (
        matrix_with_eigenpairs(p0, p1),
        matrix_with_eigenpairs(q0, q1),
        matrix_with_eigenpairs(p0, q0),
        matrix_with_eigenpairs(q1, p1),
        matrix_with_eigenpairs(p0, q1),
        matrix_with_eigenpairs(q0, p1),
    )


def three_mutually_adjacent(
    d: int,
    v0: Iterable[Scalar],
    v1: Iterable[Scalar],
    w0: Iterable[Scalar],
    w1: Iterable[Scalar],
) -> tuple[LeonardPair, LeonardPair, LeonardPair]:
    """Lift the six operators to the (d+1)-dimensional module and verify
    the three resulting Leonard pairs and their mutual adjacency."""
    lifted = _lift_all(construct_six(v0, v1, w0, w1), v0, v1, d)
    pairs = (
        verify_leonard(lifted[0], lifted[1]),
        verify_leonard(lifted[2], lifted[3]),
        verify_leonard(lifted[4], lifted[5]),
    )
    if d >= 1 and not check_mutually_adjacent(pairs):
        raise TheoremViolation("lifted pairs must be mutually adjacent")
    return pairs


def _krawtchouk_matrices(d: int, p: Fraction) -> tuple[ExactMatrix, ExactMatrix]:
    return lift(Sl2Element(1, 0, 0), d), lift(Sl2Element(1 - 2 * p, 2 * p, 2 * (1 - p)), d)


def krawtchouk_pair(params: KrawtchoukParameters) -> LeonardPair:
    """The verified pair with A = diag(d, d-2, ..., -d) and tridiagonal
    A* carrying diagonal (1-2p)(d-2i), superdiagonal 2p(d-i), and
    subdiagonal 2(1-p)i."""
    a, a_star = _krawtchouk_matrices(params.d, params.p)
    return verify_leonard(a, a_star)


def affine_transform(
    pair: LeonardPair,
    alpha: Scalar,
    beta: Scalar,
    alpha_star: Scalar,
    beta_star: Scalar,
) -> LeonardPair:
    """The re-verified pair (alpha*A + beta*I, alpha_star*A* + beta_star*I);
    eigenspaces and hence the flag set are unchanged."""
    al, be = as_fraction(alpha), as_fraction(beta)
    als, bes = as_fraction(alpha_star), as_fraction(beta_star)
    if al == 0 or als == 0:
        raise ZeroScale("affine transformations need nonzero leading coefficients")
    identity = ExactMatrix.identity(pair.ambient_dim)
    return verify_leonard(al * pair.a + be * identity, als * pair.a_star + bes * identity)


class KrawtchoukNormalForm(Record):
    """Change of basis S, parameter p, and the normalizing affine
    coefficients (alpha, beta, alpha_star, beta_star) such that
    conjugating the affinely normalized pair by S gives the Krawtchouk
    matrices exactly."""

    __slots__ = ("s", "p", "affine", "note")
    _defaults = {"note": None}

    s: ExactMatrix
    p: Fraction
    affine: tuple[Fraction, Fraction, Fraction, Fraction]
    note: Optional[str]


def _normalizing_affine(seq: tuple[Fraction, ...], d: int) -> tuple[Fraction, Fraction]:
    """Coefficients mapping an arithmetic sequence onto d, d-2, ..., -d."""
    delta = seq[1] - seq[0]
    alpha = Fraction(-2) / delta
    return alpha, Fraction(d) - alpha * seq[0]


def krawtchouk_normal_form(pair: LeonardPair) -> KrawtchoukNormalForm:
    """Constructive normal form for a pair with arithmetic eigenvalue
    and dual eigenvalue sequences.

    Both spectra are affinely normalized onto d, d-2, ..., -d; the
    A-standard basis is ordered accordingly; p is read from the top
    diagonal entry of the tridiagonal representation of the normalized
    A*; the basis vectors are rescaled to match the subdiagonal; and
    every remaining entry is verified exactly.  The first orientation of
    each sequence suffices: reversing theta* negates the normalized A*,
    and reversing theta lists the A-standard basis backwards, turning its
    matrix M into J M J (J the reversal).  Either sends p to 1 - p, and a
    match with K(p) becomes a diagonal similarity to K(1 - p), since the
    diagonals agree up to reflection and the off-diagonal products are
    unchanged; so all four orientations match or fail together.
    """
    d = pair.d
    theta, theta_star = pair.eigenvalue_sequences[0], pair.dual_eigenvalue_sequences[0]
    if d == 0:
        return KrawtchoukNormalForm(
            ExactMatrix.identity(1),
            Fraction(1, 2),
            (ONE, -theta[0], ONE, -theta_star[0]),
            note="d = 0 leaves p unconstrained; defaulting to 1/2",
        )
    for seq in (theta, theta_star):
        if classify_sequence(seq).tag is not SequenceTag.ARITHMETIC:
            raise NotArithmetic("both sequences must be in arithmetic progression")
    alpha, beta = _normalizing_affine(theta, d)
    alpha_star, beta_star = _normalizing_affine(theta_star, d)
    reps = [c.representative() for c in pair.a_standard_decompositions[0].components]
    # S^-1 (x M + y I) S = x S^-1 M S + y I: one solve serves both affine images
    rep_a, rep_a_star = represent_all_in_basis((pair.a, pair.a_star), reps)
    identity = ExactMatrix.identity(d + 1)
    m = alpha_star * rep_a_star + beta_star * identity
    p = (Fraction(d) - m[0, 0]) / (2 * d)
    if p not in (0, 1):
        scales = [ONE]
        for i in range(d):
            scales.append(scales[i] * m[i + 1, i] / (2 * (1 - p) * (i + 1)))
        rescaled = ExactMatrix(
            [[scales[j] * m[i, j] / scales[i] for j in range(d + 1)] for i in range(d + 1)]
        )
        a_target, target = _krawtchouk_matrices(d, p)
        if rescaled == target:
            # the rescaling conjugates by a diagonal matrix, which fixes a diagonal one
            if alpha * rep_a + beta * identity != a_target:
                raise TheoremViolation("the normal form basis must diagonalize A")
            # S^-1 A* S needs no check: it is `rescaled`, just compared with `target`
            s = ExactMatrix.from_columns([[x * c for x in v] for c, v in zip(scales, reps)])
            return KrawtchoukNormalForm(s, p, (alpha, beta, alpha_star, beta_star))
    raise NotKrawtchouk(
        "no orientation matches the tridiagonal normal form; "
        "this cannot happen for a pair with arithmetic sequences"
    )


def companions(pair: LeonardPair) -> tuple[KrawtchoukNormalForm, LeonardPair, LeonardPair]:
    """The normal form of the input and two verified pairs (B, B*) and
    (C, C*) mutually adjacent with it.

    Built in normal-form coordinates from the witness vectors (1,0),
    (0,1), (1,1), (p, p-1), lifted to dimension d+1, and conjugated
    back; the triple is checked before returning.
    """
    nf = krawtchouk_normal_form(pair)
    d, p = pair.d, nf.p
    witnesses = ((1, 0), (0, 1), (1, 1), (p, p - 1))
    plane = construct_six(*witnesses)[2:]
    out = conjugate_all(_lift_all(plane, witnesses[0], witnesses[1], d), nf.s)
    b_pair = verify_leonard(out[0], out[1])
    c_pair = verify_leonard(out[2], out[3])
    if d >= 1 and not check_mutually_adjacent([pair, b_pair, c_pair]):
        raise TheoremViolation("companions must be mutually adjacent with the input")
    return nf, b_pair, c_pair
