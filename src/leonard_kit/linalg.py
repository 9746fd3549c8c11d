"""Exact dense linear algebra over the rationals.

Everything in this package reduces to computations done here: reduced
row echelon forms, canonical subspaces of a rational coordinate space,
exact eigendecomposition for matrices with simple rational spectra,
and changes of basis.  Matrices and subspaces are immutable, entries
are ``fractions.Fraction``, and every result is exact, so equality of
canonical forms decides equality of the underlying objects.  The
scalar aliases and the coercion ``as_fraction`` are defined in
``_scalar`` and re-exported here, so code that handles only scalars and
sequences does not run this module.

Results are ``Fraction``s, but the elimination behind them is not: it
clears denominators once and works on Python ints, so no gcd is taken
until a result is turned back into fractions.

- The characteristic polynomial is that of the integer matrix D·M, with
  D the lcm of the denominators.  It is computed modulo primes just
  below 2^61 by reduction to upper Hessenberg form, and rebuilt by the
  Chinese remainder theorem with the symmetric lift once the product of
  the primes exceeds twice Hadamard's bound on its coefficients.
- ``Subspace.span``, ``Subspace.contains``, ``subspace_intersection``,
  ``kernel``, ``rank``, ``ExactMatrix.det``, ``ExactMatrix.inverse`` and
  ``represent_all_in_basis`` share one fraction-free Bareiss elimination.
  A row is rewritten only when it is eliminated, dividing exactly by the
  pivot it was last rewritten by, so every entry stays a minor of the
  input, and back substitution yields the solutions times one common
  denominator.  Canonical forms read their reduced rows off the kernel
  solutions.  Each eigenline is one elimination of the shifted rows,
  and U ∩ W one of W's equations in the coefficients of U.  Every
  change of basis S^{-1} M S and conjugation S M S^{-1} in the package
  is one shared solve for all its operators (``_solve_in_basis``), whose
  nonzero off-diagonal positions recognition reads (``support_in_basis``);
  split verdicts test span membership instead (``bidiagonal_in_basis``).

Rational eigenvalues are found without factoring any number.  With
B = D·M integral, t = B[0][0] and g the content of B - t·I, M is
decomposed as the primitive integer matrix N = (B - t·I)/g: N has M's
eigenlines, and each eigenvalue y of N gives θ = (g·y + t)/D in the same
order, so c·M + c'·I is decomposed at the cost of M, and its support
in a basis is read off N too.  The y are the integer roots of N's monic
characteristic polynomial.  Its squarefree part comes from gcds modulo
primes joined by the Chinese remainder theorem, and its roots are
Hensel-lifted from a small prime and confirmed exactly, so the cost
follows the degree and the bit-size of N's entries, not their prime
factors.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import comb, gcd, isqrt, lcm, prod
from operator import mul
from typing import Iterable, Iterator, Sequence

from ._record import Record
from ._scalar import ONE, ZERO, Rational, Scalar, Vector, as_fraction, as_vector
from .errors import AmbientMismatch, NotSimpleRationalSpectrum, SingularBasis, TheoremViolation


class ExactMatrix(Record):
    """Immutable dense matrix of rationals, built from rows of scalars."""

    __slots__ = ("entries",)

    entries: tuple[tuple[Fraction, ...], ...]

    def _validate(self) -> None:
        entries = tuple(tuple(as_fraction(x) for x in row) for row in self.entries)
        if not entries or not entries[0]:
            raise ValueError("a matrix needs at least one row and one column")
        width = len(entries[0])
        if any(len(row) != width for row in entries):
            raise ValueError("all rows must have the same length")
        object.__setattr__(self, "entries", entries)

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls([[ZERO] * cols for _ in range(rows)])

    @classmethod
    def diagonal(cls, values: Iterable[Scalar]) -> "ExactMatrix":
        vals = as_vector(values)
        n = len(vals)
        return cls([[vals[i] if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, columns: Sequence[Iterable[Scalar]]) -> "ExactMatrix":
        cols = [as_vector(c) for c in columns]
        if not cols:
            raise ValueError("need at least one column")
        return cls([[col[i] for col in cols] for i in range(len(cols[0]))])

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        return self.entries[i][j]

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self.entries)

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(zip(*self.entries))

    def trace(self) -> Fraction:
        if not self.is_square:
            raise ValueError("trace needs a square matrix")
        return sum((self.entries[i][i] for i in range(self.rows)), ZERO)

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise AmbientMismatch(f"cannot add a {self.shape} and a {other.shape} matrix")
        return ExactMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ]
        )

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix([[-x for x in row] for row in self.entries])

    def __mul__(self, other):
        if isinstance(other, ExactMatrix):
            if self.cols != other.rows:
                raise AmbientMismatch(
                    f"cannot multiply a {self.shape} and a {other.shape} matrix"
                )
            cols = other.transpose().entries
            return ExactMatrix(
                [
                    [sum((a * b for a, b in zip(row, col)), ZERO) for col in cols]
                    for row in self.entries
                ]
            )
        if isinstance(other, (Fraction, int)):
            c = as_fraction(other)
            return ExactMatrix([[c * x for x in row] for row in self.entries])
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (Fraction, int)):
            return self * other
        return NotImplemented

    def apply(self, v: Iterable[Scalar]) -> Vector:
        """Matrix times column vector."""
        vec = as_vector(v)
        if len(vec) != self.cols:
            raise AmbientMismatch(f"vector of length {len(vec)} does not fit {self.shape}")
        return tuple(sum((a * b for a, b in zip(row, vec)), ZERO) for row in self.entries)

    def inverse(self) -> "ExactMatrix":
        """Solve B X = I by fraction-free elimination, where column j of
        the integer matrix B is column j of this matrix times the lcm s_j
        of its denominators; row j of the inverse is then s_j times row j
        of X.  Columns are cleared, not rows, because bases of vectors
        with their own denominators are the usual input."""
        if not self.is_square:
            raise SingularBasis("only square matrices can be inverted")
        n = self.rows
        columns, scales = zip(*(_scaled(col) for col in zip(*self.entries)))
        rows = [
            list(row) + [int(i == j) for j in range(n)]
            for i, row in enumerate(zip(*columns))
        ]
        solutions, den = _solve(rows, n)
        return ExactMatrix(
            [
                [Fraction(scales[i] * x[i], den) for x in solutions]
                for i in range(n)
            ]
        )

    def det(self) -> Fraction:
        if not self.is_square:
            raise ValueError("determinant needs a square matrix")
        rows, scales = map(list, zip(*(_scaled(row) for row in self.entries)))
        pivots, sign = _bareiss(rows)
        if len(pivots) < self.rows:
            return ZERO
        return Fraction(sign * rows[-1][-1], prod(scales))


def commutator(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    return a * b - b * a


def _scaled(vec: Sequence[Fraction]) -> tuple[list[int], int]:
    """The vector times the lcm of its denominators, and that lcm."""
    den = lcm(*(x.denominator for x in vec))
    return [x.numerator * (den // x.denominator) for x in vec], den


def _integer_matrix(m: ExactMatrix) -> tuple[list[list[int]], int]:
    """D·m and D, for D the lcm of all denominators of m."""
    den = lcm(*(x.denominator for row in m.entries for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in m.entries], den


def _primitive(m: ExactMatrix) -> tuple[list[list[int]], int, int, int]:
    """The primitive integer matrix N = (D·m - t·I)/g with t, g and D: D is
    the lcm of m's denominators, t = D·m[0][0] and g the content of
    D·m - t·I (1 when it is zero).  N has m's eigenlines, its eigenvalue y
    is m's (g·y + t)/D, and off the diagonal N is m times D/g."""
    b, den = _integer_matrix(m)
    t = b[0][0]
    for i, row in enumerate(b):
        row[i] -= t
    g = gcd(*(x for row in b for x in row)) or 1
    return [[x // g for x in row] for row in b], t, g, den


def _bareiss(rows: list[list[int]], width: int | None = None) -> tuple[list[int], int]:
    """Fraction-free row echelon form of integer rows, in place (Bareiss).

    Pivots are sought in the first ``width`` columns (all by default)
    and brought up by row swaps.  A row is rewritten only when it is
    eliminated: for pivot p and the row's entry a in the pivot column,
    it becomes (p·row - a·pivot row) / level, where level is the pivot
    it was last rewritten by (1 at first).  A row with a zero in the
    pivot column is left alone.  Bareiss's step would scale it by
    p/(previous pivot); those factors telescope, so a row of level l
    stands for row·prev/l, with prev the last pivot, and it is brought
    up to prev when it becomes the pivot row.  So every division is
    exact, every entry stays a minor of the input, and the k-th pivot
    is, up to the sign of the row permutation, the determinant of the
    input's first k pivot rows and pivot columns.  Returns the pivot
    columns and that sign.  Rows below the last pivot are zero in the
    first ``width`` columns.
    """
    n_rows = len(rows)
    width = len(rows[0]) if width is None else width
    pivots: list[int] = []
    level = [1] * n_rows
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
            level[r], level[piv] = level[piv], level[r]
            sign = -sign
        top = rows[r][c:]
        if level[r] != prev:
            top = rows[r][c:] = [x * prev // level[r] for x in top]
        p = top[0]
        for i, row in enumerate(rows[r + 1 :], r + 1):
            a = row[c]
            if a:
                row[c:] = [(p * x - a * y) // level[i] for x, y in zip(row[c:], top)]
                level[i] = p
        prev = p
        pivots.append(c)
    return pivots, sign


def _back_substitute(
    rows: list[list[int]], pivots: list[int], x: list[int], rhs: Sequence[int] | None = None
) -> list[int]:
    """Fill in the pivot entries of x, in place, so that the echelon rows
    times x give rhs (zero by default) on the pivot rows.  The caller
    scales x and rhs so that the solution is integral; every division
    is then exact."""
    width = len(x)
    for i in range(len(pivots) - 1, -1, -1):
        row, c = rows[i], pivots[i]
        acc = sum(map(mul, row[c + 1 : width], x[c + 1 :]))
        x[c] = ((rhs[i] if rhs else 0) - acc) // row[c]
    return x


def _solve(rows: list[list[int]], n: int) -> tuple[list[list[int]], int]:
    """Solve S X = R for the n x n integer matrix S and the integer
    right-hand sides R, given as the augmented rows (S | R).  Returns the
    columns of den·X and the integer den (the last Bareiss pivot, ±det S).
    Raises SingularBasis when S is singular."""
    pivots, _ = _bareiss(rows, n)
    if len(pivots) < n:
        raise SingularBasis("matrix is singular")
    den = rows[-1][n - 1]
    return [
        _back_substitute(rows, pivots, [0] * n, [den * row[j] for row in rows])
        for j in range(n, len(rows[0]))
    ], den


def rank(m: ExactMatrix) -> int:
    return len(_bareiss([_scaled(row)[0] for row in m.entries])[0])


def _echelon(rows: list[list[int]]) -> tuple[list[int], int, dict[int, list[int]]]:
    """Fraction-free reduction of integer rows, in place.

    Returns the pivot columns, the last Bareiss pivot den (1 without
    pivots), and for each free column c the integer vector x_c that is
    den on c, 0 on the other free columns, and annihilated by the rows.
    So x_c / den is the kernel vector of c, and the reduced row of the
    i-th pivot p_i is 1 on p_i, -x_c[p_i] / den on each free column c
    and 0 elsewhere: den is, up to sign, the determinant of the pivot
    block, so every x_c is integral and every division exact.
    """
    pivots, _ = _bareiss(rows)
    den = rows[len(pivots) - 1][pivots[-1]] if pivots else 1
    width = len(rows[0])
    free = {}
    for c in sorted(set(range(width)) - set(pivots)):
        x = [0] * width
        x[c] = den
        free[c] = _back_substitute(rows, pivots, x)
    return pivots, den, free


def kernel(m: ExactMatrix) -> tuple[Vector, ...]:
    """Basis of the right kernel {x : m x = 0}, one vector per free column:
    x is 1 on its free column and 0 on the others."""
    _, den, free = _echelon([_scaled(row)[0] for row in m.entries])
    return tuple(tuple(Fraction(v, den) for v in x) for x in free.values())


class Subspace(Record):
    """Subspace of Q^n held in canonical form.

    The basis rows are in reduced row echelon form (unit pivots, zeros
    above and below, pivots strictly left to right), so two Subspaces
    are equal exactly when they are the same subspace.
    """

    __slots__ = ("ambient_dim", "basis")

    ambient_dim: int
    basis: tuple[Vector, ...]

    def _validate(self):
        object.__setattr__(
            self, "basis", tuple(as_vector(row) for row in self.basis)
        )
        last_pivot = -1
        for i, row in enumerate(self.basis):
            if len(row) != self.ambient_dim:
                raise AmbientMismatch("basis vector length differs from ambient dimension")
            pivot = next((j for j, x in enumerate(row) if x != 0), None)
            if pivot is None:
                raise ValueError("canonical basis cannot contain a zero row")
            if row[pivot] != 1 or pivot <= last_pivot:
                raise ValueError("basis is not in reduced row echelon form")
            if any(other[pivot] != 0 for k, other in enumerate(self.basis) if k != i):
                raise ValueError("basis is not in reduced row echelon form")
            last_pivot = pivot

    @classmethod
    def span(cls, ambient_dim: int, vectors: Iterable[Iterable[Scalar]]) -> "Subspace":
        """Canonical subspace spanned by arbitrary vectors (zero rows dropped)."""
        vecs = [as_vector(v) for v in vectors]
        for v in vecs:
            if len(v) != ambient_dim:
                raise AmbientMismatch("vector length differs from ambient dimension")
        if not vecs:
            return cls(ambient_dim, ())
        pivots, den, free = _echelon([_scaled(v)[0] for v in vecs])
        basis = []
        for p in pivots:
            row = [ZERO] * ambient_dim
            row[p] = ONE
            for c, x in free.items():
                if x[p]:
                    row[c] = Fraction(-x[p], den)
            basis.append(tuple(row))
        return cls._derived(ambient_dim, tuple(basis))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls.span(ambient_dim, ExactMatrix.identity(ambient_dim).entries)

    @classmethod
    def line(cls, vector: Iterable[Scalar]) -> "Subspace":
        v = as_vector(vector)
        space = cls.span(len(v), [v])
        if space.dim != 1:
            raise ValueError("the zero vector spans no line")
        return space

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def is_zero(self) -> bool:
        return not self.basis

    def representative(self) -> Vector:
        """The canonical basis vector of a one-dimensional subspace."""
        if self.dim != 1:
            raise ValueError(f"representative needs a line, got dimension {self.dim}")
        return self.basis[0]

    def contains(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise AmbientMismatch("subspaces live in different ambient spaces")
        return other.is_zero or rank(ExactMatrix(self.basis + other.basis)) == self.dim


def subspace_sum(u: Subspace, w: Subspace) -> Subspace:
    """Canonical form of U + W."""
    if u.ambient_dim != w.ambient_dim:
        raise AmbientMismatch("subspaces live in different ambient spaces")
    return Subspace.span(u.ambient_dim, u.basis + w.basis)


def subspace_intersection(u: Subspace, w: Subspace) -> Subspace:
    """Canonical form of U ∩ W.

    With U the smaller space, x = Σ_k a_k u_k lies in W exactly when
    x_c = Σ_p w_p[c]·x_p on each free column c of W, over W's reduced rows
    w_p and pivot columns p: n - dim W integer equations in only dim U
    unknowns, where parametrizing W or stacking both bases takes more.
    """
    if u.ambient_dim != w.ambient_dim:
        raise AmbientMismatch("subspaces live in different ambient spaces")
    u, w = (u, w) if u.dim <= w.dim else (w, u)
    if u.is_zero:
        return u
    ws, den = _integer_matrix(ExactMatrix(w.basis))
    rows = [(row.index(den), row) for row in ws]  # each reduced row is den on its pivot
    us = [_scaled(row)[0] for row in u.basis]
    residues = []  # den·x less Σ_p x_p·(den·w_p), which is 0 on W's pivot columns
    for x in us:
        r = [den * v for v in x]
        for xp, row in ((x[p], row) for p, row in rows if x[p]):
            r = [a - xp * b for a, b in zip(r, row)]
        residues.append(r)
    eqs = [list(e) for e in zip(*residues) if any(e)]
    if not eqs:
        return u
    vectors = [[sum(map(mul, a, col)) for col in zip(*us)] for a in _echelon(eqs)[2].values()]
    return Subspace.span(u.ambient_dim, [[x // g for x in v] for v in vectors for g in [gcd(*v)]])


# The 512 largest primes below 2^61, as 2^61 - k for these k; their
# product exceeds 2^31000.  tests/test_linalg.py proves each one prime.
_PRIMES = tuple(
    2**61 - k
    for k in (
        1, 31, 45, 229, 259, 283, 339, 391, 403, 465, 531, 579, 675, 759, 799,
        819, 829, 843, 859, 939, 985, 1015, 1153, 1195, 1215, 1281, 1299, 1351,
        1371, 1425, 1489, 1525, 1533, 1543, 1609, 1621, 1669, 1741, 1753, 1813,
        1845, 1849, 1855, 1863, 1869, 1909, 1921, 1923, 1945, 1959, 2023, 2083,
        2115, 2133, 2185, 2371, 2373, 2383, 2385, 2401, 2539, 2551, 2595, 2605,
        2665, 2695, 2911, 2919, 3015, 3045, 3069, 3079, 3081, 3105, 3139, 3151,
        3153, 3183, 3295, 3325, 3331, 3361, 3363, 3373, 3409, 3441, 3465, 3625,
        3669, 3793, 3799, 3835, 3865, 3895, 3913, 3931, 3933, 4003, 4015, 4075,
        4119, 4141, 4185, 4219, 4243, 4351, 4359, 4393, 4431, 4443, 4459, 4465,
        4473, 4525, 4575, 4599, 4659, 4723, 4729, 4749, 4789, 4795, 4819, 4863,
        4885, 4969, 5043, 5079, 5103, 5169, 5211, 5263, 5283, 5289, 5305, 5349,
        5383, 5389, 5473, 5529, 5565, 5593, 5661, 5719, 5725, 5779, 5793, 5811,
        5859, 5941, 5949, 6031, 6049, 6061, 6081, 6103, 6139, 6279, 6345, 6355,
        6375, 6433, 6469, 6471, 6535, 6553, 6583, 6621, 6655, 6705, 6735, 6825,
        6829, 6831, 6889, 6891, 6901, 6903, 6999, 7011, 7015, 7083, 7159, 7221,
        7245, 7333, 7395, 7489, 7521, 7549, 7551, 7575, 7591, 7635, 7771, 7795,
        7851, 7941, 7963, 8029, 8061, 8121, 8133, 8223, 8235, 8251, 8383, 8473,
        8511, 8533, 8559, 8565, 8575, 8613, 8635, 8721, 8763, 8851, 8883, 8895,
        8905, 8929, 8931, 8973, 8995, 9079, 9133, 9171, 9181, 9189, 9201, 9285,
        9313, 9339, 9393, 9405, 9415, 9435, 9511, 9541, 9589, 9729, 9783, 9813,
        9831, 9849, 9853, 9901, 9925, 9933, 9961, 10021, 10039, 10059, 10063,
        10071, 10081, 10125, 10183, 10239, 10245, 10273, 10329, 10393, 10405,
        10431, 10435, 10459, 10479, 10489, 10581, 10591, 10605, 10633, 10729,
        10731, 10855, 10879, 10933, 10941, 11001, 11029, 11061, 11103, 11191,
        11215, 11245, 11263, 11323, 11331, 11353, 11361, 11389, 11421, 11451,
        11469, 11479, 11505, 11539, 11595, 11683, 11791, 11809, 11859, 11869,
        11883, 11913, 11925, 11935, 11953, 11961, 12039, 12159, 12165, 12243,
        12285, 12291, 12295, 12379, 12393, 12429, 12453, 12463, 12481, 12499,
        12513, 12541, 12559, 12565, 12571, 12603, 12633, 12639, 12723, 12789,
        12831, 12943, 12951, 13123, 13161, 13189, 13221, 13269, 13273, 13369,
        13471, 13579, 13585, 13591, 13593, 13669, 13695, 13699, 13711, 13759,
        13929, 13945, 13959, 14001, 14035, 14053, 14059, 14101, 14139, 14143,
        14175, 14241, 14371, 14409, 14433, 14515, 14563, 14565, 14593, 14641,
        14685, 14719, 14743, 14755, 14785, 14811, 14829, 14865, 14871, 15051,
        15085, 15123, 15139, 15151, 15261, 15279, 15445, 15453, 15483, 15603,
        15609, 15691, 15735, 15769, 15873, 15931, 15949, 15975, 15981, 16023,
        16035, 16111, 16119, 16171, 16225, 16273, 16275, 16281, 16303, 16345,
        16363, 16423, 16441, 16489, 16519, 16569, 16575, 16609, 16663, 16719,
        16731, 16749, 16789, 16873, 16875, 16945, 17053, 17125, 17161, 17233,
        17335, 17365, 17385, 17473, 17499, 17505, 17529, 17583, 17715, 17739,
        17815, 17841, 17871, 17881, 17941, 17973, 17995, 18043, 18175, 18213,
        18271, 18291, 18343, 18369, 18403, 18421, 18429, 18435, 18459, 18513,
        18619, 18655, 18781, 18831, 18841, 18925, 18981, 19011, 19023, 19051,
        19141, 19249, 19309, 19321, 19341, 19381, 19521, 19575, 19635, 19713,
        19719, 19761, 19863, 19893, 19951, 19965, 19975, 19981, 19993, 19999,
        20019, 20091, 20115, 20119, 20131, 20149, 20223, 20251, 20299, 20305,
        20335, 20409, 20433, 20523, 20683, 20725, 20739,
    )
)
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve primes as bases, which proves
    primality below 3.1·10^23 (Sorenson and Webster, Math. Comp. 86, 2017)."""
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _moduli() -> Iterator[int]:
    """The primes below 2^61 in descending order: ``_PRIMES``, then the
    next ones down, which only inputs with very long coefficients need."""
    yield from _PRIMES
    yield from filter(_is_prime, range(_PRIMES[-1] - 2, 2, -2))


def _charpoly_mod(b: Sequence[Sequence[int]], p: int) -> list[int]:
    """Characteristic polynomial of the integer matrix b modulo the
    prime p, coefficients from constant to leading.

    The matrix is reduced to upper Hessenberg form H by similarity
    (a row operation paired with the inverse column operation), and
    then p_m = (x - h_mm) p_{m-1} - sum_i h_{m-i,m} h_{m,m-1} ...
    h_{m-i+1,m-i} p_{m-i-1} over the leading m x m blocks of H
    (Cohen, A Course in Computational Algebraic Number Theory, 2.2.9).
    """
    n = len(b)
    h = [[x % p for x in row] for row in b]
    for j in range(n - 2):
        k = j + 1
        piv = next((i for i in range(k, n) if h[i][j]), None)
        if piv is None:
            continue
        if piv != k:
            h[piv], h[k] = h[k], h[piv]
            for row in h:
                row[piv], row[k] = row[k], row[piv]
        inv = pow(h[k][j], -1, p)
        top = h[k][j:]
        factors = [h[i][j] * inv % p for i in range(k + 1, n)]
        for i, u in enumerate(factors, k + 1):
            if u:
                h[i][j:] = [(x - u * y) % p for x, y in zip(h[i][j:], top)]
        if any(factors):
            for row in h:
                row[k] = (row[k] + sum(map(mul, factors, row[k + 1 :]))) % p
    polys = [[1]]
    for m in range(n):
        poly = [0] + polys[m]
        for i, c in enumerate(polys[m]):
            poly[i] = (poly[i] - h[m][m] * c) % p
        t = 1
        for i in range(1, m + 1):
            t = t * h[m - i + 1][m - i] % p
            u = t * h[m - i][m] % p
            if u:
                for e, c in enumerate(polys[m - i]):
                    poly[e] = (poly[e] - u * c) % p
        polys.append(poly)
    return polys[n]


def _crt(coeffs: Sequence[int], modulus: int, residues: Sequence[int], p: int) -> list[int]:
    """What is coeffs modulo modulus and residues modulo p, in [0, modulus·p)."""
    inv = pow(modulus, -1, p)
    return [c + modulus * ((r - c) * inv % p) for c, r in zip(coeffs, residues)]


def _symmetric(c: int, modulus: int) -> int:
    """The representative in (-modulus/2, modulus/2] of c in [0, modulus)."""
    return c - modulus if 2 * c > modulus else c


def charpoly(m: ExactMatrix) -> tuple[Fraction, ...]:
    """Monic characteristic polynomial, coefficients from constant to leading.

    With D the lcm of the denominators, the coefficient c_k of x^k is
    c_k(B) / D^(n-k) for the integer matrix B = D·M.  Each c_{n-k}(B)
    is a signed sum of C(n, k) principal k x k minors, each at most R^k
    by Hadamard's inequality, with R the largest row 2-norm of B.  So
    the polynomial is computed modulo primes (``_charpoly_mod``) and
    rebuilt by the Chinese remainder theorem until the product P of the
    primes exceeds twice that bound (compared in squares, so R needs no
    rounding); the residues then lift to the coefficients in
    (-P/2, P/2].
    """
    if not m.is_square:
        raise ValueError("characteristic polynomial needs a square matrix")
    n = m.rows
    b, den = _integer_matrix(m)
    norm2 = max(sum(x * x for x in row) for row in b)
    # modulus > limit exactly when modulus^2 > 4 C(n, k)^2 norm2^k for all k
    limit = isqrt(4 * max(comb(n, k) ** 2 * norm2**k for k in range(n + 1)))
    coeffs, modulus = [0] * (n + 1), 1
    for p in _moduli():
        coeffs = _crt(coeffs, modulus, _charpoly_mod(b, p), p)
        modulus *= p
        if modulus > limit:
            break
    return tuple(
        Fraction(_symmetric(c, modulus), den ** (n - k)) for k, c in enumerate(coeffs)
    )


def _strip(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _derivative(f: Sequence[int]) -> list[int]:
    return [i * c for i, c in enumerate(f)][1:]


def _monic_quotient(f: Sequence[int], d: Sequence[int]) -> list[int] | None:
    """f / d over Z for a monic d, or None when d does not divide f."""
    r = list(f)
    q = [0] * (len(f) - len(d) + 1)
    for k in range(len(q) - 1, -1, -1):
        q[k] = c = r[k + len(d) - 1]
        for i, e in enumerate(d):
            r[i + k] -= c * e
    return None if any(r) else q


def _horner(f: Sequence[int], x: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def _eval_mod(f: Sequence[int], x: int, m: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % m
    return acc


def _gcd_mod(f: Sequence[int], g: Sequence[int], p: int) -> list[int]:
    """The monic gcd modulo the prime p of the integer polynomials f and
    g, for a monic f."""
    a = [c % p for c in f]
    b = _strip([c % p for c in g])
    while b:
        inv = pow(b[-1], -1, p)
        r = a
        while len(r) >= len(b):
            lead, shift = r[-1] * inv % p, len(r) - len(b)
            for i, c in enumerate(b):
                r[i + shift] = (r[i + shift] - lead * c) % p
            _strip(r)
        a, b = b, r
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _squarefree_part(f: Sequence[int]) -> list[int]:
    """f / gcd(f, f') for a monic integer f, with the gcd taken modulo
    primes (Brown, J. ACM 18, 1971).

    The gcd G is monic and integral (Gauss's lemma), and modulo p it
    divides the monic gcd modulo p, which is larger only for the finitely
    many p that divide a resultant.  So the images of least degree are
    combined by the Chinese remainder theorem, a smaller degree starts
    over, and the symmetric lift is accepted once it divides f and f'
    over Z: a common divisor of degree at least deg G is G.  A squarefree
    f stops at the first prime, where the lift is 1.
    """
    df = _derivative(f)
    g, modulus = [0] * (len(f) + 1), 1  # longer than any image
    for p in _moduli():
        image = _gcd_mod(f, df, p)
        if len(image) > len(g):
            continue
        if len(image) < len(g):
            g, modulus = [0] * len(image), 1
        g = _crt(g, modulus, image, p)
        modulus *= p
        lift = [_symmetric(c, modulus) for c in g]
        quotient = _monic_quotient(f, lift)
        if quotient is not None and _monic_quotient(df, lift) is not None:
            return quotient


def _integer_roots(f: Sequence[int]) -> list[int] | None:
    """The distinct roots, each once, of a monic integer polynomial
    (constant coefficient first) if all are integers, else None.

    Modulo the smallest prime p for which the squarefree part g stays
    squarefree, distinct roots stay distinct and simple: each is found
    by trying every residue and Hensel-lifted on g until p^k exceeds
    twice Fujiwara's bound, and its symmetric residue is kept only if
    it is a root.
    """
    g = _squarefree_part(f)
    n, dg = len(g) - 1, _derivative(g)
    p = next(p for p in filter(_is_prime, count(2)) if len(_gcd_mod(g, dg, p)) == 1)
    residues = [r for r in range(p) if _eval_mod(g, r, p) == 0]
    if len(residues) < n:
        return None
    # Fujiwara: |y| <= 2 max_i |g[i]|^(1/(n-i)), here rounded up to a power of 2
    bound = 2 << max(
        (-(-c.bit_length() // (n - i)) for i, c in enumerate(g[:-1]) if c), default=0
    )
    roots = []
    for r in residues:
        m = p
        while m <= 2 * bound:
            m *= m
            r = (r - _eval_mod(g, r, m) * pow(_eval_mod(dg, r, m), -1, m)) % m
        y = _symmetric(r, m)
        if abs(y) > bound or _horner(g, y) != 0:
            return None
        roots.append(y)
    return roots


def simple_rational_eigen(m: ExactMatrix) -> tuple[tuple[Fraction, Subspace], ...]:
    """Full exact eigendecomposition for a simple rational spectrum.

    Returns the n pairs (eigenvalue, one-dimensional eigenspace) in
    descending eigenvalue order.  Raises NotSimpleRationalSpectrum when
    the characteristic polynomial has fewer than n distinct rational
    roots, which means the matrix cannot belong to a Leonard pair over
    the rationals.
    """
    if not m.is_square:
        raise ValueError("eigendecomposition needs a square matrix")
    n = m.rows
    b, t, g, den = _primitive(m)  # g > 0, so θ = (g·y + t)/D keeps the order of the y
    ys = _integer_roots([c.numerator for c in charpoly(ExactMatrix(b))])
    if ys is None:
        raise NotSimpleRationalSpectrum(
            "the characteristic polynomial has an irrational root"
        )
    if len(ys) != n:
        raise NotSimpleRationalSpectrum(
            f"only {len(ys)} distinct rational eigenvalues for size {n}"
        )
    result = []
    for y in sorted(ys, reverse=True):
        lam = Fraction(g * y + t, den)
        rows = [list(row) for row in b]
        for i, row in enumerate(rows):
            row[i] -= y
        _, _, free = _echelon(rows)
        if len(free) != 1:  # n distinct roots in dimension n make every eigenspace a line
            raise TheoremViolation(f"eigenspace of {lam} has dimension {len(free)}")
        (x,) = free.values()
        lead = next(v for v in x if v)  # the reduced row of a line leads with 1
        result.append((lam, Subspace._derived(n, (tuple(Fraction(v, lead) for v in x),))))
    return tuple(result)


def represent_in_basis(m: ExactMatrix, basis: Sequence[Iterable[Scalar]]) -> ExactMatrix:
    """S^{-1} m S, the operator in the given basis (the columns of S)."""
    return represent_all_in_basis((m,), basis)[0]


def _solve_in_basis(
    integer: Sequence[tuple[list[list[int]], int]], basis: Sequence[Iterable[Scalar]]
) -> tuple[list[tuple[list[list[int]], int]], tuple[int, ...]]:
    """One fraction-free solve for every S^{-1} m S, the basis vectors being
    the columns of S and each m given as the integer B_k = D_k·m_k with D_k.
    Column j of S_int is s_j times column j of S.  The integer
    X = det·S_int^{-1}(B_1 S_int | B_2 S_int | ...) gives
    S^{-1} m_k S = s_i X_ij / (D_k·det·s_j) on block k.
    Returns the columns of each block of X with its D_k·det, and the s_j."""
    vecs = [as_vector(v) for v in basis]
    n = len(vecs)
    if not all(len(b) == len(b[0]) for b, _ in integer):
        raise ValueError("change of basis needs a square matrix")
    if any(len(b) != n for b, _ in integer) or any(len(v) != n for v in vecs):
        raise AmbientMismatch("basis size differs from the matrix dimension")
    columns, scales = zip(*(_scaled(v) for v in vecs))
    # row i of B_k S_int from the nonzero entries of row i of B_k: O(n^2) for a tridiagonal m_k
    nonzero = [[[(c, v) for c, v in enumerate(row) if v] for row in b] for b, _ in integer]
    rows = [
        list(s_row) + [sum(v * col[c] for c, v in nz[i]) for nz in nonzero for col in columns]
        for i, s_row in enumerate(zip(*columns))
    ]
    xs, det = _solve(rows, n)
    return [(xs[k * n : (k + 1) * n], den * det) for k, (_, den) in enumerate(integer)], scales


def represent_all_in_basis(
    ms: Sequence[ExactMatrix], basis: Sequence[Iterable[Scalar]]
) -> tuple[ExactMatrix, ...]:
    """S^{-1} m S for each operator m, with the basis vectors as the columns of S."""
    blocks, scales = _solve_in_basis([_integer_matrix(m) for m in ms], basis)
    return tuple(
        ExactMatrix(
            [Fraction(s_i * x[i], den * s) for x, s in zip(xs, scales)]
            for i, s_i in enumerate(scales)
        )
        for xs, den in blocks
    )


def support_in_basis(m: ExactMatrix, basis: Sequence[Iterable[Scalar]]) -> set[tuple[int, int]]:
    """The off-diagonal positions (i, j) of the nonzero entries of S^{-1} m S,
    read off the integer solve for N = (D·m - t·I)/g (``_primitive``): off
    the diagonal, S^{-1} N S is S^{-1} m S times D/g, and its entry
    s_i X_ij / (det·s_j) is zero exactly when X_ij is."""
    ((xs, _),), _ = _solve_in_basis([(_primitive(m)[0], 1)], basis)
    return {(i, j) for j, x in enumerate(xs) for i, v in enumerate(x) if v and i != j}


def bidiagonal_in_basis(m: ExactMatrix, basis: Sequence[Vector], step: int) -> bool:
    """Whether every m s_i lies in span(s_i, s_{i+step}), the neighbour dropped
    past either end: S^{-1} m S is lower bidiagonal for step 1, upper for -1.
    Each test is one Bareiss elimination of at most three integer rows."""
    b, _ = _integer_matrix(m)
    nonzero = [[(c, v) for c, v in enumerate(row) if v] for row in b]
    vecs = [_scaled(v)[0] for v in basis]
    for i, s in enumerate(vecs):
        rows = [list(s)] + ([list(vecs[i + step])] if 0 <= i + step < len(vecs) else [])
        rows.append([sum(v * s[c] for c, v in nz) for nz in nonzero])
        if len(_bareiss(rows)[0]) == len(rows):
            return False
    return True


def conjugate_all(ms: Sequence[ExactMatrix], s: ExactMatrix) -> tuple[ExactMatrix, ...]:
    """S m S^{-1} for each operator m, from one elimination of S: it is
    the transpose of m^T written in the basis of the rows of S."""
    return tuple(
        r.transpose() for r in represent_all_in_basis([m.transpose() for m in ms], s.entries)
    )
