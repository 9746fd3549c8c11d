"""Exact dense linear algebra over the rationals.

Everything in this package reduces to computations done here: reduced
row echelon forms, canonical subspaces of a rational coordinate space,
exact eigendecomposition for matrices with simple rational spectra,
and changes of basis.  Matrices and subspaces are immutable, entries
are ``fractions.Fraction``, and every result is exact, so equality of
canonical forms decides equality of the underlying objects.

Rational eigenvalues are found without factoring any number: the
integer roots of a monic rescaling of the squarefree characteristic
polynomial are Hensel-lifted from a small prime and confirmed by exact
evaluation, so their cost follows the degree and the bit-size of the
entries, not the prime factors of the entries.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import gcd, isqrt, lcm
from typing import Iterable, Iterator, Sequence, Union

from .errors import AmbientMismatch, NotSimpleRationalSpectrum, SingularBasis

Rational = Fraction
Scalar = Union[Fraction, int, str]
Vector = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def as_fraction(x: Scalar) -> Fraction:
    """Coerce an int, Fraction, or string to a Fraction.  A string is an
    optionally signed integer or p/q in decimal digits ("-3", "4/3"),
    with no decimal point, exponent, underscore or whitespace."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        if not _RATIONAL.fullmatch(x):
            raise ValueError(f"cannot parse rational {x!r}: expected an integer or p/q")
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse rational {x!r}: {exc}") from None
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def as_vector(entries: Iterable[Scalar]) -> Vector:
    return tuple(as_fraction(x) for x in entries)


class ExactMatrix:
    """Immutable dense matrix of rationals."""

    __slots__ = ("entries",)

    entries: tuple[tuple[Fraction, ...], ...]

    def __init__(self, rows: Iterable[Iterable[Scalar]]):
        entries = tuple(tuple(as_fraction(x) for x in row) for row in rows)
        if not entries or not entries[0]:
            raise ValueError("a matrix needs at least one row and one column")
        width = len(entries[0])
        if any(len(row) != width for row in entries):
            raise ValueError("all rows must have the same length")
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

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

    def row(self, i: int) -> Vector:
        return self.entries[i]

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
        if not self.is_square:
            raise SingularBasis("only square matrices can be inverted")
        n = self.rows
        aug = [list(self.entries[i]) + [ONE if j == i else ZERO for j in range(n)]
               for i in range(n)]
        reduced, pivots = _rref_rows(aug)
        if pivots != list(range(n)):
            raise SingularBasis("matrix is singular")
        return ExactMatrix([row[n:] for row in reduced[:n]])

    def det(self) -> Fraction:
        if not self.is_square:
            raise ValueError("determinant needs a square matrix")
        rows = [list(r) for r in self.entries]
        n = self.rows
        sign = ONE
        result = ONE
        for col in range(n):
            piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
            if piv is None:
                return ZERO
            if piv != col:
                rows[col], rows[piv] = rows[piv], rows[col]
                sign = -sign
            pivot = rows[col][col]
            result *= pivot
            for r in range(col + 1, n):
                factor = rows[r][col] / pivot
                if factor != 0:
                    rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
        return sign * result

    def __eq__(self, other) -> bool:
        return isinstance(other, ExactMatrix) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        body = ", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in self.entries)
        return f"ExactMatrix([{body}])"


def commutator(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    return a * b - b * a


def _rref_rows(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduce in place to RREF; return (rows, pivot column indices)."""
    if not rows:
        return rows, []
    n_rows, n_cols = len(rows), len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        piv = next((i for i in range(r, n_rows) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = ONE / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return rows, pivots


def rref(m: ExactMatrix) -> ExactMatrix:
    """Reduced row echelon form: unit pivots, zeros above and below."""
    rows, _ = _rref_rows([list(r) for r in m.entries])
    return ExactMatrix(rows)


def rank(m: ExactMatrix) -> int:
    _, pivots = _rref_rows([list(r) for r in m.entries])
    return len(pivots)


def kernel(m: ExactMatrix) -> tuple[Vector, ...]:
    """Basis of the right kernel {x : m x = 0}, one vector per free column."""
    rows, pivots = _rref_rows([list(r) for r in m.entries])
    n = m.cols
    pivot_set = set(pivots)
    basis = []
    for c in range(n):
        if c in pivot_set:
            continue
        x = [ZERO] * n
        x[c] = ONE
        for r, pc in enumerate(pivots):
            x[pc] = -rows[r][c]
        basis.append(tuple(x))
    return tuple(basis)


@dataclass(frozen=True)
class Subspace:
    """Subspace of Q^n held in canonical form.

    The basis rows are in reduced row echelon form (unit pivots, zeros
    above and below, pivots strictly left to right), so two Subspaces
    are equal exactly when they are the same subspace.
    """

    ambient_dim: int
    basis: tuple[Vector, ...]

    def __post_init__(self):
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
        rows, pivots = _rref_rows([list(v) for v in vecs])
        return cls(ambient_dim, tuple(tuple(r) for r in rows[: len(pivots)]))

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

    def contains_vector(self, v: Iterable[Scalar]) -> bool:
        residual = list(as_vector(v))
        if len(residual) != self.ambient_dim:
            raise AmbientMismatch("vector length differs from ambient dimension")
        for row in self.basis:
            pivot = next(j for j, x in enumerate(row) if x != 0)
            coeff = residual[pivot]
            if coeff != 0:
                residual = [x - coeff * y for x, y in zip(residual, row)]
        return all(x == 0 for x in residual)

    def contains(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise AmbientMismatch("subspaces live in different ambient spaces")
        return all(self.contains_vector(row) for row in other.basis)


def subspace_sum(u: Subspace, w: Subspace) -> Subspace:
    """Canonical form of U + W."""
    if u.ambient_dim != w.ambient_dim:
        raise AmbientMismatch("subspaces live in different ambient spaces")
    return Subspace.span(u.ambient_dim, u.basis + w.basis)


def subspace_intersection(u: Subspace, w: Subspace) -> Subspace:
    """Canonical form of U ∩ W.

    A vector lies in the intersection exactly when it is a combination
    a·U = b·W; the coefficient pairs (a, b) form the kernel of the
    stacked system with columns (U^T | -W^T).
    """
    if u.ambient_dim != w.ambient_dim:
        raise AmbientMismatch("subspaces live in different ambient spaces")
    n = u.ambient_dim
    if u.is_zero or w.is_zero:
        return Subspace.zero(n)
    stacked = ExactMatrix(
        [
            [u.basis[i][r] for i in range(u.dim)]
            + [-w.basis[j][r] for j in range(w.dim)]
            for r in range(n)
        ]
    )
    vectors = []
    for coeffs in kernel(stacked):
        vec = [ZERO] * n
        for i in range(u.dim):
            if coeffs[i] != 0:
                vec = [x + coeffs[i] * y for x, y in zip(vec, u.basis[i])]
        vectors.append(tuple(vec))
    return Subspace.span(n, vectors)


def charpoly(m: ExactMatrix) -> tuple[Fraction, ...]:
    """Monic characteristic polynomial, coefficients from constant to leading.

    Computed by the trace recursion M_k = A (M_{k-1} + c_{n-k+1} I),
    c_{n-k} = -tr(M_k)/k, which is exact in characteristic zero.
    """
    if not m.is_square:
        raise ValueError("characteristic polynomial needs a square matrix")
    n = m.rows
    coeffs = [ZERO] * (n + 1)
    coeffs[n] = ONE
    power = m
    coeffs[n - 1] = -power.trace()
    for k in range(2, n + 1):
        power = m * (power + coeffs[n - k + 1] * ExactMatrix.identity(n))
        coeffs[n - k] = -power.trace() / k
    return tuple(coeffs)


def _primitive_int_coeffs(coeffs: Sequence[Fraction]) -> list[int]:
    den = 1
    for c in coeffs:
        den = lcm(den, c.denominator)
    ints = [int(c * den) for c in coeffs]
    g = 0
    for v in ints:
        g = gcd(g, v)
    return [v // g for v in ints]


def _strip(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _derivative(f: Sequence[int]) -> list[int]:
    return [i * c for i, c in enumerate(f)][1:]


def _int_poly_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd over Z with positive leading coefficient (primitive PRS).

    Polynomials are coefficient lists from constant to leading; ``a``
    must be nonzero.
    """
    b = _strip(list(b))
    while b:
        r = list(a)
        while len(r) >= len(b):
            lead, shift = r[-1], len(r) - len(b)
            r = [b[-1] * x for x in r]
            for i, c in enumerate(b):
                r[i + shift] -= lead * c
            _strip(r)
        content = gcd(*r) or 1
        a, b = b, [x // content for x in r]
    content = gcd(*a)
    if a[-1] < 0:
        content = -content
    return [x // content for x in a]


def _exact_quotient(f: Sequence[int], d: Sequence[int]) -> list[int]:
    """f / d over Z for a divisor d of f."""
    r = list(f)
    q = [0] * (len(f) - len(d) + 1)
    for k in range(len(q) - 1, -1, -1):
        q[k] = r[k + len(d) - 1] // d[-1]
        for i, c in enumerate(d):
            r[i + k] -= q[k] * c
    return q


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


def _squarefree_mod(f: Sequence[int], p: int) -> bool:
    """Whether the monic integer polynomial f stays squarefree modulo p."""
    a = [c % p for c in f]
    b = _strip([c % p for c in _derivative(f)])
    while b:
        inv = pow(b[-1], -1, p)
        r = a
        while len(r) >= len(b):
            lead, shift = r[-1] * inv % p, len(r) - len(b)
            for i, c in enumerate(b):
                r[i + shift] = (r[i + shift] - lead * c) % p
            _strip(r)
        a, b = b, r
    return len(a) == 1


def _primes() -> Iterator[int]:
    for n in count(2):
        if all(n % k for k in range(2, isqrt(n) + 1)):
            yield n


def _integer_roots(g: Sequence[int]) -> list[int] | None:
    """The integer roots of a monic squarefree integer polynomial, or None
    unless there are as many as its degree.

    Works modulo the smallest prime p that keeps g squarefree; only the
    finitely many primes dividing the nonzero discriminant fail, so p
    stays small.  Distinct integer roots stay distinct and simple modulo
    p: each is found by trying every residue, Hensel-lifted until p^k
    exceeds twice a bound on the roots, and kept only if its symmetric
    residue is an exact root.
    """
    n = len(g) - 1
    p = next(p for p in _primes() if _squarefree_mod(g, p))
    residues = [r for r in range(p) if _eval_mod(g, r, p) == 0]
    if len(residues) < n:
        return None
    # Fujiwara: |y| <= 2 max_k |g[n-k]|^(1/k), here rounded up to a power of 2
    bound = 2 << max(
        (-(-c.bit_length() // (n - i)) for i, c in enumerate(g[:-1])), default=0
    )
    dg = _derivative(g)
    roots = []
    for r in residues:
        m = p
        while m <= 2 * bound:
            m *= m
            r = (r - _eval_mod(g, r, m) * pow(_eval_mod(dg, r, m), -1, m)) % m
        y = r if 2 * r <= m else r - m
        if abs(y) > bound or _horner(g, y) != 0:
            return None
        roots.append(y)
    return roots


def _deflate(coeffs: Sequence, root: Fraction) -> list | None:
    """Exact synthetic division by (x - root), or None if root is no root."""
    n = len(coeffs) - 1
    out = [ZERO] * n
    acc = coeffs[n]
    for k in range(n - 1, -1, -1):
        out[k] = acc
        acc = coeffs[k] + root * acc
    return out if acc == 0 else None


def _rational_roots(coeffs: Sequence[Fraction]) -> list[Fraction] | None:
    """All roots, with multiplicity, of a rational polynomial that splits
    over Q, else None.  Coefficients run from constant to leading, and
    the leading one is nonzero.

    No coefficient is ever factored.  After the zero roots are stripped,
    the squarefree part h = f / gcd(f, f') of the primitive integer
    polynomial f is made monic by y = a x, with a the leading
    coefficient of h; the integer roots y of the result are found by
    Hensel lifting (``_integer_roots``), and the multiplicity of each
    root x = y / a is one more than the number of times it divides
    gcd(f, f') exactly.
    """
    f = _primitive_int_coeffs(coeffs)
    zeros = next(i for i, c in enumerate(f) if c != 0)
    f = f[zeros:]
    common = _int_poly_gcd(f, _derivative(f))
    h = _exact_quotient(f, common)
    n, a = len(h) - 1, h[-1]
    g = [c * a ** (n - 1 - i) for i, c in enumerate(h[:-1])] + [1]
    ys = _integer_roots(g)
    if ys is None:
        return None
    roots = [ZERO] * zeros
    for y in ys:
        root = Fraction(y, a)
        roots.append(root)
        while len(common) > 1 and (quotient := _deflate(common, root)) is not None:
            common = quotient
            roots.append(root)
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
    roots = _rational_roots(charpoly(m))
    if roots is None:
        raise NotSimpleRationalSpectrum(
            "the characteristic polynomial has an irrational root"
        )
    if len(set(roots)) != n:
        raise NotSimpleRationalSpectrum(
            f"only {len(set(roots))} distinct rational eigenvalues for size {n}"
        )
    result = []
    for lam in sorted(roots, reverse=True):
        shifted = m - ExactMatrix.diagonal([lam] * n)
        space = Subspace.span(n, kernel(shifted))
        if space.dim != 1:
            raise NotSimpleRationalSpectrum(
                f"eigenspace of {lam} has dimension {space.dim}"
            )
        result.append((lam, space))
    return tuple(result)


def represent_in_basis(m: ExactMatrix, basis: Sequence[Iterable[Scalar]]) -> ExactMatrix:
    """Matrix of the operator in the given basis: S^{-1} m S with the
    basis vectors as the columns of S."""
    if not m.is_square:
        raise ValueError("change of basis needs a square matrix")
    vecs = [as_vector(v) for v in basis]
    if len(vecs) != m.rows or any(len(v) != m.rows for v in vecs):
        raise AmbientMismatch("basis size differs from the matrix dimension")
    s = ExactMatrix.from_columns(vecs)
    return s.inverse() * m * s
