"""Exact rational matrices as lists of lists of ``Fraction``.

The benchmark builds its inputs and checks the reports with this code
only; it never imports ``leonard_kit``, so a defect in the library
cannot make a wrong report look right.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def diagonal(values):
    n = len(values)
    return [[Fraction(values[i]) if i == j else ZERO for j in range(n)] for i in range(n)]


def add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def scale(c, a):
    return [[c * x for x in row] for row in a]


def mul(a, b):
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), ZERO) for col in cols] for row in a]


def apply(a, v):
    return [sum((x * y for x, y in zip(row, v)), ZERO) for row in a]


def from_columns(columns):
    return [list(row) for row in zip(*columns)]


def inverse(a):
    """Gauss-Jordan inverse; raises ZeroDivisionError when singular."""
    n = len(a)
    rows = [list(r) + [ONE if i == j else ZERO for j in range(n)] for i, r in enumerate(a)]
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        rows[c], rows[piv] = rows[piv], rows[c]
        inv = ONE / rows[c][c]
        rows[c] = [x * inv for x in rows[c]]
        for i in range(n):
            if i != c and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return [row[n:] for row in rows]


def conjugate(t, t_inv, a):
    """T A T^-1."""
    return mul(mul(t, a), t_inv)


def in_rref_span(basis, v):
    """True when v lies in the span of rows that are in reduced row echelon form."""
    residual = list(v)
    for row in basis:
        pivot = next(j for j, x in enumerate(row) if x != 0)
        coeff = residual[pivot] / row[pivot]
        if coeff != 0:
            residual = [x - coeff * y for x, y in zip(residual, row)]
    return all(x == 0 for x in residual)


def is_rref(basis):
    """Unit pivots moving strictly right, zeros above and below each pivot."""
    last = -1
    for i, row in enumerate(basis):
        pivot = next((j for j, x in enumerate(row) if x != 0), None)
        if pivot is None or pivot <= last or row[pivot] != 1:
            return False
        if any(other[pivot] != 0 for k, other in enumerate(basis) if k != i):
            return False
        last = pivot
    return True


def to_obj(m):
    return {"rows": len(m), "cols": len(m[0]), "entries": [[str(x) for x in r] for r in m]}


def from_obj(obj):
    return [[Fraction(x) for x in row] for row in obj["entries"]]
