"""Recognition of Leonard pairs and their standard decompositions.

A pair of operators (A, A*) qualifies when A is diagonalizable with
distinct rational eigenvalues, A* is irreducible tridiagonal in some
ordering of A's eigenbasis, and the same holds with the roles swapped.
The orderings that work are found by a path search on the support
graph of the off-diagonal entries.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

from ._record import Record
from .errors import (
    DecompositionNotStandard,
    DimensionMismatch,
    NotADecomposition,
    NotTridiagonalizable,
)
from .linalg import ExactMatrix, Subspace, rank, simple_rational_eigen, support_in_basis


class Kind(Enum):
    """Which operator of the pair a decomposition diagonalizes."""

    A = "a"
    A_STAR = "a_star"


class Decomposition(Record):
    """Ordered direct sum of one-dimensional subspaces covering the space."""

    __slots__ = ("components",)

    components: tuple[Subspace, ...]

    def _validate(self):
        comps = tuple(self.components)
        object.__setattr__(self, "components", comps)
        if not comps:
            raise NotADecomposition("a decomposition needs at least one component")
        n = comps[0].ambient_dim
        if any(c.ambient_dim != n for c in comps):
            raise NotADecomposition("components live in different ambient spaces")
        if any(c.dim != 1 for c in comps):
            raise NotADecomposition("every component must be one-dimensional")
        if len(comps) != n:
            raise NotADecomposition(
                f"{len(comps)} lines cannot be a direct sum decomposition of Q^{n}"
            )
        if rank(ExactMatrix([c.representative() for c in comps])) != n:
            raise NotADecomposition("the component sum is not direct")

    @property
    def ambient_dim(self) -> int:
        return self.components[0].ambient_dim

    @property
    def d(self) -> int:
        return len(self.components) - 1

    def inversion(self) -> "Decomposition":
        return Decomposition._derived(self.components[::-1])


class LeonardPair(Record):
    """A verified Leonard pair with its cached standard data.

    The decomposition tuples hold the two orientations (one when d = 0),
    inversions of each other, with the orientation whose leading
    eigenvalue is larger listed first.  Sequence tuples are aligned
    index-for-index with the decomposition tuples.
    """

    __slots__ = (
        "a",
        "a_star",
        "d",
        "a_standard_decompositions",
        "a_star_standard_decompositions",
        "eigenvalue_sequences",
        "dual_eigenvalue_sequences",
    )

    a: ExactMatrix
    a_star: ExactMatrix
    d: int
    a_standard_decompositions: tuple[Decomposition, ...]
    a_star_standard_decompositions: tuple[Decomposition, ...]
    eigenvalue_sequences: tuple[tuple[Fraction, ...], ...]
    dual_eigenvalue_sequences: tuple[tuple[Fraction, ...], ...]

    @property
    def ambient_dim(self) -> int:
        return self.d + 1

    def swapped(self) -> "LeonardPair":
        """The pair (A*, A), which is a Leonard pair with the roles exchanged."""
        return LeonardPair(
            self.a_star,
            self.a,
            self.d,
            self.a_star_standard_decompositions,
            self.a_standard_decompositions,
            self.dual_eigenvalue_sequences,
            self.eigenvalue_sequences,
        )


def _path_order(support: set[tuple[int, int]], n: int) -> list[int]:
    """Order the indices by walking the support graph of the off-diagonal
    positions end to end; fail unless it is a path with both sides nonzero."""
    if n == 1:
        return [0]
    edges = {(min(i, j), max(i, j)) for i, j in support}
    if len(edges) != n - 1:
        raise NotTridiagonalizable(
            f"support graph has {len(edges)} edges where a path on {n} vertices needs {n - 1}"
        )
    nbrs = [[j for e in edges if i in e for j in e if j != i] for i in range(n)]
    if any(len(x) > 2 for x in nbrs):
        raise NotTridiagonalizable("support graph has a vertex of degree above two")
    ends = [v for v, x in enumerate(nbrs) if len(x) == 1]
    if len(ends) != 2:
        raise NotTridiagonalizable("support graph is not a single path")
    order = [ends[0]]
    while len(order) < n:
        step = [v for v in nbrs[order[-1]] if v not in order[-2:]]
        if not step:
            raise NotTridiagonalizable("support graph is disconnected")
        order.append(step[0])
    if any((j, i) not in support for i, j in support):
        raise NotTridiagonalizable("an off-diagonal entry vanishes on one side of the path")
    return order


def _standard_side(
    diag_op: ExactMatrix, tri_op: ExactMatrix
) -> tuple[tuple[Decomposition, ...], tuple[tuple[Fraction, ...], ...]]:
    eigen = simple_rational_eigen(diag_op)
    reps = [space.representative() for _, space in eigen]
    order = _path_order(support_in_basis(tri_op, reps), tri_op.rows)
    values = tuple(eigen[k][0] for k in order)
    spaces = tuple(eigen[k][1] for k in order)
    if len(order) >= 2 and values[0] < values[-1]:
        values, spaces = values[::-1], spaces[::-1]
    primary = Decomposition._derived(spaces)
    if len(order) == 1:
        return (primary,), (values,)
    return (primary, primary.inversion()), (values, values[::-1])


def verify_leonard(a: ExactMatrix, a_star: ExactMatrix) -> LeonardPair:
    """Verify (a, a_star) as a Leonard pair and cache its standard data.

    Raises NotSimpleRationalSpectrum or NotTridiagonalizable when the
    input is not a Leonard pair over the rationals.
    """
    if not a.is_square or not a_star.is_square or a.rows != a_star.rows:
        raise DimensionMismatch(
            f"operators must be square and equal-sized, got {a.shape} and {a_star.shape}"
        )
    a_decs, a_seqs = _standard_side(a, a_star)
    s_decs, s_seqs = _standard_side(a_star, a)
    return LeonardPair(a, a_star, a.rows - 1, a_decs, s_decs, a_seqs, s_seqs)


def standard_decompositions(pair: LeonardPair, kind: Kind) -> tuple[Decomposition, ...]:
    """The standard decompositions of the given kind: two orientations
    for d >= 1 (inversions of each other), one for d = 0."""
    if kind is Kind.A:
        return pair.a_standard_decompositions
    return pair.a_star_standard_decompositions


def eigenvalue_sequence(
    pair: LeonardPair, dec: Decomposition, kind: Kind
) -> tuple[Fraction, ...]:
    """Eigenvalues of the chosen operator read along the decomposition,
    looked up in the pair's verified record."""
    decs = standard_decompositions(pair, kind)
    if dec not in decs:
        raise DecompositionNotStandard(
            f"decomposition is not {kind.value}-standard for this pair"
        )
    if kind is Kind.A:
        return pair.eigenvalue_sequences[decs.index(dec)]
    return pair.dual_eigenvalue_sequences[decs.index(dec)]
