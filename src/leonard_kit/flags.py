"""Flags, opposition, the decomposition/flag-pair bijection, and
standard flag sets of Leonard pairs.

A flag is a full chain of subspaces F_0 ⊂ F_1 ⊂ ... ⊂ F_d with dim F_i = i + 1.
A decomposition induces a flag through its partial sums, and an ordered pair
of opposite flags recovers a decomposition through componentwise
intersections F_i ∩ G_{d-i}; these two maps invert each other.  Flags are
opposite exactly when those intersections are lines with a direct sum.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from ._record import Record
from .errors import (
    AmbientMismatch, DegenerateDimension, NotADecomposition, NotOpposite, TheoremViolation
)
from .leonard import Decomposition, LeonardPair
from .linalg import ExactMatrix, Subspace, rank, subspace_intersection, subspace_sum


class Flag(Record):
    """Chain of nested subspaces of dimensions 1 through d + 1."""

    __slots__ = ("components",)

    components: tuple[Subspace, ...]

    def _validate(self):
        comps = tuple(self.components)
        object.__setattr__(self, "components", comps)
        if not comps:
            raise ValueError("a flag needs at least one component")
        n = comps[0].ambient_dim
        for i, comp in enumerate(comps):
            if comp.ambient_dim != n:
                raise AmbientMismatch("flag components live in different ambient spaces")
            if comp.dim != i + 1:
                raise ValueError(f"component {i} must have dimension {i + 1}")
            if i > 0 and not comp.contains(comps[i - 1]):
                raise ValueError("flag components must be nested")
        if comps[-1].dim != n:
            raise ValueError("the top component must be the whole space")

    @property
    def ambient_dim(self) -> int:
        return self.components[0].ambient_dim

    @property
    def d(self) -> int:
        return len(self.components) - 1


def induced_flag(dec: Decomposition) -> Flag:
    """Flag of partial sums V_0, V_0 + V_1, ..., canonical at every step."""
    partial = Subspace.zero(dec.ambient_dim)
    chain = []
    for comp in dec.components:
        partial = subspace_sum(partial, comp)
        chain.append(partial)
    return Flag._derived(tuple(chain))


def _meet_trivially(u: Subspace, w: Subspace) -> bool:
    """U ∩ W = 0, decided by rank additivity of the stacked bases."""
    if u.is_zero or w.is_zero:
        return True
    return rank(ExactMatrix(u.basis + w.basis)) == u.dim + w.dim


def are_opposite(f: Flag, g: Flag) -> bool:
    """True when F_i ∩ G_j = 0 for all i + j < d.

    Because the components of g are nested, the cell with the largest j
    for each i decides all the others in its row.
    """
    if f.ambient_dim != g.ambient_dim:
        raise AmbientMismatch("flags live in different ambient spaces")
    d = f.d
    return all(
        _meet_trivially(f.components[i], g.components[d - 1 - i]) for i in range(d)
    )


def decomposition_from_flags(f: Flag, g: Flag) -> Decomposition:
    """The decomposition [fg] with components L_i = F_i ∩ G_{d-i}, or NotOpposite.

    Lines L_i with a direct sum give L_0 + ... + L_i = F_i and L_{i+1} + ... + L_d
    = G_{d-1-i}, so F_i ∩ G_{d-1-i} = 0; opposition makes each L_i meet F_{i-1}
    trivially, so each is a line and the lines are independent.
    """
    if f.ambient_dim != g.ambient_dim:
        raise AmbientMismatch("flags live in different ambient spaces")
    d, lines = f.d, []
    for i in range(d + 1):
        lines.append(subspace_intersection(f.components[i], g.components[d - i]))
        if lines[-1].dim != 1:
            raise NotOpposite("the flags are not opposite")
    try:
        return Decomposition(tuple(lines))
    except NotADecomposition:
        raise NotOpposite("the flags are not opposite") from None


class StandardFlagSet(Record):
    """The standard flags of a pair, tagged by which operator they diagonalize."""

    __slots__ = ("a_flags", "a_star_flags")

    a_flags: tuple[Flag, ...]
    a_star_flags: tuple[Flag, ...]

    def all_flags(self) -> tuple[Flag, ...]:
        return self.a_flags + self.a_star_flags

    def as_set(self) -> frozenset[Flag]:
        return frozenset(self.all_flags())


@lru_cache(maxsize=None)
def standard_flag_set(pair: LeonardPair) -> StandardFlagSet:
    """The flags induced by the standard decompositions: four distinct
    flags for d >= 1, a single flag for d = 0."""
    a_flags = tuple(induced_flag(dec) for dec in pair.a_standard_decompositions)
    s_flags = tuple(induced_flag(dec) for dec in pair.a_star_standard_decompositions)
    flag_set = StandardFlagSet(a_flags, s_flags)
    flags = flag_set.all_flags()
    if pair.d >= 1 and (len(flags) != 4 or any(f == g for f, g in combinations(flags, 2))):
        raise TheoremViolation("a Leonard pair must carry four standard flags")
    return flag_set


class PrincipalRelation(Record):
    """Partition of the four standard flags into the two role pairs."""

    __slots__ = ("blocks",)

    blocks: frozenset[frozenset[Flag]]


def principal_relation(pair: LeonardPair) -> PrincipalRelation:
    """The unordered partition {A-standard flags} | {A*-standard flags}."""
    if pair.d < 1:
        raise DegenerateDimension("the principal relation needs dimension at least 2")
    flag_set = standard_flag_set(pair)
    return PrincipalRelation(
        frozenset({frozenset(flag_set.a_flags), frozenset(flag_set.a_star_flags)})
    )
