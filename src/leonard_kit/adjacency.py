"""Adjacency of Leonard pairs.

Two pairs on the same space are adjacent when every standard
decomposition of each is split for the other; equivalently, when they
share the same four standard flags but induce different principal
relations.  Adjacent pairs admit a unique role labeling w, x, y, z of
the shared flags from which four scalar sequences are read off; those
sequences satisfy an exact product identity and fall jointly into the
arithmetic or the q-classical branch.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from itertools import combinations
from math import prod
from typing import Optional, Sequence

from ._record import Record
from .errors import (
    DegenerateDimension,
    DichotomyViolation,
    DimensionMismatch,
    NotAdjacent,
    TheoremViolation,
)
from .flags import Flag, StandardFlagSet, standard_flag_set
from .leonard import LeonardPair
from .sequences import SequenceClass, SequenceTag, classify_sequence
from .split import SplitType, split_type


class AdjacencyLabeling(Record):
    """Role labeling of the shared flag set of two adjacent pairs.

    w and x are the A-standard flags, y and z the A*-standard ones;
    w and z are B-standard, x and y are B*-standard.  theta, theta_star,
    eta, and eta_star are the sequences read along [wx], [yz], [zw],
    and [xy] respectively.
    """

    __slots__ = ("w", "x", "y", "z", "theta", "theta_star", "eta", "eta_star")

    w: Flag
    x: Flag
    y: Flag
    z: Flag
    theta: tuple[Fraction, ...]
    theta_star: tuple[Fraction, ...]
    eta: tuple[Fraction, ...]
    eta_star: tuple[Fraction, ...]

    @property
    def d(self) -> int:
        return len(self.theta) - 1


class IdentityCheck(Record):
    """Outcome of the exact transition identity over all index cells."""

    __slots__ = ("holds", "cells", "first_failure")
    _defaults = {"first_failure": None}

    holds: bool
    cells: int
    first_failure: Optional[tuple[int, int]]

    def __bool__(self) -> bool:
        return self.holds


class DichotomyResult(Record):
    """Joint branch of the four labeled sequences."""

    __slots__ = ("tag", "q")
    _defaults = {"q": None}

    tag: SequenceTag
    q: Optional[Fraction]


def _require_same_space(p1: LeonardPair, p2: LeonardPair) -> None:
    if p1.ambient_dim != p2.ambient_dim:
        raise DimensionMismatch(
            f"pairs act on spaces of dimension {p1.ambient_dim} and {p2.ambient_dim}"
        )


def _standard_bases_split(pair: LeonardPair, other: LeonardPair) -> bool:
    return all(
        split_type(decs[0], other) is not SplitType.NONE
        for decs in (pair.a_standard_decompositions, pair.a_star_standard_decompositions)
    )


def are_adjacent(p1: LeonardPair, p2: LeonardPair) -> bool:
    """Definition route: every standard decomposition of one pair is
    split for the other.  The condition is symmetric; both directions
    are computed and must agree.

    One orientation per kind suffices.  The other is its inversion, the
    basis s_0..s_d listed backwards, which turns each matrix R into J R J
    (J the reversal) and so swaps lower and upper bidiagonal: LU-split
    becomes UL-split, and not split stays not split."""
    _require_same_space(p1, p2)
    if p1.d == 0:
        warnings.warn(
            "adjacency is vacuous on a one-dimensional space", stacklevel=2
        )
        return True
    forward = _standard_bases_split(p1, p2)
    backward = _standard_bases_split(p2, p1)
    if forward != backward:
        raise TheoremViolation("adjacency must be symmetric")
    return forward


def _roles(fs1: StandardFlagSet, fs2: StandardFlagSet) -> Optional[tuple[tuple[int, int], ...]]:
    """For each role w, x, y, z, the indices (i, j) of the sole flag that a
    standard pair of p1 shares with one of p2, as the i-th of p1's pair and
    the j-th of p2's; None unless each such intersection holds exactly one.
    Both sets are four distinct flags, so that is the flag route's test:
    equal flag sets, different principal relations.  build_labeling reads
    the flags and the sequences by these indices."""
    a1, s1, a2, s2 = fs1.a_flags, fs1.a_star_flags, fs2.a_flags, fs2.a_star_flags
    hits = [
        [(i, j) for i, f in enumerate(ours) for j, g in enumerate(theirs) if f == g]
        for ours, theirs in ((a1, a2), (a1, s2), (s1, s2), (s1, a2))
    ]
    return tuple(h[0] for h in hits) if all(len(h) == 1 for h in hits) else None


def are_adjacent_via_flags(p1: LeonardPair, p2: LeonardPair) -> bool:
    """Flag route: equal standard flag sets and different principal
    relations, read by role."""
    _require_same_space(p1, p2)
    if p1.d == 0:
        raise DegenerateDimension("the flag route needs dimension at least 2")
    return _roles(standard_flag_set(p1), standard_flag_set(p2)) is not None


def build_labeling(p1: LeonardPair, p2: LeonardPair) -> AdjacencyLabeling:
    """Assign the roles w, x, y, z and extract the four sequences.

    Each role is the unique flag in the intersection of one standard
    pair of p1 with one of p2, so the labeling is determined once the
    two pairs are fixed.  The k-th standard flag is induced by the k-th
    standard decomposition, so the flags and the sequences are read by
    the indices at which the role test matched them.
    """
    if p1.d == 0:
        raise DegenerateDimension("labeling needs dimension at least 2")
    _require_same_space(p1, p2)
    fs1, fs2 = standard_flag_set(p1), standard_flag_set(p2)
    roles = _roles(fs1, fs2)
    if roles is None:
        raise NotAdjacent("the pairs are not adjacent")
    (iw, _), (ix, jx), (iy, _), (iz, jz) = roles
    a1, s1 = fs1.a_flags, fs1.a_star_flags
    theta, theta_star = p1.eigenvalue_sequences[iw], p1.dual_eigenvalue_sequences[iy]
    eta, eta_star = p2.eigenvalue_sequences[jz], p2.dual_eigenvalue_sequences[jx]
    return AdjacencyLabeling(a1[iw], a1[ix], s1[iy], s1[iz], theta, theta_star, eta, eta_star)


def verify_transition_identity(lab: AdjacencyLabeling) -> IdentityCheck:
    """Exact check, for all 0 <= j <= i <= d, of

        prod_{k<j} (theta_{d-i} - theta_{d-k}) / (theta_{d-j} - theta_{d-k})
            = prod_{j<k<=i} (eta_0 - eta_k) / (eta_j - eta_k)

    with empty products equal to one.  The left denominator depends on j
    alone; the right products of each j gain one factor per i, and the
    left numerator of each i one factor per j, so all cells take O(d^2)."""
    theta, eta = lab.theta, lab.eta
    d = lab.d
    cells = (d + 1) * (d + 2) // 2
    lhs_den = [prod(theta[d - j] - theta[d - k] for k in range(j)) for j in range(d + 1)]
    rhs_num, rhs_den = [], []
    for i in range(d + 1):
        rhs_num = [x * (eta[0] - eta[i]) for x in rhs_num] + [1]
        rhs_den = [x * (eta[j] - eta[i]) for j, x in enumerate(rhs_den)] + [1]
        lhs_num = 1
        for j in range(i + 1):
            if lhs_num * rhs_den[j] != rhs_num[j] * lhs_den[j]:
                return IdentityCheck(False, cells, (i, j))
            lhs_num *= theta[d - i] - theta[d - j]
    return IdentityCheck(True, cells)


def classify_dichotomy(lab: AdjacencyLabeling) -> DichotomyResult:
    """Classify all four sequences and require a single joint branch.

    In the q-classical branch the four recovered bases must agree up to
    the q <-> 1/q flip that reorienting a sequence causes; the reported
    q is the one of theta as labeled.
    """
    classes: list[SequenceClass] = [
        classify_sequence(seq)
        for seq in (lab.theta, lab.theta_star, lab.eta, lab.eta_star)
    ]
    if all(c.tag is SequenceTag.ARITHMETIC for c in classes):
        return DichotomyResult(SequenceTag.ARITHMETIC)
    if all(c.tag is SequenceTag.Q_CLASSICAL for c in classes):
        q = classes[0].q
        if q is None:
            raise TheoremViolation("a q-classical sequence must carry its q")
        if all(c.q in (q, 1 / q) for c in classes):
            return DichotomyResult(SequenceTag.Q_CLASSICAL, q=q)
    raise DichotomyViolation(
        "labeled sequences classify as "
        + ", ".join(c.tag.value for c in classes)
        + " with no common branch"
    )


def check_mutually_adjacent(pairs: Sequence[LeonardPair]) -> bool:
    """True when the pairs are pairwise adjacent.

    More than three pairwise adjacent pairs cannot exist, so that
    outcome raises TheoremViolation instead of being reported.
    """
    pairs = list(pairs)
    for p in pairs[1:]:
        _require_same_space(pairs[0], p)
    if pairs and pairs[0].d == 0:
        raise DegenerateDimension("mutual adjacency needs dimension at least 2")
    verdict = all(are_adjacent(p, q) for p, q in combinations(pairs, 2))
    if verdict and len(pairs) > 3:
        raise TheoremViolation(
            f"{len(pairs)} pairwise adjacent Leonard pairs cannot exist"
        )
    return verdict
