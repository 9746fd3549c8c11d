"""Split classification of decompositions with respect to a Leonard pair.

A decomposition is LU-split when the pair acts (in the induced basis)
as a lower bidiagonal A and an upper bidiagonal A*, and UL-split in the
transposed situation, tested as span membership.  The flags reach the same
verdict: [xy] is LU-split exactly when x is A*-standard and y is A-standard.
"""

from __future__ import annotations

from enum import Enum

from .errors import NotADecomposition, TheoremViolation
from .flags import induced_flag, standard_flag_set
from .leonard import Decomposition, LeonardPair
from .linalg import ExactMatrix, bidiagonal_in_basis


class BidiagonalShape(Enum):
    LOWER = "lower"
    UPPER = "upper"
    BOTH = "both"
    NEITHER = "neither"


class SplitType(Enum):
    LU = "lu"
    UL = "ul"
    BOTH = "both"
    NONE = "none"


def bidiagonal_shape(m: ExactMatrix) -> BidiagonalShape:
    """Classify the zero pattern; diagonal matrices count as both."""
    if not m.is_square:
        raise ValueError("shape classification needs a square matrix")
    offsets = {j - i for i, row in enumerate(m.entries) for j, x in enumerate(row) if x}
    if offsets <= {0, -1}:
        return BidiagonalShape.BOTH if offsets <= {0, 1} else BidiagonalShape.LOWER
    return BidiagonalShape.UPPER if offsets <= {0, 1} else BidiagonalShape.NEITHER


def _check_ambient(dec: Decomposition, pair: LeonardPair) -> None:
    if dec.ambient_dim != pair.ambient_dim:
        raise NotADecomposition(
            f"decomposition of Q^{dec.ambient_dim} does not fit a pair on Q^{pair.ambient_dim}"
        )


def _verdict(lu: bool, ul: bool, pair: LeonardPair) -> SplitType:
    if lu and ul:
        # any nonzero off-diagonal entry forbids the opposite shape
        if pair.d != 0:
            raise TheoremViolation("both split types can only coexist at d = 0")
        return SplitType.BOTH
    if lu:
        return SplitType.LU
    if ul:
        return SplitType.UL
    return SplitType.NONE


def split_type(dec: Decomposition, pair: LeonardPair) -> SplitType:
    """LU-split when A s_i ∈ span(s_i, s_{i+1}) and A* s_i ∈ span(s_{i-1}, s_i)
    for the component representatives s_i, UL-split the other way round."""
    _check_ambient(dec, pair)
    reps = [c.representative() for c in dec.components]
    lu = bidiagonal_in_basis(pair.a, reps, 1) and bidiagonal_in_basis(pair.a_star, reps, -1)
    ul = bidiagonal_in_basis(pair.a, reps, -1) and bidiagonal_in_basis(pair.a_star, reps, 1)
    return _verdict(lu, ul, pair)


def split_type_via_flags(dec: Decomposition, pair: LeonardPair) -> SplitType:
    """Classify by searching the standard flags for a pair (x, y) with
    [xy] equal to the decomposition.

    Since decompositions biject with ordered opposite flag pairs, [xy]
    equals the decomposition exactly when x and y are the flags induced
    by it and by its inversion.
    """
    _check_ambient(dec, pair)
    flag_set = standard_flag_set(pair)
    f = induced_flag(dec)
    g = induced_flag(dec.inversion())
    lu = any(x == f for x in flag_set.a_star_flags) and any(
        y == g for y in flag_set.a_flags
    )
    ul = any(x == f for x in flag_set.a_flags) and any(
        y == g for y in flag_set.a_star_flags
    )
    return _verdict(lu, ul, pair)
