"""Classification of scalar sequences: arithmetic, q-classical, or neither.

A sequence of distinct rationals is arithmetic when theta_i = alpha*i + beta
with alpha nonzero, and q-classical when theta_i = alpha*q^i + beta with
alpha nonzero and q outside {0, 1}.  Consecutive difference ratios decide
the branch and the parameters are recovered exactly.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from ._record import Record
from ._scalar import ONE, Scalar, as_vector
from .errors import DimensionMismatch, RepeatedEntry


class SequenceTag(Enum):
    ARITHMETIC = "arithmetic"
    Q_CLASSICAL = "q-classical"
    NEITHER = "neither"


class SequenceClass(Record):
    """Branch tag plus the exactly recovered parameters.

    Arithmetic carries (alpha, beta) with theta_i = alpha*i + beta;
    q-classical carries (q, alpha, beta) with theta_i = alpha*q^i + beta.
    """

    __slots__ = ("tag", "alpha", "beta", "q")
    _defaults = {"alpha": None, "beta": None, "q": None}

    tag: SequenceTag
    alpha: Optional[Fraction]
    beta: Optional[Fraction]
    q: Optional[Fraction]


def _checked(seq: Iterable[Scalar]) -> tuple[Fraction, ...]:
    values = as_vector(seq)
    if not values:
        raise ValueError("a sequence needs at least one entry")
    if len(set(values)) != len(values):
        raise RepeatedEntry("sequence entries must be pairwise distinct")
    return values


def classify_sequence(seq: Iterable[Scalar]) -> SequenceClass:
    """Classify a sequence of pairwise distinct rationals.

    Sequences of length at most two satisfy both defining conditions
    vacuously and report as arithmetic; a single entry fixes only beta,
    so alpha defaults to 1 there.
    """
    values = _checked(seq)
    if len(values) == 1:
        return SequenceClass(SequenceTag.ARITHMETIC, alpha=ONE, beta=values[0])
    diffs = [b - a for a, b in zip(values, values[1:])]
    if all(delta == diffs[0] for delta in diffs):
        return SequenceClass(SequenceTag.ARITHMETIC, alpha=diffs[0], beta=values[0])
    ratios = [b / a for a, b in zip(diffs, diffs[1:])]
    q = ratios[0]
    if any(r != q for r in ratios):
        return SequenceClass(SequenceTag.NEITHER)
    # not all differences equal, so q is neither 0 nor 1 here
    alpha = diffs[0] / (q - 1)
    beta = values[0] - alpha
    power = ONE
    for theta in values:
        if theta != alpha * power + beta:
            return SequenceClass(SequenceTag.NEITHER)
        power *= q
    return SequenceClass(SequenceTag.Q_CLASSICAL, alpha=alpha, beta=beta, q=q)


def check_three_term_ratio(
    eigen: Sequence[Scalar], dual: Sequence[Scalar]
) -> tuple[bool, Optional[Fraction]]:
    """Check that (theta_{i-2} - theta_{i+1}) / (theta_{i-1} - theta_i)
    agrees across both sequences and is constant over 2 <= i <= d - 1.

    Vacuously true for d <= 2; the common value is reported when d >= 3.
    """
    theta = _checked(eigen)
    theta_star = _checked(dual)
    if len(theta) != len(theta_star):
        raise DimensionMismatch("the two sequences must have equal length")
    d = len(theta) - 1
    if d <= 2:
        return True, None
    values = []
    for seq in (theta, theta_star):
        for i in range(2, d):
            values.append((seq[i - 2] - seq[i + 1]) / (seq[i - 1] - seq[i]))
    common = values[0]
    if any(v != common for v in values):
        return False, None
    return True, common
