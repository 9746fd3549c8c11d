"""Exact scalars: the rational type, its aliases and the one coercion.

Kept apart from ``linalg`` so that code which handles only scalars and
sequences (``sequences``, ``jsonio`` and the ``classify-seq`` command)
runs without running the linear algebra.  ``linalg`` re-exports every
name here.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Union

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
