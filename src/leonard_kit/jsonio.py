"""JSON forms for matrices, pairs, subspaces, flags, and sequences.

Rationals travel as strings ("4/3", "-1") so that files round-trip
bit-exactly; integers are also accepted on input.  Rational strings
follow the one grammar of ``linalg.as_fraction``: an optionally signed
integer or p/q in decimal digits, nothing else.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import TYPE_CHECKING, Any

from . import linalg
from ._scalar import Vector, as_fraction

# for annotations only, and linalg is reached through the module, so that
# parsing and writing a sequence runs none of these modules
if TYPE_CHECKING:
    from .flags import Flag
    from .leonard import Decomposition, LeonardPair
    from .linalg import ExactMatrix, Subspace


def fraction_from_obj(obj: Any) -> Fraction:
    if isinstance(obj, bool) or not isinstance(obj, (int, str)):
        raise ValueError(f"rationals must be strings or integers, got {obj!r}")
    return as_fraction(obj)


def vector_to_obj(v: Vector) -> list[str]:
    return [str(x) for x in v]


def matrix_to_obj(m: ExactMatrix) -> dict[str, Any]:
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [[str(x) for x in row] for row in m.entries],
    }


def matrix_from_obj(obj: Any) -> ExactMatrix:
    if not isinstance(obj, dict):
        raise ValueError("a matrix must be a JSON object with rows, cols, entries")
    for key in ("rows", "cols", "entries"):
        if key not in obj:
            raise ValueError(f"matrix object is missing {key!r}")
    rows, cols, entries = obj["rows"], obj["cols"], obj["entries"]
    if any(isinstance(n, bool) or not isinstance(n, int) or n < 1 for n in (rows, cols)):
        raise ValueError("rows and cols must be positive integers")
    if not isinstance(entries, list) or len(entries) != rows:
        raise ValueError(f"entries must be a list of {rows} rows")
    parsed = []
    for row in entries:
        if not isinstance(row, list) or len(row) != cols:
            raise ValueError(f"every row must be a list of {cols} entries")
        parsed.append([fraction_from_obj(x) for x in row])
    return linalg.ExactMatrix(parsed)


def pair_to_obj(a: ExactMatrix, a_star: ExactMatrix) -> dict[str, Any]:
    return {"a": matrix_to_obj(a), "a_star": matrix_to_obj(a_star)}


def pair_from_obj(obj: Any) -> tuple[ExactMatrix, ExactMatrix]:
    if not isinstance(obj, dict) or "a" not in obj or "a_star" not in obj:
        raise ValueError('a pair must be a JSON object with "a" and "a_star"')
    return matrix_from_obj(obj["a"]), matrix_from_obj(obj["a_star"])


def subspace_to_obj(space: Subspace) -> list[list[str]]:
    return [vector_to_obj(row) for row in space.basis]


def decomposition_to_obj(dec: Decomposition) -> list[list[list[str]]]:
    return [subspace_to_obj(comp) for comp in dec.components]


def flag_to_obj(flag: Flag) -> list[list[list[str]]]:
    return [subspace_to_obj(comp) for comp in flag.components]


def sequence_to_obj(seq: tuple[Fraction, ...]) -> list[str]:
    return [str(x) for x in seq]


def sequence_from_obj(obj: Any) -> tuple[Fraction, ...]:
    if isinstance(obj, dict) and "sequence" in obj:
        obj = obj["sequence"]
    if not isinstance(obj, list) or not obj:
        raise ValueError("a sequence must be a nonempty JSON list of rationals")
    return tuple(fraction_from_obj(x) for x in obj)


def pair_report_obj(pair: LeonardPair) -> dict[str, Any]:
    """The verification report body for an accepted pair."""
    return {
        "leonard_pair": True,
        "d": pair.d,
        "eigenvalue_sequences": [sequence_to_obj(s) for s in pair.eigenvalue_sequences],
        "dual_eigenvalue_sequences": [
            sequence_to_obj(s) for s in pair.dual_eigenvalue_sequences
        ],
        "a_standard_decompositions": [
            decomposition_to_obj(dec) for dec in pair.a_standard_decompositions
        ],
        "a_star_standard_decompositions": [
            decomposition_to_obj(dec) for dec in pair.a_star_standard_decompositions
        ],
    }


def dumps(report: Any) -> str:
    return json.dumps(report, indent=2) + "\n"
