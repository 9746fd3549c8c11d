"""Command line front end: JSON in, one JSON report out.

Standard output carries exactly one JSON document per invocation;
human-oriented summaries go to standard error.  Exit status 0 means an
affirmative verdict, 1 a negative verdict, 2 a malformed input or usage
error, and 3 an internal failure, whose traceback goes to standard
error; an unexpected exception never exits 1, which would read as a
negative verdict.  A failed self-check (TheoremViolation) is an internal
failure too and exits 3.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Callable, Optional

# modules, not names from them: the package loads a module at its first
# attribute access, so each command runs only the modules it calls
from . import adjacency, flags, jsonio, leonard, sequences, sl2
from .errors import (
    DependentVectors,
    InvalidP,
    LeonardKitError,
    NotAdjacent,
    NotArithmetic,
    NotSimpleRationalSpectrum,
    NotTridiagonalizable,
    RepeatedEntry,
    TheoremViolation,
)

if TYPE_CHECKING:
    from .leonard import LeonardPair
    from .linalg import ExactMatrix

EXIT_YES = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

DEFAULT_MAX_DIM = 64


class InputError(Exception):
    """Bad input or usage; reported on stderr with exit status 2."""


def _max_dim() -> int:
    raw = os.environ.get("LEONARD_KIT_MAX_DIM", str(DEFAULT_MAX_DIM))
    try:
        cap = int(raw)
    except ValueError:
        raise InputError(f"LEONARD_KIT_MAX_DIM must be an integer, got {raw!r}")
    if cap < 1:
        raise InputError(f"LEONARD_KIT_MAX_DIM must be positive, got {cap}")
    return cap


def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except (ValueError, RecursionError) as exc:
        # bad JSON or UTF-8, an integer past the digit limit, or deep nesting
        raise InputError(f"{path} is not valid JSON: {exc}")


def _check_cap(obj: Any, key: str, path: str) -> None:
    """Reject matrix ``key`` of a pair object whose declared size is above
    the cap, before any entry is parsed; the parser reports bad shapes."""
    try:
        rows, cols = obj[key]["rows"], obj[key]["cols"]
    except (TypeError, KeyError):
        return
    if type(rows) is int and type(cols) is int and max(rows, cols) > (cap := _max_dim()):
        raise InputError(
            f'{path}: matrix "{key}" is {rows}x{cols}, above the LEONARD_KIT_MAX_DIM cap of {cap}'
        )


def _load_pair(path: str) -> tuple[ExactMatrix, ExactMatrix]:
    obj = _load_json(path)
    _check_cap(obj, "a", path)
    _check_cap(obj, "a_star", path)
    try:
        a, a_star = jsonio.pair_from_obj(obj)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}")
    if not a.is_square:
        raise InputError(f'{path}: matrix "a" is not square ({a.rows}x{a.cols})')
    if not a_star.is_square:
        raise InputError(
            f'{path}: matrix "a_star" is not square ({a_star.rows}x{a_star.cols})'
        )
    if a.rows != a_star.rows:
        raise InputError(
            f'{path}: "a" and "a_star" have different sizes ({a.rows} vs {a_star.rows})'
        )
    return a, a_star


def _verify_input_pair(path: str) -> LeonardPair:
    a, a_star = _load_pair(path)
    try:
        return leonard.verify_leonard(a, a_star)
    except (NotSimpleRationalSpectrum, NotTridiagonalizable) as exc:
        raise InputError(
            f"{path} is not a Leonard pair over the rationals: {exc}"
        )


def _parse_rational(raw: str, label: str) -> Fraction:
    try:
        return jsonio.fraction_from_obj(raw)
    except ValueError as exc:
        raise InputError(f"{label} must be a rational like 2/5: {exc}")


def _emit(build: Callable[[], Any], output: Optional[str], summary: str) -> None:
    """Write the report that build() returns.

    Python limits int-to-str conversion to 4300 digits by default.  The
    results of an input within that limit can be longer, so the limit is
    lifted while the report is built and serialized; parsing the input
    keeps it.
    """
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        text = jsonio.dumps(build())
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    if output:
        try:
            with open(output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {output}: {exc}")
    else:
        sys.stdout.write(text)
    print(summary, file=sys.stderr)


def _verify_or_reject(args) -> Optional[LeonardPair]:
    """The verified pair of args.pair, or None once the negative report
    for an input that is not a Leonard pair is emitted."""
    a, a_star = _load_pair(args.pair)
    try:
        return leonard.verify_leonard(a, a_star)
    except (NotSimpleRationalSpectrum, NotTridiagonalizable) as exc:
        report = {"leonard_pair": False, "error": type(exc).__name__, "reason": str(exc)}
        _emit(lambda: report, args.output, f"not a Leonard pair: {exc}")
        return None


def _cmd_verify(args) -> int:
    pair = _verify_or_reject(args)
    if pair is None:
        return EXIT_NO
    _emit(lambda: jsonio.pair_report_obj(pair), args.output, f"Leonard pair with d = {pair.d}")
    return EXIT_YES


def _cmd_flags(args) -> int:
    pair = _verify_or_reject(args)
    if pair is None:
        return EXIT_NO
    flag_set = flags.standard_flag_set(pair)
    all_flags = flag_set.all_flags()
    a_count = len(flag_set.a_flags)
    _emit(
        lambda: {
            "leonard_pair": True,
            "d": pair.d,
            "flags": [jsonio.flag_to_obj(f) for f in all_flags],
            "a_standard": list(range(a_count)),
            "a_star_standard": list(range(a_count, len(all_flags))),
            "principal_relation": None
            if pair.d == 0
            else [list(range(a_count)), list(range(a_count, len(all_flags)))],
        },
        args.output,
        f"{4 if pair.d else 1} distinct standard flags",
    )
    return EXIT_YES


def _labeling_obj(lab) -> dict[str, Any]:
    return {
        "w": jsonio.flag_to_obj(lab.w),
        "x": jsonio.flag_to_obj(lab.x),
        "y": jsonio.flag_to_obj(lab.y),
        "z": jsonio.flag_to_obj(lab.z),
        "theta": jsonio.sequence_to_obj(lab.theta),
        "theta_star": jsonio.sequence_to_obj(lab.theta_star),
        "eta": jsonio.sequence_to_obj(lab.eta),
        "eta_star": jsonio.sequence_to_obj(lab.eta_star),
    }


def _cmd_adjacent(args) -> int:
    p1 = _verify_input_pair(args.pair1)
    p2 = _verify_input_pair(args.pair2)
    if p1.ambient_dim != p2.ambient_dim:
        raise InputError(
            f"pairs act on spaces of different dimension "
            f"({p1.ambient_dim} vs {p2.ambient_dim})"
        )
    if p1.d == 0:
        report = {
            "adjacent": True,
            "d": 0,
            "degenerate_dimension": True,
            "labeling": None,
            "dichotomy": None,
            "transition_identity": None,
        }
        _emit(lambda: report, args.output, "adjacency is vacuous at d = 0")
        return EXIT_YES
    verdict = adjacency.are_adjacent(p1, p2)
    try:
        lab = adjacency.build_labeling(p1, p2)
    except NotAdjacent:
        lab = None
    via_flags = lab is not None
    if via_flags != verdict:
        raise TheoremViolation(f"split route says {verdict}, flag route {via_flags}")
    if not verdict:
        report = {"adjacent": False, "d": p1.d, "via_flags": via_flags}
        _emit(lambda: report, args.output, "pairs are not adjacent")
        return EXIT_NO
    identity = adjacency.verify_transition_identity(lab)
    dichotomy = adjacency.classify_dichotomy(lab)
    _emit(
        lambda: {
            "adjacent": True,
            "d": p1.d,
            "via_flags": via_flags,
            "labeling": _labeling_obj(lab),
            "dichotomy": {
                "branch": dichotomy.tag.value,
                "q": None if dichotomy.q is None else str(dichotomy.q),
            },
            "transition_identity": {"holds": identity.holds, "cells": identity.cells},
        },
        args.output,
        f"adjacent Leonard pairs, {dichotomy.tag.value} branch, "
        f"identity verified on {identity.cells} cells",
    )
    return EXIT_YES


def _triple_report(pairs, witnesses, p: Optional[Fraction]) -> dict[str, Any]:
    report: dict[str, Any] = {"d": pairs[0].d}
    if p is not None:
        report["p"] = str(p)
    report["witnesses"] = {
        name: jsonio.vector_to_obj(vec)
        for name, vec in zip(("v0", "v1", "w0", "w1"), witnesses)
    }
    report["pairs"] = [jsonio.pair_to_obj(q.a, q.a_star) for q in pairs]
    report["mutually_adjacent"] = True
    return report


def _cmd_triple(args) -> int:
    if (args.p is None) == (args.vectors is None):
        raise InputError("triple needs exactly one of --p or --vectors")
    if args.d < 0:
        raise InputError("--d must be nonnegative")
    if args.d + 1 > _max_dim():
        raise InputError(
            f"--d {args.d} gives matrices above the LEONARD_KIT_MAX_DIM cap"
        )
    p: Optional[Fraction] = None
    if args.p is not None:
        p = _parse_rational(args.p, "--p")
        try:
            sl2.KrawtchoukParameters(args.d, p)
        except InvalidP as exc:
            raise InputError(str(exc))
        witnesses = ((1, 0), (0, 1), (1, 1), (p, p - 1))
    else:
        obj = _load_json(args.vectors)
        if not isinstance(obj, dict):
            raise InputError(f"{args.vectors} must hold an object with v0, v1, w0, w1")
        vecs = []
        for name in ("v0", "v1", "w0", "w1"):
            if name not in obj:
                raise InputError(f"{args.vectors} is missing vector {name!r}")
            if not isinstance(obj[name], list):
                raise InputError(f"{args.vectors}: vector {name!r} must be a JSON list")
            try:
                vec = tuple(jsonio.fraction_from_obj(x) for x in obj[name])
            except (TypeError, ValueError) as exc:
                raise InputError(f"{args.vectors}: bad vector {name!r}: {exc}")
            if len(vec) != 2:
                raise InputError(f"{args.vectors}: vector {name!r} must have length 2")
            vecs.append(vec)
        witnesses = tuple(vecs)
    try:
        pairs = sl2.three_mutually_adjacent(args.d, *witnesses)
    except DependentVectors as exc:
        raise InputError(str(exc))
    _emit(
        lambda: _triple_report(pairs, witnesses, p),
        args.output,
        f"three mutually adjacent pairs at d = {args.d}",
    )
    return EXIT_YES


def _cmd_companions(args) -> int:
    pair = _verify_input_pair(args.pair)
    try:
        nf, b_pair, c_pair = sl2.companions(pair)
    except NotArithmetic as exc:
        report = {"companions": False, "reason": str(exc)}
        _emit(lambda: report, args.output, f"no companions: {exc}")
        return EXIT_NO
    _emit(
        lambda: {
            "companions": True,
            "d": pair.d,
            "normal_form": {
                "p": str(nf.p),
                "s": jsonio.matrix_to_obj(nf.s),
                "affine": [str(x) for x in nf.affine],
            },
            "b": jsonio.matrix_to_obj(b_pair.a),
            "b_star": jsonio.matrix_to_obj(b_pair.a_star),
            "c": jsonio.matrix_to_obj(c_pair.a),
            "c_star": jsonio.matrix_to_obj(c_pair.a_star),
            "mutually_adjacent": True,
        },
        args.output,
        f"companions built at d = {pair.d}, p = {nf.p}",
    )
    return EXIT_YES


def _cmd_classify_seq(args) -> int:
    try:
        seq = jsonio.sequence_from_obj(_load_json(args.sequence))
    except ValueError as exc:
        raise InputError(f"{args.sequence}: {exc}")
    try:
        result = sequences.classify_sequence(seq)
    except RepeatedEntry as exc:
        raise InputError(f"{args.sequence}: {exc}")
    _emit(
        lambda: {
            "class": result.tag.value,
            "alpha": None if result.alpha is None else str(result.alpha),
            "beta": None if result.beta is None else str(result.beta),
            "q": None if result.q is None else str(result.q),
        },
        args.output,
        f"sequence is {result.tag.value}",
    )
    return EXIT_YES if result.tag is not sequences.SequenceTag.NEITHER else EXIT_NO


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leonard-kit",
        description="Exact verification of Leonard pairs, flags, adjacency, "
        "and the mutually adjacent constructions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_output(p):
        p.add_argument("--output", help="write the JSON report to this path")
        return p

    p_verify = with_output(sub.add_parser("verify", help="verify a pair file"))
    p_verify.add_argument("pair", help="JSON file with matrices a and a_star")
    p_verify.set_defaults(handler=_cmd_verify)

    p_flags = with_output(
        sub.add_parser("flags", help="standard flag set and principal relation")
    )
    p_flags.add_argument("pair")
    p_flags.set_defaults(handler=_cmd_flags)

    p_adj = with_output(sub.add_parser("adjacent", help="decide adjacency of two pairs"))
    p_adj.add_argument("pair1")
    p_adj.add_argument("pair2")
    p_adj.set_defaults(handler=_cmd_adjacent)

    p_triple = with_output(
        sub.add_parser("triple", help="emit three mutually adjacent pairs")
    )
    p_triple.add_argument("--d", type=int, required=True, help="diameter")
    p_triple.add_argument("--p", help="Krawtchouk parameter, a rational outside {0, 1}")
    p_triple.add_argument("--vectors", help="JSON file with witness vectors v0, v1, w0, w1")
    p_triple.set_defaults(handler=_cmd_triple)

    p_comp = with_output(
        sub.add_parser("companions", help="two pairs mutually adjacent with the input")
    )
    p_comp.add_argument("pair")
    p_comp.set_defaults(handler=_cmd_companions)

    p_seq = with_output(sub.add_parser("classify-seq", help="classify a scalar sequence"))
    p_seq.add_argument("sequence", help="JSON list of rationals")
    p_seq.set_defaults(handler=_cmd_classify_seq)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # a failed self-check is an internal failure, not a usage error
        if isinstance(exc, LeonardKitError) and not isinstance(exc, TheoremViolation):
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        import traceback  # imported here: at module level every command pays for it

        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
