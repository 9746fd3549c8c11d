"""Independent checks of leonard-kit reports.

Each check takes the parsed JSON report and the objects the generator
built, and returns None when the report is right or a one-line reason
when it is not.  Only ``fractions`` and the helpers in ``fmat`` are
used, never the library under test.
"""

from __future__ import annotations

from fractions import Fraction

import construct
from fmat import add, apply, from_obj, identity, in_rref_span, inverse, is_rref, mul, scale


def _fractions(seq):
    return [Fraction(x) for x in seq]


def _vectors_are_eigen(op, decomposition, values, label):
    """Each component is one nonzero vector v with op v = theta_i v."""
    if len(decomposition) != len(values):
        return f"{label}: {len(decomposition)} components for {len(values)} eigenvalues"
    for i, (component, theta) in enumerate(zip(decomposition, values)):
        if len(component) != 1:
            return f"{label}: component {i} has {len(component)} basis vectors"
        v = _fractions(component[0])
        if all(x == 0 for x in v):
            return f"{label}: component {i} is the zero vector"
        if apply(op, v) != [theta * x for x in v]:
            return f"{label}: A v != theta v at component {i}"
    return None


def verify_report(report, a, a_star, theta, theta_star):
    """A positive `verify`: sequences as constructed, both orientations,
    and every reported basis vector an eigenvector for its eigenvalue."""
    if report.get("leonard_pair") is not True or report.get("d") != len(a) - 1:
        return "not reported as a Leonard pair of the right size"
    expected = [list(theta), list(theta)[::-1]]
    expected_star = [list(theta_star), list(theta_star)[::-1]]
    if [_fractions(s) for s in report["eigenvalue_sequences"]] != expected:
        return "eigenvalue sequences differ from the constructed ones"
    if [_fractions(s) for s in report["dual_eigenvalue_sequences"]] != expected_star:
        return "dual eigenvalue sequences differ from the constructed ones"
    for op, decs, seqs, label in (
        (a, report["a_standard_decompositions"], expected, "A"),
        (a_star, report["a_star_standard_decompositions"], expected_star, "A*"),
    ):
        if len(decs) != 2:
            return f"{label}: {len(decs)} standard decompositions, expected 2"
        for dec, seq in zip(decs, seqs):
            reason = _vectors_are_eigen(op, dec, seq, label)
            if reason:
                return reason
    return None


def _flag_problem(flag, op, n):
    """Nested RREF components of dimensions 1..n, each invariant under op."""
    if len(flag) != n:
        return f"{len(flag)} components, expected {n}"
    previous = []
    for i, component in enumerate(flag):
        basis = [_fractions(v) for v in component]
        if len(basis) != i + 1 or not is_rref(basis):
            return f"component {i} is not a canonical basis of dimension {i + 1}"
        if not all(in_rref_span(basis, v) for v in previous):
            return f"component {i - 1} is not inside component {i}"
        if not all(in_rref_span(basis, apply(op, v)) for v in basis):
            return f"component {i} is not invariant"
        previous = basis
    return None


def flags_report(report, a, a_star):
    """A positive `flags`: four distinct nested flags, the first two
    invariant under A and the last two under A*."""
    n = len(a)
    if report.get("leonard_pair") is not True or report.get("d") != n - 1:
        return "not reported as a Leonard pair of the right size"
    flags = report["flags"]
    if len(flags) != 4 or report["a_standard"] != [0, 1] or report["a_star_standard"] != [2, 3]:
        return "expected flags 0, 1 A-standard and 2, 3 A*-standard"
    if len({repr(f) for f in flags}) != 4:
        return "the four standard flags are not distinct"
    for k, flag in enumerate(flags):
        reason = _flag_problem(flag, a if k < 2 else a_star, n)
        if reason:
            return f"flag {k}: {reason}"
    return None


def rejection(report, error):
    """A negative `verify` or `flags` naming the expected failure."""
    if report.get("leonard_pair") is not False:
        return "a non-Leonard pair was accepted"
    if report.get("error") != error:
        return f"rejected as {report.get('error')}, constructed as {error}"
    return None


def triple_report(report, d, witnesses, p):
    """`triple`: the three pairs equal the benchmark's own sl2 lifts."""
    if report.get("d") != d or report.get("mutually_adjacent") is not True:
        return "wrong d or not mutually adjacent"
    if p is not None and Fraction(report.get("p")) != p:
        return "wrong p"
    got_witnesses = [_fractions(report["witnesses"][k]) for k in ("v0", "v1", "w0", "w1")]
    if got_witnesses != [_fractions(w) for w in witnesses]:
        return "witnesses differ from the input"
    expected = construct.triple(d, *witnesses)
    got = [(from_obj(q["a"]), from_obj(q["a_star"])) for q in report["pairs"]]
    if got != expected:
        return "pairs differ from the lifts alpha*H + beta*E + gamma*F"
    return None


def adjacent_report(report, d):
    """Positive `adjacent` on members of an sl2 triple: both routes agree,
    the identity holds on all (d+1)(d+2)/2 cells, and the four labeled
    sequences are orientations of d, d-2, ..., -d."""
    if report.get("adjacent") is not True or report.get("via_flags") is not True:
        return "adjacent pairs not reported adjacent by both routes"
    identity_report = report["transition_identity"]
    if identity_report != {"holds": True, "cells": (d + 1) * (d + 2) // 2}:
        return f"transition identity reported as {identity_report}"
    if report["dichotomy"] != {"branch": "arithmetic", "q": None}:
        return f"dichotomy reported as {report['dichotomy']}"
    spectrum = [Fraction(d - 2 * i) for i in range(d + 1)]
    for name in ("theta", "theta_star", "eta", "eta_star"):
        seq = _fractions(report["labeling"][name])
        if seq not in (spectrum, spectrum[::-1]):
            return f"labeled sequence {name} is not d, d-2, ..., -d in either order"
    return None


def not_adjacent(report):
    if report.get("adjacent") is not False or report.get("via_flags") is not False:
        return "non-adjacent pairs reported adjacent by some route"
    return None


def companions_report(report, a, a_star, p):
    """`companions`: the normal form conjugates the affinely normalized
    pair onto Krawtchouk(d, p'), p' in {p, 1 - p}, and B, B*, C, C* are
    S times the lifts of the p' witnesses times S^-1."""
    d = len(a) - 1
    if report.get("companions") is not True or report.get("d") != d:
        return "companions not built"
    nf = report["normal_form"]
    p_nf = Fraction(nf["p"])
    if p_nf not in (p, 1 - p):
        return f"normal form p = {p_nf} for a pair built with p = {p}"
    s = from_obj(nf["s"])
    s_inv = inverse(s)
    al, be, als, bes = _fractions(nf["affine"])
    one = identity(d + 1)
    h, k_star = construct.krawtchouk(d, p_nf)
    if mul(mul(s_inv, add(scale(al, a), scale(be, one))), s) != h:
        return "S^-1 (alpha A + beta I) S is not diag(d, ..., -d)"
    if mul(mul(s_inv, add(scale(als, a_star), scale(bes, one))), s) != k_star:
        return "S^-1 (alpha* A* + beta* I) S is not the Krawtchouk A*"
    v0, v1, w0, w1 = ([Fraction(x) for x in v] for v in construct.p_witnesses(p_nf))
    for name, (u, w) in zip(("b", "b_star", "c", "c_star"), ((v0, w0), (w1, v1), (v0, w1), (w0, v1))):
        expected = mul(mul(s, construct.lift(construct.plane_op(u, w), v0, v1, d)), s_inv)
        if from_obj(report[name]) != expected:
            return f"{name} differs from the conjugated lift"
    return None


def sequence_report(report, tag, alpha, beta, q):
    """`classify-seq`: the class and the parameters it was built from."""
    got = (
        report.get("class"),
        report.get("alpha") and Fraction(report["alpha"]),
        report.get("beta") and Fraction(report["beta"]),
        report.get("q") and Fraction(report["q"]),
    )
    if got != (tag, alpha, beta, q):
        return f"classified as {got}, built as {(tag, alpha, beta, q)}"
    return None
