"""The three workloads as fixed lists of slots.

Each slot is one leonard-kit command built from closed formulas.  A
slot has VARIANTS seeded variants; a run seed picks one variant per
slot, so every seed gives another corpus while the stored report
digests (digests.json) still cover every command a seed can produce.
Every command has the exit code known by construction and a check in
``checks`` that does not use the library.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable, Optional

import checks
import construct
from fmat import conjugate, diagonal, to_obj

VARIANTS = 4

# Krawtchouk parameters: two mirror pairs p, 1 - p.  The eigenvectors
# carry powers of p and 1 - p, so p sets much of the cost: at d = 12 one
# verify of a conjugated pair takes 0.5 s to 1.0 s across the acceptance
# suite's pool of 18 values, while these four agree within 12 %.
P_POOL = (Fraction(1, 3), Fraction(2, 3), Fraction(2, 5), Fraction(3, 5))


@dataclass
class Command:
    """One CLI invocation: argv after `leonard-kit`, the input files it
    names, the exit code known by construction, and the report check."""

    argv: list[str]
    expect: int
    check: Callable[[dict], Optional[str]]
    files: dict[str, str] = field(default_factory=dict)
    key: str = ""


def _pair_file(a, a_star):
    return json.dumps({"a": to_obj(a), "a_star": to_obj(a_star)})


def _pair_command(cmd, a, a_star, expect, check):
    return Command([cmd, "pair.json"], expect, check, {"pair.json": _pair_file(a, a_star)})


def _spectrum(d):
    return [Fraction(d - 2 * i) for i in range(d + 1)]


# --- recognize -------------------------------------------------------------
# Dense conjugations T A T^-1 with T in [-3, 3]^(n x n): every entry is a
# rational with denominator det T, so charpoly, matmul and RREF carry the
# cost while the eigenvalues stay the small integers d, d-2, ..., -d.
# Sizes: (d, verify, flags, negatives).  d = 16 is the largest size whose
# single command (about 2.5 s at the parent commit) still lets three passes
# fit one run; d = 24 (about 10 s a command) would not.  The counts put
# each reported percentile inside a group of equal cost: the median
# command among the d = 4 commands, and the 87th percentile (the 11th
# largest of 81 samples) among the 12 samples of the d = 8 positives,
# below the 6 of d = 12 and 16.  A percentile on the edge between two
# groups, or at the end of a small one, swings with every seed.
RECOGNIZE = ((4, 8, 7, 3), (8, 2, 2, 2), (12, 1, 0, 1), (16, 1, 0, 0))


def _irrational_h(d):
    """diag(d, ..., -d) with its last 2x2 block replaced by one with
    eigenvalues 1 - d +- sqrt 2."""
    h = diagonal(_spectrum(d))
    c = Fraction(1 - d)
    h[d - 1][d - 1], h[d - 1][d], h[d][d - 1], h[d][d] = c, Fraction(1), Fraction(2), c
    return h


def _recognize_command(d, cmd, kind, rng):
    p = rng.choice(P_POOL)
    h, k_star = construct.krawtchouk(d, p)
    t, t_inv = construct.random_invertible(rng, d + 1, 3)
    if kind == "irrational":
        h = _irrational_h(d)
        check = partial(checks.rejection, error="NotSimpleRationalSpectrum")
    elif kind == "not-path":
        # An extra entry (0, 2) gives the support graph d + 1 edges.
        k_star = [row[:] for row in k_star]
        k_star[0][2] += 1
        check = partial(checks.rejection, error="NotTridiagonalizable")
    a, a_star = conjugate(t, t_inv, h), conjugate(t, t_inv, k_star)
    if kind != "pos":
        return _pair_command(cmd, a, a_star, 1, check)
    if cmd == "verify":
        spec = _spectrum(d)
        check = partial(checks.verify_report, a=a, a_star=a_star, theta=spec, theta_star=spec)
    else:
        check = partial(checks.flags_report, a=a, a_star=a_star)
    return _pair_command(cmd, a, a_star, 0, check)


def recognize_slots():
    slots = []
    for d, n_verify, n_flags, n_neg in RECOGNIZE:
        for i in range(n_verify):
            slots.append((f"verify-d{d}-{i}", partial(_recognize_command, d, "verify", "pos")))
        for i in range(n_flags):
            slots.append((f"flags-d{d}-{i}", partial(_recognize_command, d, "flags", "pos")))
        for i in range(n_neg):
            cmd = ("verify", "flags")[(i + d // 4) % 2]
            kind = ("irrational", "not-path")[i % 2]
            slots.append((f"{cmd}-{kind}-d{d}-{i}", partial(_recognize_command, d, cmd, kind)))
    return slots


# --- adjacency -------------------------------------------------------------
# Small matrices, so split, flags, adjacency and the sl2 constructions
# (and the verification they repeat) carry the cost rather than linalg.
# Per size: (d, triple --p, triple --vectors, adjacent+, adjacent- swap,
# adjacent- other p, companions).  Two thirds are d = 2 and 3 commands of
# nearly equal cost, so that the median command falls inside that group.
ADJACENCY = (
    (2, 2, 2, 2, 2, 2, 1),
    (3, 1, 1, 2, 1, 1, 1),
    (4, 0, 1, 1, 0, 0, 1),
    (6, 1, 1, 1, 1, 0, 1),
    (9, 1, 0, 1, 0, 0, 0),
)


def _plane_vectors(rng):
    """Four pairwise independent integer plane vectors."""
    while True:
        vs = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(4)]
        if all(u[0] * w[1] != u[1] * w[0] for i, u in enumerate(vs) for w in vs[i + 1 :]):
            return vs


def _triple_p(d, rng):
    p = rng.choice(P_POOL)
    check = partial(checks.triple_report, d=d, witnesses=construct.p_witnesses(p), p=p)
    return Command(["triple", "--d", str(d), f"--p={p}"], 0, check)


def _triple_vectors(d, rng):
    vs = _plane_vectors(rng)
    body = json.dumps({k: [str(x) for x in v] for k, v in zip(("v0", "v1", "w0", "w1"), vs)})
    check = partial(checks.triple_report, d=d, witnesses=vs, p=None)
    return Command(["triple", "--d", str(d), "--vectors", "v.json"], 0, check, {"v.json": body})


def _adjacent_command(first, second, expect, check):
    return Command(
        ["adjacent", "p1.json", "p2.json"],
        expect,
        check,
        {"p1.json": _pair_file(*first), "p2.json": _pair_file(*second)},
    )


def _adjacent_pos(d, rng):
    members = construct.triple(d, *_plane_vectors(rng))
    i, j = rng.sample(range(3), 2)
    return _adjacent_command(members[i], members[j], 0, partial(checks.adjacent_report, d=d))


def _adjacent_swap(d, rng):
    a, a_star = rng.choice(construct.triple(d, *_plane_vectors(rng)))
    return _adjacent_command((a, a_star), (a_star, a), 1, checks.not_adjacent)


def _adjacent_other_p(d, rng):
    p, q = rng.sample(P_POOL, 2)
    return _adjacent_command(
        construct.krawtchouk(d, p), construct.krawtchouk(d, q), 1, checks.not_adjacent
    )


def _companions(d, rng):
    p = rng.choice(P_POOL)
    h, k_star = construct.krawtchouk(d, p)
    t, t_inv = construct.random_invertible(rng, d + 1, 3)
    a, a_star = conjugate(t, t_inv, h), conjugate(t, t_inv, k_star)
    check = partial(checks.companions_report, a=a, a_star=a_star, p=p)
    return _pair_command("companions", a, a_star, 0, check)


def adjacency_slots():
    makers = (
        ("triple-p", _triple_p),
        ("triple-vectors", _triple_vectors),
        ("adjacent-pos", _adjacent_pos),
        ("adjacent-swap", _adjacent_swap),
        ("adjacent-other-p", _adjacent_other_p),
        ("companions", _companions),
    )
    slots = []
    for d, *counts in ADJACENCY:
        for (name, make), count in zip(makers, counts):
            slots.extend((f"{name}-d{d}-{i}", partial(make, d)) for i in range(count))
    return slots


# --- wide-entries ----------------------------------------------------------
# Krawtchouk pairs under A -> alpha*A + beta*I, A* -> alpha*A* + beta*I
# with alpha = beta = M / 2^(m-1) for an m-bit prime M (a second prime
# for A*).  The cleared characteristic polynomial then has constant term
# M^(d+1) times the product of the d - 2i + 1, and leading coefficient
# a power of two.  The rational-root search walks its trial division up
# to M and tries every divisor pair p/q, for each root it deflates, so
# the cost grows steeply with d and m but hardly with the seed.  With
# independent random coefficients it follows the factorization of the
# eigenvalue numerators instead: at d = 4 and 6-bit coefficients one
# measured 0.17 s for one seed and 1.9 s for another.
# Rungs: (d, m, positive count, irrational count).
WIDE = (
    (2, 12, 1, 0), (2, 16, 1, 1), (2, 20, 1, 1), (2, 22, 2, 1),
    (4, 12, 1, 1), (4, 16, 1, 0), (4, 20, 1, 1),
    (6, 16, 1, 1),
    (8, 12, 1, 0),
)
# classify-seq: (class, length, bits of the parameters, count).
SEQUENCES = (("arithmetic", 120, 16, 6), ("q-classical", 120, 12, 5))


def _is_prime(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def _prime(rng, m):
    """A prime in the lowest sixteenth of the m-bit range, so that the
    trial division up to it costs nearly the same for every seed."""
    low = 2 ** (m - 1)
    while True:
        n = rng.randrange(low, low + low // 16)
        if _is_prime(n):
            return n


def _wide_verify(d, m, irrational, rng):
    h, k_star = construct.krawtchouk(d, rng.choice(P_POOL))
    c, c_star = (Fraction(_prime(rng, m), 2 ** (m - 1)) for _ in range(2))
    a_star = construct.affine(k_star, c_star, c_star)
    if irrational:
        a = construct.affine(_irrational_h(d), c, c)
        check = partial(checks.rejection, error="NotSimpleRationalSpectrum")
        return _pair_command("verify", a, a_star, 1, check)
    a = construct.affine(h, c, c)
    theta = sorted((c * (t + 1) for t in _spectrum(d)), reverse=True)
    theta_star = sorted((c_star * (t + 1) for t in _spectrum(d)), reverse=True)
    check = partial(checks.verify_report, a=a, a_star=a_star, theta=theta, theta_star=theta_star)
    return _pair_command("verify", a, a_star, 0, check)


def _rational(rng, bits):
    num = rng.randrange(2 ** (bits - 1), 2**bits) * rng.choice((-1, 1))
    return Fraction(num, rng.randrange(2 ** (bits - 1), 2**bits))


def _classify(tag, length, bits, rng):
    alpha, beta = _rational(rng, bits), _rational(rng, bits)
    if tag == "arithmetic":
        q = None
        seq = [alpha * i + beta for i in range(length)]
    else:
        q = _rational(rng, bits)
        seq = [alpha * q**i + beta for i in range(length)]
    check = partial(checks.sequence_report, tag=tag, alpha=alpha, beta=beta, q=q)
    body = json.dumps([str(x) for x in seq])
    return Command(["classify-seq", "seq.json"], 0, check, {"seq.json": body})


def wide_slots():
    slots = []
    for d, m, n_pos, n_irr in WIDE:
        slots.extend((f"verify-d{d}-m{m}-{i}", partial(_wide_verify, d, m, False)) for i in range(n_pos))
        slots.extend(
            (f"verify-irrational-d{d}-m{m}-{i}", partial(_wide_verify, d, m, True))
            for i in range(n_irr)
        )
    for tag, length, bits, count in SEQUENCES:
        slots.extend((f"classify-{tag}-{i}", partial(_classify, tag, length, bits)) for i in range(count))
    return slots


WORKLOADS = {
    "recognize": recognize_slots,
    "adjacency": adjacency_slots,
    "wide-entries": wide_slots,
}


def build(workload, seed):
    """The corpus of one run: one seeded variant of every slot."""
    pick = random.Random(seed)
    return [variant(workload, slot, make, pick.randrange(VARIANTS)) for slot, make in WORKLOADS[workload]()]


def variant(workload, slot, make, index):
    cmd = make(random.Random(f"{workload}/{slot}/{index}"))
    cmd.key = f"{slot}#{index}"
    return cmd


def all_variants(workload):
    """Every command any seed can produce, for recording digests."""
    return [
        variant(workload, slot, make, index)
        for slot, make in WORKLOADS[workload]()
        for index in range(VARIANTS)
    ]
