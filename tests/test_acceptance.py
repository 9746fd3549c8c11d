"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.  Every check is exact; the only tolerances are the stated
wall-clock budgets.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from leonard_kit.adjacency import (
    are_adjacent,
    are_adjacent_via_flags,
    build_labeling,
    check_mutually_adjacent,
    verify_transition_identity,
)
from leonard_kit.flags import (
    are_opposite,
    decomposition_from_flags,
    induced_flag,
    principal_relation,
    standard_flag_set,
)
from leonard_kit.leonard import Kind, standard_decompositions, verify_leonard
from leonard_kit.linalg import ExactMatrix
from leonard_kit.sequences import SequenceTag, classify_sequence
from leonard_kit.sl2 import (
    KrawtchoukParameters,
    companions,
    krawtchouk_pair,
    three_mutually_adjacent,
)
from leonard_kit.split import split_type, split_type_via_flags

KRAW_DIAMETERS = range(1, 9)
KRAW_PS = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 5), Fraction(-1, 2))
TRIPLE_DIAMETERS = range(1, 7)
WITNESSES = ((1, 0), (0, 1), (1, 1), (1, -1))
CONJUGATION_TRIALS = 20


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number}: FAIL - {description}")
        raise
    print(f"[acceptance] criterion {number}: PASS - {description}")


def conjugation_trials():
    """The seeded random conjugations shared by criteria 6 and 7."""
    rng = random.Random(20260811)
    p_pool = [
        x
        for x in (Fraction(n, k) for n in (-3, -1, 1, 2, 3) for k in (2, 3, 5, 7))
        if x not in (0, 1)
    ]
    trials = []
    for trial in range(CONJUGATION_TRIALS):
        d = trial % 5 + 1
        p = rng.choice(p_pool)
        while True:
            t = ExactMatrix(
                [[rng.randint(-3, 3) for _ in range(d + 1)] for _ in range(d + 1)]
            )
            if t.det() != 0:
                break
        trials.append((d, p, t))
    return trials


def conjugated_pair(d, p, t):
    base = krawtchouk_pair(KrawtchoukParameters(d, p))
    t_inv = t.inverse()
    return verify_leonard(t * base.a * t_inv, t * base.a_star * t_inv)


@pytest.fixture(scope="module")
def registry():
    """The pairs criteria 1-6 construct, shared so criteria 3-5, 7, 8 can sweep them."""
    return {
        "kraw": {
            (d, p): krawtchouk_pair(KrawtchoukParameters(d, p))
            for d in KRAW_DIAMETERS
            for p in KRAW_PS
        },
        "triples": {d: three_mutually_adjacent(d, *WITNESSES) for d in TRIPLE_DIAMETERS},
    }


def all_pairs_from_criteria(registry):
    seen = []
    for pair in registry["kraw"].values():
        seen.append(pair)
    for triple in registry["triples"].values():
        seen.extend(triple)
    companion_members = []
    for d, p, t in conjugation_trials():
        pair = conjugated_pair(d, p, t)
        seen.append(pair)
        companion_members.extend(companions(pair)[1:])
    seen.extend(companion_members)
    return seen


def test_criterion_1_krawtchouk_verification():
    with criterion(1, "Krawtchouk pairs verify with spectrum d-2i for d <= 8"):
        start = time.perf_counter()
        for d in KRAW_DIAMETERS:
            expected = tuple(Fraction(d - 2 * i) for i in range(d + 1))
            for p in KRAW_PS:
                pair = krawtchouk_pair(KrawtchoukParameters(d, p))
                assert pair.d == d
                assert set(pair.eigenvalue_sequences) == {expected, expected[::-1]}
                assert set(pair.dual_eigenvalue_sequences) == {expected, expected[::-1]}
        elapsed = time.perf_counter() - start
        assert elapsed < 10, f"criterion 1 took {elapsed:.1f}s"


def test_criterion_2_three_mutually_adjacent():
    with criterion(2, "triples are mutually adjacent by both routes for d <= 6"):
        start = time.perf_counter()
        for d in TRIPLE_DIAMETERS:
            triple = three_mutually_adjacent(d, *WITNESSES)
            assert check_mutually_adjacent(triple)
            for p, q in combinations(triple, 2):
                assert are_adjacent_via_flags(p, q)
        elapsed = time.perf_counter() - start
        assert elapsed < 30, f"criterion 2 took {elapsed:.1f}s"


def test_criterion_3_theorem_1_saturation(registry):
    with criterion(3, "principal relations exhaust the three 2+2 partitions"):
        for d in TRIPLE_DIAMETERS:
            triple = registry["triples"][d]
            flag_sets = [standard_flag_set(p).as_set() for p in triple]
            assert flag_sets[0] == flag_sets[1] == flag_sets[2]
            anchor = next(iter(flag_sets[0]))
            others = [f for f in flag_sets[0] if f != anchor]
            all_partitions = {
                frozenset(
                    {
                        frozenset({anchor, partner}),
                        frozenset(f for f in others if f != partner),
                    }
                )
                for partner in others
            }
            relations = {principal_relation(p).blocks for p in triple}
            assert relations == all_partitions
            # a fourth pair repeating a principal relation breaks mutual adjacency
            for member in triple:
                repeat = member.swapped()
                assert principal_relation(repeat) == principal_relation(member)
                assert not are_adjacent(member, repeat)
                assert not check_mutually_adjacent(list(triple) + [repeat])


def test_criterion_4_theorem_2_arithmetic(registry):
    with criterion(4, "triple sequences are arithmetic with |difference| 2"):
        for d in TRIPLE_DIAMETERS:
            for pair in registry["triples"][d]:
                sequences = pair.eigenvalue_sequences + pair.dual_eigenvalue_sequences
                for seq in sequences:
                    result = classify_sequence(seq)
                    assert result.tag is SequenceTag.ARITHMETIC
                    if d >= 1:
                        assert abs(result.alpha) == 2


def test_criterion_5_transition_identity(registry):
    with criterion(5, "transition identity exact on every labeled pair"):
        for d in TRIPLE_DIAMETERS:
            triple = registry["triples"][d]
            expected_cells = (d + 1) * (d + 2) // 2
            for p, q in permutations(triple, 2):
                check = verify_transition_identity(build_labeling(p, q))
                assert check.holds
                assert check.cells == expected_cells


def test_criterion_6_theorem_3_round_trip():
    with criterion(6, "companions of 20 random conjugated Krawtchouk pairs"):
        start = time.perf_counter()
        trials = conjugation_trials()
        assert len(trials) == CONJUGATION_TRIALS
        for d, p, t in trials:
            pair = conjugated_pair(d, p, t)
            _, b_pair, c_pair = companions(pair)
            assert check_mutually_adjacent([pair, b_pair, c_pair])
        elapsed = time.perf_counter() - start
        assert elapsed < 60, f"criterion 6 took {elapsed:.1f}s"


def test_criterion_7_flag_invariant_suite(registry):
    with criterion(7, "flag count, opposition, bijection, split-route equivalence"):
        for pair in all_pairs_from_criteria(registry):
            flag_set = standard_flag_set(pair)
            flags = flag_set.all_flags()
            assert len(flag_set.as_set()) == 4
            for f, g in combinations(flags, 2):
                assert are_opposite(f, g)
            for kind in Kind:
                for dec in standard_decompositions(pair, kind):
                    f = induced_flag(dec)
                    g = induced_flag(dec.inversion())
                    assert decomposition_from_flags(f, g) == dec
            for x in flags:
                for y in flags:
                    if x == y:
                        continue
                    dec = decomposition_from_flags(x, y)
                    assert split_type(dec, pair) is split_type_via_flags(dec, pair)


def test_criterion_8_negative_controls(registry):
    with criterion(8, "no self-adjacency, no swap-adjacency, distinct p never adjacent"):
        for d in KRAW_DIAMETERS:
            pair = registry["kraw"][(d, Fraction(1, 3))]
            assert not are_adjacent(pair, pair)
            assert not are_adjacent(pair, pair.swapped())
            other = registry["kraw"][(d, Fraction(1, 2))]
            assert not are_adjacent(pair, other)
            assert standard_flag_set(pair).as_set() != standard_flag_set(other).as_set()


def test_criterion_9_sequence_recovery():
    with criterion(9, "200 random sequences recovered exactly, reversal flips q"):
        rng = random.Random(1734)

        def rational(lo, hi):
            return Fraction(rng.randint(lo, hi), rng.randint(1, 6))

        checked = 0
        for _ in range(100):
            length = rng.randint(1, 12)
            alpha = rational(-9, 9)
            while alpha == 0:
                alpha = rational(-9, 9)
            beta = rational(-9, 9)
            seq = [alpha * i + beta for i in range(length)]
            result = classify_sequence(seq)
            assert result.tag is SequenceTag.ARITHMETIC
            assert result.beta == beta
            if length >= 2:
                assert result.alpha == alpha
                reverse = classify_sequence(seq[::-1])
                assert reverse.tag is SequenceTag.ARITHMETIC
                assert reverse.alpha == -alpha
            checked += 1
        for _ in range(100):
            length = rng.randint(3, 12)
            alpha = rational(-9, 9)
            while alpha == 0:
                alpha = rational(-9, 9)
            beta = rational(-9, 9)
            q = rational(-9, 9)
            while q in (0, 1, -1):
                q = rational(-9, 9)
            seq = [alpha * q**i + beta for i in range(length)]
            result = classify_sequence(seq)
            assert result.tag is SequenceTag.Q_CLASSICAL
            assert (result.q, result.alpha, result.beta) == (q, alpha, beta)
            reverse = classify_sequence(seq[::-1])
            assert reverse.tag is SequenceTag.Q_CLASSICAL
            assert reverse.q == 1 / q
            checked += 1
        assert checked == 200
