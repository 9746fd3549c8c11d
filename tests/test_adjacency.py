from fractions import Fraction
from itertools import combinations, permutations

import pytest

from leonard_kit import adjacency, linalg
from leonard_kit.adjacency import (
    AdjacencyLabeling,
    IdentityCheck,
    are_adjacent,
    are_adjacent_via_flags,
    build_labeling,
    check_mutually_adjacent,
    classify_dichotomy,
    verify_transition_identity,
)
from leonard_kit.errors import (
    DegenerateDimension,
    DichotomyViolation,
    DimensionMismatch,
    NotAdjacent,
    TheoremViolation,
)
from leonard_kit.flags import decomposition_from_flags
from leonard_kit.leonard import Kind, eigenvalue_sequence, verify_leonard
from leonard_kit.linalg import ExactMatrix
from leonard_kit.sequences import SequenceTag
from leonard_kit.split import SplitType, split_type


def test_triple_members_pairwise_adjacent(standard_triple):
    for d in (1, 2, 3):
        pairs = standard_triple(d)
        for p, q in combinations(pairs, 2):
            assert are_adjacent(p, q)
            assert are_adjacent_via_flags(p, q)


def test_not_adjacent_to_itself(kraw):
    for d in (1, 2, 3):
        pair = kraw(d, Fraction(1, 3))
        assert not are_adjacent(pair, pair)


def test_not_adjacent_to_role_swap(kraw):
    # (A*, A) has the same flag set and the same principal relation
    for d in (1, 2):
        pair = kraw(d, Fraction(2, 5))
        assert not are_adjacent(pair, pair.swapped())
        assert not are_adjacent_via_flags(pair, pair.swapped())


def test_different_p_not_adjacent(kraw):
    p1, p2 = kraw(1, Fraction(1, 3)), kraw(1, Fraction(1, 2))
    assert not are_adjacent(p1, p2)
    assert not are_adjacent_via_flags(p1, p2)


def test_routes_agree(kraw, standard_triple):
    cases = []
    pairs = standard_triple(2)
    cases.extend(combinations(pairs, 2))
    cases.append((pairs[0], pairs[0]))
    cases.append((kraw(2, Fraction(1, 3)), kraw(2, Fraction(1, 2))))
    for p, q in cases:
        assert are_adjacent(p, q) == are_adjacent_via_flags(p, q)


def test_adjacency_symmetric(standard_triple, kraw):
    pairs = standard_triple(3)
    assert are_adjacent(pairs[0], pairs[1]) == are_adjacent(pairs[1], pairs[0])
    p, q = kraw(2, Fraction(1, 3)), kraw(2, Fraction(1, 2))
    assert are_adjacent(p, q) == are_adjacent(q, p)


def test_star_swap_invariance(standard_triple):
    pairs = standard_triple(2)
    a_pair, c_pair = pairs[0], pairs[2]
    assert are_adjacent(a_pair, c_pair.swapped())
    assert are_adjacent(a_pair.swapped(), c_pair)
    assert are_adjacent(a_pair.swapped(), c_pair.swapped())


def test_dimension_mismatch(kraw):
    with pytest.raises(DimensionMismatch):
        are_adjacent(kraw(1, Fraction(1, 3)), kraw(2, Fraction(1, 3)))


def test_d0_adjacency_vacuous():
    p = verify_leonard(ExactMatrix([[1]]), ExactMatrix([[2]]))
    q = verify_leonard(ExactMatrix([[3]]), ExactMatrix([[4]]))
    with pytest.warns(UserWarning):
        assert are_adjacent(p, q)
    with pytest.raises(DegenerateDimension):
        are_adjacent_via_flags(p, q)


def test_labeling_roles_and_theta(standard_triple):
    pairs = standard_triple(2)
    lab = build_labeling(pairs[0], pairs[1])
    assert lab.theta in ((2, 0, -2), (-2, 0, 2))
    # each sequence matches one cached orientation of its pair
    assert lab.theta in pairs[0].eigenvalue_sequences
    assert lab.theta_star in pairs[0].dual_eigenvalue_sequences
    assert lab.eta in pairs[1].eigenvalue_sequences
    assert lab.eta_star in pairs[1].dual_eigenvalue_sequences


def _eigenvalues_along(op, dec):
    """Eigenvalues of op on the components of dec, read off the operator."""
    values = []
    for line in dec.components:
        v = line.representative()
        w = op.apply(v)
        pivot = next(i for i, x in enumerate(v) if x != 0)
        theta = w[pivot] / v[pivot]
        assert tuple(theta * x for x in v) == w
        values.append(theta)
    return tuple(values)


def test_labeling_lookup_matches_flag_intersections(standard_triple):
    # reference: intersect the role flags back into [wx], [yz], [zw], [xy]
    # and read each sequence off the operator along that decomposition
    for d in (1, 2, 3, 4):
        for p, q in permutations(standard_triple(d), 2):
            lab = build_labeling(p, q)
            roles = (
                (lab.theta, p, p.a, Kind.A, lab.w, lab.x),
                (lab.theta_star, p, p.a_star, Kind.A_STAR, lab.y, lab.z),
                (lab.eta, q, q.a, Kind.A, lab.z, lab.w),
                (lab.eta_star, q, q.a_star, Kind.A_STAR, lab.x, lab.y),
            )
            for seq, pair, op, kind, f, g in roles:
                dec = decomposition_from_flags(f, g)
                assert seq == _eigenvalues_along(op, dec)
                assert seq == eigenvalue_sequence(pair, dec, kind)


def test_labeling_flags_swap_consistently(standard_triple):
    pairs = standard_triple(2)
    lab12 = build_labeling(pairs[0], pairs[1])
    lab21 = build_labeling(pairs[1], pairs[0])
    assert {lab12.w, lab12.x, lab12.y, lab12.z} == {lab21.w, lab21.x, lab21.y, lab21.z}
    # the mixed role pairs swap when the arguments swap
    assert lab21.w == lab12.w and lab21.y == lab12.y
    assert lab21.x == lab12.z and lab21.z == lab12.x


def test_labeling_requires_adjacency(kraw):
    with pytest.raises(NotAdjacent):
        build_labeling(kraw(2, Fraction(1, 3)), kraw(2, Fraction(1, 2)))


def test_transition_identity_d1_vacuous(standard_triple):
    pairs = standard_triple(1)
    lab = build_labeling(pairs[0], pairs[1])
    check = verify_transition_identity(lab)
    assert check.holds and check.cells == 3


def test_transition_identity_d2_all_cells(standard_triple):
    pairs = standard_triple(2)
    for p, q in combinations(pairs, 2):
        check = verify_transition_identity(build_labeling(p, q))
        assert check.holds and check.cells == 6


def test_transition_identity_role_extraction_needs_standard_decomposition(standard_triple):
    # swapping x and z pairs w with an A*-standard flag, so the sequence
    # along [wz] is not readable from A at all
    from leonard_kit.errors import DecompositionNotStandard

    pairs = standard_triple(2)
    lab = build_labeling(pairs[0], pairs[1])
    with pytest.raises(DecompositionNotStandard):
        eigenvalue_sequence(
            pairs[0], decomposition_from_flags(lab.w, lab.z), Kind.A
        )


def replace(lab, **changes):
    """The labeling with some fields changed, rebuilt by its constructor."""
    fields = {name: getattr(lab, name) for name in AdjacencyLabeling.__slots__}
    return AdjacencyLabeling(**{**fields, **changes})


def _synthetic_labeling(base, theta, theta_star, eta, eta_star):
    frac = lambda seq: tuple(Fraction(x) for x in seq)
    return replace(
        base,
        theta=frac(theta),
        theta_star=frac(theta_star),
        eta=frac(eta),
        eta_star=frac(eta_star),
    )


def test_transition_identity_distinguishes_roles(standard_triple):
    base = build_labeling(*standard_triple(3)[:2])
    good = _synthetic_labeling(base, (1, 2, 4, 8), (8, 4, 2, 1), (1, 2, 4, 8), (8, 4, 2, 1))
    assert verify_transition_identity(good).holds
    # swapping x and z reverses the source decomposition of eta
    corrupted = replace(good, x=good.z, z=good.x, eta=good.theta[::-1])
    check = verify_transition_identity(corrupted)
    assert not check.holds
    assert check.first_failure == (2, 1)
    # the failing cell, computed independently: with d = 3, (i, j) = (2, 1)
    # the identity reads (theta_1 - theta_3)/(theta_2 - theta_3) = (eta_0 - eta_2)/(eta_1 - eta_2)
    theta, eta = corrupted.theta, corrupted.eta
    lhs = (theta[1] - theta[3]) / (theta[2] - theta[3])
    rhs = (eta[0] - eta[2]) / (eta[1] - eta[2])
    assert lhs == Fraction(3, 2) and rhs == 3 and lhs != rhs


def test_transition_identity_entry_corruption(standard_triple):
    lab = build_labeling(*standard_triple(3)[:2])
    bad = replace(lab, eta=(lab.eta[1], lab.eta[0]) + lab.eta[2:])
    check = verify_transition_identity(bad)
    assert not check.holds and check.first_failure is not None


def _reference_transition_identity(lab):
    """The cell-by-cell O(d^3) check: both products of every cell rebuilt."""
    theta, eta = lab.theta, lab.eta
    d = lab.d
    cells = 0
    first_failure = None
    for i in range(d + 1):
        for j in range(i + 1):
            cells += 1
            if first_failure is not None:
                continue
            lhs_num = lhs_den = Fraction(1)
            for k in range(j):
                lhs_num *= theta[d - i] - theta[d - k]
                lhs_den *= theta[d - j] - theta[d - k]
            rhs_num = rhs_den = Fraction(1)
            for k in range(j + 1, i + 1):
                rhs_num *= eta[0] - eta[k]
                rhs_den *= eta[j] - eta[k]
            if lhs_num * rhs_den != rhs_num * lhs_den:
                first_failure = (i, j)
    return IdentityCheck(first_failure is None, cells, first_failure)


def test_transition_identity_matches_the_cell_by_cell_check(standard_triple):
    # eta, then theta, perturbed at each index in turn, by a shift and by
    # repeating a neighbour (which makes some products vanish)
    geometric = _synthetic_labeling(
        build_labeling(*standard_triple(3)[:2]),
        (1, 2, 4, 8), (8, 4, 2, 1), (1, 2, 4, 8), (8, 4, 2, 1),
    )
    labelings = [geometric] + [
        build_labeling(p, q) for d in range(1, 9) for p, q in combinations(standard_triple(d), 2)
    ]
    failures = set()
    for lab in labelings:
        assert verify_transition_identity(lab) == _reference_transition_identity(lab)
        assert verify_transition_identity(lab).holds
        for name in ("eta", "theta"):
            seq = getattr(lab, name)
            for k in range(len(seq)):
                for value in (seq[k] + 1, seq[k - 1]):
                    bad = replace(lab, **{name: seq[:k] + (value,) + seq[k + 1 :]})
                    check = verify_transition_identity(bad)
                    assert check == _reference_transition_identity(bad)
                    failures.add(check.first_failure)
    assert None in failures and len(failures) > 2


def test_ratio_lemma_on_labelings(standard_triple):
    # consecutive difference ratios of all four sequences agree and are constant
    for d in (2, 3, 4):
        pairs = standard_triple(d)
        for p, q in combinations(pairs, 2):
            lab = build_labeling(p, q)
            values = set()
            for seq in (lab.theta, lab.theta_star, lab.eta, lab.eta_star):
                diffs = [b - a for a, b in zip(seq, seq[1:])]
                values.update(b / a for a, b in zip(diffs, diffs[1:]))
            assert len(values) <= 1


def test_dichotomy_arithmetic_on_triples(standard_triple):
    for d in (1, 2, 3):
        pairs = standard_triple(d)
        for p, q in combinations(pairs, 2):
            result = classify_dichotomy(build_labeling(p, q))
            assert result.tag is SequenceTag.ARITHMETIC and result.q is None


def test_dichotomy_synthetic_arithmetic(standard_triple):
    base = build_labeling(*standard_triple(3)[:2])
    lab = _synthetic_labeling(base, (4, 2, 0, -2), (-3, -1, 1, 3), (4, 2, 0, -2), (-3, -1, 1, 3))
    assert classify_dichotomy(lab).tag is SequenceTag.ARITHMETIC


def test_dichotomy_synthetic_q_classical(standard_triple):
    base = build_labeling(*standard_triple(3)[:2])
    lab = _synthetic_labeling(base, (1, 2, 4, 8), (8, 4, 2, 1), (1, 2, 4, 8), (8, 4, 2, 1))
    result = classify_dichotomy(lab)
    assert result.tag is SequenceTag.Q_CLASSICAL
    assert result.q == 2  # reported for the orientation of theta as labeled


def test_dichotomy_violation(standard_triple):
    base = build_labeling(*standard_triple(3)[:2])
    lab = _synthetic_labeling(base, (1, 2, 4, 8), (0, 1, 2, 3), (1, 2, 4, 8), (0, 1, 2, 3))
    with pytest.raises(DichotomyViolation):
        classify_dichotomy(lab)


def test_check_mutually_adjacent(standard_triple, kraw):
    pairs = standard_triple(3)
    assert check_mutually_adjacent(pairs)
    duplicated = list(pairs) + [pairs[0]]
    assert not check_mutually_adjacent(duplicated)
    assert not check_mutually_adjacent([pairs[0], pairs[1], kraw(3, Fraction(1, 7))])


def test_more_than_three_guard(monkeypatch, standard_triple):
    pairs = list(standard_triple(2)) + [standard_triple(2)[0]]
    monkeypatch.setattr(adjacency, "are_adjacent", lambda p, q: True)
    with pytest.raises(TheoremViolation):
        check_mutually_adjacent(pairs)


# --- one orientation per kind ---------------------------------------------


def _reference_are_adjacent(p1, p2):
    """Every standard decomposition of each pair, both orientations of
    both kinds, split for the other."""

    def splits(pair, other):
        decs = pair.a_standard_decompositions + pair.a_star_standard_decompositions
        return all(split_type(dec, other) is not SplitType.NONE for dec in decs)

    forward, backward = splits(p1, p2), splits(p2, p1)
    assert forward == backward
    return forward


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_are_adjacent_matches_all_orientations(standard_triple, kraw, d):
    members = list(standard_triple(d))
    members += [pair.swapped() for pair in members]
    t = ExactMatrix([[1 if j >= i else 0 for j in range(d + 1)] for i in range(d + 1)])
    t_inv = t.inverse()
    members.append(verify_leonard(t * members[0].a * t_inv, t * members[0].a_star * t_inv))
    members += [kraw(d, Fraction(1, 7)), kraw(d, Fraction(1, 3))]
    verdicts = set()
    for p1, p2 in combinations(members, 2):
        verdict = are_adjacent(p1, p2)
        assert verdict == _reference_are_adjacent(p1, p2)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_split_route_tests_one_standard_basis_per_kind(standard_triple, monkeypatch):
    """One split verdict per standard basis, each by span membership, so
    the split route makes no solve."""
    pairs = standard_triple(3)
    verdicts, solves = [], []
    monkeypatch.setattr(
        adjacency, "split_type", lambda *args: verdicts.append(args) or split_type(*args)
    )
    solve = linalg._solve
    monkeypatch.setattr(linalg, "_solve", lambda *args: solves.append(args) or solve(*args))
    assert check_mutually_adjacent(pairs)
    assert len(verdicts) == 12  # 3 pairs of pairs, 2 directions, one basis per kind
    verdicts.clear()
    assert are_adjacent(pairs[0], pairs[1])
    assert len(verdicts) == 4
    assert not solves
