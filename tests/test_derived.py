"""Records the library derives without re-validation, and the flag route
that compares standard flags by role.

Spans, induced flags and standard decompositions are bound by
``Record._derived``; each must equal, hash and print like the record the
validating public constructor gives for the same fields.  No command path
validates a flag or decomposition, or hashes a flag.
"""

import json
import random
from fractions import Fraction
from itertools import permutations

import pytest

from leonard_kit import adjacency, cli
from leonard_kit.adjacency import AdjacencyLabeling, are_adjacent_via_flags, build_labeling
from leonard_kit.errors import NotAdjacent
from leonard_kit.flags import Flag, principal_relation, standard_flag_set
from leonard_kit.leonard import Decomposition, verify_leonard
from leonard_kit.linalg import ExactMatrix, Subspace
from leonard_kit.sl2 import affine_transform


def _dense_conjugate(base, seed):
    rng = random.Random(seed)
    n = base.d + 1
    while True:
        t = ExactMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        if t.det() != 0:
            break
    t_inv = t.inverse()
    return verify_leonard(t * base.a * t_inv, t * base.a_star * t_inv)


def _pairs(kraw, standard_triple):
    pairs = [kraw(d, p) for d in range(9) for p in (Fraction(1, 3), Fraction(-2, 5))]
    pairs += [_dense_conjugate(kraw(d, Fraction(1, 3)), d) for d in range(1, 7)]
    pairs += [q for d in range(1, 5) for q in standard_triple(d)]
    return pairs + [q.swapped() for q in pairs]


def _assert_twin(derived, twin):
    assert twin == derived
    assert hash(twin) == hash(derived)
    assert repr(twin) == repr(derived)


def _assert_subspace_twin(space):
    _assert_twin(space, Subspace(space.ambient_dim, space.basis))


def test_derived_records_match_validated_twins(kraw, standard_triple):
    for pair in _pairs(kraw, standard_triple):
        decs = pair.a_standard_decompositions + pair.a_star_standard_decompositions
        for dec in decs:
            _assert_twin(dec, Decomposition(dec.components))
            for comp in dec.components:
                _assert_subspace_twin(comp)
        for flag in standard_flag_set(pair).all_flags():
            _assert_twin(flag, Flag(flag.components))
            for comp in flag.components:
                _assert_subspace_twin(comp)


@pytest.mark.parametrize(
    "vectors",
    [[(0, 0, 0)], [(2, 4, 0), (1, 2, 0)], [(0, 1, 3), (1, 0, 0), (Fraction(1, 2), 1, 1)]],
)
def test_span_matches_validated_twin(vectors):
    _assert_subspace_twin(Subspace.span(3, vectors))


def _by_definition(p1, p2):
    same_flags = standard_flag_set(p1).as_set() == standard_flag_set(p2).as_set()
    return same_flags and principal_relation(p1) != principal_relation(p2)


def test_flag_route_matches_the_definition(kraw, standard_triple):
    for d in range(1, 6):
        pair = kraw(d, Fraction(1, 3))
        members = standard_triple(d)
        moved = affine_transform(members[0], 2, 5, -1, 0)
        cases = [
            (pair, pair, False),
            (pair, pair.swapped(), False),
            (pair, affine_transform(pair, 2, 5, -1, 0), False),
            (moved, members[1], True),
            (members[0], members[2], True),
            (members[2], members[1].swapped(), True),
            (pair, kraw(d, Fraction(-2, 5)), False),
        ]
        for p1, p2, expected in cases:
            assert _by_definition(p1, p2) is expected
            assert are_adjacent_via_flags(p1, p2) is expected
            assert are_adjacent_via_flags(p2, p1) is expected


def test_labeling_exists_exactly_when_the_flag_route_says_adjacent(kraw, standard_triple):
    """build_labeling and are_adjacent_via_flags read one role test.  A
    pair and its swap share all four flags and the relation, and two
    unrelated Krawtchouk pairs share no flag: neither has a labeling."""
    for d in range(1, 6):
        members = standard_triple(d)
        cases = [
            (members[1], members[1].swapped()),
            (kraw(d, Fraction(1, 2)), kraw(d, Fraction(3, 4))),
            (kraw(d, Fraction(1, 3)), kraw(d, Fraction(1, 3)).swapped()),
            (members[0], members[1]),
            (members[2], members[0].swapped()),
        ]
        for p1, p2 in cases:
            for first, second in ((p1, p2), (p2, p1)):
                expected = _by_definition(first, second)
                assert are_adjacent_via_flags(first, second) is expected
                if expected:
                    lab = build_labeling(first, second)
                    roles = {lab.w, lab.x, lab.y, lab.z}
                    assert len(roles) == 4 and roles == standard_flag_set(first).as_set()
                else:
                    with pytest.raises(NotAdjacent):
                        build_labeling(first, second)
        assert [_by_definition(*case) for case in cases] == [False, False, False, True, True]


def _labeling_by_search(p1, p2):
    """Oracle: each role flag found by membership, and each sequence by the
    .index() of its flag."""
    fs1, fs2 = standard_flag_set(p1), standard_flag_set(p2)
    a1, s1, a2, s2 = fs1.a_flags, fs1.a_star_flags, fs2.a_flags, fs2.a_star_flags
    (w,), (x,), (y,), (z,) = (
        [f for f in ours if f in theirs]
        for ours, theirs in ((a1, a2), (a1, s2), (s1, s2), (s1, a2))
    )
    return AdjacencyLabeling(
        w,
        x,
        y,
        z,
        p1.eigenvalue_sequences[a1.index(w)],
        p1.dual_eigenvalue_sequences[s1.index(y)],
        p2.eigenvalue_sequences[a2.index(z)],
        p2.dual_eigenvalue_sequences[s2.index(x)],
    )


def test_labeling_reads_the_matched_indices(standard_triple):
    """The labeling equals the .index() oracle on adjacent pairs among
    which each role sits at every index of both standard pairs."""
    seen = set()
    for d in range(1, 5):
        members = standard_triple(d)
        moved = [affine_transform(q, -1, 0, -2, 1) for q in members]
        for p1, p2 in permutations([*members, *moved], 2):
            for first, second in ((p1, p2), (p1.swapped(), p2), (p1, p2.swapped())):
                if not are_adjacent_via_flags(first, second):
                    continue
                assert build_labeling(first, second) == _labeling_by_search(first, second)
                roles = adjacency._roles(standard_flag_set(first), standard_flag_set(second))
                seen.update(enumerate(roles))
    assert seen == {(role, (i, j)) for role in range(4) for i in range(2) for j in range(2)}


def test_one_labeling_makes_four_equal_flag_comparisons(standard_triple, monkeypatch):
    """One equal comparison per role, none to find a role's index again."""
    members = standard_triple(3)
    for pair in members:
        standard_flag_set(pair)
    equal = []
    flag_eq = Flag.__eq__

    def counted(self, other):
        result = flag_eq(self, other)
        if result is True:
            equal.append((self, other))
        return result

    monkeypatch.setattr(Flag, "__eq__", counted)
    for p1, p2 in permutations(members, 2):
        equal.clear()
        build_labeling(p1, p2)
        assert len(equal) == 4


@pytest.fixture
def record_checks_off_command_paths(monkeypatch):
    """Flag hashing and the Flag and Decomposition checks all raise."""
    calls = []

    def forbidden(*args, **kwargs):
        calls.append(args)
        raise RuntimeError("no flag hashing or record re-validation on a command path")

    monkeypatch.setattr(Flag, "__hash__", forbidden)
    monkeypatch.setattr(Flag, "_validate", forbidden)
    monkeypatch.setattr(Decomposition, "_validate", forbidden)
    yield calls


def test_commands_check_each_record_once(record_checks_off_command_paths, tmp_path, capsys):
    def run(*argv):
        code = cli.main(list(argv))
        capsys.readouterr()
        return code

    triple = tmp_path / "triple.json"
    assert run("triple", "--d", "3", "--p", "1/3", "--output", str(triple)) == 0
    paths = []
    for i, obj in enumerate(json.loads(triple.read_text())["pairs"]):
        paths.append(tmp_path / f"pair{i}.json")
        paths[-1].write_text(json.dumps(obj))
    p0, p1 = str(paths[0]), str(paths[1])
    assert run("verify", p0) == 0
    assert run("flags", p0) == 0
    assert run("adjacent", p0, p1) == 0
    assert run("adjacent", p0, p0) == 1
    assert run("companions", p0) == 0
    assert record_checks_off_command_paths == []
