import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from leonard_kit import adjacency, cli, jsonio, linalg, sl2
from leonard_kit.cli import main
from leonard_kit.errors import NotAdjacent
from leonard_kit.linalg import ExactMatrix
from leonard_kit.sl2 import (
    KrawtchoukParameters,
    Sl2Element,
    krawtchouk_pair,
    lift,
    three_mutually_adjacent,
)


def write_pair(path, a, a_star):
    path.write_text(json.dumps(jsonio.pair_to_obj(a, a_star)))
    return str(path)


@pytest.fixture
def kraw_file(tmp_path):
    def make(d, p, name="pair.json"):
        pair = krawtchouk_pair(KrawtchoukParameters(d, Fraction(p)))
        return write_pair(tmp_path / name, pair.a, pair.a_star)

    return make


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_accepts_krawtchouk(kraw_file, capsys):
    code, out, err = run(capsys, "verify", kraw_file(1, "1/3"))
    assert code == 0
    report = json.loads(out)
    assert report["leonard_pair"] is True
    assert report["d"] == 1
    assert report["eigenvalue_sequences"] == [["1", "-1"], ["-1", "1"]]
    assert '"leonard_pair": true' in out
    assert err.strip()


def test_verify_rejects_diagonal_pair(tmp_path, capsys):
    path = write_pair(
        tmp_path / "diag.json", ExactMatrix.diagonal([1, -1]), ExactMatrix.diagonal([1, -1])
    )
    code, out, _ = run(capsys, "verify", path)
    assert code == 1
    report = json.loads(out)
    assert report["leonard_pair"] is False
    assert report["error"] == "NotTridiagonalizable"


def test_verify_prime_entries_past_trial_division(tmp_path, capsys):
    p, q = 10**9 + 7, 10**9 + 9
    path = write_pair(
        tmp_path / "primes.json", ExactMatrix.diagonal([p, q]), ExactMatrix([[0, 1], [1, 0]])
    )
    code, out, _ = run(capsys, "verify", path)
    assert code == 0
    assert json.loads(out)["eigenvalue_sequences"] == [[str(q), str(p)], [str(p), str(q)]]


def test_verify_reports_results_longer_than_the_int_str_limit(tmp_path, capsys):
    """Entries of 2201 digits give eigenvalues (N K +- M) / (M K) whose
    numerators pass Python's 4300-digit int-to-str limit."""
    n, m, k = 10**2200 + 1, 10**2199 + 7, 10**2198 + 3
    off = Fraction(1, k)
    a = ExactMatrix([[Fraction(n, m), off], [off, Fraction(n, m)]])
    path = write_pair(tmp_path / "long.json", a, ExactMatrix.diagonal([1, -1]))
    code, out, _ = run(capsys, "verify", path)
    assert code == 0
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        theta = [Fraction(x) for x in json.loads(out)["eigenvalue_sequences"][0]]
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    assert theta == [Fraction(n * k + m, m * k), Fraction(n * k - m, m * k)]


def test_verify_non_square_is_usage_error(tmp_path, capsys):
    obj = {
        "a": {"rows": 1, "cols": 2, "entries": [["1", "2"]]},
        "a_star": {"rows": 2, "cols": 2, "entries": [["0", "1"], ["1", "0"]]},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2
    assert out == ""
    assert "not square" in err


def test_verify_bad_json_is_usage_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert "JSON" in err


def assert_usage_error(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("command", ["verify", "flags", "classify-seq"])
def test_deeply_nested_json_is_usage_error(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    assert_usage_error(capsys, command, str(path))


def vectors_file(tmp_path, v0_x):
    path = tmp_path / "vectors.json"
    path.write_bytes(b'{"v0": [%s, 0], "v1": [0, 1], "w0": [1, 1], "w1": [1, -1]}' % v0_x)
    return str(path)


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit"
)
def test_vectors_with_integer_past_the_digit_limit_is_usage_error(tmp_path, capsys):
    path = vectors_file(tmp_path, b"7" * 5000)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert_usage_error(capsys, "triple", "--d", "1", "--vectors", path)
    finally:
        sys.set_int_max_str_digits(limit)


def test_vectors_not_utf8_is_usage_error(tmp_path, capsys):
    path = vectors_file(tmp_path, b'"\xff\xfe"')
    assert_usage_error(capsys, "triple", "--d", "1", "--vectors", path)


@pytest.mark.parametrize(
    "name, vector",
    [("v0", "10"), ("w0", {"1": 0, "1/2": 0})],
    ids=["string", "object"],
)
def test_vector_that_is_not_a_list_is_usage_error(tmp_path, capsys, name, vector):
    # iterating a string or an object would read its characters or keys
    vectors = {"v0": [1, 0], "v1": [0, 1], "w0": [1, 1], "w1": [1, -1], name: vector}
    path = tmp_path / "vectors.json"
    path.write_text(json.dumps(vectors))
    assert_usage_error(capsys, "triple", "--d", "1", "--vectors", str(path))


def test_boolean_matrix_size_is_usage_error(tmp_path, capsys):
    entry = {"rows": True, "cols": True, "entries": [["1"]]}
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"a": entry, "a_star": entry}))
    assert_usage_error(capsys, "verify", str(path))


def test_flags_reports_four_flags(kraw_file, capsys):
    code, out, _ = run(capsys, "flags", kraw_file(2, "1/2"))
    assert code == 0
    report = json.loads(out)
    assert len(report["flags"]) == 4
    assert report["principal_relation"] == [[0, 1], [2, 3]]


def test_adjacent_self_is_negative(kraw_file, capsys):
    path = kraw_file(2, "1/3")
    code, out, _ = run(capsys, "adjacent", path, path)
    assert code == 1
    assert json.loads(out)["adjacent"] is False


def test_adjacent_triple_members(tmp_path, capsys):
    from leonard_kit.sl2 import three_mutually_adjacent

    pairs = three_mutually_adjacent(2, (1, 0), (0, 1), (1, 1), (1, -1))
    p1 = write_pair(tmp_path / "p1.json", pairs[0].a, pairs[0].a_star)
    p2 = write_pair(tmp_path / "p2.json", pairs[1].a, pairs[1].a_star)
    code, out, _ = run(capsys, "adjacent", p1, p2)
    assert code == 0
    report = json.loads(out)
    assert report["adjacent"] is True and report["via_flags"] is True
    assert report["dichotomy"]["branch"] == "arithmetic"
    assert report["transition_identity"] == {"holds": True, "cells": 6}
    assert len(report["labeling"]["theta"]) == 3


def test_adjacent_d0_is_degenerate_affirmative(tmp_path, capsys):
    p1 = write_pair(tmp_path / "p1.json", ExactMatrix([[1]]), ExactMatrix([[2]]))
    p2 = write_pair(tmp_path / "p2.json", ExactMatrix([[3]]), ExactMatrix([[4]]))
    code, out, _ = run(capsys, "adjacent", p1, p2)
    assert code == 0
    report = json.loads(out)
    assert report["adjacent"] is True
    assert report["degenerate_dimension"] is True
    assert report["labeling"] is None


def test_adjacent_rejects_non_leonard_input(tmp_path, kraw_file, capsys):
    bad = write_pair(
        tmp_path / "bad.json", ExactMatrix.diagonal([1, -1]), ExactMatrix.diagonal([1, -1])
    )
    code, _, err = run(capsys, "adjacent", kraw_file(1, "1/3"), bad)
    assert code == 2
    assert "not a Leonard pair" in err


def test_triple_with_p_round_trips(capsys):
    code, out, _ = run(capsys, "triple", "--d", "2", "--p", "1/3")
    assert code == 0
    report = json.loads(out)
    assert report["p"] == "1/3"
    assert report["mutually_adjacent"] is True
    assert len(report["pairs"]) == 3
    a, a_star = jsonio.pair_from_obj(report["pairs"][0])
    kp = krawtchouk_pair(KrawtchoukParameters(2, Fraction(1, 3)))
    assert (a, a_star) == (kp.a, kp.a_star)


def test_triple_with_vectors(tmp_path, capsys):
    path = tmp_path / "vectors.json"
    path.write_text(
        json.dumps({"v0": ["1", "0"], "v1": ["0", "1"], "w0": ["1", "1"], "w1": ["1", "-1"]})
    )
    code, out, _ = run(capsys, "triple", "--d", "3", "--vectors", str(path))
    assert code == 0
    assert len(json.loads(out)["pairs"]) == 3


def test_triple_rejects_dependent_vectors(tmp_path, capsys):
    path = tmp_path / "vectors.json"
    path.write_text(
        json.dumps({"v0": ["1", "0"], "v1": ["2", "0"], "w0": ["1", "1"], "w1": ["1", "-1"]})
    )
    code, _, err = run(capsys, "triple", "--d", "2", "--vectors", str(path))
    assert code == 2
    assert "dependent" in err


def test_triple_needs_exactly_one_source(capsys):
    code, _, err = run(capsys, "triple", "--d", "2")
    assert code == 2
    code, _, err = run(capsys, "triple", "--d", "2", "--p", "1/3", "--vectors", "x.json")
    assert code == 2


def test_companions_emits_verified_triple(kraw_file, capsys):
    code, out, _ = run(capsys, "companions", kraw_file(2, "1/2"))
    assert code == 0
    report = json.loads(out)
    assert report["companions"] is True
    assert report["normal_form"]["p"] == "1/2"
    assert report["mutually_adjacent"] is True
    jsonio.matrix_from_obj(report["b"])  # well-formed matrices


def test_companions_negative_for_non_arithmetic(tmp_path, capsys):
    path = write_pair(
        tmp_path / "qpair.json",
        ExactMatrix.diagonal([4, 2, 1]),
        ExactMatrix([[0, 1, 0], [3, 0, 2], [0, 3, 0]]),
    )
    code, out, _ = run(capsys, "companions", path)
    assert code == 1
    assert json.loads(out)["companions"] is False


def test_classify_seq(tmp_path, capsys):
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(["3", "1", "-1", "-3"]))
    code, out, _ = run(capsys, "classify-seq", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["class"] == "arithmetic"
    assert (report["alpha"], report["beta"]) == ("-2", "3")

    path.write_text(json.dumps(["0", "1", "3", "4"]))
    code, out, _ = run(capsys, "classify-seq", str(path))
    assert code == 1
    assert json.loads(out)["class"] == "neither"

    path.write_text(json.dumps(["1", "1"]))
    code, _, err = run(capsys, "classify-seq", str(path))
    assert code == 2
    assert "distinct" in err


def test_output_flag_writes_file(tmp_path, kraw_file, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", kraw_file(1, "1/2"), "--output", str(out_path))
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text())["leonard_pair"] is True


def test_deterministic_output(kraw_file, capsys):
    path = kraw_file(3, "2/5")
    _, first, _ = run(capsys, "verify", path)
    _, second, _ = run(capsys, "verify", path)
    assert first == second


def test_max_dim_cap(tmp_path, kraw_file, capsys, monkeypatch):
    monkeypatch.setenv("LEONARD_KIT_MAX_DIM", "2")
    code, _, err = run(capsys, "verify", kraw_file(3, "1/3"))
    assert code == 2
    assert "LEONARD_KIT_MAX_DIM" in err
    code, _, err = run(capsys, "triple", "--d", "5", "--p", "1/3")
    assert code == 2


def test_max_dim_cap_is_checked_before_any_entry_is_parsed(tmp_path, capsys, monkeypatch):
    """A declared size above the cap is reported even though the last
    entry of the matrix is no rational: no entry is read first."""
    monkeypatch.setenv("LEONARD_KIT_MAX_DIM", "2")
    entries = [["1"] * 200 for _ in range(200)]
    entries[-1][-1] = "1.5"
    small = {"rows": 1, "cols": 1, "entries": [["0"]]}
    path = tmp_path / "big.json"
    big = {"rows": 200, "cols": 200, "entries": entries}
    path.write_text(json.dumps({"a": big, "a_star": small}))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2 and out == ""
    assert f'{path}: matrix "a" is 200x200, above the LEONARD_KIT_MAX_DIM cap of 2' in err


def test_internal_failure_exits_3(kraw_file, capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("simulated defect")

    monkeypatch.setattr(cli, "_cmd_verify", broken)
    code, out, err = run(capsys, "verify", kraw_file(1, "1/3"))
    assert code == 3
    assert out == ""
    assert "Traceback" in err and "RuntimeError: simulated defect" in err


def _unreachable_normal_form(d, p):
    return lift(Sl2Element(1, 0, 0), d), ExactMatrix.zeros(d + 1, d + 1)


# each patch breaks a result a theorem guarantees: the triple is mutually
# adjacent, n distinct roots in dimension n give n eigenlines, and a pair
# with arithmetic sequences meets the Krawtchouk normal form
SELF_CHECK_FAILURES = {
    "triple": (
        (sl2, "check_mutually_adjacent", lambda pairs: False),
        "TheoremViolation: lifted pairs must be mutually adjacent",
    ),
    "verify": (
        # roots of N = (A - 2I)/2 for A = diag(2, 0, -2), so 5 stands for 2·5 + 2
        (linalg, "_integer_roots", lambda f: [2, 0, 5]),
        "TheoremViolation: eigenspace of 12 has dimension 0",
    ),
    "companions": (
        (sl2, "_krawtchouk_matrices", _unreachable_normal_form),
        "NotKrawtchouk: no orientation matches the tridiagonal normal form",
    ),
}


@pytest.mark.parametrize("command", SELF_CHECK_FAILURES)
def test_failed_self_check_exits_3(command, kraw_file, capsys, monkeypatch):
    argv = ["--d", "2", "--p", "1/3"] if command == "triple" else [kraw_file(2, "1/3")]
    patch, message = SELF_CHECK_FAILURES[command]
    monkeypatch.setattr(*patch)
    code, out, err = run(capsys, command, *argv)
    assert code == 3
    assert out == ""
    assert "Traceback" in err and message in err


@pytest.fixture
def member_files(tmp_path):
    """Pair files of two members of the d = 2 triple."""
    pairs = three_mutually_adjacent(2, (1, 0), (0, 1), (1, 1), (1, -1))
    return [
        write_pair(tmp_path / f"p{i}.json", q.a, q.a_star)
        for i, q in enumerate(pairs[:2], 1)
    ]


def test_adjacency_routes_disagreeing_exits_3(member_files, capsys, monkeypatch):
    def no_labeling(p, q):
        raise NotAdjacent("the pairs are not adjacent")

    monkeypatch.setattr(adjacency, "build_labeling", no_labeling)
    code, out, err = run(capsys, "adjacent", *member_files)
    assert code == 3
    assert out == ""
    assert "Traceback" in err and "TheoremViolation" in err


def count_calls(monkeypatch, module, name):
    """Replace every leonard_kit binding of module.name with a counting
    wrapper; returns the list that collects one entry per call."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for key, mod in list(sys.modules.items()):
        if key.split(".")[0] == "leonard_kit" and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_each_command_decides_once(member_files, kraw_file, capsys, monkeypatch):
    adjacent_calls = count_calls(monkeypatch, adjacency, "are_adjacent")
    role_calls = count_calls(monkeypatch, adjacency, "_roles")
    normal_form_calls = count_calls(monkeypatch, sl2, "krawtchouk_normal_form")
    assert run(capsys, "adjacent", *member_files)[0] == 0
    assert len(adjacent_calls) == 1
    assert len(role_calls) == 1
    assert run(capsys, "companions", kraw_file(2, "1/3"))[0] == 0
    assert len(normal_form_calls) == 1


def test_usage_error_from_argparse(capsys):
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2


def test_import_does_not_load_dataclasses():
    """Every command pays for importing the package; the records must not
    bring in dataclasses and the inspect machinery behind it.  Modules run
    at first use, so the star import runs every one of them first."""
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (
        f"import sys, types; sys.path.insert(0, {src!r}); import leonard_kit.cli; "
        "from leonard_kit import *; "
        "lazy = [name for name, module in sys.modules.items() "
        "if name.startswith('leonard_kit.') and type(module) is not types.ModuleType]; "
        "assert not lazy, f'not run: {lazy}'; "
        "assert 'dataclasses' not in sys.modules, 'dataclasses was imported'; "
        "assert 'inspect' not in sys.modules, 'inspect was imported'"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
