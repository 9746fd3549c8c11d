import json
from fractions import Fraction

import pytest

from leonard_kit import jsonio
from leonard_kit.cli import main
from leonard_kit.linalg import ExactMatrix


def test_matrix_round_trip_bit_exact():
    m = ExactMatrix([["4/3", "-1"], ["0", "22/7"]])
    obj = jsonio.matrix_to_obj(m)
    assert obj["entries"] == [["4/3", "-1"], ["0", "22/7"]]
    assert jsonio.matrix_from_obj(json.loads(json.dumps(obj))) == m


def test_matrix_accepts_integer_entries():
    obj = {"rows": 1, "cols": 2, "entries": [[3, "1/2"]]}
    assert jsonio.matrix_from_obj(obj) == ExactMatrix([[3, "1/2"]])


def test_matrix_rejects_floats_and_shape_lies(tmp_path, capsys):
    with pytest.raises(ValueError):
        jsonio.matrix_from_obj({"rows": 1, "cols": 1, "entries": [[1.5]]})
    # Fraction() accepts these, the documented syntax does not; "1e5000"
    # would build a 5000-digit integer.  The library, the JSON reader and
    # the CLI share one grammar.
    for raw in ("1e5000", "1.5", "2e3", " 3"):
        with pytest.raises(ValueError, match="cannot parse rational"):
            ExactMatrix([[raw]])
        entry = {"rows": 1, "cols": 1, "entries": [[raw]]}
        with pytest.raises(ValueError, match="cannot parse rational"):
            jsonio.matrix_from_obj(entry)
        path = tmp_path / "pair.json"
        path.write_text(json.dumps({"a": entry, "a_star": entry}))
        assert main(["verify", str(path)]) == 2
        assert "cannot parse rational" in capsys.readouterr().err
        assert main(["triple", "--d", "2", "--p", raw]) == 2
        assert "cannot parse rational" in capsys.readouterr().err
    with pytest.raises(ValueError):
        jsonio.matrix_from_obj({"rows": 2, "cols": 1, "entries": [[1]]})
    with pytest.raises(ValueError):
        jsonio.matrix_from_obj({"rows": 1, "cols": 2, "entries": [[1]]})
    with pytest.raises(ValueError):
        jsonio.matrix_from_obj({"rows": 1, "cols": 1})


@pytest.mark.parametrize("size", [{"rows": True}, {"cols": True}, {"rows": False}])
def test_matrix_rejects_boolean_sizes(size):
    # bool is an int subclass; True must not pass for a 1
    obj = {"rows": 1, "cols": 1, "entries": [["1"]], **size}
    with pytest.raises(ValueError, match="positive integers"):
        jsonio.matrix_from_obj(obj)


def test_pair_round_trip(kraw):
    pair = kraw(2, Fraction(1, 3))
    obj = jsonio.pair_to_obj(pair.a, pair.a_star)
    a, a_star = jsonio.pair_from_obj(json.loads(json.dumps(obj)))
    assert (a, a_star) == (pair.a, pair.a_star)


def test_sequence_parsing():
    assert jsonio.sequence_from_obj(["1/2", 3]) == (Fraction(1, 2), Fraction(3))
    assert jsonio.sequence_from_obj({"sequence": ["-2"]}) == (Fraction(-2),)
    with pytest.raises(ValueError):
        jsonio.sequence_from_obj([])
    with pytest.raises(ValueError):
        jsonio.sequence_from_obj(["1/0"])


def test_dumps_deterministic(kraw):
    pair = kraw(3, Fraction(1, 2))
    first = jsonio.dumps(jsonio.pair_report_obj(pair))
    second = jsonio.dumps(jsonio.pair_report_obj(pair))
    assert first == second
    assert first.endswith("\n")
