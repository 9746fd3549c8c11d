"""Self-tests of the benchmark: python3 -m pytest bench

The generator is compared with the library here, and only here; the
benchmark itself never imports leonard_kit.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import pytest

import checks
import construct
import corpus
import run
from spans import summarize

sys.path.insert(0, str(run.SRC))

from leonard_kit import jsonio  # noqa: E402
from leonard_kit.sl2 import (  # noqa: E402
    KrawtchoukParameters,
    krawtchouk_pair,
    three_mutually_adjacent,
)


def entries(m):
    return [list(row) for row in m.entries]


@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize("p", [Fraction(1, 3), Fraction(-3, 2)])
def test_krawtchouk_matches_library(d, p):
    pair = krawtchouk_pair(KrawtchoukParameters(d, p))
    assert construct.krawtchouk(d, p) == (entries(pair.a), entries(pair.a_star))


@pytest.mark.parametrize("d", [1, 2, 4])
@pytest.mark.parametrize(
    "witnesses", [((1, 0), (0, 1), (1, 1), (1, -1)), ((2, 1), (-1, 3), (1, 1), (3, -2))]
)
def test_triple_matches_library(d, witnesses):
    pairs = three_mutually_adjacent(d, *witnesses)
    assert construct.triple(d, *witnesses) == [(entries(q.a), entries(q.a_star)) for q in pairs]


def test_tail_percentile_rule():
    assert run.tail_percentile(run.MIN_SAMPLES) == run.TAIL == 87
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(99) == 89
    assert run.tail_percentile(200) == 95
    assert run.tail_percentile(1000) == 99
    samples = list(range(1, 101))
    assert run.nearest_rank(samples, 90) == 90
    assert sum(x > run.nearest_rank(samples, 90) for x in samples) == 10


def test_self_time_on_synthetic_tree():
    # root [0, 10] > a [1, 5] > a [2, 3]; root > b [6, 9]
    spans = [
        ["root", 0.0, 10.0, -1, None, None],
        ["a", 1.0, 5.0, 0, 4, None],
        ["a", 2.0, 3.0, 1, 4, 17],
        ["b", 6.0, 9.0, 0, None, None],
    ]
    totals = summarize(spans)
    assert totals["root"] == {"calls": 1, "s": 10.0, "self_s": 3.0, "max_bits": 0}
    assert totals["a"] == {"calls": 2, "s": 4.0, "self_s": 4.0, "max_bits": 17}
    assert totals["b"]["self_s"] == 3.0


def test_deadline_kills_and_reaps(tmp_path):
    result = run.spawn([sys.executable, "-c", "import time; time.sleep(30)"], tmp_path, 0.5)
    assert result.killed and result.wall == 0.5
    assert result.code is not None and result.code < 0


def test_crash_is_a_failure_not_a_negative_verdict():
    cmd = corpus.Command(["verify", "pair.json"], 1, lambda report: None)
    crash = run.Result(0.1, 1, b"", "Traceback (most recent call last):\nValueError: x", False)
    assert run.failure(cmd, crash, 30).startswith("crashed")


def test_checks_reject_a_corrupted_report():
    d, p = 3, Fraction(2, 5)
    pair = krawtchouk_pair(KrawtchoukParameters(d, p))
    a, a_star = construct.krawtchouk(d, p)
    spectrum = [Fraction(d - 2 * i) for i in range(d + 1)]
    report = json.loads(json.dumps(jsonio.pair_report_obj(pair)))
    assert checks.verify_report(report, a, a_star, spectrum, spectrum) is None
    report["a_standard_decompositions"][0][1][0][0] = "7"
    assert checks.verify_report(report, a, a_star, spectrum, spectrum) is not None


def test_corpus_is_a_function_of_the_seed():
    for workload in corpus.WORKLOADS:
        first, again = corpus.build(workload, 7), corpus.build(workload, 7)
        assert [(c.key, c.argv, c.files) for c in first] == [(c.key, c.argv, c.files) for c in again]
        assert len(first) * 3 >= run.MIN_SAMPLES
    assert [c.files for c in corpus.build("recognize", 1)] != [
        c.files for c in corpus.build("recognize", 2)
    ]


def test_benchmark_json_names_the_driver_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(corpus.WORKLOADS)


def test_digests_cover_every_variant():
    stored = json.loads((run.BENCH / "digests.json").read_text())
    for workload in corpus.WORKLOADS:
        assert set(stored[workload]) == {c.key for c in corpus.all_variants(workload)}
