"""The named hard inputs of ``hard_inputs.py``, which CI writes by name:
each builds the same matrices every time, the random T of the dense
conjugates is the first draw of its seed, and the script writes what
the builder builds."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import leonard_kit
from hard_inputs import HARD_INPUTS, random_t
from leonard_kit import jsonio
from leonard_kit.linalg import ExactMatrix

SCRIPT = str(Path(__file__).with_name("hard_inputs.py"))
SRC = str(Path(leonard_kit.__file__).resolve().parents[1])


def write(name, path):
    return subprocess.run(
        [sys.executable, SCRIPT, name, str(path)],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": SRC},
    )


@pytest.mark.parametrize("name", HARD_INPUTS)
def test_each_input_builds_the_same_matrices_twice(name):
    first, second = HARD_INPUTS[name](), HARD_INPUTS[name]()
    assert len(first) == 2 and all(isinstance(m, ExactMatrix) for m in first)
    assert first == second


@pytest.mark.parametrize("d", [24, 32, 48, 63])
def test_dense_random_t_is_the_first_draw_of_its_seed(d):
    rng = random.Random(d)
    first = ExactMatrix([[rng.randint(-3, 3) for _ in range(d + 1)] for _ in range(d + 1)])
    assert random_t(d) == first
    assert first.det() != 0


@pytest.mark.parametrize("name", ["dense_easy24", "diag64_repeat", "affine500_8"])
def test_script_writes_the_builders_pair(name, tmp_path):
    path = tmp_path / f"{name}.json"
    done = write(name, path)
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
    assert jsonio.pair_from_obj(json.loads(path.read_text())) == HARD_INPUTS[name]()


def test_script_rejects_an_unknown_name(tmp_path):
    done = write("dense_random64", tmp_path / "x.json")
    assert done.returncode == 2
    assert all(name in done.stderr for name in HARD_INPUTS)
    assert not (tmp_path / "x.json").exists()
