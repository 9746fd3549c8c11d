"""Self-checks are explicit code: they raise TheoremViolation whether or
not Python runs with -O, and the package holds no assert statement."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import leonard_kit

PACKAGE = Path(leonard_kit.__file__).resolve().parent

BROKEN_TRIPLE = """
import leonard_kit.sl2 as sl2
from leonard_kit.errors import TheoremViolation

sl2.check_mutually_adjacent = lambda pairs: False
try:
    sl2.three_mutually_adjacent(2, (1, 0), (0, 1), (1, 1), (1, -1))
except TheoremViolation:
    print("TheoremViolation", __debug__)
"""


def test_triple_self_check_survives_python_O():
    done = subprocess.run(
        [sys.executable, "-O", "-c", BROKEN_TRIPLE],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "TheoremViolation False\n"


def test_package_has_no_assert():
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
