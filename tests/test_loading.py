"""How the package loads and what it exports.

Importing ``leonard_kit`` registers its modules without running them,
and each command runs only the modules it calls.  The loading tests run
in a fresh ``python -S`` process with no bytecode written, as a command
does; whether a module has run is read from its type, which does not
trigger a load (a module not yet run is a ``LazyLoader`` module).
"""

import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import leonard_kit
from leonard_kit import jsonio
from leonard_kit.sl2 import three_mutually_adjacent

SRC = str(Path(leonard_kit.__file__).resolve().parents[1])
MODULE_FILES = {info.name for info in pkgutil.iter_modules(leonard_kit.__path__)}
LAZY = MODULE_FILES - {"cli", "jsonio"}

# prints the modules that have run; no command may load dataclasses or
# inspect, which the records are built to do without
RAN = (
    "import types\n"
    "assert 'dataclasses' not in sys.modules, 'dataclasses was imported'\n"
    "assert 'inspect' not in sys.modules, 'inspect was imported'\n"
    "ran = sorted(name.split('.', 1)[1] for name, module in sys.modules.items()\n"
    "             if name.startswith('leonard_kit.') and type(module) is types.ModuleType)\n"
    "print(json.dumps(ran))\n"
)


def run_python(code, *args):
    """Run ``code`` in a fresh ``python -S`` with no bytecode written and
    ``src`` first on the path; return the JSON its last line prints."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    result = subprocess.run(
        [sys.executable, "-S", "-c", f"import json, sys; sys.path.insert(0, {SRC!r})\n{code}", *args],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_import_cli_runs_no_mathematics():
    ran = set(run_python("import leonard_kit.cli\n" + RAN))
    assert ran == {"cli", "jsonio", "errors", "_scalar"}


def test_import_registers_every_module_without_running_it():
    code = (
        "import types, leonard_kit\n"
        "print(json.dumps({name.split('.', 1)[1]: [type(module) is types.ModuleType,\n"
        "                  getattr(leonard_kit, name.split('.', 1)[1]) is module]\n"
        "                  for name, module in sys.modules.items()\n"
        "                  if name.startswith('leonard_kit.')}))\n"
    )
    registered = run_python(code)
    assert set(registered) == LAZY
    assert registered == {name: [False, True] for name in LAZY}


# what every command runs: the front end, its JSON forms, errors and scalars
BASE = {"cli", "jsonio", "errors", "_record", "_scalar"}
RECOGNITION = BASE | {"linalg", "leonard"}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Input files for one command of each kind, at d = 2."""
    root = tmp_path_factory.mktemp("inputs")
    paths = {}
    for i, pair in enumerate(three_mutually_adjacent(2, (1, 0), (0, 1), (1, 1), (1, -1))[:2]):
        paths[f"pair{i}"] = root / f"pair{i}.json"
        paths[f"pair{i}"].write_text(jsonio.dumps(jsonio.pair_to_obj(pair.a, pair.a_star)))
    paths["sequence"] = root / "sequence.json"
    paths["sequence"].write_text(json.dumps(["1", "3", "5", "7"]))
    paths["output"] = root / "report.json"
    return {key: str(path) for key, path in paths.items()}


COMMANDS = {
    "verify": (["verify", "{pair0}"], RECOGNITION),
    "flags": (["flags", "{pair0}"], RECOGNITION | {"flags"}),
    "classify-seq": (["classify-seq", "{sequence}"], BASE | {"sequences"}),
    "adjacent": (["adjacent", "{pair0}", "{pair1}"], MODULE_FILES - {"sl2"}),
    "triple": (["triple", "--d", "2", "--p", "1/3"], MODULE_FILES),
    "companions": (["companions", "{pair0}"], MODULE_FILES),
}


@pytest.mark.parametrize("command", COMMANDS)
def test_each_command_runs_only_the_modules_it_calls(command, inputs):
    argv, expected = COMMANDS[command]
    argv = [arg.format(**inputs) for arg in argv] + ["--output", inputs["output"]]
    code = "import leonard_kit.cli\nassert leonard_kit.cli.main(sys.argv[1:]) == 0\n" + RAN
    assert set(run_python(code, *argv)) == expected


# the names the package re-exported when it imported every module eagerly
EXPORTS = {
    "adjacency": (
        "AdjacencyLabeling", "DichotomyResult", "IdentityCheck", "are_adjacent",
        "are_adjacent_via_flags", "build_labeling", "check_mutually_adjacent",
        "classify_dichotomy", "verify_transition_identity",
    ),
    "errors": (
        "AmbientMismatch", "DecompositionNotStandard", "DegenerateDimension",
        "DependentVectors", "DichotomyViolation", "DimensionMismatch", "InvalidP",
        "LeonardKitError", "NotADecomposition", "NotAdjacent", "NotArithmetic",
        "NotKrawtchouk", "NotOpposite", "NotSimpleRationalSpectrum", "NotTraceless",
        "NotTridiagonalizable", "RepeatedEntry", "SingularBasis", "TheoremViolation",
        "ZeroScale",
    ),
    "flags": (
        "Flag", "PrincipalRelation", "StandardFlagSet", "are_opposite",
        "decomposition_from_flags", "induced_flag", "principal_relation",
        "standard_flag_set",
    ),
    "leonard": (
        "Decomposition", "Kind", "LeonardPair", "eigenvalue_sequence",
        "standard_decompositions", "verify_leonard",
    ),
    "linalg": (
        "ExactMatrix", "Rational", "Subspace", "kernel", "rank", "represent_in_basis",
        "simple_rational_eigen", "subspace_intersection", "subspace_sum",
    ),
    "sequences": ("SequenceClass", "SequenceTag", "check_three_term_ratio", "classify_sequence"),
    "sl2": (
        "ChevalleyBasis", "KrawtchoukNormalForm", "KrawtchoukParameters", "PtlReport",
        "Sl2Element", "affine_transform", "check_ptl", "chevalley_from_basis", "companions",
        "construct_six", "decompose_sl2", "krawtchouk_normal_form", "krawtchouk_pair", "lift",
        "matrix_with_eigenpairs", "standard_generators", "three_mutually_adjacent",
    ),
    "split": (
        "BidiagonalShape", "SplitType", "bidiagonal_shape", "split_type",
        "split_type_via_flags",
    ),
}


def test_public_names_are_unchanged():
    names = [name for names in EXPORTS.values() for name in names]
    assert len(names) == 78
    assert sorted(leonard_kit.__all__) == sorted([*names, "__version__"])
    assert leonard_kit.__version__ == "0.1.0"
    listed = dir(leonard_kit)
    for module, names in EXPORTS.items():
        for name in names:
            assert getattr(leonard_kit, name) is getattr(getattr(leonard_kit, module), name)
            assert name in listed
    star: dict = {}
    exec("from leonard_kit import *", star)
    assert set(leonard_kit.__all__) <= set(star)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        leonard_kit.no_such_name
    assert not hasattr(leonard_kit, "as_fraction")


def test_scalars_keep_their_linalg_import_path():
    from leonard_kit import _scalar
    from leonard_kit.linalg import (
        ONE,
        ZERO,
        Rational,
        Scalar,
        Vector,
        as_fraction,
        as_vector,
    )

    moved = (ONE, ZERO, Rational, Scalar, Vector, as_fraction, as_vector)
    names = ("ONE", "ZERO", "Rational", "Scalar", "Vector", "as_fraction", "as_vector")
    assert all(value is getattr(_scalar, name) for value, name in zip(moved, names))
