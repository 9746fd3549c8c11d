"""Exact-arithmetic toolkit for Leonard pairs.

Recognizes Leonard pairs over the rationals, computes their standard
decompositions, flags, and split structure, decides adjacency by two
independent routes, and constructs triples of mutually adjacent pairs
from sl2 data, all as machine-checkable exact identities.

Importing the package runs none of its modules.  Every module but
``cli`` and ``jsonio``, which are imported as usual, is registered in
``sys.modules`` and bound on the package through
``importlib.util.LazyLoader``, and its code runs at the first access to
one of its attributes.  So a command runs only the modules it calls:
``classify-seq``, for one, never runs ``linalg``.  The names re-exported
here resolve through the module ``__getattr__`` (PEP 562), which loads
their module on first use.

Before Python 3.13 the lazy loader takes no lock: while one thread runs
a module on its first use, another thread that touches the same module
can find it half run and fail with ``AttributeError``.  The command line
is single-threaded; a threaded caller should load the modules it uses
first, for example with ``from leonard_kit import *``, which loads them
all.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# module -> the names the package re-exports from it
_EXPORTS = {
    "adjacency": (
        "AdjacencyLabeling",
        "DichotomyResult",
        "IdentityCheck",
        "are_adjacent",
        "are_adjacent_via_flags",
        "build_labeling",
        "check_mutually_adjacent",
        "classify_dichotomy",
        "verify_transition_identity",
    ),
    "errors": (
        "AmbientMismatch",
        "DecompositionNotStandard",
        "DegenerateDimension",
        "DependentVectors",
        "DichotomyViolation",
        "DimensionMismatch",
        "InvalidP",
        "LeonardKitError",
        "NotADecomposition",
        "NotAdjacent",
        "NotArithmetic",
        "NotKrawtchouk",
        "NotOpposite",
        "NotSimpleRationalSpectrum",
        "NotTraceless",
        "NotTridiagonalizable",
        "RepeatedEntry",
        "SingularBasis",
        "TheoremViolation",
        "ZeroScale",
    ),
    "flags": (
        "Flag",
        "PrincipalRelation",
        "StandardFlagSet",
        "are_opposite",
        "decomposition_from_flags",
        "induced_flag",
        "principal_relation",
        "standard_flag_set",
    ),
    "leonard": (
        "Decomposition",
        "Kind",
        "LeonardPair",
        "eigenvalue_sequence",
        "standard_decompositions",
        "verify_leonard",
    ),
    "linalg": (
        "ExactMatrix",
        "Subspace",
        "kernel",
        "rank",
        "represent_in_basis",
        "simple_rational_eigen",
        "subspace_intersection",
        "subspace_sum",
    ),
    "_scalar": ("Rational",),
    "sequences": (
        "SequenceClass",
        "SequenceTag",
        "check_three_term_ratio",
        "classify_sequence",
    ),
    "sl2": (
        "ChevalleyBasis",
        "KrawtchoukNormalForm",
        "KrawtchoukParameters",
        "PtlReport",
        "Sl2Element",
        "affine_transform",
        "check_ptl",
        "chevalley_from_basis",
        "companions",
        "construct_six",
        "decompose_sl2",
        "krawtchouk_normal_form",
        "krawtchouk_pair",
        "lift",
        "matrix_with_eigenpairs",
        "standard_generators",
        "three_mutually_adjacent",
    ),
    "split": (
        "BidiagonalShape",
        "SplitType",
        "bidiagonal_shape",
        "split_type",
        "split_type_via_flags",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_MODULE_OF, "__version__"])


def _register(name: str) -> None:
    """Put submodule ``name`` in sys.modules and on the package without
    running it; its code runs at the first access to an attribute."""
    fullname = f"{__name__}.{name}"
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    globals()[name] = module


# _EXPORTS names every module but _record, cli and jsonio
for _name in ("_record", *_EXPORTS):
    _register(_name)
del _name


def __getattr__(name: str):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(globals()[module], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
