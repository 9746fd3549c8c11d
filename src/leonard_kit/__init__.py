"""Exact-arithmetic toolkit for Leonard pairs.

Recognizes Leonard pairs over the rationals, computes their standard
decompositions, flags, and split structure, decides adjacency by two
independent routes, and constructs triples of mutually adjacent pairs
from sl2 data, all as machine-checkable exact identities.
"""

from .adjacency import (
    AdjacencyLabeling,
    DichotomyResult,
    IdentityCheck,
    are_adjacent,
    are_adjacent_via_flags,
    build_labeling,
    check_mutually_adjacent,
    classify_dichotomy,
    verify_transition_identity,
)
from .errors import (
    AmbientMismatch,
    DecompositionNotStandard,
    DegenerateDimension,
    DependentVectors,
    DichotomyViolation,
    DimensionMismatch,
    InvalidP,
    LeonardKitError,
    NotADecomposition,
    NotAdjacent,
    NotArithmetic,
    NotKrawtchouk,
    NotOpposite,
    NotSimpleRationalSpectrum,
    NotTraceless,
    NotTridiagonalizable,
    RepeatedEntry,
    SingularBasis,
    TheoremViolation,
    ZeroScale,
)
from .flags import (
    Flag,
    PrincipalRelation,
    StandardFlagSet,
    are_opposite,
    decomposition_from_flags,
    induced_flag,
    principal_relation,
    standard_flag_set,
)
from .leonard import (
    Decomposition,
    Kind,
    LeonardPair,
    eigenvalue_sequence,
    standard_decompositions,
    verify_leonard,
)
from .linalg import (
    ExactMatrix,
    Rational,
    Subspace,
    kernel,
    rank,
    represent_in_basis,
    simple_rational_eigen,
    subspace_intersection,
    subspace_sum,
)
from .sequences import (
    SequenceClass,
    SequenceTag,
    check_three_term_ratio,
    classify_sequence,
)
from .sl2 import (
    ChevalleyBasis,
    KrawtchoukNormalForm,
    KrawtchoukParameters,
    PtlReport,
    Sl2Element,
    affine_transform,
    check_ptl,
    chevalley_from_basis,
    companions,
    construct_six,
    decompose_sl2,
    krawtchouk_normal_form,
    krawtchouk_pair,
    lift,
    matrix_with_eigenpairs,
    standard_generators,
    three_mutually_adjacent,
)
from .split import (
    BidiagonalShape,
    SplitType,
    bidiagonal_shape,
    split_type,
    split_type_via_flags,
)

__version__ = "0.1.0"
