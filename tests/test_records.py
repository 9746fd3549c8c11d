"""The records, matrices among them: frozen, equal and hashed by value,
with the field names, order and defaults of their public constructors,
and surviving pickle and deep copy."""

import copy
import importlib
import pickle
import pkgutil
from fractions import Fraction

import pytest

import leonard_kit
from leonard_kit import (
    ChevalleyBasis,
    Decomposition,
    DichotomyResult,
    ExactMatrix,
    Flag,
    IdentityCheck,
    InvalidP,
    KrawtchoukParameters,
    NotADecomposition,
    NotTraceless,
    SequenceClass,
    SequenceTag,
    Subspace,
    build_labeling,
    check_ptl,
    classify_dichotomy,
    classify_sequence,
    decompose_sl2,
    induced_flag,
    krawtchouk_normal_form,
    matrix_with_eigenpairs,
    principal_relation,
    standard_flag_set,
    verify_transition_identity,
)
from leonard_kit._record import Record

FIELDS = {
    "ExactMatrix": ("entries",),
    "AdjacencyLabeling": ("w", "x", "y", "z", "theta", "theta_star", "eta", "eta_star"),
    "IdentityCheck": ("holds", "cells", "first_failure"),
    "DichotomyResult": ("tag", "q"),
    "Flag": ("components",),
    "StandardFlagSet": ("a_flags", "a_star_flags"),
    "PrincipalRelation": ("blocks",),
    "Decomposition": ("components",),
    "LeonardPair": (
        "a",
        "a_star",
        "d",
        "a_standard_decompositions",
        "a_star_standard_decompositions",
        "eigenvalue_sequences",
        "dual_eigenvalue_sequences",
    ),
    "Subspace": ("ambient_dim", "basis"),
    "SequenceClass": ("tag", "alpha", "beta", "q"),
    "ChevalleyBasis": ("e", "f", "h"),
    "Sl2Element": ("alpha", "beta", "gamma"),
    "KrawtchoukParameters": ("d", "p"),
    "PtlReport": ("eigenvector_condition", "generation_condition", "chevalley_condition"),
    "KrawtchoukNormalForm": ("s", "p", "affine", "note"),
}


@pytest.fixture(scope="module")
def records(kraw, standard_triple):
    """One instance of every record, each built by the library."""
    pair = kraw(2, Fraction(1, 3))
    dec = pair.a_standard_decompositions[0]
    lab = build_labeling(*standard_triple(2)[:2])
    a = matrix_with_eigenpairs((1, 0), (0, 1))
    a_star = matrix_with_eigenpairs((1, 1), (1, -1))
    built = {
        "ExactMatrix": pair.a_star,
        "AdjacencyLabeling": lab,
        "IdentityCheck": verify_transition_identity(lab),
        "DichotomyResult": classify_dichotomy(lab),
        "Flag": induced_flag(dec),
        "StandardFlagSet": standard_flag_set(pair),
        "PrincipalRelation": principal_relation(pair),
        "Decomposition": dec,
        "LeonardPair": pair,
        "Subspace": dec.components[1],
        "SequenceClass": classify_sequence([1, 3, 7, 15]),
        "ChevalleyBasis": ChevalleyBasis.standard(),
        "Sl2Element": decompose_sl2(a_star, ChevalleyBasis.standard()),
        "KrawtchoukParameters": KrawtchoukParameters(2, "1/3"),
        "PtlReport": check_ptl(a, a_star),
        "KrawtchoukNormalForm": krawtchouk_normal_form(pair),
    }
    assert {type(r) for r in built.values()} == set(_record_classes())
    return built


def _record_classes():
    """Every ``Record`` subclass defined in the package, each of which
    must have its fields listed in ``FIELDS``."""
    for info in pkgutil.iter_modules(leonard_kit.__path__, "leonard_kit."):
        importlib.import_module(info.name)
    found, todo = {}, [Record]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if cls.__module__.startswith("leonard_kit."):
                found[cls.__name__] = cls
    assert set(found) == set(FIELDS), "every record type needs its fields listed"
    return found.values()


def _values(record):
    return tuple(getattr(record, name) for name in FIELDS[type(record).__name__])


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_field_copy_is_equal_with_equal_hash(records, name):
    record = records[name]
    cls, values = type(record), _values(record)
    for twin in (
        cls(*values),
        cls(**dict(zip(FIELDS[name], values))),
        copy.copy(record),
    ):
        assert twin is not record
        assert twin == record and not twin != record
        assert hash(twin) == hash(record)
    assert hash(record) == hash(values)
    assert record != values and values != record
    assert record not in {values: 0}
    lookalike = type("Lookalike", (Record,), {"__slots__": FIELDS[name]})(*values)
    assert lookalike != record and record != lookalike


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_fields_cannot_be_assigned_or_deleted(records, name):
    record = records[name]
    before = _values(record)
    for field in FIELDS[name] + ("extra",):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert all(now is then for now, then in zip(_values(record), before))


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_repr_names_every_field(records, name):
    record = records[name]
    body = ", ".join(f"{field}={getattr(record, field)!r}" for field in FIELDS[name])
    assert repr(record) == f"{name}({body})"


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_bad_fields_raise_type_error(records, name):
    record = records[name]
    cls, values = type(record), _values(record)
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values, unknown=None)
    with pytest.raises(TypeError):
        cls(*values, **{FIELDS[name][0]: values[0]})


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_pickle_and_deep_copy_keep_type_and_value(records, name):
    record = records[name]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        twin = pickle.loads(pickle.dumps(record, protocol))
        assert type(twin) is type(record) and twin == record and hash(twin) == hash(record)
    twin = copy.deepcopy(record)
    assert type(twin) is type(record) and twin == record and twin is not record


def test_verified_triple_survives_pickle_and_deep_copy(standard_triple):
    triple = standard_triple(3)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(triple, protocol)) == triple
    twin = copy.deepcopy(triple)
    assert twin == triple
    assert all(copied.a is not pair.a for copied, pair in zip(twin, triple))


def test_defaults():
    check = IdentityCheck(holds=True, cells=1)
    assert check.first_failure is None and check and check == IdentityCheck(True, 1, None)
    assert not IdentityCheck(False, 3, (2, 1))
    assert SequenceClass(SequenceTag.NEITHER).q is None
    assert SequenceClass(SequenceTag.NEITHER) == SequenceClass(SequenceTag.NEITHER, None, None, None)
    assert DichotomyResult(SequenceTag.ARITHMETIC).q is None


def test_validation_runs_however_fields_are_passed():
    params = KrawtchoukParameters(2, "1/3")
    assert params.p == Fraction(1, 3) and type(params.p) is Fraction
    assert params == KrawtchoukParameters(d=2, p=Fraction(1, 3))
    plane = Subspace.full(2)
    with pytest.raises(ValueError):
        Subspace(ambient_dim=2, basis=((2, 0),))
    with pytest.raises(ValueError):
        Flag(components=(plane,))
    with pytest.raises(NotADecomposition):
        Decomposition(components=(plane,))
    with pytest.raises(NotTraceless):
        ChevalleyBasis(e=ExactMatrix.identity(2), f=ExactMatrix.identity(2), h=ExactMatrix.identity(2))
    with pytest.raises(InvalidP):
        KrawtchoukParameters(d=2, p=1)
