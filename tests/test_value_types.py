"""The immutable value types: construction, defaults, equality, hashing, repr and validation.

They are namedtuple subclasses; these tests pin the behaviour callers rely
on, which is that of the frozen dataclasses they replaced: keyword
construction with defaults, no attribute assignment, hashing by value,
equality only with the same type, and a ``Type(field=value, ...)`` repr.
"""

import math
from collections import namedtuple

import numpy as np
import pytest

from pkspecial import (
    AuditGrid,
    AuditReport,
    AuditSummary,
    BetaArgs,
    ConvergenceClass,
    ConvergenceKind,
    DomainError,
    EvalReal,
    GammaEval,
    HyperParams,
    IdentityRecord,
    LowerPoleError,
    Method,
    PkParams,
    PochSpec,
    QuadratureSpec,
)
from pkspecial.audit import summarize

PK = PkParams(1.5, 0.75)

# type, the fields it must be built from, and the defaults of the others, in field order
TYPES = (
    (PkParams, {"p": 1.5, "k": 0.75}, {}),
    (EvalReal, {"value": 1.0, "abs_err": 1e-16}, {"method": Method.CLOSED}),
    (GammaEval, {"ln_value": 0.5, "sign": -1, "abs_err_ln": 1e-15, "method": Method.LIMIT}, {}),
    (BetaArgs, {"x": 2.5, "y": 1.25, "params": PK}, {}),
    (PochSpec, {"x": 2.5, "n": 4, "params": PK}, {}),
    (HyperParams, {"upper": ((1.0, 1.0, 1.0),), "lower": ((2.0, 1.0, 1.0),)}, {}),
    (ConvergenceClass, {"kind": ConvergenceKind.FINITE_RADIUS}, {"radius": None}),
    (QuadratureSpec, {}, {"abs_tol": 1e-12, "rel_tol": 1e-11, "max_refinements": 12}),
    (AuditReport, {"suite": "gamma", "grid": AuditGrid.small(), "records": [], "summaries": {}}, {}),
    (
        AuditSummary,
        {"count": 3, "skipped": 1, "max_rel_err_printed": 0.5, "max_rel_err_corrected": 1e-17,
         "printed_pass_rate": 0.0, "corrected_pass_rate": 1.0, "verdict": "corrected-only"},
        {},
    ),
    (
        IdentityRecord,
        {"identity_id": "2.2", "grid_point": {"p": 1.0, "x": 2.5}},
        {
            "lhs": None,
            "rhs_printed": None,
            "rhs_corrected": None,
            "rel_err_printed": None,
            "rel_err_corrected": None,
            "printed_pass": None,
            "corrected_pass": None,
            "skipped": False,
            "skip_reason": None,
        },
    ),
)
IDS = [cls.__name__ for cls, _, _ in TYPES]
# AuditReport holds a list and IdentityRecord a dict, so neither hashes
UNHASHABLE = (AuditReport, IdentityRecord)


@pytest.mark.parametrize("cls, required, defaults", TYPES, ids=IDS)
class TestSemantics:
    def test_keyword_construction_fills_defaults(self, cls, required, defaults):
        # the annotations that document the fields name them all, in order
        assert tuple(cls.__annotations__) == cls._fields == tuple({**required, **defaults})
        v = cls(**required)
        for name, expected in {**required, **defaults}.items():
            assert getattr(v, name) == expected
        assert v == cls(*{**required, **defaults}.values())

    def test_attributes_cannot_be_set(self, cls, required, defaults):
        v = cls(**required)
        first = next(iter({**required, **defaults}))
        with pytest.raises(AttributeError):
            setattr(v, first, getattr(v, first))
        with pytest.raises(AttributeError):
            v.extra = 1

    def test_equal_instances_hash_equal(self, cls, required, defaults):
        a, b = cls(**required), cls(**required)
        assert a == b and not a != b
        if cls in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b)
            assert len({a, b}) == 1

    def test_equal_only_to_the_same_type(self, cls, required, defaults):
        v = cls(**required)
        sub = type(cls.__name__, (cls,), {"__slots__": ()})(**required)
        for other in (sub, tuple(v)):
            assert tuple(other) == tuple(v)
            assert v != other and other != v
            assert not v == other and not other == v
        # a foreign namedtuple of the same fields, from the value's side
        fields = {**required, **defaults}
        assert v != namedtuple(cls.__name__, list(fields))(*fields.values())

    def test_repr_names_every_field(self, cls, required, defaults):
        v = cls(**required)
        fields = ", ".join(f"{name}={value!r}" for name, value in {**required, **defaults}.items())
        assert repr(v) == f"{cls.__name__}({fields})"


def test_types_of_equal_fields_differ():
    assert PkParams(1.5, 0.75) != ConvergenceClass(1.5, 0.75)


def test_conversions_at_construction():
    pk = PkParams(1, 2)
    assert type(pk.p) is float and type(pk.k) is float
    hp = HyperParams(upper=[[1, 2, 3]], lower=[(4, 5, 6)])
    assert hp.upper == ((1.0, 2.0, 3.0),) and hp.lower == ((4.0, 5.0, 6.0),)
    assert (hp.r, hp.q, hp.alphas, hp.betas) == (1, 1, (1 / 3,), (4 / 6,))


class _Count:
    """An integer type of its own, known to Python through __index__ alone."""

    def __index__(self):
        return 3


def test_numpy_scalars_are_accepted():
    for p, k in ((np.int64(2), np.float32(0.5)), (np.float64(2.0), np.int32(1)), (np.float32(2.0), np.uint8(1))):
        pk = PkParams(p, k)
        assert pk == PkParams(float(p), float(k))
        assert type(pk.p) is float and type(pk.k) is float
    assert PkParams(p=np.float32(0.1), k=1).p == float(np.float32(0.1))
    for n in (np.int64(3), np.uint8(3), np.int32(3), _Count()):
        spec = PochSpec(1.5, n, PK)
        assert spec == PochSpec(1.5, 3, PK) and type(spec.n) is int
    assert PochSpec(1.5, np.int64(0), PK).n == 0


def test_summarize_folds_one_identitys_records():
    evaluated = IdentityRecord("2.2", {}, rel_err_printed=0.5, rel_err_corrected=1e-17,
                               printed_pass=False, corrected_pass=True)
    skipped = IdentityRecord("2.2", {}, skipped=True, skip_reason="pole")
    s = summarize([evaluated, skipped])
    assert (s.count, s.skipped, s.printed_pass_rate, s.corrected_pass_rate) == (1, 1, 0.0, 1.0)
    assert (s.max_rel_err_printed, s.max_rel_err_corrected, s.verdict) == (0.5, 1e-17, "corrected-only")
    assert summarize([skipped, skipped]) == AuditSummary(0, 2, 0.0, 0.0, 1.0, 1.0, "skipped")


# each validation error, with its exact type and message
ERRORS = (
    (lambda: PkParams(-1, 2), DomainError, "p must be a positive finite real, got -1"),
    (lambda: PkParams(1, math.inf), DomainError, "k must be a positive finite real, got inf"),
    (lambda: PkParams("1", 2), DomainError, "p must be a positive finite real, got '1'"),
    (lambda: EvalReal(1.0, -1.0), DomainError, "abs_err must be finite and >= 0, got -1.0"),
    (lambda: EvalReal(1.0, math.nan), DomainError, "abs_err must be finite and >= 0, got nan"),
    (lambda: BetaArgs(0.0, 1.0, PK), DomainError, "x must be a positive finite real, got 0.0"),
    (lambda: BetaArgs(1.0, -2.0, PK), DomainError, "y must be a positive finite real, got -2.0"),
    (lambda: PochSpec(1.5, -1, PK), DomainError, "n must be a non-negative integer, got -1"),
    (lambda: PochSpec(1.5, 2.0, PK), DomainError, "n must be a non-negative integer, got 2.0"),
    (lambda: PochSpec(math.nan, 2, PK), DomainError, "x must be finite, got nan"),
    (lambda: HyperParams(((1.0, 1.0),), ()), DomainError,
     "each upper entry must be a triple, got (1.0, 1.0)"),
    (lambda: HyperParams([1.0], ()), DomainError, "each upper entry must be a triple, got 1.0"),
    (lambda: HyperParams((), [None]), DomainError, "each lower entry must be a triple, got None"),
    (lambda: HyperParams((), ((1.0, math.inf, 1.0),)), DomainError,
     "lower entries must be finite, got (1.0, inf, 1.0)"),
    (lambda: HyperParams(((1.0, 0.0, 1.0),), ()), DomainError,
     "upper scales must be positive, got (1.0, 0.0, 1.0)"),
    (lambda: HyperParams((), ((-2.0, 1.0, 1.0),)), LowerPoleError,
     "lower ratio b/s = -2.0 is a non-positive integer"),
    (lambda: QuadratureSpec(abs_tol=0.0), DomainError, "abs_tol and rel_tol must lie in (0, 1)"),
    (lambda: QuadratureSpec(rel_tol=2.0), DomainError, "abs_tol and rel_tol must lie in (0, 1)"),
    (lambda: QuadratureSpec(max_refinements=31), DomainError, "max_refinements must be in 1..30"),
    # a bool is an int to Python, but neither a positive real nor a factor count
    (lambda: PkParams(True, 2), DomainError, "p must be a positive finite real, got True"),
    (lambda: PkParams(1.5, True), DomainError, "k must be a positive finite real, got True"),
    (lambda: PochSpec(1.5, True, PK), DomainError, "n must be a non-negative integer, got True"),
    (lambda: PochSpec(1.5, False, PK), DomainError, "n must be a non-negative integer, got False"),
    # numpy's bool is no number, and a numpy scalar must still be a finite positive real or a count
    (lambda: PkParams(np.True_, 2), DomainError, "p must be a positive finite real, got np.True_"),
    (lambda: PkParams(1.5, np.float64(math.nan)), DomainError, "k must be a positive finite real, got np.float64(nan)"),
    (lambda: PkParams(np.float32(math.inf), 2), DomainError, "p must be a positive finite real, got np.float32(inf)"),
    (lambda: PkParams(np.int64(0), 2), DomainError, "p must be a positive finite real, got np.int64(0)"),
    (lambda: PkParams(1.5, 2j), DomainError, "k must be a positive finite real, got 2j"),
    (lambda: PkParams(math.nan, 2), DomainError, "p must be a positive finite real, got nan"),
    (lambda: PochSpec(1.5, np.False_, PK), DomainError, "n must be a non-negative integer, got np.False_"),
    (lambda: PochSpec(1.5, np.int64(-1), PK), DomainError, "n must be a non-negative integer, got np.int64(-1)"),
    (lambda: PochSpec(1.5, np.float64(2.0), PK), DomainError, "n must be a non-negative integer, got np.float64(2.0)"),
    (lambda: PochSpec(1.5, "2", PK), DomainError, "n must be a non-negative integer, got '2'"),
    # _replace builds through the same checks
    (lambda: PkParams(1.5, 0.75)._replace(k=0.0), DomainError, "k must be a positive finite real, got 0.0"),
    (lambda: QuadratureSpec()._replace(max_refinements=0), DomainError, "max_refinements must be in 1..30"),
)


@pytest.mark.parametrize("build, exc, message", ERRORS)
def test_validation_errors(build, exc, message):
    with pytest.raises(exc) as info:
        build()
    assert type(info.value) is exc
    assert str(info.value) == message


def test_an_int_past_the_double_range_is_no_finite_real():
    with pytest.raises(DomainError, match="^p must be a positive finite real, got 1000"):
        PkParams(10**400, 1)
    with pytest.raises(DomainError, match="^x must be finite, got 1000"):
        PochSpec(10**400, 2, PK)
