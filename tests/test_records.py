"""The record classes behave as frozen value objects: exact repr, equality and
hashing by fields, positional or keyword construction, no assignment, and
their validation messages."""

import math

import pytest

from quadchar.arith import Discriminant, SmoothnessParams, SquarefreeDecomposition
from quadchar.charsums import CharSumProfile, MaxSearchResult
from quadchar.gcdsum import GcdSet
from quadchar.meanvalues import MeanValueReport
from quadchar.resonance import (
    LongResonator,
    MediumResonator,
    RatioReport,
    ShortChainReport,
    ShortResonator,
)
from quadchar.verify import CheckResult

_SHORT = dict(X=1e4, x=20.0, alpha=0.01, delta=0.01, y=5.0, primes=(2, 3, 5), a_p=0.25)
_SHORT_REPR = (
    "ShortResonator(X=10000.0, x=20.0, alpha=0.01, delta=0.01, y=5.0, primes=(2, 3, 5), a_p=0.25)"
)

# (class, constructor arguments in field order, one argument changed, repr)
CASES = [
    (Discriminant, dict(value=-3), ("value", 5), "Discriminant(value=-3)"),
    (SquarefreeDecomposition, dict(n0=3, n1=2), ("n1", 1), "SquarefreeDecomposition(n0=3, n1=2)"),
    (SmoothnessParams, dict(x=100.0, y=5.0), ("y", 7.0), "SmoothnessParams(x=100.0, y=5.0)"),
    (
        CharSumProfile,
        dict(d=5, cutoffs=(1, 2, 3), values=(1, 0, -1)),
        ("values", (1, 0, 0)),
        "CharSumProfile(d=5, cutoffs=(1, 2, 3), values=(1, 0, -1))",
    ),
    (
        MaxSearchResult,
        dict(window_lo=10.0, window_hi=20.0, x=5.0, d_star=13, s_star=3, scanned=4,
             absolute=False),
        ("absolute", True),
        "MaxSearchResult(window_lo=10.0, window_hi=20.0, x=5.0, d_star=13, s_star=3, "
        "scanned=4, absolute=False)",
    ),
    (GcdSet, dict(members=(1, 6, 10)), ("members", (1, 6, 7)), "GcdSet(members=(1, 6, 10), y_M=5)"),
    (
        MeanValueReport,
        dict(n=4, X=1000.0, exact_sum=600, main_term=584.5, residual=15.5,
             unconditional_envelope=63.2, grh_envelope=70.1),
        ("exact_sum", 601),
        "MeanValueReport(n=4, X=1000.0, exact_sum=600, main_term=584.5, residual=15.5, "
        "unconditional_envelope=63.2, grh_envelope=70.1)",
    ),
    (ShortResonator, _SHORT, ("a_p", 0.5), _SHORT_REPR),
    (
        MediumResonator,
        dict(X=1e4, x=3.0, delta=0.01, y=20.0, lam=None, prime_lo=1.5, prime_hi=2.5,
             primes=(2,), support=((1, 1.0), (2, 0.5))),
        ("lam", 1.5),
        "MediumResonator(X=10000.0, x=3.0, delta=0.01, y=20.0, lam=None, prime_lo=1.5, "
        "prime_hi=2.5, primes=(2,), support=((1, 1.0), (2, 0.5)))",
    ),
    (
        LongResonator,
        dict(X=5e3, x=3.0, delta=0.01, N=2, M=GcdSet((1, 6))),
        ("M", GcdSet((1, 10))),
        "LongResonator(X=5000.0, x=3.0, delta=0.01, N=2, M=GcdSet(members=(1, 6), y_M=3))",
    ),
    (
        RatioReport,
        dict(spec=ShortResonator(**_SHORT), X=1e4, x=20.0, M1=2.5, M2=7.5, ratio=3.0,
             observed_max=9.0, squared=False, inequality_holds=True, discriminants_scanned=42),
        ("discriminants_scanned", 43),
        f"RatioReport(spec={_SHORT_REPR}, X=10000.0, x=20.0, M1=2.5, M2=7.5, ratio=3.0, "
        "observed_max=9.0, squared=False, inequality_holds=True, discriminants_scanned=42)",
    ),
    (
        ShortChainReport,
        dict(bound=1.5, coefficient_sum=2.0, psi=3),
        ("psi", 4),
        "ShortChainReport(bound=1.5, coefficient_sum=2.0, psi=3)",
    ),
    (
        CheckResult,
        dict(name="kronecker", passed=True, detail=""),
        ("passed", False),
        "CheckResult(name='kronecker', passed=True, detail='')",
    ),
]


@pytest.mark.parametrize("cls, kwargs, change, text", CASES, ids=[c[0].__name__ for c in CASES])
def test_record_behaves_as_a_frozen_value(cls, kwargs, change, text):
    obj = cls(**kwargs)
    assert repr(obj) == text
    same = cls(*kwargs.values())  # positional and keyword construction agree
    other = cls(**dict(kwargs, **dict([change])))
    assert obj == same and not obj != same
    assert obj != other and not obj == other
    assert hash(obj) == hash(same)
    assert obj.__eq__(object()) is NotImplemented and obj != text
    first = next(iter(kwargs))
    for name in (first, "y_M", "unknown"):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
    with pytest.raises(AttributeError):
        delattr(obj, first)
    assert repr(obj) == text
    with pytest.raises(TypeError):
        cls(**{k: v for k, v in kwargs.items() if k != first})  # missing argument
    with pytest.raises(TypeError):
        cls(**kwargs, unknown=1)
    with pytest.raises(TypeError):
        cls(*kwargs.values(), None)  # one positional argument too many


def test_record_defaults_and_derived_fields():
    res = MaxSearchResult(10.0, 20.0, 5.0, 13, 3, 4)
    assert res.absolute is False
    assert res == MaxSearchResult(10.0, 20.0, 5.0, 13, 3, 4, False)
    assert res.CSV_HEADER[-1] == "absolute" and ShortResonator.variant == "short"
    m = GcdSet([1, 6, 10])  # members are stored as a tuple
    assert m.members == (1, 6, 10) and m.y_M == 5
    with pytest.raises(TypeError):
        GcdSet((1, 6, 10), 5)  # y_M is derived, never passed
    assert GcdSet((1, 6)) != GcdSet((1, 6, 10))


@pytest.mark.parametrize("make, message", [
    (lambda: Discriminant(3), "3 is not a fundamental discriminant"),
    (lambda: SmoothnessParams(math.inf, 2), "need finite x and y, got (inf, 2)"),
    (lambda: GcdSet(()), "GcdSet needs at least one member"),
])
def test_record_validation_messages(make, message):
    with pytest.raises(ValueError) as err:
        make()
    assert str(err.value) == message
