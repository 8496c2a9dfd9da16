import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadchar import arith
from quadchar.arith import char_table
from quadchar.meanvalues import (
    mean_value_main_term,
    mean_value_report,
    mean_value_sum,
    mean_value_window_sum,
)


def naive_mean_value_sum(n: int, X: int) -> int:
    """Oracle: direct Kronecker loop over an explicit discriminant list."""
    return sum(arith.kronecker(d, n) for d in arith.enumerate_fundamental(-X - 1, X))


def test_mean_value_sum_pinned():
    # |d| <= 20 has positives 1,5,8,12,13,17 and negatives -3,-4,-7,-8,-11,-15,-19,-20
    assert mean_value_sum(1, 20) == 14
    assert mean_value_sum(7, 2.5) == 1  # only d = 1 inside [-2, 2]
    assert mean_value_sum(3, 1) == 1


def test_mean_value_sum_matches_naive_oracle():
    for n in range(1, 13):
        for X in (1, 7, 64, 500, 2000):
            assert mean_value_sum(n, X) == naive_mean_value_sum(n, X), (n, X)


def test_numerator_periodicity_mod_8n():
    # The lookup-table fast path rests on chi_d(n) depending on d mod 8n only.
    for n in range(1, 26):
        period = 8 * n
        for d in arith.enumerate_fundamental(-301, 300):
            assert arith.kronecker(d, n) == arith.kronecker(d % period, n), (d, n)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=1000))
@example(1)
@example(2)
@example(8)
@example(9)
@example(72)
@example(2 * 3 * 5 * 7 * 11)
def test_char_table_matches_kronecker(n):
    table = char_table(n)
    odd = math.prod(p for p, _ in arith.factorize(n) if p > 2)
    assert len(table) == (8 if n % 2 == 0 else 1) * odd
    assert table == [arith.kronecker(r, n) for r in range(len(table))]


# Even n, squares, n with p^2 | n, and n = 1; X ranges below and above the
# table period P, and windows may span zero.
_mean_value_n = st.one_of(
    st.integers(min_value=1, max_value=400),
    st.integers(min_value=1, max_value=30).map(lambda k: k * k),
    st.builds(lambda p, m: p * p * m, st.sampled_from((2, 3, 5, 7, 11)), st.integers(1, 40)),
    st.integers(min_value=0, max_value=10).map(lambda k: 2**k),
)


@settings(max_examples=200, deadline=None)
@given(_mean_value_n, st.integers(min_value=1, max_value=1500))
@example(1, 1)
@example(2, 3)
@example(4, 1500)
@example(997, 20)
def test_mean_value_sum_matches_kronecker_oracle(n, X):
    assert mean_value_sum(n, X) == naive_mean_value_sum(n, X)


@settings(max_examples=100, deadline=None)
@given(_mean_value_n, st.integers(min_value=-1500, max_value=1500),
       st.integers(min_value=1, max_value=1500), st.booleans())
def test_window_sum_matches_kronecker_oracle(n, lo, width, include_unit):
    ds = arith.enumerate_fundamental(lo, lo + width, include_unit)
    want = sum(arith.kronecker(d, n) for d in ds)
    assert mean_value_window_sum(n, lo, lo + width, include_unit) == want


def test_main_term_values():
    X = 10**6
    assert mean_value_main_term(2, X) == 0.0
    assert mean_value_main_term(1, X) == pytest.approx(X * 6 / math.pi**2, rel=1e-14)
    assert mean_value_main_term(4, X) == pytest.approx((X * 6 / math.pi**2) * (2 / 3), rel=1e-14)
    assert mean_value_main_term(9, 20) == pytest.approx((20 * 6 / math.pi**2) * 0.75, rel=1e-14)
    # depends only on the radical of square n
    assert mean_value_main_term(4, X) == mean_value_main_term(16, X)
    assert mean_value_main_term(36, X) == mean_value_main_term(1296, X)


def test_window_additivity():
    X, split = 4000, 977
    for n in (1, 2, 4, 9, 12):
        total = mean_value_sum(n, X)
        head = mean_value_sum(n, split)
        tail = sum(
            arith.kronecker(d, n)
            for d in arith.enumerate_fundamental(-X - 1, X)
            if abs(d) > split
        )
        assert total == head + tail, n


def test_window_sum():
    for n in (1, 3, 4):
        ds = arith.enumerate_fundamental(100, 300)
        assert mean_value_window_sum(n, 100, 300) == sum(arith.kronecker(d, n) for d in ds)
    assert mean_value_window_sum(2, 2, 4) == 0  # empty window


def test_report_fields():
    rep = mean_value_report(4, 10**4)
    assert rep.exact_sum == mean_value_sum(4, 10**4)
    assert rep.residual == rep.exact_sum - rep.main_term
    assert rep.main_term == pytest.approx(4 * 10**4 / math.pi**2, rel=1e-12)
    # square case envelope: X^(1/2) * tau(sqrt(n))
    assert rep.unconditional_envelope == pytest.approx(100.0 * 2, rel=1e-12)
    f, g = arith.error_factors(4, 0.05)
    assert rep.grh_envelope == pytest.approx((10**4) ** 0.55 * f * g, rel=1e-12)

    rep2 = mean_value_report(2, 10**4)
    assert rep2.main_term == 0.0
    assert rep2.unconditional_envelope == pytest.approx(
        100.0 * 2**0.25 * math.log(2), rel=1e-12
    )
    assert rep2.grh_envelope > 0


def test_nonsquare_cancellation_moderate():
    X = 10**5
    for n in (2, 3, 5, 6):
        assert abs(mean_value_sum(n, X)) <= X**0.6, n


def test_validation():
    with pytest.raises(ValueError):
        mean_value_sum(0, 100)
    with pytest.raises(ValueError):
        mean_value_sum(4, 0.5)
    with pytest.raises(ValueError):
        mean_value_main_term(-1, 100)
