import contextlib
import functools
import math
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadchar import arith
from quadchar.arith import (
    Discriminant,
    SmoothnessParams,
    divisor_count,
    enumerate_fundamental,
    enumerate_smooth,
    error_factors,
    factorize,
    is_fundamental,
    kronecker,
    largest_prime_factor,
    primes_up_to,
    psi_count,
    squarefree_decompose,
)


def euler_symbol(d: int, p: int) -> int:
    """Independent oracle: d^((p-1)/2) mod p for an odd prime p not dividing d."""
    r = pow(d, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def fundamentals(bound: int) -> list[int]:
    return enumerate_fundamental(-bound - 1, bound)


# ------------------------------------------------------------- kronecker ---


def test_kronecker_pinned_values():
    assert kronecker(5, 3) == -1  # Euler oracle: 5^1 = 2 = -1 mod 3
    assert kronecker(-4, 7) == -1  # Euler oracle: (-4)^3 = 6 = -1 mod 7
    assert kronecker(12, 3) == 0  # shared factor 3
    for d in (1, 5, -3, 8, -20, 997):
        assert kronecker(d, 1) == 1


def test_kronecker_edge_conventions():
    assert kronecker(1, 0) == 1
    assert kronecker(-1, 0) == 1
    assert kronecker(2, 0) == 0
    assert kronecker(0, 1) == 1
    assert kronecker(0, -1) == 1
    assert kronecker(0, 5) == 0
    # (d/2) by d mod 8: 0 even, +1 at 1,7, -1 at 3,5
    assert [kronecker(d, 2) for d in (1, 3, 5, 7, 8, 17)] == [1, -1, -1, 1, 0, 1]
    # bottom-argument sign: (d/-1) = sign of d
    assert kronecker(5, -1) == 1
    assert kronecker(-5, -1) == -1


def test_kronecker_euler_criterion_sweep():
    primes = [p for p in primes_up_to(150) if p % 2 == 1]
    for d in fundamentals(150):
        for p in primes:
            if d % p == 0:
                continue
            assert kronecker(d, p) == euler_symbol(d, p), (d, p)


def test_kronecker_completely_multiplicative_exhaustive():
    for d in fundamentals(200):
        row = [kronecker(d, n) for n in range(201)]
        seen: dict[int, int] = {}
        for m in range(1, 201):
            for n in range(m, 201):
                mn = m * n
                if mn not in seen:
                    seen[mn] = kronecker(d, mn)
                assert seen[mn] == row[m] * row[n], (d, m, n)


def test_kronecker_zero_iff_common_factor():
    for d in fundamentals(120):
        for n in range(1, 250):
            assert (kronecker(d, n) == 0) == (math.gcd(d, n) > 1), (d, n)


def test_kronecker_periodic_in_n():
    for d in fundamentals(150):
        ad = abs(d)
        for n in range(1, 2 * ad + 1):
            assert kronecker(d, n) == kronecker(d, n + ad), (d, n)


def test_kronecker_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    if not hasattr(sympy, "kronecker_symbol"):
        pytest.skip("sympy too old for kronecker_symbol")
    rng = random.Random(42)
    for _ in range(3000):
        a = rng.randrange(-400, 401)
        n = rng.randrange(-400, 401)
        assert kronecker(a, n) == sympy.kronecker_symbol(a, n), (a, n)


# --------------------------------------------------------- discriminants ---


def test_is_fundamental_pinned():
    assert is_fundamental(5)
    assert not is_fundamental(9)
    assert is_fundamental(12)  # 4*3 with 3 = 3 mod 4 squarefree
    assert is_fundamental(-3)
    assert is_fundamental(1)
    assert not is_fundamental(4)
    assert not is_fundamental(-5)  # -5 = 3 mod 4
    assert is_fundamental(-4) and is_fundamental(-8) and is_fundamental(8)
    with pytest.raises(ValueError):
        is_fundamental(0)


def test_enumerate_fundamental_windows():
    assert enumerate_fundamental(0, 20, True) == [1, 5, 8, 12, 13, 17]
    assert enumerate_fundamental(0, 20, False) == [5, 8, 12, 13, 17]
    assert enumerate_fundamental(2, 4, False) == []
    assert enumerate_fundamental(-9, -2) == [-8, -7, -4, -3]
    span = enumerate_fundamental(-21, 20)
    assert span == sorted(span)
    assert span == [d for d in range(-20, 21) if d != 0 and is_fundamental(d)]
    with pytest.raises(ValueError):
        enumerate_fundamental(5, 5)


def test_discriminant_type_rejects_nonfundamental():
    assert int(Discriminant(-4)) == -4
    with pytest.raises(ValueError):
        Discriminant(9)
    with pytest.raises(ValueError):
        Discriminant(0)


# ------------------------------------------------- multiplicative basics ---


def test_factorize_and_divisors():
    assert factorize(1) == []
    assert factorize(72) == [(2, 3), (3, 2)]
    assert factorize(997) == [(997, 1)]
    assert divisor_count(1) == 1
    assert divisor_count(6) == 4
    assert divisor_count(12) == 6
    assert largest_prime_factor(1) == 1
    assert largest_prime_factor(97) == 97
    assert largest_prime_factor(72) == 3


def test_squarefree_decompose_pinned():
    assert squarefree_decompose(72) == arith.SquarefreeDecomposition(2, 6)
    assert squarefree_decompose(1) == arith.SquarefreeDecomposition(1, 1)
    assert squarefree_decompose(10) == arith.SquarefreeDecomposition(10, 1)
    with pytest.raises(ValueError):
        squarefree_decompose(0)


def test_squarefree_roundtrip_exhaustive_and_sampled():
    for n in range(1, 20001):
        dec = squarefree_decompose(n)
        assert dec.n0 * dec.n1 * dec.n1 == n
        assert arith.is_squarefree(dec.n0)
        assert (dec.n0 == 1) == (math.isqrt(n) ** 2 == n)
    rng = random.Random(7)
    for _ in range(500):
        n = rng.randrange(1, 10**6 + 1)
        dec = squarefree_decompose(n)
        assert dec.n0 * dec.n1 * dec.n1 == n
        assert arith.is_squarefree(dec.n0)


# ------------------------------------------------------------ smoothness ---


def test_enumerate_smooth_pinned():
    assert enumerate_smooth(20, 3) == [1, 2, 3, 4, 6, 8, 9, 12, 16, 18]
    assert enumerate_smooth(10, 1) == [1]
    assert enumerate_smooth(5, 7) == [1, 2, 3, 4, 5]
    assert enumerate_smooth(1, 1) == [1]


def test_psi_count_matches_enumeration():
    for y in (1, 2, 3, 5, 10, 100):
        for x in (1, 2, 9.7, 64, 1000):
            smooth = enumerate_smooth(x, y)
            assert psi_count(x, y) == len(smooth)
            assert all(largest_prime_factor(n) <= y for n in smooth)
            assert smooth == sorted(smooth)
    assert psi_count(100, 5) == 34
    assert psi_count(10, 1) == 1
    assert psi_count(17.9, 100) == 17


def test_psi_count_monotone():
    grid_x = [1, 3, 10, 100, 450, 2000]
    grid_y = [1, 2, 4, 7, 50, 3000]
    for y in grid_y:
        vals = [psi_count(x, y) for x in grid_x]
        assert vals == sorted(vals)
    for x in grid_x:
        vals = [psi_count(x, y) for y in grid_y]
        assert vals == sorted(vals)


def test_smoothness_validation():
    with pytest.raises(ValueError):
        enumerate_smooth(0.5, 3)
    with pytest.raises(ValueError):
        psi_count(10, 0.9)
    with pytest.raises(ValueError):
        SmoothnessParams(0.2, 5)
    SmoothnessParams(1, 1)


# ---------------------------------------------------------- error factors ---


def test_error_factors_pinned():
    assert error_factors(1, 0.05) == (1.0, 1.0)
    f, g = error_factors(12, 0.05)
    assert f == pytest.approx(math.exp(math.log(3) ** 0.95), rel=1e-12)
    assert g == pytest.approx(1 + 2**-0.55, rel=1e-12)
    f4, g4 = error_factors(4, 0.05)
    assert f4 == 1.0
    assert g4 == pytest.approx(1 + 2**-0.55, rel=1e-12)
    assert all(v >= 1 for v in error_factors(987654, 0.2))
    with pytest.raises(ValueError):
        error_factors(12, 0.5)
    with pytest.raises(ValueError):
        error_factors(12, 0)


# ----------------------------------------------------------------- sieves ---


def test_primes_up_to():
    assert primes_up_to(1) == []
    assert primes_up_to(2) == [2]
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    ps = primes_up_to(10**4)
    assert len(ps) == 1229
    assert ps[-1] == 9973


def test_fundamental_density_at_1e5():
    X = 10**5
    pos, neg = arith.fundamental_flags(X)
    count = pos[: X + 1].count(1) + neg[: X + 1].count(1)
    target = X * 6 / math.pi**2
    assert abs(count - target) / target < 0.01


ORACLE_MAX = 3000
_SIEVE_STATE = (
    "_primes", "_prime_bound", "_spf", "_spf_bound", "_fund", "_fund_bound",
    "_MIN_SIEVE", "FUNDAMENTAL_SIEVE_BUDGET",
)


@contextlib.contextmanager
def exact_sieves():
    """Empty sieve caches that grow to exactly the bound asked for (2 at
    least); the shared caches and budgets are put back afterwards."""
    saved = {name: getattr(arith, name) for name in _SIEVE_STATE}
    arith._prime_bound = arith._spf_bound = arith._fund_bound = -1
    arith._MIN_SIEVE = 2
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(arith, name, value)


@functools.cache
def trial_division_spf() -> list[int]:
    """Smallest prime factor of 0..ORACLE_MAX by trial division (t[0] = 0, t[1] = 1)."""

    def spf(k):
        return next((p for p in range(2, math.isqrt(k) + 1) if k % p == 0), k)

    return [0, 1] + [spf(k) for k in range(2, ORACLE_MAX + 1)]


@functools.cache
def fundamental_oracle() -> tuple[list[int], list[int]]:
    """is_fundamental(v) and is_fundamental(-w) as 0/1 for 0..ORACLE_MAX."""
    pos = [0] + [int(is_fundamental(v)) for v in range(1, ORACLE_MAX + 1)]
    neg = [0] + [int(is_fundamental(-w)) for w in range(1, ORACLE_MAX + 1)]
    return pos, neg


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=2, max_value=ORACLE_MAX))
@example(2)
@example(4)
@example(ORACLE_MAX)
def test_sieves_match_trial_division(n):
    with exact_sieves():
        primes = primes_up_to(n)
        spf = list(arith.smallest_prime_factors(n))
        bounds = (arith._prime_bound, arith._spf_bound)
    want = trial_division_spf()[: n + 1]
    assert bounds == (n, n)
    assert primes == [k for k in range(2, n + 1) if want[k] == k]
    assert spf == want


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=2, max_value=ORACLE_MAX))
@example(2)
@example(16)
@example(ORACLE_MAX)
def test_fundamental_flags_match_is_fundamental(limit):
    with exact_sieves():
        pos, neg = (bytes(flags) for flags in arith.fundamental_flags(limit))
    want_pos, want_neg = fundamental_oracle()
    assert len(pos) == len(neg) == limit + 1
    assert list(pos) == want_pos[: limit + 1]
    assert list(neg) == want_neg[: limit + 1]


def test_sieve_growth_stops_at_budget():
    assert arith._grown_bound(10, 5000, 10**6, "test") == 10000
    assert arith._grown_bound(600, 500, 700, "test") == 700
    assert arith._grown_bound(5000, 500, 10**6, "test") == 5000
    with pytest.raises(ValueError, match="budget"):
        arith._grown_bound(701, 500, 700, "test")
    with exact_sieves():
        arith.FUNDAMENTAL_SIEVE_BUDGET = 1000
        arith.fundamental_flags(600)
        arith.fundamental_flags(700)  # doubling would ask for 1200
        assert arith._fund_bound == 1000
        with pytest.raises(ValueError, match="budget"):
            arith.fundamental_flags(1001)
        assert arith._fund_bound == 1000


def test_sieves_past_budget_raise_before_allocating():
    # Each request is one past its budget, so it must fail on the size check.
    for sieve, budget in (
        (arith.fundamental_flags, arith.FUNDAMENTAL_SIEVE_BUDGET),
        (arith.smallest_prime_factors, arith.SPF_SIEVE_BUDGET),
        (primes_up_to, arith.PRIME_SIEVE_BUDGET),
    ):
        with pytest.raises(ValueError, match="exceeds its budget"):
            sieve(budget + 1)


def test_fundamental_flags_keep_two_bytes_per_entry():
    # pos and neg stay, one byte each; the squarefree table they are cut
    # from is let go once they are built.
    n = 200_000
    with exact_sieves():
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            arith.fundamental_flags(n)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert arith._fund_bound == n
    assert kept < 2.5 * n
