import hashlib
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadchar import arith
from quadchar.gcdsum import (
    GcdSet,
    construct_extremal_set,
    gcd_sum,
    gcd_sum_reference,
    load_gcd_set,
    save_gcd_set,
)


def brute_force_gcd_sum(members) -> float:
    total = 0.0
    for m in members:
        for n in members:
            g = math.gcd(m, n)
            total += g / math.sqrt(m * n)
    return total


def random_squarefree_set(rng: random.Random, size: int, bound: int = 10**6) -> GcdSet:
    picked = set()
    while len(picked) < size:
        c = rng.randrange(1, bound)
        if arith.is_squarefree(c):
            picked.add(c)
    return GcdSet(tuple(sorted(picked)))


def test_gcd_sum_pinned():
    assert gcd_sum(GcdSet((1,))) == 1.0
    assert gcd_sum(GcdSet((2, 3))) == pytest.approx(2 + 2 / math.sqrt(6), rel=1e-14)
    assert gcd_sum(GcdSet((2, 6))) == pytest.approx(2 + 2 / math.sqrt(3), rel=1e-14)


def test_gcd_sum_matches_brute_force():
    rng = random.Random(11)
    for _ in range(25):
        ms = random_squarefree_set(rng, 20)
        assert gcd_sum(ms) == pytest.approx(brute_force_gcd_sum(ms.members), rel=1e-10)


SMALL_PRIMES = arith.primes_up_to(47)  # the 15 smallest primes
PRIME_POOL = arith.primes_up_to(1 << 16)
FIRST_15_PRODUCT = math.prod(SMALL_PRIMES)  # 614889782588491410 < 2^63


def _product_below_2_63(primes) -> int:
    m = 1
    for p in primes:
        if m * p < 1 << 63:
            m *= p
    return m


_members = st.one_of(
    st.lists(st.sampled_from(SMALL_PRIMES), max_size=15, unique=True),
    st.lists(
        st.one_of(st.sampled_from(SMALL_PRIMES), st.sampled_from(PRIME_POOL)),
        max_size=15,
        unique=True,
    ),
).map(_product_below_2_63)
_sets = st.one_of(
    st.lists(_members, min_size=1, max_size=25),
    st.lists(st.sampled_from(PRIME_POOL), min_size=1, max_size=25),
    st.lists(_members, max_size=24).map(lambda ms: [1, *ms]),
)


@settings(max_examples=300, deadline=None)
@given(_sets)
@example([1])
@example([1, 2, 3, 5, 6, 30])
@example([FIRST_15_PRODUCT, FIRST_15_PRODUCT // 2, 2, 1])
@example(PRIME_POOL[-25:])
def test_gcd_sum_matches_brute_force_differential(values):
    ms = GcdSet.from_iterable(values)
    assert gcd_sum(ms) == pytest.approx(brute_force_gcd_sum(ms.members), rel=1e-12)


def test_gcd_sum_at_least_diagonal():
    rng = random.Random(5)
    for size in (1, 4, 33):
        ms = random_squarefree_set(rng, size)
        assert gcd_sum(ms) >= size


def test_gcdset_validation():
    with pytest.raises(ValueError):
        GcdSet(())
    with pytest.raises(ValueError):
        GcdSet((4, 5))  # 4 not squarefree
    with pytest.raises(ValueError):
        GcdSet((3, 3))
    with pytest.raises(ValueError):
        GcdSet((5, 3))  # not ascending
    ms = GcdSet.from_iterable([15, 2, 2, 7])
    assert ms.members == (2, 7, 15)
    assert ms.N == 3
    assert ms.y_M == 7


def test_gcdset_factorizes_each_member_once(monkeypatch):
    calls = []
    real = arith.factorize
    monkeypatch.setattr(arith, "factorize", lambda n: calls.append(n) or real(n))
    ms = GcdSet((1, 6, 35, 143))
    assert calls == [1, 6, 35, 143]
    assert ms.y_M == 13
    assert GcdSet((1,)).y_M == 1
    with pytest.raises(ValueError, match="member 12 is not squarefree"):
        GcdSet((1, 12, 13))


def test_construct_extremal_pinned_small():
    assert construct_extremal_set(1).members == (2,)
    assert construct_extremal_set(3).members == (2, 3, 5)


# sha256 of repr(members) + "\n" for N = 1..300, 2000, 3000, pinned from the
# pairwise O(N^2) kernel: the pilot sums pick k, so a change in how gcd_sum
# rounds must not move the sets.
EXTREMAL_MEMBERS_SHA256 = "f98aa4b8532c13e3344357600d2c5c27cb22d2dbf815ac17ba68c8380616d86e"


def test_construct_extremal_members_pinned():
    h = hashlib.sha256()
    for N in [*range(1, 301), 2000, 3000]:
        h.update(repr(construct_extremal_set(N).members).encode() + b"\n")
    assert h.hexdigest() == EXTREMAL_MEMBERS_SHA256


def test_construct_extremal_properties():
    N = 200
    a = construct_extremal_set(N)
    assert a == construct_extremal_set(N)  # deterministic
    assert a.N == N
    for m in a.members:
        assert arith.squarefree_decompose(m).n1 == 1
    rng = random.Random(17)
    score = gcd_sum(a)
    for _ in range(5):
        assert score > gcd_sum(random_squarefree_set(rng, N))


def test_scaling_by_coprime_prime_preserves_gcd_sum():
    base = construct_extremal_set(64)
    c = next(p for p in arith.primes_up_to(10**4) if p > base.y_M)
    scaled = GcdSet(tuple(c * m for m in base.members))
    assert gcd_sum(scaled) == pytest.approx(gcd_sum(base), rel=1e-11)


def test_reference_curve():
    l1 = math.log(1000)
    l2 = math.log(l1)
    l3 = math.log(l2)
    assert gcd_sum_reference(1000) == pytest.approx(
        1000 * math.exp(2 * math.sqrt(l1 * l3 / l2)), rel=1e-14
    )
    assert gcd_sum_reference(1000) == pytest.approx(2.15e4, rel=2e-2)
    grid = [gcd_sum_reference(N) for N in (16, 32, 100, 1000, 10**5)]
    assert grid == sorted(grid)
    with pytest.raises(ValueError):
        gcd_sum_reference(15)


def test_set_file_roundtrip(tmp_path):
    ms = construct_extremal_set(37)
    path = tmp_path / "set.txt"
    save_gcd_set(ms, path)
    assert load_gcd_set(path) == ms
