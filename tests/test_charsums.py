import math
import tracemalloc

import pytest

from quadchar import arith
from quadchar.charsums import (
    EmptyWindowError,
    char_sum,
    char_sum_prefix,
    delta_max,
    pv_baseline,
)


def naive_char_sum(d: int, x: float) -> int:
    """Direct term-by-term oracle, no multiplicative fill, no periodicity."""
    return sum(arith.kronecker(d, n) for n in range(1, math.floor(x) + 1))


def test_char_sum_pinned():
    assert char_sum(5, 3) == -1  # 1 + (5/2) + (5/3) = 1 - 1 - 1
    assert char_sum(8, 5) == -1  # 1 + 0 - 1 + 0 - 1
    assert char_sum(1, 7.9) == 7
    assert char_sum(5, 0.5) == 0
    assert char_sum(-4, 0) == 0


def test_char_sum_matches_naive_oracle():
    for d in (5, 8, 12, 13, -3, -4, -8, -20, 997, -1000003):
        assert arith.is_fundamental(d)
        for x in (1, 2, 3.5, 10, 37, 100, 256.9):
            assert char_sum(d, x) == naive_char_sum(d, x), (d, x)


def test_char_sum_beyond_one_period():
    # The folded fast path must agree with the plain sum across period ends.
    for d in (5, -3, 8, 13, -20):
        ad = abs(d)
        for x in (ad, ad + 1, 2 * ad, 3 * ad + 4, 10 * ad + 1):
            assert char_sum(d, x) == naive_char_sum(d, x), (d, x)


def test_char_sum_rejects_nonfundamental():
    with pytest.raises(ValueError):
        char_sum(9, 10)
    with pytest.raises(ValueError):
        char_sum(0, 10)


def test_char_sum_prefix_pinned():
    assert char_sum_prefix(5, 5).values == (1, 0, -1, 0, 0)
    assert char_sum_prefix(1, 4).values == (1, 2, 3, 4)
    profile = char_sum_prefix(13, 13)
    assert profile.cutoffs == tuple(range(1, 14))
    assert profile.values[-1] == 0  # full-period cancellation, d != 1


def test_char_sum_prefix_matches_char_sum():
    for d in (5, -8, 17, -20):
        profile = char_sum_prefix(d, 50)
        for cut, val in zip(profile.cutoffs, profile.values):
            assert char_sum(d, cut) == val


def test_full_period_cancellation_range():
    for d in arith.enumerate_fundamental(-301, 300):
        if d == 1:
            continue
        assert char_sum(d, abs(d)) == 0, d
        assert abs(char_sum(d, abs(d) // 2)) <= abs(d)


def test_delta_max_pinned_window():
    res = delta_max(10, 5)
    assert (res.d_star, res.s_star) == (13, 1)  # ties 13 vs 17 -> smaller d
    assert res.scanned == 3
    assert res.window_hi == 20.0


def test_delta_max_matches_naive_rescan():
    for X_lo, x in [(10, 5), (50, 9), (300, 21), (1000, 40)]:
        res = delta_max(X_lo, x)
        best = None
        for d in range(X_lo + 1, 2 * X_lo + 1):
            if not arith.is_fundamental(d):
                continue
            s = naive_char_sum(d, x)
            if best is None or s > best[1]:
                best = (d, s)
        assert (res.d_star, res.s_star) == best, (X_lo, x)


def test_delta_max_explicit_hi_and_unit():
    res = delta_max(0.5, 3, X_hi=8, include_unit=True)
    assert res.d_star == 1 and res.s_star == 3  # chi_1 sums to floor(x)
    res = delta_max(0.5, 3, X_hi=8, include_unit=False)
    assert res.d_star != 1


def test_delta_max_absolute_mode():
    signed = delta_max(200, 30)
    absres = delta_max(200, 30, absolute=True)
    ds = arith.enumerate_fundamental(200, 400, include_unit=False)
    best_abs = max(abs(naive_char_sum(d, 30)) for d in ds)
    assert abs(absres.s_star) == best_abs
    assert signed.s_star <= best_abs


def test_delta_max_empty_window():
    with pytest.raises(EmptyWindowError):
        delta_max(2, 5, X_hi=4)
    with pytest.raises(ValueError):
        delta_max(-3, 5)
    with pytest.raises(ValueError):
        delta_max(10, 0.5)
    with pytest.raises(ValueError, match=r"window \(10, 5\] is inverted or empty"):
        delta_max(10, 3, X_hi=5)
    with pytest.raises(EmptyWindowError):
        delta_max(0.5, 3, X_hi=1)  # only d = 1, and it is left out


def test_pv_baseline():
    assert pv_baseline(-3) == pytest.approx(math.sqrt(3) * math.log(3), rel=1e-14)
    assert pv_baseline(8) == pytest.approx(math.sqrt(8) * math.log(8), rel=1e-14)
    seq = [pv_baseline(d) for d in (5, 8, 12, 13, 17, 21)]
    assert seq == sorted(seq)
    with pytest.raises(ValueError):
        pv_baseline(1)


def test_char_sums_past_spf_budget_raise_before_allocating(monkeypatch):
    # Nothing sized by x may be built before the spf sieve refuses x.
    monkeypatch.setattr(arith, "SPF_SIEVE_BUDGET", 1000)
    monkeypatch.setattr(arith, "_spf_bound", -1)
    d, x = 200009, 200000
    for call in (char_sum, char_sum_prefix):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="sieve up to 200000 exceeds its budget of 1000"):
                call(d, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
