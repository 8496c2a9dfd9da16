"""Differential tests of the big-int lane kernel (arith.lane_sums) and of the
window scans that read from it, against a brute-force kronecker loop."""

import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadchar import arith, resonance
from quadchar.charsums import EmptyWindowError, char_sum, delta_max
from quadchar.gcdsum import GcdSet
from quadchar.resonance import (
    LongResonator,
    MediumResonator,
    ShortResonator,
    build_resonator,
    moment_ratio,
    resonator_value,
    squarefree_support,
)

# Chunk sizes for arith.LANE_CHUNK_BUDGET: the default, and small ones that
# put chunk seams inside every window.
_chunks = st.sampled_from((arith.LANE_CHUNK_BUDGET, 2, 7, 64))


def brute_delta_max(lo, hi, x, absolute, include_unit=False) -> tuple[int, int, int]:
    """(d_star, S_star, scanned) by a kronecker loop; ties go to the smallest d."""
    ds = arith.enumerate_fundamental(lo, hi, include_unit)
    best = None
    for d in ds:
        s = sum(arith.kronecker(d, n) for n in range(1, math.floor(x) + 1))
        key = abs(s) if absolute else s
        if best is None or key > best[0]:
            best = (key, d, s)
    return best[1], best[2], len(ds)


class _Spy:
    """Wraps arith.lane_sums and counts its calls."""

    def __init__(self):
        self.calls = 0
        self._real = arith.lane_sums

    def __call__(self, *args):
        self.calls += 1
        return self._real(*args)


@settings(max_examples=60, deadline=None)
@given(st.integers(-400, 3000), st.integers(1, 200),
       st.lists(st.integers(1, 150), max_size=10), _chunks)
@example(0, 1, [], 7)
@example(5, 9, [3, 12], 1)
@example(-20, 40, [1, 2, 4, 8, 9, 36], 3)
def test_lane_sums_matches_kronecker(lo, width, ns, chunk):
    with mock.patch.object(arith, "LANE_CHUNK_BUDGET", chunk):
        lanes = arith.lane_sums(lo, lo + width, ns)
    assert len(lanes) == width
    for i in range(width):
        d = lo + 1 + i
        assert lanes[i] == sum(arith.kronecker(d, n) + 1 for n in ns), (d, ns)


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.integers(0, 60), st.integers(0, 2000)), st.integers(1, 250),
       st.integers(1, 60), st.booleans(), st.booleans(), _chunks)
@example(10, 10, 5, False, False, arith.LANE_CHUNK_BUDGET)  # S = 1 at d = 13 and 17
@example(200, 200, 30, True, False, 7)
@example(0, 8, 3, False, True, 2)  # d = 1 wins with S = 3
@example(3, 30, 40, True, True, 2)  # x > |d| on the per-d route
def test_delta_max_matches_kronecker(lo, width, x, absolute, include_unit, chunk):
    # Windows with floor(x) <= lo read the lanes; the others go per d.
    if not arith.enumerate_fundamental(lo, lo + width, include_unit):
        with pytest.raises(EmptyWindowError):
            delta_max(lo + 0.5, x, X_hi=lo + width, include_unit=include_unit)
        return
    spy = _Spy()
    with mock.patch.object(arith, "LANE_CHUNK_BUDGET", chunk), \
            mock.patch.object(arith, "lane_sums", spy):
        res = delta_max(lo + 0.5, x, X_hi=lo + width, absolute=absolute,
                        include_unit=include_unit)
    assert spy.calls == int(x <= lo)
    want = brute_delta_max(lo, lo + width, x, absolute, include_unit)
    assert (res.d_star, res.s_star, res.scanned) == want


@pytest.mark.parametrize("absolute", [False, True])
@pytest.mark.parametrize("X_lo", [30, 57.5, 211, 400.9])
@pytest.mark.parametrize("step, lanes", [(0, True), (1, False)])
def test_delta_max_path_seam(X_lo, step, lanes, absolute):
    # floor(x) == floor(X_lo) reads the lanes; floor(X_lo) + 1 goes per d.
    lo = math.floor(X_lo)
    x = lo + step + 0.5
    spy = _Spy()
    with mock.patch.object(arith, "lane_sums", spy):
        res = delta_max(X_lo, x, X_hi=lo + 120, absolute=absolute)
    assert spy.calls == int(lanes)
    assert (res.d_star, res.s_star, res.scanned) == brute_delta_max(lo, lo + 120, x, absolute)


@pytest.mark.parametrize("x, lanes", [(7.9, True), (8, False), (30, False)])
def test_delta_max_lane_width_route(x, lanes, monkeypatch):
    # With 8 lane terms allowed, floor(x) = 8 no longer fits a lane and takes
    # the per-d route; the kernel itself refuses 8 terms.
    monkeypatch.setattr(arith, "LANE_TERMS", 8)
    with pytest.raises(ValueError, match="16-bit lane limit"):
        arith.lane_sums(0, 10, range(1, 9))
    spy = _Spy()
    monkeypatch.setattr(arith, "lane_sums", spy)
    for absolute in (False, True):
        res = delta_max(300, x, X_hi=500, absolute=absolute)
        assert (res.d_star, res.s_star, res.scanned) == brute_delta_max(300, 500, x, absolute)
    assert spy.calls == 2 * lanes


def reference_moments(spec, squared):
    """(M1, M2, observed_max) from resonator_value and char_sum, one d at a time."""
    m1 = resonance._Neumaier()
    m2 = resonance._Neumaier()
    observed = -math.inf
    lo, hi = math.floor(spec.X), math.floor(2 * spec.X)
    for d in arith.enumerate_fundamental(lo, hi, include_unit=False):
        r = resonator_value(spec, d)
        w = r * r
        s = char_sum(d, spec.x)
        v = float(s * s) if squared else float(s)
        m1.add(w)
        m2.add(v * w)
        observed = max(observed, v)
    return m1.total(), m2.total(), observed


@settings(max_examples=20, deadline=None)
@given(st.integers(100, 3000), st.sampled_from((2, 3, 5, 8)), st.booleans(),
       st.sampled_from((arith.LANE_CHUNK_BUDGET, 97, 1000)))
@example(5000, 3, False, arith.LANE_CHUNK_BUDGET)
def test_long_moments_bit_identical_to_resonator_value(X, x, squared, chunk):
    spec = build_resonator("long", X, x)
    spy = _Spy()
    with mock.patch.object(arith, "LANE_CHUNK_BUDGET", chunk), \
            mock.patch.object(arith, "lane_sums", spy):
        rep = moment_ratio(spec, squared=squared)
    assert spy.calls == 2  # S_d(x) and R(d)
    assert (rep.M1, rep.M2, rep.observed_max) == reference_moments(spec, squared)


@pytest.mark.parametrize("variant, X, x", [
    ("short", 2000.0, 20.0), ("medium", 5000.0, 3.0), ("long", 5000.0, 3.0), ("long", 1e4, 5.0),
])
@pytest.mark.parametrize("squared", [False, True])
def test_moment_ratio_same_bits_on_every_route(variant, X, x, squared, monkeypatch):
    # S_d(x) from the lanes, then one d at a time; R(d) has one route per variant.
    m = math.floor(x)
    spec = build_resonator(variant, X, x)
    if variant == "long":
        # floor(x) - 1 members, so R(d) still fits the narrowed lanes below
        spec = replace(spec, N=m - 1, M=GcdSet(spec.members[: m - 1]))
    spy = _Spy()
    monkeypatch.setattr(arith, "lane_sums", spy)
    lanes = moment_ratio(spec, squared=squared)
    assert spy.calls == 1 + (variant == "long")
    monkeypatch.setattr(arith, "LANE_TERMS", m)  # floor(x) terms no longer fit a lane
    per_d = moment_ratio(spec, squared=squared)
    assert spy.calls == 1 + 2 * (variant == "long")
    assert lanes.to_json_dict() == per_d.to_json_dict()


@pytest.mark.parametrize("squared", [False, True])
def test_long_moments_with_x_past_the_window(squared):
    # floor(x) > floor(X): S_d(x) one d at a time, R(d) from the members' lanes.
    members = build_resonator("long", 5000.0, 3.0).members
    spec = LongResonator(X=400.0, x=600.0, delta=0.01, N=len(members), M=GcdSet(members))
    rep = moment_ratio(spec, squared=squared)
    assert (rep.M1, rep.M2, rep.observed_max) == reference_moments(spec, squared)


def test_long_members_past_the_lane_width_raise(monkeypatch):
    # No per-d route is left for R(d): N >= LANE_TERMS is refused by the kernel.
    spec = build_resonator("long", 5000.0, 3.0)
    want = moment_ratio(spec).to_json_dict()
    monkeypatch.setattr(arith, "LANE_TERMS", spec.N)
    with pytest.raises(ValueError, match="16-bit lane limit"):
        moment_ratio(spec)
    monkeypatch.setattr(arith, "LANE_TERMS", spec.N + 1)
    assert moment_ratio(spec).to_json_dict() == want


@pytest.mark.parametrize("X, x", [
    (2000.0, 20.0), (3000.0, 30.0),  # S_d(x) from the lanes
    (400.0, 600.0), (700.0, 1000.0),  # floor(x) > floor(X): S_d(x) one d at a time
])
@pytest.mark.parametrize("squared", [False, True])
def test_short_moments_bit_identical_to_resonator_value(X, x, squared):
    spec = build_resonator("short", X, x)
    assert spec.primes
    rep = moment_ratio(spec, squared=squared)
    assert (rep.M1, rep.M2, rep.observed_max) == reference_moments(spec, squared)


def test_short_moments_with_period_past_the_window():
    # 8*3*5*7*11*13 = 120120 residue classes against a window of 700; at
    # a_p = 0.55 another division order changes the bits of R(d).
    spec = ShortResonator(X=700.0, x=9.0, alpha=0.1, delta=0.05, y=13.0,
                          primes=(2, 3, 5, 7, 11, 13), a_p=0.55)
    for squared in (False, True):
        rep = moment_ratio(spec, squared=squared)
        assert (rep.M1, rep.M2, rep.observed_max) == reference_moments(spec, squared)


def _medium(X, x, primes, y, lam=4.0):
    """A medium spec on a hand-picked prime window; build_resonator leaves
    the window empty at every X the fundamental-flag budget allows."""
    rates = [lam / (math.sqrt(p) * math.log(p)) for p in primes]
    return MediumResonator(
        X=X, x=x, delta=0.01, y=y, lam=lam, prime_lo=min(primes), prime_hi=max(primes),
        primes=primes, support=squarefree_support(primes, rates, y),
    )


@pytest.mark.parametrize("spec", [
    _medium(3000.0, 10.0, (2, 3, 5, 7), 200.0),  # period 8*3*5*7 = 840 < window
    _medium(2000.0, 12.0, (5, 7, 11, 13, 17, 19), 5000.0),  # period 1616615 > window
    MediumResonator(X=40.0, x=60.0, delta=0.01, y=1.0, lam=None, prime_lo=math.inf,
                    prime_hi=-math.inf, primes=(), support=((1, 1.0),)),
], ids=["with-2", "period-past-window", "trivial-support"])
@pytest.mark.parametrize("squared", [False, True])
def test_medium_moments_bit_identical_to_resonator_value(spec, squared):
    assert len(spec.support) > 1 or not spec.primes
    rep = moment_ratio(spec, squared=squared)
    assert (rep.M1, rep.M2, rep.observed_max) == reference_moments(spec, squared)


@pytest.mark.parametrize("variant, X, x, squared", [
    ("short", 2e3, 20.0, False), ("long", 5e3, 3.0, False), ("medium", 5e3, 3.0, True),
])
def test_moment_ratio_kronecker_calls(variant, X, x, squared, monkeypatch):
    # Small versions of the benchmark's resonate requests: every S_d(x) comes
    # from the lanes, and a short or medium R(d) from resonator_value once per
    # residue class d mod P met, one kronecker call per term; a long R(d)
    # comes from the lanes.
    spec = build_resonator(variant, X, x)
    calls = []
    real = arith.kronecker
    monkeypatch.setattr(arith, "kronecker", lambda d, n: calls.append((d, n)) or real(d, n))
    moment_ratio(spec, squared=squared)
    if variant == "long":
        assert calls == []
        return
    terms = spec.primes if variant == "short" else [n for n, _ in spec.support]
    period = math.lcm(*(len(arith.char_table(n)) for n in terms))
    ds = arith.enumerate_fundamental(math.floor(X), math.floor(2 * X), include_unit=False)
    classes = {d % period for d in ds}
    assert len(calls) == len(classes) * len(terms)
    assert {k for k, _ in calls} == classes


@pytest.mark.parametrize("scan", ["moment_ratio", "delta_max"])
def test_scans_at_x_past_the_window_stay_small(scan):
    # x = 1e6 against a window of 500: nothing in a scan may be sized by x.
    X, x = 500.0, 1e6
    spec = ShortResonator(X=X, x=x, alpha=0.1, delta=0.05, y=7.0, primes=(2, 3, 5, 7), a_p=0.5)
    call = (lambda: moment_ratio(spec)) if scan == "moment_ratio" else (lambda: delta_max(X, x))
    call()  # sieves grown outside the measurement
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
