import json
import math
from itertools import combinations

import pytest

from quadchar import arith, gcdsum, resonance
from quadchar.charsums import EmptyWindowError
from quadchar.resonance import (
    LongResonator,
    MediumResonator,
    ShortResonator,
    build_resonator,
    lemma_dd_ratio,
    moment_ratio,
    resonator_value,
    short_chain_bound,
    short_weight_budget,
    squarefree_support,
)


def toy_short(primes=(2, 3), a=0.5, y=3.9) -> ShortResonator:
    return ShortResonator(X=100.0, x=10.0, alpha=0.1, delta=0.05, y=y, primes=primes, a_p=a)


# ----------------------------------------------------------------- builds ---


def test_build_short_worked_example():
    spec = build_resonator("short", 1e8, 100.0, alpha=0.01, delta=0.01)
    l1 = math.log(1e8)
    l2 = math.log(l1)
    l3 = math.log(l2)
    l2x = math.log(math.log(100.0))
    y_expected = 0.24 * l1 * l2 / max(l2x - l3, l3)
    a_expected = 1.0 - math.log(y_expected) / (math.log(100.0) * l2**1.01)
    assert spec.y == pytest.approx(y_expected, rel=1e-12)
    assert spec.y == pytest.approx(12.045, abs=5e-3)
    assert spec.primes == (2, 3, 5, 7, 11)
    assert spec.a_p == pytest.approx(a_expected, rel=1e-12)
    assert spec.a_p == pytest.approx(0.8165, abs=5e-4)


def test_build_medium_degenerate_at_desk_scale():
    spec = build_resonator("medium", 1e4, 3.0)
    assert spec.primes == ()
    assert spec.support == ((1, 1.0),)
    for d in (10007 - 6, 10009, 10012):
        if arith.is_fundamental(d):
            assert resonator_value(spec, d) == 1.0


def test_build_long_worked_example():
    spec = build_resonator("long", 1e6, 10.0, delta=0.01)
    assert spec.N == 87
    assert spec.M.N == 87
    assert all(arith.is_squarefree(m) for m in spec.members)


def test_build_parameter_domain():
    with pytest.raises(ValueError):
        build_resonator("short", 10.0, 50.0)
    with pytest.raises(ValueError):
        build_resonator("short", 1e4, 1.5)
    with pytest.raises(ValueError):
        build_resonator("short", 1e4, 50.0, alpha=0.3)
    with pytest.raises(ValueError):
        build_resonator("short", 1e4, 50.0, alpha=0.01, delta=0.02)  # needs delta <= alpha
    with pytest.raises(ValueError):
        build_resonator("long", 16.0, 100.0)  # empty set
    with pytest.raises(ValueError):
        build_resonator("exotic", 1e4, 50.0)


def test_short_coefficient_validation():
    with pytest.raises(ValueError):
        ShortResonator(X=100.0, x=10.0, alpha=0.1, delta=0.05, y=3.9, primes=(2, 3), a_p=1.0)
    with pytest.raises(ValueError):
        ShortResonator(X=100.0, x=10.0, alpha=0.1, delta=0.05, y=3.9, primes=(2, 3), a_p=-0.2)
    # no primes -> coefficient is irrelevant
    ShortResonator(X=100.0, x=10.0, alpha=0.1, delta=0.05, y=1.0, primes=(), a_p=7.0)


# ----------------------------------------------------------------- values ---


def test_resonator_value_pinned():
    # chi_5(2) = chi_5(3) = -1, so both factors are (1 + 1/2)^-1
    assert resonator_value(toy_short(), 5) == pytest.approx(4 / 9, rel=1e-14)
    assert resonator_value(toy_short(a=0.0), 5) == 1.0
    assert resonator_value(toy_short(a=1e-9), 5) == pytest.approx(1.0, abs=1e-8)
    m1 = MediumResonator(
        X=100.0, x=5.0, delta=0.01, y=1.0, lam=None, prime_lo=math.inf,
        prime_hi=-math.inf, primes=(), support=((1, 1.0),),
    )
    assert resonator_value(m1, -3) == 1.0
    unit = LongResonator(X=100.0, x=5.0, delta=0.01, N=1, M=gcdsum.GcdSet((1,)))
    assert resonator_value(unit, -3) == 1.0


def test_long_resonator_is_plain_character_sum_over_set():
    mset = gcdsum.GcdSet((2, 3, 10, 21))
    spec = LongResonator(X=500.0, x=5.0, delta=0.01, N=4, M=mset)
    for d in arith.enumerate_fundamental(500, 600):
        want = sum(arith.kronecker(d, m) for m in mset.members)
        assert resonator_value(spec, d) == want


def test_support_enumeration_matches_product_expansion():
    lam = 4.0
    primes = (5, 7, 11)
    rvals = [lam / (math.sqrt(p) * math.log(p)) for p in primes]
    for cap in (30.0, 80.0, 500.0):
        support = squarefree_support(primes, rvals, cap)
        expected = {}
        for k in range(4):
            for combo in combinations(range(3), k):
                n = math.prod(primes[i] for i in combo)
                if n <= cap:
                    expected[n] = math.prod(rvals[i] for i in combo)
        assert dict(support) == expected
        assert [n for n, _ in support] == sorted(n for n, _ in support)


def test_medium_value_matches_explicit_expansion():
    lam = 4.0
    primes = (5, 7)
    rvals = [lam / (math.sqrt(p) * math.log(p)) for p in primes]
    y = 40.0
    spec = MediumResonator(
        X=3000.0, x=10.0, delta=0.01, y=y, lam=lam, prime_lo=5.0, prime_hi=7.0,
        primes=primes, support=squarefree_support(primes, rvals, y),
    )
    for d in arith.enumerate_fundamental(3000, 3100):
        chi5 = arith.kronecker(d, 5)
        chi7 = arith.kronecker(d, 7)
        expanded = 1.0 + rvals[0] * chi5 + rvals[1] * chi7 + rvals[0] * rvals[1] * chi5 * chi7
        assert resonator_value(spec, d) == pytest.approx(expanded, rel=1e-13)


# ---------------------------------------------------------- moment ratios ---


def test_moment_ratio_matches_naive_double_loop():
    spec = build_resonator("short", 1000.0, 10.0, alpha=0.01, delta=0.005)
    rep = moment_ratio(spec, squared=False)
    m1 = m2 = 0.0
    best = -math.inf
    ds = arith.enumerate_fundamental(1000, 2000, include_unit=False)
    for d in ds:
        r = 1.0
        for p in spec.primes:
            r /= 1.0 - spec.a_p * arith.kronecker(d, p)
        s = sum(arith.kronecker(d, n) for n in range(1, 11))
        m1 += r * r
        m2 += s * r * r
        best = max(best, float(s))
    assert rep.discriminants_scanned == len(ds)
    assert rep.M1 == pytest.approx(m1, rel=1e-12)
    assert rep.M2 == pytest.approx(m2, rel=1e-12)
    assert rep.observed_max == best
    assert rep.ratio == pytest.approx(m2 / m1, rel=1e-12)


def test_trivial_weight_gives_window_mean():
    spec = build_resonator("medium", 3000.0, 15.0)
    assert not spec.primes
    rep = moment_ratio(spec, squared=False)
    ds = arith.enumerate_fundamental(3000, 6000, include_unit=False)
    mean = math.fsum(sum(arith.kronecker(d, n) for n in range(1, 16)) for d in ds) / len(ds)
    assert rep.ratio == pytest.approx(mean, rel=1e-12)
    assert rep.inequality_holds


def test_squared_mode_uses_squares():
    spec = build_resonator("long", 2000.0, 4.0, delta=0.01)
    plain = moment_ratio(spec, squared=False)
    squared = moment_ratio(spec, squared=True)
    ds = arith.enumerate_fundamental(2000, 4000, include_unit=False)
    best = max(sum(arith.kronecker(d, n) for n in range(1, 5)) for d in ds)
    best_sq = max(sum(arith.kronecker(d, n) for n in range(1, 5)) ** 2 for d in ds)
    assert plain.observed_max == best
    assert squared.observed_max == best_sq
    assert squared.inequality_holds


def test_moment_ratio_thread_agreement(tmp_path, capsys):
    # moment_ratio has no thread parameter; --threads is checked through the CLI.
    from quadchar import cli

    payloads = []
    for t in ("1", "3", "8"):
        path = tmp_path / f"t{t}.json"
        assert cli.main([
            "resonate", "--variant", "short", "--X", "4000", "--x", "30",
            "--alpha", "0.02", "--delta", "0.01", "--squared",
            "--threads", t, "--json", str(path),
        ]) == 0
        payloads.append(path.read_bytes())
    capsys.readouterr()
    assert payloads[1] == payloads[0] and payloads[2] == payloads[0]
    spec = build_resonator("short", 4000.0, 30.0, alpha=0.02, delta=0.01)
    rep = moment_ratio(spec, squared=True)
    base = json.loads(payloads[0])
    assert base["observed_max"] == rep.observed_max
    assert base["M1"] == pytest.approx(rep.M1, rel=1e-9)
    assert base["M2"] == pytest.approx(rep.M2, rel=1e-9)
    assert base["ratio"] == pytest.approx(rep.ratio, rel=1e-9)


def test_moment_ratio_empty_window():
    spec = ShortResonator(X=2.0, x=5.0, alpha=0.1, delta=0.05, y=1.0, primes=(), a_p=0.0)
    with pytest.raises(EmptyWindowError):
        moment_ratio(spec)  # (2, 4] holds no fundamental discriminant


def test_short_resonator_weight_ceiling():
    spec = build_resonator("short", 5000.0, 40.0, alpha=0.01, delta=0.005)
    ceiling = (1.0 - spec.a_p) ** -len(spec.primes)
    for d in arith.enumerate_fundamental(5000, 10000)[::53]:
        assert resonator_value(spec, d) <= ceiling * (1 + 1e-12)
    budget, cap = short_weight_budget(spec)
    assert budget == pytest.approx(ceiling**2, rel=1e-12)
    assert cap == pytest.approx(5000.0**0.49, rel=1e-12)


# -------------------------------------------------------------- chain sums ---


def test_short_chain_bound_hand_enumeration():
    # k in {1, 2, 3, 4, 6}: 1 + a*(2/3) + a*(3/4) + a^2*(2/3) + a^2*(1/2)
    rep = short_chain_bound(toy_short(), 6)
    expected = 1.0 + 0.5 * (2 / 3) + 0.5 * 0.75 + 0.25 * (2 / 3) + 0.25 * 0.5
    assert rep.bound == pytest.approx(expected, rel=1e-12)
    assert rep.coefficient_sum == pytest.approx(1.0 + 0.5 + 0.5 + 0.25 + 0.25, rel=1e-12)
    assert rep.psi == 5
    assert rep.coefficient_sum >= rep.bound


def test_short_chain_bound_degenerate():
    empty = ShortResonator(X=100.0, x=10.0, alpha=0.1, delta=0.05, y=1.5, primes=(), a_p=0.0)
    rep = short_chain_bound(empty, 10)
    assert rep.bound == 1.0 and rep.coefficient_sum == 1.0 and rep.psi == 1


def test_short_chain_bound_consistency_with_psi():
    spec = build_resonator("short", 10000.0, 50.0, alpha=0.01, delta=0.005)
    rep = short_chain_bound(spec, spec.x)
    assert rep.psi == arith.psi_count(spec.x, spec.y)
    assert rep.coefficient_sum >= rep.bound
    with pytest.raises(TypeError):
        short_chain_bound(build_resonator("medium", 1000.0, 2.0), 10)


# --------------------------------------------------------------- dd ratio ---


def test_lemma_dd_degenerate_window_is_floor_n():
    assert lemma_dd_ratio(2.0, 37.0) == 37.0
    assert lemma_dd_ratio(2.0, 37.9) == 37.0
    assert lemma_dd_ratio(100.0, 50.0) == 50.0  # window [2.65, 2.59] holds no prime


def test_lemma_dd_diagonal_lower_bound():
    for Y, N in [(100.0, 100.0), (1000.0, 100.0), (10000.0, 1000.0), (5000.0, 333.0)]:
        assert lemma_dd_ratio(Y, N) >= math.floor(N), (Y, N)


def test_lemma_dd_matches_quadruple_loop():
    Y, N = 10000.0, 60
    got = lemma_dd_ratio(Y, N)
    lam = math.sqrt(math.log(Y) * math.log(math.log(Y)))
    hi = math.exp(math.log(lam) ** 2)
    primes = [p for p in arith.primes_up_to(math.floor(hi)) if p >= lam]
    assert primes == [5, 7]
    rv = {p: lam / (math.sqrt(p) * math.log(p)) for p in primes}
    support = [(1, 1.0), (5, rv[5]), (7, rv[7]), (35, rv[5] * rv[7])]
    num = den = 0.0
    for a, ra in support:
        den += ra * ra
        for b, rb in support:
            hits = sum(
                1
                for mm in range(1, N + 1)
                for nn in range(1, N + 1)
                if a * nn == b * mm
            )
            num += ra * rb * hits
    assert got == pytest.approx(num / den, rel=1e-12)


def test_lemma_dd_window_floor_override():
    lam = math.sqrt(math.log(1e4) * math.log(math.log(1e4)))
    assert lemma_dd_ratio(1e4, 100.0, window_floor=lam * lam) == 100.0
    assert lemma_dd_ratio(1e4, 100.0) > 100.0


@pytest.mark.parametrize("budget, ok", [(16, True), (15, False)])
def test_lemma_dd_pair_budget_boundary(budget, ok, monkeypatch):
    # Y = 1e4 has the support {1, 5, 7, 35}: 16 pairs.
    monkeypatch.setattr(resonance, "DD_PAIR_BUDGET", budget)
    if ok:
        assert lemma_dd_ratio(1e4, 100.0) > 100.0
    else:
        with pytest.raises(ValueError, match="pair budget"):
            lemma_dd_ratio(1e4, 100.0)


def test_lemma_dd_validation():
    with pytest.raises(ValueError):
        lemma_dd_ratio(0.5, 10)
    with pytest.raises(ValueError):
        lemma_dd_ratio(10, 0.5)
