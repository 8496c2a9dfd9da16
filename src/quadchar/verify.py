"""Pinned desk-scale invariant checks, one suite per module, runnable from
the CLI.  Every check is deterministic; randomized checks use fixed seeds.

The cross-checks here are independent re-derivations on purpose: dumb
double loops over the Kronecker symbol, quadruple loops for pair counts,
pure-Python gcd/lcm pair sums, and sieve walks that bypass trial division.
"""

import math
import random
from dataclasses import dataclass
from itertools import combinations

from . import arith, charsums, gcdsum, meanvalues, resonance

__all__ = ["CheckResult", "run_suite", "SUITES"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check(name, passed, detail="") -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), detail=detail)


def _fundamental_range(bound: int) -> list[int]:
    return arith.enumerate_fundamental(-bound - 1, bound)


# ----------------------------------------------------------------- arith ---


def _arith_euler_criterion() -> CheckResult:
    bad = checked = 0
    primes = [p for p in arith.primes_up_to(499) if p % 2 == 1]
    for d in _fundamental_range(500):
        for p in primes:
            if d % p == 0:
                continue
            want = pow(d, (p - 1) // 2, p)
            want = -1 if want == p - 1 else want
            bad += arith.kronecker(d, p) != want
            checked += 1
    return _check(
        "kronecker matches Euler's criterion (|d|<=500, p<500)",
        bad == 0,
        f"{checked} pairs, {bad} mismatches",
    )


def _arith_multiplicativity() -> CheckResult:
    bad = 0
    for d in _fundamental_range(200):
        row = [arith.kronecker(d, n) for n in range(0, 201)]
        prods = {}
        for m in range(1, 201):
            for n in range(m, 201):
                mn = m * n
                if mn not in prods:
                    prods[mn] = arith.kronecker(d, mn)
                if prods[mn] != row[m] * row[n]:
                    bad += 1
    return _check(
        "kronecker completely multiplicative (|d|<=200, m,n<=200)", bad == 0, f"{bad} failures"
    )


def _arith_zero_iff_gcd() -> CheckResult:
    bad = 0
    for d in _fundamental_range(300):
        for n in range(1, 501):
            if (arith.kronecker(d, n) == 0) != (math.gcd(d, n) > 1):
                bad += 1
    return _check("kronecker(d,n) = 0 iff gcd(d,n) > 1", bad == 0, f"{bad} failures")


def _arith_periodicity() -> CheckResult:
    bad = 0
    for d in _fundamental_range(200):
        ad = abs(d)
        for n in range(1, 2 * ad + 1):
            if arith.kronecker(d, n) != arith.kronecker(d, n + ad):
                bad += 1
    return _check("kronecker periodic in n with period |d|", bad == 0, f"{bad} failures")


def _arith_squarefree_roundtrip() -> CheckResult:
    limit = 10**6
    spf = arith.smallest_prime_factors(limit)
    sq = arith._squarefree_flags(limit)
    bad = 0
    for n in range(1, limit + 1):
        n0 = n1 = 1
        m = n
        while m > 1:
            p = spf[m]
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            if e & 1:
                n0 *= p
            n1 *= p ** (e // 2)
        if n0 * n1 * n1 != n or not sq[n0]:
            bad += 1
    sample_bad = 0
    rng = random.Random(20260810)
    sample = list(range(1, 3 * 10**4)) + [rng.randrange(1, limit + 1) for _ in range(2000)]
    for n in sample:
        dec = arith.squarefree_decompose(n)
        if dec.n0 * dec.n1 * dec.n1 != n or not arith.is_squarefree(dec.n0):
            sample_bad += 1
    ok = bad == 0 and sample_bad == 0
    return _check(
        "squarefree roundtrip n0*n1^2 = n for all n <= 1e6",
        ok,
        f"sieve walk {bad} bad, direct decompose {sample_bad} bad",
    )


def _arith_psi_monotone() -> CheckResult:
    xs = [1, 2, 5, 17, 100, 256, 999, 5000]
    ys = [1, 2, 3, 5, 11, 97, 6000]
    bad = 0
    for y in ys:
        prev = -1
        for x in xs:
            c = arith.psi_count(x, y)
            if c < prev or c != len(arith.enumerate_smooth(x, y)):
                bad += 1
            prev = c
    for x in xs:
        prev = -1
        for y in ys:
            c = arith.psi_count(x, y)
            if c < prev:
                bad += 1
            prev = c
    return _check("psi_count nondecreasing and equal to |enumerate_smooth|", bad == 0, f"{bad} failures")


def _arith_fundamental_density() -> CheckResult:
    X = 10**6
    pos, neg = arith.fundamental_flags(X)
    count = pos[: X + 1].count(1) + neg[: X + 1].count(1)
    target = X * 6.0 / math.pi**2
    rel = abs(count - target) / target
    members_ok = all(arith.is_fundamental(d) for d in arith.enumerate_fundamental(-50, 50))
    return _check(
        "fundamental density ~ 1/zeta(2) at X=1e6 (1%)",
        rel < 0.01 and members_ok,
        f"count={count}, X/zeta(2)={target:.1f}, rel={rel:.2e}",
    )


# -------------------------------------------------------------- charsums ---


def _charsum_full_period() -> CheckResult:
    ds = [d for d in _fundamental_range(2000) if d != 1]
    bad = [d for d in ds if charsums.char_sum(d, abs(d)) != 0]
    return _check(
        "full-period cancellation for 1 < |d| <= 2000",
        not bad,
        f"{len(ds)} discriminants, violations: {bad[:5]}",
    )


def _charsum_bound() -> CheckResult:
    # d = 1 carries the principal character, S_1(x) = floor(x); the |d| cap
    # rests on full-period cancellation and only applies to d != 1.
    bad = 0
    for d in _fundamental_range(300):
        if d == 1:
            continue
        profile = charsums.char_sum_prefix(d, 3 * abs(d) + 7)
        for cut, val in zip(profile.cutoffs, profile.values):
            if abs(val) > min(cut, abs(d)):
                bad += 1
    return _check("|S_d(x)| <= min(floor(x), |d|) for d != 1", bad == 0, f"{bad} failures")


def _charsum_delta_max_rescan() -> CheckResult:
    bad = []
    for X_lo, x in [(10, 5), (100, 17), (500, 50), (999, 30)]:
        res = charsums.delta_max(X_lo, x)
        best_d = best_s = None
        for d in range(X_lo + 1, 2 * X_lo + 1):
            if not arith.is_fundamental(d):
                continue
            s = sum(arith.kronecker(d, n) for n in range(1, x + 1))
            if best_s is None or s > best_s:
                best_d, best_s = d, s
        if (res.d_star, res.s_star) != (best_d, best_s):
            bad.append((X_lo, x))
    return _check("delta_max agrees with naive rescan (X <= 1e3)", not bad, f"bad windows: {bad}")


def _charsum_prefix_consistency() -> CheckResult:
    bad = 0
    for d in (5, 8, -3, -4, 12, -20, 997):
        profile = charsums.char_sum_prefix(d, 60)
        for cut in (1, 2, 3, 17, 59, 60):
            if charsums.char_sum(d, cut) != profile.values[cut - 1]:
                bad += 1
        if charsums.char_sum(d, 60.9) != profile.values[-1]:
            bad += 1
    return _check("char_sum equals char_sum_prefix tail", bad == 0, f"{bad} failures")


# ------------------------------------------------------------ meanvalues ---


def _meanvalue_radical_invariance() -> CheckResult:
    a = meanvalues.mean_value_main_term(4, 10**5)
    b = meanvalues.mean_value_main_term(16, 10**5)
    return _check("main term depends only on rad(n): n=4 vs n=16", a == b, f"{a} vs {b}")


def _meanvalue_nonsquare_cancellation() -> CheckResult:
    X = 10**6
    worst = 0.0
    for n in (2, 3, 5, 6):
        worst = max(worst, abs(meanvalues.mean_value_sum(n, X)))
    cap = X**0.6
    return _check(
        "nonsquare cancellation |sum| <= X^0.6 at X=1e6",
        worst <= cap,
        f"worst |sum|={worst}, cap={cap:.1f}",
    )


def _meanvalue_unit_count() -> CheckResult:
    X = 10**5
    pos, neg = arith.fundamental_flags(X)
    count = pos[: X + 1].count(1) + neg[: X + 1].count(1)
    ok = meanvalues.mean_value_sum(1, X) == count
    naive = sum(
        arith.kronecker(d, 1) for d in arith.enumerate_fundamental(-1001, 1000)
    )
    ok = ok and naive == meanvalues.mean_value_sum(1, 1000)
    return _check("mean_value_sum(1, X) counts F exactly", ok, f"count={count}")


def _meanvalue_additivity() -> CheckResult:
    bad = 0
    X, Xp = 5000, 1234
    for n in (1, 2, 4, 9, 12):
        total = meanvalues.mean_value_sum(n, X)
        head = meanvalues.mean_value_sum(n, Xp)
        tail = sum(
            arith.kronecker(d, n)
            for d in arith.enumerate_fundamental(-X - 1, X)
            if abs(d) > Xp
        )
        if total != head + tail:
            bad += 1
    return _check("window additivity of mean_value_sum", bad == 0, f"{bad} failures")


def _meanvalue_table_periodicity() -> CheckResult:
    bad = 0
    for n in range(1, 21):
        table = arith.char_table(n)
        for d in _fundamental_range(500):
            chi = arith.kronecker(d, n)
            if arith.kronecker(d % (8 * n), n) != chi or table[d % len(table)] != chi:
                bad += 1
    return _check(
        "chi_d(n) periodic in d mod 8n and read from the table mod P", bad == 0, f"{bad} failures"
    )


# ------------------------------------------------------------- resonance ---

_PINNED_TRIPLES = [
    ("short", 1000.0, 10.0, False),
    ("short", 1000.0, 25.0, True),
    ("short", 2000.0, 20.0, False),
    ("short", 2000.0, 60.0, True),
    ("short", 5000.0, 40.0, False),
    ("short", 5000.0, 100.0, True),
    ("short", 10000.0, 50.0, False),
    ("short", 10000.0, 100.0, True),
    ("medium", 1000.0, 2.0, False),
    ("medium", 1000.0, 3.0, True),
    ("medium", 5000.0, 2.0, False),
    ("medium", 5000.0, 3.0, True),
    ("medium", 10000.0, 2.0, True),
    ("medium", 10000.0, 3.0, False),
    ("long", 1000.0, 2.0, False),
    ("long", 1000.0, 5.0, True),
    ("long", 5000.0, 3.0, False),
    ("long", 10000.0, 2.0, True),
    ("long", 10000.0, 5.0, False),
    ("long", 10000.0, 10.0, True),
]


def pinned_ratio_reports() -> list[resonance.RatioReport]:
    """The 20 pinned (variant, X, x, squared) window scans used by the
    fundamental-inequality checks."""
    out = []
    for variant, X, x, squared in _PINNED_TRIPLES:
        spec = resonance.build_resonator(variant, X, x, alpha=0.01, delta=0.005)
        out.append(resonance.moment_ratio(spec, squared=squared))
    return out


def _resonance_fundamental_inequality() -> CheckResult:
    reports = pinned_ratio_reports()
    bad = [
        (r.spec.variant, r.X, r.x, r.squared)
        for r in reports
        if not (r.inequality_holds and r.observed_max >= r.ratio - resonance.TOL_REL * abs(r.ratio))
    ]
    covered = {(r.spec.variant, r.squared) for r in reports}
    every_pair = {(v, sq) for v in ("short", "medium", "long") for sq in (False, True)}
    ok = not bad and len(reports) == 20 and covered == every_pair
    return _check(
        "observed max >= M2/M1 on 20 pinned configurations",
        ok,
        f"{len(reports)} configs, {len(covered)} of 6 variant/mode pairs, violations: {bad}",
    )


def _resonance_short_log_bound() -> CheckResult:
    spec = resonance.build_resonator("short", 10000.0, 50.0, alpha=0.01, delta=0.005)
    ceiling = 1.0
    for _ in spec.primes:
        ceiling /= 1.0 - spec.a_p
    bad = 0
    for d in arith.enumerate_fundamental(10000, 20000)[::97]:
        if resonance.resonator_value(spec, d) > ceiling * (1 + 1e-12):
            bad += 1
    budget, cap = resonance.short_weight_budget(spec)
    return _check(
        "short R(d) <= prod(1-a_p)^-1",
        bad == 0,
        f"{bad} failures; weight budget {budget:.3e} vs X^(1/2-alpha)={cap:.3e} (report only)",
    )


def _resonance_medium_expansion() -> CheckResult:
    lam = 4.0
    primes = (5, 7, 11)
    rvals = [resonance._medium_rate(lam, p) for p in primes]
    y = 80.0
    support = resonance.squarefree_support(primes, rvals, y)
    # Explicit expansion of prod (1 + r(p) chi(p)) truncated to n <= y.
    terms = {}
    for k in range(len(primes) + 1):
        for combo in combinations(range(len(primes)), k):
            n = math.prod(primes[i] for i in combo)
            if n <= y:
                terms[n] = math.prod(rvals[i] for i in combo)
    ok = dict(support) == terms
    spec = resonance.MediumResonator(
        X=10000.0, x=10.0, delta=0.01, y=y, lam=lam, prime_lo=min(primes),
        prime_hi=max(primes), primes=primes, support=support,
    )
    for d in arith.enumerate_fundamental(10000, 10100):
        via_support = resonance.resonator_value(spec, d)
        via_product = sum(coeff * arith.kronecker(d, n) for n, coeff in sorted(terms.items()))
        if abs(via_support - via_product) > 1e-12 * max(1.0, abs(via_product)):
            ok = False
    return _check("medium support equals truncated product expansion", ok, f"{len(terms)} terms")


def _resonance_trivial_weight_mean() -> CheckResult:
    spec = resonance.build_resonator("medium", 2000.0, 20.0)
    rep = resonance.moment_ratio(spec, squared=False)
    ds = arith.enumerate_fundamental(2000, 4000, include_unit=False)
    mean = math.fsum(charsums.char_sum(d, 20.0) for d in ds) / len(ds)
    degenerate = not spec.primes  # desk-scale medium windows hold no prime
    ok = degenerate and abs(rep.ratio - mean) <= 1e-12 * max(1.0, abs(mean))
    return _check(
        "R == 1 moment ratio equals window mean of S_d(x)", ok, f"{rep.ratio} vs {mean}"
    )


def _resonance_dd_diagonal() -> CheckResult:
    bad = []
    for Y, N in [(100.0, 100.0), (1000.0, 100.0), (10000.0, 1000.0)]:
        v = resonance.lemma_dd_ratio(Y, N)
        if v < math.floor(N):
            bad.append((Y, N, v))
    return _check("lemma_dd_ratio >= floor(N)", not bad, f"violations: {bad}")


def _resonance_dd_bruteforce() -> CheckResult:
    Y, N = 100.0, 50
    got = resonance.lemma_dd_ratio(Y, N)
    # Re-derive the supported a, b independently, then count pairs literally.
    lam = math.sqrt(math.log(Y) * math.log(math.log(Y)))
    hi = math.exp(math.log(lam) ** 2)
    primes = [p for p in arith.primes_up_to(max(math.floor(min(hi, Y)), 2)) if p >= lam]
    support = resonance.squarefree_support(
        primes, [lam / (math.sqrt(p) * math.log(p)) for p in primes], Y
    )
    num = 0.0
    den = 0.0
    for a, ra in support:
        den += ra * ra
        for b, rb in support:
            hits = 0
            for mm in range(1, N + 1):
                for nn in range(1, N + 1):
                    if a * nn == b * mm:
                        hits += 1
            num += ra * rb * hits
    want = num / den
    ok = abs(got - want) <= 1e-8 * max(1.0, abs(want))
    return _check("lemma_dd_ratio matches quadruple-loop brute force", ok, f"{got} vs {want}")


def _resonance_scan_order() -> CheckResult:
    spec = resonance.build_resonator("short", 3000.0, 30.0, alpha=0.02, delta=0.01)
    rep = resonance.moment_ratio(spec, squared=False)
    ds = arith.enumerate_fundamental(3000, 6000, include_unit=False)
    rng = random.Random(17)
    rng.shuffle(ds)
    m1 = m2 = 0.0
    obs = -math.inf
    for d in ds:
        r = resonance.resonator_value(spec, d)
        s = charsums.char_sum(d, 30.0)
        m1 += r * r
        m2 += s * r * r
        obs = max(obs, float(s))
    ok = (
        abs(m1 - rep.M1) <= 1e-9 * abs(rep.M1)
        and abs(m2 - rep.M2) <= 1e-9 * max(1.0, abs(rep.M2))
        and obs == rep.observed_max
    )
    return _check("moment scan invariant under d ordering (1e-9)", ok, "")


# ------------------------------------------------------------------- gcd ---


def _random_squarefree_set(rng: random.Random, size: int) -> gcdsum.GcdSet:
    members = set()
    while len(members) < size:
        c = rng.randrange(1, 10**6)
        if arith.is_squarefree(c):
            members.add(c)
    return gcdsum.GcdSet(tuple(sorted(members)))


def _gcd_oracle_and_extremal() -> CheckResult:
    # One seeded stream: 100 sets of 20 for the double-loop oracle, then 20
    # sets of 1000 for the extremal set to beat.
    rng = random.Random(20260810)
    worst = 0.0
    for _ in range(100):
        ms = _random_squarefree_set(rng, 20)
        fast = gcdsum.gcd_sum(ms)
        slow = 0.0
        for m in ms.members:
            for n in ms.members:
                slow += math.gcd(m, n) / math.sqrt(m * n)
        worst = max(worst, abs(fast - slow) / abs(slow))
    N = 1000
    a = gcdsum.construct_extremal_set(N)
    ok = a == gcdsum.construct_extremal_set(N) and a.N == N
    ok = ok and all(arith.squarefree_decompose(m).n1 == 1 for m in a.members)
    base = gcdsum.gcd_sum(a)
    wins = sum(base > gcdsum.gcd_sum(_random_squarefree_set(rng, N)) for _ in range(20))
    return _check(
        "gcd_sum matches brute-force double loop (1e-10); extremal set at N=1000: "
        "squarefree, deterministic, beats 20 random sets",
        worst <= 1e-10 and ok and wins == 20,
        f"worst rel={worst:.2e}, gcd_sum={base:.2f}, wins={wins}/20",
    )


def _gcd_scaling_invariance() -> CheckResult:
    base = gcdsum.construct_extremal_set(64)
    c = next(p for p in arith.primes_up_to(10**5) if p > base.y_M)
    scaled = gcdsum.GcdSet(tuple(c * m for m in base.members))
    s0 = gcdsum.gcd_sum(base)
    s1 = gcdsum.gcd_sum(scaled)
    ok = abs(s0 - s1) <= 1e-10 * abs(s0)
    return _check(
        "gcd_sum invariant under coprime prime scaling", ok, f"{s0} vs {s1} (c={c})"
    )


def _gcd_reference_monotone() -> CheckResult:
    grid = [16, 20, 32, 64, 128, 1000, 10**4]
    vals = [gcdsum.gcd_sum_reference(N) for N in grid]
    ok = all(a < b for a, b in zip(vals, vals[1:]))
    return _check("reference curve increasing on N >= 16", ok, "")


SUITES = {
    "arith": [
        _arith_euler_criterion,
        _arith_multiplicativity,
        _arith_zero_iff_gcd,
        _arith_periodicity,
        _arith_squarefree_roundtrip,
        _arith_psi_monotone,
        _arith_fundamental_density,
    ],
    "charsum": [
        _charsum_full_period,
        _charsum_bound,
        _charsum_delta_max_rescan,
        _charsum_prefix_consistency,
    ],
    "meanvalue": [
        _meanvalue_radical_invariance,
        _meanvalue_nonsquare_cancellation,
        _meanvalue_unit_count,
        _meanvalue_additivity,
        _meanvalue_table_periodicity,
    ],
    "resonance": [
        _resonance_fundamental_inequality,
        _resonance_short_log_bound,
        _resonance_medium_expansion,
        _resonance_trivial_weight_mean,
        _resonance_dd_diagonal,
        _resonance_dd_bruteforce,
        _resonance_scan_order,
    ],
    "gcd": [
        _gcd_oracle_and_extremal,
        _gcd_scaling_invariance,
        _gcd_reference_monotone,
    ],
}


def run_suite(name: str) -> list[CheckResult]:
    """Run one named suite and return its check results."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; expected one of {sorted(SUITES)}")
    return [fn() for fn in SUITES[name]]
