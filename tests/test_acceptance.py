"""Acceptance gate: one test per criterion, each printing a pass/fail line
and enforcing its stated tolerance and time budget.

Criteria 1, 2, 5, 6, 7 and 8 run the shared checks of the `verify` suites
(the same checks `quadchar verify` runs); the others are stated here.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import contextlib
import io
import json
import math
import time
from itertools import accumulate

from quadchar import arith, cli, meanvalues, resonance, verify
from quadchar.verify import _PINNED_TRIPLES


def _report(num: int, name: str, ok: bool, detail: str, elapsed: float, budget: float | None):
    within = budget is None or elapsed < budget
    status = "PASS" if (ok and within) else "FAIL"
    budget_txt = "" if budget is None else f", {elapsed:.2f}s of {budget:.0f}s budget"
    print(f"[{status}] criterion {num:2d}: {name} ({detail}{budget_txt})")
    assert ok, f"criterion {num}: {name} failed: {detail}"
    assert within, f"criterion {num}: exceeded budget ({elapsed:.2f}s >= {budget}s)"


def _run_checks(num: int, checks, budget: float):
    t0 = time.perf_counter()
    results = [check() for check in checks]
    _report(num, "; ".join(r.name for r in results), all(r.passed for r in results),
            "; ".join(r.detail for r in results), time.perf_counter() - t0, budget)


def test_criterion_01_kronecker_euler_oracle():
    _run_checks(1, [verify._arith_euler_criterion], 5.0)


def test_criterion_02_full_period_cancellation():
    _run_checks(2, [verify._charsum_full_period], 10.0)


def test_criterion_03_mean_value_unit():
    t0 = time.perf_counter()
    got = meanvalues.mean_value_sum(1, 10**6)
    target = 10**6 * 6 / math.pi**2
    rel = abs(got - target) / target
    _report(3, "mean value at n=1 matches X/zeta(2) within 1%",
            rel < 0.01, f"sum={got}, target={target:.1f}, rel={rel:.2e}",
            time.perf_counter() - t0, 60.0)


def test_criterion_04_mean_value_square():
    t0 = time.perf_counter()
    got = meanvalues.mean_value_sum(4, 10**6)
    target = 4 * 10**6 / math.pi**2
    rel = abs(got - target) / target
    _report(4, "mean value at n=4 matches 4X/pi^2 within 2%",
            rel < 0.02, f"sum={got}, target={target:.1f}, rel={rel:.2e}",
            time.perf_counter() - t0, 60.0)


def test_criterion_05_nonsquare_cancellation():
    _run_checks(5, [verify._meanvalue_nonsquare_cancellation], 120.0)


def test_criterion_06_fundamental_inequality_20_configs():
    _run_checks(6, [verify._resonance_fundamental_inequality], 120.0)


def test_criterion_07_dd_ratio_diagonal_and_oracle():
    _run_checks(7, [verify._resonance_dd_diagonal, verify._resonance_dd_bruteforce], 60.0)


def test_criterion_08_gcd_sum_oracle_and_extremal():
    _run_checks(8, [verify._gcd_oracle_and_extremal], 60.0)


def test_criterion_09_psi_oracle():
    t0 = time.perf_counter()
    limit = 10**4
    spf = arith.smallest_prime_factors(limit)
    lpf = [0] * (limit + 1)
    lpf[1] = 1
    for n in range(2, limit + 1):
        p = spf[n]
        q = n // p
        lpf[n] = p if q == 1 else max(p, lpf[q])
    bad = 0
    for y in (2, 3, 5, 10, 100):
        cum = list(accumulate(int(p <= y) for p in lpf[1:]))
        for x in range(1, limit + 1):
            bad += arith.psi_count(x, y) != cum[x - 1]
    pinned_ok = arith.psi_count(100, 5) == 34
    _report(9, "psi_count equals direct enumeration (x<=1e4, 5 smoothness bounds)",
            bad == 0 and pinned_ok, f"{5 * limit} values, {bad} mismatches, psi(100,5)={arith.psi_count(100, 5)}",
            time.perf_counter() - t0, 10.0)


def test_criterion_10_smooth_chain_consistency():
    t0 = time.perf_counter()
    toy = resonance.ShortResonator(
        X=100.0, x=10.0, alpha=0.1, delta=0.05, y=3.9, primes=(2, 3), a_p=0.5
    )
    rep = resonance.short_chain_bound(toy, 6)
    hand = 1.0 + 0.5 * (2 / 3) + 0.5 * (3 / 4) + 0.25 * (2 / 3) + 0.25 * (1 / 2)
    hand_ok = abs(rep.bound - hand) <= 1e-12 * hand
    order_ok = True
    for variant, X, x, _squared in _PINNED_TRIPLES:
        if variant != "short":
            continue
        spec = resonance.build_resonator("short", X, x, alpha=0.01, delta=0.005)
        chain = resonance.short_chain_bound(spec, spec.x)
        order_ok = order_ok and chain.coefficient_sum >= chain.bound
    _report(10, "smooth chain: hand enumeration and sum ordering",
            hand_ok and order_ok, f"bound={rep.bound!r} vs hand={hand!r}",
            time.perf_counter() - t0, None)


def test_criterion_11_worker_determinism(tmp_path):
    t0 = time.perf_counter()
    commands = {
        "delta-max": ["delta-max", "--X", "3000", "--x", "40"],
        "resonate": ["resonate", "--variant", "short", "--X", "5000", "--x", "40",
                     "--alpha", "0.01", "--delta", "0.005"],
    }
    runs = {}
    for name, argv in commands.items():
        runs[name] = set()
        for t in ("1", "4", "8"):
            path = tmp_path / f"{name}-{t}.json"
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main([*argv, "--threads", t, "--json", str(path)]) == 0
            runs[name].add(path.read_bytes())
    scan = json.loads(min(runs["delta-max"]))
    moments = json.loads(min(runs["resonate"]))
    _report(11, "delta-max and resonate --json byte-identical across --threads 1/4/8",
            all(len(r) == 1 for r in runs.values()),
            f"d_star={scan['d_star']}, ratio={moments['ratio']:.6g}",
            time.perf_counter() - t0, None)
