"""Self-check of the oracle at tiny sizes: sympy's kronecker_symbol and brute
force from the definitions.  Deterministic; no sampling.

    python3 perfbench/selfcheck.py     # prints problems, exits 1 if any
"""

import math
import sys
from itertools import combinations

import numpy as np

import oracle


def _brute_squarefree(m: int) -> bool:
    return all(m % (k * k) for k in range(2, math.isqrt(m) + 1))


def _brute_fundamental(d: int) -> bool:
    if d % 4 == 1:
        return _brute_squarefree(abs(d))
    return d % 4 == 0 and (d // 4) % 4 in (2, 3) and _brute_squarefree(abs(d // 4))


def _brute_largest_factor(n: int) -> int:
    primes = [p for p in range(2, n + 1) if all(p % q for q in range(2, math.isqrt(p) + 1))]
    return max((p for p in primes if n % p == 0), default=1)


def problems() -> list[str]:
    from sympy import kronecker_symbol

    errs = []
    fund = oracle.Fundamentals(400)
    ds = fund.window(-401, 400)
    want = [d for d in range(-400, 401) if d and _brute_fundamental(d)]
    if ds.tolist() != want:
        errs.append("fundamental discriminants in [-400, 400] differ from the definition")
    small = ds[np.abs(ds) <= 60]
    table = oracle.chi_table(small, 80)
    for i, d in enumerate(small.tolist()):
        for n in range(1, 81):
            if table[i, n] != int(kronecker_symbol(d, n)):
                errs.append(f"chi_{d}({n}) = {table[i, n]}, sympy {kronecker_symbol(d, n)}")
    for n in (1, 2, 8, 9, 12, 30, 49, 97, 360, 1001):
        got = oracle.chi_of(small, n).tolist()
        if got != [int(kronecker_symbol(d, n)) for d in small.tolist()]:
            errs.append(f"chi_d({n}) differs from sympy")
    sums = oracle.char_sums(small, 37.5)
    if sums.tolist() != [sum(int(kronecker_symbol(d, n)) for n in range(1, 38)) for d in small.tolist()]:
        errs.append("S_d(37.5) differs from sympy sums")
    sets = [
        [m for m in range(1, 61) if _brute_squarefree(m)],
        sorted(math.prod(c) for c in combinations((2, 3, 5, 7, 11, 13), 3)),
        [1, 6, 35, 143, 30030],
    ]
    for members in sets:
        brute = math.fsum(math.gcd(a, b) / math.sqrt(a * b) for a in members for b in members)
        got = oracle.gcd_sum(members)
        if abs(got - brute) > 1e-12 * brute:
            errs.append(f"gcd sum of {members[:4]}...: identity {got!r}, pairs {brute!r}")
    lpf = [_brute_largest_factor(n) for n in range(0, 201)]
    for x in (1, 2, 10, 97.5, 200):
        for y in (1, 2, 3, 5, 7.5, 19, 200):
            brute = sum(1 for n in range(1, math.floor(x) + 1) if lpf[n] <= y)
            if oracle.psi(x, y) != brute:
                errs.append(f"Psi({x}, {y}) = {oracle.psi(x, y)}, brute force {brute}")
    return errs


if __name__ == "__main__":
    errs = problems()
    for e in errs:
        print(e)
    print(f"oracle self-check: {'FAIL' if errs else 'ok'}")
    sys.exit(1 if errs else 0)
