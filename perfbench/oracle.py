"""Independent reference arithmetic for checking quadchar's outputs.

Nothing here imports quadchar.  Every quantity is rebuilt from its
definition with NumPy sieves:

- chi_d(p) for an odd prime p is the Legendre symbol, read from a table of
  quadratic residues mod p at d mod p; chi_d(2) is read from d mod 8; every
  other chi_d(n) follows by complete multiplicativity.
- Fundamental discriminants come from their definition over a squarefree
  sieve: d = 1 mod 4 squarefree, or d = 4m with m = 2, 3 mod 4 squarefree.
- GCD sums use sum_{m,n} gcd(m,n)/sqrt(mn) = sum_e phi(e) (sum_{e|m} m^-1/2)^2.
- Psi(x, y) counts n <= x whose largest prime factor (from a sieve) is <= y.
"""

import math
from functools import lru_cache

import numpy as np


def primes_upto(n: int) -> np.ndarray:
    """Primes p <= n, ascending (Eratosthenes)."""
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).astype(np.int64)


def smallest_factor_table(n: int) -> np.ndarray:
    """t[k] = smallest prime factor of k for 2 <= k <= n; t[0] = 0, t[1] = 1."""
    t = np.zeros(n + 1, dtype=np.int64)
    if n >= 1:
        t[1] = 1
    for p in primes_upto(n):
        sl = t[p :: p]
        sl[sl == 0] = p
    return t


def largest_factor_table(n: int) -> np.ndarray:
    """t[k] = largest prime factor of k for 2 <= k <= n; t[1] = 1."""
    t = np.zeros(n + 1, dtype=np.int64)
    if n >= 1:
        t[1] = 1
    for p in primes_upto(n):
        t[p :: p] = p  # ascending p, so the last write is the largest
    return t


def squarefree_upto(n: int) -> np.ndarray:
    """flags[k] = k is squarefree, for 0 <= k <= n (flags[0] = False)."""
    flags = np.ones(n + 1, dtype=bool)
    flags[0] = False
    for p in primes_upto(math.isqrt(n)):
        flags[p * p :: p * p] = False
    return flags


def factor(n: int) -> list[tuple[int, int]]:
    """(p, e) pairs of n >= 1 by trial division."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def is_squarefree(n: int) -> bool:
    return all(e == 1 for _, e in factor(n))


class Fundamentals:
    """Fundamental discriminants with |d| <= limit, from a squarefree sieve."""

    def __init__(self, limit: int):
        self.limit = int(limit)
        sq = squarefree_upto(self.limit)
        v = np.arange(self.limit + 1, dtype=np.int64)
        q = v // 4
        div4 = v % 4 == 0
        # d = v > 0: v = 1 mod 4 squarefree, or v = 4m with m = 2, 3 mod 4 squarefree.
        self.pos = ((v % 4 == 1) & sq) | (div4 & np.isin(q % 4, (2, 3)) & sq[q])
        # d = -v < 0: -v = 1 mod 4 means v = 3 mod 4; m = -q = 2, 3 mod 4 means q = 2, 1 mod 4.
        self.neg = ((v % 4 == 3) & sq) | (div4 & np.isin(q % 4, (1, 2)) & sq[q])
        self.pos[0] = self.neg[0] = False

    def window(self, lo: int, hi: int) -> np.ndarray:
        """Fundamental d with lo < d <= hi, ascending (d = 1 included)."""
        if max(-lo - 1, hi) > self.limit:
            raise ValueError(f"window ({lo}, {hi}] exceeds the sieve limit {self.limit}")
        parts = []
        if lo < -1:
            w = np.arange(max(1, -hi), -lo, dtype=np.int64)  # d = -w with lo < d <= min(hi, -1)
            parts.append(-w[self.neg[w]][::-1])
        if hi >= 1:
            v = np.arange(max(lo + 1, 1), hi + 1, dtype=np.int64)
            parts.append(v[self.pos[v]])
        return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)


@lru_cache(maxsize=None)
def _residue_table(p: int) -> np.ndarray:
    # Legendre symbol (r/p) for r = 0..p-1 from the squares mod p.
    t = np.full(p, -1, dtype=np.int8)
    t[0] = 0
    k = np.arange(1, p, dtype=np.int64)
    t[(k * k) % p] = 1
    return t


_MOD8 = np.array([0, 1, 0, -1, 0, -1, 0, 1], dtype=np.int8)


def chi_prime(ds: np.ndarray, p: int) -> np.ndarray:
    """chi_d(p) for every d in ds (int8)."""
    if p == 2:
        return _MOD8[ds % 8]
    return _residue_table(int(p))[ds % p]


def chi_table(ds: np.ndarray, m: int) -> np.ndarray:
    """Matrix c with c[i, n] = chi_{ds[i]}(n) for 0 <= n <= m (int8)."""
    c = np.zeros((len(ds), m + 1), dtype=np.int8)
    if m >= 1:
        c[:, 1] = 1
    spf = smallest_factor_table(m)
    for n in range(2, m + 1):
        p = int(spf[n])
        c[:, n] = chi_prime(ds, p) if p == n else c[:, p] * c[:, n // p]
    return c


def char_sums(ds: np.ndarray, x: float) -> np.ndarray:
    """S_d(x) = sum_{n <= x} chi_d(n) for every d in ds (int64)."""
    m = math.floor(x)
    if m < 1:
        return np.zeros(len(ds), dtype=np.int64)
    return chi_table(ds, m)[:, 1:].sum(axis=1, dtype=np.int64)


def chi_of(ds: np.ndarray, n: int) -> np.ndarray:
    """chi_d(n) for every d in ds, n >= 1 (int64)."""
    out = np.ones(len(ds), dtype=np.int64)
    for p, e in factor(n):
        out *= chi_prime(ds, p).astype(np.int64) ** e
    return out


def gcd_sum(members) -> float:
    """sum over ordered pairs of gcd(m,n)/sqrt(mn) for squarefree members,
    via the divisor identity sum_e phi(e) * (sum_{e|m} m^-1/2)^2."""
    cols: dict[int, list[float]] = {}
    phi: dict[int, int] = {}
    for m in members:
        w = 1.0 / math.sqrt(m)
        divisors = [(1, 1)]  # (e, phi(e)); e squarefree, so phi is a product of p - 1
        for p, _ in factor(m):
            divisors += [(e * p, f * (p - 1)) for e, f in divisors]
        for e, f in divisors:
            phi[e] = f
            cols.setdefault(e, []).append(w)
    terms = []
    for e, ws in cols.items():
        s = math.fsum(ws)
        terms.append(phi[e] * s * s)
    return math.fsum(terms)


def psi(x: float, y: float) -> int:
    """Psi(x, y) = #{1 <= n <= x : every prime factor of n is <= y}."""
    m = math.floor(x)
    if m < 1:
        return 0
    return int(np.count_nonzero(largest_factor_table(m)[1:] <= y))
