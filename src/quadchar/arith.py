"""Exact integer arithmetic shared by the whole package: Kronecker symbols,
fundamental discriminants, squarefree structure, smooth numbers, prime sieves,
and _record, the frozen-record decorator of every result class.

Everything returns exact integers except error_factors, which is binary64.
Each cached sieve (primes, smallest prime factors, fundamental flags) is held
once and grows by one rule, _grown_bound; callers treat it as read-only.
"""

import math
import sys
from array import array
from bisect import bisect_right
from functools import lru_cache
from itertools import chain, compress, islice

__all__ = [
    "Discriminant",
    "SquarefreeDecomposition",
    "SmoothnessParams",
    "kronecker",
    "is_fundamental",
    "enumerate_fundamental",
    "fundamental_flags",
    "char_table",
    "lane_sums",
    "is_squarefree",
    "squarefree_decompose",
    "largest_prime_factor",
    "divisor_count",
    "factorize",
    "primes_up_to",
    "smallest_prime_factors",
    "enumerate_smooth",
    "psi_count",
    "error_factors",
]

_MIN_SIEVE = 1 << 12

# The largest bound each cached sieve may grow to, one per kind.  A request
# past it raises ValueError before anything is allocated.  Peak memory at the
# budget: about 3 bytes per entry for the flags while they grow (squarefree,
# pos, neg) and 2 once grown, 1 byte plus the prime list for the prime sieve,
# 36 bytes per entry for the spf list.
PRIME_SIEVE_BUDGET = 10**8
SPF_SIEVE_BUDGET = 10**7
FUNDAMENTAL_SIEVE_BUDGET = 10**8
# The most entries a table of smooth numbers may hold, checked before each
# block of new entries is allocated.  Peak memory at the budget: about 50
# bytes per entry (int objects, the list and the returned tuple).
SMOOTH_TABLE_BUDGET = 10**7
# The largest period P a character table may have.  A larger one raises
# ValueError before the table is allocated.  Peak memory at the budget:
# about 24 bytes per entry (three lists of P references alive at once).
CHAR_TABLE_BUDGET = 10**7
# The most lanes lane_sums turns into one big int; a longer window is cut into
# chunks of this many lanes.  Peak memory: about 8 bytes per lane of a chunk
# (the repeated row, its int, the running total and the new total), on top
# of the 2 bytes per lane of the result.
LANE_CHUNK_BUDGET = 1 << 20
# lane_sums adds fewer than this many terms chi + 1 <= 2 per lane, so a
# 16-bit lane never overflows.
LANE_TERMS = 1 << 15
# The most terms chi_d(n) a window scan may add one d at a time, off the lane
# route: the d scanned times min(floor(x), hi), checked before the first d.
# About 24 s at the budget on a 2-core Intel Xeon (2,000 d at x = 5e4).
SCAN_TERM_BUDGET = 10**8

_primes: list[int] = []
_prime_bound = -1
_spf: list[int] = []
_spf_bound = -1
_fund: tuple[bytearray, bytearray] = (bytearray(), bytearray())
_fund_bound = -1
_CHI_MOD_8 = (0, 1, 0, -1, 0, -1, 0, 1)  # chi_d(2) by d mod 8


def _grown_bound(n: int, bound: int, budget: int, kind: str) -> int:
    """The bound to grow a sieve to so that it covers n: at least double the
    current one, never past the budget, and an error if n itself is past it."""
    if n > budget:
        raise ValueError(f"{kind} sieve up to {n} exceeds its budget of {budget}")
    return min(max(n, 2 * bound, _MIN_SIEVE), budget)


def _ensure_primes(n: int) -> list[int]:
    global _primes, _prime_bound
    if n > _prime_bound:
        bound = _grown_bound(n, _prime_bound, PRIME_SIEVE_BUDGET, "prime")
        flags = bytearray([1]) * (bound + 1)
        flags[:2] = b"\0\0"
        for p in range(2, math.isqrt(bound) + 1):
            if flags[p]:
                flags[p * p :: p] = bytes(len(range(p * p, bound + 1, p)))
        _primes = list(compress(range(bound + 1), flags))
        _prime_bound = bound
    return _primes


def _trial_primes(n: int):
    """The primes, ascending, as far as trial division of n may need them.

    The shared sieve grows past its current end only when a caller runs out
    of primes, so trial division sieves no further than it divides: an n
    near 2^63 with small prime factors does not sieve to its square root.
    Past the prime budget it raises ValueError.
    """
    primes = _ensure_primes(_MIN_SIEVE)
    if math.isqrt(n) <= primes[-1]:
        return primes
    return chain(primes, _primes_beyond(len(primes)))


def _primes_beyond(done: int):
    while True:
        primes = _ensure_primes(_prime_bound + 1)
        yield from islice(primes, done, None)
        done = len(primes)


def primes_up_to(n: int) -> list[int]:
    """All primes p <= n, ascending."""
    if n < 2:
        return []
    lst = _ensure_primes(int(n))
    return lst[: bisect_right(lst, int(n))]


def smallest_prime_factors(n: int) -> list[int]:
    """Table t with t[k] = smallest prime factor of k for 2 <= k <= n (t[1] = 1).

    The returned list is a shared cache; treat it as read-only.
    """
    global _spf, _spf_bound
    n = int(n)
    if n > _spf_bound:
        bound = _grown_bound(n, _spf_bound, SPF_SIEVE_BUDGET, "smallest-prime-factor")
        spf = list(range(bound + 1))
        # Descending, so the last write to each entry is its smallest
        # prime factor (every composite k has one with p * p <= k).
        for p in reversed(primes_up_to(math.isqrt(bound))):
            spf[p * p :: p] = [p] * len(range(p * p, bound + 1, p))
        _spf = spf
        _spf_bound = bound
    return _spf


def _squarefree_flags(bound: int) -> bytearray:
    """Flags f with f[k] = 1 iff k is squarefree, for 0 <= k <= bound (f[0] = 0).

    Built on each call and not cached; the caller checks the bound.
    """
    flags = bytearray([1]) * (bound + 1)
    flags[0] = 0
    for p in primes_up_to(math.isqrt(bound)):
        flags[p * p :: p * p] = bytes(len(range(p * p, bound + 1, p * p)))
    return flags


def kronecker(d: int, n: int) -> int:
    """Kronecker symbol (d/n), totally extended to all integer pairs.

    Agrees with the Legendre symbol when n is an odd prime not dividing d
    and is completely multiplicative in n.  Conventions at the edges:
    (d/0) = 1 iff |d| = 1 else 0; (d/-1) = -1 iff d < 0; (d/2) = 0 for even
    d and +1/-1 according to d mod 8 being +-1 / +-3.
    """
    a, b = int(d), int(n)
    if b == 0:
        return 1 if a in (1, -1) else 0
    if a % 2 == 0 and b % 2 == 0:
        return 0
    k = 1
    if b < 0:
        b = -b
        if a < 0:
            k = -k
    # Pull the even part out of the bottom argument.
    v = 0
    while b % 2 == 0:
        b //= 2
        v += 1
    if v & 1 and a % 8 in (3, 5):
        k = -k
    # Jacobi loop; b is odd and positive, so (./b) is periodic mod b.
    a %= b
    while a:
        while a % 2 == 0:
            a //= 2
            if b % 8 in (3, 5):
                k = -k
        a, b = b, a
        if a % 4 == 3 and b % 4 == 3:
            k = -k
        a %= b
    return k if b == 1 else 0


def is_squarefree(n: int) -> bool:
    """True iff no prime square divides n (n >= 1)."""
    n = _pos_int(n, "n")
    if n < 4:
        return True
    for p in _trial_primes(n):
        if p * p > n:
            break
        if n % p == 0:
            n //= p
            if n % p == 0:
                return False
    return True


def is_fundamental(d: int) -> bool:
    """Membership test for fundamental discriminants (d = 1 included).

    d qualifies iff d = 1, or d == 1 (mod 4) and squarefree, or d = 4m with
    m == 2 or 3 (mod 4) and m squarefree.  d = 0 is rejected.
    """
    d = int(d)
    if d == 0:
        raise ValueError("d = 0 is not a discriminant")
    r = d % 4
    if r == 1:
        return is_squarefree(abs(d))
    if r == 0:
        m = d // 4
        if m % 4 in (2, 3):
            return is_squarefree(abs(m))
    return False


def fundamental_flags(limit: int) -> tuple[bytearray, bytearray]:
    """Flag bytearrays (pos, neg) with pos[v] = is_fundamental(v) and
    neg[w] = is_fundamental(-w) for 0 <= v, w <= limit (1 true, 0 false).

    Shared cached arrays; treat them as read-only.  A limit past
    FUNDAMENTAL_SIEVE_BUDGET raises ValueError.
    """
    global _fund, _fund_bound
    limit = max(int(limit), 1)
    if limit > _fund_bound:
        bound = _grown_bound(limit, _fund_bound, FUNDAMENTAL_SIEVE_BUDGET, "fundamental")
        sq = _squarefree_flags(bound)
        pos = bytearray(bound + 1)
        neg = bytearray(bound + 1)
        # v = 1 mod 4 (and -w with w = 3 mod 4) needs v squarefree;
        # v = 4m needs m = 2, 3 mod 4 squarefree: v = 8, 12 mod 16
        # for pos, and w = 8, 4 mod 16 (m = -w/4 = 2, 3 mod 4) for neg.
        pos[1::4] = sq[1 : bound + 1 : 4]
        neg[3::4] = sq[3 : bound + 1 : 4]
        for flags, start, m0 in ((pos, 8, 2), (pos, 12, 3), (neg, 4, 1), (neg, 8, 2)):
            count = len(range(start, bound + 1, 16))
            flags[start::16] = sq[m0 : m0 + 4 * count : 4]
        _fund = (pos, neg)
        _fund_bound = bound
    return _fund


def enumerate_fundamental(lo: int, hi: int, include_unit: bool = True) -> list[int]:
    """All fundamental discriminants d with lo < d <= hi, ascending.

    d = 1 is dropped when include_unit is False.  The window may span zero;
    an empty result is allowed.
    """
    lo_i, hi_i = math.floor(lo), math.floor(hi)
    if lo_i >= hi_i:
        raise ValueError(f"window ({lo}, {hi}] is inverted or empty")
    limit = max(abs(lo_i), abs(hi_i), 1)
    pos, neg = fundamental_flags(limit)
    out: list[int] = []
    if lo_i + 1 <= -1:
        # d = -w for w from -(lo + 1) down to max(1, -hi): ascending in d.
        w_hi = -(lo_i + 1)
        w_lo = max(1, -min(hi_i, -1))
        ws = range(w_hi, w_lo - 1, -1)
        out.extend(-w for w in compress(ws, neg[w_hi : w_lo - 1 : -1]))
    if hi_i >= 1:
        p_lo = max(lo_i + 1, 1)
        out.extend(compress(range(p_lo, hi_i + 1), pos[p_lo : hi_i + 1]))
    if not include_unit and lo_i < 1 <= hi_i:
        out.remove(1)
    return out


def char_table(n: int) -> list[int]:
    """t with t[r] = chi_d(n) = (d/n) for every integer d = r mod P, where P = len(t).

    chi_d(n) = prod chi_d(p)^e over p^e || n.  For odd p, chi_d(p) is the
    Legendre symbol of d mod p, read from the squares mod p; chi_d(2) is read
    from d mod 8.  By CRT the product depends only on d mod P, with P the
    product of the odd primes dividing n, times 8 when n is even.  A period
    past CHAR_TABLE_BUDGET raises ValueError.
    """
    factors = factorize(n)
    period = math.prod(8 if p == 2 else p for p, _ in factors)
    if period > CHAR_TABLE_BUDGET:
        raise ValueError(
            f"character table mod {period} for n={n} exceeds its budget of {CHAR_TABLE_BUDGET}"
        )
    table = [1] * period
    for p, e in factors:
        if p == 2:
            chi = _CHI_MOD_8
        else:
            chi = [-1] * p
            chi[0] = 0
            for k in range(1, (p + 1) // 2):
                chi[k * k % p] = 1
        if e % 2 == 0:
            chi = [c * c for c in chi]
        table = [t * c for t, c in zip(table, chi * (period // len(chi)))]
    return table


def lane_sums(lo: int, hi: int, ns) -> memoryview:
    """Lanes v with v[d - lo - 1] = sum_{n in ns} (chi_d(n) + 1) for every
    integer d in (lo, hi], as a memoryview of 16-bit unsigned ints.

    chi_d(n) depends only on d mod P_n (char_table), so one row of chi + 1 in
    16-bit lanes, rotated to start at d = lo + 1 and repeated across the
    window, turns into one big int with int.from_bytes, and adding these ints
    adds every lane at once.  A lane sum stays below 2 * LANE_TERMS, so no
    carry crosses a lane; more terms raise ValueError.  The window is cut into
    chunks of LANE_CHUNK_BUDGET lanes, and each chunk streams over ns with one
    table alive at a time.
    """
    ns = tuple(ns)
    if len(ns) >= LANE_TERMS:
        raise ValueError(f"{len(ns)} lane terms exceed the 16-bit lane limit of {LANE_TERMS - 1}")
    order = sys.byteorder  # array("H") and memoryview.cast("H") are native-endian
    out = bytearray(2 * max(hi - lo, 0))
    for start in range(lo, hi, LANE_CHUNK_BUDGET):
        size = min(LANE_CHUNK_BUDGET, hi - start)
        total = 0
        for n in ns:
            table = char_table(n)
            period = len(table)
            shift = (start + 1) % period
            row = array("H", [c + 1 for c in table]).tobytes()
            rows = memoryview(row * ((shift + size) // period + 1))
            total += int.from_bytes(rows[2 * shift : 2 * (shift + size)], order)
        at = 2 * (start - lo)
        out[at : at + 2 * size] = total.to_bytes(2 * size, order)
    return memoryview(out).cast("H")


def _record(cls=None, *, derived=()):
    """Class decorator for a frozen record, in place of a frozen dataclass,
    whose module costs a cold start about 8 ms.  The fields are the annotated
    names, in order, a class-level value being a default.  __init__ takes those
    not in derived, by position or keyword, then calls __post_init__, which
    sets the derived ones.  Records compare and hash by their field tuple,
    print as QualName(field=value, ...), and refuse assignment and deletion."""
    if cls is None:
        return lambda c: _record(c, derived=derived)
    fields = tuple(cls.__annotations__)
    params = tuple(f for f in fields if f not in derived)
    defaults = {f: cls.__dict__[f] for f in params if f in cls.__dict__}
    post_init = getattr(cls, "__post_init__", lambda self: None)

    def __init__(self, *args, **kwargs):
        given = dict(zip(params, args))
        values = {**defaults, **given, **kwargs}
        if len(args) > len(params) or given.keys() & kwargs.keys() or values.keys() != set(params):
            raise TypeError(f"{cls.__qualname__}() takes {params}, got {len(args)} positional "
                            f"arguments and keywords {sorted(kwargs)}")
        self.__dict__.update(values)
        post_init(self)

    def key(self):
        return tuple(getattr(self, f) for f in fields)

    def __eq__(self, other):
        return key(self) == key(other) if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self):
        return f"{cls.__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in fields)})"

    def frozen(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    cls.__init__, cls.__eq__, cls.__repr__ = __init__, __eq__, __repr__
    cls.__hash__ = lambda self: hash(key(self))
    cls.__setattr__ = cls.__delattr__ = frozen
    return cls


@_record
class Discriminant:
    """A validated fundamental discriminant; rejects everything else."""

    value: int

    def __post_init__(self):
        if not is_fundamental(self.value):
            raise ValueError(f"{self.value} is not a fundamental discriminant")

    def __int__(self) -> int:
        return self.value

    def __index__(self) -> int:
        return self.value


@_record
class SquarefreeDecomposition:
    """n = n0 * n1**2 with n0 squarefree (n0 = 1 iff n is a perfect square)."""

    n0: int
    n1: int

    @property
    def n(self) -> int:
        return self.n0 * self.n1 * self.n1


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as (p, exponent) pairs, ascending."""
    n = _pos_int(n, "n")
    out: list[tuple[int, int]] = []
    if n == 1:
        return out
    for p in _trial_primes(n):
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    if n > 1:
        out.append((n, 1))
    return out


def squarefree_decompose(n: int) -> SquarefreeDecomposition:
    """Split n >= 1 into squarefree kernel n0 and cokernel n1 (n = n0*n1^2)."""
    n = _pos_int(n, "n")
    n0 = n1 = 1
    for p, e in factorize(n):
        if e & 1:
            n0 *= p
        n1 *= p ** (e // 2)
    return SquarefreeDecomposition(n0, n1)


def largest_prime_factor(n: int) -> int:
    """P+(n); equals 1 when n = 1 by convention."""
    n = _pos_int(n, "n")
    if n == 1:
        return 1
    return factorize(n)[-1][0]


def divisor_count(m: int) -> int:
    """Number of positive divisors of m >= 1."""
    m = _pos_int(m, "m")
    out = 1
    for _, e in factorize(m):
        out *= e + 1
    return out


@_record
class SmoothnessParams:
    """A validated (range cutoff, smoothness bound) pair, both finite and >= 1."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"need finite x and y, got ({self.x}, {self.y})")
        if not (self.x >= 1 and self.y >= 1):
            raise ValueError(f"need x >= 1 and y >= 1, got ({self.x}, {self.y})")


@lru_cache(maxsize=16)
def _smooth_table(cap: int, ybound: int) -> tuple[int, ...]:
    # vals stays sorted, so for each power w of p the new entries v*w <= cap
    # come from a prefix of the entries made from smaller primes; its length
    # is checked against the budget before the block is built.
    vals = [1]
    for p in primes_up_to(ybound):
        n = len(vals)
        w = p
        while w <= cap:
            k = bisect_right(vals, cap // w, 0, n)
            if len(vals) + k > SMOOTH_TABLE_BUDGET:
                raise ValueError(
                    f"table of {ybound}-smooth numbers up to {cap} exceeds its budget "
                    f"of {SMOOTH_TABLE_BUDGET} entries"
                )
            vals += [v * w for v in vals[:k]]
            w *= p
        if len(vals) > n:
            vals.sort()
    return tuple(vals)


def _smooth_prefix(x: float, y: float):
    """(table, cut): table[:cut] holds the y-smooth n <= x, ascending."""
    if not (x >= 1 and y >= 1):
        raise ValueError(f"need x >= 1 and y >= 1, got ({x}, {y})")
    m = math.floor(x)
    if y >= m:
        return range(1, m + 1), m
    # Here m > y >= 1; a power-of-two cap lets nearby x share a cached table.
    tbl = _smooth_table(max(1 << (m - 1).bit_length(), _MIN_SIEVE), math.floor(y))
    return tbl, bisect_right(tbl, m)


def enumerate_smooth(x: float, y: float) -> list[int]:
    """All n <= x whose prime factors are all <= y, ascending (1 included)."""
    tbl, cut = _smooth_prefix(x, y)
    return list(tbl[:cut])


def psi_count(x: float, y: float) -> int:
    """Psi(x, y): the number of y-smooth integers in [1, x]."""
    return _smooth_prefix(x, y)[1]


def error_factors(n: int, eps: float = 0.05) -> tuple[float, float]:
    """Smoothed error-term factors (f, g) attached to mean-value remainders.

    f = exp((log n0)^(1-eps)) on the squarefree kernel n0 of n, and
    g = sum over squarefree divisors e of the cokernel n1 of e^-(1/2+eps),
    i.e. the product of (1 + p^-(1/2+eps)) over primes p | n1.  Both are >= 1.
    """
    n = _pos_int(n, "n")
    if not 0 < eps < 0.5:
        raise ValueError(f"eps must lie in (0, 1/2), got {eps}")
    dec = squarefree_decompose(n)
    f = math.exp(math.log(dec.n0) ** (1.0 - eps)) if dec.n0 > 1 else 1.0
    g = 1.0
    for p, _ in factorize(dec.n1):
        g *= 1.0 + p ** -(0.5 + eps)
    return f, g


def _pos_int(n, name: str) -> int:
    n = int(n)
    if n < 1:
        raise ValueError(f"{name} must be a positive integer, got {n}")
    return n
