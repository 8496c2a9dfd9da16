"""Gal-type GCD sums sum_{m,n in M} sqrt((m,n)/[m,n]) over finite squarefree
sets, a deterministic near-extremal set builder (k-prime products over a
minimal prime pool), and the asymptotic reference curve for display.
"""

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import combinations, islice

from . import arith

__all__ = [
    "GcdSet",
    "gcd_sum",
    "construct_extremal_set",
    "gcd_sum_reference",
    "load_gcd_set",
    "save_gcd_set",
]


@dataclass(frozen=True)
class GcdSet:
    """A finite set of positive squarefree integers, stored ascending.

    y_M is the largest prime factor appearing anywhere in the set.
    """

    members: tuple[int, ...]
    y_M: int = field(init=False)

    def __post_init__(self):
        m = tuple(int(v) for v in self.members)
        if not m:
            raise ValueError("GcdSet needs at least one member")
        if any(v < 1 for v in m):
            raise ValueError("members must be positive")
        if any(a >= b for a, b in zip(m, m[1:])):
            raise ValueError("members must be strictly ascending")
        y_M = 1  # P+(1) = 1
        for v in m:
            factors = arith.factorize(v)
            if any(e > 1 for _, e in factors):
                raise ValueError(f"member {v} is not squarefree")
            if factors:
                y_M = max(y_M, factors[-1][0])
        object.__setattr__(self, "members", m)
        object.__setattr__(self, "y_M", y_M)

    @classmethod
    def from_iterable(cls, values) -> "GcdSet":
        return cls(tuple(sorted(set(int(v) for v in values))))

    @property
    def N(self) -> int:
        return len(self.members)


def gcd_sum(mset) -> float:
    """Double sum of sqrt((m,n)/[m,n]) over all ordered pairs of the set
    (diagonal included), accumulated with math.fsum.

    (m,n)/[m,n] = (m,n)^2/(m*n), so each term is gcd(m,n)/sqrt(m*n).  With
    gcd(m,n) = sum_{e|(m,n)} phi(e) the double sum becomes
    sum_e phi(e) * (sum_{m in M, e|m} m^-1/2)^2, and a squarefree m has only
    2^omega(m) divisors e: O(sum of 2^omega(m)) work instead of O(N^2).
    """
    members = mset.members if isinstance(mset, GcdSet) else GcdSet.from_iterable(mset).members
    phi_of: dict[int, int] = {}
    columns: defaultdict[int, list[float]] = defaultdict(list)  # e -> m^-1/2 for e | m
    for m in members:
        w = 1.0 / math.sqrt(m)
        divisors = [(1, 1)]  # (e, phi(e)) over the subset products of m's primes
        for p, _ in arith.factorize(m):
            divisors += [(e * p, phi * (p - 1)) for e, phi in divisors]
        for e, phi in divisors:
            phi_of[e] = phi
            columns[e].append(w)
    return math.fsum(phi_of[e] * math.fsum(col) ** 2 for e, col in columns.items())


def _first_primes(count: int) -> list[int]:
    bound = 1 << 13
    primes = arith.primes_up_to(bound)
    while len(primes) < count:
        bound *= 2
        primes = arith.primes_up_to(bound)
    return primes[:count]


_TIE_REL = 1e-12

# The largest set construct_extremal_set builds.  A larger N raises ValueError
# before any member is made.  Peak memory is about 0.5 KiB per member (146 MiB
# for N = 3e5, with its GCD sum), so about 0.5 GiB at the budget.
GCD_SET_BUDGET = 10**6


def construct_extremal_set(N: int) -> GcdSet:
    """Deterministic set of N squarefree k-prime products with a large GCD sum.

    For each k in 1..6 the pool is the fewest smallest primes with
    C(pool, k) >= N and the members are the first N products in lexicographic
    combination order; k is picked by the largest pilot GCD sum.  A larger k
    wins only when its pilot sum beats the best by more than a relative
    _TIE_REL, so rounding in the sum never decides a tie (at N = 1 every k
    scores exactly 1) and ties go to the smaller k.  N past GCD_SET_BUDGET
    raises ValueError.
    """
    N = int(N)
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if N > GCD_SET_BUDGET:
        raise ValueError(f"set of {N} members exceeds its budget of {GCD_SET_BUDGET}")
    best = None
    best_score = 0.0
    for k in range(1, 7):
        pool_size = k
        while math.comb(pool_size, k) < N:
            pool_size += 1
        pool = _first_primes(pool_size)
        members = sorted(math.prod(c) for c in islice(combinations(pool, k), N))
        pilot = members[: min(N, 128)]
        score = gcd_sum(GcdSet(tuple(sorted(pilot))))
        if score > best_score * (1.0 + _TIE_REL):
            best_score = score
            best = members
    return GcdSet(tuple(best))


def gcd_sum_reference(N: int) -> float:
    """Display-only reference curve N*exp(2*sqrt(log N * log3 N / log2 N)).

    Needs N >= 16 so the triple logarithm is positive; never asserted against.
    """
    N = int(N)
    if N < 16:
        raise ValueError(f"N must be >= 16, got {N}")
    l1 = math.log(N)
    l2 = math.log(l1)
    l3 = math.log(l2)
    return N * math.exp(2.0 * math.sqrt(l1 * l3 / l2))


def load_gcd_set(path) -> GcdSet:
    """Read a newline-delimited integer file as a GcdSet; a value that
    appears on more than one line is rejected, not silently merged."""
    with open(path, "r", encoding="ascii") as fh:
        values = [int(line) for line in fh if line.strip()]
    repeated = [v for v, count in Counter(values).items() if count > 1]
    if repeated:
        raise ValueError(f"{path}: member {repeated[0]} appears on more than one line")
    return GcdSet.from_iterable(values)


def save_gcd_set(mset: GcdSet, path) -> None:
    """Write members one per line."""
    with open(path, "w", encoding="ascii") as fh:
        for m in mset.members:
            fh.write(f"{m}\n")
