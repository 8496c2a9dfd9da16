"""Exact quadratic character sums S_d(x) = sum_{n<=x} chi_d(n) and
brute-force maxima of S_d(x) over fundamental discriminants in a window.

chi_d is realized as the Kronecker symbol (d/.), so every sum here is an
exact integer.  window_sums is the one window scan: delta_max and
resonance.moment_ratio read every S_d(x) of a window (lo, hi] from it.  With
floor(x) <= hi - lo it reads them all at once from arith.lane_sums; the other
sums go one d at a time through _char_values.
"""

import math
from itertools import accumulate, compress

from . import arith

__all__ = [
    "CharSumProfile",
    "MaxSearchResult",
    "EmptyWindowError",
    "char_sum",
    "char_sum_prefix",
    "delta_max",
    "pv_baseline",
    "window_sums",
]


class EmptyWindowError(ValueError):
    """Raised when a discriminant window contains no fundamental d."""


def _dval(d) -> int:
    if isinstance(d, arith.Discriminant):
        return d.value
    d = int(d)
    if not arith.is_fundamental(d):
        raise ValueError(f"{d} is not a fundamental discriminant")
    return d


def _char_values(d: int, m: int) -> list[int]:
    # chi_d(0..m); chi at primes via the Kronecker symbol, composites filled
    # through complete multiplicativity (chi(n) = chi(spf) * chi(n/spf)).
    # The spf sieve checks its budget before anything sized by m is built.
    spf = arith.smallest_prime_factors(m) if m >= 2 else []
    vals = [0] * (m + 1)
    if m >= 1:
        vals[1] = 1
    kron = arith.kronecker
    for n in range(2, m + 1):
        p = spf[n]
        q = n // p
        vals[n] = kron(d, n) if q == 1 else vals[p] * vals[q]
    return vals


def _char_sum_trusted(d: int, x: float) -> int:
    m = math.floor(x)
    if m < 1:
        return 0
    if d == 1:
        return m
    ad = abs(d)
    if m <= ad:
        return sum(_char_values(d, m)[1:])
    # chi_d has period |d|; the per-period sum is computed, not assumed.
    period = _char_values(d, ad)
    q, r = divmod(m, ad)
    return q * sum(period[1:]) + sum(period[1 : r + 1])


def window_sums(lo: int, hi: int, x: float, include_unit: bool = False):
    """(flags, sums) for the window (lo, hi] of integers, 0 <= lo < hi.

    flags[i] is 1 when d = lo + 1 + i is a fundamental discriminant of the
    scan (d = 1 only with include_unit), and sums[i] = S_d(x) + floor(x) at
    each such i.  With floor(x) <= hi - lo and floor(x) < arith.LANE_TERMS,
    sums is arith.lane_sums(lo, hi, range(1, floor(x) + 1)): every sum at once,
    the floor(x) terms chi_d(n) + 1 fitting a 16-bit lane.  The kernel is exact
    for every integer d, so the window's width, not its start, picks the route.
    Otherwise sums is a list with each flagged sum computed one d at a time and
    0 elsewhere, within arith.SCAN_TERM_BUDGET.  Nothing is sized by x.
    """
    m = math.floor(x)
    pos, _ = arith.fundamental_flags(hi)
    flags = pos[lo + 1 : hi + 1]
    if lo == 0 and not include_unit:
        flags[0] = 0  # d = 1
    if 1 not in flags:
        return flags, []
    if m <= hi - lo and m < arith.LANE_TERMS:
        return flags, arith.lane_sums(lo, hi, range(1, m + 1))
    terms = flags.count(1) * min(m, hi)
    if terms > arith.SCAN_TERM_BUDGET:
        raise ValueError(f"scan of {terms} terms one d at a time exceeds its budget of "
                         f"{arith.SCAN_TERM_BUDGET}")
    ds = range(lo + 1, hi + 1)
    return flags, [_char_sum_trusted(d, x) + m if f else 0 for d, f in zip(ds, flags)]


def char_sum(d, x: float) -> int:
    """S_d(x): exact sum of chi_d(n) over 1 <= n <= floor(x) (0 when x < 1)."""
    return _char_sum_trusted(_dval(d), x)


@arith._record
class CharSumProfile:
    """Running values of S_d at every cutoff 1..x_max."""

    d: int
    cutoffs: tuple[int, ...]
    values: tuple[int, ...]


def char_sum_prefix(d, x_max: int) -> CharSumProfile:
    """Profile of S_d at every integer cutoff 1..x_max (amortizes queries)."""
    d = _dval(d)
    x_max = int(x_max)
    if x_max < 1:
        raise ValueError(f"x_max must be >= 1, got {x_max}")
    vals = _char_values(d, x_max)
    return CharSumProfile(
        d=d,
        cutoffs=tuple(range(1, x_max + 1)),
        values=tuple(accumulate(vals[1:])),
    )


@arith._record
class MaxSearchResult:
    """Exhaustive maximum of S_d(x) over fundamental d in (window_lo, window_hi].

    s_star is the signed sum at the maximizer; in absolute mode the ranking
    key is |S_d(x)| but the reported value stays signed.  Ties go to the
    smallest discriminant.
    """

    window_lo: float
    window_hi: float
    x: float
    d_star: int
    s_star: int
    scanned: int
    absolute: bool = False

    CSV_HEADER = ("X_lo", "X_hi", "x", "d_star", "S_star", "scanned", "absolute")

    def to_csv_row(self) -> tuple:
        return (
            self.window_lo,
            self.window_hi,
            self.x,
            self.d_star,
            self.s_star,
            self.scanned,
            self.absolute,
        )

    def to_json_dict(self) -> dict:
        return dict(zip(self.CSV_HEADER, self.to_csv_row()))


def delta_max(
    X_lo: float,
    x: float,
    X_hi: float | None = None,
    include_unit: bool = False,
    absolute: bool = False,
) -> MaxSearchResult:
    """Scan fundamental d in (X_lo, X_hi] (default (X_lo, 2*X_lo]) for the
    largest S_d(x); exact, deterministic, tie-broken by smallest d."""
    hi = 2 * X_lo if X_hi is None else X_hi
    for name, v in (("X_lo", X_lo), ("x", x), ("X_hi", hi)):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")
    if X_lo <= 0:
        raise ValueError(f"X_lo must be positive, got {X_lo}")
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    lo, top = math.floor(X_lo), math.floor(hi)
    if lo >= top:
        raise ValueError(f"window ({lo}, {top}] is inverted or empty")
    m = math.floor(x)
    flags, sums = window_sums(lo, top, x, include_unit)
    scanned = flags.count(1)
    if not scanned:
        raise EmptyWindowError(f"no fundamental discriminants in ({X_lo}, {hi}]")
    # max keeps the first maximum, the smallest d.
    key = (lambda i: abs(sums[i] - m)) if absolute else sums.__getitem__
    i = max(compress(range(top - lo), flags), key=key)
    best_d, best_s = lo + 1 + i, sums[i] - m
    return MaxSearchResult(
        window_lo=float(X_lo),
        window_hi=float(hi),
        x=float(x),
        d_star=best_d,
        s_star=best_s,
        scanned=scanned,
        absolute=absolute,
    )


def pv_baseline(d) -> float:
    """sqrt(|d|) * log|d|, the classical comparison scale for |S_d|."""
    d = _dval(d)
    ad = abs(d)
    if ad < 2:
        raise ValueError(f"|d| must be >= 2, got {d}")
    return math.sqrt(ad) * math.log(ad)
