"""The three resonator constructions and the exact moment ratios that drive
the lower bounds: a window scan accumulates M1 = sum R(d)^2 and
M2 = sum S_d(x) R(d)^2 (or S_d(x)^2 R(d)^2), and max S_d(x) >= M2/M1 is an
identity for nonnegative weights, checked here to 1e-9 relative.

Variants:
  short  - R(d) = prod_{p<=y} (1 - a_p chi_d(p))^-1 with one coefficient
           a_p in (0,1) shared by all primes up to a derived bound y;
  medium - R(d) = sum_{n<=y} r(n) chi_d(n) with r multiplicative, supported
           on squarefree products of primes in a window [lam^2, e^(log lam)^2],
           r(p) = lam/(sqrt(p) log p), lam = sqrt(log y loglog y);
  long   - R(d) = sum_{m in M} chi_d(m) over a near-extremal squarefree set
           of size floor(X^(1/2-delta)/x).

Degenerate parameter ranges (empty prime windows, y < 2) collapse R to 1,
which keeps every report well defined at desk scale.
"""

import math
from itertools import compress
from typing import Callable, Optional, Union

from . import arith, charsums, gcdsum
from .charsums import EmptyWindowError

__all__ = [
    "TOL_REL",
    "ShortResonator",
    "MediumResonator",
    "LongResonator",
    "ResonatorSpec",
    "RatioReport",
    "ShortChainReport",
    "build_resonator",
    "resonator_value",
    "moment_ratio",
    "short_chain_bound",
    "short_weight_budget",
    "squarefree_support",
    "lemma_dd_ratio",
]

TOL_REL = 1e-9
# The most (a, b) pairs lemma_dd_ratio walks, len(support)**2, checked before
# the pair loop; a larger support raises ValueError.  About 6 s at the budget
# on a 2-core Intel Xeon (Y = 1e8, 1,078 terms, takes 0.7 s).
DD_PAIR_BUDGET = 10**7


class _Neumaier:
    """Compensated accumulator; total() is exact to one rounding in practice."""

    __slots__ = ("_s", "_c")

    def __init__(self, start: float = 0.0):
        self._s = start
        self._c = 0.0

    def add(self, v: float) -> None:
        t = self._s + v
        if abs(self._s) >= abs(v):
            self._c += (self._s - t) + v
        else:
            self._c += (v - t) + self._s
        self._s = t

    def total(self) -> float:
        return self._s + self._c


class _Memo(dict):
    """f(k) for each key k, computed once, on first use."""

    __slots__ = ("_f",)

    def __init__(self, f):
        super().__init__()
        self._f = f

    def __missing__(self, k):
        v = self[k] = self._f(k)
        return v


@arith._record
class ShortResonator:
    X: float
    x: float
    alpha: float
    delta: float
    y: float
    primes: tuple[int, ...]
    a_p: float

    variant = "short"

    def __post_init__(self):
        # a_p = 0 degenerates to R == 1 and is harmless; |a_p| >= 1 would let
        # a factor 1 - a_p*chi vanish or flip sign.
        if self.primes and not 0.0 <= self.a_p < 1.0:
            raise ValueError(f"coefficient a_p must lie in [0, 1), got {self.a_p}")


@arith._record
class MediumResonator:
    X: float
    x: float
    delta: float
    y: float
    lam: Optional[float]
    prime_lo: float
    prime_hi: float
    primes: tuple[int, ...]
    support: tuple[tuple[int, float], ...]

    variant = "medium"


@arith._record
class LongResonator:
    X: float
    x: float
    delta: float
    N: int
    M: gcdsum.GcdSet

    variant = "long"

    @property
    def members(self) -> tuple[int, ...]:
        return self.M.members


ResonatorSpec = Union[ShortResonator, MediumResonator, LongResonator]


def squarefree_support(primes, r_values, cap: float) -> tuple[tuple[int, float], ...]:
    """(n, r(n)) for every squarefree product n <= cap of the given primes,
    ascending, with r multiplicative.  Always contains (1, 1.0)."""
    items = [(1, 1.0)]
    for p, rp in zip(primes, r_values):
        if p > cap:
            break
        extra = []
        for n, rn in items:
            m = n * p
            if m <= cap:
                extra.append((m, rn * rp))
        items.extend(extra)
        if len(items) > 2_000_000:
            raise ValueError("squarefree support exceeds 2e6 terms; parameters too large")
    items.sort()
    return tuple(items)


def _window_primes(lo: float, hi: float, cap: float) -> list[int]:
    hi = min(hi, cap)
    if hi < lo or hi < 2:
        return []
    return [p for p in arith.primes_up_to(math.floor(hi)) if p >= lo]


def _medium_rate(lam: float, p: int) -> float:
    return lam / (math.sqrt(p) * math.log(p))


def _medium_window(y: float, lower: Callable[[float], float]):
    """The medium prime window for a cap y > e, as (lam, lo, hi, primes, support).

    lam = sqrt(log y loglog y), and the window is [lo, hi] with
    hi = e^(log lam)^2, capped at y.  support holds every squarefree product
    n <= y of its primes with r multiplicative, r(p) = lam/(sqrt(p) log p).
    The lower endpoint is lo = lower(lam), and the two callers differ there:
    build_resonator uses lam^2, the window of the medium construction, and
    lemma_dd_ratio uses lam, or its window_floor override.
    """
    lam = math.sqrt(math.log(y) * math.log(math.log(y)))
    lo = lower(lam)
    hi = math.exp(math.log(lam) ** 2) if lam > 0 else -math.inf
    primes = tuple(_window_primes(lo, hi, y))
    support = squarefree_support(primes, [_medium_rate(lam, p) for p in primes], y)
    return lam, lo, hi, primes, support


def build_resonator(
    variant: str,
    X: float,
    x: float,
    alpha: float = 0.01,
    delta: float = 0.01,
) -> ResonatorSpec:
    """Derive a fully parameterized resonator of the given variant.

    Requires finite X >= 16 (keeps all iterated logs positive), finite
    x >= 2, and 0 < alpha, delta < 1/4; the short variant additionally
    enforces delta <= alpha.
    """
    if not (math.isfinite(X) and math.isfinite(x)):
        raise ValueError(f"need finite X and x, got ({X}, {x})")
    if X < 16:
        raise ValueError(f"X must be >= 16, got {X}")
    if x < 2:
        raise ValueError(f"x must be >= 2, got {x}")
    if not 0.0 < alpha < 0.25:
        raise ValueError(f"alpha must lie in (0, 1/4), got {alpha}")
    if not 0.0 < delta < 0.25:
        raise ValueError(f"delta must lie in (0, 1/4), got {delta}")
    l1 = math.log(X)
    l2 = math.log(l1)
    l3 = math.log(l2)

    if variant == "short":
        # delta may not exceed alpha; equality is tolerated so the documented
        # default pair (0.01, 0.01) stays buildable.
        if delta > alpha:
            raise ValueError(f"short variant needs delta <= alpha, got {delta} > {alpha}")
        l2x = math.log(math.log(x))
        y = (0.25 - alpha) * l1 * l2 / max(l2x - l3, l3)
        primes = tuple(arith.primes_up_to(math.floor(y))) if y >= 2 else ()
        a_p = 1.0 - math.log(y) / (math.log(x) * l2 ** (1.0 + delta)) if primes else 0.0
        return ShortResonator(X=X, x=x, alpha=alpha, delta=delta, y=y, primes=primes, a_p=a_p)

    if variant == "medium":
        y = X ** (0.5 - delta) / (x * x)
        if y <= math.e:
            return MediumResonator(
                X=X, x=x, delta=delta, y=y, lam=None, prime_lo=math.inf,
                prime_hi=-math.inf, primes=(), support=((1, 1.0),),
            )
        lam, lo, hi, primes, support = _medium_window(y, lambda lam: lam * lam)
        return MediumResonator(
            X=X, x=x, delta=delta, y=y, lam=lam, prime_lo=lo, prime_hi=hi,
            primes=primes, support=support,
        )

    if variant == "long":
        N = math.floor(X ** (0.5 - delta) / x)
        if N < 1:
            raise ValueError(
                f"long variant needs floor(X^(1/2-delta)/x) >= 1, got {N} for X={X}, x={x}"
            )
        # Flags for the scan past their budget: refused before the set is built.
        budget = arith.FUNDAMENTAL_SIEVE_BUDGET
        if (hi := math.floor(2 * X)) > budget:
            raise ValueError(f"fundamental sieve up to {hi} exceeds its budget of {budget}")
        return LongResonator(X=X, x=x, delta=delta, N=N, M=gcdsum.construct_extremal_set(N))

    raise ValueError(f"unknown variant {variant!r}; expected short, medium, or long")


def resonator_value(spec: ResonatorSpec, d) -> float:
    """R(d) under the given spec: a finite product (short) or finite sum
    (medium/long); no truncation is involved.

    One d at a time through arith.kronecker.  moment_ratio calls it once per
    residue class d mod P of a short or medium spec; a long spec's window
    scan reads R(d) from the lanes and is tested against this oracle.
    """
    dv = int(d)
    if isinstance(spec, ShortResonator):
        out = 1.0
        a = spec.a_p
        for p in spec.primes:
            out /= 1.0 - a * arith.kronecker(dv, p)
        return out
    if isinstance(spec, MediumResonator):
        acc = _Neumaier()
        for n, rn in spec.support:
            acc.add(rn * arith.kronecker(dv, n))
        return acc.total()
    if isinstance(spec, LongResonator):
        return float(sum(arith.kronecker(dv, m) for m in spec.members))
    raise TypeError(f"not a resonator spec: {spec!r}")


@arith._record
class RatioReport:
    """One window scan: exact moments, their ratio, and the observed maximum.

    observed_max is max S_d(x) (or max S_d(x)^2 when squared); the defining
    inequality observed_max >= M2/M1 is checked at TOL_REL relative slack.
    """

    spec: ResonatorSpec
    X: float
    x: float
    M1: float
    M2: float
    ratio: float
    observed_max: float
    squared: bool
    inequality_holds: bool
    discriminants_scanned: int

    CSV_HEADER = ("variant", "X", "x", "M1", "M2", "ratio", "observed_max", "holds")

    def to_csv_row(self) -> tuple:
        return (
            self.spec.variant,
            self.X,
            self.x,
            self.M1,
            self.M2,
            self.ratio,
            self.observed_max,
            self.inequality_holds,
        )

    def to_json_dict(self) -> dict:
        return {
            "variant": self.spec.variant,
            "X": self.X,
            "x": self.x,
            "params": _spec_params(self.spec),
            "M1": self.M1,
            "M2": self.M2,
            "ratio": self.ratio,
            "observed_max": self.observed_max,
            "squared": self.squared,
            "holds": self.inequality_holds,
            "scanned": self.discriminants_scanned,
        }


def _spec_params(spec: ResonatorSpec) -> dict:
    if isinstance(spec, ShortResonator):
        return {
            "alpha": spec.alpha,
            "delta": spec.delta,
            "y": spec.y,
            "a_p": spec.a_p,
            "num_primes": len(spec.primes),
        }
    if isinstance(spec, MediumResonator):
        return {
            "delta": spec.delta,
            "y": spec.y,
            "lambda": spec.lam,
            "prime_lo": None if not spec.primes else spec.prime_lo,
            "prime_hi": None if not spec.primes else spec.prime_hi,
            "support_size": len(spec.support),
        }
    return {"delta": spec.delta, "N": spec.N, "y_M": spec.M.y_M}


def moment_ratio(spec: ResonatorSpec, squared: bool = False) -> RatioReport:
    """Scan fundamental d in (X, 2X] once, accumulating M1, M2, and the
    observed maximum; deterministic.

    S_d(x) comes from charsums.window_sums, the window scan delta_max also
    reads.  R(d) takes one of two forms.  A long spec reads it from the lanes
    of its members, arith.lane_sums(lo, hi, members), as the lane sum of
    chi_d(m) + 1 minus N; a set of N >= arith.LANE_TERMS members is refused
    there with ValueError.  A short or medium R(d) depends only on d mod P,
    with P the lcm of the periods of chi_d(p) (8 for p = 2, p otherwise) over
    the primes of its terms, so R(d)^2 is resonator_value(spec, d mod P)
    squared, evaluated once per residue class met.  Every value of S_d(x) and
    R(d)^2 is converted once and memoized; the sums run in ascending d with
    the operations of _Neumaier, so the results are bit-identical to a loop
    over resonator_value and char_sum.
    """
    X, x = spec.X, spec.x
    lo, hi = math.floor(X), math.floor(2 * X)
    # X < 1 leaves at most d = 1, which is never scanned.
    flags, sums = charsums.window_sums(lo, hi, x) if lo >= 1 else (bytearray(), [])
    scanned = flags.count(1)
    if not scanned:
        raise EmptyWindowError(f"no fundamental discriminants in ({X}, {2 * X}]")

    m = math.floor(x)
    # S_d(x) + m -> S_d(x) or S_d(x)^2 as a float
    v_of = _Memo(lambda t: float((t - m) ** 2 if squared else t - m))
    vs = map(v_of.__getitem__, compress(sums, flags))
    if isinstance(spec, LongResonator):
        # lane value R(d) + N -> R(d)^2
        w_of = _Memo(lambda t: (r := float(t - spec.N)) * r)
        ws = map(w_of.__getitem__, compress(arith.lane_sums(lo, hi, spec.members), flags))
    else:
        # d -> R(d)^2 through k = d mod P: kronecker(k, n) == kronecker(d, n)
        # when 8 | P for 2 | n and p | P for every odd prime p | n.
        terms = spec.primes if isinstance(spec, ShortResonator) else [n for n, _ in spec.support]
        P = math.lcm(*{8 if p == 2 else p for n in terms for p, _ in arith.factorize(n)})
        w_of = _Memo(lambda k: (r := resonator_value(spec, k)) * r)
        ws = map(w_of.__getitem__, map(P.__rmod__, compress(range(lo + 1, hi + 1), flags)))

    # Two _Neumaier accumulators, inlined: (s1, c1) for M1, (s2, c2) for M2.
    s1 = c1 = s2 = c2 = 0.0
    observed = -math.inf
    for v, w in zip(vs, ws):
        t = s1 + w
        if abs(s1) >= abs(w):
            c1 += (s1 - t) + w
        else:
            c1 += (w - t) + s1
        s1 = t
        u = v * w
        t = s2 + u
        if abs(s2) >= abs(u):
            c2 += (s2 - t) + u
        else:
            c2 += (u - t) + s2
        s2 = t
        if v > observed:
            observed = v
    M1, M2 = s1 + c1, s2 + c2
    if not M1 > 0:
        raise ValueError("resonator weight vanished on the whole window")
    ratio = M2 / M1
    holds = observed >= ratio - TOL_REL * abs(ratio)
    return RatioReport(
        spec=spec,
        X=float(X),
        x=float(x),
        M1=M1,
        M2=M2,
        ratio=ratio,
        observed_max=observed,
        squared=squared,
        inequality_holds=holds,
        discriminants_scanned=scanned,
    )


@arith._record
class ShortChainReport:
    """The smooth-coefficient chain sums of the short construction.

    bound            sum over y-smooth k <= x of a_k * prod_{p|k} p/(p+1)
    coefficient_sum  same sum without the Euler factors (>= bound termwise)
    psi              Psi(x, y), the count of the summation range
    """

    bound: float
    coefficient_sum: float
    psi: int


def short_chain_bound(spec: ShortResonator, x: float) -> ShortChainReport:
    """Evaluate the short-variant chain lower bound exactly by enumerating
    the y-smooth integers k <= x; a_k = a_p^Omega(k) is completely
    multiplicative."""
    if not isinstance(spec, ShortResonator):
        raise TypeError(f"short_chain_bound needs a short spec, got {spec!r}")
    m = math.floor(x)
    if m < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    bound = _Neumaier()
    coeff = _Neumaier()
    count = 0
    primes = [p for p in spec.primes if p <= m]
    a = spec.a_p

    stack = [(1, 0, 1.0, 1.0)]
    while stack:
        v, start, ak, mert = stack.pop()
        bound.add(ak * mert)
        coeff.add(ak)
        count += 1
        for j in range(start, len(primes)):
            p = primes[j]
            w = v * p
            ak_w = ak * a
            mert_w = mert * (p / (p + 1.0))
            while w <= m:
                stack.append((w, j + 1, ak_w, mert_w))
                w *= p
                ak_w *= a
    return ShortChainReport(bound=bound.total(), coefficient_sum=coeff.total(), psi=count)


def short_weight_budget(spec: ShortResonator) -> tuple[float, float]:
    """(prod (1-a_p)^-2, X^(1/2-alpha)): the squared worst-case resonator
    weight next to its claimed ceiling.  The comparison is asymptotic and can
    fail at desk scale, so it is reported, never asserted."""
    if not isinstance(spec, ShortResonator):
        raise TypeError(f"short_weight_budget needs a short spec, got {spec!r}")
    prod = 1.0
    for _ in spec.primes:
        prod /= 1.0 - spec.a_p
    return prod * prod, spec.X ** (0.5 - spec.alpha)


def lemma_dd_ratio(Y: float, N: float, window_floor: Optional[float] = None) -> float:
    """Exact diagonal-dominance ratio of the medium-window coefficient sums:

        sum_{a,b<=Y} r(a) r(b) #{m,n <= N : a n = b m}  /  sum_{n<=Y} r(n)^2

    with r multiplicative on squarefree products of primes in
    [lam, e^(log lam)^2], lam = sqrt(log Y loglog Y) (window_floor overrides
    the lower endpoint).  The pair count for fixed (a, b) is exactly
    floor(N * gcd(a,b) / max(a,b)), by the coprime parametrization of the
    solutions.  A degenerate window leaves only a = b = 1 and the diagonal
    count floor(N).  A support with more than DD_PAIR_BUDGET pairs raises
    ValueError: Y = 1e8 has 1,078 terms, Y = 1e9 has 9,890.
    """
    if Y < 1 or N < 1:
        raise ValueError(f"need Y >= 1 and N >= 1, got ({Y}, {N})")
    n_int = math.floor(N)
    support: tuple[tuple[int, float], ...] = ((1, 1.0),)
    if Y > math.e:
        *_, support = _medium_window(Y, lambda lam: lam if window_floor is None else window_floor)
    if len(support) ** 2 > DD_PAIR_BUDGET:
        raise ValueError(
            f"{len(support)}**2 support pairs exceed the pair budget of {DD_PAIR_BUDGET}"
        )
    num = _Neumaier()
    den = _Neumaier()
    for a, ra in support:
        den.add(ra * ra)
        for b, rb in support:
            g = math.gcd(a, b)
            pairs = n_int // (max(a, b) // g)
            if pairs:
                num.add(ra * rb * pairs)
    return num.total() / den.total()
