"""Averages of chi_d(n) over all fundamental discriminants |d| <= X, with the
square-indicator main term X/zeta(2) * prod_{p|n} p/(p+1) and informational
error envelopes (implied constants taken as 1; reported, never asserted).
"""

import math

from . import arith

__all__ = [
    "MeanValueReport",
    "mean_value_sum",
    "mean_value_window_sum",
    "mean_value_main_term",
    "mean_value_report",
]

_INV_ZETA2 = 6.0 / math.pi**2


def mean_value_sum(n: int, X: float) -> int:
    """Exact sum of chi_d(n) over every fundamental d with |d| <= X
    (both signs, d = 1 included)."""
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not math.isfinite(X):
        raise ValueError(f"X must be finite, got {X}")
    if X < 1:
        raise ValueError(f"X must be >= 1, got {X}")
    limit = math.floor(X)
    pos, neg = arith.fundamental_flags(limit)
    pos, neg = pos[: limit + 1], neg[: limit + 1]
    table = arith.char_table(n)
    period = len(table)
    # Sum table[r] times the number of fundamental d = r mod P; the negative
    # d = -w with w = r mod P take table[-r mod P].
    total = 0
    for r in range(min(period, limit + 1)):
        if table[r]:
            total += table[r] * pos[r::period].count(1)
        if table[-r]:
            total += table[-r] * neg[r::period].count(1)
    return total


def mean_value_window_sum(n: int, lo: float, hi: float, include_unit: bool = True) -> int:
    """Exact sum of chi_d(n) over fundamental d in (lo, hi]."""
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    ds = arith.enumerate_fundamental(math.floor(lo), math.floor(hi), include_unit)
    if not ds:
        return 0
    table = arith.char_table(n)
    period = len(table)
    return sum(table[d % period] for d in ds)


def mean_value_main_term(n: int, X: float) -> float:
    """X/zeta(2) * prod_{p|n} p/(p+1) when n is a perfect square, else 0."""
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if arith.squarefree_decompose(n).n0 != 1:
        return 0.0
    prod = 1.0
    for p, _ in arith.factorize(n):
        prod *= p / (p + 1)
    return X * _INV_ZETA2 * prod


@arith._record
class MeanValueReport:
    """Exact average vs. main term for one (n, X), plus report-only envelopes."""

    n: int
    X: float
    exact_sum: int
    main_term: float
    residual: float
    unconditional_envelope: float
    grh_envelope: float

    CSV_HEADER = (
        "n",
        "X",
        "exact_sum",
        "main_term",
        "residual",
        "uncond_envelope",
        "grh_envelope",
    )

    def to_csv_row(self) -> tuple:
        return (
            self.n,
            self.X,
            self.exact_sum,
            self.main_term,
            self.residual,
            self.unconditional_envelope,
            self.grh_envelope,
        )

    def to_json_dict(self) -> dict:
        return dict(zip(self.CSV_HEADER, self.to_csv_row()))


def mean_value_report(n: int, X: float, eps: float = 0.05) -> MeanValueReport:
    """Full comparison for (n, X): exact sum, main term, residual, envelopes.

    The unconditional envelope is X^(1/2)*tau(sqrt n) in the square case and
    X^(1/2)*n^(1/4)*log n otherwise; the GRH-flavored envelope is
    X^(1/2+eps)*f(n0)*g(n1).  Both use implied constant 1 and are columns
    for reports, not assertions.
    """
    n = int(n)
    exact = mean_value_sum(n, X)
    main = mean_value_main_term(n, X)
    dec = arith.squarefree_decompose(n)
    if dec.n0 == 1:
        uncond = math.sqrt(X) * arith.divisor_count(dec.n1)
    else:
        uncond = math.sqrt(X) * n**0.25 * math.log(n)
    f, g = arith.error_factors(n, eps)
    grh = X ** (0.5 + eps) * f * g
    return MeanValueReport(
        n=n,
        X=float(X),
        exact_sum=exact,
        main_term=main,
        residual=exact - main,
        unconditional_envelope=uncond,
        grh_envelope=grh,
    )
