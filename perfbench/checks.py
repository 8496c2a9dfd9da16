"""Per-request output checks against the independent oracle.

Each check takes the request (see workloads.py) and what the request left
behind (exit code, stdout, stderr, the --json payload, the --out-set
members) and returns a list of problems; an empty list means the output is
correct.  Checks run between passes, off the clock.
"""

import math
import re

import numpy as np

import oracle

TOL = 1e-9
INV_ZETA2 = 6.0 / math.pi**2


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


class Checker:
    def __init__(self, members_for):
        # members_for(N) returns the members that `gcd-sum --N N --out-set` writes.
        self._members_for = members_for
        self._members: dict[int, tuple[list[int], list[str]]] = {}
        self._fund = oracle.Fundamentals(1)

    def fundamentals(self, limit: int) -> oracle.Fundamentals:
        if limit > self._fund.limit:
            self._fund = oracle.Fundamentals(max(limit, 2 * self._fund.limit))
        return self._fund

    def window(self, lo: float, hi: float) -> np.ndarray:
        """Fundamental d in (floor lo, floor hi], d = 1 excluded."""
        lo_i, hi_i = math.floor(lo), math.floor(hi)
        ds = self.fundamentals(max(abs(lo_i), abs(hi_i))).window(lo_i, hi_i)
        return ds[ds != 1]

    def check(self, req: dict, out: dict) -> list[str]:
        return getattr(self, "_" + req["cmd"].replace("-", "_"))(req["params"], out)

    # ------------------------------------------------------------ commands --

    def _psi(self, p, out):
        if p["x"] == math.inf:
            # Precondition failure: exit 2 (checked by the caller), a message, no count.
            ok = out["stderr"].startswith("error:") and not out["stdout"]
            return [] if ok else [f"psi --x inf: stdout {out['stdout']!r}, stderr {out['stderr'][:200]!r}"]
        want = oracle.psi(p["x"], p["y"])
        got = out["stdout"].strip()
        return [] if got == str(want) else [f"psi({p['x']}, {p['y']}) = {got}, oracle {want}"]

    def _verify(self, p, out):
        lines = out["stdout"].strip().splitlines()
        tally = re.fullmatch(r"(\d+)/(\d+) checks passed", lines[-1]) if lines else None
        if tally and tally[1] == tally[2] and "[FAIL]" not in out["stdout"]:
            return []
        return [f"verify {p['suite']}: {lines[-1] if lines else 'no output'}"]

    def _delta_max(self, p, out):
        j = out["json"]
        ds = self.window(p["X"], p["hi"])
        s = oracle.char_sums(ds, p["x"])
        key = np.abs(s) if p["absolute"] else s
        i = int(np.argmax(key))  # first maximum: ties go to the smallest d
        want = {"X_lo": float(p["X"]), "X_hi": float(p["hi"]), "x": float(p["x"]),
                "d_star": int(ds[i]), "S_star": int(s[i]), "scanned": len(ds),
                "absolute": p["absolute"]}
        return [f"delta-max {k}: {j.get(k)!r} != {v!r}" for k, v in want.items() if j.get(k) != v]

    def _resonate(self, p, out):
        j = out["json"]
        X, x, delta = p["X"], p["x"], p["delta"]
        errs = []
        ds = self.window(X, 2 * X)
        s = oracle.char_sums(ds, x)
        v = (s * s if p["squared"] else s).astype(np.float64)
        params = j["params"]
        if p["variant"] == "short":
            l1 = math.log(X)
            l2 = math.log(l1)
            l3 = math.log(l2)
            y = (0.25 - p["alpha"]) * l1 * l2 / max(math.log(math.log(x)) - l3, l3)
            primes = oracle.primes_upto(math.floor(y)) if y >= 2 else []
            a = 1.0 - math.log(y) / (math.log(x) * l2 ** (1.0 + delta)) if len(primes) else 0.0
            if not (_close(params["y"], y, 1e-12) and _close(params["a_p"], a, 1e-12)
                    and params["num_primes"] == len(primes)):
                errs.append(f"short resonator params {params} != y={y}, a_p={a}, {len(primes)} primes")
            R = np.ones(len(ds))
            for q in primes:
                R /= 1.0 - a * oracle.chi_prime(ds, int(q))
        elif p["variant"] == "long":
            N = _long_set_size(X, x, delta)
            members, problems = self.members(N)
            if problems:
                return [f"gcd-sum --N {N} --out-set: {problems}"]
            y_M = max(oracle.factor(m)[-1][0] if m > 1 else 1 for m in members)
            if params["N"] != N or params["y_M"] != y_M:
                errs.append(f"long resonator params {params} != N={N}, y_M={y_M}")
            R = np.zeros(len(ds), dtype=np.int64)
            for m in members:
                R += oracle.chi_of(ds, m)
            R = R.astype(np.float64)
        else:
            if _medium_window_nonempty(X, x, delta):
                return [f"medium resonator at X={X}, x={x} has a nonempty window; not checkable"]
            R = np.ones(len(ds))
            if j["M1"] != len(ds):
                errs.append(f"medium M1 {j['M1']!r} != scanned {len(ds)} with R = 1")
        w = R * R
        M1 = math.fsum(w.tolist())
        M2 = math.fsum((v * w).tolist())
        observed = float(v.max())
        ratio = j["ratio"]
        if j["scanned"] != len(ds):
            errs.append(f"resonate scanned {j['scanned']} != {len(ds)}")
        if j["observed_max"] != observed:
            errs.append(f"resonate observed_max {j['observed_max']} != {observed}")
        if not (_close(j["M1"], M1, TOL) and _close(j["M2"], M2, TOL)):
            errs.append(f"resonate M1, M2 = {j['M1']}, {j['M2']}; oracle {M1}, {M2}")
        if ratio != j["M2"] / j["M1"]:
            errs.append(f"resonate ratio {ratio} != M2/M1")
        if not (j["holds"] is True and j["observed_max"] >= ratio * (1 - TOL)):
            errs.append(f"resonate observed_max {j['observed_max']} < ratio {ratio} (holds={j['holds']})")
        return errs

    def _mean_value(self, p, out):
        j = out["json"]
        n, X = p["n"], p["X"]
        lim = math.floor(X)
        fund = self.fundamentals(lim)
        ds = np.concatenate([fund.window(-lim - 1, -1), fund.window(0, lim)])
        exact = int(oracle.chi_of(ds, n).sum())
        main = 0.0
        if math.isqrt(n) ** 2 == n:
            main = X * INV_ZETA2 * math.prod(q / (q + 1) for q, _ in oracle.factor(n))
        errs = []
        if j["exact_sum"] != exact:
            errs.append(f"mean-value n={n} X={X}: exact_sum {j['exact_sum']} != {exact}")
        if not (j["main_term"] == main == 0.0 or _close(j["main_term"], main, 1e-12)):
            errs.append(f"mean-value n={n} X={X}: main_term {j['main_term']} != {main}")
        if abs(j["residual"] - (j["exact_sum"] - j["main_term"])) > TOL * max(1.0, abs(j["residual"])):
            errs.append(f"mean-value residual {j['residual']} != exact - main")
        if j["n"] != n or j["X"] != float(X):
            errs.append(f"mean-value echoes n={j['n']}, X={j['X']}")
        return errs

    def _gcd_sum(self, p, out):
        j = out["json"]
        N = p["N"]
        members = out["members"]
        errs = member_problems(members, N)
        if j["N"] != N:
            errs.append(f"gcd-sum N {j['N']} != {N}")
        if errs:
            return errs
        y_M = max(oracle.factor(m)[-1][0] if m > 1 else 1 for m in members)
        if j["y_M"] != y_M:
            errs.append(f"gcd-sum y_M {j['y_M']} != {y_M}")
        want = oracle.gcd_sum(members)
        if not _close(j["gcd_sum"], want, TOL):
            errs.append(f"gcd-sum {j['gcd_sum']!r} != identity {want!r}")
        ref = None
        if N >= 16:
            l1 = math.log(N)
            l2 = math.log(l1)
            ref = N * math.exp(2.0 * math.sqrt(l1 * math.log(l2) / l2))
        if not (j["reference"] == ref or (ref and _close(j["reference"], ref, 1e-12))):
            errs.append(f"gcd-sum reference {j['reference']!r} != {ref!r}")
        return errs

    def members(self, N: int) -> tuple[list[int], list[str]]:
        """Members of the size-N extremal set and what is wrong with them."""
        if N not in self._members:
            members = self._members_for(N)
            self._members[N] = (members, member_problems(members, N))
        return self._members[N]


def member_problems(members: list[int], N: int) -> list[str]:
    errs = []
    if len(members) != N:
        errs.append(f"{len(members)} members, expected {N}")
    if any(a >= b for a, b in zip(members, members[1:])):
        errs.append("members not strictly ascending")
    bad = [m for m in members if m < 1 or not oracle.is_squarefree(m)]
    if bad:
        errs.append(f"members not squarefree: {bad[:5]}")
    return errs


def _long_set_size(X: float, x: float, delta: float) -> int:
    """N of the long resonator: floor(X^(1/2 - delta) / x)."""
    return math.floor(X ** (0.5 - delta) / x)


def _medium_window_nonempty(X: float, x: float, delta: float) -> bool:
    # Medium resonator: primes in [lam^2, exp((log lam)^2)] up to y = X^(1/2-delta)/x^2.
    y = X ** (0.5 - delta) / (x * x)
    if y <= math.e:
        return False
    lam = math.sqrt(math.log(y) * math.log(math.log(y)))
    hi = min(math.exp(math.log(lam) ** 2), y)
    return bool(np.any(oracle.primes_upto(math.floor(hi)) >= lam * lam))
