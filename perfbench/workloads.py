"""Request mixes of the four workloads.

A request is a dict: ``cmd`` (the subcommand), ``args`` (its command-line
arguments, output paths excluded), ``params`` (the numbers the checks need)
and ``rc`` (the exit code the request must end with).  Window sizes and set
sizes carry a seeded jitter below 1%, so every seed issues the same amount of
work on different inputs.
"""

import math

WARM = ("scan", "resonate", "family")
WORKLOADS = WARM + ("cli-cold",)

# Subcommands whose pass time is reported on its own, keyed by metric name.
COMMAND_METRICS = {
    "delta-max": "delta_max_s",
    "resonate": "resonate_s",
    "mean-value": "mean_value_s",
    "gcd-sum": "gcd_sum_s",
    "psi": "psi_s",
}


def _num(v) -> str:
    return repr(float(v)) if v != math.inf else "inf"


def _jitter(rng, base: float) -> int:
    return int(base) + rng.randrange(max(int(base) // 100, 1))


def delta_max(X, x, hi=None, absolute=False):
    args = ["delta-max", "--X", _num(X), "--x", _num(x), "--threads", "1"]
    if hi is not None:
        args += ["--hi", _num(hi)]
    if absolute:
        args.append("--abs")
    params = {"X": X, "x": x, "hi": 2 * X if hi is None else hi, "absolute": absolute}
    return {"cmd": "delta-max", "args": args, "params": params, "rc": 0}


def resonate(variant, X, x, squared=False, alpha=0.01, delta=0.01):
    args = ["resonate", "--variant", variant, "--X", _num(X), "--x", _num(x),
            "--alpha", _num(alpha), "--delta", _num(delta), "--threads", "1"]
    if squared:
        args.append("--squared")
    params = {"variant": variant, "X": X, "x": x, "squared": squared,
              "alpha": alpha, "delta": delta}
    return {"cmd": "resonate", "args": args, "params": params, "rc": 0}


def mean_value(n, X):
    args = ["mean-value", "--n", str(n), "--X", _num(X)]
    return {"cmd": "mean-value", "args": args, "params": {"n": n, "X": X}, "rc": 0}


def gcd_sum(N):
    args = ["gcd-sum", "--N", str(N), "--threads", "1"]
    return {"cmd": "gcd-sum", "args": args, "params": {"N": N}, "rc": 0}


def psi(x, y, rc=0):
    args = ["psi", "--x", _num(x), "--y", _num(y)]
    return {"cmd": "psi", "args": args, "params": {"x": x, "y": y}, "rc": rc}


def verify(suite):
    return {"cmd": "verify", "args": ["verify", suite], "params": {"suite": suite}, "rc": 0}


def requests(workload: str, rng, tiny: bool = False) -> list[dict]:
    """One pass of ``workload``; ``rng`` is a random.Random seeded by the run."""

    def j(base):
        return _jitter(rng, base)

    if workload == "scan":
        s = 100 if tiny else 1
        return [
            delta_max(j(1e5 / s), 50),
            delta_max(j(1e5 / s), 50, absolute=True),
            delta_max(j(3e4 / s), 200),
            delta_max(j(1e4 / s), 1000),
        ]
    if workload == "resonate":
        s = 100 if tiny else 1
        return [
            resonate("short", j(1e5 / s), 50),
            resonate("long", j(5e4 / s), 5),
            resonate("medium", j(3e5 / s), 3, squared=True),
        ]
    if workload == "family":
        if tiny:
            ns, X, Ns = (101, 100, 30), 1e4, (100, 150)
        else:
            ns, X, Ns = (100003, 10000, 30030), 1e6, (2000, 3000)
        return [mean_value(n, j(X)) for n in ns] + [gcd_sum(j(N)) for N in Ns]
    if workload == "cli-cold":
        X_high = j(1e6)
        return [
            psi(j(1e4), 10 + rng.randrange(20)),
            psi(math.inf, 5, rc=2),
            delta_max(j(1e3), 30),
            delta_max(X_high, 1000, hi=X_high + 2000),
            mean_value(36, j(1e4)),
            resonate("short", j(2e3), 20),
            resonate("long", j(5e3), 3),
            resonate("medium", j(5e3), 3),
            gcd_sum(j(200)),
            verify("meanvalue"),
        ]
    raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")


class Largest:
    """Stands in for random.Random and always draws the largest value.

    One pass drawn with it asks every cached sieve for at least as much as
    any seeded pass does; run.py probes the sieve sizes on that pass.
    """

    def randrange(self, n: int) -> int:
        return n - 1
