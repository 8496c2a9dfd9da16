"""Span tracer that wraps quadchar's public functions from outside the package.

``Tracer.install()`` replaces every public function of the library modules
(and ``cli.main``) with a wrapper that times the call.  Calls to functions in
``HOT`` are only aggregated (calls, total and self time), since they run once
per discriminant or per member; every other call also leaves a span
``(id, name, start_ns, end_ns, parent_id, request_id)`` in memory.  Self time
is a call's duration minus the time of the wrapped calls made inside it.

Run as a script, it executes one traced CLI request in a fresh process and
writes the trace as JSON:

    PYTHONPATH=src python3 perfbench/tracer.py OUT.json psi --x 100 --y 5
"""

import importlib
import inspect
import json
import math
import sys
import time

MODULES = ("arith", "charsums", "meanvalues", "resonance", "gcdsum")
HOT = {
    "arith.kronecker",
    "arith.smallest_prime_factors",
    "arith.primes_up_to",
    "arith.is_squarefree",
    "arith.is_fundamental",
    "arith.factorize",
    "arith.largest_prime_factor",
    "arith.squarefree_decompose",
    "resonance.resonator_value",
}
MAX_SPANS = 100_000


def _set_size(mset) -> int:
    return len(mset.members) if hasattr(mset, "members") else len(set(mset))


def _weight_terms(spec) -> int:
    # Terms of R(d): primes of the Euler product, support of the sum, or members.
    if spec.variant == "short":
        return len(spec.primes)
    if spec.variant == "medium":
        return len(spec.support)
    return len(spec.members)


# Work counts taken from a call's arguments and result: name -> (counter, fn).
COUNTERS = {
    "arith.enumerate_fundamental": ("arith.enumerate_fundamental.d", lambda a, r: len(r)),
    "charsums.delta_max": ("charsums.chi_terms", lambda a, r: r.scanned * math.floor(r.x)),
    "meanvalues.mean_value_sum": ("meanvalues.table_entries", lambda a, r: 8 * int(a["n"])),
    "resonance.moment_ratio": (
        "resonance.weight_terms",
        lambda a, r: r.discriminants_scanned * _weight_terms(r.spec),
    ),
    "gcdsum.gcd_sum": ("gcdsum.pairs", lambda a, r: _set_size(a["mset"]) ** 2),
}


class Tracer:
    def __init__(self):
        self.stats: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self.counts: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.dropped = 0
        self.request = None
        self._stack = [[0, None]]  # frames: [child_ns, id of the nearest span]
        self._next_id = 0
        self._originals: list[tuple] = []  # (module, attribute, function)

    def install(self) -> None:
        """Wrap the public functions of the library modules and cli.main."""
        for mod_name in MODULES:
            mod = importlib.import_module(f"quadchar.{mod_name}")
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    self._originals.append((mod, attr, fn))
                    setattr(mod, attr, self._wrap(f"{mod_name}.{attr}", fn))
        cli = importlib.import_module("quadchar.cli")
        self._originals.append((cli, "main", cli.main))
        cli.main = self._wrap("cli.main", cli.main)

    def uninstall(self) -> None:
        """Put the unwrapped functions back."""
        for mod, attr, fn in reversed(self._originals):
            setattr(mod, attr, fn)
        self._originals = []

    def snapshot(self) -> dict:
        return {
            "stats": {k: list(v) for k, v in self.stats.items() if v[0]},
            "counts": dict(self.counts),
            "spans": list(self.spans),
            "dropped_spans": self.dropped,
        }

    def _wrap(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0, 0])
        stack = self._stack
        clock = time.perf_counter_ns

        if name in HOT:
            def hot(*args, **kwargs):
                frame = [0, stack[-1][1]]
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    stack.pop()
                    stack[-1][0] += dt
                    stat[0] += 1
                    stat[1] += dt
                    stat[2] += dt - frame[0]

            return hot

        counter = COUNTERS.get(name)
        sig = inspect.signature(fn)

        def spanned(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            frame = [0, sid]
            parent = stack[-1][1]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                stack.pop()
                stack[-1][0] += dt
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[0]
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((sid, name, t0, t1, parent, self.request))
                else:
                    self.dropped += 1
            if counter:
                key, count = counter
                bound = sig.bind(*args, **kwargs).arguments
                self.counts[key] = self.counts.get(key, 0) + count(bound, result)
            return result

        return spanned


def merge(traces: list[dict]) -> dict:
    """Sum the stats and counts of several traces; concatenate their spans."""
    out = {"stats": {}, "counts": {}, "spans": [], "dropped_spans": 0}
    for t in traces:
        for k, v in t["stats"].items():
            acc = out["stats"].setdefault(k, [0, 0, 0])
            for i in range(3):
                acc[i] += v[i]
        for k, v in t["counts"].items():
            out["counts"][k] = out["counts"].get(k, 0) + v
        out["spans"] += t["spans"]
        out["dropped_spans"] += t["dropped_spans"]
    return out


def _child(out_path: str, argv: list[str]) -> int:
    t0 = time.perf_counter()
    import quadchar.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    tracer.request = 0
    try:
        return quadchar.cli.main(argv)
    finally:
        trace = tracer.snapshot()
        from quadchar import arith

        trace["import_s"] = import_s
        trace["spf_entries"] = len(arith.smallest_prime_factors(1))
        with open(out_path, "w", encoding="ascii") as fh:
            json.dump(trace, fh)


if __name__ == "__main__":
    sys.exit(_child(sys.argv[1], sys.argv[2:]))
