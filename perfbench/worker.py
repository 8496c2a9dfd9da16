"""The workload process: runs passes of CLI requests for run.py.

It reads one JSON command per line on stdin and answers each with one JSON
line on stdout:

    {"op": "probe", "requests": [argv, ...]}
                                        -> {"plan": {...}, "import_s": s}   (warm only)
    {"op": "pass", "requests": [argv, ...], "trace": bool}
                                        -> {"wall_s": s, "gauge_s": [s, ...],
                                            "results": [...], "trace": {...} | null}
    {"op": "finish"}                    -> {"maxrss_kb": kb}

``--mode warm`` calls ``quadchar.cli.main`` in this process; ``--mode cold``
starts a fresh ``python -m quadchar.cli`` process per request (traced
requests go through ``tracer.py`` instead).  A pass has the gauge process
(gauge.py) run one chunk before each request and reports those times apart
from the pass's own.  ``--setup-only PLAN`` times one warm set-up, prints it and
exits.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time
import traceback

from gauge import Gauge
from tracer import Tracer, merge

HERE = os.path.dirname(os.path.abspath(__file__))
SIEVES = ("fundamental_flags", "smallest_prime_factors", "primes_up_to")


class Warm:
    def __init__(self, gauge: Gauge | None = None):
        self.gauge = gauge
        self.cli = None

    def setup(self, plan: dict) -> dict:
        """Import the CLI and fill each cached sieve of arith to ``plan[name]``."""
        t0 = time.perf_counter()
        import quadchar.cli
        from quadchar import arith

        for name in SIEVES:
            getattr(arith, name)(plan[name])
        return {"setup_s": time.perf_counter() - t0}

    def probe(self, requests: list) -> dict:
        """Run one pass off the clock and record the largest argument each
        cached sieve of arith gets: the set-up fills the sieves to those."""
        t0 = time.perf_counter()
        import quadchar.cli
        from quadchar import arith

        import_s = time.perf_counter() - t0
        self.cli = quadchar.cli
        plan = dict.fromkeys(SIEVES, 1)
        originals = {name: getattr(arith, name) for name in SIEVES}

        def recording(name, fn):
            def call(n, *args, **kwargs):
                plan[name] = max(plan[name], int(n))
                return fn(n, *args, **kwargs)

            return call

        for name, fn in originals.items():
            setattr(arith, name, recording(name, fn))
        try:
            self.run_pass(requests, trace=False)
        finally:
            for name, fn in originals.items():
                setattr(arith, name, fn)
        return {"plan": plan, "import_s": import_s}

    def run_pass(self, requests: list, trace: bool) -> dict:
        tracer = Tracer() if trace else None
        if tracer:
            tracer.install()
        try:
            results, gauges = self._requests(requests, tracer)
        finally:
            if tracer:
                tracer.uninstall()
        snap = None
        if tracer:
            snap = tracer.snapshot()
            from quadchar import arith

            snap["spf_entries"] = len(arith.smallest_prime_factors(1))
            snap["import_s"] = None
        return {"wall_s": sum(r["wall_s"] for r in results), "gauge_s": gauges,
                "results": results, "trace": snap}

    def _requests(self, requests: list, tracer: Tracer | None) -> tuple[list, list]:
        results, gauges = [], []
        for i, argv in enumerate(requests):
            gauges.append(self.gauge.chunk_s())
            if tracer:
                tracer.request = i
            out, err = io.StringIO(), io.StringIO()
            exc = None
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = self.cli.main(argv)
            except SystemExit as e:  # argparse rejects arguments this way
                rc = e.code if isinstance(e.code, int) else 1
            except Exception as e:  # an uncaught error ends the CLI with exit 1
                rc, exc = 1, e
            wall = time.perf_counter() - t0
            if exc is not None:
                err.write("".join(traceback.format_exception(exc)))
            results.append({"rc": rc, "wall_s": wall, "stdout": out.getvalue(),
                            "stderr": err.getvalue()})
        return results, gauges

    def maxrss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Cold:
    def __init__(self, gauge: Gauge, work_dir: str):
        self.gauge = gauge
        self.work_dir = work_dir
        self.env = dict(os.environ, PYTHONPATH="src")

    def run_pass(self, requests: list, trace: bool) -> dict:
        results, traces, gauges = [], [], []
        for i, argv in enumerate(requests):
            gauges.append(self.gauge.chunk_s())
            trace_path = os.path.join(self.work_dir, f"trace{i}.json")
            if trace:
                cmd = [sys.executable, os.path.join(HERE, "tracer.py"), trace_path] + argv
            else:
                cmd = [sys.executable, "-m", "quadchar.cli"] + argv
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True)
            wall = time.perf_counter() - t0
            results.append({"rc": proc.returncode, "wall_s": wall, "stdout": proc.stdout,
                            "stderr": proc.stderr})
            if trace:
                with open(trace_path, encoding="ascii") as fh:
                    traces.append(json.load(fh))
        snap = None
        if trace:
            for i, t in enumerate(traces):
                t["spans"] = [s[:5] + [i] for s in t["spans"]]
            snap = merge(traces)
            snap["spf_entries"] = max(t["spf_entries"] for t in traces)
            snap["import_s"] = sum(t["import_s"] for t in traces)
        return {"wall_s": sum(r["wall_s"] for r in results), "gauge_s": gauges,
                "results": results, "trace": snap}

    def maxrss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("warm", "cold"), required=True)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--setup-only", default=None, metavar="PLAN_JSON")
    args = ap.parse_args()
    if args.setup_only is not None:
        print(json.dumps(Warm().setup(json.loads(args.setup_only))), flush=True)
        return 0
    gauge = Gauge()
    runner = Warm(gauge) if args.mode == "warm" else Cold(gauge, args.work_dir)
    try:
        for line in sys.stdin:
            msg = json.loads(line)
            if msg["op"] == "probe":
                reply = runner.probe(msg["requests"])
            elif msg["op"] == "pass":
                reply = runner.run_pass(msg["requests"], msg["trace"])
            elif msg["op"] == "finish":
                # Read before the gauge process ends, so that it is not among
                # the children counted on cli-cold.
                print(json.dumps({"maxrss_kb": runner.maxrss_kb()}), flush=True)
                return 0
            else:
                raise ValueError(f"unknown op {msg['op']!r}")
            print(json.dumps(reply), flush=True)
        return 1
    finally:
        gauge.close()


if __name__ == "__main__":
    sys.exit(main())
