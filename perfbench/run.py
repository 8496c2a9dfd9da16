"""quadchar sweep benchmark: one workload per run, one client in a closed loop.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload family --seed 1 --seconds 2 --trace 1 --tiny

Run from the root of a source checkout (the library is imported from
``src``).  A workload process (worker.py) issues passes of CLI requests
until ``--seconds`` of pass time have been measured; every output is
checked against the independent oracle between passes.  ``--trace 0``
reports the end-to-end metrics, with times scaled to the machine's nominal
speed (gauge.py); ``--trace 1`` alternates untraced and traced passes, half
the time each, and reports the per-layer metrics and the tracing overhead.
Metric names and units are read from BENCHMARK.json.
``--tiny`` shrinks every request so a run takes seconds.  The last line of
stdout is the result as JSON; metric lines and check failures come before it.
"""

import argparse
import contextlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gauge
import selfcheck
from checks import Checker
from workloads import COMMAND_METRICS, WARM, WORKLOADS, Largest, requests

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 9

# Metric names and units, by section ("end_to_end", "per_layer").
UNITS = {section: {m["name"]: m["unit"] for m in metrics}
         for section, metrics in json.loads((ROOT / "BENCHMARK.json").read_text()).items()
         if section in ("end_to_end", "per_layer")}


def layer_metrics(trace: dict) -> dict:
    """Per-layer figures of one traced pass (times in seconds per pass)."""
    stats, counts = trace["stats"], trace["counts"]

    def calls(fn):
        return stats.get(fn, [0, 0, 0])[0]

    def total(fn):
        return stats.get(fn, [0, 0, 0])[1] / 1e9

    def self_s(fn):
        return stats.get(fn, [0, 0, 0])[2] / 1e9

    def per_s(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    m = {}
    for fn in ("kronecker", "factorize", "is_squarefree"):
        m[f"arith.{fn}.calls"] = calls(f"arith.{fn}")
    for fn in ("kronecker", "fundamental_flags", "enumerate_fundamental", "smallest_prime_factors",
               "primes_up_to", "factorize", "is_squarefree", "psi_count"):
        m[f"arith.{fn}.s"] = total(f"arith.{fn}")
    m["arith.enumerate_fundamental.d"] = counts.get("arith.enumerate_fundamental.d", 0)
    m["arith.spf_cache_entries"] = trace["spf_entries"]
    m["charsums.delta_max.s"] = total("charsums.delta_max")
    m["charsums.delta_max.self_s"] = self_s("charsums.delta_max")
    m["charsums.chi_terms"] = counts.get("charsums.chi_terms", 0)
    m["charsums.chi_terms_per_s"] = per_s(m["charsums.chi_terms"], m["charsums.delta_max.s"])
    m["meanvalues.mean_value_report.s"] = total("meanvalues.mean_value_report")
    m["meanvalues.mean_value_sum.s"] = total("meanvalues.mean_value_sum")
    m["meanvalues.mean_value_sum.self_s"] = self_s("meanvalues.mean_value_sum")
    m["meanvalues.table_entries"] = counts.get("meanvalues.table_entries", 0)
    m["resonance.build_resonator.s"] = total("resonance.build_resonator")
    m["resonance.moment_ratio.s"] = total("resonance.moment_ratio")
    m["resonance.moment_ratio.self_s"] = self_s("resonance.moment_ratio")
    m["resonance.resonator_value.calls"] = calls("resonance.resonator_value")
    m["resonance.resonator_value.s"] = total("resonance.resonator_value")
    m["resonance.short_chain_bound.s"] = total("resonance.short_chain_bound")
    m["resonance.weight_terms"] = counts.get("resonance.weight_terms", 0)
    m["gcdsum.construct_extremal_set.s"] = total("gcdsum.construct_extremal_set")
    m["gcdsum.gcd_sum.calls"] = calls("gcdsum.gcd_sum")
    m["gcdsum.gcd_sum.s"] = total("gcdsum.gcd_sum")
    m["gcdsum.pairs"] = counts.get("gcdsum.pairs", 0)
    m["gcdsum.pairs_per_s"] = per_s(m["gcdsum.pairs"], m["gcdsum.gcd_sum.s"])
    m["cli.main.s"] = total("cli.main")
    m["cli.self_s"] = self_s("cli.main")  # main minus every wrapped library call inside it
    return m


class Run:
    def __init__(self, args, work: Path):
        self.args = args
        self.work = work
        self.warm = args.workload in WARM
        self.env = dict(os.environ, PYTHONPATH="src")
        self.checker = Checker(self._members_for)
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    # The long resonator's set is checked as `gcd-sum --out-set` writes it.
    def _members_for(self, N: int) -> list[int]:
        path = self.work / f"members{N}.txt"
        argv = ["gcd-sum", "--N", str(N), "--threads", "1", "--out-set", str(path)]
        subprocess.run([sys.executable, "-m", "quadchar.cli"] + argv, cwd=ROOT, env=self.env,
                       check=True, capture_output=True)
        return [int(line) for line in path.read_text().split()]

    def _setup_sample(self, plan: dict | None) -> float:
        """One set-up in a fresh process (see README, "End-to-end metrics")."""
        if self.warm:
            cmd = [sys.executable, str(HERE / "worker.py"), "--mode", "warm",
                   "--work-dir", str(self.work), "--setup-only", json.dumps(plan)]
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, check=True,
                                  capture_output=True, text=True)
            return json.loads(proc.stdout.splitlines()[-1])["setup_s"]
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import quadchar.cli"], cwd=ROOT, env=self.env,
                       check=True)
        return time.perf_counter() - t0

    def _call(self, worker, msg: dict) -> dict:
        worker.stdin.write(json.dumps(msg) + "\n")
        worker.stdin.flush()
        line = worker.stdout.readline()
        if not line:
            raise RuntimeError(f"workload process ended (exit {worker.wait()})")
        return json.loads(line)

    def _argvs(self, reqs: list[dict]) -> list[list[str]]:
        argvs = []
        for i, req in enumerate(reqs):
            argv = list(req["args"])
            if req["cmd"] not in ("psi", "verify"):
                argv += ["--json", str(self.work / f"r{i}.json")]
            if req["cmd"] == "gcd-sum":
                argv += ["--out-set", str(self.work / f"r{i}.set")]
            argvs.append(argv)
        for f in self.work.glob("r*.*"):
            f.unlink()
        return argvs

    def _pass(self, worker, reqs: list[dict], traced: bool) -> dict:
        reply = self._call(worker, {"op": "pass", "requests": self._argvs(reqs), "trace": traced})
        # Off the clock from here on: read outputs and check them.
        per_cmd = dict.fromkeys(COMMAND_METRICS.values(), 0.0)
        out_bytes = 0
        for i, (req, res) in enumerate(zip(reqs, reply["results"])):
            self.attempted += 1
            if req["cmd"] in COMMAND_METRICS:
                per_cmd[COMMAND_METRICS[req["cmd"]]] += res["wall_s"]
            out_bytes += len(res["stdout"].encode())
            for suffix in ("json", "set"):
                f = self.work / f"r{i}.{suffix}"
                if f.exists():
                    out_bytes += f.stat().st_size
            if res["rc"] != req["rc"]:
                self.failed += 1
                last = (res["stderr"].strip().splitlines() or [""])[-1]
                print(f"failed: {' '.join(req['args'])}: exit {res['rc']}, expected {req['rc']}: {last}",
                      file=sys.stderr)
                continue
            res["json"] = _read_json(self.work / f"r{i}.json")
            res["members"] = _read_ints(self.work / f"r{i}.set")
            try:
                found = self.checker.check(req, res)
            except (KeyError, TypeError, ValueError) as e:  # missing or malformed output
                found = [f"unreadable output: {e!r}"]
            self.problems += [f"{' '.join(req['args'])}: {p}" for p in found]
        return {"wall_s": reply["wall_s"], "gauge_s": reply["gauge_s"], "per_cmd": per_cmd,
                "out_bytes": out_bytes, "trace": reply["trace"]}

    def execute(self) -> dict:
        a = self.args
        self.problems += [f"oracle self-check: {p}" for p in selfcheck.problems()]
        # Set-up samples are spread between the passes, so that their median
        # covers the same stretch of time as the passes' median.  A traced run
        # reports no set-up time and takes none.
        setups: list[float] = []
        n_setups = 0 if a.trace else 1 if a.tiny else SETUP_SAMPLES
        mode = "warm" if self.warm else "cold"
        worker = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "--mode", mode, "--work-dir", str(self.work)],
            cwd=ROOT, env=self.env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        plan = import_s = None
        passes = {False: [], True: []}  # keyed by traced
        spent = {False: 0.0, True: 0.0}
        sides = (False, True) if a.trace else (False,)
        budget = a.seconds / len(sides)
        try:
            if self.warm:
                probe = requests(a.workload, Largest(), a.tiny)
                r = self._call(worker, {"op": "probe", "requests": self._argvs(probe)})
                plan, import_s = r["plan"], r["import_s"]
            rng = random.Random(a.seed)
            # Traced and untraced passes alternate, so drift in the machine's
            # speed falls on both alike.
            while any(not passes[t] or spent[t] < budget for t in sides):
                for tracing in sides:
                    if passes[tracing] and spent[tracing] >= budget:
                        continue
                    if len(setups) < n_setups:
                        setups.append(self._setup_sample(plan))
                    p = self._pass(worker, requests(a.workload, rng, a.tiny), tracing)
                    passes[tracing].append(p)
                    spent[tracing] += p["wall_s"]
                    print(f"pass {len(passes[tracing])}{' traced' if tracing else ''}: "
                          f"{p['wall_s']:.3f} s", file=sys.stderr)
            maxrss_kb = self._call(worker, {"op": "finish"})["maxrss_kb"]
            while len(setups) < n_setups:
                setups.append(self._setup_sample(plan))
        finally:
            worker.stdin.close()
            try:
                worker.wait(timeout=30)
            except subprocess.TimeoutExpired:
                worker.kill()
                worker.wait()

        untraced, traced = passes[False], passes[True]
        gauge_s = statistics.median(g for p in untraced for g in p["gauge_s"])
        sweep_s = statistics.median(p["wall_s"] for p in untraced)
        scale = gauge.NOMINAL_S / gauge_s
        if not a.trace:
            setup_s = statistics.median(setups)
            print(f"wall times: sweep {sweep_s:.4f} s, setup {setup_s:.4f} s; "
                  f"gauge chunk {gauge_s:.4f} s, scale {scale:.4f}", file=sys.stderr)
            metrics = {
                "setup_s": setup_s * scale,
                "sweep_s": sweep_s * scale,
                "peak_rss_mib": maxrss_kb / 1024,
            }
            units = UNITS["end_to_end"]
        else:
            rows = []
            for p in traced:
                m = layer_metrics(p["trace"])
                m["cli.output_bytes"] = p["out_bytes"]
                m["process.import_s"] = import_s if import_s is not None else p["trace"]["import_s"]
                rows.append(m)
            # median_low keeps every figure one that a pass actually produced
            metrics = {k: statistics.median_low(r[k] for r in rows) for k in rows[0]}
            for name in COMMAND_METRICS.values():
                metrics[name] = statistics.median(p["per_cmd"][name] for p in untraced)
            metrics["trace.overhead_pct"] = 100 * (
                statistics.median(p["wall_s"] for p in traced) / sweep_s - 1)
            metrics["gauge.chunk_s"] = gauge_s
            metrics["sweep_wall_s"] = sweep_s
            units = UNITS["per_layer"]
            self._write_trace(traced)
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        }

    def _write_trace(self, traced: list[dict]) -> None:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        path = out / f"trace-{self.args.workload}-seed{self.args.seed}.json"
        fields = ("id", "name", "start_ns", "end_ns", "parent", "request")
        passes = [{"stats": p["trace"]["stats"], "counts": p["trace"]["counts"],
                   "dropped_spans": p["trace"]["dropped_spans"],
                   "spans": [dict(zip(fields, s)) for s in p["trace"]["spans"]]} for p in traced]
        path.write_text(json.dumps({"workload": self.args.workload, "seed": self.args.seed,
                                    "passes": passes}))


def _read_json(path: Path):
    return json.loads(path.read_text()) if path.exists() else None


def _read_ints(path: Path):
    return [int(v) for v in path.read_text().split()] if path.exists() else None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="shrink every request (smoke runs)")
    args = ap.parse_args()
    if not (ROOT / "src" / "quadchar" / "cli.py").is_file():
        print(f"error: no quadchar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One client runs one request at a time, so the run and every process it
    # starts share one CPU: the gauge chunks then time the same CPU as the
    # requests, and a run never migrates between CPUs.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    work = HERE / "_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    run = Run(args, work)
    try:
        result = run.execute()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    for problem in run.problems:
        print(f"wrong: {problem}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} attempted={result['attempted']} failed={result['failed']} "
          f"correct={result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
