"""Smoke run of the benchmark at tiny sizes, in well under a minute.

    python3 perfbench/smoke.py

Runs every workload with --tiny for --trace 0 and --trace 1 and checks the
result line against BENCHMARK.json: the exact keys, every metric with its
unit, correct outputs, positive end-to-end figures and the expected share of
failed requests.  Then checks that the benchmark refuses to run, with a
nonzero exit and no result, in a copy holding only BENCHMARK.json and the
benchmark's own files.  Exits 1 on the first problem.
"""

import contextlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Failed requests per attempted: `psi --x inf` is 1 of the 10 cli-cold requests.
FAILED_SHARE = {"cli-cold": 0.1}


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "7", "--seconds", "1",
                             "--trace", str(trace), "--tiny"]
    return subprocess.run([sys.executable] + cmd[1:], cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def problems() -> list[str]:
    errs = []
    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(ROOT, workload, trace)
            tag = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                errs.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                errs.append(f"{tag}: result keys {sorted(result)}")
            if result["correct"] is not True:
                errs.append(f"{tag}: outputs wrong: {proc.stderr[-500:]}")
            share = result["failed"] / result["attempted"]
            if share != FAILED_SHARE.get(workload, 0.0):
                errs.append(f"{tag}: failed share {share}")
            want = {m["name"]: m["unit"] for m in SPEC[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                errs.append(f"{tag}: metrics {sorted(set(got) ^ set(want))} differ from BENCHMARK.json")
            if trace == 0:
                errs += [f"{tag}: {k} = {v['value']}" for k, v in result["metrics"].items()
                         if not v["value"] > 0]
            print(f"{tag}: ok, {result['attempted']} requests", flush=True)
    bare = ROOT / "perfbench" / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        for p in SPEC["paths"]:
            shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("_work", "out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _run(bare, "scan", 0)
        if proc.returncode == 0 or proc.stdout.strip():
            errs.append(f"bare copy: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            bare.parent.rmdir()
    return errs


if __name__ == "__main__":
    errs = problems()
    for e in errs:
        print(e)
    print(f"smoke: {'FAIL' if errs else 'ok'}")
    sys.exit(1 if errs else 0)
