"""Write the golden corpus of CLI outputs: one JSON file per case in this folder.

Each case holds the argv, the input files written before the run, the exit
code, stdout, stderr and the bytes of every file the request writes.  Paths
inside the temporary folder are written as "{tmp}" (see normalize), and help
texts are formatted at COLUMNS=80.  tests/test_golden.py replays every case
through quadchar.cli.main in process and compares the bytes.

Run it from the repository root against the source tree to pin:

    PYTHONPATH=src python tests/golden/generate.py

Rewriting a stored case is a change of test data; say why wherever the
change is logged.  Left out as too slow or too large for the test suite:
the smooth-table budget (`psi --x 1e10 --y 100` fills about 400 MiB before it
exits 2) and the prime-sieve budget (a factorization past 1e8 sieves to the
budget first, about 12 s).
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
TMP = "{tmp}"

# name -> (argv, {input file name: text}); "{tmp}" in argv is the temporary folder.
CASES = {
    # README examples
    "readme_psi": (["psi", "--x", "100", "--y", "5"], {}),
    "readme_delta_max_json": (["delta-max", "--X", "10", "--x", "5", "--json", "{tmp}/out.json"], {}),
    "readme_delta_max_abs_csv": (
        ["delta-max", "--X", "1e4", "--x", "50", "--abs", "--threads", "8", "--csv", "{tmp}/max.csv"],
        {},
    ),
    "readme_mean_value_csv": (["mean-value", "--n", "4", "--X", "1e6", "--csv", "{tmp}/mv.csv"], {}),
    "readme_resonate_short_csv": (
        ["resonate", "--variant", "short", "--X", "1e4", "--x", "50", "--alpha", "0.01",
         "--delta", "0.005", "--csv", "{tmp}/r.csv"],
        {},
    ),
    "readme_resonate_medium_json": (
        ["resonate", "--variant", "medium", "--X", "1e4", "--x", "3", "--squared",
         "--json", "{tmp}/r.json"],
        {},
    ),
    "readme_resonate_long": (
        ["resonate", "--variant", "long", "--X", "1e4", "--x", "5", "--threads", "4"], {}
    ),
    "readme_gcd_sum": (["gcd-sum", "--N", "1000"], {}),
    "readme_gcd_sum_set_file_json": (
        ["gcd-sum", "--set-file", "{tmp}/my_set.txt", "--json", "{tmp}/g.json"],
        {"my_set.txt": "1\n2\n3\n5\n6\n10\n15\n30\n"},
    ),
    # verify suites
    "verify_arith": (["verify", "arith"], {}),
    "verify_charsum": (["verify", "charsum"], {}),
    "verify_gcd": (["verify", "gcd"], {}),
    "verify_meanvalue": (["verify", "meanvalue"], {}),
    "verify_resonance": (["verify", "resonance"], {}),
    # benchmark shapes at their base sizes: scan
    "scan_1e5_x50": (["delta-max", "--X", "100000.0", "--x", "50.0", "--threads", "1"], {}),
    "scan_1e5_x50_abs": (
        ["delta-max", "--X", "100000.0", "--x", "50.0", "--threads", "1", "--abs"], {}
    ),
    "scan_3e4_x200": (["delta-max", "--X", "30000.0", "--x", "200.0", "--threads", "1"], {}),
    "scan_1e4_x1000": (["delta-max", "--X", "10000.0", "--x", "1000.0", "--threads", "1"], {}),
    # resonate
    "resonate_short_1e5": (
        ["resonate", "--variant", "short", "--X", "100000.0", "--x", "50.0", "--alpha", "0.01",
         "--delta", "0.01", "--threads", "1", "--json", "{tmp}/r.json"],
        {},
    ),
    "resonate_long_5e4": (
        ["resonate", "--variant", "long", "--X", "50000.0", "--x", "5.0", "--alpha", "0.01",
         "--delta", "0.01", "--threads", "1", "--json", "{tmp}/r.json"],
        {},
    ),
    "resonate_medium_3e5_squared": (
        ["resonate", "--variant", "medium", "--X", "300000.0", "--x", "3.0", "--alpha", "0.01",
         "--delta", "0.01", "--threads", "1", "--squared", "--json", "{tmp}/r.json"],
        {},
    ),
    # family
    "family_mean_value_100003": (
        ["mean-value", "--n", "100003", "--X", "1000000.0", "--json", "{tmp}/m.json"], {}
    ),
    "family_mean_value_10000": (["mean-value", "--n", "10000", "--X", "1000000.0"], {}),
    "family_mean_value_30030": (["mean-value", "--n", "30030", "--X", "1000000.0"], {}),
    "family_gcd_sum_2000": (
        ["gcd-sum", "--N", "2000", "--threads", "1", "--json", "{tmp}/g.json",
         "--csv", "{tmp}/g.csv", "--out-set", "{tmp}/set.txt"],
        {},
    ),
    "family_gcd_sum_3000": (["gcd-sum", "--N", "3000", "--threads", "1"], {}),
    # cli-cold
    "cold_psi": (["psi", "--x", "10000.0", "--y", "10.0"], {}),
    "cold_psi_inf": (["psi", "--x", "inf", "--y", "5.0"], {}),
    "cold_delta_max_1e3": (["delta-max", "--X", "1000.0", "--x", "30.0", "--threads", "1"], {}),
    "cold_delta_max_narrow_1e6": (
        ["delta-max", "--X", "1000000.0", "--x", "1000.0", "--threads", "1", "--hi", "1002000.0",
         "--json", "{tmp}/d.json", "--csv", "{tmp}/d.csv"],
        {},
    ),
    "cold_mean_value_36": (["mean-value", "--n", "36", "--X", "10000.0"], {}),
    "cold_resonate_short": (
        ["resonate", "--variant", "short", "--X", "2000.0", "--x", "20.0", "--alpha", "0.01",
         "--delta", "0.01", "--threads", "1"],
        {},
    ),
    "cold_resonate_long": (
        ["resonate", "--variant", "long", "--X", "5000.0", "--x", "3.0", "--alpha", "0.01",
         "--delta", "0.01", "--threads", "1", "--csv", "{tmp}/r.csv"],
        {},
    ),
    "cold_resonate_medium": (
        ["resonate", "--variant", "medium", "--X", "5000.0", "--x", "3.0", "--alpha", "0.01",
         "--delta", "0.01", "--threads", "1"],
        {},
    ),
    "cold_gcd_sum_200": (["gcd-sum", "--N", "200", "--threads", "1"], {}),
    # delta-max options and window edges
    "delta_max_include_unit": (["delta-max", "--X", "0.5", "--hi", "20", "--x", "5", "--include-unit"], {}),
    "delta_max_abs_small": (["delta-max", "--X", "100", "--x", "7", "--abs"], {}),
    "delta_max_x_past_X": (["delta-max", "--X", "100", "--x", "500", "--json", "{tmp}/d.json"], {}),
    "delta_max_unit_only": (["delta-max", "--X", "0.5", "--hi", "1", "--x", "5", "--include-unit"], {}),
    "delta_max_unit_only_masked": (["delta-max", "--X", "0.5", "--hi", "1", "--x", "5"], {}),
    "delta_max_empty_window": (["delta-max", "--X", "2", "--hi", "3", "--x", "5"], {}),
    "delta_max_inverted": (["delta-max", "--X", "10", "--hi", "5", "--x", "5"], {}),
    "delta_max_nonfinite": (["delta-max", "--X", "nan", "--x", "5"], {}),
    "delta_max_width_route_from_0": (["delta-max", "--X", "0.5", "--hi", "1e5", "--x", "30"], {}),
    "delta_max_width_route_from_30": (["delta-max", "--X", "30", "--hi", "1e5", "--x", "30"], {}),
    "delta_max_width_seam_lanes": (["delta-max", "--X", "1000", "--hi", "1120", "--x", "120"], {}),
    "delta_max_width_seam_per_d": (["delta-max", "--X", "1000", "--hi", "1120", "--x", "121"], {}),
    "resonate_short_x_past_X": (["resonate", "--variant", "short", "--X", "1e3", "--x", "1e8"], {}),
    "threads_0": (["delta-max", "--X", "10", "--x", "5", "--threads", "0"], {}),
    # one request per budget exit, and the other input errors
    "budget_fundamental_sieve": (["delta-max", "--X", "1e9", "--x", "5"], {}),
    "budget_spf_sieve": (
        ["delta-max", "--X", "10000000", "--hi", "10000010", "--x", "10000001"], {}
    ),
    "budget_char_table": (["mean-value", "--n", "1000000007", "--X", "10"], {}),
    "budget_gcd_set": (["gcd-sum", "--N", "2000000"], {}),
    "budget_long_resonator_sieve": (["resonate", "--variant", "long", "--X", "5e12", "--x", "2"], {}),
    "gcd_set_file_repeated": (
        ["gcd-sum", "--set-file", "{tmp}/dup.txt"], {"dup.txt": "1\n2\n2\n"}
    ),
    "gcd_set_file_missing": (["gcd-sum", "--set-file", "{tmp}/missing.txt"], {}),
    # help and usage texts
    "help": (["--help"], {}),
    "help_delta_max": (["delta-max", "--help"], {}),
    "help_verify": (["verify", "--help"], {}),
    "usage_no_command": ([], {}),
    "usage_verify_nosuch": (["verify", "nosuch"], {}),
    "usage_missing_option": (["psi", "--x", "10"], {}),
}


def normalize(text: str, tmp: str) -> str:
    """The one place machine-dependent text is rewritten: the temporary
    folder's path becomes "{tmp}"."""
    return text.replace(tmp, TMP)


def run_case(argv: list[str], inputs: dict[str, str], tmp: str) -> dict:
    """Run one request through quadchar.cli.main in this process, in the empty
    folder tmp, and return what it printed, its exit code and the files it wrote."""
    from quadchar import cli

    for name, text in inputs.items():
        Path(tmp, name).write_text(text, encoding="ascii")
    argv = [a.replace(TMP, tmp) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse: help, usage errors
            rc = exc.code
    return {
        "rc": rc,
        "stdout": normalize(out.getvalue(), tmp),
        "stderr": normalize(err.getvalue(), tmp),
        "files": {
            p.name: normalize(p.read_bytes().decode("ascii"), tmp)
            for p in sorted(Path(tmp).iterdir())
            if p.name not in inputs
        },
    }


def main() -> int:
    for old in HERE.glob("*.json"):
        old.unlink()
    for name, (argv, inputs) in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            case = {"argv": argv, "inputs": inputs, **run_case(argv, inputs, tmp)}
        (HERE / f"{name}.json").write_text(json.dumps(case, indent=1) + "\n", encoding="ascii")
        print(f"{name}: exit {case['rc']}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
