import json
import os
import subprocess
import sys

import pytest

import quadchar
from quadchar import arith, cli, gcdsum


def run_cli(*argv) -> int:
    return cli.main(list(argv))


def test_psi_prints_bare_count(capsys):
    assert run_cli("psi", "--x", "100", "--y", "5") == 0
    assert capsys.readouterr().out.strip() == "34"


def test_psi_accepts_scientific_notation(capsys):
    assert run_cli("psi", "--x", "1e2", "--y", "5") == 0
    assert capsys.readouterr().out.strip() == "34"


def test_delta_max_json_contract(tmp_path, capsys):
    out = tmp_path / "out.json"
    assert run_cli("delta-max", "--X", "10", "--x", "5", "--json", str(out)) == 0
    payload = json.loads(out.read_text())
    assert payload["d_star"] == 13
    assert payload["S_star"] == 1
    assert payload["X_lo"] == 10.0 and payload["X_hi"] == 20.0
    assert payload["scanned"] == 3
    capsys.readouterr()


def test_delta_max_csv(tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert run_cli("delta-max", "--X", "10", "--x", "5", "--csv", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "X_lo,X_hi,x,d_star,S_star,scanned,absolute"
    assert lines[1].split(",")[3] == "13"
    capsys.readouterr()


def test_resonate_csv_header_and_holds(tmp_path, capsys):
    out = tmp_path / "r.csv"
    rc = run_cli(
        "resonate", "--variant", "short", "--X", "1e4", "--x", "50",
        "--alpha", "0.01", "--delta", "0.005", "--csv", str(out),
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "variant,X,x,M1,M2,ratio,observed_max,holds"
    assert lines[1].startswith("short,10000.0,50.0,")
    assert lines[1].endswith(",True")
    capsys.readouterr()


def test_resonate_json_payload(tmp_path, capsys):
    out = tmp_path / "r.json"
    rc = run_cli(
        "resonate", "--variant", "long", "--X", "2000", "--x", "4",
        "--squared", "--json", str(out),
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    for key in ("variant", "X", "x", "params", "M1", "M2", "ratio",
                "observed_max", "squared", "holds", "scanned", "theorem",
                "predicted_shape"):
        assert key in payload
    assert payload["variant"] == "long"
    assert payload["squared"] is True
    assert payload["holds"] is True
    assert payload["theorem"] == "1.3"
    assert payload["params"]["N"] >= 1
    capsys.readouterr()


def test_mean_value_csv_schema(tmp_path, capsys):
    out = tmp_path / "mv.csv"
    assert run_cli("mean-value", "--n", "4", "--X", "1e4", "--csv", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,X,exact_sum,main_term,residual,uncond_envelope,grh_envelope"
    capsys.readouterr()


def test_gcd_sum_set_file(tmp_path, capsys):
    setfile = tmp_path / "m.txt"
    setfile.write_text("2\n3\n")
    out = tmp_path / "g.json"
    assert run_cli("gcd-sum", "--set-file", str(setfile), "--json", str(out)) == 0
    payload = json.loads(out.read_text())
    assert payload["N"] == 2
    assert abs(payload["gcd_sum"] - (2 + 2 / 6**0.5)) < 1e-12
    assert payload["reference"] is None
    capsys.readouterr()


def test_gcd_sum_build_and_export(tmp_path, capsys):
    out_set = tmp_path / "set.txt"
    assert run_cli("gcd-sum", "--N", "40", "--out-set", str(out_set)) == 0
    rows = [int(v) for v in out_set.read_text().split()]
    assert len(rows) == 40
    capsys.readouterr()


def test_exit_code_empty_window(capsys):
    assert run_cli("delta-max", "--X", "2", "--x", "5", "--hi", "4") == 3
    err = capsys.readouterr().err
    assert "error:" in err and err.count("\n") == 1


def test_exit_code_precondition(capsys):
    assert run_cli("resonate", "--variant", "short", "--X", "10", "--x", "50") == 2
    assert run_cli("mean-value", "--n", "0", "--X", "100") == 2
    assert run_cli("psi", "--x", "0.5", "--y", "3") == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ("psi", "--x", "inf", "--y", "5"),
        ("delta-max", "--X", "inf", "--x", "5"),
        ("delta-max", "--X", "10", "--x", "inf"),
        ("mean-value", "--n", "4", "--X", "inf"),
        ("resonate", "--variant", "long", "--X", "inf", "--x", "5"),
    ],
    ids=["psi-x", "delta-max-X", "delta-max-x", "mean-value-X", "resonate-X"],
)
def test_non_finite_input_exits_2(argv, capsys):
    assert run_cli(*argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and "finite" in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [("delta-max", "--X", "1e12", "--x", "5"), ("mean-value", "--n", "3", "--X", "1e12")],
    ids=["delta-max", "mean-value"],
)
def test_sieve_past_budget_exits_2(argv, capsys):
    # Far past the fundamental sieve budget: refused before anything is allocated.
    assert run_cli(*argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and "exceeds its budget" in err and err.count("\n") == 1


def test_char_table_past_budget_exits_2(capsys):
    # n = 1000000007 is prime, so its table would have 1e9 entries.
    assert run_cli("mean-value", "--n", "1000000007", "--X", "10") == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and "exceeds its budget" in err and err.count("\n") == 1


@pytest.mark.parametrize("n, rc", [(101, 0), (202, 2), (103, 2), (200, 0)])
def test_char_table_budget_boundary(n, rc, monkeypatch, capsys):
    # P is 101 for n = 101, 808 for n = 202, 103 for n = 103 and 40 for n = 200.
    monkeypatch.setattr(arith, "CHAR_TABLE_BUDGET", 101)
    assert run_cli("mean-value", "--n", str(n), "--X", "1e3") == rc
    capsys.readouterr()


@pytest.mark.parametrize("budget, rc", [(137, 0), (136, 2)])
def test_smooth_table_budget_boundary(budget, rc, monkeypatch, capsys):
    # psi --x 20 --y 5 builds the table of the 137 5-smooth numbers up to
    # 4096, the smallest table size.
    monkeypatch.setattr(arith, "SMOOTH_TABLE_BUDGET", budget)
    arith._smooth_table.cache_clear()
    try:
        assert run_cli("psi", "--x", "20", "--y", "5") == rc
    finally:
        arith._smooth_table.cache_clear()
    capsys.readouterr()


def test_smooth_table_past_budget_exits_2(monkeypatch, capsys):
    # The real budget is reached only after about 500 MiB; a low one shows the exit.
    monkeypatch.setattr(arith, "SMOOTH_TABLE_BUDGET", 10**5)
    arith._smooth_table.cache_clear()
    try:
        assert run_cli("psi", "--x", "1e12", "--y", "1e5") == 2
    finally:
        arith._smooth_table.cache_clear()
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and "exceeds its budget" in err and err.count("\n") == 1


@pytest.mark.parametrize("N, rc", [(50, 0), (51, 2)])
def test_gcd_set_budget_boundary(N, rc, monkeypatch, capsys):
    monkeypatch.setattr(gcdsum, "GCD_SET_BUDGET", 50)
    assert run_cli("gcd-sum", "--N", str(N)) == rc
    out, err = capsys.readouterr()
    if rc:
        assert out == ""
        assert err.startswith("error:") and "exceeds its budget" in err and err.count("\n") == 1


@pytest.mark.parametrize("budget, rc", [(18, 0), (17, 2)])
def test_long_resonator_set_budget_boundary(budget, rc, monkeypatch, capsys):
    # The long resonator at X = 1e4, x = 5 asks for a set of N = 18 members.
    monkeypatch.setattr(gcdsum, "GCD_SET_BUDGET", budget)
    assert run_cli("resonate", "--variant", "long", "--X", "1e4", "--x", "5") == rc
    capsys.readouterr()


def _no_extremal_set(N):
    raise AssertionError("the GCD set is built before the sieve budget is checked")


def test_long_resonator_past_sieve_budget_exits_2(monkeypatch, capsys):
    # floor(2X) = 1e13 fundamental flags: refused before the set of N = 834,574 is built.
    monkeypatch.setattr(gcdsum, "construct_extremal_set", _no_extremal_set)
    assert run_cli("resonate", "--variant", "long", "--X", "5e12", "--x", "2") == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: fundamental sieve up to 10000000000000 exceeds its budget of 100000000\n"


@pytest.mark.parametrize("X, rc", [("5000", 0), ("5000.5", 2)])
def test_long_resonator_sieve_budget_boundary(X, rc, monkeypatch, capsys):
    # floor(2X) = 10000 is at the lowered budget, 10001 is past it.
    monkeypatch.setattr(arith, "FUNDAMENTAL_SIEVE_BUDGET", 10**4)
    if rc:
        monkeypatch.setattr(gcdsum, "construct_extremal_set", _no_extremal_set)
    assert run_cli("resonate", "--variant", "long", "--X", X, "--x", "3") == rc
    out, err = capsys.readouterr()
    if rc:
        assert out == "" and "exceeds its budget" in err


def test_memory_error_exits_2(monkeypatch, capsys):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setitem(cli._DISPATCH, "psi", exhausted)
    assert run_cli("psi", "--x", "100", "--y", "5") == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and "out of memory" in err and err.count("\n") == 1


def test_cli_never_imports_numpy():
    code = (
        "import sys\n"
        "import quadchar, quadchar.cli\n"
        "for argv in (['psi', '--x', '100', '--y', '5'], ['delta-max', '--X', '10', '--x', '5'],\n"
        "             ['mean-value', '--n', '4', '--X', '1e3']):\n"
        "    assert quadchar.cli.main(argv) == 0, argv\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    src = os.path.dirname(os.path.dirname(quadchar.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_exits_2(threads, capsys):
    for argv in (
        ("delta-max", "--X", "10", "--x", "5"),
        ("resonate", "--variant", "short", "--X", "3000", "--x", "25"),
        ("gcd-sum", "--N", "10"),
    ):
        assert run_cli(*argv, "--threads", threads) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: --threads must be >= 1, got {threads}\n"


def test_gcd_sum_set_file_rejects_repeated_member(tmp_path, capsys):
    setfile = tmp_path / "m.txt"
    setfile.write_text("6\n6\n10\n")
    out = tmp_path / "g.json"
    assert run_cli("gcd-sum", "--set-file", str(setfile), "--json", str(out)) == 2
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err.startswith("error:") and "member 6 appears on more than one line" in err
    assert not out.exists()


def test_verify_subcommand_passes(capsys):
    assert run_cli("verify", "meanvalue") == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out


def test_no_partial_output_on_failure(tmp_path, capsys):
    out = tmp_path / "never.json"
    assert run_cli("delta-max", "--X", "2", "--x", "5", "--hi", "4", "--json", str(out)) == 3
    assert not out.exists()
    capsys.readouterr()


def test_identical_runs_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["resonate", "--variant", "short", "--X", "3000", "--x", "25",
            "--alpha", "0.02", "--delta", "0.01", "--threads", "2"]
    assert run_cli(*args, "--json", str(a)) == 0
    assert run_cli(*args, "--json", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


def test_thread_counts_agree_numerically(tmp_path, capsys):
    payloads = []
    raw = set()
    for t in ("1", "4", "8"):
        path = tmp_path / f"t{t}.json"
        assert run_cli(
            "resonate", "--variant", "short", "--X", "3000", "--x", "25",
            "--alpha", "0.02", "--delta", "0.01", "--threads", t,
            "--json", str(path),
        ) == 0
        raw.add(path.read_bytes())
        payloads.append(json.loads(path.read_text()))
    assert len(raw) == 1
    base = payloads[0]
    for other in payloads[1:]:
        assert other["observed_max"] == base["observed_max"]
        for key in ("M1", "M2", "ratio"):
            assert abs(other[key] - base[key]) <= 1e-9 * abs(base[key])
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ("delta-max", "--X", "1500", "--x", "25"),
        ("resonate", "--variant", "short", "--X", "4000", "--x", "30",
         "--alpha", "0.02", "--delta", "0.01", "--squared"),
        ("gcd-sum", "--N", "150"),
    ],
    ids=["delta-max", "resonate", "gcd-sum"],
)
def test_thread_counts_byte_identical(argv, tmp_path, capsys):
    # --threads is validated and ignored, so the files are byte-identical.
    outputs = set()
    for t in ("1", "4", "8"):
        path = tmp_path / f"t{t}.json"
        assert run_cli(*argv, "--threads", t, "--json", str(path)) == 0
        outputs.add(path.read_bytes())
    assert len(outputs) == 1
    capsys.readouterr()


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "quadchar.cli", "psi", "--x", "100", "--y", "5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "34"


def test_seed_flag_reserved(capsys):
    assert run_cli("--seed", "7", "psi", "--x", "10", "--y", "10") == 0
    assert capsys.readouterr().out.strip() == "10"
