"""Command-line front end.

Subcommands:
  psi        count y-smooth integers up to x
  delta-max  scan a discriminant window for the largest S_d(x)
  mean-value exact average of chi_d(n) over |d| <= X vs. its main term
  resonate   build a resonator, run the window scan, report M2/M1
  gcd-sum    GCD sum of a constructed or user-provided squarefree set
  verify     run a module's pinned invariant suite

Numeric options accept scientific notation (1e6).  All logarithms anywhere
in this package are natural.  Exit codes: 0 success, 2 precondition failure,
3 empty window, 1 I/O or internal failure.

--threads (delta-max, resonate, gcd-sum) exists only here: a value below 1
exits 2, and any other value is ignored, since every scan and sum runs in
one thread.  No library function takes a thread count.  The acceptance
criteria 1, 2, 5, 6, 7 and 8 run the shared checks of the verify suites.
"""

import argparse
import math
import sys

from . import arith, charsums

# The other modules, csv and json are imported where they are used, so a cold
# request compiles only what it uses.  The sorted keys of verify.SUITES, kept
# as a literal so that parsing arguments does not import verify:
_VERIFY_SUITES = ("arith", "charsum", "gcd", "meanvalue", "resonance")

__all__ = ["run", "main", "predicted_shape"]

EXIT_OK = 0
EXIT_FAILED_CHECK = 1
EXIT_PRECONDITION = 2
EXIT_EMPTY_WINDOW = 3


def predicted_shape(variant: str, X: float, x: float) -> float | None:
    """The displayed lower-bound shape for the matching theorem with o(1) = 0;
    None when an iterated logarithm is undefined at these parameters."""
    try:
        l1 = math.log(X)
        l2 = math.log(l1)
        if variant == "short":
            l3 = math.log(l2)
            l2x = math.log(math.log(x))
            y = 0.25 * l1 * l2 / max(l2x - l3, l3)
            return float(arith.psi_count(x, max(y, 1.0)))
        if variant == "medium":
            return math.sqrt(x) * math.exp(math.sqrt(l1 / l2))
        if variant == "long":
            t = math.sqrt(X) / x
            u1 = math.log(t)
            u2 = math.log(u1)
            u3 = math.log(u2)
            return math.sqrt(x) * math.exp(math.sqrt(u1 * u3 / u2))
    except ValueError:
        return None
    raise ValueError(f"unknown variant {variant!r}")


_THEOREM_BY_VARIANT = {"short": "1.1", "medium": "1.2", "long": "1.3"}


def _write_json(path: str, payload: dict) -> None:
    import json

    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def _write_csv(path: str, header, row) -> None:
    import csv

    with open(path, "w", encoding="ascii", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerow(row)


def _cmd_psi(args: argparse.Namespace) -> int:
    p = arith.SmoothnessParams(args.x, args.y)
    print(arith.psi_count(p.x, p.y))
    return EXIT_OK


def _cmd_delta_max(args: argparse.Namespace) -> int:
    res = charsums.delta_max(
        args.X, args.x, X_hi=args.hi, include_unit=args.include_unit, absolute=args.abs
    )
    print(
        f"window=({res.window_lo:g},{res.window_hi:g}] x={res.x:g} "
        f"d_star={res.d_star} S_star={res.s_star} scanned={res.scanned}"
    )
    if abs(res.d_star) >= 2:
        print(f"pv_baseline(d_star)={charsums.pv_baseline(res.d_star):.6g}")
    if args.json:
        _write_json(args.json, res.to_json_dict())
    if args.csv:
        _write_csv(args.csv, res.CSV_HEADER, res.to_csv_row())
    return EXIT_OK


def _cmd_mean_value(args: argparse.Namespace) -> int:
    from . import meanvalues

    rep = meanvalues.mean_value_report(args.n, args.X, args.eps)
    print(
        f"n={rep.n} X={rep.X:g} exact={rep.exact_sum} main={rep.main_term:.6g} "
        f"residual={rep.residual:.6g} uncond_env={rep.unconditional_envelope:.6g} "
        f"grh_env={rep.grh_envelope:.6g}"
    )
    if args.json:
        _write_json(args.json, rep.to_json_dict())
    if args.csv:
        _write_csv(args.csv, rep.CSV_HEADER, rep.to_csv_row())
    return EXIT_OK


def _cmd_resonate(args: argparse.Namespace) -> int:
    from . import resonance

    spec = resonance.build_resonator(
        args.variant, args.X, args.x, alpha=args.alpha, delta=args.delta
    )
    rep = resonance.moment_ratio(spec, squared=args.squared)
    theorem = _THEOREM_BY_VARIANT[spec.variant]
    shape = predicted_shape(spec.variant, spec.X, spec.x)
    print(
        f"variant={spec.variant} X={rep.X:g} x={rep.x:g} M1={rep.M1:.6g} M2={rep.M2:.6g} "
        f"ratio={rep.ratio:.6g} observed_max={rep.observed_max:g} "
        f"holds={rep.inequality_holds} scanned={rep.discriminants_scanned}"
    )
    shape_str = "n/a" if shape is None else f"{shape:.6g}"
    print(f"theorem {theorem} reference shape (o(1)=0): {shape_str}")
    if isinstance(spec, resonance.ShortResonator):
        chain = resonance.short_chain_bound(spec, spec.x)
        print(
            f"short chain: sum a_k*prod(p/(p+1))={chain.bound:.6g} "
            f"sum a_k={chain.coefficient_sum:.6g} psi={chain.psi}"
        )
    if args.json:
        payload = rep.to_json_dict()
        payload["theorem"] = theorem
        payload["predicted_shape"] = shape
        _write_json(args.json, payload)
    if args.csv:
        _write_csv(args.csv, rep.CSV_HEADER, rep.to_csv_row())
    return EXIT_OK


def _cmd_gcd_sum(args: argparse.Namespace) -> int:
    from . import gcdsum

    if args.set_file:
        mset = gcdsum.load_gcd_set(args.set_file)
    else:
        mset = gcdsum.construct_extremal_set(args.N)
    total = gcdsum.gcd_sum(mset)
    ref = gcdsum.gcd_sum_reference(mset.N) if mset.N >= 16 else None
    ref_str = "n/a" if ref is None else f"{ref:.6g}"
    print(f"N={mset.N} y_M={mset.y_M} gcd_sum={total:.10g} reference={ref_str}")
    if args.out_set:
        gcdsum.save_gcd_set(mset, args.out_set)
    header, row = ("N", "y_M", "gcd_sum", "reference"), (mset.N, mset.y_M, total, ref)
    if args.json:
        _write_json(args.json, dict(zip(header, row)))
    if args.csv:
        _write_csv(args.csv, header, row)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import verify

    results = verify.run_suite(args.suite)
    failed = 0
    for r in results:
        tag = "PASS" if r.passed else "FAIL"
        detail = f" ({r.detail})" if r.detail else ""
        print(f"[{tag}] {r.name}{detail}")
        failed += not r.passed
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_FAILED_CHECK


_DISPATCH = {
    "psi": _cmd_psi,
    "delta-max": _cmd_delta_max,
    "mean-value": _cmd_mean_value,
    "resonate": _cmd_resonate,
    "gcd-sum": _cmd_gcd_sum,
    "verify": _cmd_verify,
}


def run(args: argparse.Namespace) -> int:
    """Dispatch parsed arguments and map failures to exit codes; output files
    are written only after the computation succeeds, so a rejected request
    never partially executes."""
    try:
        threads = getattr(args, "threads", 1)
        if threads < 1:
            raise ValueError(f"--threads must be >= 1, got {threads}")
        return _DISPATCH[args.command](args)
    except charsums.EmptyWindowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY_WINDOW
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except MemoryError:
        print("error: out of memory; the request is too large for this machine", file=sys.stderr)
        return EXIT_PRECONDITION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED_CHECK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="quadchar",
        description="Quadratic character sum experiments over fundamental discriminants",
    )
    ap.add_argument("--seed", type=int, default=None,
                    help="reserved; every construction is deterministic")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("psi", help="count y-smooth integers up to x")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True)

    p = sub.add_parser("delta-max", help="max of S_d(x) over a window of fundamental d")
    p.add_argument("--X", type=float, required=True, help="window is (X, 2X] unless --hi is given")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--hi", type=float, default=None, help="explicit window upper end")
    p.add_argument("--abs", action="store_true", help="rank by |S_d(x)| instead of the signed sum")
    p.add_argument("--include-unit", action="store_true", help="let d = 1 compete")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--json", default=None)
    p.add_argument("--csv", default=None)

    p = sub.add_parser("mean-value", help="average of chi_d(n) over |d| <= X vs. main term")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--X", type=float, required=True)
    p.add_argument("--eps", type=float, default=0.05)
    p.add_argument("--json", default=None)
    p.add_argument("--csv", default=None)

    p = sub.add_parser("resonate", help="window scan of a resonator's moment ratio")
    p.add_argument("--variant", choices=("short", "medium", "long"), required=True)
    p.add_argument("--X", type=float, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument("--delta", type=float, default=0.01)
    p.add_argument("--squared", action="store_true", help="use S_d(x)^2 in M2 and the observed max")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--json", default=None)
    p.add_argument("--csv", default=None)

    p = sub.add_parser("gcd-sum", help="GCD sum of a squarefree set")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--N", type=int, help="build the deterministic near-extremal set of size N")
    g.add_argument("--set-file", default=None, help="newline-delimited integers to load instead")
    p.add_argument("--out-set", default=None, help="write the set members to this file")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--json", default=None)
    p.add_argument("--csv", default=None)

    p = sub.add_parser("verify", help="run a module's pinned invariant checks")
    p.add_argument("suite", choices=_VERIFY_SUITES)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
