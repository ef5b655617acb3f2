"""Command-line surface: exact evaluation, witness lookup, range
verification, numerator-divisor search, and the pairing demonstration.

Exit codes: 0 all checks passed; 1 a verification produced ok=false;
2 usage or validation error.  With jsonl/csv formats stdout carries only
records; progress and summaries go to stderr.
"""

import argparse
import os
import sys
from fractions import Fraction
from typing import List, Optional, Sequence, TextIO

from .engine import (
    CSV_HEADER,
    DEFAULT_EXACT_THRESHOLD,
    DEFAULT_SEARCH_BUDGET,
    WitnessRecord,
    check_range,
    record_to_csv,
    record_to_json,
    search_numerator_divisor,
    verify_prime,
    verify_range,
    witness_index,
)
from .modfield import PrimeModulus, pairing_defect
from .rationals import _int_str, alternating_exact, format_fraction

DEFAULT_EXACT_BUDGET = 10**6

JOBS_ENV_VAR = "ALTHARM_JOBS"

EXIT_OK = 0
EXIT_FAILED_CHECK = 1
EXIT_USAGE = 2


class UsageError(ValueError):
    """Validation problem that should terminate with exit code 2."""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="altharm",
        description=(
            "Harmonic and alternating harmonic sums, exactly and modulo "
            "primes, with a verifier for the witness construction that "
            "makes p divide the numerator of A_n."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_exact = sub.add_parser("exact", help="print A_n as a reduced fraction")
    p_exact.add_argument("n", type=int, help="number of terms")
    p_exact.add_argument(
        "--digits", type=int, default=None,
        help="also print a correctly rounded decimal expansion",
    )
    p_exact.add_argument(
        "--budget", type=int, default=DEFAULT_EXACT_BUDGET,
        help=f"largest accepted n (default {DEFAULT_EXACT_BUDGET})",
    )
    p_exact.set_defaults(func=cmd_exact)

    p_witness = sub.add_parser(
        "witness", help="witness index and residue check for one prime"
    )
    p_witness.add_argument("p", type=int)
    _add_format_flag(p_witness)
    p_witness.set_defaults(func=cmd_witness)

    p_verify = sub.add_parser(
        "verify", help="verify every odd prime in a range"
    )
    p_verify.add_argument("--pmin", type=int, required=True)
    p_verify.add_argument("--pmax", type=int, required=True)
    p_verify.add_argument(
        "--jobs", type=int, default=None,
        help=f"worker processes (default: ${JOBS_ENV_VAR} or CPU count)",
    )
    p_verify.add_argument(
        "--exact-threshold", type=int, default=DEFAULT_EXACT_THRESHOLD,
        help="cross-check against the exact oracle for witness indices up to this",
    )
    _add_format_flag(p_verify)
    p_verify.add_argument(
        "--out", type=str, default=None,
        help="append records to this file instead of stdout",
    )
    p_verify.add_argument(
        "--quiet", action="store_true", help="suppress per-shard progress lines"
    )
    p_verify.set_defaults(func=cmd_verify)

    p_search = sub.add_parser(
        "search", help="empirical scan for n with p | numerator(A_n)"
    )
    p_search.add_argument("p", type=int)
    p_search.add_argument("--nmax", type=int, required=True)
    p_search.add_argument(
        "--budget", type=int, default=DEFAULT_SEARCH_BUDGET,
        help=f"largest accepted nmax (default {DEFAULT_SEARCH_BUDGET})",
    )
    _add_format_flag(p_search)
    p_search.set_defaults(func=cmd_search)

    p_pair = sub.add_parser(
        "pair-check", help="show the pairwise cancellation for one prime"
    )
    p_pair.add_argument("p", type=int)
    _add_format_flag(p_pair)
    p_pair.set_defaults(func=cmd_pair_check)

    return parser


def _add_format_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--format", choices=("jsonl", "csv", "human"), default=None,
        help="output format (default: human on a terminal, jsonl otherwise)",
    )


def _resolve_format(chosen: Optional[str], stream: TextIO) -> str:
    if chosen:
        return chosen
    return "human" if stream.isatty() else "jsonl"


def _resolve_jobs(flag_value: Optional[int]) -> int:
    # the flag wins over the environment, which wins over the CPU count
    if flag_value is not None:
        if flag_value < 1:
            raise UsageError(f"--jobs must be positive, got {flag_value}")
        return flag_value
    env = os.environ.get(JOBS_ENV_VAR)
    if env:
        try:
            jobs = int(env)
        except ValueError:
            raise UsageError(f"{JOBS_ENV_VAR} must be an integer, got {env!r}")
        if jobs < 1:
            raise UsageError(f"{JOBS_ENV_VAR} must be positive, got {jobs}")
        return jobs
    return os.cpu_count() or 1


def _decimal_string(x: Fraction, digits: int) -> str:
    """Decimal expansion with exactly `digits` fractional digits, round half to even."""
    num, den = x.numerator, x.denominator
    sign = "-" if num < 0 else ""
    q, r = divmod(abs(num) * 10**digits, den)
    if 2 * r > den or (2 * r == den and q % 2 == 1):
        q += 1
    if digits == 0:
        return f"{sign}{_int_str(q)}"
    s = _int_str(q).rjust(digits + 1, "0")
    return f"{sign}{s[:-digits]}.{s[-digits:]}"


def _record_line(rec: WitnessRecord, fmt: str) -> str:
    if fmt == "jsonl":
        return record_to_json(rec)
    if fmt == "csv":
        return record_to_csv(rec)
    # name the theorem instance before the verdict
    check = "exact+modular" if rec.exact_checked else "modular"
    verdict = "ok" if rec.ok else "FAIL"
    return (
        f"p={rec.p} n={rec.n} case={rec.case.value}: "
        f"A_n residue {rec.residue} ({check}) -> {verdict}"
    )


def cmd_exact(args: argparse.Namespace) -> int:
    if args.n > args.budget:
        raise UsageError(
            f"n={args.n} exceeds the budget {args.budget}; raise --budget if you mean it"
        )
    # int-to-decimal conversion is quadratic in the digit count, so --budget
    # bounds the expansion too
    if args.digits is not None and args.digits > args.budget:
        raise UsageError(
            f"--digits {args.digits} exceeds the budget {args.budget}; "
            "raise --budget if you mean it"
        )
    if args.digits is not None and args.digits < 0:
        raise UsageError(f"--digits must be nonnegative, got {args.digits}")
    value = alternating_exact(args.n)
    print(format_fraction(value))
    if args.digits is not None:
        print(_decimal_string(value, args.digits))
    return EXIT_OK


def cmd_witness(args: argparse.Namespace) -> int:
    rec = verify_prime(args.p)
    fmt = _resolve_format(args.format, sys.stdout)
    if fmt == "csv":
        print(CSV_HEADER)
    print(_record_line(rec, fmt))
    return EXIT_OK if rec.ok else EXIT_FAILED_CHECK


def cmd_verify(args: argparse.Namespace) -> int:
    check_range(args.pmin, args.pmax)  # before --out is created
    jobs = _resolve_jobs(args.jobs)

    out = sys.stdout
    close_out = False
    if args.out is not None:
        try:
            out = open(args.out, "a", encoding="ascii")
        except OSError as exc:
            raise UsageError(f"cannot open --out {args.out!r}: {exc}")
        close_out = True
    fmt = _resolve_format(args.format, out)

    def sink(rec: WitnessRecord) -> None:
        out.write(_record_line(rec, fmt) + "\n")

    def progress(lo: int, hi: int, count: int, seconds: float) -> None:
        rate = count / seconds if seconds > 0 else float("inf")
        print(
            f"shard [{lo},{hi}]: {count} primes in {seconds:.2f}s ({rate:.0f} primes/s)",
            file=sys.stderr,
        )

    try:
        # a csv header only at the start of the stream, so appended reruns concatenate
        if fmt == "csv" and (not close_out or out.tell() == 0):
            out.write(CSV_HEADER + "\n")
        summary = verify_range(
            args.pmin,
            args.pmax,
            jobs=jobs,
            exact_threshold=args.exact_threshold,
            record_sink=sink,
            progress=None if args.quiet else progress,
        )
    finally:
        if close_out:
            out.close()

    skipped = (
        "; ".join(f"p={p} ({reason})" for p, reason in summary.skipped) or "none"
    )
    print(
        f"range [{summary.pmin},{summary.pmax}]: verified={summary.verified_count} "
        f"failures={summary.failure_count} skipped={skipped} "
        f"elapsed={summary.elapsed:.2f}s",
        file=sys.stderr,
    )
    return EXIT_FAILED_CHECK if summary.failure_count else EXIT_OK


def cmd_search(args: argparse.Namespace) -> int:
    p = args.p
    hits = search_numerator_divisor(p, args.nmax, budget=args.budget)
    fmt = _resolve_format(args.format, sys.stdout)
    if fmt == "jsonl":
        for n in hits:
            print(f'{{"p":{p},"n":{n}}}')
    elif fmt == "csv":
        print("p,n")
        for n in hits:
            print(f"{p},{n}")
    else:
        if hits:
            for n in hits:
                print(n)
        else:
            print(f"no n <= {args.nmax} with {p} | numerator(A_n)")
    print(
        f"search p={p} nmax={args.nmax}: {len(hits)} hit(s)", file=sys.stderr
    )
    return EXIT_OK


def cmd_pair_check(args: argparse.Namespace) -> int:
    p = args.p
    n, case = witness_index(p)
    defects = pairing_defect(n, PrimeModulus(p), case)
    lo, hi = n // 2 + 1, n
    fmt = _resolve_format(args.format, sys.stdout)
    if fmt == "csv":
        print("p,k,a,b,residue")
    all_zero = True
    for k, res in enumerate(defects, start=1):
        a, b = lo + k - 1, hi - k + 1
        if res.value != 0:
            all_zero = False
        if fmt == "jsonl":
            print(f'{{"p":{p},"k":{k},"a":{a},"b":{b},"residue":{res.value}}}')
        elif fmt == "csv":
            print(f"{p},{k},{a},{b},{res.value}")
        else:
            print(f"pair ({a},{b}): {a}+{b}={a + b}, inv({a})+inv({b}) = {res.value} (mod {p})")
    print(
        f"pair-check p={p} n={n} case={case.value}: {len(defects)} pairs, "
        f"{'all cancel' if all_zero else 'NONZERO DEFECT'}",
        file=sys.stderr,
    )
    return EXIT_OK if all_zero else EXIT_FAILED_CHECK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"altharm: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
