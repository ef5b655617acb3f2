"""Command-line surface: exact evaluation, witness lookup, range
verification, numerator-divisor search, and the pairing demonstration.

Exit codes: 0 all checks passed; 1 a verification produced ok=false;
2 usage or validation error, out of memory, or a failed write to stdout or
--out; 3 an internal consistency check failed or a worker process died
(a bug, not a counterexample); 141 stdout was closed early.
With jsonl/csv formats stdout carries only records; progress and summaries
go to stderr.
"""

import argparse
import io
import os
import sys
from collections.abc import Callable, Iterable, Sequence
from contextlib import nullcontext

from .engine import (
    RECORD_FIELDS,
    check_range,
    row_to_csv,
    row_to_json,
    search_numerator_divisor,
    verify_prime,
    verify_range,
)
from .modfield import PrimeModulus, linked_index, pairing_defect
from .rationals import alternating_exact, format_decimal, format_fraction

DEFAULT_EXACT_BUDGET = 10**6

EXIT_OK = 0
EXIT_FAILED_CHECK = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, what a shell reports for `yes | head`


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
        "--jobs", type=int, default=os.cpu_count() or 1,
        help="worker processes (default: CPU count)",
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
        "search", help="every n <= nmax with p | numerator(A_n)"
    )
    p_search.add_argument("p", type=int)
    p_search.add_argument("--nmax", type=int, required=True)
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


def _resolve_format(chosen: str | None, stream: io.TextIOBase) -> str:
    if chosen:
        return chosen
    return "human" if stream.isatty() else "jsonl"


def _row_writer(
    out: io.TextIOBase, chosen: str | None, fields: Sequence[str],
    human: Callable[..., str], header: bool = True,
) -> Callable[[Iterable[Sequence]], None]:
    """The one jsonl/csv/human switch: write the csv header (if header) and
    return a function writing rows to out, one line each, in one write;
    human(*row) is a row's text."""
    fmt = _resolve_format(chosen, out)
    if fmt == "csv" and header:
        out.write(row_to_csv(fields) + "\n")
    text = {"jsonl": lambda r: row_to_json(fields, r), "csv": row_to_csv,
            "human": lambda r: human(*r)}[fmt]
    return lambda rows: out.write("".join([text(r) + "\n" for r in rows]))


def _record_human(p, n, case, residue, exact_checked, ok) -> str:
    # name the theorem instance before the verdict
    check = "exact+modular" if exact_checked else "modular"
    verdict = "ok" if ok else "FAIL"
    return f"p={p} n={n} case={case}: A_n residue {residue} ({check}) -> {verdict}"


def _check_last_line(path: str, size: int, fmt: str) -> None:
    # appending after a cut-off final line would glue the next record onto
    # it, and after rows of another format would mix two formats in one file
    with open(path, "rb") as f:
        f.seek(max(0, size - 256))
        lines = f.read().decode("ascii", "replace").split("\n")
    if lines[-1]:
        raise ValueError(
            f"--out {path!r} ends in a partial line {lines[-1]!r}; "
            "remove it or choose another file"
        )
    last = lines[-2]  # the file is not empty and ends in a newline
    if not last:
        raise ValueError(f"--out {path!r} ends in an empty line; remove it or choose another file")
    found = "jsonl" if last.startswith("{") else "human" if last.startswith("p=") else "csv"
    if found != fmt:
        raise ValueError(
            f"--out {path!r} ends in {found} rows, not {fmt}; "
            f"pass --format {found} or choose another file"
        )


def cmd_exact(args: argparse.Namespace) -> int:
    if args.n > args.budget:
        raise ValueError(
            f"n={args.n} exceeds the budget {args.budget}; raise --budget if you mean it"
        )
    # --budget bounds the expansion too: it is taken from the integer
    # abs(num) * 10**digits // den
    if args.digits is not None and args.digits > args.budget:
        raise ValueError(
            f"--digits {args.digits} exceeds the budget {args.budget}; "
            "raise --budget if you mean it"
        )
    if args.digits is not None and args.digits < 0:
        raise ValueError(f"--digits must be nonnegative, got {args.digits}")
    value = alternating_exact(args.n)
    print(format_fraction(value))
    if args.digits is not None:
        print(format_decimal(value, args.digits))
    return EXIT_OK


def cmd_witness(args: argparse.Namespace) -> int:
    rec = verify_prime(args.p)
    _row_writer(sys.stdout, args.format, RECORD_FIELDS, _record_human)([rec])
    return EXIT_OK if rec.ok else EXIT_FAILED_CHECK


def cmd_verify(args: argparse.Namespace) -> int:
    check_range(args.pmin, args.pmax)  # before --out is created
    if args.jobs < 1:
        raise ValueError(f"--jobs must be positive, got {args.jobs}")
    target = nullcontext(sys.stdout)
    if args.out is not None:
        try:
            target = open(args.out, "a", encoding="ascii")
        except OSError as exc:
            raise ValueError(f"cannot open --out {args.out!r}: {exc}")

    shard = []  # a shard's records, one write once progress reports the shard

    def progress(lo: int, hi: int, count: int, seconds: float) -> None:
        write(shard)
        shard.clear()
        rate = count / seconds if seconds > 0 else float("inf")
        if not args.quiet:
            print(
                f"shard [{lo},{hi}]: {count} primes in {seconds:.2f}s ({rate:.0f} primes/s)",
                file=sys.stderr,
            )

    with target as out:
        # a csv header only at a stream's start (a pipe is one), so reruns concatenate
        size = out.tell() if out is not sys.stdout and out.seekable() else 0
        fmt = _resolve_format(args.format, out)
        if size:
            _check_last_line(args.out, size, fmt)
        write = _row_writer(out, fmt, RECORD_FIELDS, _record_human, not size)
        summary = verify_range(
            args.pmin,
            args.pmax,
            jobs=args.jobs,
            record_sink=shard.append,
            progress=progress,
        )

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
    hits = search_numerator_divisor(p, args.nmax)
    fmt = _resolve_format(args.format, sys.stdout)
    if fmt == "human" and not hits:
        print(f"no n <= {args.nmax} with {p} | numerator(A_n)")
    _row_writer(sys.stdout, fmt, ("p", "n"), lambda _p, n: str(n))((p, n) for n in hits)
    print(
        f"search p={p} nmax={args.nmax}: {len(hits)} hit(s)", file=sys.stderr
    )
    return EXIT_OK


def _pair_human(p, k, a, b, residue) -> str:
    return f"pair ({a},{b}): {a}+{b}={a + b}, inv({a})+inv({b}) = {residue} (mod {p})"


def cmd_pair_check(args: argparse.Namespace) -> int:
    p = args.p
    n, case = linked_index(p)  # before the proof, so 2 and 3 read "inapplicable"
    defects = pairing_defect(n, PrimeModulus(p), case)  # the one primality proof
    rows = [(p, k, n // 2 + k, n + 1 - k, r.value) for k, r in enumerate(defects, 1)]
    _row_writer(sys.stdout, args.format, ("p", "k", "a", "b", "residue"), _pair_human)(rows)
    all_zero = all(r.value == 0 for r in defects)
    print(
        f"pair-check p={p} n={n} case={case}: {len(defects)} pairs, "
        f"{'all cancel' if all_zero else 'NONZERO DEFECT'}",
        file=sys.stderr,
    )
    return EXIT_OK if all_zero else EXIT_FAILED_CHECK


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here at the latest
        return code
    except ValueError as exc:
        print(f"altharm: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"altharm: error: out of memory. {exc}".rstrip(), file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        # engine's ConsistencyError, or a verify worker that died; the records
        # already written stay; exit 1 would read as a counterexample
        print(f"altharm: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except OSError as exc:
        # the reader is gone (a broken pipe) or a write failed (a full disk);
        # send what is still buffered to devnull so the interpreter's own
        # flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            return EXIT_BROKEN_PIPE
        print(f"altharm: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
