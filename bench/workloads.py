"""The three workloads: their inputs drawn from the seed, their CLI steps and
their in-process equivalents for the traced run.

verify-dense  `verify --pmin 5 --pmax ~10^5 --jobs 2`: every prime size up to
              10^5; per-call kernel overhead, exact cross-checks, shards on a
              pool, serialization of ~9600 records.
verify-high   `verify` over 150 consecutive primes just above 10^6, --jobs 1:
              a few long tails, nothing but kernel arithmetic.
search-exact  `search 3 --nmax ~10^5`, then `exact 100000`: the rationals
              layer (quadratic merge fallback, binary splitting, big-int
              formatting); the mod-p kernel is bypassed.
"""

import random
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import gate
import oracle
from gate import FAILED, Op, Problem
from spans import Tracer

NAMES = ("verify-dense", "verify-high", "search-exact")

DENSE_PMAX = 100_000
HIGH_BASE = 1_000_000
HIGH_PRIMES = 150
SEARCH_P = 3
SEARCH_NMAX = 100_000
# `exact` keeps n = 10^5: its numerator has ~43000 digits, past the
# interpreter's default int-to-str limit of 4300, which the CLI trips.
EXACT_N = 100_000


@dataclass(frozen=True)
class Step:
    """One CLI call of a workload and the check its stdout must pass."""

    name: str
    args: Tuple[str, ...]
    check: Callable[[bytes], List[Problem]]


@dataclass
class InProc:
    """An in-process pass over a workload's inputs."""

    wall: float
    ops: List[Op]
    out: bytes = b""
    records: int = 0
    exact_checked: int = 0
    shards: List[float] = field(default_factory=list)


def _jitter(seed: int, width: int) -> int:
    # seed 0 is the README command exactly; other seeds move the top end a
    # little, which changes the work by well under 1%
    return 0 if seed == 0 else random.Random(seed).randrange(width)


class VerifyWorkload:
    def __init__(self, name: str, pmin: int, pmax: int, jobs: int) -> None:
        self.name, self.pmin, self.pmax, self.jobs = name, pmin, pmax, jobs
        self.expected = oracle.verify_stream(pmin, pmax)
        self.records = self.expected.count(b"\n")
        args = ("verify", "--pmin", str(pmin), "--pmax", str(pmax),
                "--jobs", str(jobs), "--format", "jsonl", "--quiet")
        self.steps = (Step("verify", args, lambda out: gate.verify_problems(out, self.expected)),)

    def inproc(self, jobs: int, tracer: Optional[Tracer] = None) -> InProc:
        """verify_range with a sink that serializes like the CLI does."""
        from altharm import engine

        to_json = engine.record_to_json
        if tracer is not None:
            to_json = tracer.wrap(to_json, "engine.record_to_json")
        lines: List[str] = []
        shards: List[float] = []
        checked = 0

        def sink(rec) -> None:
            nonlocal checked
            checked += rec.exact_checked
            lines.append(to_json(rec))

        t0 = time.perf_counter()
        engine.verify_range(self.pmin, self.pmax, jobs=jobs, record_sink=sink,
                            progress=lambda lo, hi, count, s: shards.append(s))
        wall = time.perf_counter() - t0
        out = "".join(line + "\n" for line in lines).encode("ascii")
        op = Op(f"verify_range(jobs={jobs})", wall,
                problems=gate.verify_problems(out, self.expected))
        return InProc(wall, [op], out, len(lines), checked, shards)


class SearchExactWorkload:
    jobs = 1  # neither command has workers

    def __init__(self, name: str, p: int, nmax: int, n: int) -> None:
        self.name, self.p, self.nmax, self.n = name, p, nmax, n
        expected = oracle.search_stream(p, nmax)
        scaled = []  # A_n scaled, computed only once an exact call succeeds

        def is_value(num: int, den: int) -> bool:
            if not scaled:
                scaled.append(oracle.alternating_scaled(n))
            return oracle.is_alternating_sum(num, den, scaled[0])

        self.steps = (
            Step("search", ("search", str(p), "--nmax", str(nmax), "--format", "jsonl"),
                 lambda out: gate.stream_problems(out, expected)),
            Step("exact", ("exact", str(n)), lambda out: gate.exact_problems(out, is_value)),
        )

    def inproc(self, jobs: int = 1, tracer: Optional[Tracer] = None) -> InProc:
        """search_numerator_divisor, then alternating_exact and format_fraction,
        as the two CLI commands call them."""
        from altharm import engine, rationals

        search = engine.search_numerator_divisor
        exact, fmt = rationals.alternating_exact, rationals.format_fraction
        if tracer is not None:
            search = tracer.wrap(search, "engine.search_numerator_divisor")
            exact = tracer.wrap(exact, "rationals.alternating_exact")
            fmt = tracer.wrap(fmt, "rationals.format_fraction")
        check_search, check_exact = (s.check for s in self.steps)

        t0 = time.perf_counter()
        hits = search(self.p, self.nmax)
        t1 = time.perf_counter()
        out = "".join(f'{{"p":{self.p},"n":{n}}}\n' for n in hits).encode("ascii")
        ops = [Op("search_numerator_divisor", t1 - t0, problems=check_search(out))]
        try:
            text = fmt(exact(self.n)) + "\n"
        except ValueError as exc:
            problems = [(FAILED, f"ValueError: {exc}")]
        else:
            problems = check_exact(text.encode("ascii"))
        t2 = time.perf_counter()
        ops.append(Op("alternating_exact+format_fraction", t2 - t1, problems=problems))
        return InProc(t2 - t0, ops, out)


def build(name: str, seed: int):
    """The workload's inputs for this seed; the same seed gives the same inputs."""
    if name == "verify-dense":
        pmax = DENSE_PMAX - _jitter(seed, 256)
        return VerifyWorkload(name, 5, pmax, 2)
    if name == "verify-high":
        start = HIGH_BASE + random.Random(seed).randrange(10_000)
        primes = oracle.primes_between(start, start + 40 * HIGH_PRIMES)[:HIGH_PRIMES]
        return VerifyWorkload(name, primes[0], primes[-1], 1)
    if name == "search-exact":
        return SearchExactWorkload(name, SEARCH_P, SEARCH_NMAX - _jitter(seed, 64), EXACT_N)
    raise ValueError(f"unknown workload {name!r}")
