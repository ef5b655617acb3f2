"""The correctness gate: every output is checked before any number counts.

A problem is WRONG when the program produced output that differs from the
oracle, or a canary disagrees; it is FAILED when the program failed loudly
(nonzero exit, an exception, no output).  Both count as failed operations;
only WRONG makes a run incorrect.
"""

import contextlib
import hashlib
import json
import math
import random
import sys
from dataclasses import dataclass, field
from typing import Callable, List, Mapping, Sequence, Tuple

import oracle

WRONG = "wrong"
FAILED = "failed"

Problem = Tuple[str, str]

# Non-witness (n, p) pairs: the residues of A_n are nonzero, so a kernel
# that returns 0 for everything fails here while passing every verify
# stream.  The last p exceeds the kernel's int64 bound and takes its
# pure-int path.
CANARY_PAIRS = ((7, 13), (100, 101), (1000, 1009), (5000, 10007), (50, 4_294_967_311))
SEEDED_CANARIES = 3

# search 7 finds these n beyond p only through its exact fallback.
SEARCH_CANARY = (7, 1500, (30, 34, 210, 214, 241, 1499))


@dataclass
class Op:
    """One gated operation: a CLI call or an in-process library call."""

    name: str
    wall: float
    rss_mb: float = 0.0
    problems: List[Problem] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def exit_problems(code: int, err: bytes) -> List[Problem]:
    if code == 0:
        return []
    first = err.decode("utf-8", "replace").strip().splitlines()[-1:] or [""]
    return [(FAILED, f"exit {code}: {first[0]}")]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def stream_problems(out: bytes, expected: bytes) -> List[Problem]:
    """Byte-exact comparison of an output stream with the oracle's, by sha256."""
    if not out and expected:
        return [(FAILED, "no output")]
    got, want = _digest(out), _digest(expected)
    if got == want:
        return []
    return [(WRONG, f"stream sha256 {got[:16]} != expected {want[:16]}")]


def verify_problems(out: bytes, expected: bytes) -> List[Problem]:
    """A verify stream: its sha256, its record count and every ok flag."""
    problems = stream_problems(out, expected)
    if not problems or problems[0][0] == FAILED:
        return problems
    lines = out.splitlines()
    want = expected.count(b"\n")
    if len(lines) != want:
        problems.append((WRONG, f"{len(lines)} records, expected {want}"))
    bad = 0
    for line in lines:
        try:
            bad += json.loads(line).get("ok") is not True
        except (ValueError, AttributeError):
            bad += 1
    if bad:
        problems.append((WRONG, f"{bad} records not ok:true"))
    return problems


def exact_problems(out: bytes, is_value: Callable[[int, int], bool]) -> List[Problem]:
    """An `exact` output line "num/den", judged by is_value(num, den)."""
    if not out:
        return [(FAILED, "no output")]
    try:
        num_s, den_s = out.decode("ascii").strip().split("/")
        with _unlimited_int_digits():
            num, den = int(num_s), int(den_s)
    except ValueError:
        return [(WRONG, f"unparsable fraction {out[:40]!r}")]
    return [] if is_value(num, den) else [(WRONG, "fraction differs from A_n")]


@contextlib.contextmanager
def _unlimited_int_digits():
    """Lift the int/str digit limit in this process only, to parse output."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def canary_pairs(seed: int) -> List[Tuple[int, int]]:
    """The fixed pairs plus a few drawn from the seed, none a witness pair."""
    rng = random.Random(seed)
    flags = oracle.primes_upto(20_000)
    pairs = list(CANARY_PAIRS)
    while len(pairs) < len(CANARY_PAIRS) + SEEDED_CANARIES:
        p = rng.randrange(3_000, 20_000)
        n = rng.randrange(1, p)
        if flags[p] and n != oracle.witness(p)[0]:
            pairs.append((n, p))
    return pairs


def canary_problems(
    kernel: Callable[[int, int], int],
    search: Callable[[int, int], Sequence[int]],
    seed: int,
) -> List[Problem]:
    """Run the kernel and the search on inputs whose answers are known.

    kernel(n, p) is A_n mod p; search(p, nmax) the n <= nmax with p
    dividing numerator(A_n).  Each is compared with the oracle.
    """
    pairs = canary_pairs(seed)
    expected = [oracle.alternating_mod(n, p) for n, p in pairs]
    if not any(expected):
        return [(WRONG, "vacuous canary set: every expected residue is 0")]
    problems: List[Problem] = []
    for (n, p), want in zip(pairs, expected):
        got = kernel(n, p)
        if got != want:
            problems.append((WRONG, f"canary A_{n} mod {p}: got {got}, expected {want}"))
    p, nmax, beyond = SEARCH_CANARY
    got_hits = list(search(p, nmax))
    want_hits = oracle.numerator_divisor_hits(p, nmax)
    if got_hits != want_hits or not set(beyond) <= set(got_hits):
        problems.append(
            (WRONG, f"canary search {p} --nmax {nmax}: got {got_hits}, expected {want_hits}")
        )
    return problems


def metric_problems(metrics: Mapping[str, object], required: Sequence[str]) -> List[str]:
    """Names in required that are missing from metrics or not a finite number."""
    problems = []
    for name in required:
        entry = metrics.get(name)
        value = entry.get("value") if isinstance(entry, Mapping) else None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            problems.append(f"metric {name} missing")
        elif not math.isfinite(value):
            problems.append(f"metric {name} is {value}")
    return problems
