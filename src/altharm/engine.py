"""The witness construction as executable maps, plus verification drivers.

For an odd prime p >= 5, 2p-1 is 0 or 1 mod 3 (2 mod 3 would force 3 | p),
which yields an index n with p = (3n+1)/2 (odd n) or p = (3n+2)/2 (even n).
For that n the numerator of the alternating harmonic sum A_n is divisible
by p; verify_prime (one tail span) and verify_range (a chained prefix fold
from each shard's lowest floor(p/2) plus Lehmer's closed form) check this
for real, and below a threshold against the exact oracle: one chained
alternating_sweep per range shard, or its one-index case, alternating_exact,
for one prime.  p = 3 is the one odd prime the construction misses, so
search_numerator_divisor is an empirical probe.
"""

import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from .modfield import FormCase, PrimeModulus, alternating_mod, harmonic_prefixes_mod
from .modfield import _P_LIMIT, _mul, linked_index, linked_prime
from .modfield import ProofInapplicableError  # noqa: F401  (exported from here)
from .primes import is_prime, odd_primes_iter
from .rationals import alternating_exact, alternating_sweep, residue_of

# Unused here; bench/spans.py patches both names on this module.
from .modfield import _inverse_range  # noqa: F401
from .rationals import _merge  # noqa: F401

# Exact cross-checks cover every witness index up to here, i.e. all
# p <= 3001.  It stays put because it sets the exact_checked byte of each
# record; the name keeps its DEFAULT_ prefix because it is a package export.
DEFAULT_EXACT_THRESHOLD = 2000

_SHARD_WIDTH = 8192


class ConsistencyError(RuntimeError):
    """Two computations that must agree do not: an implementation bug, not math."""


def witness_index(p: int) -> Tuple[int, FormCase]:
    """The constructive witness index n for an odd prime p >= 5.

    2p-1 = 3n gives the odd case with p = (3n+1)/2; 2p-1 = 3n+1 gives the
    even case with p = (3n+2)/2.  For p in {2, 3} neither holds and a
    dedicated ProofInapplicableError is raised.
    """
    witness = linked_index(p)
    PrimeModulus(p)  # rejects a composite p
    return witness


def classify_index(n: int) -> Optional[Tuple[int, FormCase]]:
    """linked_prime(n) if its p is a prime >= 5, else None; witness_index inverts it."""
    cand, case = linked_prime(n)
    if cand < 5 or not is_prime(cand):
        return None
    return cand, case


@dataclass(frozen=True)
class WitnessRecord:
    """One verified (p, n) instance: residue of A_n mod p and how it was checked."""

    p: int
    n: int
    case: FormCase
    residue: int
    exact_checked: bool
    ok: bool


RECORD_FIELDS = ("p", "n", "case", "residue", "exact_checked", "ok")


def record_row(rec: WitnessRecord) -> tuple:
    """The record's values in RECORD_FIELDS order, the case as its lowercase tag."""
    return rec.p, rec.n, rec.case.value, rec.residue, rec.exact_checked, rec.ok


# a row value's JSON text by its type: rows hold only bools, ints and strings
_JSON_VALUE = {bool: lambda v: "true" if v else "false", int: str, str: json.dumps}


def row_to_json(fields: Sequence[str], row: Sequence) -> str:
    """One-line JSON object mapping fields (identifiers, not escaped) to row values."""
    return "{" + ",".join([f'"{f}":{_JSON_VALUE[type(v)](v)}' for f, v in zip(fields, row)]) + "}"


def row_to_csv(row: Sequence) -> str:
    """One CSV line, booleans lowercase as in JSON; values need no quoting."""
    return ",".join(str(v).lower() if isinstance(v, bool) else str(v) for v in row)


def record_to_json(rec: WitnessRecord) -> str:
    return row_to_json(RECORD_FIELDS, record_row(rec))


def _witness_record(
    p: int, witness: Tuple[int, FormCase], tail: Callable, exact: Callable
) -> WitnessRecord:
    """p's record with every check, witness = linked_index(p): tail(n, pm) is
    A_n mod p, exact(n) the Fraction A_n."""
    n, case = witness
    pm = PrimeModulus(p)  # the one primality proof: a composite p raises here
    # the linkage forces n = 3 (odd case) or 0 (even case) mod 4; else it is a bug
    want = 3 if case is FormCase.ODD else 0
    if n % 4 != want:
        raise ConsistencyError(f"{case.value} witness n={n} for p={p} is not {want} mod 4")
    residue = tail(n, pm)
    exact_checked = n <= DEFAULT_EXACT_THRESHOLD
    if exact_checked:
        want = residue_of(exact(n), pm).value
        if want != residue:
            raise ConsistencyError(
                f"exact/modular mismatch at p={p}, n={n}: {want} != {residue}"
            )
    return WitnessRecord(
        p=p, n=n, case=case, residue=residue, exact_checked=exact_checked,
        ok=(residue == 0),
    )


def verify_prime(p: int) -> WitnessRecord:
    """Check A_n = 0 mod p for the constructive witness n of p by one tail span;
    when n <= DEFAULT_EXACT_THRESHOLD the exact rational oracle must agree, or
    ConsistencyError aborts.  ok=False is a counterexample report, never an
    exception.  p must be below 2^32."""
    if p >= _P_LIMIT:
        raise ValueError(f"p={p} is not below 2^32, the limit of witness checks")
    return _witness_record(
        p, linked_index(p), lambda n, pm: alternating_mod(n, pm).value, alternating_exact
    )


@dataclass
class RangeSummary:
    """Aggregate outcome of verifying the odd primes in [pmin, pmax]."""

    pmin: int
    pmax: int
    verified_count: int = 0
    failure_count: int = 0
    skipped: List[Tuple[int, str]] = field(default_factory=list)
    elapsed: float = 0.0


def check_range(pmin: int, pmax: int) -> None:
    """Reject a range verify_range cannot run: pmin > pmax, or pmax >= 2^32."""
    if pmin > pmax:
        raise ValueError(f"empty range: pmin={pmin} > pmax={pmax}")
    if pmax >= _P_LIMIT:
        raise ValueError(f"pmax={pmax} is not below 2^32, the limit of verify ranges")


def _verify_shard(args: Tuple[int, int]) -> Tuple[List[WitnessRecord], float]:
    # One chained prefix fold from the first cut b, the shard's lowest
    # floor(p/2) (no span reaches below it), gives H_n - H_{floor(p/2)} of
    # every p, the unknown H_b cancelling.  Lehmer's L(p) = -2 q_p(2) +
    # (3/2) q_p(3) = H_{floor(p/2)} - H_{floor(p/3)} adds the rest of A_n =
    # H_n - H_{floor(n/2)}, floor(n/2) = floor(p/3).  L(p) != 0 below 2*10^6
    # but at 73, 83 and 681251, so a kernel returning 0 or a wrong cut fails
    # records, and verify_prime's Lehmer-free tail span tells a kernel fault
    # from a counterexample.  L(p) = q_p(27/16) / 2, one power mod p^2, since
    # q_p(ab) = q_p(a) + q_p(b).  H_n must not come from H_{floor(p/3)} by
    # H_{p-1-k} = H_k mod p: p-1-n = floor(p/3), so that is the theorem itself.
    lo, hi = args
    t0 = time.perf_counter()
    primes = list(odd_primes_iter(lo, hi))
    witnesses = list(map(linked_index, primes))
    small = [n for n, _ in witnesses if n <= DEFAULT_EXACT_THRESHOLD]
    exact = dict(zip(small, alternating_sweep(small)))  # n ascends with p
    cuts = sorted((c, p) for p, (n, _) in zip(primes, witnesses) for c in (p // 2, n))
    h = dict(zip(cuts, harmonic_prefixes_mod([c for c, _ in cuts], [p for _, p in cuts])))

    def tail(n: int, pm: PrimeModulus) -> int:
        p, pp = pm.p, pm.p * pm.p
        q = (pow(27 * pow(16, -1, pp), p - 1, pp) - 1) // p
        return (h[n, p] - h[p // 2, p] + q * ((p + 1) // 2)) % p

    recs = [_witness_record(p, w, tail, exact.__getitem__) for p, w in zip(primes, witnesses)]
    for rec in recs:
        if not rec.ok and verify_prime(rec.p) != rec:
            raise ConsistencyError(f"range fold and tail span disagree at p={rec.p}")
    return recs, time.perf_counter() - t0


def verify_range(
    pmin: int,
    pmax: int,
    *,
    jobs: int = 1,
    record_sink: Optional[Callable[[WitnessRecord], None]] = None,
    progress: Optional[Callable[[int, int, int, float], None]] = None,
) -> RangeSummary:
    """Verify every odd prime p >= 5 in [pmin, pmax].

    Records stream to record_sink in ascending p, independent of jobs: the
    range is cut into fixed shards, worked by up to jobs processes (at most
    one per CPU), and merged back in order.  p = 3 inside the range is
    recorded as skipped.  A failing record (ok=False) is counted, not
    raised, once verify_prime gives the same record.  progress, if given,
    is called per completed shard with (lo, hi, record_count, seconds).
    """
    check_range(pmin, pmax)
    start = time.perf_counter()
    summary = RangeSummary(pmin=pmin, pmax=pmax)
    if pmin <= 3 <= pmax:
        summary.skipped.append((3, "proof inapplicable"))

    shard_args = [
        (lo, min(lo + _SHARD_WIDTH - 1, pmax))
        for lo in range(max(pmin, 5), pmax + 1, _SHARD_WIDTH)
    ]

    # _verify_shard is looked up by name here on every path; bench/spans.py
    # wraps it at jobs=1
    workers = min(jobs, len(shard_args), os.cpu_count() or 1)
    if workers > 1:  # a start-up cost that only a pool should pay
        from concurrent.futures import ProcessPoolExecutor
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        shards = (pool.map if pool else map)(_verify_shard, shard_args)
        for (lo, hi), (recs, seconds) in zip(shard_args, shards):
            for rec in recs:
                if rec.ok:
                    summary.verified_count += 1
                else:
                    summary.failure_count += 1
                if record_sink is not None:
                    record_sink(rec)
            if progress is not None:
                progress(lo, hi, len(recs), seconds)
    finally:
        # after an error (sink, worker, closed pipe) the queued shards are
        # dropped; only the ones already running are waited for
        if pool:
            pool.shutdown(cancel_futures=True)

    summary.elapsed = time.perf_counter() - start
    return summary


def search_numerator_divisor(p: int, nmax: int) -> List[int]:
    """Every n <= nmax with p dividing the reduced numerator of A_n.

    One integer scan modulo p^(L+1), L = floor(log_p nmax) (Boyd's p-adic
    bookkeeping): each k = p^v * m with p not dividing m has v <= L, so
    p^L * A_n = sum of (-1)^(k-1) * p^(L-v) / m is a p-adic integer, kept as
    s/d mod p^(L+1), d a unit, and advanced by modfield._mul's (D, N) step
    with no inverse.  p divides the numerator of A_n exactly when
    v_p(p^L * A_n) >= L+1, i.e. when s = 0 mod p^(L+1).  Below p this is
    the plain mod-p scan.  Purely empirical: an empty result asserts nothing.
    """
    PrimeModulus(p)  # rejects p that is not an odd prime
    if nmax < 1:
        raise ValueError(f"nmax must be positive, got {nmax}")

    top = 1  # p^L
    while top * p <= nmax:
        top *= p
    mod = top * p
    hits: List[int] = []
    v = (1, 0)  # (d, s)
    for k in range(1, nmax + 1):
        m, scale = k, top
        while m % p == 0:
            m //= p
            scale //= p
        v = _mul(v, (m, scale if k % 2 else -scale), mod)
        if v[1] == 0:
            hits.append(k)
    return hits
