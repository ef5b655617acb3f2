"""The witness construction as executable maps, plus verification drivers.

For an odd prime p >= 5, 2p-1 is 0 or 1 mod 3 (2 mod 3 would force 3 | p),
which yields an index n with p = (3n+1)/2 (odd n) or p = (3n+2)/2 (even n).
For that n the numerator of the alternating harmonic sum A_n is divisible
by p; verify_prime (one tail span) and verify_range (a chained prefix fold
from each shard's lowest n to floor(7p/10), which reflection takes to
floor(3p/10), plus a closed form in Fermat and Fibonacci quotients) check
this for real, and below a threshold against the exact oracle: one chained
alternating_sweep per range shard, or its one-index case, alternating_exact,
for one prime.  p = 3 is the one odd prime the construction misses, and
search_numerator_divisor proves that it divides the numerator of no A_n.
"""

import os
import time
from collections import namedtuple
from collections.abc import Callable, Sequence

from .modfield import FormCase, PrimeModulus, alternating_mod, harmonic_prefixes_mod
from .modfield import _P_LIMIT, _mul, five_fibonacci_mod, linked_index, linked_prime
from .modfield import ProofInapplicableError  # noqa: F401  (exported from here)
from .primes import is_prime, odd_primes_iter
from .rationals import alternating_exact, alternating_sweep, residue_of

# Placeholders that nothing calls: bench/spans.py patches both names, and
# ROADMAP item 1 step A drops them (rationals.merge_* read 0 with the old helper too)
_inverse_range = _merge = None

# Exact cross-checks cover every witness index up to here, i.e. all
# p <= 3001.  It stays put because it sets the exact_checked byte of each
# record; the name keeps its DEFAULT_ prefix because it is a package export.
DEFAULT_EXACT_THRESHOLD = 2000

_SHARD_WIDTH = 8192


class ConsistencyError(RuntimeError):
    """Two computations that must agree do not: an implementation bug, not math."""


def witness_index(p: int) -> tuple[int, FormCase]:
    """The constructive witness index n for an odd prime p >= 5.

    2p-1 = 3n gives the odd case with p = (3n+1)/2; 2p-1 = 3n+1 gives the
    even case with p = (3n+2)/2.  For p in {2, 3} neither holds and a
    dedicated ProofInapplicableError is raised.
    """
    witness = linked_index(p)
    PrimeModulus(p)  # rejects a composite p
    return witness


def classify_index(n: int) -> tuple[int, FormCase] | None:
    """linked_prime(n) if its p is a prime >= 5, else None; witness_index inverts it."""
    cand, case = linked_prime(n)
    if cand < 5 or not is_prime(cand):
        return None
    return cand, case


class WitnessRecord(namedtuple("WitnessRecord", "p n case residue exact_checked ok")):
    """One verified (p, n) instance: residue of A_n mod p and how it was checked."""

    __slots__ = ()


RECORD_FIELDS = WitnessRecord._fields

# a row value's JSON text by type: bools, ints and case tags (identifiers, unescaped)
_JSON_VALUE = {bool: lambda v: "true" if v else "false", int: str,
               FormCase: lambda c: f'"{c.value}"'}


def row_to_json(fields: Sequence[str], row: Sequence) -> str:
    """One-line JSON object mapping fields (identifiers, not escaped) to row values."""
    return "{" + ",".join([f'"{f}":{_JSON_VALUE[type(v)](v)}' for f, v in zip(fields, row)]) + "}"


def row_to_csv(row: Sequence) -> str:
    """One CSV line, booleans lowercase as in JSON; values need no quoting."""
    return ",".join(str(v).lower() if isinstance(v, bool) else str(v) for v in row)


def record_to_json(rec: WitnessRecord) -> str:
    return row_to_json(RECORD_FIELDS, rec)


def _witness_record(
    p: int, n: int, case: FormCase, residue: int, exact: int | None
) -> WitnessRecord:
    """p's record, (n, case) = linked_index(p) and residue A_n mod p, after its
    one check: exact, the oracle's A_n mod p or None past the threshold, equals
    residue.  p is an odd prime, so n is 3 (odd case) or 0 (even case) mod 4."""
    if exact is not None and exact != residue:
        raise ConsistencyError(f"exact/modular mismatch at p={p}, n={n}: {exact} != {residue}")
    return WitnessRecord(
        p=p, n=n, case=case, residue=residue, exact_checked=exact is not None,
        ok=(residue == 0),
    )


def verify_prime(p: int) -> WitnessRecord:
    """Check A_n = 0 mod p for the constructive witness n of p by one tail span;
    when n <= DEFAULT_EXACT_THRESHOLD the exact rational oracle must agree, or
    ConsistencyError aborts.  ok=False is a counterexample report, never an
    exception.  p must be below 2^32."""
    if p >= _P_LIMIT:
        raise ValueError(f"p={p} is not below 2^32, the limit of witness checks")
    n, case = linked_index(p)
    pm = PrimeModulus(p)  # the one primality proof: a composite p raises here
    want = residue_of(alternating_exact(n), pm).value if n <= DEFAULT_EXACT_THRESHOLD else None
    return _witness_record(p, n, case, alternating_mod(n, pm).value, want)


class RangeSummary(
    namedtuple("RangeSummary", "pmin pmax verified_count failure_count skipped elapsed")
):
    """Aggregate outcome of verifying the odd primes in [pmin, pmax]."""

    __slots__ = ()


def check_range(pmin: int, pmax: int) -> None:
    """Reject a range verify_range cannot run: pmin > pmax, or pmax >= 2^32."""
    if pmin > pmax:
        raise ValueError(f"empty range: pmin={pmin} > pmax={pmax}")
    if pmax >= _P_LIMIT:
        raise ValueError(f"pmax={pmax} is not below 2^32, the limit of verify ranges")


def _verify_shard(args: tuple[int, int]) -> tuple[list[WitnessRecord], float]:
    # One chained prefix fold from the first cut b, the shard's lowest n (no
    # span reaches below it), gives (D, N), N/D = H_c - H_b, at p's cuts n and
    # c = floor(7p/10) = p-1-floor(3p/10).  By reflection (H_{p-1-k} = H_k mod
    # p), Z.-H. and Z.-W. Sun's H_{floor(3p/10)} = -2 q_p(2) - (5/4) q_p(5) +
    # (15/4) F_{p-(p/5)}/p (Acta Arith. 60, 1992) and E. Lehmer's
    # H_{floor(p/3)} = -(3/2) q_p(3), A_n = H_n - H_{floor(p/3)} is
    # (4 (H_n - H_c) + x)/4, x = q_p(3^6/(2^8 5^5)) + 15 F_{p-(p/5)}/p, one
    # inverse of 4 D_n D_c per p; (p/5) is 1 at p = +-1 mod 5, else -1.  n = c
    # only at 5 (where the form is undefined), 7, 11 and 17: there x = 0 with
    # no closed form taken, and x is 0 nowhere else below 2*10^6, so a kernel
    # returning 0 or a wrong cut fails records, which the tail span
    # (alternating_mod) tells from counterexamples.  Primality comes from the
    # sieve: each odd composite m but 25, 35, 49, 55, 77, 85, 119, 121, 187
    # and 289 (exact-zoned, where PrimeModulus raises; checked to 10^5) has a
    # prime factor with a multiple in (n, c], so the inverse mod m raises.
    # With no composite found, the except reports a kernel fault.
    lo, hi = args
    t0 = time.perf_counter()
    primes = list(odd_primes_iter(lo, hi))
    witnesses = list(map(linked_index, primes))
    small = [n for n, _ in witnesses if n <= DEFAULT_EXACT_THRESHOLD]
    exact = dict(zip(small, alternating_sweep(small)))  # n ascends with p
    cuts = sorted((c, p) for p, (n, _) in zip(primes, witnesses) for c in (n, 7 * p // 10))
    try:
        h = dict(zip(cuts, harmonic_prefixes_mod([c for c, _ in cuts], [p for _, p in cuts])))
        recs = []
        for p, (n, case) in zip(primes, witnesses):
            c, x = 7 * p // 10, 0
            pp, (dn, hn), (dc, hc) = p * p, h[n, p], h[c, p]
            if c > n:
                f = five_fibonacci_mod(p - 1 if p % 5 in (1, 4) else p + 1, pp) // p
                x = (pow(729 * pow(800_000, -1, pp), p - 1, pp) - 1) // p + 3 * f
            residue = (4 * (hn * dc - hc * dn) + x * dn * dc) * pow(4 * dn * dc, -1, p) % p
            want = residue_of(exact[n], PrimeModulus(p)).value if n in exact else None
            recs.append(_witness_record(p, n, case, residue, want))
    except ValueError:  # an inverse or PrimeModulus fails, see above
        bad = [m for m in primes if not is_prime(m)]
        fault = f"the sieve passed composite(s) {bad}" if bad else "range kernel fault, a D is 0"
        raise ConsistencyError(f"shard {lo}..{hi}: {fault}") from None
    for rec in recs:
        if not rec.ok and alternating_mod(rec.n, PrimeModulus(rec.p)).value != rec.residue:
            raise ConsistencyError(f"range fold and tail span disagree at p={rec.p}")
    return recs, time.perf_counter() - t0


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask, where os reports one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _forked(shard_args: list[tuple[int, int]], workers: int):
    """_verify_shard of each shard in order: worker w pickles shard_args[w::workers]
    into its own pipe.  Closing the generator kills and reaps every worker."""
    import pickle
    import signal

    procs = []
    try:
        for w in range(workers):
            r, wr = os.pipe()
            if (pid := os.fork()) == 0:  # a worker: every path out ends in os._exit
                try:
                    os.close(r)
                    with open(wr, "wb") as out:
                        try:
                            for args in shard_args[w::workers]:
                                pickle.dump(_verify_shard(args), out)
                                out.flush()
                        except Exception as exc:
                            pickle.dump(exc, out)
                finally:
                    os._exit(0)
            procs.append((pid, open(r, "rb")))
            os.close(wr)
        for i, (lo, hi) in enumerate(shard_args):
            try:
                got = pickle.load(procs[i % workers][1])
            except (EOFError, pickle.UnpicklingError):
                raise RuntimeError(f"the worker of shard {lo}..{hi} died") from None
            if isinstance(got, Exception):
                raise got
            yield got
    finally:
        for pid, pipe in procs:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()


def verify_range(
    pmin: int,
    pmax: int,
    *,
    jobs: int = 1,
    record_sink: Callable[[WitnessRecord], None] | None = None,
    progress: Callable[[int, int, int, float], None] | None = None,
) -> RangeSummary:
    """Verify every odd prime p >= 5 in [pmin, pmax].

    Records stream to record_sink in ascending p, independent of jobs: the
    range is cut into fixed shards, dealt in turn to up to jobs forked workers
    (at most one per usable CPU, none without os.fork) and read back in order.  p = 3
    inside the range is recorded as skipped.  A failing record (ok=False) is
    counted, not raised, once the tail span gives the same residue.  progress,
    if given, follows each shard's records with (lo, hi, record_count, seconds).
    """
    check_range(pmin, pmax)
    start = time.perf_counter()
    skipped = [(3, "proof inapplicable")] if pmin <= 3 <= pmax else []
    verified = failures = 0

    shard_args = [
        (lo, min(lo + _SHARD_WIDTH - 1, pmax))
        for lo in range(max(pmin, 5), pmax + 1, _SHARD_WIDTH)
    ]

    workers = min(jobs, len(shard_args), _usable_cpus()) if hasattr(os, "fork") else 1
    # _verify_shard is looked up by name on both paths; bench/spans.py wraps it
    # at jobs=1, since a forked worker's spans stay in the worker
    shards = _forked(shard_args, workers) if workers > 1 else (_verify_shard(a) for a in shard_args)
    try:
        for (lo, hi), (recs, seconds) in zip(shard_args, shards):
            for rec in recs:
                if rec.ok:
                    verified += 1
                else:
                    failures += 1
                if record_sink is not None:
                    record_sink(rec)
            if progress is not None:
                progress(lo, hi, len(recs), seconds)
    finally:
        # after an error (sink, progress, worker) every worker stops at once
        shards.close()

    return RangeSummary(pmin, pmax, verified, failures, skipped, time.perf_counter() - start)


def search_numerator_divisor(p: int, nmax: int) -> list[int]:
    """Every n <= nmax with p dividing the reduced numerator of A_n.

    One integer scan modulo p^(L+1), L = floor(log_p nmax) (Boyd's p-adic
    bookkeeping): each k = p^v * m with p not dividing m has v <= L, so
    p^L * A_n = sum of (-1)^(k-1) * p^(L-v) / m is a p-adic integer, kept as
    s/d mod p^(L+1), d a unit, and advanced by modfield._mul's (D, N) step
    with no inverse.  p divides the numerator of A_n exactly when
    v_p(p^L * A_n) >= L+1, i.e. when s = 0 mod p^(L+1).  n is a hit only if
    floor(n/p) is 0 or a hit (Boyd's lemma), so a scan that stops before
    nmax, past p*(k+1) - 1 with k the last hit or 0, has found every hit.
    """
    PrimeModulus(p)  # rejects p that is not an odd prime
    if nmax < 1:
        raise ValueError(f"nmax must be positive, got {nmax}")

    top = 1  # p^L
    while top * p <= nmax:
        top *= p
    mod = top * p
    hits: list[int] = []
    v, stop = (1, 0), p - 1  # (d, s), and the last k that can be a hit
    for k in range(1, nmax + 1):
        if k > stop:
            break
        m, scale = k, top
        while m % p == 0:
            m //= p
            scale //= p
        v = _mul(v, (m, scale if k % 2 else -scale), mod)
        if v[1] == 0:
            hits.append(k)
            stop = p * (k + 1) - 1
    return hits
