"""Acceptance suite: one test per criterion, exact integer assertions only.

Each test finishes by printing a single pass line (visible with pytest -s);
a failed assertion leaves the criterion marked FAILED by pytest itself.
Run with:  pytest tests/test_acceptance.py -v -s
"""

import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

import oracles
from altharm.engine import (
    ProofInapplicableError,
    classify_index,
    record_to_json,
    search_numerator_divisor,
    verify_prime,
    verify_range,
    witness_index,
)
from altharm.modfield import FormCase, PrimeModulus, alternating_mod, pairing_defect
from altharm.primes import PrimeRange, is_prime, sieve_range
from altharm.rationals import (
    alternating_exact,
    format_fraction,
    harmonic_exact,
    residue_of,
    tail_exact,
)

GOLDEN_ALTERNATING = ["1/1", "1/2", "5/6", "7/12", "47/60", "37/60", "319/420", "533/840"]
GOLDEN_HARMONIC = ["1/1", "3/2", "11/6", "25/12"]


def _report(num, name, detail=""):
    print(f"\n[acceptance] criterion {num} ({name}): PASS {detail}".rstrip())


def test_criterion_1_golden_small_values():
    for n, want in enumerate(GOLDEN_ALTERNATING, start=1):
        assert format_fraction(alternating_exact(n)) == want
        # the frozen strings themselves come from the brute-force oracle
        assert format_fraction(oracles.alternating_bruteforce(n)) == want
    for n, want in enumerate(GOLDEN_HARMONIC, start=1):
        assert format_fraction(harmonic_exact(n)) == want
        assert format_fraction(oracles.harmonic_bruteforce(n)) == want
    _report(1, "golden small values")


def test_criterion_2_identity_suite():
    t0 = time.perf_counter()
    limit = 5000
    h_vals = [Fraction(0)]
    h_vals.extend(oracles.harmonic_stream(limit))
    a_vals = [Fraction(0)]
    a_vals.extend(oracles.alternating_stream(limit))
    for n in range(1, limit + 1):
        half = n // 2
        a = a_vals[n]
        assert a == h_vals[n] - h_vals[half]
        assert tail_exact(half + 1, n) == a
        # the divide-and-conquer functions must reproduce the streams exactly
        assert alternating_exact(n) == a
        assert harmonic_exact(n) == h_vals[n]
        if n >= 2:
            assert h_vals[n].denominator % 2 == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"identity suite too slow: {elapsed:.1f}s"
    _report(2, "identity suite n <= 5000", f"({elapsed:.1f}s)")


def test_criterion_3_theorem_small_exhaustive():
    t0 = time.perf_counter()
    primes = [p for p in oracles.primes_upto_trial(3001) if p >= 5]
    for p in primes:
        rec = verify_prime(p)
        assert rec.exact_checked, f"p={p}: witness n={rec.n} missed the exact cross-check"
        assert rec.ok and rec.residue == 0, f"counterexample at p={p}?!"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"small exhaustive run too slow: {elapsed:.1f}s"
    _report(3, "theorem instantiation p <= 3001", f"({len(primes)} primes, {elapsed:.1f}s)")


def test_criterion_4_theorem_throughput():
    pmin, pmax = 5, 100_000
    expected = [p for p in oracles.primes_upto_trial(pmax) if p >= pmin and p % 2]

    t0 = time.perf_counter()
    base = []
    summary = verify_range(pmin, pmax, jobs=1, record_sink=base.append)
    elapsed = time.perf_counter() - t0

    assert summary.failure_count == 0
    assert summary.skipped == []  # 3 is outside [5, 100000]
    assert summary.verified_count == len(expected) == len(base)
    assert [r.p for r in base] == expected
    assert elapsed < 300.0, f"single-threaded range run too slow: {elapsed:.1f}s"

    base_bytes = "\n".join(record_to_json(r) for r in base).encode()
    for jobs in (4, 8):
        recs = []
        verify_range(pmin, pmax, jobs=jobs, record_sink=recs.append)
        got = "\n".join(record_to_json(r) for r in recs).encode()
        assert got == base_bytes, f"jobs={jobs} changed the record stream"
    _report(
        4,
        "theorem throughput p <= 100000",
        f"({len(expected)} primes, jobs=1 in {elapsed:.1f}s, jobs 4/8 byte-identical)",
    )


def test_criterion_5_proof_mechanism():
    checked = 0
    for n in range(1, 5001):
        hit = classify_index(n)
        if hit is None:
            continue
        p, case = hit
        tail_len = n - n // 2
        assert tail_len % 2 == 0, f"odd tail length at n={n}"
        if case is FormCase.ODD:
            assert n % 4 == 3, f"odd-case congruence broken at n={n}"
        else:
            assert n % 4 == 0, f"even-case congruence broken at n={n}"
        defects = pairing_defect(n, PrimeModulus(p), case)
        assert len(defects) == tail_len // 2
        assert all(r.value == 0 for r in defects), f"nonzero pairing defect at n={n}"
        checked += 1
    # every prime in [5, 7500] owns exactly one index n <= 5000
    assert checked == len([p for p in oracles.primes_upto_trial(7500) if p >= 5])
    _report(5, "proof mechanism n <= 5000", f"({checked} instances)")


def test_criterion_6_p3_edge():
    with pytest.raises(ProofInapplicableError):
        witness_index(3)
    r = subprocess.run(
        [sys.executable, "-m", "altharm", "witness", "3"],
        capture_output=True, text=True, timeout=120, env=oracles.child_env(),
    )
    assert r.returncode == 2
    assert "inapplicable" in r.stderr

    t0 = time.perf_counter()
    hits = search_numerator_divisor(3, 10**4)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"p=3 search too slow: {elapsed:.1f}s"

    # cross-check against one independent exact pass; no existence claim either way
    want = []
    total = Fraction(0)
    for n in range(1, 10**4 + 1):
        total += Fraction((-1) ** (n - 1), n)
        if total.numerator % 3 == 0:
            want.append(n)
    assert hits == want
    _report(
        6,
        "p = 3 edge",
        f"(search hits up to 10^4: {hits if hits else 'none'}, {elapsed:.1f}s)",
    )


def test_criterion_7_modular_oracle_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(20260811)
    checked = 0
    while checked < 200:
        p = oracles.next_prime_trial(rng.randrange(5, 10**6))
        if p > 10**6:
            continue
        # log-uniform n keeps the exact side tractable while covering magnitudes
        cap = min(p - 1, 10**5)
        n = min(cap, max(1, int(10 ** rng.uniform(0.0, math.log10(cap)))))
        pm = PrimeModulus(p)
        assert (
            alternating_mod(n, pm).value == residue_of(alternating_exact(n), pm).value
        ), f"mismatch at n={n}, p={p}"
        checked += 1
    elapsed = time.perf_counter() - t0
    _report(7, "modular oracle equivalence", f"(200 samples, {elapsed:.1f}s)")


def test_criterion_8_primality_agreement():
    t0 = time.perf_counter()
    limit = 10**6
    oracle = oracles.trial_division_mask(limit)
    mine = np.fromiter(
        (is_prime(x) for x in range(limit + 1)), dtype=bool, count=limit + 1
    )
    assert np.array_equal(mine, oracle)
    assert sieve_range(PrimeRange(0, limit)) == np.flatnonzero(oracle).tolist()
    for c in (561, 1105, 1729, 2465, 2821, 6601):
        assert not is_prime(c), f"Carmichael number {c} accepted"
    elapsed = time.perf_counter() - t0
    _report(8, "primality agreement to 10^6", f"({elapsed:.1f}s)")
