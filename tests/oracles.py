"""Independent brute-force oracles for the test suite.

Nothing here imports the package under test: sums are term-by-term stdlib
Fraction arithmetic, primality is trial division, inverses are linear scans.
Slow on purpose.  child_env sets up the CLI's child processes.
"""

import importlib.util
import os
from fractions import Fraction

import numpy as np


def harmonic_bruteforce(n: int) -> Fraction:
    total = Fraction(0)
    for i in range(1, n + 1):
        total += Fraction(1, i)
    return total


def alternating_bruteforce(n: int) -> Fraction:
    total = Fraction(0)
    for i in range(1, n + 1):
        total += Fraction((-1) ** (i - 1), i)
    return total


def harmonic_stream(nmax: int):
    """Yield H_1, ..., H_nmax by left-to-right Fraction accumulation."""
    total = Fraction(0)
    for k in range(1, nmax + 1):
        total += Fraction(1, k)
        yield total


def alternating_stream(nmax: int):
    """Yield A_1, ..., A_nmax by left-to-right Fraction accumulation."""
    total = Fraction(0)
    for k in range(1, nmax + 1):
        total += Fraction(1, k) if k % 2 else Fraction(-1, k)
        yield total


def range_sum_bruteforce(lo: int, hi: int) -> Fraction:
    total = Fraction(0)
    for k in range(lo, hi + 1):
        total += Fraction(1, k)
    return total


def trial_is_prime(x: int) -> bool:
    if x < 2:
        return False
    d = 2
    while d * d <= x:
        if x % d == 0:
            return False
        d += 1
    return True


def next_prime_trial(x: int) -> int:
    while not trial_is_prime(x):
        x += 1
    return x


def trial_division_mask(limit: int) -> np.ndarray:
    """Boolean primality mask for 0..limit by vectorized trial division."""
    xs = np.arange(limit + 1, dtype=np.int64)
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    d = 2
    while d * d <= limit:
        mask &= ~((xs % d == 0) & (xs != d))
        d += 1
    return mask


def primes_upto_trial(limit: int) -> list:
    return np.flatnonzero(trial_division_mask(limit)).tolist()


def tail_sum_mod(lo: int, hi: int, p: int) -> int:
    """Sum of 1/k mod p for k in lo..hi, one stdlib inverse per term."""
    return sum(pow(k, -1, p) for k in range(lo, hi + 1)) % p


def inverse_bruteforce(a: int, p: int) -> int:
    for x in range(1, p):
        if a * x % p == 1:
            return x
    raise AssertionError(f"{a} has no inverse mod {p}")


def numerator_divisor_hits_bruteforce(p: int, nmax: int) -> list:
    """Every n <= nmax with p dividing the reduced numerator of A_n."""
    hits = []
    total = Fraction(0)
    for n in range(1, nmax + 1):
        total += Fraction((-1) ** (n - 1), n)
        if total.numerator % p == 0:
            hits.append(n)
    return hits


def child_env() -> dict:
    """This environment, with the directory holding the altharm package this
    process would import first on PYTHONPATH, so a `python -m altharm` child
    finds the same package, installed or not.  Locating it imports nothing."""
    package = importlib.util.find_spec("altharm").submodule_search_locations[0]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.dirname(package), env.get("PYTHONPATH")])
    )
    return env
