"""Independent brute-force oracles for the test suite.

Nothing here imports the package under test: sums are term-by-term stdlib
Fraction arithmetic, primality is trial division, inverses are linear scans,
and the closed forms are Fermat and Fibonacci quotients.  Slow on purpose.
child_env sets up the CLI's child processes.
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


def lehmer(p: int) -> int:
    """H_{floor(p/2)} - H_{floor(p/3)} = -2 q_p(2) + (3/2) q_p(3) mod p, with
    q_p(a) = (a^(p-1) - 1)/p (E. Lehmer, 1938)."""
    q2, q3 = ((pow(a, p - 1, p * p) - 1) // p for a in (2, 3))
    return (-2 * q2 + 3 * q3 * pow(2, -1, p)) % p


def fibonacci(k: int, m: int) -> tuple:
    """(F_k, F_k+1) mod m by fast doubling: F_2j = F_j (2 F_j+1 - F_j),
    F_2j+1 = F_j^2 + F_j+1^2."""
    if k == 0:
        return 0, 1
    a, b = fibonacci(k // 2, m)
    a, b = a * (2 * b - a) % m, (a * a + b * b) % m
    return (b, (a + b) % m) if k % 2 else (a, b)


def closed_form(p: int) -> int:
    """x = 4 (H_{floor(3p/10)} - H_{floor(p/3)}) = -8 q_p(2) + 6 q_p(3) - 5 q_p(5)
    + 15 F_{p-(p/5)}/p mod p, for p not dividing 30 (Z.-H. and Z.-W. Sun,
    Acta Arith. 60, 1992; E. Lehmer, 1938), the x the range fold adds."""
    pp = p * p
    q2, q3, q5 = ((pow(a, p - 1, pp) - 1) // p for a in (2, 3, 5))
    f = fibonacci(p - 1 if p % 5 in (1, 4) else p + 1, pp)[0]
    assert f % p == 0
    return (-8 * q2 + 6 * q3 - 5 * q5 + 15 * (f // p)) % p


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
    finds the same package, installed or not.  Locating it imports nothing.
    PYTHONWARNINGS gains error::ResourceWarning, so a file or pipe the child
    leaves for the garbage collector prints a ResourceWarning to its stderr."""
    package = importlib.util.find_spec("altharm").submodule_search_locations[0]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.dirname(package), env.get("PYTHONPATH")])
    )
    env["PYTHONWARNINGS"] = ",".join(
        filter(None, [env.get("PYTHONWARNINGS"), "error::ResourceWarning"])
    )
    return env
