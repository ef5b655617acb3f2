"""Reference answers the benchmark checks the program against.

Nothing here imports altharm: every expected output is rebuilt from first
principles, so a defect in the package cannot also hide in its own check.
"""

import math
from typing import List, Tuple

# The CLI's default --exact-threshold; witness indices up to it are
# reported as exact-checked.
EXACT_THRESHOLD = 2000


def primes_upto(hi: int) -> bytearray:
    """Sieve of Eratosthenes: flags[k] == 1 exactly when k is prime."""
    flags = bytearray([1]) * (hi + 1)
    flags[: min(2, hi + 1)] = bytes(min(2, hi + 1))
    for q in range(2, math.isqrt(hi) + 1):
        if flags[q]:
            flags[q * q :: q] = bytes(len(range(q * q, hi + 1, q)))
    return flags


def primes_between(lo: int, hi: int) -> List[int]:
    flags = primes_upto(hi)
    return [k for k in range(max(lo, 2), hi + 1) if flags[k]]


def witness(p: int) -> Tuple[int, str]:
    """The witness index n and its case for an odd prime p >= 5."""
    if (2 * p - 1) % 3 == 0:
        return (2 * p - 1) // 3, "odd"
    return (2 * p - 2) // 3, "even"


def verify_stream(pmin: int, pmax: int) -> bytes:
    """The exact jsonl bytes `altharm verify` must print for [pmin, pmax].

    Every residue is 0: that is the theorem the program verifies.  The
    canaries, not this stream, show that the kernel computes residues.
    """
    lines = []
    for p in primes_between(max(pmin, 5), pmax):
        n, case = witness(p)
        checked = "true" if n <= EXACT_THRESHOLD else "false"
        lines.append(
            f'{{"p":{p},"n":{n},"case":"{case}","residue":0,'
            f'"exact_checked":{checked},"ok":true}}\n'
        )
    return "".join(lines).encode("ascii")


def alternating_mod(n: int, p: int) -> int:
    """A_n mod p term by term: sum of (-1)^(k-1) * k^(-1) for k = 1..n < p."""
    total = 0
    for k in range(1, n + 1):
        inv = pow(k, -1, p)
        total += inv if k % 2 else -inv
    return total % p


def numerator_divisor_hits(p: int, nmax: int) -> List[int]:
    """Every n <= nmax with p dividing the reduced numerator of A_n.

    p-adic scan (Boyd 1994): with L = floor(log_p nmax), p^L * A_n is a
    p-adic integer, and p divides numerator(A_n) exactly when it is
    0 mod p^(L+1).  Each term (-1)^(k-1) p^L / k is added as
    p^(L-v) * m^(-1) for k = p^v * m.
    """
    big_l, q = 0, p
    while q <= nmax:
        big_l, q = big_l + 1, q * p
    mod = p ** (big_l + 1)
    total, hits = 0, []
    for k in range(1, nmax + 1):
        v, m = 0, k
        while m % p == 0:
            v, m = v + 1, m // p
        term = p ** (big_l - v) * pow(m, -1, mod)
        total = (total + term if k % 2 else total - term) % mod
        if total == 0:
            hits.append(k)
    return hits


def search_stream(p: int, nmax: int) -> bytes:
    """The exact jsonl bytes `altharm search p --nmax N` must print."""
    return "".join(
        f'{{"p":{p},"n":{n}}}\n' for n in numerator_divisor_hits(p, nmax)
    ).encode("ascii")


def alternating_scaled(n: int) -> Tuple[int, int]:
    """(S, L) with L = lcm(1..n) and S = L * A_n, both exact integers.

    Sums the tail form A_n = 1/(floor(n/2)+1) + ... + 1/n, half the terms
    of the alternating form (about 2.5 s at n = 10^5).
    """
    flags = primes_upto(n)
    big_l = 1
    for q in range(2, n + 1):
        if flags[q]:
            qk = q
            while qk * q <= n:
                qk *= q
            big_l *= qk
    return sum(big_l // k for k in range(n // 2 + 1, n + 1)), big_l


def is_alternating_sum(num: int, den: int, scaled: Tuple[int, int]) -> bool:
    """Whether num/den is A_n in lowest terms, given alternating_scaled(n)."""
    s, big_l = scaled
    return den > 0 and math.gcd(num, den) == 1 and num * big_l == s * den
