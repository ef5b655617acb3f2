"""Arithmetic in Z/pZ for odd primes p.

Covers canonical residues, both directions of the witness linkage p <-> n,
the tail sum of A_n modulo p, Fibonacci numbers mod m, and the pairing check
that shows term by term why it cancels.  One prime's tail sum is one product
span in Z[e]/(e^2) (_span); a range of primes takes its harmonic prefixes as
(D, N) pairs from one chained prefix fold of the same spans, started at the
range's lowest cut and read a block of cuts at a time mod the block's primes.
"""

import enum
from collections import namedtuple
from collections.abc import Sequence
from math import prod

from .primes import is_prime

# verify_prime, verify_range and pairing_defect refuse p from here on before
# any work.  For the first two this refuses nothing that could finish: a p
# just below 2^32 needs a tail of about 1.4e9 terms (minutes), and it keeps
# the sieve's base-prime mask small.
_P_LIMIT = 1 << 32

# harmonic_prefixes_mod reads cuts this many at a time through their own
# moduli (16, 32 and 64 measure alike), then divides out those with no cut left
_BLOCK = 32


class PrimeModulus(namedtuple("PrimeModulus", "p")):
    """An odd prime below 2^64; constructing one is the package's odd-prime check."""

    __slots__ = ()

    def __new__(cls, p: int) -> "PrimeModulus":
        if p < 3:
            raise ValueError(f"modulus must be an odd prime >= 3, got {p}")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        return super().__new__(cls, p)


class Residue(namedtuple("Residue", "value modulus")):
    """An element of Z/pZ stored as its canonical representative in [0, p)."""

    __slots__ = ()

    def __new__(cls, value: int, modulus: PrimeModulus) -> "Residue":
        if not 0 <= value < modulus.p:
            raise ValueError(
                f"residue {value} outside [0, {modulus.p})"
            )
        return super().__new__(cls, value, modulus)


class FormCase(enum.Enum):
    """Which witness construction applies; a member prints as its wire tag.

    ODD pairs an odd index n with p = (3n+1)/2; EVEN pairs an even index n
    with p = (3n+2)/2.  str(), f-strings and format() give the lowercase value.
    """

    ODD = "odd"
    EVEN = "even"

    def __str__(self) -> str:
        return self.value


def linked_prime(n: int) -> tuple[int, FormCase]:
    """The (p, case) the construction links to index n, p not necessarily prime:
    p = (3n+1)/2 for odd n (ODD), p = (3n+2)/2 for even n (EVEN)."""
    if n % 2:
        return (3 * n + 1) // 2, FormCase.ODD
    return (3 * n + 2) // 2, FormCase.EVEN


class ProofInapplicableError(ValueError):
    """The witness construction does not cover this prime (p = 2 or 3)."""


def linked_index(p: int) -> tuple[int, FormCase]:
    """The (n, case) whose linked_prime is p; p is not proved prime here.
    No n reaches p in {2, 3}: those raise ProofInapplicableError."""
    if p in (2, 3):
        raise ProofInapplicableError(
            f"proof construction inapplicable for p={p}: 2p-1 = {2 * p - 1} "
            f"is {(2 * p - 1) % 3} mod 3"
        )
    # 2p-1 is 3n or 3n+1 (3n+2 would force 3 | p), so n = floor((2p-1)/3),
    # and linked_prime maps n back to p with the case
    n = (2 * p - 1) // 3
    return n, linked_prime(n)[1]


def alternating_mod(n: int, p: PrimeModulus) -> Residue:
    """Residue of the alternating harmonic sum A_n modulo p, for p > n.

    Evaluates the tail form A_n = 1/(floor(n/2)+1) + ... + 1/n as one span
    (D, D * tail) and one inverse of D; p > n makes every term a unit.
    Refuses p <= n, where 1/p has no meaning mod p.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if p.p <= n:
        raise ValueError(
            f"modulus inside summation range: p={p.p} <= n={n} (need p > n)"
        )
    d, t = _span(n // 2 + 1, n, p.p)
    return Residue(t * pow(d, -1, p.p) % p.p, p)


def _span(lo: int, hi: int, m: int) -> tuple[int, int]:
    """The product of (k + e) for k in lo..hi in Z[e]/(e^2), as (D, N) = mod m
    (lo*...*hi, D * (1/lo + ... + 1/hi)), (1, 0) when lo > hi.  Partial
    products are reduced as they are built, so no long span is ever whole."""
    if hi - lo < 16:
        d, n = 1, 0
        for k in range(lo, hi + 1):
            d, n = d * k, n * k + d
        return d, n
    mid = (lo + hi) // 2
    return _mul(_span(lo, mid, m), _span(mid + 1, hi, m), m)


def _mul(x: tuple[int, int], y: tuple[int, int], m: int) -> tuple[int, int]:
    """(D1, N1)(D2, N2) = (D1 D2, D1 N2 + N1 D2) mod m."""
    (d1, n1), (d2, n2) = x, y
    return d1 * d2 % m, (d1 * n2 + n1 * d2) % m


def five_fibonacci_mod(k: int, m: int) -> int:
    """5 F_k = 2 V_k+1 - V_k mod m, from Lucas numbers (V_0 = 2, V_1 = 1) doubled
    bit by bit: V_2j = V_j^2 - 2(-1)^j and V_2j+1 = V_j V_j+1 - (-1)^j."""
    v, w, s = 2, 1, 1  # V_j, V_j+1 and (-1)^j at j = 0
    for bit in bin(k)[2:]:
        if bit == "1":
            v, w, s = (v * w - s) % m, (w * w + 2 * s) % m, -1
        else:
            v, w, s = (v * v - 2 * s) % m, (v * w - s) % m, 1
    return (2 * w - v) % m


def harmonic_prefixes_mod(cuts: Sequence[int], moduli: Sequence[int]) -> list[tuple[int, int]]:
    """(D, N) = (c!/b!, c!/b! (H_c - H_b)) mod m for each cut c and its modulus
    m, b the first cut and H_c = 1 + 1/2 + ... + 1/c; a first cut 0 gives N/D = H_c.

    cuts ascend, and each m is a prime above its c.  One chained prefix fold
    of the running (D, N) mod the product of the moduli with a cut still
    ahead (primes, so also their lcm), a block of cuts at a time: a copy mod
    the product of the block's own moduli is extended by the span (c', c]
    from each cut before and read at c mod m, with no inverse; the running
    value then takes the block's span product once, and the moduli whose
    last cut was in the block are divided out.  Terms up to b are never summed.
    """
    last = {m: i for i, m in enumerate(moduli)}
    root, v, prev, out = prod(last), (1, 0), cuts[0] if cuts else 0, []
    for i in range(0, len(cuts), _BLOCK):
        block = set(moduli[i : i + _BLOCK])
        small = prod(block)
        w, step = (v[0] % small, v[1] % small), (1, 0)
        for c, m in zip(cuts[i : i + _BLOCK], moduli[i : i + _BLOCK]):
            s, prev = _span(prev + 1, c, root), c
            w, step = _mul(w, s, small), _mul(step, s, root)
            out.append((w[0] % m, w[1] % m))
        v = _mul(v, step, root)
        root //= prod(m for m in block if last[m] < i + _BLOCK)
    return out


def _inverse_range(lo: int, hi: int, p: int) -> list[int]:
    """Inverses of lo..hi mod p; requires 0 < lo and hi < p."""
    return [pow(k, -1, p) for k in range(lo, hi + 1)]


def pairing_defect(n: int, p: PrimeModulus, case: FormCase) -> list[Residue]:
    """Per-pair residues inv(lo+k-1) + inv(hi-k+1) mod p over the tail of A_n.

    With lo = floor(n/2)+1 and hi = n, the case linkage makes each pair of
    arguments sum to exactly p, so every returned residue should be zero;
    the tail length is even, so the pairing covers all summands.  p must be
    below 2^32: the result holds about p/3 residues.
    """
    if p.p >= _P_LIMIT:
        raise ValueError(f"p={p.p} is not below 2^32, the limit of pairing checks")
    _check_case_linkage(n, p.p, case)
    invs = _inverse_range(n // 2 + 1, n, p.p)
    return [Residue((invs[k] + invs[~k]) % p.p, p) for k in range(len(invs) // 2)]


def _check_case_linkage(n: int, p: int, case: FormCase) -> None:
    if n < 1 or linked_prime(n) != (p, case):
        raise ValueError(
            f"n={n}, p={p}, case {case} is not a linked pair: need n >= 1 and "
            "p=(3n+1)/2 with odd n (odd case) or p=(3n+2)/2 with even n (even case)"
        )
