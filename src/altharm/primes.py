"""Deterministic 64-bit primality testing and segmented prime sieving."""

import math
from collections import namedtuple
from collections.abc import Iterator
from itertools import compress

# Candidates per sieve segment: keeps the working mask cache-resident and
# bounds the mask of any one sieve_range call.
_SEGMENT_WIDTH = 1 << 20

_U64_MAX = (1 << 64) - 1

# Trial divisors, then strong-pseudoprime bases, each below x and coprime to
# it: as bases they decide every x < 318_665_857_834_031_151_167_461 > 2^64
# (J. Sorenson and J. Webster, Math. Comp. 86, 2017); the composite
# 3_825_123_056_546_413_051 < 2^64 passes every base but 37.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(x: int) -> bool:
    """Deterministically decide primality of x for 0 <= x < 2^64."""
    if x < 0 or x > _U64_MAX:
        raise ValueError(f"is_prime is defined on the 64-bit range, got {x}")
    if x < 41:
        return x in _SMALL_PRIMES
    for p in _SMALL_PRIMES:
        if x % p == 0:
            return False
    d = x - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _SMALL_PRIMES:
        v = pow(a, d, x)
        if v == 1 or v == x - 1:
            continue
        for _ in range(s - 1):
            v = v * v % x
            if v == x - 1:
                break
        else:
            return False
    return True


class PrimeRange(namedtuple("PrimeRange", "lo hi")):
    """Inclusive integer interval [lo, hi] to be sieved."""

    __slots__ = ()

    def __new__(cls, lo: int, hi: int) -> "PrimeRange":
        if lo < 0:
            raise ValueError(f"range bounds must be nonnegative, got lo={lo}")
        if lo > hi:
            raise ValueError(f"empty range: lo={lo} > hi={hi}")
        return super().__new__(cls, lo, hi)

    @property
    def width(self) -> int:
        return self.hi - self.lo + 1


def sieve_range(r: PrimeRange) -> list[int]:
    """Exactly the primes in [r.lo, r.hi], ascending.

    The width of the range may not exceed one segment (2^20 candidates);
    callers with a wider interval must split it (or use odd_primes_iter,
    which does).  The odd base primes up to isqrt(r.hi) come from
    odd_primes_iter, segment by segment, so no mask is wider than a segment.
    """
    if r.width > _SEGMENT_WIDTH:
        raise ValueError(
            f"segment budget exceeded: width {r.width} > {_SEGMENT_WIDTH}; split the range"
        )
    out: list[int] = []
    if r.lo <= 2 <= r.hi:
        out.append(2)
    first = max(r.lo, 3) | 1  # first odd candidate
    count = (r.hi - first) // 2 + 1
    mask = bytearray(b"\x01") * count
    # recursion ends: isqrt(hi) < hi for hi >= 2, and nothing is sieved below 3
    for p in odd_primes_iter(0, math.isqrt(r.hi)):
        start = max(p * p, (first + p - 1) // p * p)
        if start % 2 == 0:
            start += p
        i = (start - first) // 2
        mask[i::p] = bytes(len(range(i, count, p)))
    out.extend(compress(range(first, r.hi + 1, 2), mask))
    return out


def odd_primes_iter(pmin: int, pmax: int) -> Iterator[int]:
    """Yield each odd prime in [pmin, pmax] exactly once, ascending.

    2 is never yielded.  Sieving proceeds in segments of at most 2^20
    candidates, so arbitrarily wide ranges are fine.
    """
    if pmin > pmax:
        raise ValueError(f"pmin={pmin} > pmax={pmax}")
    lo = max(pmin, 3)
    while lo <= pmax:
        hi = min(lo + _SEGMENT_WIDTH - 1, pmax)
        yield from sieve_range(PrimeRange(lo, hi))
        lo = hi + 1
