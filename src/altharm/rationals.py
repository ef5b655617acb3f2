"""Exact rational arithmetic for harmonic and alternating harmonic sums.

Values are stdlib fractions.Fraction instances, which already carry the
reduced-form invariants this package relies on: gcd(|num|, den) = 1,
den >= 1, sign on the numerator, zero as 0/1.  The summation routines here
are the slow, trusted oracle for everything the modular fast paths claim.

Each sum is a stdlib Fraction addition, with no private constructor: a block
of 1/k under 64 terms is one loop and one gcd, a longer one is split in half
(binary splitting) to keep operands near reduced size.  A_n is the tail
H_n - H_{n//2}, the sum over (n//2, n]: alternating_sweep chains it over
ascending n, each step adding the terms that enter the tail and taking away
those that leave it.  A verify shard's exact values come from one sweep, and
alternating_exact is its one-index case.  The test oracles check all this
against left-to-right signed Fraction accumulation.
"""

from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Decimal, Inexact, localcontext
from fractions import Fraction
from collections.abc import Iterable, Iterator

from .modfield import PrimeModulus, Residue


class NotPAdicIntegerError(ValueError):
    """Raised when mapping a/b into Z/pZ with p dividing b."""


def _harmonic_sum(lo: int, hi: int) -> Fraction:
    """Sum of 1/k for k in lo..hi, reduced; 0/1 if lo > hi."""
    if hi - lo < 63:  # fewer than 64 terms: one loop, one gcd
        n, d = 0, 1
        for k in range(lo, hi + 1):
            n, d = n * k + d, d * k
        return Fraction(n, d)
    mid = (lo + hi) // 2
    return _harmonic_sum(lo, mid) + _harmonic_sum(mid + 1, hi)


def harmonic_exact(n: int) -> Fraction:
    """The harmonic sum 1 + 1/2 + ... + 1/n, reduced; n = 0 gives 0/1."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return _harmonic_sum(1, n)


def alternating_sweep(ns: Iterable[int]) -> Iterator[Fraction]:
    """A_n, reduced, for each n of a nondecreasing ns; each step moves the tail (n//2, n]."""
    a, prev = Fraction(0), 0
    for n in ns:
        if n < prev:
            raise ValueError(f"n must be nonnegative and nondecreasing, got {n} after {prev}")
        entering = _harmonic_sum(max(prev, n // 2) + 1, n)
        leaving = _harmonic_sum(prev // 2 + 1, min(prev, n // 2))
        a += entering - leaving
        yield a
        prev = n


def alternating_exact(n: int) -> Fraction:
    """The alternating sum 1 - 1/2 + 1/3 - ... + (-1)^(n-1)/n, reduced."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return next(alternating_sweep([n]))


def tail_exact(lo: int, hi: int) -> Fraction:
    """Sum of 1/k for k in lo..hi, reduced.

    With lo = floor(n/2)+1 and hi = n this is the tail form of the
    alternating sum A_n.
    """
    if lo < 1:
        raise ValueError(f"lo must be positive, got {lo}")
    if lo > hi:
        raise ValueError(f"empty tail: lo={lo} > hi={hi}")
    return _harmonic_sum(lo, hi)


def residue_of(x: Fraction, p: PrimeModulus) -> Residue:
    """Map a/b to a * b^(-1) in Z/pZ.

    Defined only when p does not divide b (i.e. x is a p-adic integer).
    """
    q = p.p
    if x.denominator % q == 0:
        raise NotPAdicIntegerError(
            f"{format_fraction(x)} is not a p-adic integer for p={q}"
        )
    return Residue(x.numerator * pow(x.denominator, -1, q) % q, p)


def _int_str(x: int) -> str:
    # Same digits as str(x) in subquadratic time, by CPython 3.12's _pylong
    # scheme: halves joined as lo + hi * 2^(w/2) in exact Decimal arithmetic,
    # which the int/str digit limit (passed by A_n near n = 10^4) does not bind.
    pow2 = {}
    def conv(n: int, w: int) -> Decimal:
        if w <= 1024:
            return Decimal(n)
        h = w // 2
        if h not in pow2:
            pow2[h] = Decimal(2) ** h
        return conv(n & ((1 << h) - 1), h) + conv(n >> h, w - h) * pow2[h]

    with localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = MAX_PREC, MAX_EMAX, MIN_EMIN
        ctx.traps[Inexact] = True
        return ("-" if x < 0 else "") + str(conv(abs(x), abs(x).bit_length()))


def format_fraction(x: Fraction) -> str:
    """Serialize as "numerator/denominator" in base 10, slash always present."""
    return f"{_int_str(x.numerator)}/{_int_str(x.denominator)}"


def format_decimal(x: Fraction, digits: int) -> str:
    """Decimal expansion with exactly `digits` fractional digits, round half to even."""
    num, den = x.numerator, x.denominator
    sign = "-" if num < 0 else ""
    q, r = divmod(abs(num) * 10**digits, den)
    if 2 * r > den or (2 * r == den and q % 2 == 1):
        q += 1
    s = _int_str(q).rjust(digits + 1, "0")
    return f"{sign}{s[:-digits]}.{s[-digits:]}" if digits else sign + s
