"""Exact rational arithmetic for harmonic and alternating harmonic sums.

Values are stdlib fractions.Fraction instances, which already carry the
reduced-form invariants this package relies on: gcd(|num|, den) = 1,
den >= 1, sign on the numerator, zero as 0/1.  The summation routines here
are the slow, trusted oracle for everything the modular fast paths claim.

Every sum is formed by divide and conquer (binary splitting) of 1/k over a
block of k, which keeps intermediate operands near their reduced size.
A_n is the tail H_n - H_{n//2}, the sum over (n//2, n]: alternating_sweep
chains it over ascending n, each step adding the terms that enter the tail
and taking away those that leave it.  A verify shard's exact values come
from one sweep, and alternating_exact is its one-index case.  The test
oracles check all this against left-to-right signed Fraction accumulation.
"""

from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Decimal, Inexact, localcontext
from fractions import Fraction
from collections.abc import Iterable, Iterator
from math import gcd

from .modfield import PrimeModulus, Residue


class NotPAdicIntegerError(ValueError):
    """Raised when mapping a/b into Z/pZ with p dividing b."""


def _merge(n1: int, d1: int, n2: int, d2: int) -> tuple[int, int]:
    # Add two reduced fractions by one formula: any common factor of the raw
    # numerator and the lcm denominator divides g = gcd(d1, d2), so one small
    # gcd finishes the reduction, a no-op when g = 1 (Knuth, TAOCP 4.5.1).
    g = gcd(d1, d2)
    d1g = d1 // g
    t = n1 * (d2 // g) + n2 * d1g
    g2 = gcd(t, g)
    return t // g2, d1g * (d2 // g2)


def _harmonic_pair(lo: int, hi: int) -> tuple[int, int]:
    """Sum of 1/k for k in lo..hi as a reduced (num, den) pair; 0/1 if lo > hi."""
    if lo > hi:
        return 0, 1
    if lo == hi:
        return 1, lo
    if hi - lo == 1:
        # consecutive denominators are coprime, and so is their sum with each
        return lo + hi, lo * hi
    mid = (lo + hi) // 2
    n1, d1 = _harmonic_pair(lo, mid)
    n2, d2 = _harmonic_pair(mid + 1, hi)
    return _merge(n1, d1, n2, d2)


def _reduced(num: int, den: int) -> Fraction:
    # a pair in lowest terms, den > 0, skips Fraction(num, den)'s second gcd;
    # setting the slots is one path on 3.10-3.13 (_normalize=False left in 3.12)
    x = object.__new__(Fraction)
    x._numerator, x._denominator = num, den
    return x


def harmonic_exact(n: int) -> Fraction:
    """The harmonic sum 1 + 1/2 + ... + 1/n, reduced; n = 0 gives 0/1."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return _reduced(*_harmonic_pair(1, n))


def alternating_sweep(ns: Iterable[int]) -> Iterator[Fraction]:
    """A_n, reduced, for each n of a nondecreasing ns; each step moves the tail (n//2, n]."""
    num, den, prev = 0, 1, 0
    for n in ns:
        if n < prev:
            raise ValueError(f"n must be nonnegative and nondecreasing, got {n} after {prev}")
        num, den = _merge(num, den, *_harmonic_pair(max(prev, n // 2) + 1, n))
        out, d = _harmonic_pair(prev // 2 + 1, min(prev, n // 2))
        num, den = _merge(num, den, -out, d)
        yield _reduced(num, den)
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
    return _reduced(*_harmonic_pair(lo, hi))


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
