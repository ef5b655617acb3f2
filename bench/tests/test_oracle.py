"""The oracle against brute force with stdlib fractions."""

from fractions import Fraction

import pytest

import oracle


def brute_alternating(n):
    return sum(Fraction((-1) ** (k - 1), k) for k in range(1, n + 1))


def test_primes_between_matches_trial_division():
    naive = [k for k in range(2, 2000) if all(k % d for d in range(2, int(k**0.5) + 1))]
    assert oracle.primes_between(0, 1999) == naive
    assert oracle.primes_between(100, 200) == [k for k in naive if 100 <= k <= 200]


def test_witness_linkage():
    for p in oracle.primes_between(5, 3000):
        n, case = oracle.witness(p)
        assert (3 * n + 1 == 2 * p) if case == "odd" else (3 * n + 2 == 2 * p)
    for p in oracle.primes_between(5, 200):
        assert brute_alternating(oracle.witness(p)[0]).numerator % p == 0


def test_verify_stream_records():
    assert oracle.verify_stream(3, 12) == (
        b'{"p":5,"n":3,"case":"odd","residue":0,"exact_checked":true,"ok":true}\n'
        b'{"p":7,"n":4,"case":"even","residue":0,"exact_checked":true,"ok":true}\n'
        b'{"p":11,"n":7,"case":"odd","residue":0,"exact_checked":true,"ok":true}\n'
    )
    assert oracle.verify_stream(3001, 3011).count(b'"exact_checked":false') == 1


@pytest.mark.parametrize("n,p", [(1, 3), (6, 7), (30, 31), (100, 101), (50, 1009)])
def test_alternating_mod(n, p):
    a = brute_alternating(n)
    assert oracle.alternating_mod(n, p) == a.numerator * pow(a.denominator, -1, p) % p


@pytest.mark.parametrize("p,nmax", [(3, 300), (5, 300), (7, 300), (11, 150)])
def test_numerator_divisor_hits(p, nmax):
    want, a = [], Fraction(0)
    for k in range(1, nmax + 1):
        a += Fraction((-1) ** (k - 1), k)
        if a.numerator % p == 0:
            want.append(k)
    assert oracle.numerator_divisor_hits(p, nmax) == want


def test_search_canary_hits():
    assert oracle.numerator_divisor_hits(7, 1500) == [4, 30, 34, 210, 214, 241, 1499]
    assert oracle.search_stream(7, 40) == b'{"p":7,"n":4}\n{"p":7,"n":30}\n{"p":7,"n":34}\n'
