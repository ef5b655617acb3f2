import pytest

import oracles
from altharm import primes
from altharm.primes import PrimeRange, is_prime, odd_primes_iter, sieve_range


@pytest.mark.parametrize(
    "x,want",
    [
        (0, False),
        (1, False),
        (2, True),
        (3, True),
        (4, False),
        (561, False),  # Carmichael
        (2_147_483_647, True),  # 2^31 - 1
        (2**61 - 1, True),
        (2**61 + 1, False),
        # the least strong pseudoprimes to bases (2, 3), (2, 3, 5) and
        # (2, 3, 5, 7); the first and the last bound the two small schedules
        (1_373_653, False),
        (25_326_001, False),
        (3_215_031_751, False),
    ],
)
def test_is_prime_examples(x, want):
    assert is_prime(x) is want


def test_is_prime_agrees_with_trial_division_at_the_two_base_bound():
    # below 1_373_653 = 829 * 1657 two bases decide, from it on four
    for x in range(1_373_653 - 2000, 1_373_653 + 2001):
        assert is_prime(x) == oracles.trial_is_prime(x), x


def test_is_prime_rejects_out_of_range():
    with pytest.raises(ValueError):
        is_prime(-1)
    with pytest.raises(ValueError):
        is_prime(2**64)


def test_is_prime_agrees_with_trial_division():
    for x in range(20_000):
        assert is_prime(x) == oracles.trial_is_prime(x), x


def test_is_prime_is_deterministic():
    xs = [561, 1105, 9973, 2**31 - 1, 10**12 + 39]
    first = [is_prime(x) for x in xs]
    for _ in range(3):
        assert [is_prime(x) for x in xs] == first


def test_prime_range_validation():
    r = PrimeRange(10, 30)
    assert r.width == 21
    with pytest.raises(ValueError):
        PrimeRange(5, 4)
    with pytest.raises(ValueError):
        PrimeRange(-1, 4)


@pytest.mark.parametrize(
    "lo,hi,want",
    [
        (10, 30, [11, 13, 17, 19, 23, 29]),
        (2, 2, [2]),
        (24, 28, []),
        (0, 10, [2, 3, 5, 7]),
        (1, 1, []),
    ],
)
def test_sieve_range_examples(lo, hi, want):
    assert sieve_range(PrimeRange(lo, hi)) == want


def test_sieve_range_budget():
    # one candidate past a segment; raises before any mask is allocated
    with pytest.raises(ValueError, match="segment budget"):
        sieve_range(PrimeRange(0, primes._SEGMENT_WIDTH))


def test_sieve_range_agrees_with_trial_division():
    assert sieve_range(PrimeRange(0, 10_000)) == oracles.primes_upto_trial(10_000)
    lo, hi = 999_000, 1_000_000
    want = [x for x in range(lo, hi + 1) if oracles.trial_is_prime(x)]
    assert sieve_range(PrimeRange(lo, hi)) == want


@pytest.mark.parametrize(
    "pmin,pmax,want",
    [(3, 12, [3, 5, 7, 11]), (4, 4, []), (13, 13, [13]), (0, 10, [3, 5, 7])],
)
def test_odd_primes_iter_examples(pmin, pmax, want):
    assert list(odd_primes_iter(pmin, pmax)) == want


def test_odd_primes_iter_never_yields_two():
    assert 2 not in list(odd_primes_iter(0, 50))


def test_odd_primes_iter_segmentation(monkeypatch):
    # tiny segments must not change the stream; the base primes are then
    # cut into segments too
    monkeypatch.setattr(primes, "_SEGMENT_WIDTH", 7)
    want = [p for p in oracles.primes_upto_trial(2_000) if p != 2]
    assert list(odd_primes_iter(0, 2_000)) == want


@pytest.mark.parametrize(
    "lo",
    [2**32 - 2000, 2**40, 2**41],
    ids=["below-2^32", "2^40", "2^41"],
)
def test_odd_primes_iter_high_ranges(lo):
    # at 2^41 the base primes up to isqrt(hi) > 2^20 span two segments
    hi = lo + 1999
    want = [x for x in range(lo, hi + 1) if x % 2 and is_prime(x)]
    assert list(odd_primes_iter(lo, hi)) == want


def test_odd_primes_iter_rejects_inverted_range():
    with pytest.raises(ValueError):
        list(odd_primes_iter(10, 5))
