import math
import random
import sys
from fractions import Fraction

import pytest

import oracles
from altharm import rationals
from altharm.rationals import (
    NotPAdicIntegerError,
    alternating_exact,
    alternating_sweep,
    format_decimal,
    format_fraction,
    harmonic_exact,
    residue_of,
    tail_exact,
)
from altharm.modfield import PrimeModulus, linked_index


@pytest.mark.parametrize("n,want", [(0, "0/1"), (1, "1/1"), (2, "3/2"), (4, "25/12")])
def test_harmonic_examples(n, want):
    assert format_fraction(harmonic_exact(n)) == want


@pytest.mark.parametrize(
    "n,want",
    [(0, "0/1"), (1, "1/1"), (3, "5/6"), (4, "7/12"), (7, "319/420")],
)
def test_alternating_examples(n, want):
    assert format_fraction(alternating_exact(n)) == want


def test_alternating_7_numerator_divisible_by_11():
    assert alternating_exact(7).numerator % 11 == 0


@pytest.mark.parametrize(
    "lo,hi,want", [(1, 1, "1/1"), (4, 7, "319/420"), (3, 4, "7/12")]
)
def test_tail_examples(lo, hi, want):
    assert format_fraction(tail_exact(lo, hi)) == want


def test_negative_n_rejected():
    with pytest.raises(ValueError):
        harmonic_exact(-1)
    # one n has no order to keep, so the sweep's "nondecreasing" is not named
    with pytest.raises(ValueError, match=r"^n must be nonnegative, got -3$"):
        alternating_exact(-3)


def test_tail_rejects_bad_bounds():
    with pytest.raises(ValueError):
        tail_exact(5, 4)
    with pytest.raises(ValueError):
        tail_exact(0, 4)


def test_sums_match_bruteforce_oracle():
    for n in range(0, 120):
        assert harmonic_exact(n) == oracles.harmonic_bruteforce(n)
        assert alternating_exact(n) == oracles.alternating_bruteforce(n)
    for lo, hi in [(1, 1), (2, 9), (10, 57), (100, 131)]:
        assert tail_exact(lo, hi) == oracles.range_sum_bruteforce(lo, hi)


def test_tail_identity():
    # A_n = H_n - H_{n//2} = sum over the upper half of the range, with A_n
    # from the signed series: the exact kernel sums the tail itself, so
    # taking A_n from alternating_exact would compare it with itself
    for n, a in enumerate(oracles.alternating_stream(499), 1):
        assert a == harmonic_exact(n) - harmonic_exact(n // 2)
        assert a == tail_exact(n // 2 + 1, n)


def test_harmonic_denominator_even_for_n_ge_2():
    for n in range(2, 500):
        assert harmonic_exact(n).denominator % 2 == 0


def test_alternating_bounds():
    for n in range(1, 400):
        a = alternating_exact(n)
        assert Fraction(1, 2) <= a <= Fraction(1, 1)


def test_summation_order_independence():
    # left-to-right Fraction accumulation vs divide-and-conquer
    streams = zip(oracles.harmonic_stream(400), oracles.alternating_stream(400))
    for n, (h, a) in enumerate(streams, 1):
        assert harmonic_exact(n) == h
        assert alternating_exact(n) == a


# long sweeps whose steps grow n by one or two terms ("pairs") and by
# 2^k - 1, 2^k and 2^k + 1 terms on either side of a power of two
# ("split-sizes"), so the tail both gains and loses blocks along the way
_BLOCKS = [7, 8, 9, 16, 17, 15, 1, 2, 3, 2, 1, 2, 31, 32, 33, 3]
_SWEEPS = {
    "empty": [],
    "zero": [0, 0, 1],
    "one": [1],
    "repeated": [1, 1, 2],
    "consecutive": list(range(1, 40)),
    "pairs": [2, 4, 5, 7, 8, 10],
    "split-sizes": [sum(_BLOCKS[:i + 1]) for i in range(len(_BLOCKS))],
    "repeats-and-gaps": [3, 3, 10, 10, 10, 11, 64, 64, 129],
}


@pytest.mark.parametrize("ns", _SWEEPS.values(), ids=_SWEEPS.keys())
def test_sweep_matches_one_sum_per_index_and_the_stream_oracle(ns):
    got = list(alternating_sweep(ns))
    assert got == [alternating_exact(n) for n in ns]
    stream = [Fraction(0), *oracles.alternating_stream(max(ns, default=0))]
    assert got == [stream[n] for n in ns]
    assert all(math.gcd(x.numerator, x.denominator) == 1 for x in got)


# A step from m to n adds the terms entering the tail, (max(m, n//2), n],
# and takes away those leaving it, (m//2, min(m, n//2)].  Both blocks take
# both branches of _harmonic_sum, the one loop under 64 terms and the split
# in half from 64 up: _SIZES holds 2^k - 1, 2^k and 2^k + 1 terms up to
# twice that threshold.
_SIZES = [1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129]
_STEPS = {
    # n >= 2m, disjoint tails: at (s, 2s) s terms enter, at (2s, 4s) s leave
    "disjoint": [(s, 2 * s) for s in _SIZES] + [(2 * s, 4 * s) for s in _SIZES],
    # m < n < 2m, overlapping tails: s terms enter from an even and an odd m,
    # and at (300, 300 + 2s) s leave
    "overlap": [(m, m + s) for m in (300, 301) for s in _SIZES]
    + [(300, 300 + 2 * s) for s in _SIZES],
    # m even and n = m + 1, so n//2 == m//2: one term enters, none leaves
    "nothing-leaves": [(m, m + 1) for m in (0, 2, 16, 64)],
    "repeated": [(m, m) for m in (0, 1, 2, 33)],
}
_KINDS = {
    "disjoint": lambda m, n: n >= 2 * m,
    "overlap": lambda m, n: m < n < 2 * m,
    "nothing-leaves": lambda m, n: m < n and n // 2 == m // 2,
    "repeated": lambda m, n: m == n,
}


@pytest.mark.parametrize("kind", _STEPS)
def test_sweep_steps_match_the_stream_oracle(kind):
    stream = [Fraction(0), *oracles.alternating_stream(600)]  # n <= 558
    for m, n in _STEPS[kind]:
        assert _KINDS[kind](m, n)
        assert list(alternating_sweep([m, n])) == [stream[m], stream[n]]


def test_sweep_steps_cover_every_block_size():
    steps = _STEPS["disjoint"] + _STEPS["overlap"]
    entering = {n - max(m, n // 2) for m, n in steps}
    leaving = {min(m, n // 2) - m // 2 for m, n in steps}
    assert set(_SIZES) <= entering and set(_SIZES) <= leaving


def test_exact_sums_only_the_tail(monkeypatch):
    # alternating_exact(n) sums the n - n//2 terms of (n//2, n] and no term
    # below: H_n - H_{n//2} from 1 would sum 1.5 times as many
    real, blocks = rationals._harmonic_sum, []

    def spy(lo, hi):
        blocks.append((lo, hi))
        return real(lo, hi)

    monkeypatch.setattr(rationals, "_harmonic_sum", spy)
    stream = [Fraction(0), *oracles.alternating_stream(1001)]
    for n in (1, 2, 7, 64, 1000, 1001):
        blocks.clear()
        assert alternating_exact(n) == stream[n]
        assert min(lo for lo, hi in blocks if lo <= hi) == n // 2 + 1


def test_sweep_over_the_exact_zone_witness_indices():
    # the indices a verify shard from 5 sweeps: every p <= 3001, n <= 2000
    ns = [linked_index(p)[0] for p in oracles.primes_upto_trial(3001) if p >= 5]
    assert len(ns) == 429 and ns[-1] == 2000
    stream = [Fraction(0), *oracles.alternating_stream(2000)]
    got = list(alternating_sweep(ns))
    assert got == [stream[n] for n in ns]
    assert got == [alternating_exact(n) for n in ns]


@pytest.mark.parametrize("ns", [[-1], [0, -3], [5, 4], [1, 2, 7, 6]])
def test_sweep_rejects_negative_and_descending_indices(ns):
    with pytest.raises(ValueError, match="nonnegative and nondecreasing"):
        list(alternating_sweep(ns))


def test_outputs_are_reduced():
    # each sum must be a reduced Fraction that equals, hashes and computes
    # like one built by Fraction's own constructor from its two parts
    sweep = alternating_sweep(range(1, 200))
    for n, a in zip(range(1, 200), sweep):
        for x in (harmonic_exact(n), a, tail_exact(max(1, n // 3 + 1), n)):
            assert type(x) is Fraction
            assert math.gcd(x.numerator, x.denominator) == 1
            assert x.denominator >= 1
            y = Fraction(x.numerator, x.denominator)
            assert x == y and hash(x) == hash(y)
            assert (x + 1, x * x, x - y, x / 2) == (y + 1, y * y, 0, y / 2)


def _int_str_cases():
    # around the 1024-bit leaf and its doublings, powers of 10 and of 2 each
    # side, then random widths up to 300 kbit
    cases = [0, 1, -1]
    for k in (1023, 1024, 1025, 2047, 2048, 2049, 4096, 8193):
        cases += [s * (2**k + d) for s in (1, -1) for d in (-1, 0, 1)]
    for k in (308, 309, 617, 1233, 2466):  # digits near the same bit widths
        cases += [s * (10**k + d) for s in (1, -1) for d in (-1, 0, 1)]
    rng = random.Random(21)
    cases += [rng.choice((1, -1)) * rng.getrandbits(rng.randint(1, 300_000)) for _ in range(16)]
    return cases


def test_int_str_matches_str():
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    before = get_limit() if get_limit else None
    if get_limit:
        sys.set_int_max_str_digits(0)
    try:
        for x in _int_str_cases():
            assert rationals._int_str(x) == str(x)
    finally:
        if get_limit:
            sys.set_int_max_str_digits(before)


def test_residue_of_examples():
    assert residue_of(Fraction(0, 1), PrimeModulus(7)).value == 0
    assert residue_of(Fraction(5, 6), PrimeModulus(5)).value == 0
    assert residue_of(Fraction(3, 2), PrimeModulus(3)).value == 0
    with pytest.raises(ValueError):
        # 2 is not an odd prime modulus at all
        residue_of(Fraction(3, 2), PrimeModulus(2))


def test_residue_of_rejects_non_p_adic():
    with pytest.raises(NotPAdicIntegerError):
        residue_of(Fraction(1, 6), PrimeModulus(3))


def test_residue_of_matches_direct_evaluation():
    pm = PrimeModulus(101)
    rng = random.Random(7)
    for _ in range(200):
        num = rng.randint(-10**9, 10**9)
        den = rng.randint(1, 10**9)
        if den % 101 == 0:
            den += 1
        x = Fraction(num, den)
        if x.denominator % 101 == 0:
            continue
        r = residue_of(x, pm).value
        assert r * x.denominator % 101 == x.numerator % 101


def test_format_fraction():
    assert format_fraction(Fraction(319, 420)) == "319/420"
    assert format_fraction(Fraction(-1, 2)) == "-1/2"
    assert format_fraction(Fraction(0)) == "0/1"
    assert format_fraction(Fraction(3)) == "3/1"


def test_format_decimal():
    # ties round half to even: 0.125 -> 0.12, 0.375 -> 0.38
    assert format_decimal(Fraction(1, 8), 2) == "0.12"
    assert format_decimal(Fraction(3, 8), 2) == "0.38"
    assert format_decimal(Fraction(-1, 8), 2) == "-0.12"
    # digits=0 prints no point: 2.5 -> 2, 3.5 -> 4, 319/420 -> 1
    assert format_decimal(Fraction(5, 2), 0) == "2"
    assert format_decimal(Fraction(7, 2), 0) == "4"
    assert format_decimal(Fraction(319, 420), 0) == "1"
    # below 1: a leading zero, and zeros kept after the point
    assert format_decimal(Fraction(1, 300), 4) == "0.0033"
    assert format_decimal(Fraction(319, 420), 6) == "0.759524"
    assert format_decimal(Fraction(1, 3000), 2) == "0.00"


def test_format_fraction_past_the_int_str_digit_limit():
    # A_11000's numerator has more digits than the default limit of 4300
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    before = get_limit() if get_limit else None
    value = alternating_exact(11000)
    text = format_fraction(value)
    if get_limit:
        assert get_limit() == before
        sys.set_int_max_str_digits(0)
    try:
        want = f"{value.numerator}/{value.denominator}"
    finally:
        if get_limit:
            sys.set_int_max_str_digits(before)
    assert len(want) > 4300
    assert text == want
