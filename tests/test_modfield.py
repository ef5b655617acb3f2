import math
import random

import pytest

import oracles
from altharm import modfield
from altharm.modfield import (
    _BLOCK,
    FormCase,
    PrimeModulus,
    Residue,
    _check_case_linkage,
    _span,
    alternating_mod,
    five_fibonacci_mod,
    harmonic_prefixes_mod,
    pairing_defect,
)
from altharm.engine import classify_index
from altharm.rationals import alternating_exact, harmonic_exact, residue_of
from altharm.primes import is_prime


def test_prime_modulus_validation():
    assert PrimeModulus(3).p == 3
    assert PrimeModulus(2**31 - 1).p == 2**31 - 1
    for bad in (0, 1, 2, 4, 9, 561):
        with pytest.raises(ValueError):
            PrimeModulus(bad)


def test_residue_validation_and_canonicalization():
    pm = PrimeModulus(7)
    assert Residue(-1 % 7, pm).value == 6
    assert Residue(15 % 7, pm).value == 1
    with pytest.raises(ValueError):
        Residue(7, pm)
    with pytest.raises(ValueError):
        Residue(-1, pm)


def _span_tail(lo, hi, p):
    # 1/lo + ... + 1/hi mod p from the span (D, D * tail)
    d, t = _span(lo, hi, p)
    return t * pow(d, -1, p) % p


def _check_span_tails(primes, seed):
    # _span and alternating_mod against the one-inverse-per-term sum, on
    # random and top-of-field windows whose sizes are odd, even and powers of
    # two, straddling _span's 16-term leaves
    rng = random.Random(seed)
    nonzero = 0
    for p in primes:
        assert is_prime(p)
        sizes = {1, 2, 3}
        for k in (2, 4, 6, 10):
            sizes |= {2**k - 1, 2**k, 2**k + 1}
        for size in sorted(s for s in sizes if s < p):
            lo = rng.randrange(1, p - size + 1)
            for a, b in ((lo, lo + size - 1), (p - size, p - 1)):
                want = oracles.tail_sum_mod(a, b, p)
                assert _span_tail(a, b, p) == want, (a, b, p)
                nonzero += want != 0
            want = oracles.tail_sum_mod(size // 2 + 1, size, p)
            assert alternating_mod(size, PrimeModulus(p)).value == want, (size, p)
    return nonzero


def test_span_tails_match_the_oracle():
    assert _check_span_tails((5, 97, 65537, 2**31 - 1), 5) > 40


def test_span_tails_agree_across_the_word_boundary():
    # moduli either side of 3037000499, past which a product of two residues
    # leaves a machine word, on the same tails and a 500-term window at 10^6
    below, above = 3_037_000_493, 3_037_000_507
    assert below * below < 2**63 <= above * above
    assert _check_span_tails((below, above), 7) > 20
    for p in (below, above):
        lo, hi = 10**6, 10**6 + 499
        want = oracles.tail_sum_mod(lo, hi, p)
        assert want != 0
        assert _span_tail(lo, hi, p) == want


# Cuts alternate below and above this, so short leaf spans meet long ones,
# whose partial products pass the moduli's product and are reduced as built.
_LONG_SPAN = 512


def _prefixes(cuts, moduli):
    # harmonic_prefixes_mod's (D, N) pairs read as H_c - H_b = N/D mod m
    pairs = harmonic_prefixes_mod(cuts, moduli)
    return [n * pow(d, -1, m) % m for (d, n), m in zip(pairs, moduli)]


def _random_prefix_case(rng, leaves, primes):
    # ascending cuts, each below its own prime
    pairs = []
    for i in range(leaves):
        if i % 2:
            p = rng.choice([q for q in primes if q > 2 * _LONG_SPAN])
            pairs.append((rng.randrange(_LONG_SPAN + 1, p), p))
        else:
            p = rng.choice(primes)
            pairs.append((rng.randrange(1, min(_LONG_SPAN, p)), p))
    pairs.sort()
    return [c for c, _ in pairs], [p for _, p in pairs]


@pytest.mark.parametrize("leaves", [1, 2, 3, 4, 5, 7, 16, 31, 32, 33, 64, 65, 97])
def test_harmonic_prefixes_mod_matches_both_oracles(leaves):
    # (H_c - H_b) mod m against the one-inverse-per-term sum and the exact
    # rational difference, on random cuts whose answers are almost all
    # nonzero, behind a first cut b of 0 (plain H_c), inside (0, c_1] and
    # equal to c_1, which then reads 0 as b itself always does
    rng = random.Random(leaves)
    primes = [p for p in oracles.primes_upto_trial(5_000) if p > 2]
    for _ in range(4):
        cuts, moduli = _random_prefix_case(rng, leaves, primes)
        for base in (0, rng.randrange(1, cuts[0] + 1), cuts[0]):
            first, *got = _prefixes([base] + cuts, moduli[:1] + moduli)
            assert first == 0
            want = [oracles.tail_sum_mod(base + 1, c, m) for c, m in zip(cuts, moduli)]
            exact = [
                residue_of(harmonic_exact(c) - harmonic_exact(base), PrimeModulus(m)).value
                for c, m in zip(cuts, moduli)
            ]
            assert got == want == exact
            # b = c_1 reads 0, and chance zeros come about one in 32
            assert sum(w != 0 for w in want) >= leaves - 1 - leaves // 32


def test_harmonic_prefixes_mod_on_shifted_witness_cuts():
    # the tail's ends, floor(p/3) and n, with n moved down by one so that the
    # tail H_{n-1} - H_{floor(p/3)} is no longer 0, behind a first cut 0 so
    # that each reads H_c: moduli near 10^6, spans of 17 to 333000 terms
    primes = [p for p in range(1_000_003, 1_000_100, 2) if is_prime(p)][:6]
    pairs = sorted((c, p) for p in primes for c in (p // 3, (2 * p - 1) // 3 - 1))
    pairs[:0] = [(0, primes[0]), (17, primes[-1])]
    cuts, moduli = [c for c, _ in pairs], [p for _, p in pairs]
    h = dict(zip(pairs, _prefixes(cuts, moduli)))
    assert h[17, primes[-1]] == oracles.tail_sum_mod(1, 17, primes[-1])
    for p in primes:
        low, top = p // 3, (2 * p - 1) // 3 - 1
        assert h[low, p] == _span_tail(1, low, p) != 0
        tail = _span_tail(low + 1, top, p)
        assert tail != 0
        assert (h[top, p] - h[low, p]) % p == tail
    # one long prefix against the one-inverse-per-term sum as well
    p = primes[0]
    assert h[p // 3, p] == oracles.tail_sum_mod(1, p // 3, p)


def test_harmonic_prefixes_mod_from_the_lowest_cut_near_a_million():
    # three cuts per prime, floor(p/3), floor(p/2) and n - 1, folded from
    # the first, the lowest floor(p/3): each cut holds H_c - H_base, no term
    # up to base
    primes = [p for p in range(1_000_003, 1_000_100, 2) if is_prime(p)][:6]
    tops = {p: (2 * p - 1) // 3 - 1 for p in primes}
    pairs = sorted((c, p) for p in primes for c in (p // 3, p // 2, tops[p]))
    base = primes[0] // 3
    assert pairs[0] == (base, primes[0])
    h = dict(zip(pairs, _prefixes([c for c, _ in pairs], [p for _, p in pairs])))
    for p in primes:
        assert h[p // 3, p] == oracles.tail_sum_mod(base + 1, p // 3, p)
        assert h[p // 2, p] == _span_tail(base + 1, p // 2, p) != 0
        assert h[tops[p], p] == _span_tail(base + 1, tops[p], p) != 0
    p = primes[-1]
    assert h[tops[p], p] == oracles.tail_sum_mod(base + 1, tops[p], p)


def _shard_pairs():
    """A shard's (cut, p): n and floor(7p/10) of the 220 primes 5..1399."""
    primes = [p for p in oracles.primes_upto_trial(1400) if p >= 5]
    return sorted((c, p) for p in primes for c in ((2 * p - 1) // 3, 7 * p // 10))


def test_harmonic_prefixes_mod_on_a_shard_of_primes():
    # the shard's cuts folded from the lowest n: moduli finish in most
    # blocks, so the fold divides them out block after block, and many a
    # prime has one cut either side of a block edge, so a modulus divided
    # out a block early reads wrong
    pairs = _shard_pairs()
    where = {}
    for i, (_, p) in enumerate(pairs):
        where.setdefault(p, []).append(i // _BLOCK)
    assert len({last for _, last in where.values()}) >= 8
    assert sum(last == first + 1 for first, last in where.values()) >= 20
    got = _prefixes([c for c, _ in pairs], [p for _, p in pairs])
    base = pairs[0][0]
    assert got == [oracles.tail_sum_mod(base + 1, c, p) for c, p in pairs]
    assert sum(g != 0 for g in got) > 400


def test_harmonic_prefixes_mod_divides_out_each_finished_modulus(monkeypatch):
    # once a block holding a prime's last cut is over, no reduction is taken
    # mod a multiple of it: from the first read of the next block on (a _mul
    # mod the product of that block's own moduli), every modulus is coprime
    # to the primes that finished before
    pairs = _shard_pairs()
    moduli = [p for _, p in pairs]
    seen, real = [], modfield._mul
    monkeypatch.setattr(modfield, "_mul", lambda x, y, m: (seen.append(m), real(x, y, m))[1])
    harmonic_prefixes_mod([c for c, _ in pairs], moduli)
    last = {p: i for i, p in enumerate(moduli)}
    for i in range(_BLOCK, len(moduli), _BLOCK):
        start = seen.index(math.prod(set(moduli[i : i + _BLOCK])))
        gone = math.prod(p for p, j in last.items() if j < i)
        assert gone > 1 and all(math.gcd(m, gone) == 1 for m in seen[start:]), i


def test_harmonic_prefixes_mod_edges():
    assert harmonic_prefixes_mod([], []) == []
    # H_0 = 0, equal cuts (an empty span), and a cut one below its modulus,
    # where H_{p-1} = 0 mod p (Wolstenholme, p > 3) and H_{p-2} = 1
    cuts, moduli = [0, 3, 3, 11, 12], [13, 7, 5, 13, 13]
    assert _prefixes(cuts, moduli) == [0, 11 * pow(6, -1, 7) % 7, 11 * pow(6, -1, 5) % 5, 1, 0]
    # the pairs themselves, uninverted: D = c!/b! and N = D (H_c - H_b), b = 0
    assert harmonic_prefixes_mod(cuts, moduli) == [
        (math.factorial(c) % m, residue_of(math.factorial(c) * harmonic_exact(c), PrimeModulus(m)).value)
        for c, m in zip(cuts, moduli)
    ]
    # from a first cut b = 4, D = c!/4!
    cuts, moduli = [4, 9, 12, 12], [5, 11, 13, 17]
    d, _ = zip(*harmonic_prefixes_mod(cuts, moduli))
    assert d == tuple(math.factorial(c) // 24 % m for c, m in zip(cuts, moduli))


def test_five_fibonacci_mod_against_the_recurrence():
    fib = [0, 1]
    while len(fib) < 300:
        fib.append(fib[-1] + fib[-2])
    for m in (7, 25, 1009**2, 2**61 - 1, 10**40):
        assert [five_fibonacci_mod(k, m) for k in range(300)] == [5 * f % m for f in fib]
    # F_{p-(p/5)} is 0 mod p, and its quotient by p is what the range adds
    for p in (7, 11, 1_006_331):
        k = p - 1 if p % 5 in (1, 4) else p + 1
        assert five_fibonacci_mod(k, p * p) % p == 0


@pytest.mark.parametrize("n,p,want", [(7, 11, 0), (4, 7, 0), (2, 5, 3)])
def test_alternating_mod_examples(n, p, want):
    assert alternating_mod(n, PrimeModulus(p)).value == want


def test_alternating_mod_rejects_modulus_in_range():
    with pytest.raises(ValueError, match="summation range"):
        alternating_mod(7, PrimeModulus(7))
    with pytest.raises(ValueError, match="summation range"):
        alternating_mod(11, PrimeModulus(5))
    with pytest.raises(ValueError):
        alternating_mod(0, PrimeModulus(5))


@pytest.mark.parametrize("p", [5, 7, 11, 13, 101, 1009])
def test_alternating_mod_agrees_with_exact_oracle(p):
    pm = PrimeModulus(p)
    for n in range(1, min(p, 120)):
        assert (
            alternating_mod(n, pm).value
            == residue_of(alternating_exact(n), pm).value
        )


def test_pairing_defect_examples():
    assert [r.value for r in pairing_defect(7, PrimeModulus(11), FormCase.ODD)] == [0, 0]
    assert [r.value for r in pairing_defect(4, PrimeModulus(7), FormCase.EVEN)] == [0]
    assert [r.value for r in pairing_defect(3, PrimeModulus(5), FormCase.ODD)] == [0]


def test_pairing_defect_rejects_mismatches():
    with pytest.raises(ValueError):
        pairing_defect(7, PrimeModulus(11), FormCase.EVEN)
    with pytest.raises(ValueError):
        pairing_defect(5, PrimeModulus(11), FormCase.ODD)
    with pytest.raises(ValueError):
        pairing_defect(4, PrimeModulus(11), FormCase.EVEN)
    with pytest.raises(ValueError):
        pairing_defect(8, PrimeModulus(13), FormCase.ODD)
    # the linkage itself, where p need not be a valid modulus; n = 0 with
    # p = 1 would pass the map (3n+2)/2 without the n >= 1 rule
    for n, p, case in [
        (0, 1, FormCase.EVEN),
        (7, 11, FormCase.EVEN),  # odd n under EVEN
        (8, 13, FormCase.ODD),  # even n under ODD
        (7, 10, FormCase.ODD), (7, 12, FormCase.ODD),
        (8, 12, FormCase.EVEN), (8, 14, FormCase.EVEN),
    ]:
        with pytest.raises(ValueError, match="not a linked pair"):
            _check_case_linkage(n, p, case)
    # the message names the case by its tag
    with pytest.raises(ValueError, match="case even is not a linked pair"):
        _check_case_linkage(7, 11, FormCase.EVEN)
    _check_case_linkage(7, 11, FormCase.ODD)
    _check_case_linkage(8, 13, FormCase.EVEN)


def test_classify_index_agrees_with_case_linkage():
    for n in range(-2, 2001):
        linked = []
        for p in range(3 * n // 2 - 2, 3 * n // 2 + 4):
            for case in FormCase:
                try:
                    _check_case_linkage(n, p, case)
                except ValueError:
                    continue
                linked.append((p, case))
        # exactly one linked (p, case) per positive index, none otherwise
        assert len(linked) == (1 if n >= 1 else 0), (n, linked)
        hit = classify_index(n)
        if linked and linked[0][0] >= 5 and oracles.trial_is_prime(linked[0][0]):
            assert hit == linked[0]
        else:
            assert hit is None


def test_pairing_defect_pairs_sum_to_modulus():
    # inv(a) + inv(b) = 0 mod p exactly because a + b = p
    for n, p, case in [(7, 11, FormCase.ODD), (8, 13, FormCase.EVEN), (3, 5, FormCase.ODD)]:
        pm = PrimeModulus(p)
        defects = pairing_defect(n, pm, case)
        lo, hi = n // 2 + 1, n
        count = hi - lo + 1
        assert count % 2 == 0
        assert len(defects) == count // 2
        for k, r in enumerate(defects, 1):
            a, b = lo + k - 1, hi - k + 1
            assert a + b == p
            # each residue is its own pair's two inverses, from the oracle
            inv_a, inv_b = (oracles.inverse_bruteforce(x, p) for x in (a, b))
            assert r.value == (inv_a + inv_b) % p
        assert all(r.value == 0 for r in defects)
        # the paired inverses sum to the whole tail, i.e. to A_n mod p
        assert sum(r.value for r in defects) % p == alternating_mod(n, pm).value == 0
