import concurrent.futures
import json

import pytest

import oracles
import altharm
from altharm import cli, engine, modfield
from altharm.primes import odd_primes_iter
from altharm.engine import (
    RECORD_FIELDS,
    ConsistencyError,
    FormCase,
    ProofInapplicableError,
    WitnessRecord,
    check_range,
    classify_index,
    record_row,
    record_to_json,
    row_to_csv,
    row_to_json,
    search_numerator_divisor,
    verify_prime,
    verify_range,
    witness_index,
)


@pytest.mark.parametrize(
    "p,n,case",
    [
        (5, 3, FormCase.ODD),
        (7, 4, FormCase.EVEN),
        (11, 7, FormCase.ODD),
        (13, 8, FormCase.EVEN),
    ],
)
def test_witness_index_examples(p, n, case):
    assert witness_index(p) == (n, case)


def test_witness_index_rejects_2_and_3_with_dedicated_error():
    assert ProofInapplicableError is modfield.ProofInapplicableError is altharm.ProofInapplicableError
    for p in (2, 3):
        with pytest.raises(ProofInapplicableError, match="inapplicable"):
            witness_index(p)


def test_witness_index_rejects_composites():
    for p in (1, 9, 15, 561):
        with pytest.raises(ValueError):
            witness_index(p)


@pytest.mark.parametrize(
    "n,want",
    [
        (3, (5, FormCase.ODD)),
        (4, (7, FormCase.EVEN)),
        (5, None),  # (3*5+1)/2 = 8 composite
        (1, None),  # candidate 2 is not an odd prime >= 5
        (2, None),  # candidate 4 composite
        (8, (13, FormCase.EVEN)),
    ],
)
def test_classify_index_examples(n, want):
    assert classify_index(n) == want


def test_round_trip_over_primes():
    for p in oracles.primes_upto_trial(3_000):
        if p < 5:
            continue
        n, case = witness_index(p)
        assert classify_index(n) == (p, case)
        # congruence guard from the construction
        if case is FormCase.ODD:
            assert n % 4 == 3
        else:
            assert n % 4 == 0


def test_round_trip_over_indices():
    for n in range(1, 3_000):
        hit = classify_index(n)
        if hit is not None:
            p, case = hit
            assert p >= 5
            assert witness_index(p) == (n, case)


@pytest.mark.parametrize(
    "p,n,case",
    [(5, 3, FormCase.ODD), (11, 7, FormCase.ODD), (13, 8, FormCase.EVEN)],
)
def test_verify_prime_examples(p, n, case):
    rec = verify_prime(p)
    assert rec == WitnessRecord(
        p=p, n=n, case=case, residue=0, exact_checked=True, ok=True
    )


def test_verify_prime_rejects_2_3_and_composites():
    for p in (2, 3):
        with pytest.raises(ProofInapplicableError, match="inapplicable"):
            verify_prime(p)
    for p in (-7, 0, 1, 4, 9, 15, 25, 35, 561):
        with pytest.raises(ValueError, match="prime"):
            verify_prime(p)


def test_verify_prime_proves_primality_once(monkeypatch):
    calls = []

    def counting(x):
        calls.append(x)
        return oracles.trial_is_prime(x)

    monkeypatch.setattr(engine, "is_prime", counting)
    monkeypatch.setattr(modfield, "is_prime", counting)
    for p in (5, 7, 11, 13, 1009):
        verify_prime(p)
    assert calls == [5, 7, 11, 13, 1009]


def test_verify_prime_threshold_controls_exact_check():
    # the threshold is the witness index of p = 3001; the next prime's is past it
    assert engine.DEFAULT_EXACT_THRESHOLD == 2000
    rec = verify_prime(3001)
    assert rec.n == 2000
    assert rec.exact_checked is True
    rec = verify_prime(3011)
    assert rec.n == 2007
    assert rec.exact_checked is False
    assert rec.ok is True


def test_record_serialization():
    rec = verify_prime(11)
    assert (
        record_to_json(rec)
        == '{"p":11,"n":7,"case":"odd","residue":0,"exact_checked":true,"ok":true}'
    )
    assert row_to_csv(record_row(rec)) == "11,7,odd,0,true,true"
    assert row_to_csv(RECORD_FIELDS) == "p,n,case,residue,exact_checked,ok"


@pytest.mark.parametrize(
    "fields,row",
    [
        (RECORD_FIELDS, (98_299, 65_532, "even", 0, False, True)),
        (RECORD_FIELDS, (11, 7, "odd", 5, True, False)),
        (("p", "n"), (7, 100_000)),
        (("p", "k", "a", "b", "residue"), (101, 1, 34, 67, 0)),
        # strings that need escaping: a quote, a backslash, non-ASCII
        (("p", "case"), (5, 'a"b\\c\u00e9')),
    ],
    ids=["verify", "verify-fail", "search", "pair-check", "escaped"],
)
def test_row_to_json_matches_json_dumps(fields, row):
    assert row_to_json(fields, row) == json.dumps(dict(zip(fields, row)), separators=(",", ":"))


def test_verify_range_small():
    recs = []
    summary = verify_range(3, 13, record_sink=recs.append)
    assert [(r.p, r.n, r.ok) for r in recs] == [
        (5, 3, True),
        (7, 4, True),
        (11, 7, True),
        (13, 8, True),
    ]
    assert summary.skipped == [(3, "proof inapplicable")]
    assert summary.verified_count == 4
    assert summary.failure_count == 0
    assert summary.elapsed > 0


def test_verify_range_empty():
    # 24..28 is a whole shard without a prime, so the fold has no first cut
    for pmin, pmax in ((4, 4), (24, 28)):
        recs = []
        summary = verify_range(pmin, pmax, record_sink=recs.append)
        assert recs == []
        assert summary.verified_count == 0
        assert summary.failure_count == 0
        assert summary.skipped == []


def test_verify_range_counts_cover_all_odd_primes():
    pmin, pmax = 0, 2_000
    summary = verify_range(pmin, pmax)
    odd_primes = [p for p in oracles.primes_upto_trial(pmax) if p % 2 and p >= pmin]
    assert (
        summary.verified_count + summary.failure_count + len(summary.skipped)
        == len(odd_primes)
    )


def test_verify_range_jobs_do_not_change_records():
    base = []
    verify_range(3, 20_000, record_sink=base.append)
    for jobs in (2, 4):
        recs = []
        verify_range(3, 20_000, jobs=jobs, record_sink=recs.append)
        assert recs == base


def _records(pmin, pmax):
    recs = []
    verify_range(pmin, pmax, record_sink=recs.append)
    return recs


def test_verify_range_fold_agrees_with_verify_prime_tail():
    # verify_range's chained prefix fold against verify_prime's tail.  Both
    # build on modfield._span but assemble it differently (a chain of spans
    # from the shard's lowest floor(p/2), plus Lehmer's closed form, against
    # one tail span); the independent checks are the scan of Lehmer's closed
    # form below and tests/oracles.py.
    # 5..16416 is three shards, the last holding one prime (16411)
    assert [p for p in oracles.primes_upto_trial(16416) if p >= 16389] == [16411]
    for pmax in (20_000, 16416):
        recs = _records(5, pmax)
        assert recs == [verify_prime(p) for p in oracles.primes_upto_trial(pmax) if p >= 5]
    # the 150 primes from 1000003, as in the benchmark's long-tail workload
    recs = _records(1_000_003, 1_001_981)
    assert len(recs) == 150
    assert recs == [verify_prime(rec.p) for rec in recs]


def _lehmer(p):
    # H_{floor(p/2)} - H_{floor(p/3)} = -2 q_p(2) + (3/2) q_p(3) mod p, with
    # q_p(a) = (a^(p-1) - 1)/p (E. Lehmer, 1938)
    q2, q3 = ((pow(a, p - 1, p * p) - 1) // p for a in (2, 3))
    return (-2 * q2 + 3 * q3 * pow(2, -1, p)) % p


def test_fold_matches_lehmers_difference():
    primes = [p for p in oracles.primes_upto_trial(3001) if p >= 5]
    for chunk in (primes, [681_251]):
        pairs = sorted((c, p) for p in chunk for c in (p // 3, p // 2))
        got = modfield.harmonic_prefixes_mod([c for c, _ in pairs], [p for _, p in pairs])
        h = dict(zip(pairs, got))
        assert [(h[p // 2, p] - h[p // 3, p]) % p for p in chunk] == [_lehmer(p) for p in chunk]
    assert oracles.tail_sum_mod(681_251 // 3 + 1, 681_251 // 2, 681_251) == 0
    # below 2*10^6 the closed form is 0 at these primes only, so a kernel
    # returning 0 passes the check there and nowhere else (1.5 s)
    zeros = [p for p in odd_primes_iter(5, 2_000_000) if _lehmer(p) == 0]
    assert zeros == [73, 83, 681_251]


def test_zero_kernel_is_caught_by_lehmers_congruence(monkeypatch):
    # every residue of a witness is 0, so a kernel that returns only zeros
    # would pass every record above the exact threshold; with Lehmer's L(p)
    # added, its residue is L(p) instead, which the exact check rejects at
    # the first prime and verify_prime's tail span at the first prime past
    # the exact zone
    monkeypatch.setattr(engine, "harmonic_prefixes_mod", lambda cuts, moduli: [0] * len(cuts))
    with pytest.raises(ConsistencyError, match="exact/modular mismatch at p=5,"):
        verify_range(5, 20_000)
    with pytest.raises(ConsistencyError, match="disagree at p=3011$"):
        verify_range(3002, 30_000)


def test_kernel_reading_the_wrong_cut_is_caught(monkeypatch):
    # a kernel that returns floor(p/2)'s value at n's cut makes every span
    # 0, which a range check summing only that span would pass; with L(p)
    # added, each residue is L(p) instead
    real = modfield.harmonic_prefixes_mod

    def half_cut(cuts, moduli):
        hs = dict(zip(zip(cuts, moduli), real(cuts, moduli)))
        wrong = {(modfield.linked_index(m)[0], m): (m // 2, m) for m in moduli}
        return [hs[wrong.get(key, key)] for key in zip(cuts, moduli)]

    monkeypatch.setattr(engine, "harmonic_prefixes_mod", half_cut)
    with pytest.raises(ConsistencyError, match="range fold and tail span disagree at p=3011$"):
        verify_range(3002, 30_000)


def test_fold_fault_is_not_reported_as_a_counterexample(monkeypatch):
    # the fold off by one at H_n of p = 3011 while verify_prime's tail is
    # right: the failed record is a kernel fault, so the run stops
    real = modfield.harmonic_prefixes_mod

    def off_by_one(cuts, moduli):
        hs = real(cuts, moduli)
        return [(h + ((c, m) == (2007, 3011))) % m for c, m, h in zip(cuts, moduli, hs)]

    monkeypatch.setattr(engine, "harmonic_prefixes_mod", off_by_one)
    with pytest.raises(ConsistencyError, match="range fold and tail span disagree at p=3011$"):
        verify_range(3001, 3100)


def test_shard_sums_no_term_below_its_lowest_cut(monkeypatch):
    # the fold starts at the first prime's floor(p/2), 983063 // 2 here; a
    # prefix from 0, or from floor(p/3), would be most of its kernel time
    real, starts = modfield._span, []

    def spy(lo, hi, m):
        starts.append(lo)
        return real(lo, hi, m)

    monkeypatch.setattr(modfield, "_span", spy)
    recs, _ = engine._verify_shard((983_045, 991_236))
    assert recs[0].p == 983_063 and all(rec.ok for rec in recs)
    assert min(starts) == 983_063 // 2 + 1 > 983_045 // 2


def test_nonzero_tail_is_counted_not_raised(monkeypatch, capsys):
    # a counterexample at the seam: A_n of p = 3011 (n = 2007, past the exact
    # threshold) is off by one in the range fold and in verify_prime's tail
    # alike, so the recheck agrees and the record stands
    real, real_tail = modfield.harmonic_prefixes_mod, engine.alternating_mod

    def off_by_one(cuts, moduli):
        hs = real(cuts, moduli)
        return [(h + ((c, m) == (2007, 3011))) % m for c, m, h in zip(cuts, moduli, hs)]

    def tail_off_by_one(n, pm):
        r = real_tail(n, pm)
        return modfield.Residue((r.value + ((n, pm.p) == (2007, 3011))) % pm.p, pm)

    monkeypatch.setattr(engine, "harmonic_prefixes_mod", off_by_one)
    monkeypatch.setattr(engine, "alternating_mod", tail_off_by_one)
    recs = []
    summary = verify_range(3001, 3100, record_sink=recs.append)
    bad = [rec for rec in recs if not rec.ok]
    assert bad == [WitnessRecord(p=3011, n=2007, case=FormCase.ODD, residue=1,
                                 exact_checked=False, ok=False)]
    assert (summary.failure_count, summary.verified_count) == (1, len(recs) - 1)
    argv = ["verify", "--pmin", "3001", "--pmax", "3100", "--jobs", "1", "--format", "jsonl"]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert '{"p":3011,"n":2007,"case":"odd","residue":1,"exact_checked":false,"ok":false}' in out
    assert "failures=1" in err


def test_range_exact_check_catches_a_wrong_fold_value(monkeypatch):
    # H_1999 of p = 2999 (n = 1999, inside the exact zone) is off by one: the
    # exact check stops the run before any recheck, in a shard from 2999 and
    # in one from 5 alike
    real = modfield.harmonic_prefixes_mod

    def off_by_one(cuts, moduli):
        hs = real(cuts, moduli)
        return [(h + ((c, m) == (1999, 2999))) % m for c, m, h in zip(cuts, moduli, hs)]

    monkeypatch.setattr(engine, "harmonic_prefixes_mod", off_by_one)
    for pmin, pmax in ((2999, 3011), (5, 3001)):
        with pytest.raises(ConsistencyError, match="exact/modular mismatch at p=2999"):
            verify_range(pmin, pmax)


def test_range_exact_check_catches_a_wrong_sweep(monkeypatch):
    # a sweep one index behind hands every prime A_{n-1} = -(-1)^(n-1)/n mod p,
    # which is not 0, so the first exact-checked record must fail
    real = engine.alternating_sweep
    monkeypatch.setattr(engine, "alternating_sweep", lambda ns: real([n - 1 for n in ns]))
    with pytest.raises(ConsistencyError, match="exact/modular mismatch at p=5"):
        verify_range(5, 3001)


@pytest.mark.parametrize("width", [8192, 500])
@pytest.mark.parametrize("jobs", [1, 2])
def test_shards_starting_inside_the_exact_zone(monkeypatch, jobs, width):
    # each shard sweeps from A_0, whatever its first prime; at width 500 the
    # shards of [1499, 3011] start at 1499, 1999, 2499 and 2999
    monkeypatch.setattr(engine, "_SHARD_WIDTH", width)
    recs = []
    verify_range(1499, 3011, jobs=jobs, record_sink=recs.append)
    want = [verify_prime(p) for p in oracles.primes_upto_trial(3011) if p >= 1499]
    assert recs == want
    assert [r.exact_checked for r in recs] == [r.p <= 3001 for r in recs]


def test_verify_range_progress_callback():
    calls = []
    verify_range(5, 100, progress=lambda lo, hi, k, dt: calls.append((lo, hi, k)))
    assert calls and calls[0][0] == 5
    assert sum(k for _, _, k in calls) == 23  # odd primes in [5, 100] minus none


@pytest.fixture
def pools(monkeypatch):
    """The pools verify_range makes, each a stand-in for ProcessPoolExecutor
    that maps lazily in this process and logs each shutdown's cancel_futures."""
    made = []

    class InProcessPool:
        def __init__(self, max_workers):
            self.max_workers = max_workers
            self.cancel_futures = []
            made.append(self)

        def map(self, fn, items):
            return map(fn, items)

        def shutdown(self, wait=True, cancel_futures=False):
            self.cancel_futures.append(cancel_futures)

    # verify_range imports the class from here when it builds a pool
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return made


@pytest.mark.parametrize(
    "cpus,jobs,want",
    [(3, 10_000, [3]), (3, 2, [2]), (None, 10_000, []), (64, 10_000, [25])],
    ids=["above-cpus", "below-cpus", "cpus-unknown", "above-shards"],
)
def test_verify_range_caps_workers_at_cpu_count(monkeypatch, pools, cpus, jobs, want):
    monkeypatch.setattr(engine, "_SHARD_WIDTH", 16)  # 25 shards over [5, 400]
    base = []
    verify_range(5, 400, record_sink=base.append)
    assert pools == [] and len(base) == 76
    monkeypatch.setattr(engine.os, "cpu_count", lambda: cpus)
    recs = []
    verify_range(5, 400, jobs=jobs, record_sink=recs.append)
    assert [pool.max_workers for pool in pools] == want
    assert recs == base


def test_verify_range_cancels_queued_shards_on_error(monkeypatch, pools):
    # a sink that fails (say, on a closed pipe) must not wait for every shard
    monkeypatch.setattr(engine, "_SHARD_WIDTH", 16)
    monkeypatch.setattr(engine.os, "cpu_count", lambda: 2)

    def sink(rec):
        raise BrokenPipeError

    with pytest.raises(BrokenPipeError):
        verify_range(5, 400, jobs=2, record_sink=sink)
    assert [(pool.max_workers, pool.cancel_futures) for pool in pools] == [(2, [True])]


def test_verify_range_rejects_inverted_bounds():
    with pytest.raises(ValueError):
        verify_range(10, 5)
    # past is_prime's 64-bit range; rejected before any sieving
    with pytest.raises(ValueError, match="2\\^32"):
        verify_range(5, 2**64)
    # the cap itself, called directly: a verify near 2^32 would not finish
    with pytest.raises(ValueError, match="pmax=4294967296 is not below 2\\^32"):
        check_range(5, 2**32)
    assert check_range(5, 2**32 - 1) is None


@pytest.mark.parametrize(
    "p,nmax,want", [(11, 10, [7]), (5, 4, [3]), (7, 4, [4])]
)
def test_search_examples(p, nmax, want):
    assert search_numerator_divisor(p, nmax) == want


def _search_cases():
    # nmax below p, just above p, around 1500-2000, then p^L - 1, p^L, p^L + 1
    # where L = floor(log_p nmax) steps.  1093 is a base-2 Wieferich prime, so
    # p - 1 is a hit and a scan whose L is one too small at nmax = p^L
    # reports p as a hit too.
    cases = [(101, 100), (11, 60), (3, 2000), (5, 1800), (7, 1500), (11, 2000), (13, 2000)]
    for p, power in ((3, 729), (7, 343), (1093, 1093)):
        cases += [(p, power - 1), (p, power), (p, power + 1)]
    return cases


@pytest.mark.parametrize("p,nmax", _search_cases())
def test_search_matches_bruteforce_oracle(p, nmax):
    assert search_numerator_divisor(p, nmax) == oracles.numerator_divisor_hits_bruteforce(p, nmax)


def test_search_finds_hits_above_p_squared():
    # guards the oracle comparison against a scan that reports nothing and
    # against mishandled terms with v_p(k) >= 2
    assert search_numerator_divisor(7, 1500) == [4, 30, 34, 210, 214, 241, 1499]
    assert search_numerator_divisor(13, 2000) == [
        8, 107, 110, 113, 1392, 1396, 1472, 1475, 1478,
    ]


def test_search_takes_no_inverse(monkeypatch):
    # the running sum is a (D, N) pair advanced by modfield._mul, never a
    # per-term pow(m, -1, p^(L+1))
    def no_inverse(base, exp, mod=None):
        if exp == -1:
            raise AssertionError(f"pow({base}, -1, {mod}) in search")
        return pow(base, exp, mod)

    monkeypatch.setattr(engine, "pow", no_inverse, raising=False)
    assert search_numerator_divisor(7, 1500) == [4, 30, 34, 210, 214, 241, 1499]


def test_search_validation():
    with pytest.raises(ValueError):
        search_numerator_divisor(4, 10)
    with pytest.raises(ValueError):
        search_numerator_divisor(9, 10)
    with pytest.raises(ValueError):
        search_numerator_divisor(5, 0)


def test_every_exported_name_resolves():
    assert [name for name in altharm.__all__ if not hasattr(altharm, name)] == []
