import importlib.util
import json
import os
import pathlib
import pickle
import time

import pytest

import oracles
import altharm
from altharm import cli, engine, modfield
from altharm.primes import odd_primes_iter
from altharm.rationals import alternating_exact, residue_of
from altharm.engine import (
    RECORD_FIELDS,
    ConsistencyError,
    FormCase,
    ProofInapplicableError,
    WitnessRecord,
    check_range,
    classify_index,
    record_to_json,
    row_to_csv,
    row_to_json,
    search_numerator_divisor,
    verify_prime,
    verify_range,
    witness_index,
)


def _case_id(value):
    """Name a FormCase parameter by its member, not by its printed wire tag."""
    return f"FormCase.{value.name}" if isinstance(value, FormCase) else None


@pytest.mark.parametrize(
    "p,n,case",
    [
        (5, 3, FormCase.ODD),
        (7, 4, FormCase.EVEN),
        (11, 7, FormCase.ODD),
        (13, 8, FormCase.EVEN),
    ],
    ids=_case_id,
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
    ids=_case_id,
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
    with pytest.raises(ValueError, match="^9 is not prime$"):
        verify_prime(9)
    with pytest.raises(ValueError, match="^modulus must be an odd prime >= 3, got 1$"):
        verify_prime(1)


def test_verify_prime_proves_primality_once(monkeypatch):
    calls = []

    def counting(x):
        calls.append(x)
        return oracles.trial_is_prime(x)

    monkeypatch.setattr(engine, "is_prime", counting)
    monkeypatch.setattr(modfield, "is_prime", counting)
    # past the exact zone (3011) and past 10^6 as well: one proof each
    for p in (5, 7, 11, 13, 1009, 3011, 1000003):
        verify_prime(p)
    assert calls == [5, 7, 11, 13, 1009, 3011, 1000003]


def test_benchmark_patch_targets_exist_and_are_restored():
    # bench/spans.py swaps package names for traced wrappers by name, so a
    # change that drops or renames one breaks the benchmark; load it as it is
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    before = dict(vars(engine)), dict(vars(modfield))
    tracer = spans.Tracer()
    with spans.instrumented(tracer):
        engine.verify_prime(11)  # through the module, where the name is patched
        verify_range(5, 200, jobs=1)
    assert (dict(vars(engine)), dict(vars(modfield))) == before
    names = {s[0] for s in tracer.spans}
    assert {"engine.verify_prime", "engine.shard", "modfield.alternating_mod"} <= names


def test_range_run_proves_no_prime_per_record(monkeypatch):
    # the sieve produced every p, so a range record proves none prime; only
    # the exact zone builds a PrimeModulus, for residue_of
    calls = []

    def counting(x):
        calls.append(x)
        return oracles.trial_is_prime(x)

    monkeypatch.setattr(engine, "is_prime", counting)
    monkeypatch.setattr(modfield, "is_prime", counting)
    verify_range(3002, 30_000)
    assert calls == []
    recs = _records(5, 3001)
    assert len(recs) == 429 and all(rec.exact_checked for rec in recs)
    assert len(calls) <= 429
    assert recs == [_tail_record(p) for p in oracles.primes_upto_trial(3001) if p >= 5]


@pytest.mark.parametrize(
    "composite,pmin,pmax",
    [
        (9, 5, 100),
        (25, 5, 100),
        (3013, 3002, 3100),
        (1_002_001, 1_000_003, 1_002_100),
        (1_002_001, 1_002_001, 1_002_100),
        (25, 25, 40),
        (289, 289, 400),
        (35, 35, 100),
    ],
    ids=["9", "25", "23*131", "1001^2", "1001^2-first", "25-first", "17^2-first", "5*7-first"],
)
def test_composite_from_the_sieve_stops_the_run(monkeypatch, capsys, composite, pmin, pmax):
    # no range record proves p prime, so a composite m the sieve let through
    # must still stop the run before its shard's records reach the sink: the
    # inverse of m's 4 D_n D_c mod m fails once (n, floor(7m/10)] holds a
    # multiple of a factor, a sieve fault that names the shard and m and
    # exits 3.  3013 is just above the exact zone, and 1001 = 7*11*13; as a
    # shard's first odd number, m's own n is the fold's first cut, so only
    # (n, floor(7m/10)] guards it.  25, 289 and 35 first in their shards pass
    # the fold; 35's 2^8 5^5 has no inverse mod 35^2, and 25 and 289 are
    # caught by their exact-zone PrimeModulus
    real = engine.odd_primes_iter

    def leaky(lo, hi):
        return iter(sorted([*real(lo, hi), *([composite] if lo <= composite <= hi else [])]))

    monkeypatch.setattr(engine, "odd_primes_iter", leaky)
    recs = []
    with pytest.raises(ConsistencyError, match=rf"^shard {pmin}\.\.{pmax}: .*\[{composite}\]$"):
        verify_range(pmin, pmax, record_sink=recs.append)
    assert composite not in [rec.p for rec in recs]
    argv = ["verify", "--pmin", str(pmin), "--pmax", str(pmax), "--jobs", "1", "--quiet"]
    assert cli.main(argv) == 3
    assert f"[{composite}]" in capsys.readouterr().err


def test_odd_composites_without_a_factor_between_their_cuts_are_exact_zoned():
    # the sieve guard above, as arithmetic: for an odd composite m up to
    # 10^5, some prime factor q of m has a multiple in (n, floor(7m/10)], so
    # the inverse of 4 D_n D_c mod m fails even from m's own n.  The ten
    # exceptions are all at most 3001, in the exact zone, whose
    # PrimeModulus(m) raises inside the same guard
    limit = 100_000
    spf = list(range(limit + 1))  # least prime factor of each odd number
    for q in range(3, int(limit**0.5) + 1, 2):
        if spf[q] == q:
            for k in range(q * q, limit + 1, 2 * q):
                spf[k] = min(spf[k], q)
    unguarded = []
    for m in range(9, limit + 1, 2):
        n, top, factors, r = (2 * m - 1) // 3, 7 * m // 10, set(), m
        while r > 1:
            factors.add(spf[r])
            r //= spf[r]
        if spf[m] < m and all(top // q == n // q for q in factors):
            unguarded.append(m)
    assert unguarded == [25, 35, 49, 55, 77, 85, 119, 121, 187, 289]
    assert modfield.linked_index(max(unguarded))[0] <= engine.DEFAULT_EXACT_THRESHOLD


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
    assert row_to_csv(rec) == "11,7,odd,0,true,true"
    assert row_to_csv(RECORD_FIELDS) == "p,n,case,residue,exact_checked,ok"


_VALUES = {
    "WitnessRecord": (
        lambda: WitnessRecord(p=5, n=3, case=FormCase.ODD, residue=0, exact_checked=True, ok=True),
        "WitnessRecord(p=5, n=3, case=<FormCase.ODD: 'odd'>, residue=0, exact_checked=True, ok=True)",
    ),
    "RangeSummary": (
        lambda: altharm.RangeSummary(3, 7, 2, 0, [(3, "proof inapplicable")], 0.5),
        "RangeSummary(pmin=3, pmax=7, verified_count=2, failure_count=0, "
        "skipped=[(3, 'proof inapplicable')], elapsed=0.5)",
    ),
    "PrimeModulus": (lambda: altharm.PrimeModulus(7), "PrimeModulus(p=7)"),
    "Residue": (
        lambda: altharm.Residue(0, altharm.PrimeModulus(7)),
        "Residue(value=0, modulus=PrimeModulus(p=7))",
    ),
    "PrimeRange": (lambda: altharm.PrimeRange(10, 30), "PrimeRange(lo=10, hi=30)"),
}


@pytest.mark.parametrize("name", list(_VALUES))
def test_value_types_compare_by_fields_and_refuse_writes(name):
    make, text = _VALUES[name]
    a, b = make(), make()
    assert repr(a) == text
    assert a == b and a is not b
    assert a == tuple(a)  # named tuples: a value equals the plain tuple of its fields
    if name == "RangeSummary":
        with pytest.raises(TypeError):  # its skipped list makes it unhashable
            hash(a)
    else:
        assert hash(a) == hash(b)
    for field in a._fields:
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(a, field))


def test_record_survives_pickling_as_its_fields():
    # records cross a forked verify worker's pipe pickled
    rec = verify_prime(3011)
    back = pickle.loads(pickle.dumps(rec))
    assert back == rec and type(back) is WitnessRecord
    assert rec == (3011, 2007, FormCase.ODD, 0, False, True)


@pytest.mark.parametrize(
    "fields,row",
    [
        (RECORD_FIELDS, (98_299, 65_532, FormCase.EVEN, 0, False, True)),
        (RECORD_FIELDS, (11, 7, FormCase.ODD, 5, True, False)),
        (("p", "n"), (7, 100_000)),
        (("p", "k", "a", "b", "residue"), (101, 1, 34, 67, 0)),
    ],
    ids=["verify", "verify-fail", "search", "pair-check"],
)
def test_row_to_json_matches_json_dumps(fields, row):
    tagged = [v.value if isinstance(v, FormCase) else v for v in row]
    assert row_to_json(fields, row) == json.dumps(dict(zip(fields, tagged)), separators=(",", ":"))


def test_case_tags_need_no_json_escaping():
    # row_to_json writes a case tag between quotes as it is; the case is the
    # only value of a row that is not a number, so a tag that json.dumps would
    # escape (a quote, a backslash, a control or non-ASCII character) must
    # fail here
    assert all(case.value.isascii() and case.value.isidentifier() for case in FormCase)
    # csv and human rows take the tag from str() and f-strings
    for case in FormCase:
        assert str(case) == f"{case}" == format(case, "") == case.value
    assert RECORD_FIELDS == WitnessRecord._fields


def test_record_rows_match_json_dumps():
    for rec in _records(5, 3001):
        want = json.dumps(rec._asdict() | {"case": rec.case.value}, separators=(",", ":"))
        assert row_to_json(RECORD_FIELDS, rec) == want


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


def _tail_record(p):
    # p's record from its tail span (alternating_mod), independent of the
    # range fold; in the exact zone (n <= 2000) the exact sum must agree
    n, case = modfield.linked_index(p)
    pm = modfield.PrimeModulus(p)
    residue = modfield.alternating_mod(n, pm).value
    if n <= 2000:
        assert residue_of(alternating_exact(n), pm).value == residue, p
    return WitnessRecord(p=p, n=n, case=case, residue=residue, exact_checked=n <= 2000,
                         ok=residue == 0)


def test_verify_range_fold_agrees_with_the_tail_span():
    # verify_range's chained prefix fold against each prime's tail span.  Both
    # build on modfield._span but assemble it differently (a chain of spans
    # from the shard's lowest n, plus a closed form, against one tail span);
    # the independent checks are the scan of the closed form below and
    # tests/oracles.py.
    want = [_tail_record(p) for p in oracles.primes_upto_trial(20_000) if p >= 5]
    assert _records(5, 20_000) == want
    # 5..16416 is three shards, the last holding one prime (16411)
    assert [rec.p for rec in want if 16389 <= rec.p <= 16416] == [16411]
    assert _records(5, 16416) == [rec for rec in want if rec.p <= 16416]
    # the 150 primes from 1000003, as in the benchmark's long-tail workload
    recs = _records(1_000_003, 1_001_981)
    assert len(recs) == 150
    assert recs == [_tail_record(rec.p) for rec in recs]


def _prefixes(cuts, moduli):
    # harmonic_prefixes_mod's (D, N) pairs read as H_c - H_b = N/D mod m
    pairs = modfield.harmonic_prefixes_mod(cuts, moduli)
    return [n * pow(d, -1, m) % m for (d, n), m in zip(pairs, moduli)]


def test_fold_matches_lehmers_difference():
    primes = [p for p in oracles.primes_upto_trial(3001) if p >= 5]
    for chunk in (primes, [681_251]):
        pairs = sorted((c, p) for p in chunk for c in (p // 3, p // 2))
        h = dict(zip(pairs, _prefixes([c for c, _ in pairs], [p for _, p in pairs])))
        got = [(h[p // 2, p] - h[p // 3, p]) % p for p in chunk]
        assert got == [oracles.lehmer(p) for p in chunk]
    assert oracles.tail_sum_mod(681_251 // 3 + 1, 681_251 // 2, 681_251) == 0
    # below 2*10^6 the closed form is 0 at these primes only, so a kernel
    # returning 0 passes the check there and nowhere else (1.5 s)
    zeros = [p for p in odd_primes_iter(5, 2_000_000) if oracles.lehmer(p) == 0]
    assert zeros == [73, 83, 681_251]


def test_seven_tenths_cut_matches_the_closed_form():
    # the range fold reads H_{floor(7p/10)} - H_n; by the theorem and
    # H_{p-1-k} = H_k mod p at k = floor(3p/10), that is x/4, and
    # H_{floor(p/3)} - H_{floor(3p/10)} is -x/4, here summed one inverse per
    # term
    primes = [p for p in oracles.primes_upto_trial(3001) if p >= 7]
    for p in [*primes, 250_829, 1_006_331]:
        n, x = (2 * p - 1) // 3, oracles.closed_form(p)
        assert 4 * oracles.tail_sum_mod(n + 1, 7 * p // 10, p) % p == x
        assert 4 * oracles.tail_sum_mod(3 * p // 10 + 1, p // 3, p) % p == -x % p
    # below 2*10^6 the closed form is 0 at these primes only, where n =
    # floor(7p/10), so a kernel returning 0 passes the check there and
    # nowhere else (about 3 s)
    zeros = [p for p in odd_primes_iter(7, 2_000_000) if oracles.closed_form(p) == 0]
    assert zeros == [7, 11, 17]
    assert all((2 * p - 1) // 3 == 7 * p // 10 for p in zeros)


def test_five_is_read_through_the_fold(monkeypatch):
    # 5 divides 10 and q_5(5) is undefined, but n = floor(7p/10) there, so x
    # is 0 with no closed form; below 10^6 the cuts meet only at these primes
    primes = odd_primes_iter(5, 10**6)
    met = [p for p in primes if (2 * p - 1) // 3 == 7 * p // 10]
    assert met == [5, 7, 11, 17]

    def raises(*args):
        raise AssertionError(f"closed form or tail span called with {args}")

    # the range reads each of them, alone in its shard, with neither the
    # closed form nor the tail span recheck (13 needs the closed form)
    want = {p: _tail_record(p) for p in met}
    monkeypatch.setattr(engine, "five_fibonacci_mod", raises)
    monkeypatch.setattr(engine, "alternating_mod", raises)
    for p in met:
        assert _records(p, p) == [want[p]]
    with pytest.raises(AssertionError, match="closed form"):
        _records(13, 13)


def test_zero_kernel_is_caught_by_lehmers_congruence(monkeypatch):
    # every residue of a witness is 0, so a kernel that returns only zeros
    # would pass every record above the exact threshold; with the closed form
    # x added, its residue is x/4 instead, which the exact check rejects at
    # the first prime with x != 0, p = 13 (x is 0 at 5, 7 and 11, where n =
    # floor(7p/10)), and the tail span recheck at the first prime past the
    # exact zone
    monkeypatch.setattr(engine, "harmonic_prefixes_mod", lambda cuts, moduli: [(1, 0)] * len(cuts))
    with pytest.raises(ConsistencyError, match="exact/modular mismatch at p=13, n=8: 0 != 3$"):
        verify_range(5, 20_000)
    with pytest.raises(ConsistencyError, match="disagree at p=3011$"):
        verify_range(3002, 30_000)


def test_zero_span_denominator_is_a_kernel_fault(monkeypatch, capsys):
    # a span whose D is 0 mod every modulus leaves a prime's 4 D_n D_c with no
    # inverse, as a composite from the sieve does; with every p prime, the
    # run reports a range kernel fault and exits 3.  20000 lies between the
    # second shard's cuts, 18128 and 21000
    real = modfield._span

    def zero_d(lo, hi, m):
        d, n = real(lo, hi, m)
        return (0 if lo <= 20_000 <= hi else d), n

    monkeypatch.setattr(modfield, "_span", zero_d)
    with pytest.raises(ConsistencyError, match=r"^shard 27192\.\.30000: range kernel fault"):
        verify_range(19_000, 30_000)
    argv = ["verify", "--pmin", "19000", "--pmax", "30000", "--jobs", "1", "--quiet"]
    assert cli.main(argv) == 3
    assert "range kernel fault" in capsys.readouterr().err


def test_kernel_reading_the_wrong_cut_is_caught(monkeypatch):
    # a kernel that returns floor(7p/10)'s value at n's cut makes every span
    # 0, which a range check summing only that span would pass; with the
    # closed form added, each residue is x/4 instead
    real = modfield.harmonic_prefixes_mod

    def other_cut(cuts, moduli):
        hs = dict(zip(zip(cuts, moduli), real(cuts, moduli)))
        wrong = {(modfield.linked_index(m)[0], m): (7 * m // 10, m) for m in moduli}
        return [hs[wrong.get(key, key)] for key in zip(cuts, moduli)]

    monkeypatch.setattr(engine, "harmonic_prefixes_mod", other_cut)
    with pytest.raises(ConsistencyError, match="range fold and tail span disagree at p=3011$"):
        verify_range(3002, 30_000)


def test_fold_fault_is_not_reported_as_a_counterexample(monkeypatch):
    # the fold off by one at H_n of p = 3011 while the tail span is right:
    # the failed record is a kernel fault, so the run stops
    real = modfield.harmonic_prefixes_mod

    def off_by_one(cuts, moduli):
        hs = real(cuts, moduli)
        return [(d, (h + d * ((c, m) == (2007, 3011))) % m) for c, m, (d, h) in zip(cuts, moduli, hs)]

    monkeypatch.setattr(engine, "harmonic_prefixes_mod", off_by_one)
    with pytest.raises(ConsistencyError, match="range fold and tail span disagree at p=3011$"):
        verify_range(3001, 3100)


def test_shard_sums_no_term_below_its_lowest_cut(monkeypatch):
    # the fold runs from the first prime's n, 655375 here, to the last
    # prime's floor(7p/10); a prefix from 0, or from floor(p/2), would be
    # most of its kernel time
    real, spans = modfield._span, []

    def spy(lo, hi, m):
        spans.append((lo, hi))
        return real(lo, hi, m)

    monkeypatch.setattr(modfield, "_span", spy)
    recs, _ = engine._verify_shard((983_045, 991_236))
    assert (recs[0].p, recs[0].n, recs[-1].p) == (983_063, 655_375, 991_229)
    assert all(rec.ok for rec in recs)
    assert min(lo for lo, _ in spans) == 655_375 + 1
    assert max(hi for _, hi in spans) == 7 * 991_229 // 10


def test_nonzero_tail_is_counted_not_raised(monkeypatch, capsys):
    # a counterexample at the seam: A_n of p = 3011 (n = 2007, past the exact
    # threshold) is off by one in the range fold and in the tail span alike,
    # so the recheck agrees and the record stands
    real, real_tail = modfield.harmonic_prefixes_mod, engine.alternating_mod

    def off_by_one(cuts, moduli):
        hs = real(cuts, moduli)
        return [(d, (h + d * ((c, m) == (2007, 3011))) % m) for c, m, (d, h) in zip(cuts, moduli, hs)]

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
        return [(d, (h + d * ((c, m) == (1999, 2999))) % m) for c, m, (d, h) in zip(cuts, moduli, hs)]

    monkeypatch.setattr(engine, "harmonic_prefixes_mod", off_by_one)
    for pmin, pmax in ((2999, 3011), (5, 3001)):
        with pytest.raises(ConsistencyError, match="exact/modular mismatch at p=2999"):
            verify_range(pmin, pmax)


def test_range_exact_check_catches_a_wrong_sweep(monkeypatch):
    # a sweep one index behind hands every prime A_{n-1} = -(-1)^(n-1)/n mod p,
    # which is not 0, so the first record checked against it must fail: 5's,
    # whose A_2 = 1/2 is 3 mod 5
    real = engine.alternating_sweep
    monkeypatch.setattr(engine, "alternating_sweep", lambda ns: real([n - 1 for n in ns]))
    with pytest.raises(ConsistencyError, match="exact/modular mismatch at p=5, n=3: 3 != 0$"):
        verify_range(5, 3001)


@pytest.mark.parametrize("width", [8192, 500])
@pytest.mark.parametrize("jobs", [1, 2])
def test_shards_starting_inside_the_exact_zone(monkeypatch, jobs, width):
    # each shard sweeps from A_0, whatever its first prime; at width 500 the
    # shards of [1499, 3011] start at 1499, 1999, 2499 and 2999
    monkeypatch.setattr(engine, "_SHARD_WIDTH", width)
    recs = []
    verify_range(1499, 3011, jobs=jobs, record_sink=recs.append)
    want = [_tail_record(p) for p in oracles.primes_upto_trial(3011) if p >= 1499]
    assert recs == want
    assert [r.exact_checked for r in recs] == [r.p <= 3001 for r in recs]


def test_verify_range_progress_callback():
    calls = []
    verify_range(5, 100, progress=lambda lo, hi, k, dt: calls.append((lo, hi, k)))
    assert calls and calls[0][0] == 5
    assert sum(k for _, _, k in calls) == 23  # odd primes in [5, 100] minus none


@pytest.fixture
def forks(monkeypatch):
    """The pids of the workers verify_range forks, in order."""
    pids = []
    real = os.fork

    def fork():
        pid = real()
        if pid:  # in the parent; a worker never returns from its shards
            pids.append(pid)
        return pid

    monkeypatch.setattr(engine.os, "fork", fork)
    return pids


def _assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@pytest.mark.parametrize(
    "cpus,jobs,want",
    [(3, 10_000, 3), (3, 2, 2), (None, 10_000, 0), (64, 10_000, 25)],
    ids=["above-cpus", "below-cpus", "cpus-unknown", "above-shards"],
)
def test_verify_range_caps_workers_at_cpu_count(monkeypatch, forks, cpus, jobs, want):
    # where os reports no affinity mask, the cap is the machine's CPU count
    monkeypatch.setattr(engine, "_SHARD_WIDTH", 16)  # 25 shards over [5, 400]
    base = []
    verify_range(5, 400, record_sink=base.append)
    assert forks == [] and len(base) == 76
    monkeypatch.delattr(engine.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(engine.os, "cpu_count", lambda: cpus)
    recs = []
    verify_range(5, 400, jobs=jobs, record_sink=recs.append)
    assert len(forks) == want
    assert recs == base
    _assert_reaped(forks)


def test_verify_range_caps_workers_at_the_affinity_mask(monkeypatch, forks):
    # one CPU in the process's mask of a 64-CPU machine (taskset, a cpuset):
    # no worker is forked whatever jobs asks for
    monkeypatch.setattr(engine, "_SHARD_WIDTH", 16)
    base = []
    verify_range(5, 400, record_sink=base.append)
    monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(engine.os, "cpu_count", lambda: 64)
    recs = []
    verify_range(5, 400, jobs=8, record_sink=recs.append)
    assert forks == [] and recs == base


@pytest.mark.parametrize("jobs", [0, -1])
def test_verify_range_rejects_jobs_below_one(forks, jobs):
    # -1 does not mean every CPU (joblib's reading): the call fails before a shard runs
    recs = []
    with pytest.raises(ValueError, match=f"^jobs must be positive, got {jobs}$"):
        verify_range(5, 100, jobs=jobs, record_sink=recs.append)
    assert recs == [] and forks == []


@pytest.mark.parametrize("failing", ["record_sink", "progress"])
def test_verify_range_stops_every_worker_on_error(monkeypatch, forks, failing):
    # a sink or progress callback that fails (say, on a closed pipe) reads no
    # further shard, and no worker outlives the call
    monkeypatch.setattr(engine, "_SHARD_WIDTH", 16)
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
    loads = []
    real_load = pickle.load  # verify_range imports pickle when it forks
    monkeypatch.setattr(pickle, "load", lambda f: loads.append(f) or real_load(f))

    def fail(*args):
        raise BrokenPipeError

    # raised keeps the traceback, and verify_range's frame with it, alive, so
    # the workers must be gone before the caller drops the exception
    with pytest.raises(BrokenPipeError) as raised:
        verify_range(5, 400, jobs=2, **{failing: fail})
    assert len(forks) == 2 and len(loads) == 1
    _assert_reaped(forks)


def test_verify_range_stops_a_huge_range_at_once(monkeypatch, forks):
    # about 524000 shards, none of them queued ahead of the workers, so the
    # first failing record ends the run at once
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)

    def sink(rec):
        raise BrokenPipeError

    t0 = time.perf_counter()
    with pytest.raises(BrokenPipeError) as raised:  # keeps verify_range's frame
        verify_range(5, 2**32 - 1, jobs=2, record_sink=sink)
    assert time.perf_counter() - t0 < 10 and len(forks) == 2
    _assert_reaped(forks)


def test_verify_range_raises_a_worker_error(monkeypatch, forks):
    # a kernel fault in the second shard: its worker pickles the
    # ConsistencyError back, raised once the first shard's records are out
    real = modfield.harmonic_prefixes_mod

    def faulty(cuts, moduli):
        hs = real(cuts, moduli)
        return [(d, (h + d * ((c, m) == (6671, 10007))) % m) for c, m, (d, h) in zip(cuts, moduli, hs)]

    monkeypatch.setattr(engine, "harmonic_prefixes_mod", faulty)
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
    recs = []
    with pytest.raises(ConsistencyError, match="^range fold and tail span disagree at p=10007$"):
        verify_range(5, 20_000, jobs=2, record_sink=recs.append)
    assert [rec.p for rec in recs] == [p for p in oracles.primes_upto_trial(8196) if p >= 5]
    assert len(forks) == 2


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
    # every odd prime 5 <= p < 60 up to 3000, where the stop rule ends most scans
    return cases + [(p, 3000) for p in range(5, 60) if oracles.trial_is_prime(p)]


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


@pytest.mark.parametrize(
    "p,nmax,want,most",
    [(3, 10**12, [], 2), (5, 10**9, [3], 19), (11, 10**9, [7], 87), (23, 10**9, [15], 367)],
    ids=["3", "5", "11", "23"],
)
def test_search_stops_where_no_hit_can_follow(monkeypatch, p, nmax, want, most):
    # n is a hit only if floor(n/p) is 0 or a hit (Boyd), so the scan ends at
    # p*(k+1) - 1 for its last hit k (p - 1 with none), however large nmax is;
    # one modfield._mul step per n, so it takes exactly that many: a scan past
    # the count fails at once, and one that stops early fails at the end
    calls = []

    def counting(*args):
        calls.append(args)
        assert len(calls) <= most, f"search({p}, {nmax}) takes more than {most} steps"
        return modfield._mul(*args)

    monkeypatch.setattr(engine, "_mul", counting)
    assert search_numerator_divisor(p, nmax) == want
    assert len(calls) == most


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
