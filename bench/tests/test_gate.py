"""The gate accepts the program's real outputs and rejects tampered ones."""

import hashlib
import math
from fractions import Fraction

import pytest

import gate
import oracle
from gate import FAILED, WRONG

# sha256 of `altharm verify --pmin 5 --pmax 100000 --format jsonl` as the
# package printed it when the benchmark was defined.
README_STREAM_SHA256 = "bf668a10256758f8842283ad11e736cff1b6d8bef58b7cb0a2e0c20505f25b1d"


def kinds(problems):
    return {kind for kind, _ in problems}


def test_oracle_stream_matches_pinned_program_output():
    stream = oracle.verify_stream(5, 100_000)
    assert hashlib.sha256(stream).hexdigest() == README_STREAM_SHA256
    assert stream.count(b"\n") == 9590


def test_verify_stream_accepted_as_is():
    expected = oracle.verify_stream(5, 3001)
    assert gate.verify_problems(expected, expected) == []


@pytest.mark.parametrize("tamper", [
    lambda s: s.replace(b'"residue":0', b'"residue":1', 1),
    lambda s: s.replace(b'"ok":true', b'"ok":false', 1),
    lambda s: s[: s.rindex(b"{")],                      # last record dropped
    lambda s: s + s[: s.index(b"\n") + 1],              # a record repeated
    lambda s: s.replace(b":", b": ", 1),                # same JSON, other bytes
])
def test_tampered_verify_stream_is_wrong(tamper):
    expected = oracle.verify_stream(5, 3001)
    assert kinds(gate.verify_problems(tamper(expected), expected)) == {WRONG}


def test_tampered_stream_reports_count_and_ok_flags():
    expected = oracle.verify_stream(5, 200)
    tampered = expected.replace(b'"ok":true', b'"ok":false', 2)
    messages = " ".join(m for _, m in gate.verify_problems(tampered[: tampered.rindex(b"{")], expected))
    assert "records, expected" in messages and "2 records not ok:true" in messages


def test_missing_output_is_a_loud_failure_not_a_wrong_one():
    expected = oracle.verify_stream(5, 200)
    assert kinds(gate.verify_problems(b"", expected)) == {FAILED}
    assert gate.stream_problems(b"", b"") == []


def test_exit_problems_quote_the_last_stderr_line():
    assert gate.exit_problems(0, b"noise") == []
    [(kind, message)] = gate.exit_problems(2, b"trace\naltharm: error: too big\n")
    assert kind == FAILED and message == "exit 2: altharm: error: too big"


@pytest.mark.parametrize("n", [1, 2, 7, 60])
def test_exact_output_checked_against_the_oracle(n):
    a = sum(Fraction((-1) ** (k - 1), k) for k in range(1, n + 1))
    scaled = oracle.alternating_scaled(n)

    def check(out):
        return gate.exact_problems(out, lambda num, den: oracle.is_alternating_sum(num, den, scaled))

    assert check(f"{a.numerator}/{a.denominator}\n".encode()) == []
    assert kinds(check(f"{a.numerator + 1}/{a.denominator}\n".encode())) == {WRONG}
    assert kinds(check(f"{2 * a.numerator}/{2 * a.denominator}\n".encode())) == {WRONG}
    assert kinds(check(b"garbage\n")) == {WRONG}
    assert kinds(check(b"")) == {FAILED}


def test_exact_check_parses_past_the_digit_limit_and_restores_it():
    import sys

    limit = sys.get_int_max_str_digits()
    seen = []
    assert gate.exact_problems(b"7" * 5000 + b"/1\n", lambda num, den: not seen.append(num)) == []
    assert seen == [(10**5000 - 1) // 9 * 7]
    assert sys.get_int_max_str_digits() == limit


def real_kernel(n, p):
    from altharm import PrimeModulus, alternating_mod

    return alternating_mod(n, PrimeModulus(p)).value


def real_search(p, nmax):
    from altharm import search_numerator_divisor

    return search_numerator_divisor(p, nmax)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_canaries_pass_on_the_real_package(seed):
    assert gate.canary_problems(real_kernel, real_search, seed) == []


def test_kernel_stub_returning_zero_fails_the_gate():
    problems = gate.canary_problems(lambda n, p: 0, real_search, 0)
    assert problems and kinds(problems) == {WRONG}


def test_run_canaries_catch_a_stubbed_package_kernel(monkeypatch):
    import altharm
    import run

    monkeypatch.setattr(altharm, "alternating_mod", lambda n, pm: altharm.Residue(0, pm))
    assert kinds(run.run_canaries(0)) == {WRONG}


def test_search_without_the_exact_fallback_fails_the_gate():
    problems = gate.canary_problems(real_kernel, lambda p, nmax: [n for n in real_search(p, nmax) if n < p], 0)
    assert [m for _, m in problems if "canary search" in m]


def test_canary_pairs_are_seeded_non_witness_and_not_vacuous():
    assert gate.canary_pairs(5) == gate.canary_pairs(5)
    assert gate.canary_pairs(5) != gate.canary_pairs(6)
    flags = oracle.primes_upto(20_000)
    for n, p in gate.canary_pairs(5)[len(gate.CANARY_PAIRS):]:
        assert flags[p] and 0 < n < p and n != oracle.witness(p)[0]
    assert any(oracle.alternating_mod(n, p) for n, p in gate.CANARY_PAIRS)


def test_missing_or_malformed_metric_is_rejected():
    metrics = {"wall_s": {"value": 1.5, "unit": "s"}, "setup_s": {"value": 0.3, "unit": "s"}}
    assert gate.metric_problems(metrics, ["wall_s", "setup_s"]) == []
    assert gate.metric_problems(metrics, ["wall_s", "setup_s", "peak_rss_mb"]) == ["metric peak_rss_mb missing"]
    for bad in (None, "1.5", True, math.nan, math.inf):
        assert gate.metric_problems({"wall_s": {"value": bad, "unit": "s"}}, ["wall_s"])
