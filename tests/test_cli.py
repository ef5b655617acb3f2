import io
import json
import os
import signal
import subprocess
import sys
import time

import pytest

import oracles
from altharm import cli, engine, modfield
from altharm.engine import FormCase, WitnessRecord
from altharm.rationals import alternating_exact


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "altharm", *args],
        capture_output=True,
        text=True,
        env=oracles.child_env(),
        timeout=300,
    )


def test_exact_basic():
    r = run_cli("exact", "7")
    assert r.returncode == 0
    assert r.stdout == "319/420\n"


def test_exact_with_digits():
    r = run_cli("exact", "4", "--digits", "6")
    assert r.returncode == 0
    assert r.stdout.splitlines() == ["7/12", "0.583333"]
    r = run_cli("exact", "1", "--digits", "3")
    assert r.stdout.splitlines() == ["1/1", "1.000"]


def test_exact_past_the_int_str_digit_limit():
    # the numerator of A_11000 has more digits than the interpreter's
    # default int/str conversion limit of 4300
    r = run_cli("exact", "11000")
    assert r.returncode == 0, r.stderr
    num, den = r.stdout.strip().split("/")
    value = alternating_exact(11000)
    assert len(num) > 4300
    assert num[-30:] == str(value.numerator % 10**30).rjust(30, "0")
    assert den[-30:] == str(value.denominator % 10**30).rjust(30, "0")
    assert len(num) == _digit_count(value.numerator)
    assert len(den) == _digit_count(value.denominator)


def test_exact_many_digits_in_process_restores_limit(capsys):
    get_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    before = get_limit()
    assert cli.main(["exact", "7", "--digits", "5000"]) == 0
    assert get_limit() == before
    frac, dec = capsys.readouterr().out.splitlines()
    assert frac == "319/420"
    # 319/420 = 0.759523809523809...: "809523" repeats after "0.7595238"
    assert dec.startswith("0.7595238095238")
    assert len(dec) == 5002
    q = (319 * 10**5000 + 210) // 420  # rounded to nearest
    assert dec[-30:] == str(q % 10**30).rjust(30, "0")


def _digit_count(x: int) -> int:
    # decimal length without str(), which the digit limit would refuse
    k = max(1, int(x.bit_length() * 0.30102999566398120) - 1)
    while 10**k <= x:
        k += 1
    return k


def test_exact_budget_exceeded():
    r = run_cli("exact", "100", "--budget", "10")
    assert r.returncode == 2
    assert "budget" in r.stderr


def test_exact_digits_bounded_by_budget(capsys):
    assert cli.main(["exact", "4", "--digits", "20", "--budget", "20"]) == 0
    assert capsys.readouterr().out.splitlines() == ["7/12", "0.58333333333333333333"]
    assert cli.main(["exact", "4", "--digits", "21", "--budget", "20"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "raise --budget if you mean it" in captured.err


def test_witness_ok():
    r = run_cli("witness", "11")
    assert r.returncode == 0
    assert json.loads(r.stdout) == {
        "p": 11, "n": 7, "case": "odd", "residue": 0,
        "exact_checked": True, "ok": True,
    }


def test_witness_p3_inapplicable():
    r = run_cli("witness", "3")
    assert r.returncode == 2
    assert "inapplicable" in r.stderr
    assert r.stdout == ""


def test_witness_not_prime():
    r = run_cli("witness", "9")
    assert r.returncode == 2
    assert "not prime" in r.stderr


def test_witness_human_format():
    r = run_cli("witness", "11", "--format", "human")
    assert r.returncode == 0
    assert "p=11 n=7 case=odd" in r.stdout
    assert "ok" in r.stdout


def test_verify_range_jsonl_contract():
    r = run_cli("verify", "--pmin", "3", "--pmax", "100", "--quiet")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert len(lines) == 23  # odd primes 5..97
    first = json.loads(lines[0])
    assert list(first.keys()) == ["p", "n", "case", "residue", "exact_checked", "ok"]
    assert all(json.loads(ln)["ok"] is True for ln in lines)
    assert "verified=23" in r.stderr
    assert "skipped=p=3" in r.stderr


def test_verify_stdout_purity_and_progress():
    r = run_cli("verify", "--pmin", "3", "--pmax", "200", "--format", "jsonl")
    for ln in r.stdout.splitlines():
        json.loads(ln)  # records only, no progress mixed in
    assert "shard" in r.stderr


def test_verify_empty_range():
    r = run_cli("verify", "--pmin", "4", "--pmax", "4", "--quiet")
    assert r.returncode == 0
    assert r.stdout == ""


def test_verify_csv_header():
    r = run_cli("verify", "--pmin", "3", "--pmax", "20", "--quiet", "--format", "csv")
    lines = r.stdout.splitlines()
    assert lines[0] == "p,n,case,residue,exact_checked,ok"
    assert lines[1] == "5,3,odd,0,true,true"


def test_verify_jobs_byte_identical():
    base = run_cli("verify", "--pmin", "3", "--pmax", "3000", "--quiet", "--format", "jsonl")
    for jobs in ("2", "4"):
        r = run_cli(
            "verify", "--pmin", "3", "--pmax", "3000", "--quiet",
            "--format", "jsonl", "--jobs", jobs,
        )
        assert r.stdout == base.stdout


def test_verify_inverted_range():
    r = run_cli("verify", "--pmin", "10", "--pmax", "5")
    assert r.returncode == 2


@pytest.mark.parametrize(
    "args,rule",
    [
        (["exact", "7", "--digits", "-1"], "--digits must be nonnegative"),
        (["exact", "-1"], "n must be nonnegative"),
        (["search", "9", "--nmax", "10"], "9 is not prime"),
        (["search", "5", "--nmax", "0"], "nmax must be positive"),
        # a strong pseudoprime to every prime base up to 31, near the top of 2^64
        (["search", "3825123056546413051", "--nmax", "5"], "3825123056546413051 is not prime"),
        (["witness", "9"], "9 is not prime"),
        (["witness", "3"], "inapplicable"),
        (["pair-check", "2"], "inapplicable"),
        (["pair-check", "3"], "inapplicable"),
        # the map from p to n runs before the proof; these pin its order
        (["pair-check", "9"], "9 is not prime"),
        (["pair-check", "1"], "odd prime >= 3"),
        (["verify", "--pmin", "10", "--pmax", "5", "--format", "csv", "--out", "{out}"],
         "pmin=10 > pmax=5"),
        # past is_prime's 64-bit range: refused before any sieving
        (["verify", "--pmin", str(2**64 + 1), "--pmax", str(2**64 + 84), "--format", "csv"],
         "2^32"),
        # just below 2^64, where the sieve's base primes would need a 4 GiB mask
        (["verify", "--pmin", "18446744073709551000", "--pmax", "18446744073709551557",
          "--format", "csv", "--out", "{out}"],
         "2^32"),
        (["verify", "--pmin", "5", "--pmax", "50", "--jobs", "0", "--format", "csv",
          "--out", "{out}"],
         "--jobs must be positive"),
        (["verify", "--pmin", "5", "--pmax", "50", "--jobs", "-2", "--format", "csv",
          "--out", "{out}"],
         "--jobs must be positive"),
        # a prime past verify_prime's limit: refused before the tail
        (["witness", "1000000000039"], "2^32"),
        # pairing_defect would hold about p/3 inverses: refused before any work
        (["pair-check", "1000000000039"], "2^32"),
    ],
    ids=["exact-digits", "exact-n", "search-p", "search-nmax", "search-pseudoprime",
         "witness-composite", "witness-3", "pair-check-2", "pair-check-3",
         "pair-check-composite", "pair-check-1", "verify-inverted", "verify-past-2^64",
         "verify-below-2^64", "verify-jobs-0", "verify-jobs-negative",
         "witness-past-2^32", "pair-check-past-2^32"],
)
def test_invalid_input_writes_nothing(tmp_path, args, rule):
    out = tmp_path / "records.csv"
    r = run_cli(*(a.format(out=out) for a in args))
    assert r.returncode == 2
    assert r.stdout == ""
    assert rule in r.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "--pmin", "5", "--pmax", "300000", "--quiet", "--jobs", "2"],
        ["pair-check", "100003", "--format", "csv"],
    ],
    ids=["verify", "pair-check"],
)
def test_closed_stdout_exits_141(tmp_path, args):
    # `altharm ... | head -1`: the reader takes one line and closes the pipe;
    # both commands write far more than a pipe holds
    with open(tmp_path / "stderr", "w+") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "altharm", *args],
            stdout=subprocess.PIPE, stderr=err, env=oracles.child_env(),
        )
        assert proc.stdout.readline()
        proc.stdout.close()
        assert proc.wait(timeout=60) == 141
        err.seek(0)
        assert "Traceback" not in err.read()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "args,to_stdout",
    [
        (["exact", "7"], True),
        (["verify", "--pmin", "5", "--pmax", "20000", "--quiet", "--jobs", "1"], True),
        (["verify", "--pmin", "5", "--pmax", "20000", "--quiet", "--jobs", "1",
          "--out", "/dev/full"], False),
        (["verify", "--pmin", "5", "--pmax", "20000", "--quiet", "--jobs", "2",
          "--out", "/dev/full"], False),
    ],
    ids=["exact-stdout", "verify-stdout", "verify-out-jobs-1", "verify-out-jobs-2"],
)
def test_failed_write_is_a_usage_error(args, to_stdout):
    # every write to /dev/full fails with ENOSPC; the verify range spans three
    # shards and more records than a write buffer holds
    with open("/dev/full", "w") as full:
        r = subprocess.run(
            [sys.executable, "-m", "altharm", *args],
            stdout=full if to_stdout else subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=oracles.child_env(), timeout=120,
        )
    assert r.returncode == 2
    assert r.stderr.splitlines() == ["altharm: error: [Errno 28] No space left on device"]


def test_verify_out_append_and_resume(tmp_path):
    out = tmp_path / "records.jsonl"
    whole = tmp_path / "whole.jsonl"
    r1 = run_cli("verify", "--pmin", "5", "--pmax", "50", "--quiet", "--out", str(out))
    assert r1.returncode == 0 and r1.stdout == ""
    last_p = json.loads(out.read_text().splitlines()[-1])["p"]
    assert last_p == 47
    r2 = run_cli(
        "verify", "--pmin", str(last_p + 1), "--pmax", "100", "--quiet",
        "--out", str(out),
    )
    assert r2.returncode == 0
    run_cli("verify", "--pmin", "5", "--pmax", "100", "--quiet", "--out", str(whole))
    assert out.read_text() == whole.read_text()


def test_verify_out_csv_header_written_once(tmp_path):
    out = tmp_path / "records.csv"
    run_cli("verify", "--pmin", "5", "--pmax", "50", "--quiet",
            "--format", "csv", "--out", str(out))
    run_cli("verify", "--pmin", "51", "--pmax", "100", "--quiet",
            "--format", "csv", "--out", str(out))
    lines = out.read_text().splitlines()
    assert lines.count("p,n,case,residue,exact_checked,ok") == 1
    assert lines[0] == "p,n,case,residue,exact_checked,ok"


def test_verify_out_refuses_a_partial_final_line(tmp_path):
    # appending would glue the next record onto the cut-off one
    out = tmp_path / "records.jsonl"
    out.write_bytes(
        b'{"p":5,"n":3,"case":"odd","residue":0,"exact_checked":true,"ok":true}\n'
        b'{"p":7,"n":4,"ca'
    )
    before = out.read_bytes()
    for fmt in ("jsonl", "csv"):
        r = run_cli("verify", "--pmin", "11", "--pmax", "20", "--quiet",
                    "--format", fmt, "--out", str(out))
        assert r.returncode == 2
        assert r.stdout == ""
        assert str(out) in r.stderr
        assert '{"p":7,"n":4,"ca' in r.stderr
        assert out.read_bytes() == before


@pytest.mark.parametrize("fmt", ["jsonl", "csv", "human"])
def test_verify_out_refuses_a_final_empty_line(tmp_path, fmt):
    # no format writes an empty line: appending after one would put a blank
    # line inside a csv stream, or before a file's first row with no header
    out = tmp_path / "records"
    args = ("verify", "--pmin", "5", "--pmax", "13", "--quiet", "--format", fmt, "--out", str(out))
    assert run_cli(*args).returncode == 0
    for before in (b"\n", out.read_bytes() + b"\n"):
        out.write_bytes(before)
        r = run_cli(*args)
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr.splitlines() == [
            f"altharm: error: --out {str(out)!r} ends in an empty line; "
            "remove it or choose another file"
        ]
        assert out.read_bytes() == before


@pytest.mark.parametrize(
    "first,second",
    [("csv", None), ("csv", "human"), ("jsonl", "csv"), ("jsonl", "human"),
     ("human", "jsonl"), ("human", "csv")],
)
def test_verify_out_refuses_another_format(tmp_path, first, second):
    # README's resume without --format: a file is not a terminal, so the second
    # run defaults to jsonl, which would land under the csv header
    out = tmp_path / "records"
    args = ("verify", "--pmin", "5", "--pmax", "30", "--quiet", "--out", str(out))
    assert run_cli(*args, "--format", first).returncode == 0
    before = out.read_bytes()
    resume = ("verify", "--pmin", "31", "--pmax", "60", "--quiet", "--out", str(out))
    r = run_cli(*resume, *(("--format", second) if second else ()))
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.splitlines() == [
        f"altharm: error: --out {str(out)!r} ends in {first} rows, not {second or 'jsonl'}; "
        f"pass --format {first} or choose another file"
    ]
    assert out.read_bytes() == before
    # the file's own format still appends, as one run would have written it
    assert run_cli(*resume, "--format", first).returncode == 0
    whole = run_cli("verify", "--pmin", "5", "--pmax", "60", "--quiet", "--format", first)
    assert out.read_text() == whole.stdout


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_verify_out_to_a_pipe(fmt):
    # /dev/stdout on a pipe cannot seek: written as a fresh stream, csv header once
    args = ("verify", "--pmin", "5", "--pmax", "30", "--quiet", "--format", fmt)
    plain = run_cli(*args)
    piped = run_cli(*args, "--out", "/dev/stdout")
    assert piped.returncode == 0, piped.stderr
    assert piped.stdout == plain.stdout
    assert plain.stdout.count("\n") == (9 if fmt == "csv" else 8)


def test_verify_out_unwritable():
    r = run_cli("verify", "--pmin", "3", "--pmax", "10", "--out", "/nonexistent/x.jsonl")
    assert r.returncode == 2
    assert "cannot open" in r.stderr


def test_search_jsonl_and_exit_codes():
    r = run_cli("search", "5", "--nmax", "10")
    assert r.returncode == 0
    assert r.stdout == '{"p":5,"n":3}\n'
    r = run_cli("search", "7", "--nmax", "4")
    assert r.stdout == '{"p":7,"n":4}\n'
    r = run_cli("search", "4", "--nmax", "10")
    assert r.returncode == 2
    r = run_cli("search", "2", "--nmax", "10")
    assert r.returncode == 2


def test_search_csv_and_human():
    r = run_cli("search", "5", "--nmax", "10", "--format", "csv")
    assert r.stdout.splitlines() == ["p,n", "5,3"]
    r = run_cli("search", "5", "--nmax", "10", "--format", "human")
    assert r.stdout.splitlines() == ["3"]
    r = run_cli("search", "3", "--nmax", "50", "--format", "human")
    assert r.returncode == 0
    assert "no n <= 50" in r.stdout


def test_search_has_no_nmax_bound():
    # the scan stops by Boyd's lemma, so nmax past 10^5 is accepted
    r = run_cli("search", "7", "--nmax", "100001", "--format", "csv")
    assert r.returncode == 0, r.stderr
    hits = [int(ln.split(",")[1]) for ln in r.stdout.splitlines()[1:]]
    assert hits[:7] == [4, 30, 34, 210, 214, 241, 1499]


def test_pair_check():
    r = run_cli("pair-check", "11")
    assert r.returncode == 0
    rows = [json.loads(ln) for ln in r.stdout.splitlines()]
    assert [(row["a"], row["b"], row["residue"]) for row in rows] == [
        (4, 7, 0), (5, 6, 0),
    ]
    assert r.stderr.splitlines() == ["pair-check p=11 n=7 case=odd: 2 pairs, all cancel"]
    r = run_cli("pair-check", "7", "--format", "human")
    assert "pair (3,4)" in r.stdout
    r = run_cli("pair-check", "5", "--format", "csv")
    assert r.stdout.splitlines() == ["p,k,a,b,residue", "5,1,2,3,0"]


def test_pair_check_proves_primality_once(monkeypatch, capsys):
    calls = []

    def counting(x):
        calls.append(x)
        return oracles.trial_is_prime(x)

    monkeypatch.setattr(engine, "is_prime", counting)
    monkeypatch.setattr(modfield, "is_prime", counting)
    assert cli.main(["pair-check", "11", "--format", "jsonl"]) == 0
    assert calls == [11]


def test_failing_record_yields_exit_one(monkeypatch, capsys):
    # no genuine counterexample is known, so fake one at the seam
    fake = WitnessRecord(
        p=11, n=7, case=FormCase.ODD, residue=5, exact_checked=False, ok=False
    )
    monkeypatch.setattr(cli, "verify_prime", lambda p: fake)
    assert cli.main(["witness", "11", "--format", "jsonl"]) == 1
    out = capsys.readouterr().out
    assert '"ok":false' in out


def test_out_of_memory_is_a_usage_error(monkeypatch, capsys):
    def exhausted(p):
        raise MemoryError

    monkeypatch.setattr(cli, "verify_prime", exhausted)
    assert cli.main(["witness", "11", "--format", "jsonl"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "altharm: error: out of memory.\n"


def test_consistency_error_exits_three(monkeypatch, capsys):
    # a kernel fault in the second shard: H_n of p = 10007 (n = 6671) off by
    # one fails its record, which the tail span does not; the first shard's
    # records are already out
    real = modfield.harmonic_prefixes_mod

    def faulty(cuts, moduli):
        hs = real(cuts, moduli)
        return [(d, (h + d * ((c, m) == (6671, 10007))) % m) for c, m, (d, h) in zip(cuts, moduli, hs)]

    monkeypatch.setattr(engine, "harmonic_prefixes_mod", faulty)
    argv = ["verify", "--pmin", "5", "--pmax", "20000", "--jobs", "1", "--format", "jsonl", "--quiet"]
    assert cli.main(argv) == cli.EXIT_INTERNAL == 3
    out, err = capsys.readouterr()
    assert [json.loads(line)["p"] for line in out.splitlines()] == [
        p for p in oracles.primes_upto_trial(8196) if p >= 5
    ]
    assert err == "altharm: internal error: range fold and tail span disagree at p=10007\n"


@pytest.mark.skipif(not hasattr(os, "fork"), reason="verify forks its workers")
def test_dead_pool_worker_exits_three(monkeypatch, capsys, tmp_path):
    # every shard after the first kills its worker, which inherits the patch
    real = engine.odd_primes_iter
    monkeypatch.setattr(
        engine, "odd_primes_iter", lambda lo, hi: real(lo, hi) if lo == 5 else os._exit(1)
    )
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
    out = tmp_path / "records.jsonl"
    argv = ["verify", "--pmin", "5", "--pmax", "20000", "--jobs", "2", "--quiet", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_INTERNAL == 3
    err = capsys.readouterr().err
    assert err.startswith("altharm: internal error: ") and err.count("\n") == 1
    # the first shard, which the other worker computed, is read and written
    # whole before the dead worker's shard is missed
    first = [p for p in oracles.primes_upto_trial(8196) if p >= 5]
    assert [json.loads(line)["p"] for line in out.read_text().splitlines()] == first


@pytest.mark.skipif(not hasattr(os, "fork"), reason="verify forks its workers")
def test_ctrl_c_exits_130_and_leaves_no_process(tmp_path):
    # SIGINT to the process group, as a terminal's Ctrl-C sends it, once the
    # first shard's records are in --out
    out = tmp_path / "records.jsonl"
    argv = ["verify", "--pmin", "5", "--pmax", "3000000", "--jobs", "2", "--quiet", "--out", str(out)]
    proc = subprocess.Popen(
        [sys.executable, "-m", "altharm", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=oracles.child_env(), start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 60
        while not (out.exists() and out.stat().st_size):
            assert time.monotonic() < deadline and proc.poll() is None
            time.sleep(0.01)
        os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode == cli.EXIT_INTERRUPTED == 130, err
    assert err.splitlines() == ["altharm: interrupted"]
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)  # the workers are gone with the parent
    assert out.read_bytes().endswith(b"\n")


_NO_NUMPY = "import sys; sys.modules['numpy'] = None; from altharm import cli; sys.exit(cli.main(sys.argv[1:]))"


@pytest.mark.parametrize(
    "args",
    [
        ["exact", "7"],
        ["witness", "1000003"],
        ["verify", "--pmin", "3", "--pmax", "20000", "--jobs", "2", "--format", "jsonl"],
        ["search", "3", "--nmax", "3000"],
        ["pair-check", "101", "--format", "csv"],
    ],
    ids=["exact", "witness", "verify", "search", "pair-check"],
)
def test_no_command_loads_numpy(args):
    # with numpy's import made to fail, each command gives the same exit code
    # and stdout bytes as an unblocked run
    blocked = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY, *args],
        capture_output=True, text=True, env=oracles.child_env(), timeout=300,
    )
    plain = run_cli(*args)
    assert blocked.returncode == plain.returncode == 0, blocked.stderr
    assert blocked.stdout == plain.stdout


def test_exact_loads_no_process_pool():
    # no command loads a process pool: verify forks its workers itself
    r = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "altharm", "exact", "1"],
        capture_output=True, text=True, env=oracles.child_env(), timeout=300,
    )
    assert r.returncode == 0 and r.stdout == "1/1\n"
    assert "altharm.engine" in r.stderr and "concurrent.futures" not in r.stderr
    r = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "altharm",
         "verify", "--pmin", "5", "--pmax", "20000", "--jobs", "2"],
        capture_output=True, text=True, env=oracles.child_env(), timeout=300,
    )
    assert r.returncode == 0 and r.stdout.count("\n") == 2260
    assert "concurrent.futures" not in r.stderr and "multiprocessing" not in r.stderr


@pytest.mark.parametrize("fmt", ["jsonl", "csv", "human"])
def test_unbuffered_stdout_gives_the_same_bytes(fmt):
    # PYTHONUNBUFFERED=1 makes each write to stdout a syscall of its own
    argv = [sys.executable, "-m", "altharm", "verify", "--pmin", "3", "--pmax", "20000",
            "--jobs", "2", "--format", fmt]
    env = oracles.child_env()
    env.pop("PYTHONUNBUFFERED", None)
    runs = [
        subprocess.run(argv, capture_output=True, env=e, timeout=300)
        for e in (env, {**env, "PYTHONUNBUFFERED": "1"})
    ]
    assert [r.returncode for r in runs] == [0, 0]
    assert runs[0].stdout == runs[1].stdout and runs[0].stdout.count(b"\n") >= 2260


def test_verify_writes_each_shard_in_one_call(monkeypatch):
    writes = []

    class Stdout(io.StringIO):
        def write(self, text):
            writes.append(text)
            return super().write(text)

    monkeypatch.setattr(sys, "stdout", Stdout())
    argv = ["verify", "--pmin", "5", "--pmax", "20000", "--jobs", "1", "--format", "jsonl", "--quiet"]
    assert cli.main(argv) == 0
    shards = [(5, 8196), (8197, 16388), (16389, 20000)]
    primes = oracles.primes_upto_trial(20000)
    assert [w.count("\n") for w in writes] == [
        sum(lo <= p <= hi for p in primes) for lo, hi in shards
    ]


def test_import_loads_no_typing_dataclasses_inspect_or_json():
    # dataclasses and the inspect it imports were most of the package's own
    # start-up cost (the value types are named tuples), json quoted only the
    # case tag, and typing only declared; -S keeps site, which may preload
    # any of them (a .pth importing certifi loads typing), out of the count
    code = (
        "import sys; before = set(sys.modules); import altharm.cli; "
        "print(sorted({'typing', 'dataclasses', 'inspect', 'json'} & (set(sys.modules) - before)))"
    )
    r = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, env=oracles.child_env(), timeout=300,
    )
    assert r.returncode == 0 and r.stdout == "[]\n", (r.stdout, r.stderr)


def test_no_command_is_usage_error():
    r = run_cli()
    assert r.returncode == 2


_VERIFY_3_30 = [(5, 3, "odd"), (7, 4, "even"), (11, 7, "odd"), (13, 8, "even"),
                (17, 11, "odd"), (19, 12, "even"), (23, 15, "odd"), (29, 19, "odd")]

# exact_checked flips between n = 2000 (p = 3001) and n = 2007 (p = 3011)
_VERIFY_2999_3011 = [(2999, 1999, "odd", True), (3001, 2000, "even", True),
                     (3011, 2007, "odd", False)]

_STDOUT = {
    ("witness 11", "jsonl"):
        '{"p":11,"n":7,"case":"odd","residue":0,"exact_checked":true,"ok":true}\n',
    ("witness 11", "csv"):
        "p,n,case,residue,exact_checked,ok\n11,7,odd,0,true,true\n",
    ("witness 11", "human"):
        "p=11 n=7 case=odd: A_n residue 0 (exact+modular) -> ok\n",
    ("pair-check 11", "jsonl"):
        '{"p":11,"k":1,"a":4,"b":7,"residue":0}\n'
        '{"p":11,"k":2,"a":5,"b":6,"residue":0}\n',
    ("pair-check 11", "csv"):
        "p,k,a,b,residue\n11,1,4,7,0\n11,2,5,6,0\n",
    ("pair-check 11", "human"):
        "pair (4,7): 4+7=11, inv(4)+inv(7) = 0 (mod 11)\n"
        "pair (5,6): 5+6=11, inv(5)+inv(6) = 0 (mod 11)\n",
    ("search 7 --nmax 40", "jsonl"):
        '{"p":7,"n":4}\n{"p":7,"n":30}\n{"p":7,"n":34}\n',
    ("search 7 --nmax 40", "csv"): "p,n\n7,4\n7,30\n7,34\n",
    ("search 7 --nmax 40", "human"): "4\n30\n34\n",
    ("search 3 --nmax 50", "jsonl"): "",
    ("search 3 --nmax 50", "csv"): "p,n\n",
    ("search 3 --nmax 50", "human"): "no n <= 50 with 3 | numerator(A_n)\n",
    ("verify --pmin 3 --pmax 30 --quiet", "jsonl"): "".join(
        f'{{"p":{p},"n":{n},"case":"{c}","residue":0,"exact_checked":true,"ok":true}}\n'
        for p, n, c in _VERIFY_3_30),
    ("verify --pmin 3 --pmax 30 --quiet", "csv"):
        "p,n,case,residue,exact_checked,ok\n"
        + "".join(f"{p},{n},{c},0,true,true\n" for p, n, c in _VERIFY_3_30),
    ("verify --pmin 3 --pmax 30 --quiet", "human"): "".join(
        f"p={p} n={n} case={c}: A_n residue 0 (exact+modular) -> ok\n"
        for p, n, c in _VERIFY_3_30),
    ("verify --pmin 2999 --pmax 3011 --quiet", "jsonl"): "".join(
        f'{{"p":{p},"n":{n},"case":"{c}","residue":0,'
        f'"exact_checked":{str(x).lower()},"ok":true}}\n'
        for p, n, c, x in _VERIFY_2999_3011),
    ("verify --pmin 2999 --pmax 3011 --quiet", "csv"):
        "p,n,case,residue,exact_checked,ok\n"
        "2999,1999,odd,0,true,true\n"
        "3001,2000,even,0,true,true\n"
        "3011,2007,odd,0,false,true\n",
    ("verify --pmin 2999 --pmax 3011 --quiet", "human"):
        "p=2999 n=1999 case=odd: A_n residue 0 (exact+modular) -> ok\n"
        "p=3001 n=2000 case=even: A_n residue 0 (exact+modular) -> ok\n"
        "p=3011 n=2007 case=odd: A_n residue 0 (modular) -> ok\n",
}


@pytest.mark.parametrize(
    "command,fmt", list(_STDOUT), ids=[f"{c}-{f}".replace(" ", "_") for c, f in _STDOUT]
)
def test_stdout_bytes_pinned(capsys, command, fmt):
    assert cli.main([*command.split(), "--format", fmt]) == 0
    assert capsys.readouterr().out == _STDOUT[command, fmt]
