"""Spans, self times, the accounting of traced wall, and the seeded inputs."""

import time

import pytest

import spans
import workloads


def busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_time_excludes_children_and_accounts_for_wall():
    tracer = spans.Tracer()
    inner = tracer.wrap(lambda: busy(0.02), "modfield.inner")
    outer = tracer.wrap(lambda: (busy(0.01), inner(), inner()), "engine.outer")
    t0 = time.perf_counter_ns()
    outer()
    busy(0.005)  # outside every span: unattributed
    wall = time.perf_counter_ns() - t0

    (o, *_), (i1, *_), (i2, *_) = tracer.spans
    assert (o, i1, i2) == ("engine.outer", "modfield.inner", "modfield.inner")
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]
    own = tracer.self_ns()
    assert sum(own) == tracer.spans[0][2] - tracer.spans[0][1]
    assert own[0] >= 0.01e9 and min(own[1:]) >= 0.02e9

    s = spans.summarize(tracer, wall)
    assert s["modfield.inner.calls"] == 2
    outer_s = (tracer.spans[0][2] - tracer.spans[0][1]) / 1e9
    assert s["modfield.self_s"] + s["engine.self_s"] == pytest.approx(outer_s, abs=1e-9)
    outer_ns = tracer.spans[0][2] - tracer.spans[0][1]
    assert s["unattributed_ratio"] == (wall - outer_ns) / wall > 0


def test_wrap_iter_opens_one_span_per_item():
    tracer = spans.Tracer()
    gen = tracer.wrap_iter(lambda n: iter(range(n)), "primes.odd_primes_iter")
    assert list(gen(3)) == [0, 1, 2]
    assert len(tracer.spans) == 4  # three items and the final StopIteration


def test_instrumented_restores_the_package():
    from altharm import engine

    before = engine.alternating_mod
    tracer = spans.Tracer()
    with spans.instrumented(tracer):
        rec = engine.verify_prime(11)
        assert engine.alternating_mod is not before
    assert engine.alternating_mod is before
    assert rec.ok
    names = [s[0] for s in tracer.spans]
    assert "modfield.alternating_mod" in names and "rationals.alternating_exact" in names
    assert tracer.spans[names.index("modfield.alternating_mod")][4] == [11, 4]


def test_inputs_depend_on_the_seed_only():
    a, b = workloads.build("verify-high", 3), workloads.build("verify-high", 3)
    assert (a.pmin, a.pmax, a.records) == (b.pmin, b.pmax, b.records) == (a.pmin, a.pmax, 150)
    assert a.pmin > 10**6 and workloads.build("verify-high", 4).pmin != a.pmin
    dense = workloads.build("verify-dense", 0)
    assert dense.steps[0].args == ("verify", "--pmin", "5", "--pmax", "100000", "--jobs", "2",
                                   "--format", "jsonl", "--quiet")
    assert dense.records == 9590
    search = workloads.build("search-exact", 7)
    assert 99_936 < search.nmax <= 100_000 and search.n == 100_000
