#!/usr/bin/env python3
"""The altharm benchmark: one workload per call, every output gated.

    python3 bench/run.py --workload verify-dense --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30

--trace 0 runs the workload's CLI commands as fresh `python -m altharm`
processes, back to back, until --seconds have passed, and reports the
end-to-end metrics.  --trace 1 runs it in process under spans between two
untraced passes, once more at the workload's jobs if that is above 1, and
once through the CLI, and reports the per-layer metrics.
The human-readable report comes first; the last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}.  Metric names and
units come from BENCHMARK.json.  See bench/README.md.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

import gate
import proc
import spans
import stats
import workloads
from gate import WRONG, Op

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

SETUP_CALLS = 5
# Spans must cover all but this share of the traced wall.
ACCOUNTING_TOLERANCE = 0.05
TAIL_CLASSES = (
    ("p_lt_1e3", 0, 10**3),
    ("p_lt_1e4", 10**3, 10**4),
    ("p_le_1e5", 10**4, 10**5 + 1),
    ("p_ge_1e6", 10**6, 1 << 64),
)


def say(text: str = "") -> None:
    print(text, flush=True)


def machine_facts() -> Dict[str, object]:
    import altharm
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or commit
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "altharm": altharm.__version__,
        "commit": commit,
        "loadavg": list(os.getloadavg()),
    }


def run_canaries(seed: int) -> List[gate.Problem]:
    from altharm import PrimeModulus, alternating_mod, search_numerator_divisor

    return gate.canary_problems(
        lambda n, p: alternating_mod(n, PrimeModulus(p)).value, search_numerator_divisor, seed
    )


def cli_op(step: workloads.Step) -> (Op, bytes):
    """One gated CLI call, and its stdout."""
    r = proc.run_cli(ROOT, step.args)
    problems = gate.exit_problems(r.code, r.err) + step.check(r.out)
    return Op(step.name, r.wall, r.rss_mb, problems), r.out


def measure_setup() -> List[float]:
    """Wall times of a fresh `altharm exact 1`, after one untimed call."""
    walls = []
    for i in range(SETUP_CALLS + 1):
        r = proc.run_cli(ROOT, ("exact", "1"))
        if r.code != 0 or r.out != b"1/1\n":
            raise SystemExit(f"bench: `altharm exact 1` failed (exit {r.code}): {r.err[-300:]!r}")
        if i:
            walls.append(r.wall)
    return walls


def say_op(op: Op) -> None:
    rss = f", peak rss {op.rss_mb:.1f} MB" if op.rss_mb else ""
    status = "; ".join(m for _, m in op.problems) or "ok"
    say(f"# op {op.name}: {op.wall:.4f} s{rss}, {status}")


def describe(name: str, value, unit: str, note: str) -> None:
    shown = f"{value:.6g}" if isinstance(value, float) else str(value)
    say(f"  {name:<42} {shown:>14} {unit:<10} {note}")


def timing(name: str, xs: Sequence[float], unit: str = "s") -> float:
    q1, q3 = stats.quartiles(xs)
    med = statistics.median(xs)
    describe(name, med, unit, f"median of n={len(xs)} (q1 {q1:.6g}, q3 {q3:.6g})")
    return med


def end_to_end(w, seconds: float) -> (List[Op], Dict[str, float]):
    setup = measure_setup()
    iters: List[List[Op]] = []
    t0 = time.perf_counter()
    while not iters or time.perf_counter() - t0 < seconds:
        iters.append([cli_op(step)[0] for step in w.steps])
    ops = [op for it in iters for op in it]
    for op in ops:
        say_op(op)
    say("end-to-end metrics:")
    values = {
        "setup_s": timing("setup_s", setup),
        "wall_s": timing("wall_s", [sum(op.wall for op in it) for it in iters]),
        "peak_rss_mb": timing("peak_rss_mb", [max(op.rss_mb for op in it) for it in iters], "MB"),
    }
    if isinstance(w, workloads.VerifyWorkload):
        timing("primes_per_s", [w.records / sum(op.wall for op in it) for it in iters], "1/s")
    else:
        for step in ("search", "exact"):
            walls = [op.wall for op in ops if op.name == step and not op.failed]
            if walls:
                timing(f"{step}_s", walls)
            else:
                tried = sum(op.name == step for op in ops)
                describe(f"{step}_s", "absent", "s", f"0 of {tried} {step} runs succeeded")
    failed = sum(op.failed for op in ops)
    describe("failed_ratio", stats.share(failed, len(ops)), "ratio", f"{failed} failed of {len(ops)} ops")
    return ops, values


def tail_classes(tracer: spans.Tracer) -> Dict[str, float]:
    """Kernel nanoseconds per tail term, by the size class of p."""
    sums = {name: [0, 0] for name, _, _ in TAIL_CLASSES}
    for name, start, end, _, attrs in tracer.spans:
        if name == "modfield.alternating_mod":
            p, terms = attrs
            for cls, lo, hi in TAIL_CLASSES:
                if lo <= p < hi:
                    sums[cls][0] += end - start
                    sums[cls][1] += terms
    return {f"modfield.tail_ns_per_term.{c}": stats.share(ns, t) for c, (ns, t) in sums.items()}


def per_layer(w) -> (List[Op], Dict[str, float]):
    """The traced run, in process, between two untraced passes that bracket
    any drift in machine speed; then a pass at the workload's jobs and the CLI.
    """
    plain = w.inproc(1)
    tracer = spans.Tracer()
    with spans.instrumented(tracer):
        traced = w.inproc(1, tracer)
    for op in traced.ops:
        op.name = "traced " + op.name
    pool = w.inproc(w.jobs) if w.jobs > 1 else None
    cli, cli_out = zip(*(cli_op(step) for step in w.steps))
    plain_after = w.inproc(1)
    untraced = (plain.wall + plain_after.wall) / 2
    ops = plain.ops + traced.ops + (pool.ops if pool else []) + list(cli) + plain_after.ops
    # jobs-invariance: the CLI's first stream is the jobs=1 traced one, byte for byte
    if cli_out[0] != traced.out:
        cli[0].problems.append((WRONG, f"CLI jobs={w.jobs} output differs from the jobs=1 output"))
    pool = pool or plain

    wall = traced.wall
    s = spans.summarize(tracer, int(wall * 1e9))
    records = traced.records
    tail_s = s.get("modfield.alternating_mod.total_s", 0.0)
    busy = pool.shards
    v = {
        "modfield.tail_s": tail_s,
        "modfield.tail_calls": s.get("modfield.alternating_mod.calls", 0),
        "modfield.tail_terms": sum(a[1] for n, *_, a in tracer.spans if n == "modfield.alternating_mod"),
        **tail_classes(tracer),
        "modfield.tail_share": stats.share(tail_s, wall),
        "modfield.self_share": stats.share(s["modfield.self_s"], wall),
        "primes.sieve_s": s.get("primes.odd_primes_iter.total_s", 0.0),
        "primes.is_prime_s": s.get("primes.is_prime.total_s", 0.0),
        "primes.is_prime_calls_per_record": stats.share(s.get("primes.is_prime.calls", 0), records),
        "rationals.exact_s": s.get("rationals.alternating_exact.total_s", 0.0),
        "rationals.exact_calls": s.get("rationals.alternating_exact.calls", 0),
        "rationals.format_s": s.get("rationals.format_fraction.total_s", 0.0),
        "rationals.merge_s": s.get("rationals._merge.total_s", 0.0),
        "rationals.merge_calls": s.get("rationals._merge.calls", 0),
        "engine.search_s": s.get("engine.search_numerator_divisor.total_s", 0.0),
        "engine.verify_prime_self_s": s.get("engine.verify_prime.self_s", 0.0),
        "engine.serialize_us_per_record":
            stats.share(s.get("engine.record_to_json.total_s", 0.0), records) * 1e6,
        "engine.exact_checked_ratio": stats.share(traced.exact_checked, records),
        "engine.shard_count": len(busy),
        "engine.shard_busy_s": sum(busy),
        "engine.shard_imbalance": stats.shard_imbalance(busy),
        "engine.pool_efficiency": stats.pool_efficiency(sum(busy), w.jobs, pool.wall),
        "engine.scaling_eff":
            stats.scaling_eff(untraced, pool.wall, w.jobs) if w.jobs > 1 else 0.0,
        **{f"{layer}.self_s": s[f"{layer}.self_s"] for layer in spans.LAYERS},
        "cli.overhead_s": sum(op.wall for op in cli) - (pool.wall if w.jobs > 1 else untraced),
        "trace.overhead_ratio": stats.overhead_ratio(wall, untraced),
        "trace.unattributed_ratio": s["unattributed_ratio"],
    }

    for op in ops:
        say_op(op)
    say(f"# in-process wall: untraced jobs=1 {plain.wall:.4f} s and {plain_after.wall:.4f} s, "
        f"traced {wall:.4f} s" + (f", jobs={w.jobs} {pool.wall:.4f} s" if w.jobs > 1 else ""))
    attributed = sum(v[f"{layer}.self_s"] for layer in spans.LAYERS)
    verdict = "ok" if v["trace.unattributed_ratio"] <= ACCOUNTING_TOLERANCE else "VIOLATED"
    say(f"# accounting: layer self times {attributed:.4f} s (engine.verify_prime self "
        f"{v['engine.verify_prime_self_s']:.4f} s) of traced wall {wall:.4f} s, unattributed "
        f"{v['trace.unattributed_ratio']:.4%} (tolerance {ACCOUNTING_TOLERANCE:.0%}): {verdict}")
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{w.name}.jsonl.gz"
    tracer.write(path)
    say(f"# {len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    return ops, v


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    w = workloads.build(name, seed)
    say(f"# altharm benchmark: workload={name} seed={seed} seconds={seconds} trace={int(trace)}")
    say("# machine: " + json.dumps(machine_facts()))
    for step in w.steps:
        say("# command: altharm " + " ".join(step.args))
    canaries = run_canaries(seed)
    say(f"# canaries: {'ok' if not canaries else '; '.join(m for _, m in canaries)}")

    ops, values = per_layer(w) if trace else end_to_end(w, seconds)
    for op in ops:
        op.problems.extend(canaries)
    if trace:
        say("per-layer metrics (traced run, n=1 each):")
        for m in spec["per_layer"]:
            describe(m["name"], values.get(m["name"]), m["unit"], "")

    section = spec["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in section}
    missing = gate.metric_problems(metrics, [m["name"] for m in section])
    if missing:
        raise SystemExit("bench: " + "; ".join(missing))
    say(f"# load average after: {list(os.getloadavg())}")
    return {
        "correct": not any(kind == WRONG for op in ops for kind, _ in op.problems),
        "attempted": len(ops),
        "failed": sum(op.failed for op in ops),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "altharm" / "__init__.py").is_file():
        print(f"bench: no altharm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), spec)
        say(json.dumps(result))
        return 0
    facts = machine_facts()
    results = {
        name: {f"trace{t}": run_workload(name, args.seed, args.seconds, bool(t), spec)
               for t in (0, 1)}
        for name in workloads.NAMES
    }
    say(json.dumps({"facts": facts, "loadavg_after": list(os.getloadavg()),
                    "seed": args.seed, "seconds": args.seconds, "results": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
