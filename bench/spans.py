"""In-memory spans around calls into altharm's layers, from outside the package.

The package is not edited: `instrumented` swaps the names one module looks
up in another (engine's `alternating_mod`, modfield's `is_prime`, ...) for
wrappers that open a span, and restores them on exit.  A span's layer is
the first part of its name, which is the module that owns the function.
"""

import contextlib
import gzip
import json
import time
from typing import Callable, Dict, Iterator, List, Optional

LAYERS = ("primes", "modfield", "rationals", "engine")


class Tracer:
    """Spans as [name, start_ns, end_ns, parent index, attrs], in call order."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []

    def wrap(self, fn: Callable, name: str, attrs: Optional[Callable] = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            rec = [name, clock(), 0, stack[-1] if stack else -1,
                   attrs(*args) if attrs else None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()

        return traced

    def wrap_iter(self, fn: Callable, name: str) -> Callable:
        """Like wrap, for a generator function: one span per item produced."""
        step = self.wrap(next, name)

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = step(it)
                except StopIteration:
                    return
                yield item

        return traced

    def self_ns(self) -> List[int]:
        """Each span's duration minus the time its child spans cover."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="ascii") as f:
            for i, (name, start, end, parent, attrs) in enumerate(self.spans):
                f.write(json.dumps([i, name, start, end, parent, attrs]) + "\n")


@contextlib.contextmanager
def patched(targets: Dict[tuple, Callable]) -> Iterator[None]:
    """Set module attributes {(module, name): value}, restoring them on exit."""
    saved = {key: getattr(*key) for key in targets}
    try:
        for (module, name), value in targets.items():
            setattr(module, name, value)
        yield
    finally:
        for (module, name), value in saved.items():
            setattr(module, name, value)


def _tail_attrs(n, pm):
    return [pm.p, n - n // 2]


@contextlib.contextmanager
def instrumented(tracer: Tracer) -> Iterator[None]:
    """Route every cross-layer call the library makes through tracer spans."""
    from altharm import engine, modfield

    w = tracer.wrap
    with patched({
        (engine, "odd_primes_iter"): tracer.wrap_iter(engine.odd_primes_iter, "primes.odd_primes_iter"),
        (engine, "is_prime"): w(engine.is_prime, "primes.is_prime"),
        (modfield, "is_prime"): w(modfield.is_prime, "primes.is_prime"),
        (engine, "PrimeModulus"): w(engine.PrimeModulus, "modfield.PrimeModulus"),
        (engine, "alternating_mod"): w(engine.alternating_mod, "modfield.alternating_mod", _tail_attrs),
        (engine, "_inverse_range"): w(engine._inverse_range, "modfield._inverse_range"),
        (engine, "alternating_exact"): w(engine.alternating_exact, "rationals.alternating_exact"),
        (engine, "residue_of"): w(engine.residue_of, "rationals.residue_of"),
        (engine, "_merge"): w(engine._merge, "rationals._merge"),
        (engine, "witness_index"): w(engine.witness_index, "engine.witness_index"),
        (engine, "verify_prime"): w(engine.verify_prime, "engine.verify_prime"),
        # the jobs=1 path of verify_range calls this by name; a pool would
        # pickle it by name, so tracing stays at jobs=1
        (engine, "_verify_shard"): w(engine._verify_shard, "engine.shard"),
    }):
        yield


def summarize(tracer: Tracer, wall_ns: int) -> Dict[str, float]:
    """Seconds in total, seconds of self time and calls, per span name and
    per layer self time; and the share of wall_ns no top-level span covers."""
    out: Dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    top = 0
    for (name, start, end, parent, _), own in zip(tracer.spans, tracer.self_ns()):
        out[f"{name.split('.', 1)[0]}.self_s"] += own / 1e9
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + own / 1e9
        out[f"{name}.total_s"] = out.get(f"{name}.total_s", 0.0) + (end - start) / 1e9
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        if parent < 0:
            top += end - start
    out["unattributed_ratio"] = (wall_ns - top) / wall_ns if wall_ns else 0.0
    return out
