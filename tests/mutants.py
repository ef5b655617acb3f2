"""Mutation probe: each single-point mutant of src/ below must fail tier-1.

    python tests/mutants.py

For each mutant it copies pyproject.toml, src/, tests/ and bench/ (which a
tier-1 test loads) to a temporary directory, applies the one edit there,
never in this tree, and runs tier-1 with -x and PYTHONPATH set to the copy's
src/, so the `python -m altharm` children of the CLI tests get the mutant
too.  It prints the test that killed each mutant and the seconds it took, and
exits 1 if a mutant survives or if an old text does not occur exactly once
in its file (checked for every mutant before any run).  The file name keeps
pytest from collecting it; tests/test_mutants.py checks the list on every
tier-1 run and is left out of the probe's runs, where the edit it would
report is the point.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("pyproject.toml", "src", "tests", "bench")
LIST_CHECK = "tests/test_mutants.py::test_every_old_text_occurs_once"

# (file under src/altharm, old text, new text, why the suite must notice)
MUTANTS = [
    ("modfield.py", "d, n = d * k, n * k + d", "d, n = d * k, n * k - d",
     "a sign in _span: every tail span and fold prefix goes wrong"),
    ("modfield.py", "return (2 * w - v) % m", "return (2 * w + v) % m",
     "a sign in five_fibonacci_mod: the closed form's Fibonacci quotient"),
    ("engine.py", "+ 3 * f", "+ 2 * f",
     "the closed form's Fibonacci coefficient: range residues go wrong"),
    ("engine.py", "c, x = 7 * p // 10, 0", "c, x = 7 * p // 10 + 1, 0",
     "the 7p/10 cut read one past the cut the fold took"),
    ("engine.py", "if not rec.ok and alternating_mod(", "if False and alternating_mod(",
     "a failed range record is no longer rechecked by the tail span"),
    ("rationals.py", "_harmonic_sum(mid + 1, hi)", "_harmonic_sum(mid + 2, hi)",
     "a split block of 64 terms or more skips the first term of its upper half"),
    ("rationals.py", "max(prev, n // 2) + 1, n)", "max(prev, n // 2) + 2, n)",
     "the sweep's entering tail starts one term late"),
    ("primes.py", "for a in _SMALL_PRIMES:", "for a in _SMALL_PRIMES[:-1]:",
     "base 37 dropped: 3825123056546413051 passes every other base"),
    ("modfield.py", "out.append((w[0] % m, w[1] % m))",
     "out.append((w[0] % m, (w[1] + (m > 10**5)) % m))",
     "every fold read perturbed for moduli above 10^5"),
    ("modfield.py", "d, t = _span(n // 2 + 1, n, p.p)",
     "d, t = _span(n // 2 + 1 + (n > 5000), n, p.p)",
     "the tail span starts one term late above n = 5000"),
    ("engine.py", "stop = p * (k + 1) - 1", "stop = p * (k + 1) - 2",
     "search stops one candidate before Boyd's lemma allows"),
]


def misplaced() -> list[str]:
    """A line for each mutant whose old text is not exactly once in its file."""
    out = []
    for name, old, _, _ in MUTANTS:
        count = (ROOT / "src" / "altharm" / name).read_text().count(old)
        if count != 1:
            out.append(f"{name}: {old!r} occurs {count} times")
    return out


def run(name: str, old: str, new: str) -> tuple[str | None, float]:
    """The first failing tier-1 test with the mutant applied (None if it
    survives), and the seconds the run took."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for item in COPIED:
            src = ROOT / item
            if src.is_dir():
                shutil.copytree(src, copy / item, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(src, copy / item)
        path = copy / "src" / "altharm" / name
        path.write_text(path.read_text().replace(old, new))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(copy / "src"), env.get("PYTHONPATH")]))
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "--continue-on-collection-errors", "--deselect", LIST_CHECK],
            cwd=copy, env=env, capture_output=True, text=True,
        )
        seconds = time.perf_counter() - t0
    if done.returncode == 0:
        return None, seconds
    failed = [line.split()[1] for line in done.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return (failed[0] if failed else f"pytest exit {done.returncode}"), seconds


def main() -> int:
    if bad := misplaced():
        print(*bad, sep="\n")
        return 1
    survivors = 0
    for name, old, new, why in MUTANTS:
        killer, seconds = run(name, old, new)
        survivors += killer is None
        print(f"{'SURVIVED' if killer is None else 'killed'} {seconds:6.1f} s  {name}: {why}"
              + (f"\n    by {killer}" if killer else ""), flush=True)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
