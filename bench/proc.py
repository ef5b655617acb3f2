"""Run `python -m altharm` as a user would, with its wall time and peak memory."""

import os
import signal
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

# Kills a CLI call that hangs, well inside the benchmark's own time limit.
CALL_TIMEOUT_S = 120.0

# Starts the CLI from a fresh bare interpreter and reports on the fd named
# by argv[1]: exit code, wall seconds, ru_maxrss in KiB.  At exec, Linux
# carries the spawning process's peak RSS into the child's ru_maxrss; from
# the benchmark's own, larger process that would report the benchmark's
# memory instead of the program's.
_LAUNCHER = """\
import os, subprocess, sys, time
t0 = time.perf_counter()
child = subprocess.Popen(sys.argv[2:])
_, status, usage = os.wait4(child.pid, 0)
wall = time.perf_counter() - t0
report = f"{os.waitstatus_to_exitcode(status)} {wall!r} {usage.ru_maxrss}"
os.write(int(sys.argv[1]), report.encode())
"""


@dataclass(frozen=True)
class CliRun:
    code: int
    out: bytes
    err: bytes
    wall: float
    rss_mb: float  # peak resident set of the process and its reaped workers


def cli_env(root: Path) -> dict:
    """The caller's environment, with the checkout's sources and no overrides.

    The digit limit stays the interpreter default and --jobs alone picks the
    worker count.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    env.pop("ALTHARM_JOBS", None)
    return env


def run_cli(root: Path, args: Sequence[str]) -> CliRun:
    """One fresh `python -m altharm *args`, stdout and stderr piped back.

    The launcher reaps the CLI with os.wait4, whose rusage holds the peak
    RSS of this call's process tree alone (Linux reports the larger of the
    process's own peak and that of the workers it waited for).
    """
    report_r, report_w = os.pipe()
    with os.fdopen(report_r, "rb") as report_file:
        try:
            launcher = subprocess.Popen(
                [sys.executable, "-S", "-c", _LAUNCHER, str(report_w),
                 sys.executable, "-m", "altharm", *args],
                cwd=root, env=cli_env(root), pass_fds=(report_w,), start_new_session=True,
                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            )
        finally:
            os.close(report_w)
        err: list = []
        reader = threading.Thread(target=lambda: err.append(launcher.stderr.read()))
        killer = threading.Timer(CALL_TIMEOUT_S, _kill_group, (launcher.pid,))
        reader.start()
        killer.start()
        try:
            out = launcher.stdout.read()
            reader.join()
            launcher.wait()
        finally:
            killer.cancel()
            launcher.stdout.close()
            launcher.stderr.close()
        report = report_file.read().split()
    if len(report) != 3:
        return CliRun(launcher.returncode or -1, out, err[0], 0.0, 0.0)
    code, wall, maxrss_kib = report
    return CliRun(int(code), out, err[0], float(wall), int(maxrss_kib) / 1024)


def _kill_group(pgid: int) -> None:
    # the launcher leads its own process group, so this ends the CLI too
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass
