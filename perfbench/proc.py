"""Child processes, run one at a time, with wall time and peak memory."""

from __future__ import annotations

import os
import signal
import subprocess
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

CHILD_TIMEOUT_S = 120


@dataclass
class ChildResult:
    returncode: int
    stdout: str
    stderr: str
    started: float  # time.perf_counter() when the child was started
    wall_s: float
    peak_rss_mb: float


def _on_alarm(signum, frame):
    raise TimeoutError


def run_child(argv: list[str], src: Path, workdir: Path) -> ChildResult:
    """Run ``argv`` to completion with ``src`` as its only PYTHONPATH entry.

    ``os.wait4`` reaps the child so its own peak resident set is known;
    output goes through files in ``workdir``.
    """
    env = dict(os.environ, PYTHONPATH=str(src))
    with tempfile.TemporaryFile(dir=workdir) as out, tempfile.TemporaryFile(dir=workdir) as err:
        old = signal.signal(signal.SIGALRM, _on_alarm)
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except TimeoutError:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return ChildResult(proc.returncode, out.read().decode(), err.read().decode(), t0, wall,
                           usage.ru_maxrss / 1024.0)
