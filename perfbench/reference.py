"""Fixed reference work that tracks the machine's momentary speed.

On a shared host the same work can take 1.9x longer for tens of seconds at
a time.  The benchmark times reference work next to every timed piece of
work and reports times scaled to a fixed reference speed:

    scaled = measured * reference time at that speed / reference time now

Work done in this process is compared with ``Kernel``: two sweeps of complex
Jacobi rotations on a fixed 4x4 Hermitian matrix, the same mix of small numpy
row and column updates and Python scalar arithmetic that dominates the
library's time.  Work done in a fresh interpreter (a CLI call, a set-up
probe) is compared with ``Startup``: a fresh interpreter that imports numpy,
which tracks start-up and import speed far better than the kernel does.
Neither involves the library, so changes to the library cannot move them.
"""

from __future__ import annotations

import math
import sys
import time
from pathlib import Path

import numpy as np

from proc import run_child

# Reference times on a 2-vCPU Intel Xeon host at 2.1 GHz, at the speed it
# runs at most of the time, taken the way run.py takes them.  K_REF_S is the
# median kernel time between ops: 240-300 us in most of 30 three-second blocks
# of the three in-process workloads, about 160 us in the host's faster state.
# STARTUP_REF_S is K_REF_S times the median ratio (604-618) of the start-up
# probe to the kernel timed next to it.  So a run at that speed reports scaled
# times equal to its raw times, and scaled times are seconds of that host at
# that speed.
K_REF_S = 2.7e-4
STARTUP_REF_S = 0.165

_M = np.array([[4, 1 + 1j, 0.5, 0.2j], [1 - 1j, 3, 0.3, 0.1],
               [0.5, 0.3, 2, 0.7j], [-0.2j, 0.1, -0.7j, 1]], dtype=np.complex128)


def _kernel() -> float:
    w = _M.copy()
    n = w.shape[0]
    for _ in range(2):
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = w[p, q]
                absa = abs(apq) or 1.0
                u = apq / absa
                tau = (w[q, q].real - w[p, p].real) / (2.0 * absa)
                t = (1.0 if tau >= 0.0 else -1.0) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                colp, colq = w[:, p].copy(), w[:, q].copy()
                w[:, p] = c * colp - (np.conj(u) * s) * colq
                w[:, q] = s * colp + (np.conj(u) * c) * colq
                rowp, rowq = w[p, :].copy(), w[q, :].copy()
                w[p, :] = c * rowp - (u * s) * rowq
                w[q, :] = s * rowp + (u * c) * rowq
    return float(np.linalg.norm(w - np.diag(np.diag(w))))


def measure(repeats: int = 3) -> float:
    """Fastest of ``repeats`` kernel runs, in seconds."""
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class Kernel:
    """Speed probe for work in this process."""

    ref_s = K_REF_S

    def measure(self) -> float:
        return measure()


class Startup:
    """Speed probe for work in a fresh interpreter: ``python -c "import numpy"``."""

    ref_s = STARTUP_REF_S

    def __init__(self, src: Path, workdir: Path):
        self.src, self.workdir = src, workdir

    def measure(self) -> float:
        return run_child([sys.executable, "-c", "import numpy"], self.src, self.workdir).wall_s
