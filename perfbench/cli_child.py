"""A CLI call run by the benchmark as a child process, with its own timing.

    python3 cli_child.py layers|cases SPANS_JSON <cli arguments...>

The import of ``ncorlicz.cli`` and the call of ``cli.main`` are recorded as
spans ``cli.import`` and ``cli.<command>``.  ``layers`` also wraps every layer
entry point (see tracer.install).  ``cases`` times each suite case as a span
``suite.case.<id>`` and, from the end of the import on, times the reference
kernel every TICK_S seconds (list ``ticks``).  All of it goes to SPANS_JSON
when ``cli.main`` returns.
"""

import signal
import sys
import time

t0 = time.perf_counter()
from ncorlicz import cli  # noqa: E402  (timed: this is the CLI's import cost)

t1 = time.perf_counter()

import tracer  # noqa: E402

TICK_S = 0.05


def _time_cases(tr: tracer.Tracer) -> None:
    """Wrap the entries of ``suite.CASES``, which run_suite reads when called."""
    from ncorlicz import suite

    suite.CASES[:] = [(cid, tr.wrap(f"suite.case.{cid}", fn)) for cid, fn in suite.CASES]


def _start_ticks(ticks: list) -> None:
    """Time the reference kernel now and every TICK_S seconds after.

    Each tick appends (start, kernel seconds, end); the run's wall time minus
    the ticks can then be scaled piece by piece to the reference speed.
    """
    import reference

    def tick(signum, frame):
        a = time.perf_counter()
        k = reference.measure()
        ticks.append((a, k, time.perf_counter()))

    tick(None, None)
    signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)


def main() -> int:
    mode, spans_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tr = tracer.Tracer()
    tr.record("cli.import", t0, t1)
    ticks: list = []
    if mode == "layers":
        tracer.install(tr)
    else:
        _time_cases(tr)
        _start_ticks(ticks)
    idx = tr.open(f"cli.{argv[0]}")
    try:
        rc = cli.main(argv)
    finally:
        tr.close(idx)
        signal.setitimer(signal.ITIMER_REAL, 0)
        sys.stdout.flush()
        tr.dump(spans_path, ticks=ticks)
    return rc


if __name__ == "__main__":
    sys.exit(main())
