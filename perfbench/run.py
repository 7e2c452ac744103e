"""ncorlicz benchmark: one seeded workload, one client in a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ./src.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

from proc import run_child

# workloads, reference and tracer import numpy, so they are imported inside
# functions: the set-up timed by timed_setup starts before numpy is loaded.

WORKLOAD_NAMES = ("norms-registry", "core-steps", "modular-pairs", "cli-cold")
SETUP_PROBES = 6
HOT_SUITE_CASES = ("trace_orlicz.norm_axioms", "trace_orlicz.pnorm_collapse",
                   "trace_orlicz.fack_kosaki", "trace_orlicz.symmetry")
CLI_COMMANDS = ("norm", "core-norm", "rearr", "cocycle", "gns")
HERE = Path(__file__).resolve().parent


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="how long to run ops; run_seconds in BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def timed_setup(name: str, seed: int):
    """Import the library and build the workload's inputs; returns (workload, seconds)."""
    t0 = time.perf_counter()
    import workloads

    wl = workloads.WORKLOADS[name](seed)
    return wl, time.perf_counter() - t0


class Tally:
    """Latencies and check outcomes of the ops run so far.

    ``probe`` (a reference.Kernel or reference.Startup) is timed before every
    op; ``scaled`` scales each op by the probe times before and after it.
    """

    def __init__(self, probe):
        self.probe = probe
        self.raw: list[float] = []
        self.speed: list[float] = []
        self.status: Counter = Counter()
        self.child_rss_mb = 0.0

    def run(self, wl, i: int, tracer=None) -> None:
        # Only the op itself is traced: building its input and checking its
        # result are the benchmark's work, not the library's.
        active = tracer is not None and tracer.active
        if active:
            tracer.active = False
        inp = wl.make_input(i)
        self.speed.append(self.probe.measure())
        if active:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            res = wl.op(inp)
        except Exception:  # a raising op is a failed op, not a crash
            res = None
            status = "fail"
        self.raw.append(time.perf_counter() - t0)
        if active:
            tracer.active = False
        if res is not None:
            try:
                status = wl.check(inp, res)
            except Exception:
                status = "fail"
        if active:
            tracer.active = True
        self.status[status] += 1
        self.child_rss_mb = max(self.child_rss_mb, getattr(res, "peak_rss_mb", 0.0))

    def scaled(self) -> list[float]:
        return scale(self.raw, self.speed, self.probe.ref_s)

    @property
    def failed(self) -> int:
        return self.status["fail"]


def scale(raw: list[float], speed: list[float], ref_s: float) -> list[float]:
    """Scale raw[i] by the mean of speed[i] (before it) and speed[i + 1] (after it).

    The slow spells can be shorter than a second, so the probes next to a
    piece of work track it better than a median over a wider window does.
    """
    return [dt * ref_s * 2.0 / (speed[i] + speed[min(i + 1, len(speed) - 1)])
            for i, dt in enumerate(raw)]


def percentile(sorted_vals: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above it."""
    k = max(1, math.ceil(pct / 100.0 * len(sorted_vals)))
    return sorted_vals[k - 1], len(sorted_vals) - k


def env_record() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": os.cpu_count()}


class Suite:
    """One ``suite --seed <seed> --samples 100`` CLI run, through cli_child.py.

    The child times the reference kernel every 50 ms.  ``scaled_s`` scales
    each stretch of the run between two kernel runs by the mean of their
    times, the stretch before the first by the first, and leaves the kernel
    runs out.
    """

    def __init__(self, src: Path, workdir: Path, seed: int):
        import reference

        spans_path = workdir / "suite_spans.json"
        argv = [sys.executable, str(HERE / "cli_child.py"), "cases", str(spans_path),
                "suite", "--seed", str(seed), "--samples", "100"]
        self.res = run_child(argv, src, workdir)
        self.data = json.loads(spans_path.read_text(encoding="utf-8"))
        try:
            self.ok = self.res.returncode == 0 and json.loads(self.res.stdout)["pass"] is True
        except (ValueError, KeyError):
            self.ok = False
        self.case_s = {name[len("suite.case."):]: end - start
                       for name, start, end, _, _ in self.data["spans"]
                       if name.startswith("suite.case.")}
        ticks = self.data["ticks"]
        scaled = (ticks[0][0] - self.res.started) / ticks[0][1]
        for (_, k0, b0), (a1, k1, _) in zip(ticks, ticks[1:]):
            scaled += (a1 - b0) * 2.0 / (k0 + k1)
        scaled += (self.res.started + self.res.wall_s - ticks[-1][2]) / ticks[-1][1]
        self.scaled_s = reference.K_REF_S * scaled


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "ncorlicz" / "__init__.py").is_file():
        sys.stderr.write(f"run.py: no ncorlicz sources under {src}; run from a checkout root\n")
        return 2
    sys.path.insert(0, str(src))
    if args.setup_probe:
        print(json.dumps({"setup_s": timed_setup(args.workload, args.seed)[1]}))
        return 0

    # One CPU for the run and its children, so the speed probes measure the
    # core that the ops run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workdir = root / ".perfbench_work"
    workdir.mkdir(exist_ok=True)
    import reference

    # Set-up runs in fresh interpreters, each bracketed by the start-up probe.
    startup = reference.Startup(src, workdir)
    probe_argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                  "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    setup, speed = [], [startup.measure()]
    for _ in range(SETUP_PROBES):
        res = run_child(probe_argv, src, workdir)
        if res.returncode != 0:
            sys.stderr.write(res.stderr)
            return 1
        setup.append(json.loads(res.stdout.splitlines()[-1])["setup_s"])
        speed.append(startup.measure())
    setup_raw, setup = setup, scale(setup, speed, startup.ref_s)
    wl, _ = timed_setup(args.workload, args.seed)
    probe = startup if getattr(wl, "child_ops", False) else reference.Kernel()
    if hasattr(wl, "prepare"):
        wl.prepare(src, workdir)
    defects_ok = known_defects(wl)

    if args.trace:
        return traced_run(args, wl, probe, src, workdir, defects_ok)

    tally = Tally(probe)
    t_end = time.perf_counter() + args.seconds
    i = 0
    while time.perf_counter() < t_end:
        tally.run(wl, i)
        i += 1
    rss_mb = tally.child_rss_mb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    suite = Suite(src, workdir, args.seed)

    lat = sorted(tally.scaled())
    tail, beyond = percentile(lat, wl.tail_pct)
    n = len(lat)
    metrics = {
        "ops_per_s": (n / sum(lat), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "suite_s": (suite.scaled_s, "s"),
    }
    raw = sorted(tally.raw)
    print(f"# {args.workload} seed {args.seed}: {n} ops; failed_ops_ratio "
          f"{tally.failed / n:.6f}; op_tail_ms is p{wl.tail_pct} with {beyond} "
          f"samples beyond")
    print(f"# unscaled: ops_per_s {n / sum(raw):.4f}, op_p50_ms "
          f"{statistics.median(raw) * 1e3:.4f}, op_tail_ms "
          f"{percentile(raw, wl.tail_pct)[0] * 1e3:.4f}, suite_s {suite.res.wall_s:.4f}; "
          f"unscaled/scaled: ops {sum(raw) / sum(lat):.3f}, setup "
          f"{statistics.median(setup_raw) / metrics['setup_s'][0]:.3f}, suite "
          f"{suite.res.wall_s / suite.scaled_s:.3f}")
    print(f"# suite --seed {args.seed} --samples 100: exit {suite.res.returncode}, "
          f"stdout sha256 {hashlib.sha256(suite.res.stdout.encode()).hexdigest()}")
    print(f"# env: {json.dumps(env_record())}")
    return emit(tally.failed == 0 and suite.ok and defects_ok, n + 1,
                tally.failed + (not suite.ok), metrics)


def known_defects(wl) -> bool:
    """Run the workload's untimed probe of a known library defect, if it has one.

    Prints what the probe found; false when an element went wrong in a way
    the known defect does not explain.
    """
    if not hasattr(wl, "d1_probe"):
        return True
    total, known, other = wl.d1_probe()
    print(f"# known defect D1 (untimed, not ops): {known} of {total} elements at "
          f"1e80/1e-80 wrong with D1's signature, {other} wrong otherwise")
    return other == 0


def traced_run(args, wl, probe, src: Path, workdir: Path, defects_ok: bool) -> int:
    """Untraced and traced passes over the same ops, alternating, then a traced suite.

    Alternating passes keeps drift in machine speed out of trace.overhead.
    """
    import tracer as tracing

    tr = tracing.Tracer()
    tracing.install(tr)
    wl.tracer = tr  # cli-cold runs traced ops in child processes that report to it
    plain, traced = Tally(probe), Tally(probe)
    pass_counts = []
    t_end = time.perf_counter() + args.seconds
    while len(pass_counts) < 2 or time.perf_counter() < t_end:
        tr.active = False
        for i in range(wl.pass_ops):
            plain.run(wl, i, tr)
        tr.active = True
        first, before = len(tr.start), Counter(tr.counts)
        for i in range(wl.pass_ops):
            tr.op_id = len(traced.raw)
            traced.run(wl, i, tr)
        counts = tr.span_counts(first)
        counts.update(tr.counts - before)
        pass_counts.append(counts)
    tr.op_id = -1
    tr.active = False
    counts_repeat = all(c == pass_counts[0] for c in pass_counts)
    ops = len(traced.raw)
    metrics = tracing.layer_metrics(tr, ops)

    suite = Suite(src, workdir, args.seed)
    tr.merge(suite.data["spans"], suite.data["counts"])
    incl, _ = tr.totals()
    calls = tr.span_counts()
    metrics["cli.import_s"] = (incl["cli.import"] / calls["cli.import"], "s")
    for cmd in CLI_COMMANDS:
        name = f"cli.{cmd}"
        metrics[f"{name}_ms"] = (incl[name] / calls[name] * 1e3 if calls[name] else 0.0, "ms")
    cases = dict(suite.case_s)
    for cid in HOT_SUITE_CASES:
        metrics[f"suite.case_ms.{cid}"] = (cases.pop(cid) * 1e3, "ms")
    metrics["suite.other_ms"] = (sum(cases.values()) * 1e3, "ms")
    metrics["trace.overhead"] = (sum(traced.scaled()) / sum(plain.scaled()), "ratio")
    tr.dump(workdir / f"spans-{args.workload}-seed{args.seed}.json")

    print(f"# {args.workload} seed {args.seed} traced: {len(pass_counts)} passes of "
          f"{wl.pass_ops} ops; exact counts repeat: {counts_repeat}")
    attempted = len(plain.raw) + ops + 1
    failed = plain.failed + traced.failed + (not suite.ok)
    correct = (plain.failed == 0 and traced.failed == 0 and suite.ok and counts_repeat
               and defects_ok)
    return emit(correct, attempted, failed, metrics)


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> int:
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
