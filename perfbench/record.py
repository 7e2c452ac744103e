"""Record a baseline: every workload, untraced and traced, on the given seeds.

    python3 perfbench/record.py --seeds 0 1 [--out perfbench/baseline.json]

Run from the root of a git checkout.  Each run lasts run_seconds from
BENCHMARK.json.  The record holds the environment, the git commit, the
sha256 of ``suite --seed 0 --samples 100`` stdout and the result line of each
run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

from proc import run_child
from run import HERE, WORKLOAD_NAMES, env_record


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--out", default=str(HERE / "baseline.json"))
    args = p.parse_args()
    seconds = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    root = Path.cwd()
    src, workdir = root / "src", root / ".perfbench_work"
    workdir.mkdir(exist_ok=True)
    git = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    suite = run_child([sys.executable, "-m", "ncorlicz.cli", "suite", "--seed", "0",
                       "--samples", "100"], src, workdir)
    record = {**env_record(), "commit": git.stdout.strip() or None,
              "suite_seed0_sha256": hashlib.sha256(suite.stdout.encode()).hexdigest(),
              "seconds": seconds, "runs": []}
    for workload in WORKLOAD_NAMES:
        for seed in args.seeds:
            for trace in (0, 1):
                res = run_child([sys.executable, str(HERE / "run.py"), "--workload", workload,
                                 "--seed", str(seed), "--seconds", str(seconds),
                                 "--trace", str(trace)], src, workdir)
                lines = res.stdout.splitlines()
                record["runs"].append({"workload": workload, "seed": seed, "trace": trace,
                                       "notes": [ln for ln in lines[:-1] if ln.startswith("#")],
                                       "result": json.loads(lines[-1])})
                print(f"{workload} seed {seed} trace {trace}: exit {res.returncode}",
                      flush=True)
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
