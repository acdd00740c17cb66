#!/usr/bin/env python3
"""feddva benchmark: one workload per run, each run in a fresh process.

    python3 perfbench/run.py --workload disentangle --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all        # every workload, untraced

Run from the root of a source checkout; the benchmark imports feddva from
its src/ directory. ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-module metrics of a traced pass. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics. The exit code is 0 only when every output check passed.

Load is a closed loop: this process drives one training run at a time. The
BLAS thread count is set for the process before numpy loads, because the
bits of the final theta depend on it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("disentangle", "classify", "fullscale")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
MAX_BLAS_THREADS = 2
# a run of --seconds S ends well within this; the first pass can overrun S
CHILD_TIMEOUT_S = 170


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own child process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1,
                      "metrics": {}}
        merged["correct"] &= bool(result["correct"]) and proc.returncode == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged, sort_keys=True))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "feddva" / "__init__.py").is_file():
        print(f"error: no feddva sources under {ROOT / 'src'}; run the "
              "benchmark from a source checkout", file=sys.stderr)
        return 2
    threads = max(1, min(MAX_BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    if args.workload == "all":
        return run_all(args)

    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import harness

    result = harness.run(args.workload, args.seed, args.seconds, args.trace,
                         threads)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
