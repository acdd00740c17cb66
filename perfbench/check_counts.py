#!/usr/bin/env python3
"""Self-check: two traced runs of a workload give identical exact counts.

    python3 perfbench/check_counts.py [--workload all] [--seed 1]

Each traced run (``run.py --trace 1``) records rows, steps, graph nodes per
step, per-kind op calls, the stepped-leaf and hinge-branch fractions and
checkpoint bytes. These are counts, not timings, so two runs of the same
code, seed and BLAS thread count must give the same values and the same
final-theta sha256. Exit code 0 when they do for every workload checked.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("disentangle", "classify", "fullscale")
RUN_TIMEOUT_S = 170


def traced_counts(workload: str, seed: int) -> tuple[dict, str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}")
    record = json.loads(
        (HERE / "out" / f"{workload}-s{seed}-trace1.json").read_text())
    return record["counts"], record["info"]["theta_sha"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        first, sha_first = traced_counts(name, args.seed)
        second, sha_second = traced_counts(name, args.seed)
        differ = sorted(k for k in first.keys() | second.keys()
                        if first.get(k) != second.get(k))
        if differ or sha_first != sha_second or not first:
            ok = False
            print(f"{name}: counts differ between two traced runs: {differ}; "
                  f"theta {sha_first[:12]} vs {sha_second[:12]}")
        else:
            print(f"{name}: {len(first)} exact counts repeat; final theta "
                  f"sha256 {sha_first}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
