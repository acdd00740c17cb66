#!/usr/bin/env python3
"""Fingerprint tables of the six seed-1 runs, for bitwise before/after checks.

Trains and evaluates each run through this checkout's CLI into OUT/<name>:

  disentangle          configs/disentangle.txt
  classify-feddva      configs/classify.txt, --method feddva
  classify-fedavg      configs/classify.txt, --method fedavg
  classify-fedavg-ft   configs/classify.txt, --method fedavg-ft
  fullscale            configs/fullscale.txt
  vanilla-vae          configs/disentangle.txt, --method vanilla-vae
                       --n_elbo_samples 1

and prints scripts/fingerprint.py's table of each, every line prefixed by
the run's name. config.txt records output_dir, so diff the output of two
commits run with the same OUT.

Usage: python3 scripts/fingerprint_all.py OUT
"""

import os
import runpy
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FINGERPRINT = runpy.run_path(
    str(ROOT / "scripts" / "fingerprint.py"))["fingerprint"]

RUNS = {
    "disentangle": ["--config", "configs/disentangle.txt"],
    **{f"classify-{method}": ["--config", "configs/classify.txt",
                              "--method", method]
       for method in ("feddva", "fedavg", "fedavg-ft")},
    "fullscale": ["--config", "configs/fullscale.txt"],
    "vanilla-vae": ["--config", "configs/disentangle.txt",
                    "--method", "vanilla-vae", "--n_elbo_samples", "1"],
}


def cli(*args: str) -> None:
    """Run this checkout's feddva CLI from the checkout root."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("FEDDVA_OUTPUT_DIR", None)  # each run names its own directory
    subprocess.run([sys.executable, "-m", "feddva.cli", *args], cwd=ROOT,
                   env=env, check=True, stdout=subprocess.DEVNULL)


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    out = Path(sys.argv[1]).resolve()
    for name, flags in RUNS.items():
        run_dir = out / name
        cli("train", *flags, "--seed", "1", "--output_dir", str(run_dir))
        cli("eval", "--output_dir", str(run_dir))
        for digest, part in FINGERPRINT(run_dir):
            print(f"{name}  {digest}  {part}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
