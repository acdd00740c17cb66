#!/usr/bin/env python3
"""Personalized classification under label skew: dual-VAE vs baselines.

Trains and evaluates feddva, fedavg, and fedavg-ft on the same
Dirichlet-skewed toy federation and prints per-client held-out accuracy
(mean and across-client stddev) for each method. Each method's run lands
under runs/classify_s<seed>/<method>/, a run directory that
`feddva eval --output_dir` re-scores.

Usage: python3 scripts/run_classification.py [seed]
"""

import csv
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from feddva.cli import cmd_eval, cmd_train
from feddva.config import ExperimentConfig


def main() -> int:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    for method in ("feddva", "fedavg", "fedavg-ft"):
        cfg = ExperimentConfig(
            task="classify", method=method,
            K=8, m=4, rounds=40, epochs_per_phase=5, batch_size=64,
            partition="label-skew", concentration=0.3,
            toy_classes=4, toy_per_class=240, toy_height=16, toy_width=16,
            hidden_dims=(64,), lr_eta=0.01, lr_lambda=0.002, gamma=10.0,
            xi_scale=0.04, beta=1.5, eval_every=10,
            seed=seed, output_dir=f"runs/classify_s{seed}/{method}",
        )
        rc = cmd_train(cfg) or cmd_eval(cfg)
        if rc != 0:
            return rc
        with open(Path(cfg.output_dir) / "eval" / "accuracy.csv") as f:
            summary = {row[0]: float(row[1]) for row in csv.reader(f)
                       if row[0] in ("mean", "stddev")}
        print(f"{method:9s} held-out accuracy: mean={summary['mean']:.3f} "
              f"across-client stddev={summary['stddev']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
