#!/usr/bin/env python3
"""Personalized classification under label skew: dual-VAE vs baselines.

Runs feddva, fedavg, and fedavg-ft on the same Dirichlet-skewed toy
federation and prints per-client held-out accuracy (mean and across-client
stddev) for each method. Artifacts land under runs/classify_s<seed>/.

Usage: python3 scripts/run_classification.py [seed]
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from feddva.config import ExperimentConfig
from feddva.federation import run_experiment
from feddva.metrics import accuracy_per_client, export_accuracy_csv


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
        state = run_experiment(cfg)
        models = {s.id: s.model for s in state.shards}
        accs, mean, std = accuracy_per_client(models, state.shards)
        out = Path(cfg.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        export_accuracy_csv(accs, mean, std, out / "accuracy.csv")
        print(f"{method:9s} held-out accuracy: mean={mean:.3f} "
              f"across-client stddev={std:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
