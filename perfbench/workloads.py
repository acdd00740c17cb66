"""The three benchmark workloads, as ExperimentConfig keyword sets.

Why each workload exists, and which layer metric should move which
end-to-end metric on it, is written down in RATIONALE.md next to this file.
"""

from __future__ import annotations

# The paper's reconstruction run: the same keys as
# scripts/run_disentanglement.py and acceptance criterion 5. Small tensors
# over 2,400 optimizer steps make it dispatch-bound; S=2 ELBO samples give
# two decodes per step, so per-op and loss-path changes show here first.
DISENTANGLE = dict(
    task="reconstruct", method="feddva",
    K=4, m=4, rounds=30, epochs_per_phase=5, batch_size=64,
    lr_eta=0.002, lr_lambda=0.01, d_z=4, d_c=4,
    xi_per_dim=8.0, xi_scale=0.04, beta=1.5, n_elbo_samples=2,
    hidden_dims=(64,), toy_classes=4, toy_per_class=160,
    toy_height=16, toy_width=16, partition="marked",
)

# The paper's personalised classification run with method feddva: the same
# keys as scripts/run_classification.py and acceptance criterion 7.
# Dirichlet label skew gives shards of very different sizes and half the
# clients sit out each round: the straggler shape. Only workload that runs
# model.classify and losses.cross_entropy.
CLASSIFY = dict(
    task="classify", method="feddva",
    K=8, m=4, rounds=40, epochs_per_phase=5, batch_size=64,
    partition="label-skew", concentration=0.3,
    toy_classes=4, toy_per_class=240, toy_height=16, toy_width=16,
    hidden_dims=(64,), lr_eta=0.01, lr_lambda=0.002, gamma=10.0,
    xi_scale=0.04, beta=1.5, eval_every=10,
)

# ExperimentConfig defaults (batch 256, hidden (256, 256), S=1, K=m=4): the
# model a user gets by setting nothing. Only the data size (512 training
# rows per client, two full batches) and the round count are set. numpy
# kernels and the n^2 pairwise-KL matrix dominate here, not dispatch.
FULLSCALE = dict(toy_per_class=640, rounds=4)

WORKLOADS = {
    "disentangle": DISENTANGLE,
    "classify": CLASSIFY,
    "fullscale": FULLSCALE,
}

# Workloads whose run must keep every per-batch constraint monitor >= 0
# (the paper's constraint, acceptance criterion 5).
MONITOR_CHECKED = {"disentangle"}


def make_config(name: str, seed: int, output_dir: str):
    from feddva.config import ExperimentConfig

    return ExperimentConfig(**WORKLOADS[name], seed=seed, output_dir=output_dir)
