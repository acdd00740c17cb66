"""Trained-capability checks shared by the model, objective, and baselines:
each compares the pipeline after real (tiny) training runs against an
independently computed baseline."""

import numpy as np
import pytest

import feddva.autodiff as ad
from feddva.autodiff import Tensor, backward, sgd_step
from feddva.config import ExperimentConfig
from feddva.federation import run_experiment
from feddva.losses import bce_recon, cross_entropy
from feddva.metrics import accuracy_per_client
from feddva.model import ArchitectureConfig, DvaModel
from oracles import dataset_mean_bce


def test_decode_round_trip_beats_mean_image_baseline():
    cfg = ExperimentConfig(task="reconstruct", method="feddva", K=2, m=2,
                           rounds=40, epochs_per_phase=4, batch_size=32,
                           toy_classes=3, toy_per_class=32, toy_height=8,
                           toy_width=8, hidden_dims=(64,), d_z=4, d_c=4,
                           lr_eta=0.02, lr_lambda=0.02, xi_scale=0.05,
                           alpha=0.1, beta=0.1, seed=4, holdout_frac=0.0)
    state = run_experiment(cfg)
    model_bces, baselines = [], []
    for shard in state.shards:
        model = shard.model
        qz, qc = model.posteriors(Tensor(shard.flat_images()))
        recon = model.decode(qz.mu, qc.mu)
        model_bces.append(bce_recon(recon, Tensor(shard.flat_images())).item())
        baselines.append(dataset_mean_bce(shard.images))
    assert np.mean(model_bces) < np.mean(baselines)


def test_classifier_head_solves_separable_latents():
    # three classes at distinct latent centers with small jitter
    rng = np.random.default_rng(0)
    n_per, d_z, d_c = 30, 3, 2
    centers_z = np.array([[4.0, 0, 0], [-4.0, 0, 0], [0, 4.0, 0]])
    centers_c = np.array([[2.0, 0], [-2.0, 0], [0, 2.0]])
    z = np.concatenate([centers_z[k] + 0.2 * rng.normal(size=(n_per, d_z))
                        for k in range(3)])
    c = np.concatenate([centers_c[k] + 0.2 * rng.normal(size=(n_per, d_c))
                        for k in range(3)])
    labels = np.repeat(np.arange(3), n_per)

    arch = ArchitectureConfig(input_dim=4, hidden_dims=(), d_z=d_z, d_c=d_c,
                              n_classes=3, head_hidden=())
    model = DvaModel(arch, rng)
    head_params = model.head.params + model.head_out.params
    zt, ct = Tensor(z), Tensor(c)
    for _ in range(300):
        loss = cross_entropy(model.classify(zt, ct), labels)
        backward(loss)
        sgd_step(head_params, 0.5)
        ad.zero_grads(model.all_parameters())
    pred = np.argmax(model.classify(zt, ct).data, axis=1)
    assert np.mean(pred == labels) == 1.0


def test_finetune_beats_plain_fedavg_per_client():
    # paired comparison over 5 seeds: local fine-tuning should help (or tie)
    # on at least 70% of label-skewed clients
    wins = total = 0
    for seed in range(5):
        common = dict(task="classify", K=4, m=2, rounds=10, epochs_per_phase=3,
                      batch_size=32, partition="label-skew", concentration=0.3,
                      toy_classes=4, toy_per_class=80, toy_height=8,
                      toy_width=8, hidden_dims=(32,), lr_eta=0.005,
                      lr_lambda=0.005, d_z=2, d_c=2, seed=seed, ft_epochs=5)
        st_a = run_experiment(ExperimentConfig(method="fedavg", **common))
        accs_a, _, _ = accuracy_per_client(st_a.shards)
        st_f = run_experiment(ExperimentConfig(method="fedavg-ft", **common))
        accs_f, _, _ = accuracy_per_client(st_f.shards)
        wins += sum(int(f >= a) for a, f in zip(accs_a, accs_f))
        total += len(accs_a)
    assert wins / total >= 0.7, f"fine-tuning helped on only {wins}/{total}"
