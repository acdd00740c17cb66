import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import feddva.autodiff as ad
from feddva.autodiff import Tensor
from feddva.config import ExperimentConfig
from feddva.federation import (aggregate, blank_run, client_update,
                               init_run, iter_batches, run_experiment,
                               run_rounds, sample_clients, two_phase_update)
from feddva.model import MODEL_CLASS, DvaModel
from feddva.seeding import make_rng


def small_cfg(**over):
    base = dict(task="reconstruct", method="feddva", K=3, m=3, rounds=2,
                epochs_per_phase=1, batch_size=16, toy_per_class=24,
                toy_classes=3, toy_height=8, toy_width=8, hidden_dims=(16,),
                d_z=2, d_c=2, xi_scale=0.05, seed=7, holdout_frac=0.2)
    base.update(over)
    return ExperimentConfig(**base)


# -------------------------------------------------------------- sampling


def test_sample_all_clients():
    assert sample_clients(make_rng(0, "s", 1), 5, 5) == [0, 1, 2, 3, 4]


def test_sample_deterministic_sequence():
    a = [sample_clients(make_rng(9, "sample", r), 20, 5) for r in range(50)]
    b = [sample_clients(make_rng(9, "sample", r), 20, 5) for r in range(50)]
    assert a == b


def test_sample_out_of_range():
    with pytest.raises(ValueError, match="1 <= m"):
        sample_clients(make_rng(0), 5, 6)
    with pytest.raises(ValueError, match="1 <= m"):
        sample_clients(make_rng(0), 5, 0)


def test_sample_counts_binomial():
    # K=20, m=5 over 10^4 rounds: each client expected 2500 +- 3 sigma
    counts = np.zeros(20)
    for r in range(10**4):
        for k in sample_clients(make_rng(31, "sample", r), 20, 5):
            counts[k] += 1
    sigma = np.sqrt(10**4 * 0.25 * 0.75)
    assert np.all(np.abs(counts - 2500) < 3 * sigma)


# ------------------------------------------------------------- aggregate


def test_aggregate_weighted_mean():
    out = aggregate({1: np.array([0.0]), 2: np.array([4.0])},
                    {1: 0.25, 2: 0.75})
    assert np.allclose(out, [3.0])


def test_aggregate_identity_on_identical_updates():
    v = np.random.default_rng(0).normal(size=17)
    out = aggregate({0: v.copy(), 1: v.copy(), 2: v.copy()},
                    {0: 0.2, 1: 0.5, 2: 0.3})
    assert np.allclose(out, v, rtol=0, atol=1e-12)


def test_aggregate_renormalizes_sampled_subset():
    # weights from the full federation, only two clients sampled
    out = aggregate({0: np.array([1.0]), 1: np.array([3.0])},
                    {0: 0.1, 1: 0.3, 2: 0.6})
    assert np.allclose(out, [0.25 * 1.0 + 0.75 * 3.0])


def test_aggregate_errors():
    with pytest.raises(ValueError, match="empty"):
        aggregate({}, {})
    with pytest.raises(ValueError, match="lengths differ"):
        aggregate({0: np.zeros(2), 1: np.zeros(3)}, {0: 0.5, 1: 0.5})


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_aggregate_convexity(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    updates = {k: rng.normal(size=5) for k in range(n)}
    weights = {k: float(rng.uniform(0.05, 1.0)) for k in range(n)}
    out = aggregate(updates, weights)
    stack = np.stack(list(updates.values()))
    assert np.all(out >= stack.min(axis=0) - 1e-12)
    assert np.all(out <= stack.max(axis=0) + 1e-12)


def test_weight_renormalization_within_tolerance():
    rng = np.random.default_rng(5)
    weights = {k: float(rng.uniform(0.01, 1.0)) for k in range(7)}
    sampled = [1, 3, 4]
    total = sum(weights[k] for k in sampled)
    renorm = [weights[k] / total for k in sampled]
    assert abs(sum(renorm) - 1.0) < 1e-12


# ---------------------------------------------------------- batch stream


def test_iter_batches_drops_singleton_tail():
    batches = list(iter_batches(9, 4, np.random.default_rng(0)))
    sizes = [b.size for b in batches]
    assert sizes == [4, 4]  # trailing 1-sample batch dropped


def test_iter_batches_keeps_small_tail():
    sizes = [b.size for b in iter_batches(10, 4, np.random.default_rng(0))]
    assert sizes == [4, 4, 2]


# ------------------------------------------------------- two-phase logic


def test_two_phase_matches_hand_coordinate_descent():
    # loss(a, b) = (a * b)^2 on one "batch"; epochs=2 per phase, lr=0.1
    # phase 1 steps a with b frozen, phase 2 steps b with the new a
    a = Tensor(np.asarray(1.0), requires_grad=True)
    b = Tensor(np.asarray(2.0), requires_grad=True)

    def loss_fn(_):
        return ad.square(ad.mul(a, b)), {}

    def batch_stream(phase, epoch):
        yield 0

    two_phase_update(loss_fn, batch_stream, [a], [b], lr_local=0.1,
                     lr_shared=0.1, epochs_per_phase=2)

    # hand iteration: d/da (ab)^2 = 2ab^2
    a_val, b_val = 1.0, 2.0
    for _ in range(2):
        a_val -= 0.1 * 2 * a_val * b_val**2
    for _ in range(2):
        b_val -= 0.1 * 2 * b_val * a_val**2
    assert a.item() == pytest.approx(a_val, rel=1e-12)
    assert b.item() == pytest.approx(b_val, rel=1e-12)


def test_phase_order_is_load_bearing():
    def run(swapped):
        a = Tensor(np.asarray(1.0), requires_grad=True)
        b = Tensor(np.asarray(2.0), requires_grad=True)

        def loss_fn(_):
            return ad.square(ad.mul(a, b)), {}

        def stream(phase, epoch):
            yield 0

        groups = ([b], [a]) if swapped else ([a], [b])
        two_phase_update(loss_fn, stream, groups[0], groups[1], 0.1, 0.1, 1)
        return a.item(), b.item()

    assert run(False) != run(True)


def test_two_phase_freezes_the_group_it_does_not_step():
    local = [Tensor(np.asarray(1.0), requires_grad=True) for _ in range(2)]
    shared = [Tensor(np.asarray(2.0), requires_grad=True) for _ in range(3)]
    seen = []

    def loss_fn(phase):
        seen.append((phase, [p.requires_grad for p in local],
                     [p.requires_grad for p in shared]))
        return ad.square(ad.mul(ad.add(local[0], local[1]),
                                ad.add(ad.add(shared[0], shared[1]),
                                       shared[2]))), {}

    def stream(phase, epoch):
        yield phase

    records, _ = two_phase_update(loss_fn, stream, local, shared, 0.01, 0.01,
                                  2)
    assert seen == [("local", [True] * 2, [False] * 3)] * 2 + \
        [("shared", [False] * 2, [True] * 3)] * 2
    assert all(p.requires_grad for p in local + shared)
    # a record keeps the value of the total only
    assert len(records) == 2
    assert all(list(r) == ["total"] and type(r["total"]) is float
               for r in records)


def test_two_phase_restores_flags_when_loss_raises():
    local = [Tensor(np.asarray(1.0), requires_grad=True)]
    shared = [Tensor(np.asarray(2.0), requires_grad=True)]
    for failing_phase in ("local", "shared"):
        def loss_fn(phase):
            if phase == failing_phase:
                raise FloatingPointError("non-finite loss")
            return ad.square(ad.mul(local[0], shared[0])), {}

        def stream(phase, epoch):
            yield phase

        with pytest.raises(FloatingPointError):
            two_phase_update(loss_fn, stream, local, shared, 0.1, 0.1, 1)
        assert local[0].requires_grad and shared[0].requires_grad


def test_two_phase_stops_at_a_non_finite_loss_before_stepping():
    a = Tensor(np.asarray(1.0), requires_grad=True)
    b = Tensor(np.asarray(1.0), requires_grad=True)

    def loss_fn(batch):
        loss = ad.add(a, b)
        return (ad.shift(loss, np.nan) if batch == ("shared", 1, 2)
                else loss), {}

    def stream(phase, epoch):
        for i in (1, 2, 3):
            yield phase, epoch, i

    with pytest.raises(FloatingPointError, match=r"^non-finite loss nan in "
                       r"phase 2, epoch 2, batch 2$"):
        two_phase_update(loss_fn, stream, [a], [b], 0.5, 0.25, 2)
    # a took its 6 steps; b its 3 of epoch 1 and 1 of epoch 2, not the NaN
    assert a.item() == 1.0 - 6 * 0.5
    assert b.item() == 1.0 - 4 * 0.25
    assert a.requires_grad and b.requires_grad


def test_two_phase_skips_a_phase_with_an_empty_group():
    a = Tensor(np.asarray(1.0), requires_grad=True)
    phases = []

    def stream(phase, epoch):
        phases.append((phase, epoch))
        yield 0

    records, _ = two_phase_update(lambda _: (ad.square(a), {}), stream, [],
                                  [a], 0.1, 0.1, 3)
    assert phases == [("shared", 0), ("shared", 1), ("shared", 2)]
    assert len(records) == 3
    assert a.item() == pytest.approx(0.8 ** 3, rel=1e-12)


# ----------------------------------------------------------- client update


def test_fedavg_client_runs_one_loss_per_batch(monkeypatch):
    import feddva.federation as federation

    cfg = small_cfg(task="classify", method="fedavg", epochs_per_phase=3,
                    partition="label-skew", d_z=2, d_c=2)
    state = init_run(cfg)
    shard = state.shards[0]
    calls = []
    loss = federation.loss_fedavg_classifier

    def counted(*args, **kwargs):
        calls.append(1)
        return loss(*args, **kwargs)

    monkeypatch.setattr(federation, "loss_fedavg_classifier", counted)
    _, records, _ = client_update(shard, state.theta, cfg, 1)
    batches = len(list(iter_batches(shard.n, cfg.batch_size,
                                    np.random.default_rng(0))))
    assert len(calls) == len(records) == cfg.epochs_per_phase * batches


@pytest.mark.parametrize("over", [
    dict(),
    dict(task="classify", partition="label-skew"),
    dict(method="vanilla-vae"),
    dict(task="classify", method="fedavg", partition="label-skew"),
    dict(task="classify", method="fedavg-ft", partition="label-skew")])
def test_client_update_leaves_no_gradient(over):
    cfg = small_cfg(**over)
    state = init_run(cfg)
    client_update(state.shards[0], state.theta, cfg, 1)
    assert all(p.grad is None
               for p in state.shards[0].model.all_parameters())


def test_classify_client_update_uses_elbo_sample_count():
    thetas = []
    for n_samples in (1, 2):
        cfg = small_cfg(task="classify", partition="label-skew",
                        n_elbo_samples=n_samples)
        state = init_run(cfg)
        thetas.append(client_update(state.shards[0], state.theta, cfg, 1)[0])
    assert thetas[0].tobytes() != thetas[1].tobytes()


def test_client_update_records_hold_no_graph():
    cfg = small_cfg()
    state = init_run(cfg)
    _, records, _ = client_update(state.shards[0], state.theta, cfg, 1)
    assert records
    for r in records:
        assert type(r) is dict and r
        assert all(type(v) is float and np.isfinite(v) for v in r.values())
    cfg_fedavg = small_cfg(task="classify", method="fedavg")
    state = init_run(cfg_fedavg)
    _, records, _ = client_update(state.shards[0], state.theta, cfg_fedavg, 1)
    assert records and all(type(v) is float
                           for r in records for v in r.values())


def test_client_update_zero_lrs_are_noop():
    cfg = small_cfg(lr_eta=0.0, lr_lambda=0.0)
    state = init_run(cfg)
    shard = state.shards[0]
    phi_before = shard.model.flatten_local().copy()
    theta_out, _, _ = client_update(shard, state.theta, cfg, round_idx=1)
    assert np.array_equal(theta_out, state.theta)
    assert np.array_equal(shard.model.flatten_local(), phi_before)


def test_client_update_phase_freezing():
    cfg = small_cfg()
    state = init_run(cfg)
    shard = state.shards[1]
    model = shard.model
    theta_hash_in = state.theta.tobytes()
    phi_in = model.flatten_local().tobytes()

    # phase 1 only: force lr_lambda = 0 so theta cannot move
    cfg1 = small_cfg(lr_lambda=0.0)
    theta_out, _, _ = client_update(shard, state.theta, cfg1, 1)
    assert theta_out.tobytes() == theta_hash_in
    assert model.flatten_local().tobytes() != phi_in

    # phase 2 only: lr_eta = 0 freezes phi
    phi_mid = model.flatten_local().tobytes()
    cfg2 = small_cfg(lr_eta=0.0)
    theta_out2, _, _ = client_update(shard, state.theta, cfg2, 2)
    assert model.flatten_local().tobytes() == phi_mid
    assert theta_out2.tobytes() != theta_hash_in


@pytest.mark.parametrize("task", ["reconstruct", "classify"])
def test_client_update_encodes_z_once_per_phase_2_batch(monkeypatch, task):
    # phase 1 encodes the shard once under the frozen encoders; each phase-2
    # batch encodes itself once, and the classifier head reuses that q(z|x)
    cfg = small_cfg(task=task, epochs_per_phase=3, partition="label-skew")
    state = init_run(cfg)
    shard = state.shards[0]
    calls = []
    encode_z = DvaModel.encode_z

    def counted(model, x):
        calls.append(x.shape[0])
        return encode_z(model, x)

    monkeypatch.setattr(DvaModel, "encode_z", counted)
    _, records, _ = client_update(shard, state.theta, cfg, 1)
    batches = len(list(iter_batches(shard.n, cfg.batch_size,
                                    np.random.default_rng(0))))
    assert len(records) == cfg.epochs_per_phase * batches
    assert len(calls) == cfg.epochs_per_phase * batches + 1
    assert calls[0] == shard.n


@pytest.mark.parametrize("n_samples", [1, 2])
def test_classify_phase_1_encodes_the_head_means_once(monkeypatch, n_samples):
    # phase 1 encodes each ELBO draw's c and, once per update, the head's
    # q(c|x, mu_z) of the whole shard; phase 2 encodes the head per batch
    cfg = small_cfg(task="classify", epochs_per_phase=2,
                    partition="label-skew", n_elbo_samples=n_samples)
    state = init_run(cfg)
    shard = state.shards[0]
    calls = {False: 0, True: 0}  # by whether the shared group steps
    encode_c = DvaModel.encode_c

    def counted(model, x, z, product=None):
        calls[model.h_in.w_x.requires_grad] += 1
        return encode_c(model, x, z, product)

    monkeypatch.setattr(DvaModel, "encode_c", counted)
    client_update(shard, state.theta, cfg, 1)
    steps = cfg.epochs_per_phase * len(list(iter_batches(
        shard.n, cfg.batch_size, np.random.default_rng(0))))
    assert calls == {False: steps * n_samples + 1,
                     True: steps * (n_samples + 1)}


def test_phase_leaving_a_non_finite_parameter_raises():
    a = Tensor(np.ones(2), requires_grad=True)
    b = Tensor(np.ones(2), requires_grad=True)

    def stream(phase, epoch):
        yield None

    # a finite loss whose step sends a to -inf
    with pytest.raises(FloatingPointError,
                       match="non-finite parameter after phase 1"):
        two_phase_update(lambda _: (ad.sum_all(ad.mul(a, b)), {}), stream,
                         [a], [b], float("inf"), 0.1, 1)


def test_history_times_each_phase():
    for over, phase1_ran in ((dict(), True),
                             (dict(task="classify", method="fedavg",
                                   partition="label-skew"), False)):
        state = run_experiment(small_cfg(rounds=1, **over))
        for stats in state.history[0].clients.values():
            assert stats["phase2_s"] > 0.0
            assert (stats["phase1_s"] > 0.0) == phase1_ran
            assert stats["phase1_s"] + stats["phase2_s"] <= stats["update_s"]


def test_decoder_persists_across_rounds_and_aggregation():
    cfg = small_cfg(rounds=2)
    state = init_run(cfg)
    phi_hashes = {s.id: s.model.flatten_local().tobytes() for s in state.shards}
    run_rounds(cfg, state)
    # decoders changed during rounds (phase 1 trains them)...
    changed = [s.model.flatten_local().tobytes() != phi_hashes[s.id]
               for s in state.shards]
    assert all(changed)
    # ...but aggregation must not touch them: re-aggregate and compare
    before = {s.id: s.model.flatten_local().tobytes() for s in state.shards}
    state.theta = aggregate({s.id: s.model.flatten_shared()
                             for s in state.shards},
                            {s.id: s.weight for s in state.shards})
    after = {s.id: s.model.flatten_local().tobytes() for s in state.shards}
    assert before == after


# ----------------------------------------------------------------- runs


def test_run_zero_rounds_returns_initial_state():
    cfg = small_cfg(rounds=0)
    state = run_experiment(cfg)
    assert state.round == 0
    assert state.history == []


def test_full_participation_bitwise_determinism():
    cfg = small_cfg(rounds=3)
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert a.theta.tobytes() == b.theta.tobytes()
    for sa, sb in zip(a.shards, b.shards):
        assert sa.model.flatten_local().tobytes() == \
            sb.model.flatten_local().tobytes()


def test_single_client_equals_centralized_two_phase():
    # K=1, m=1: aggregation is the identity on the client's phase-2 output
    cfg = small_cfg(K=1, m=1, rounds=1)
    state = init_run(cfg)
    shard_copy = init_run(cfg).shards[0]
    theta_in = state.theta.copy()
    run_rounds(cfg, state)
    theta_k, _, _ = client_update(shard_copy, theta_in, cfg, round_idx=1)
    assert state.theta.tobytes() == theta_k.tobytes()


def test_training_reduces_loss():
    cfg = small_cfg(rounds=25, epochs_per_phase=2, lr_eta=0.02, lr_lambda=0.02,
                    toy_per_class=32)
    state = run_experiment(cfg)
    first = np.mean([c["total"] for c in state.history[0].clients.values()])
    last = np.mean([c["total"] for c in state.history[-1].clients.values()])
    assert last < first


def test_history_records_monitor_fields():
    cfg = small_cfg(rounds=1)
    state = run_experiment(cfg)
    rec = state.history[0]
    assert sorted(rec.sampled) == [0, 1, 2]
    for stats in rec.clients.values():
        assert "monitor_min" in stats and "monitor_frac_ge_xi" in stats
        assert stats["n_batches"] > 0
    d = rec.to_json_dict()
    assert set(d) == {"round", "sampled", "clients", "wall_time"}


ROW_COMMON = {"n_batches", "update_s", "phase1_s", "phase2_s"}
FEDDVA_ROW = {"total", "recon", "r_z", "r_c", "kl_c_to_qc", "kl_c_to_mixture",
              "constraint_slack", "cross_entropy", "monitor_min",
              "monitor_mean", "monitor_frac_ge_xi"}


@pytest.mark.parametrize("over, measured", [
    (dict(task="classify", method="fedavg", partition="label-skew"),
     {"total", "cross_entropy"}),
    (dict(task="classify", method="fedavg-ft", partition="label-skew"),
     {"total", "cross_entropy"}),
    (dict(method="vanilla-vae"), {"total", "recon", "r_z"}),
    (dict(), FEDDVA_ROW),
    (dict(task="classify", partition="label-skew"), FEDDVA_ROW)])
def test_history_row_holds_only_what_the_method_measured(over, measured):
    cfg = small_cfg(rounds=2, **over)
    state = run_experiment(cfg)
    for rec in state.history:
        evaluated = cfg.task == "classify" and rec.round == 2
        for stats in rec.clients.values():
            assert set(stats) == measured | ROW_COMMON | (
                {"accuracy"} if evaluated else set())
            assert all(np.isfinite(v) for v in stats.values())


def test_fedavg_baseline_and_finetune():
    cfg = small_cfg(task="classify", method="fedavg", rounds=2,
                    partition="label-skew", d_z=2, d_c=2)
    state = run_experiment(cfg)
    assert state.round == 2
    # ft_epochs=0 leaves the aggregate untouched on every client
    ft = dict(task="classify", method="fedavg-ft", rounds=2,
              partition="label-skew", d_z=2, d_c=2)
    ft0 = run_experiment(small_cfg(**ft, ft_epochs=0))
    base_flat = ft0.theta.tobytes()
    for s in ft0.shards:
        assert s.model.flatten_shared().tobytes() == base_flat
    # nonzero fine-tuning moves the local copies
    ft2 = run_experiment(small_cfg(**ft, ft_epochs=2))
    moved = [s.model.flatten_shared().tobytes() != ft2.theta.tobytes()
             for s in ft2.shards]
    assert any(moved)


def test_fedavg_single_client_is_centralized():
    cfg = small_cfg(task="classify", method="fedavg", K=1, m=1, rounds=1,
                    partition="label-skew", d_z=2, d_c=2)
    state = run_experiment(cfg)
    fresh = init_run(cfg)
    theta_k, _, _ = client_update(fresh.shards[0], fresh.theta, cfg, 1)
    assert state.theta.tobytes() == theta_k.tobytes()


@pytest.mark.parametrize("over", [{}, dict(task="classify",
                                          partition="label-skew")])
def test_blank_run_is_init_run_with_zero_weights(over):
    cfg = small_cfg(**over)
    drawn, blank = init_run(cfg), blank_run(cfg)
    assert (blank.arch, blank.round, blank.plan) == \
        (drawn.arch, drawn.round, drawn.plan)
    assert blank.theta.shape == drawn.theta.shape and not blank.theta.any()
    for a, b in zip(drawn.shards, blank.shards, strict=True):
        for attr in ("images", "labels", "holdout_images", "holdout_labels"):
            assert np.array_equal(getattr(a, attr), getattr(b, attr))
        assert (a.id, a.weight) == (b.id, b.weight)
        assert not any(p.data.any() for p in b.model.all_parameters())
        assert [p.shape for p in b.model.all_parameters()] == \
            [p.shape for p in a.model.all_parameters()]


def test_run_experiment_dispatch():
    for cfg in (small_cfg(rounds=0),
                small_cfg(task="classify", method="fedavg", rounds=0,
                          partition="label-skew", d_z=2, d_c=2)):
        for shard in run_experiment(cfg).shards:
            assert type(shard.model) is MODEL_CLASS[cfg.method]


def test_vanilla_vae_method_runs():
    cfg = small_cfg(method="vanilla-vae", K=1, m=1, rounds=2)
    state = run_experiment(cfg)
    assert state.round == 2
    for rec in state.history:
        for stats in rec.clients.values():
            assert stats["recon"] > 0


# ---------------------------------------------------- classify settings


def tiny_classify(**over) -> ExperimentConfig:
    """A classify run of two clients for two rounds, a 6-wide head and
    gamma 10."""
    return small_cfg(**(dict(task="classify", K=2, m=2, head_hidden=(6,),
                             gamma=10.0) | over))


@pytest.mark.parametrize("latents, moved", [
    ("both", (True, True)), ("z", (True, False)), ("c", (False, True))])
def test_classifier_latents_train_only_the_head_rows_they_feed(latents,
                                                               moved):
    # the head's first layer reads z in its first d_z rows and c in the
    # rest; a latent the mask zeros gives its rows no gradient
    cfg = tiny_classify(classifier_latents=latents)
    state = init_run(cfg)
    before = [s.model.head.layers[0].w.data.copy() for s in state.shards]
    run_rounds(cfg, state)
    for s, w0 in zip(state.shards, before, strict=True):
        w = s.model.head.layers[0].w.data
        assert (not np.array_equal(w[:cfg.d_z], w0[:cfg.d_z]),
                not np.array_equal(w[cfg.d_z:], w0[cfg.d_z:])) == moved


def test_frozen_classifier_keeps_theta_free_of_gamma():
    # a frozen head's cross-entropy stops at the head: theta follows the
    # ELBO alone, whatever its weight
    def theta(frozen, gamma):
        cfg = tiny_classify(classifier_frozen=frozen, gamma=gamma)
        return run_rounds(cfg, init_run(cfg)).theta.tobytes()

    assert theta(True, 0.0) == theta(True, 1.0) == theta(True, 10.0)
    assert theta(False, 10.0) != theta(True, 10.0)
    assert theta(False, 1.0) != theta(False, 10.0)
