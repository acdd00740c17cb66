"""Acceptance gate: one test per criterion, each printing a pass/fail line.

The heavy desk-scale runs are shared through module fixtures. Every
threshold is pinned here; nothing is deferred to later calibration.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

import feddva.autodiff as ad
from feddva.autodiff import Tensor, backward
from feddva.checkpoint import load_checkpoint, save_checkpoint
from feddva.config import ExperimentConfig
from feddva.data import make_toy_digits, parse_idx, write_idx
from feddva.federation import (aggregate, client_update, init_run,
                               run_experiment, run_rounds, sample_clients,
                               two_phase_update)
from feddva.gaussians import DiagGaussian, kl_to_standard
from feddva.losses import hinge_max, loss_feddva
from feddva.metrics import (accuracy_per_client, clustering_report,
                            encode_shards, export_grid_image, parse_pgm)
from feddva.model import ArchitectureConfig, DvaModel
from feddva.selftest import OP_SAMPLE_SHAPES
from oracles import (drawn_model, grad_check, kl_to_batch_mixture, leaf,
                     mc_kl_between_gaussians, mc_kl_to_mixture)

ROOT = Path(__file__).resolve().parent.parent
ARTIFACTS = ROOT / "runs" / "acceptance"


def report(n, ok, detail):
    print(f"\n[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n}: {detail}"


# ---------------------------------------------------------------- fixtures

def workload_cfg(name, **overrides):
    """The config in configs/<name>.txt, with `overrides` set."""
    text = (ROOT / "configs" / f"{name}.txt").read_text(encoding="utf-8")
    return ExperimentConfig.from_text(text, overrides)


DISENTANGLE_SEEDS = (1, 2, 3)


def disentangle_cfg(seed):
    return workload_cfg("disentangle", seed=str(seed))


@pytest.fixture(scope="module")
def disentangle_runs():
    start = time.monotonic()
    runs = {}
    for seed in DISENTANGLE_SEEDS:
        cfg = disentangle_cfg(seed)
        state = run_experiment(cfg)
        rep = clustering_report(encode_shards(state.shards),
                                xi=cfg.xi_value(), seed=cfg.seed)
        runs[seed] = (cfg, state, rep)
    return runs, time.monotonic() - start


CLASSIFY_SEEDS = (1, 2, 3)


def classify_cfg(seed, method):
    return workload_cfg("classify", seed=str(seed), method=method,
                        output_dir=str(ARTIFACTS / f"classify_{method}_s{seed}"))


@pytest.fixture(scope="module")
def classification_runs():
    start = time.monotonic()
    ARTIFACTS.mkdir(parents=True, exist_ok=True)
    results = {}
    for seed in CLASSIFY_SEEDS:
        per_method = {}
        for method in ("feddva", "fedavg"):
            cfg = classify_cfg(seed, method)
            out = Path(cfg.output_dir)
            out.mkdir(parents=True, exist_ok=True)
            history = []
            state = run_experiment(
                cfg, on_round=lambda st, rec: history.append(rec.to_json_dict()))
            accs, mean, std = accuracy_per_client(state.shards)
            with open(out / "history.jsonl", "w") as f:
                for row in history:
                    f.write(json.dumps(row, sort_keys=True) + "\n")
            with open(out / "accuracy.json", "w") as f:
                json.dump({"per_client": accs, "mean": mean, "std": std},
                          f, indent=2)
            per_method[method] = (accs, mean, std)
        results[seed] = per_method
    return results, time.monotonic() - start


# ------------------------------------------------------------ criterion 1


def test_criterion_1_gradient_correctness():
    start = time.monotonic()
    count = 0
    for kind_idx, kind in enumerate(ad.OP_TABLE):
        shapes = OP_SAMPLE_SHAPES[kind]
        for i in range(6):
            rng = np.random.default_rng(1000 * i + kind_idx)
            if kind == "log":
                args = [leaf(rng, shapes[0], lo=0.5, hi=2.0)]
            elif kind in ("relu", "square"):
                x = leaf(rng, shapes[0])
                x.data += np.sign(x.data) * 0.15
                args = [x]
            else:
                args = [leaf(rng, s) for s in shapes]
            fn = lambda: ad.sum_all(ad.square(ad.OP_TABLE[kind](*args)))
            err, ok = grad_check(fn, args, h=1e-4, tol=1e-4)
            assert ok, f"{kind} instance {i}: rel err {err}"
            count += 1

    arch = ArchitectureConfig(input_dim=4, hidden_dims=(4,), d_z=2, d_c=2)
    for i in range(10):
        model = drawn_model(DvaModel, arch, np.random.default_rng(i))
        rng = np.random.default_rng(500 + i)
        for layer in (model.z_mu, model.z_lv, model.c_mu, model.c_lv):
            layer.w.data = rng.uniform(-0.4, 0.4, layer.w.data.shape)
        x = Tensor(rng.uniform(0, 1, (3, 4)))
        fn = lambda: loss_feddva(x, model.encode_z(x), model, xi=0.6,
                                 alpha=1.0, beta=0.75,
                                 rng=np.random.default_rng(77 + i))[0]
        err, ok = grad_check(fn, model.all_parameters(), h=1e-4, tol=1e-4)
        assert ok, f"loss instance {i}: rel err {err}"
        count += 1
    elapsed = time.monotonic() - start
    # one set of 6 instances per op kind, then 10 full objectives
    report(1, count == 6 * len(ad.OP_TABLE) + 10 and elapsed < 30,
           f"{count} finite-difference instances ({len(ad.OP_TABLE)} op kinds "
           f"+ full objective), rel err < 1e-4, in {elapsed:.1f}s (< 30s)")


# ------------------------------------------------------------ criterion 2


def test_criterion_2_kl_oracles():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    for i in range(50):
        d = int(rng.integers(1, 4))
        mu_i, mu_j = rng.uniform(-2, 2, d), rng.uniform(-2, 2, d)
        lv_i, lv_j = rng.uniform(-1.0, 1.0, d), rng.uniform(-1.0, 1.0, d)
        q_i = DiagGaussian(Tensor(mu_i[None]), Tensor(lv_i[None]))
        q_j = DiagGaussian(Tensor(mu_j[None]), Tensor(lv_j[None]))
        mc, se = mc_kl_between_gaussians(mu_i, np.exp(lv_i / 2), mu_j,
                                         np.exp(lv_j / 2), 10**6, rng)
        assert abs(kl_to_batch_mixture(q_i, q_j).item() - mc) < 3 * se, \
            f"draw {i}"
        mc0, se0 = mc_kl_between_gaussians(mu_i, np.exp(lv_i / 2), np.zeros(d),
                                           np.ones(d), 10**6, rng)
        assert abs(kl_to_standard(q_i).item() - mc0) < 3 * se0, f"draw {i}"

    for i in range(50):
        n, d = int(rng.integers(2, 6)), int(rng.integers(1, 4))
        mus = rng.uniform(-2, 2, (n, d))
        lvs = rng.uniform(-1.0, 1.0, (n, d))
        batch = DiagGaussian(Tensor(mus), Tensor(lvs))
        idx = int(rng.integers(0, n))
        row = DiagGaussian(Tensor(mus[idx:idx + 1]), Tensor(lvs[idx:idx + 1]))
        bound = kl_to_batch_mixture(row, batch).item()
        mc, se = mc_kl_to_mixture(mus[idx], np.exp(lvs[idx] / 2), mus,
                                  np.exp(lvs / 2), 10**5, rng)
        assert bound >= mc - 3 * se, f"batch {i}: bound {bound} < mc {mc}"
    elapsed = time.monotonic() - start
    report(2, elapsed < 120,
           f"closed forms within 3 SE of 1e6-sample MC on 50 draws; Jensen "
           f"bound dominates mixture MC on 50 batches; {elapsed:.1f}s (< 2min)")


# ------------------------------------------------------------ criterion 3


def test_criterion_3_hinge_regularizer():
    rng = np.random.default_rng(3)
    for i in range(1000):
        xi = float(rng.uniform(0, 6))
        mix = float(rng.uniform(0, 6))
        qc = float(rng.uniform(0, 12))
        got = hinge_max(Tensor(np.asarray(xi + mix)), Tensor(np.asarray(qc)))
        assert got.item() == max(xi + mix, qc), f"triple {i}"
    for i in range(200):
        mix, qc = float(rng.uniform(0, 6)), float(rng.uniform(0, 12))
        xis = np.sort(rng.uniform(0, 8, size=5))
        values = [max(x + mix, qc) for x in xis]
        assert all(b >= a for a, b in zip(values, values[1:]))
    report(3, True, "exact branch selection on 1000 triples; r_c monotone "
                    "non-decreasing in xi on 200 sweeps")


# ------------------------------------------------------------ criterion 4


def test_criterion_4_federation_algebra():
    rng = np.random.default_rng(4)
    # convexity + renormalization
    for _ in range(50):
        n = int(rng.integers(2, 6))
        updates = {k: rng.normal(size=7) for k in range(n)}
        weights = {k: float(rng.uniform(0.05, 1.0)) for k in range(n + 2)}
        out = aggregate(updates, weights)
        stack = np.stack(list(updates.values()))
        assert np.all(out >= stack.min(axis=0) - 1e-12)
        assert np.all(out <= stack.max(axis=0) + 1e-12)
        total = sum(weights[k] for k in updates)
        assert abs(sum(weights[k] / total for k in updates) - 1.0) < 1e-12

    # decoder locality through a real round + aggregation
    cfg = ExperimentConfig(task="reconstruct", method="feddva", K=3, m=3,
                           rounds=1, epochs_per_phase=1, batch_size=16,
                           toy_per_class=24, toy_classes=3, toy_height=8,
                           toy_width=8, hidden_dims=(16,), d_z=2, d_c=2,
                           xi_scale=0.05, seed=5)
    state = init_run(cfg)
    updates, hashes = {}, {}
    for s in state.shards:
        theta_k, _, _ = client_update(s, state.theta, cfg, 1)
        updates[s.id] = theta_k
        hashes[s.id] = s.model.flatten_local().tobytes()
    aggregate(updates, {s.id: s.weight for s in state.shards})
    assert all(state.shards[k].model.flatten_local().tobytes() == hashes[k]
               for k in hashes)

    # K = m determinism, bitwise
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert a.theta.tobytes() == b.theta.tobytes()

    # phase order sensitivity
    def run_order(swapped):
        p = Tensor(np.asarray(1.0), requires_grad=True)
        q = Tensor(np.asarray(2.0), requires_grad=True)
        groups = ([q], [p]) if swapped else ([p], [q])
        two_phase_update(lambda _: (ad.square(ad.mul(p, q)), {}),
                         lambda phase, epoch: iter([0]), groups[0], groups[1],
                         0.1, 0.1, 1)
        return p.item(), q.item()

    assert run_order(False) != run_order(True)
    report(4, True, "aggregation convexity, weights renormalize to 1 within "
                    "1e-12, decoder hashes untouched by aggregation, K=m "
                    "bitwise determinism, phase order is load-bearing")


# ------------------------------------------------------------ criterion 5


def test_criterion_5_constraint_monitor(disentangle_runs):
    runs, elapsed = disentangle_runs
    worst = min(c["monitor_min"]
                for _, state, _ in runs.values()
                for rec in state.history
                for c in rec.clients.values())
    cfg, state, _ = runs[DISENTANGLE_SEEDS[0]]
    final = state.history[-1]
    n_batches = sum(c["n_batches"] for c in final.clients.values())
    n_ge = sum(c["monitor_frac_ge_xi"] * c["n_batches"]
               for c in final.clients.values())
    frac = n_ge / n_batches
    ok = worst >= 0.0 and frac >= 0.8 and elapsed < 900
    report(5, ok,
           f"monitor >= 0 on 100% of logged batches over {len(runs)} seeds "
           f"(worst {worst:+.5f}); final-round monitor >= xi={cfg.xi_value():.2f} "
           f"on {frac:.0%} of batches (>= 80%); training took {elapsed:.0f}s "
           f"(< 15 min)")


# ------------------------------------------------------------ criterion 6


def test_criterion_6_disentanglement_direction(disentangle_runs):
    runs, _ = disentangle_runs
    details = []
    ok = True
    for seed, (_, _, rep) in runs.items():
        ratio = rep.separation_ratio_c / max(rep.separation_ratio_z, 1e-12)
        details.append(f"seed {seed}: c={rep.separation_ratio_c:.2f} "
                       f"z={rep.separation_ratio_z:.2f} ratio={ratio:.2f}")
        ok = ok and rep.separation_ratio_c > rep.separation_ratio_z \
            and ratio > 1.5
    report(6, ok, "personalized latent clusters by client while the shared "
                  "one does not (ratio > 1.5 on all 3 seeds): " + "; ".join(details))


# ------------------------------------------------------------ criterion 7


def test_criterion_7_classification_direction(classification_runs):
    results, elapsed = classification_runs
    wins, details = 0, []
    for seed, per_method in results.items():
        _, mean_f, std_f = per_method["feddva"]
        _, mean_a, std_a = per_method["fedavg"]
        win = mean_f >= mean_a and std_f <= std_a
        wins += int(win)
        details.append(f"seed {seed}: feddva {mean_f:.3f}±{std_f:.3f} vs "
                       f"fedavg {mean_a:.3f}±{std_a:.3f} ({'win' if win else 'loss'})")
    # diagnostic completeness: per-round loss components and accuracy curves
    diagnostics_ok = True
    for seed in results:
        for method in ("feddva", "fedavg"):
            out = Path(classify_cfg(seed, method).output_dir)
            rows = [json.loads(l) for l in
                    (out / "history.jsonl").read_text().splitlines()]
            diagnostics_ok &= len(rows) == 40
            client_keys = set().union(*(set(c) for row in rows
                                        for c in row["clients"].values()))
            needed = {"cross_entropy"} if method == "fedavg" else \
                {"total", "recon", "r_z", "r_c", "kl_c_to_qc",
                 "kl_c_to_mixture", "constraint_slack", "cross_entropy",
                 "accuracy"}
            diagnostics_ok &= needed <= client_keys
            diagnostics_ok &= (out / "accuracy.json").exists()
    ok = wins >= 2 and diagnostics_ok and elapsed < 1800
    report(7, ok, f"{wins}/3 seeds with mean accuracy >= baseline and "
                  f"across-client stddev <= baseline; per-round loss "
                  f"breakdowns and accuracy curves persisted under "
                  f"{ARTIFACTS.name}/ ({elapsed:.0f}s < 30 min). " + "; ".join(details))


# ------------------------------------------------------------ criterion 8


def test_criterion_8_vanilla_vae_sanity():
    cfg = ExperimentConfig(task="reconstruct", method="vanilla-vae", K=1, m=1,
                           rounds=30, epochs_per_phase=5, batch_size=64,
                           toy_classes=4, toy_per_class=64, toy_height=16,
                           toy_width=16, hidden_dims=(64,), d_z=4, d_c=4,
                           lr_eta=0.005, lr_lambda=0.005, seed=11,
                           partition="marked")
    state = run_experiment(cfg)
    t1 = np.mean([c["total"] for c in state.history[0].clients.values()])
    t30 = np.mean([c["total"] for c in state.history[-1].clients.values()])
    k1 = np.mean([c["r_z"] for c in state.history[0].clients.values()])
    k30 = np.mean([c["r_z"] for c in state.history[-1].clients.values()])
    drop = 1.0 - t30 / t1
    ok = drop >= 0.30 and k30 >= 0.5 and abs(k30 - k1) >= 0.5
    report(8, ok, f"loss fell {drop:.0%} from round 1 to 30 (>= 30%); KL term "
                  f"{k1:.2f} -> {k30:.2f}: >= 0.5 away from zero and moved "
                  f">= 0.5 from its initial value (no collapse)")


# ------------------------------------------------------------ criterion 9


def test_criterion_9_format_round_trips(tmp_path):
    # IDX bitwise
    rng = np.random.default_rng(9)
    images = rng.integers(0, 256, size=(2, 6, 5)).astype(np.uint8)
    write_idx(tmp_path / "a.idx", images)
    write_idx(tmp_path / "b.idx", parse_idx(tmp_path / "a.idx"))
    idx_ok = (tmp_path / "a.idx").read_bytes() == (tmp_path / "b.idx").read_bytes()

    # checkpoint bitwise
    arch = ArchitectureConfig(input_dim=9, hidden_dims=(5,), d_z=2, d_c=2)
    model = drawn_model(DvaModel, arch, rng)
    flat = model.flatten_shared()
    save_checkpoint(tmp_path / "m.ckpt", "shared", arch, flat)
    kind, arch2, loaded = load_checkpoint(tmp_path / "m.ckpt")
    ckpt_ok = kind == "shared" and arch2 == arch \
        and loaded.tobytes() == flat.tobytes()

    # config lossless
    cfg = ExperimentConfig(task="classify", method="fedavg-ft", K=7, m=3,
                           lr_eta=0.0033, hidden_dims=(48, 24),
                           partition="label-skew")
    cfg_ok = ExperimentConfig.from_text(cfg.to_text()) == cfg

    # PGM to quantization
    grid = rng.uniform(0, 1, (2, 3, 4, 4))
    export_grid_image(grid, tmp_path / "g.pgm")
    img = parse_pgm(tmp_path / "g.pgm")
    pgm_ok = img.shape == (2 * 4 + 1, 3 * 4 + 2)
    for i in range(2):
        for j in range(3):
            tile = img[i * 5:i * 5 + 4, j * 5:j * 5 + 4]
            pgm_ok &= np.array_equal(
                tile, np.round(grid[i, j] * 255).astype(np.uint8))

    ok = idx_ok and ckpt_ok and cfg_ok and pgm_ok
    report(9, ok, f"IDX bitwise={idx_ok}, checkpoint bitwise={ckpt_ok}, "
                  f"config lossless={cfg_ok}, PGM to-quantization={pgm_ok}")
