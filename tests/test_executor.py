"""ClientExecutor: a round's clients on one process or several, same bits.

The worker count is set by patching federation.available_cores, the one
function that reads the CPU affinity; no test starts more than 2 processes.
"""

import multiprocessing
import os
from pathlib import Path

import pytest

from feddva import blas, federation
from feddva.checkpoint import load_checkpoint
from feddva.cli import cmd_eval, cmd_train
from feddva.config import ExperimentConfig
from feddva.federation import ClientError, init_run, run_rounds, split_clients
from test_config_cli import FINGERPRINT, _history_without_walltime

needs_pin = pytest.mark.skipif(
    not blas.can_pin(),
    reason="without a BLAS thread setter the executor runs one worker")

SMALL = dict(K=3, m=3, rounds=3, epochs_per_phase=1, batch_size=16,
             toy_per_class=24, toy_classes=3, toy_height=8, toy_width=8,
             hidden_dims=(12,), d_z=2, d_c=2, xi_scale=0.05, seed=5,
             checkpoint_every=2, traversal_steps=3)

RUNS = {
    "feddva-reconstruct": dict(SMALL, task="reconstruct", method="feddva"),
    # uneven label-skew shards, half the clients per round, and a fine-tune
    # in finalize that eval re-derives through the executor
    "fedavg-ft-classify": dict(SMALL, task="classify", method="fedavg-ft",
                               m=2, partition="label-skew",
                               concentration=0.5, lr_lambda=0.02,
                               ft_epochs=2),
}


def use_cores(monkeypatch, n):
    monkeypatch.setattr(federation, "available_cores", lambda: n)


def files_under(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@needs_pin
@pytest.mark.parametrize("name", RUNS)
def test_worker_count_leaves_every_output_bitwise(tmp_path, monkeypatch,
                                                  name):
    outputs = {}
    for n in (1, 2):
        use_cores(monkeypatch, n)
        cfg = ExperimentConfig(**RUNS[name], output_dir=str(tmp_path / f"w{n}"))
        assert federation.worker_count(cfg.m) == n
        assert cmd_train(cfg) == 0 and cmd_eval(cfg) == 0
        out = Path(cfg.output_dir)
        last = out / "checkpoints" / f"round_{cfg.rounds:05d}"
        outputs[n] = {
            "theta": load_checkpoint(last / "shared.ckpt")[2].tobytes(),
            "checkpoint": files_under(last),
            "eval": files_under(out / "eval"),
            "history": _history_without_walltime(out / "history.jsonl"),
        }
    assert outputs[1]["eval"]  # eval wrote its artifacts
    for part in outputs[1]:
        assert outputs[1][part] == outputs[2][part], part
    assert multiprocessing.active_children() == []


def test_split_clients_largest_shard_first_to_least_loaded():
    sizes = {0: 10, 1: 50, 2: 30, 3: 30, 4: 5}
    assert split_clients(sizes, 1) == [[1, 2, 3, 0, 4]]
    # 1 -> p0 (50); 2 -> p1 (30); 3 -> p1 (60); 0 -> p0 (60); 4 -> tie, p0
    assert split_clients(sizes, 2) == [[1, 0, 4], [2, 3]]
    assert split_clients({7: 4, 2: 4}, 2) == [[2], [7]]


@needs_pin
@pytest.mark.parametrize("where", ["parent", "child"])
def test_raising_client_names_client_and_round(monkeypatch, where):
    use_cores(monkeypatch, 2)
    cfg = ExperimentConfig(**RUNS["feddva-reconstruct"])
    state = init_run(cfg)
    plan = split_clients({s.id: s.n for s in state.shards}, 2)
    failing = plan[0 if where == "parent" else 1][0]
    real = federation.client_update

    def client_update(shard, theta, cfg, round_idx, epochs=None):
        if shard.id == failing and round_idx == 2:
            raise FloatingPointError("non-finite loss")
        return real(shard, theta, cfg, round_idx, epochs=epochs)

    monkeypatch.setattr(federation, "client_update", client_update)
    threads = blas.threads()
    with pytest.raises(ClientError, match=f"client {failing} failed in round "
                       "2: FloatingPointError: non-finite loss"):
        run_rounds(cfg, state)
    assert state.round == 1
    assert multiprocessing.active_children() == []
    assert blas.threads() == threads


@needs_pin
def test_dead_worker_raises_instead_of_hanging(monkeypatch):
    use_cores(monkeypatch, 2)
    cfg = ExperimentConfig(**RUNS["feddva-reconstruct"])
    parent = os.getpid()
    real = federation.client_update

    def client_update(shard, theta, cfg, round_idx, epochs=None):
        if os.getpid() != parent:
            os._exit(3)
        return real(shard, theta, cfg, round_idx, epochs=epochs)

    monkeypatch.setattr(federation, "client_update", client_update)
    with pytest.raises(ClientError,
                       match=r"worker process \d+ exited \(code 3\) in round 1"):
        run_rounds(cfg, init_run(cfg))
    assert multiprocessing.active_children() == []


@needs_pin
def test_updates_run_at_one_blas_thread_in_client_order(monkeypatch):
    use_cores(monkeypatch, 2)
    cfg = ExperimentConfig(**RUNS["feddva-reconstruct"])
    real = federation.client_update

    def client_update(shard, theta, cfg, round_idx, epochs=None):
        assert blas.threads() == 1
        return real(shard, theta, cfg, round_idx, epochs=epochs)

    monkeypatch.setattr(federation, "client_update", client_update)
    threads = blas.threads()
    state = run_rounds(cfg, init_run(cfg))
    assert state.round == cfg.rounds
    assert all(list(rec.clients) == rec.sampled for rec in state.history)
    assert blas.threads() == threads
    assert multiprocessing.active_children() == []


# 16x16 images, hidden 64 and batch 64, as disentangle's: its products,
# 64x256x64 and up, pass OpenBLAS's threading threshold (m*n*k > 262,144),
# which SMALL's 8x8 images and hidden 12 never reach
WIDE = dict(SMALL, task="reconstruct", method="feddva", K=2, m=2, rounds=2,
            batch_size=64, toy_per_class=96, toy_classes=2, toy_height=16,
            toy_width=16, hidden_dims=(64,), checkpoint_every=1)


@pytest.mark.skipif(not blas.can_pin() or federation.available_cores() < 2,
                    reason="needs a BLAS thread setter and 2 cores")
def test_no_output_depends_on_the_blas_thread_count(tmp_path, monkeypatch):
    # train as usual (one thread per update, two processes), then serially
    # and unpinned at 2 threads; evaluate each at 1 thread and at 2
    cfg = ExperimentConfig(**WIDE, output_dir=str(tmp_path / "run"))
    real = federation.client_update
    seen = []  # the thread count of each update this process ran

    def client_update(shard, theta, cfg, round_idx, epochs=None):
        seen.append(blas.threads())
        return real(shard, theta, cfg, round_idx, epochs=epochs)

    monkeypatch.setattr(federation, "client_update", client_update)
    tables = []

    def train_then_eval_at(*counts):
        seen.clear()
        assert cmd_train(cfg) == 0
        for n in counts:
            blas.set_threads(n)
            assert cmd_eval(cfg) == 0
            tables.append(FINGERPRINT(Path(cfg.output_dir)))

    inherited = blas.threads()
    try:
        train_then_eval_at(1, 2)
        assert seen and set(seen) == {1}
        monkeypatch.setattr(blas, "can_pin", lambda: False)
        blas.set_threads(2)
        train_then_eval_at(2, 1)
        assert len(seen) == cfg.rounds * cfg.m and set(seen) == {2}
    finally:
        blas.set_threads(inherited)
    assert len(tables) == 4 and tables[0][-1][1].startswith("eval/")
    assert all(table == tables[0] for table in tables)
