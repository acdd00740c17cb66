"""Federated round loop: client sampling, two-phase local updates, FedAvg.

Each round samples m of the K clients. A sampled client copies the
incoming shared encoder parameters, then runs two strictly ordered
phases over its local batches:

  Phase 1  shared parameters frozen, local decoder (and head) stepped
  Phase 2  local parameters frozen, the shared copy stepped

Each phase computes only what it steps. The encoders' outputs cannot
change while they are frozen, so phase 1 takes them once over the shard
(q(z|x), the c encoder's pixel product and, for classify, the head's
posterior means) and feeds each batch its rows as constants; feddva's
phase-1 loss holds only the terms whose gradient reaches the local group
(vanilla-vae keeps its whole loss there, whose one extra term is a KL
node). Phase 2 encodes each batch and runs the whole loss. The wall
seconds of each phase go to the history beside the update's.

The client's decoder persists in its shard across rounds and never
travels; only the phase-2 shared vector returns to the server, which
averages the sampled vectors with weights renormalized over the sampled
set in sorted client order. Clients within a round all start from the same
incoming vector and draw from seeds that do not depend on the schedule, so
ClientExecutor runs them on every core the process may use: the parent
plus one forked child per further core, each client update at one BLAS
thread, for speed (see the README). theta, checkpoints and history
(timings aside) are bitwise the same for any number of cores; ``taskset``
limits them.

FedAvg is the case with no local group: a phase whose group is empty is
skipped, so its client runs phase 2 alone, which steps every parameter.

After the last round, finalize applies each method's end-of-run rule; the
in-memory run and the CLI's eval of a checkpoint both use it.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from . import blas
from .autodiff import Tensor, backward, sgd_step
from .data import (ClientShard, Dataset, PartitionPlan, load_idx_dataset,
                   make_toy_digits, partition_label_skew,
                   partition_uniform_marked)
from .gaussians import DiagGaussian
from .losses import (loss_classifier, loss_fedavg_classifier, loss_feddva,
                     loss_local, loss_vanilla_vae)
from .metrics import accuracy
from .model import MODEL_CLASS, ArchitectureConfig, draw, n_draws
from .seeding import make_rng


@dataclass
class RoundRecord:
    round: int
    sampled: list[int]
    clients: dict[int, dict]
    wall_time: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "round": self.round,
            "sampled": self.sampled,
            "clients": {str(k): v for k, v in self.clients.items()},
            "wall_time": self.wall_time,
        }


@dataclass
class ServerState:
    theta: np.ndarray
    round: int
    shards: list[ClientShard]
    arch: ArchitectureConfig
    plan: PartitionPlan
    history: list[RoundRecord] = field(default_factory=list)


def sample_clients(rng: np.random.Generator, n_clients: int, m: int) -> list[int]:
    """Uniform without-replacement sample of m client ids."""
    if not 1 <= m <= n_clients:
        raise ValueError(f"sample_clients: need 1 <= m <= {n_clients}, got {m}")
    return sorted(int(i) for i in rng.choice(n_clients, size=m, replace=False))


def aggregate(updates: dict[int, np.ndarray],
              weights: dict[int, float]) -> np.ndarray:
    """Weighted average with weights renormalized over the sampled set."""
    if not updates:
        raise ValueError("aggregate: empty update set")
    lengths = {u.size for u in updates.values()}
    if len(lengths) != 1:
        raise ValueError(f"aggregate: update lengths differ: {sorted(lengths)}")
    total = sum(weights[k] for k in updates)
    out = np.zeros(next(iter(updates.values())).size)
    for k, u in updates.items():
        out += (weights[k] / total) * u
    return out


def iter_batches(n: int, batch_size: int, rng: np.random.Generator):
    """Shuffled index batches; a trailing batch of one sample is dropped."""
    perm = rng.permutation(n)
    for at in range(0, n, batch_size):
        chunk = perm[at:at + batch_size]
        if chunk.size >= 2:
            yield chunk


def two_phase_update(loss_fn, batch_stream, local_params, shared_params,
                     lr_local: float, lr_shared: float,
                     epochs_per_phase: int
                     ) -> tuple[list[dict[str, float]], dict[str, float]]:
    """Run the decoder-then-encoder coordinate update; returns the phase-2
    loss records and the wall seconds of each phase run, by phase name.

    loss_fn(batch) returns (total, values): a scalar tensor and a dict of
    floats. batch_stream(phase, epoch) yields batches. Order is
    load-bearing: swapping phases changes the result. A phase whose group
    is empty is skipped.

    Each phase marks the group it does not step as not requiring grad, so
    that group's graph is neither recorded nor walked and backward writes
    gradients only to the stepped group, which sgd_step then clears. Every
    flag is restored on return, also when loss_fn raises. A phase-2 batch's
    record is its values with ``total``'s value first, plain floats that
    hold no graph; phase 1 keeps none.

    A non-finite ``total`` raises FloatingPointError, naming the phase (1
    or 2), epoch and batch (from 1), before it can reach a parameter; so
    does a phase that leaves a non-finite parameter in its group.
    """
    everything = list(local_params) + list(shared_params)
    flags = [p.requires_grad for p in everything]
    records, seconds = [], {}
    try:
        for number, (phase, params, frozen, lr) in enumerate((
                ("local", local_params, shared_params, lr_local),
                ("shared", shared_params, local_params, lr_shared)), 1):
            if not params:
                continue
            start = time.perf_counter()
            for p in params:
                p.requires_grad = True
            for p in frozen:
                p.requires_grad = False
            for epoch in range(epochs_per_phase):
                for b, batch in enumerate(batch_stream(phase, epoch), 1):
                    total, values = loss_fn(batch)
                    if not np.isfinite(total.data):
                        raise FloatingPointError(
                            f"non-finite loss {total.item()} in phase "
                            f"{number}, epoch {epoch + 1}, batch {b}")
                    backward(total)
                    sgd_step(params, lr)
                    if phase == "shared":
                        records.append({"total": total.item(), **values})
            if not all(np.isfinite(p.data).all() for p in params):
                raise FloatingPointError(
                    f"non-finite parameter after phase {number}")
            seconds[phase] = time.perf_counter() - start
    finally:
        for p, flag in zip(everything, flags):
            p.requires_grad = flag
    return records, seconds


def _encode_frozen(model, x_all: np.ndarray, cfg) -> list[np.ndarray]:
    """Phase 1's inputs from the frozen shared group, over every row of the
    shard: q(z|x)'s mu and log-variance; for feddva also the pixel product
    and, for classify, the head's mean of q(c|x, mu_z)."""
    x = Tensor(x_all)
    qz = model.encode_z(x)
    arrays = [qz.mu.data, qz.log_var.data]
    if cfg.method == "feddva":
        product = model.pixel_product(x)
        arrays.append(product.data)
        if cfg.task == "classify":
            arrays.append(model.encode_c(x, qz.mu, product).mu.data)
    return arrays


def client_update(shard: ClientShard, theta: np.ndarray, cfg, round_idx: int,
                  epochs: int | None = None
                  ) -> tuple[np.ndarray, list[dict[str, float]],
                             dict[str, float]]:
    """One ClientUpdate: load shared params, phase 1 then phase 2; returns
    the shared vector and two_phase_update's records and phase seconds.
    Each loss returns (total, values), so a record holds the values that
    the method's loss measured and no other.

    A batch is its row indices and, in phase 1, those rows of
    _encode_frozen's arrays, computed once after the shared group is
    frozen; phase 1's feddva loss is loss_local, the terms that reach the
    decoder and head. In phase 2 the loss encodes the batch. epochs
    overrides cfg.epochs_per_phase; fedavg-ft fine-tunes with it.
    """
    if shard.n == 0:
        raise ValueError(f"client_update: shard {shard.id} is empty")
    model = shard.model
    model.load_shared(theta)
    x_all = shard.flat_images()
    labels = shard.labels
    local = model.local_parameters()

    frozen = None  # _encode_frozen's arrays, once phase 1 starts

    def batch_stream(phase, epoch):
        nonlocal frozen
        # a model with no local group draws its batches under FedAvg's label
        label = phase if local else "fedavg"
        rng = make_rng(cfg.seed, "batches", shard.id, round_idx, label, epoch)
        if phase == "local" and frozen is None:
            frozen = _encode_frozen(model, x_all, cfg)
        for idx in iter_batches(shard.n, cfg.batch_size, rng):
            yield idx, ([Tensor(a[idx]) for a in frozen]
                        if phase == "local" else None)

    noise_rng = make_rng(cfg.seed, "noise", shard.id, round_idx)

    def loss_fn(batch):
        idx, rows = batch
        x = Tensor(x_all[idx])
        if cfg.method not in ("feddva", "vanilla-vae"):
            return loss_fedavg_classifier(x, labels[idx], model)
        qz = model.encode_z(x) if rows is None else DiagGaussian(*rows[:2])
        if cfg.method == "vanilla-vae":
            return loss_vanilla_vae(x, qz, model, noise_rng)
        classify = cfg.task == "classify"
        if rows is not None:
            head = (qz.mu, rows[3], labels[idx]) if classify else None
            return loss_local(x, qz, model, noise_rng, cfg.n_elbo_samples,
                              rows[2], head, cfg.gamma,
                              cfg.classifier_latents)
        if classify:
            return loss_classifier(x, qz, labels[idx], model, cfg.xi_value(),
                                   cfg.alpha, cfg.beta, cfg.gamma, noise_rng,
                                   frozen=cfg.classifier_frozen,
                                   latents=cfg.classifier_latents,
                                   n_samples=cfg.n_elbo_samples)
        return loss_feddva(x, qz, model, cfg.xi_value(), cfg.alpha, cfg.beta,
                           noise_rng, n_samples=cfg.n_elbo_samples)

    # two_phase_update's non-finite checks report a diverging update, so
    # numpy's warnings of the arithmetic that led there are off
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        records, seconds = two_phase_update(
            loss_fn, batch_stream, local, model.shared_parameters(),
            cfg.lr_eta, cfg.lr_lambda,
            cfg.epochs_per_phase if epochs is None else epochs)
    return model.flatten_shared(), records, seconds


def _summarize(records: list[dict[str, float]], xi: float) -> dict:
    """The mean of each recorded value over the batches, their count and,
    where the KL terms were measured, the constraint monitor's statistics:
    the batch estimate of KL(client mixture || prior), which is slack + xi."""
    if not records:
        return {"n_batches": 0}
    summary = {k: float(np.mean([r[k] for r in records])) for k in records[0]}
    summary["n_batches"] = len(records)
    if "kl_c_to_qc" not in summary:
        return summary
    monitors = [r["kl_c_to_qc"] - r["kl_c_to_mixture"] for r in records]
    summary["monitor_min"] = float(np.min(monitors))
    summary["monitor_mean"] = float(np.mean(monitors))
    summary["monitor_frac_ge_xi"] = float(np.mean([m >= xi for m in monitors]))
    return summary


# ------------------------------------------------------------- executor


class ClientError(RuntimeError):
    """A client update failed; the message names the client and round."""


def available_cores() -> int:
    """The CPUs this process may run on; ``taskset`` narrows them."""
    return len(os.sched_getaffinity(0))


def worker_count(n_clients: int) -> int:
    """Processes a ClientExecutor runs n_clients on: one per core, or one
    where the BLAS thread count cannot be pinned."""
    return min(available_cores(), n_clients) if blas.can_pin() else 1


def split_clients(sizes: dict[int, int], n_procs: int) -> list[list[int]]:
    """Client ids per process: largest shard first (ties by client id),
    each to the process with the fewest rows so far (ties by index)."""
    plan: list[list[int]] = [[] for _ in range(n_procs)]
    rows = [0] * n_procs
    for k in sorted(sizes, key=lambda k: (-sizes[k], k)):
        p = min(range(n_procs), key=lambda i: (rows[i], i))
        plan[p].append(k)
        rows[p] += sizes[k]
    return plan


def _update_clients(cfg, shards, round_idx, epochs, theta, tasks) -> list:
    """Run (client id, local vector) tasks from theta, one after another;
    (id, shared vector, local vector, summary) per task."""
    results = []
    for k, local in tasks:
        shard = shards[k]
        start = time.perf_counter()
        try:
            shard.model.load_local(local)
            shared, records, seconds = client_update(shard, theta, cfg,
                                                     round_idx, epochs=epochs)
        except Exception as exc:
            raise ClientError(f"client {k} failed in round {round_idx}: "
                              f"{type(exc).__name__}: {exc}") from exc
        summary = _summarize(records, cfg.xi_value())
        summary["update_s"] = time.perf_counter() - start
        summary["phase1_s"] = seconds.get("local", 0.0)
        summary["phase2_s"] = seconds.get("shared", 0.0)
        results.append((k, shared, shard.model.flatten_local(), summary))
    return results


def _serve(conn, parent_ends, cfg, shards) -> None:
    """A forked worker: answer each message with _update_clients' results
    (or the ClientError) until the parent's end closes, as it does when the
    parent exits or dies; the worker then returns without a traceback."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent handles ^C
    for end in parent_ends:  # inherited copies would hide the parent's exit
        end.close()
    while True:
        try:
            message = conn.recv()
        except (EOFError, ConnectionResetError):
            return
        try:
            reply = _update_clients(cfg, shards, *message)
        except ClientError as exc:
            reply = exc
            # a non-finite loss is a fault of the run, not of the program
            if not isinstance(exc.__cause__, FloatingPointError):
                detail = "".join(traceback.format_exception(exc.__cause__))
                reply = ClientError(f"{exc}\n\nin worker process "
                                    f"{os.getpid()}:\n{detail}")
        try:
            conn.send(reply)
        except BrokenPipeError:
            return


class ClientExecutor:
    """Runs client updates on this process plus forked children.

    Entering pins BLAS to one thread and forks ``worker_count(n_clients)
    - 1`` children, each with the shards as they were at the fork and one
    Pipe to this process; leaving closes every Pipe, which ends each child
    (terminated first when leaving on an exception), and restores the
    thread count. ``run`` splits clients with split_clients, this process
    taking the first share, and loads each client's updated shared and
    local vectors into its shard, so the shards end as a serial loop leaves
    them. The result of an update does not depend on the process it ran in.
    """

    def __init__(self, cfg, shards: list[ClientShard], n_clients: int):
        self.cfg = cfg
        self.shards = shards
        self.n_procs = worker_count(n_clients)
        self._children: list[tuple] = []  # (process, connection)
        self._threads = None

    def __enter__(self) -> "ClientExecutor":
        if blas.can_pin():
            self._threads = blas.threads()
            blas.set_threads(1)  # before the fork, so children inherit it
        try:
            ctx = multiprocessing.get_context("fork")
            for _ in range(self.n_procs - 1):
                here, there = ctx.Pipe()
                ends = [c for _, c in self._children] + [here]
                proc = ctx.Process(target=_serve, daemon=True,
                                   args=(there, ends, self.cfg, self.shards))
                proc.start()
                there.close()
                self._children.append((proc, here))
        except BaseException:
            self.__exit__(*sys.exc_info())
            raise
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            for proc, conn in self._children:
                if exc_type is not None:
                    proc.terminate()
                conn.close()  # a worker's recv then ends it
            for proc, _ in self._children:
                proc.join()
        finally:
            self._children = []
            if self._threads is not None:
                blas.set_threads(self._threads)
                self._threads = None

    def run(self, clients: list[int], theta: np.ndarray, round_idx: int,
            epochs: int | None = None) -> dict[int, dict]:
        """Update each client from theta; its summary by client id."""
        plan = split_clients({k: self.shards[k].n for k in clients},
                             self.n_procs)

        def message(ks):
            return (round_idx, epochs, theta,
                    [(k, self.shards[k].model.flatten_local()) for k in ks])

        busy = [(proc, conn, ks) for (proc, conn), ks
                in zip(self._children, plan[1:]) if ks]
        for proc, conn, ks in busy:
            self._talk(proc, ks, round_idx, conn.send, message(ks))
        results = _update_clients(self.cfg, self.shards, *message(plan[0]))
        for proc, conn, ks in busy:
            reply = self._talk(proc, ks, round_idx, conn.recv)
            if isinstance(reply, ClientError):
                raise reply
            results += reply
        stats = {}  # in client order, as the serial loop made it
        for k, shared, local, summary in sorted(results, key=lambda r: r[0]):
            model = self.shards[k].model
            model.load_shared(shared)
            model.load_local(local)
            stats[k] = summary
        return stats

    @staticmethod
    def _talk(proc, ks, round_idx, call, *args):
        try:
            return call(*args)
        except (EOFError, OSError):
            proc.join(timeout=1.0)
            raise ClientError(f"worker process {proc.pid} exited (code "
                              f"{proc.exitcode}) in round {round_idx} while "
                              f"updating clients {ks}") from None


# ----------------------------------------------------------------- runs


def build_dataset(cfg) -> Dataset:
    if cfg.dataset == "toy":
        return make_toy_digits(cfg.toy_per_class, cfg.toy_classes,
                               cfg.toy_height, cfg.toy_width, cfg.seed)
    labels_path = cfg.idx_labels
    if labels_path == "auto":
        labels_path = cfg.dataset.replace("images", "labels").replace("idx3", "idx1")
    return load_idx_dataset(cfg.dataset, labels_path)


def build_shards(cfg, ds: Dataset):
    if cfg.partition == "marked":
        shards, plan = partition_uniform_marked(ds, cfg.K, cfg.seed,
                                                holdout_frac=cfg.holdout_frac)
    elif cfg.partition == "label-skew":
        shards, plan = partition_label_skew(ds, cfg.K, cfg.concentration,
                                            cfg.seed,
                                            holdout_frac=cfg.holdout_frac)
    else:
        raise ValueError(f"unknown partition {cfg.partition!r}")
    return shards, plan


def build_arch(cfg, ds: Dataset) -> ArchitectureConfig:
    input_dim = int(ds.images.shape[1] * ds.images.shape[2])
    n_classes = ds.n_classes if cfg.task == "classify" else None
    return ArchitectureConfig(input_dim=input_dim, hidden_dims=cfg.hidden_dims,
                              d_z=cfg.d_z, d_c=cfg.d_c, n_classes=n_classes,
                              head_hidden=cfg.head_hidden)


def blank_run(cfg) -> ServerState:
    """Round 0 of cfg's run with every weight and theta at zero: its data,
    shards and architecture, and each client's model built from its
    shapes, for init_run's draws or a checkpoint to fill. A client's
    shared group stays zero until theta is loaded into it, as
    client_update and finalize do before any read."""
    ds = build_dataset(cfg)
    arch = build_arch(cfg, ds)
    shards, plan = build_shards(cfg, ds)
    for s in shards:
        s.model = MODEL_CLASS[cfg.method](arch)
    shared = shards[0].model.shared_parameters()
    theta = np.zeros(sum(p.data.size for p in shared))
    return ServerState(theta=theta, round=0, shards=shards, arch=arch,
                       plan=plan)


def init_run(cfg) -> ServerState:
    """blank_run plus the draws the run reads. Each client's local group is
    drawn from its "client-init" stream, past the shared-group draws that
    stream starts with (one raw per double); theta is drawn over the
    shared layers from the "server-init" stream, lent by client 0, whose
    shared group then returns to zero like every other client's."""
    state = blank_run(cfg)
    for s in state.shards:
        rng = make_rng(cfg.seed, "client-init", s.id)
        rng.bit_generator.advance(n_draws(s.model.shared_layers))
        draw(s.model.local_layers, rng)
    lender = state.shards[0].model
    draw(lender.shared_layers, make_rng(cfg.seed, "server-init"))
    state.theta = lender.flatten_shared()
    lender.load_shared(np.zeros(state.theta.size))
    return state


def run_rounds(cfg, state: ServerState, on_round=None) -> ServerState:
    """Advance the federation from state.round to cfg.rounds; with no round
    left, no executor starts."""
    if state.round >= cfg.rounds:
        return state
    weights = {s.id: s.weight for s in state.shards}
    with ClientExecutor(cfg, state.shards, cfg.m) as executor:
        while state.round < cfg.rounds:
            r = state.round + 1
            start = time.monotonic()
            sampled = sample_clients(make_rng(cfg.seed, "sample", r),
                                     cfg.K, cfg.m)
            client_stats = executor.run(sampled, state.theta, r)
            state.theta = aggregate(
                {k: state.shards[k].model.flatten_shared() for k in sampled},
                weights)
            if cfg.task == "classify" and (r % cfg.eval_every == 0
                                           or r == cfg.rounds):
                for k in sampled:
                    shard = state.shards[k]
                    shard.model.load_shared(state.theta)
                    client_stats[k]["accuracy"] = accuracy(
                        shard, cfg.classifier_latents)
            record = RoundRecord(round=r, sampled=sampled,
                                 clients=client_stats,
                                 wall_time=time.monotonic() - start)
            state.history.append(record)
            state.round = r
            if on_round is not None:
                on_round(state, record)
    return state


def finalize(cfg, state: ServerState) -> ServerState:
    """The end-of-run rule: put each method's final model into every client.

    Every client loads the aggregate; fedavg-ft then fine-tunes each client
    locally for ft_epochs, if any. The fine-tune is a deterministic function
    of the aggregate, so eval re-derives it from a checkpoint instead of
    storing it.
    """
    for s in state.shards:
        s.model.load_shared(state.theta)
    if cfg.method == "fedavg-ft" and cfg.ft_epochs > 0:
        with ClientExecutor(cfg, state.shards, len(state.shards)) as executor:
            executor.run([s.id for s in state.shards], state.theta,
                         state.round + 1, epochs=cfg.ft_epochs)
    return state


def run_experiment(cfg, on_round=None) -> ServerState:
    return finalize(cfg, run_rounds(cfg, init_run(cfg), on_round))
