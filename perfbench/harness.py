"""One benchmark run: measurement passes, output checks, metrics.

A pass is what ``feddva train`` followed by ``feddva eval`` does, driven
through the public API: ``federation.init_run``, ``federation.run_rounds``
with one history line per round and ``cli.save_state`` on the config's
``checkpoint_every`` schedule, then ``cli.cmd_eval`` on the final
checkpoint. Every pass of a run starts from a fresh ``init_run`` with the
same seed, so every pass must end with the same final theta.

Untraced runs (``--trace 0``) time set-up, training and eval and report the
end-to-end metrics. Traced runs (``--trace 1``) make one untraced pass and
one traced pass and report the per-module metrics; both passes must agree
bit for bit.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracer import EXTRA_OP_KINDS, Tracer
from workloads import MONITOR_CHECKED, make_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# share of --seconds spent on init_run calls for setup_s before each pass;
# the reps come in whole blocks of MIN_SETUP_REPS
SETUP_SHARE = 0.05
MIN_SETUP_REPS = 5
EVAL_REPS_PER_PASS = 4

LOSS_KEYS = ("total", "recon", "r_z", "r_c", "kl_c_to_qc", "kl_c_to_mixture",
             "constraint_slack", "cross_entropy", "monitor_min")

# (name, unit, better) of every end-to-end metric an untraced run reports
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("train_samples_per_s", "rows/s", "higher"),
    ("eval_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("final_loss", "nats", "lower"),
]
# printed with the end-to-end metrics but not reported in the result line:
# they vary too much between seeds to hold a bound (ratio_c_over_z), exist
# on one workload only (heldout_acc) or read 0 when all is well
QUALITY = {"ratio_c_over_z": "ratio", "heldout_acc": "fraction",
           "failed_runs_frac": "fraction"}

OP_KINDS = ("matmul", "add", "sub", "mul-elementwise", "relu", "tanh",
            "sigmoid", "exp", "log", "square", "sum", "mean",
            "concat-last-axis", "broadcast-add-row", "transpose",
            *EXTRA_OP_KINDS)
# no workload's model uses tanh; its time would read 0 on every run
UNUSED_OP_KINDS = {"tanh"}


def _per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-module metric a traced run reports.

    Timings of functions that some workload never calls (model.classify,
    the classify-only losses, the partitioner another workload uses,
    accuracy_per_client) are reported as call counts here; their times are
    printed in the traced table.
    """
    t, c = "s", "count"
    spec = [("autodiff.backward.calls", c, "lower"),
            ("autodiff.backward.self_s", t, "lower"),
            ("autodiff.sgd_step.self_s", t, "lower")]
    for kind in OP_KINDS:
        spec.append((f"autodiff.op.{kind}.calls", c, "lower"))
        if kind not in UNUSED_OP_KINDS:
            spec.append((f"autodiff.op.{kind}.self_s", t, "lower"))
    spec += [("autodiff.nodes_per_step", c, "lower"),
             ("autodiff.stepped_leaf_frac", "fraction", "higher")]
    for fn in ("encode_z", "encode_c", "decode"):
        spec += [(f"model.{fn}.calls", c, "lower"),
                 (f"model.{fn}.incl_s", t, "lower"),
                 (f"model.{fn}.self_s", t, "lower")]
    spec.append(("model.classify.calls", c, "lower"))
    for fn in ("reparameterize", "kl_to_standard", "mixture_bound_batch_mean"):
        spec += [(f"gaussians.{fn}.calls", c, "lower"),
                 (f"gaussians.{fn}.incl_s", t, "lower")]
    for fn in ("loss_feddva", "bce_recon"):
        spec += [(f"losses.{fn}.calls", c, "lower"),
                 (f"losses.{fn}.incl_s", t, "lower")]
    spec += [("losses.loss_classifier.calls", c, "lower"),
             ("losses.cross_entropy.calls", c, "lower"),
             ("losses.hinge_mixture_frac", "fraction", "lower"),
             ("federation.client_update.calls", c, "lower"),
             ("federation.client_update.incl_s", t, "lower"),
             ("federation.client_update.self_s", t, "lower"),
             ("federation.aggregate.incl_s", t, "lower"),
             ("federation.client_skew", "ratio", "lower"),
             ("federation.update_bytes_per_round", "bytes", "lower"),
             ("federation.rows", c, "higher"),
             ("federation.steps", c, "lower"),
             ("data.make_toy_digits.incl_s", t, "lower"),
             ("data.partition_uniform_marked.calls", c, "lower"),
             ("data.partition_label_skew.calls", c, "lower"),
             ("seeding.make_rng.calls", c, "lower"),
             ("seeding.make_rng.self_s", t, "lower"),
             ("metrics.clustering_report.incl_s", t, "lower"),
             ("metrics.mixture_kl_to_standard_mc.calls", c, "lower"),
             ("metrics.mixture_kl_to_standard_mc.self_s", t, "lower"),
             ("metrics.latent_traversal.incl_s", t, "lower"),
             ("metrics.export_embeddings_csv.incl_s", t, "lower"),
             ("metrics.accuracy_per_client.calls", c, "lower"),
             ("checkpoint.save_checkpoint.calls", c, "lower"),
             ("checkpoint.save_checkpoint.self_s", t, "lower"),
             ("checkpoint.save_checkpoint.bytes", "bytes", "lower"),
             ("checkpoint.load_checkpoint.calls", c, "lower"),
             ("checkpoint.load_checkpoint.self_s", t, "lower"),
             ("cli.save_state.incl_s", t, "lower"),
             ("cli.load_state.incl_s", t, "lower"),
             ("cli.cmd_eval.incl_s", t, "lower"),
             ("trace.overhead_frac", "fraction", "lower")]
    return spec


PER_LAYER = _per_layer_spec()

# counts that must repeat exactly between two traced runs of one workload
EXACT_COUNTS = (["federation.rows", "federation.steps",
                 "autodiff.nodes_per_step", "autodiff.stepped_leaf_frac",
                 "losses.hinge_mixture_frac",
                 "checkpoint.save_checkpoint.bytes"]
                + [f"autodiff.op.{kind}.calls" for kind in OP_KINDS])


@dataclass
class PassResult:
    train_s: float
    rows: int
    steps: int
    final_loss: float
    theta_sha: str
    theta_nbytes: int
    eval_s: list[float]
    report_sha: str
    ratio_c_over_z: float
    heldout_acc: float | None
    failures: list[str] = field(default_factory=list)

    @property
    def rate(self) -> float:
        return self.rows / self.train_s

    @property
    def outcome(self) -> tuple:
        """What every pass of one workload and seed must reproduce."""
        return self.theta_sha, self.report_sha, self.final_loss


# ------------------------------------------------------------ environment


def git_sha() -> str:
    """HEAD of the enclosing git checkout, read from .git without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(threads: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "git_sha": git_sha(),
    }


# ------------------------------------------------------------------ pass


def per_epoch(n: int, batch_size: int) -> tuple[int, int]:
    """(steps, rows) of one epoch over n rows; a 1-row tail is dropped."""
    steps = rows = 0
    for at in range(0, n, batch_size):
        size = min(batch_size, n - at)
        if size >= 2:
            steps += 1
            rows += size
    return steps, rows


def run_pass(name: str, cfg, out_dir: Path, eval_reps: int) -> PassResult:
    """Train and evaluate once from a fresh init_run, then check outputs."""
    from feddva import cli, federation

    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    state = federation.init_run(cfg)
    history_path = out_dir / "history.jsonl"
    with open(history_path, "w") as history:
        def on_round(st, record):
            history.write(json.dumps(record.to_json_dict(), sort_keys=True)
                          + "\n")
            history.flush()
            if st.round % cfg.checkpoint_every == 0 or st.round == cfg.rounds:
                cli.save_state(cfg, st, out_dir)

        t0 = time.perf_counter()
        federation.run_rounds(cfg, state, on_round)
        train_s = time.perf_counter() - t0

    failures: list[str] = []
    rows, steps, final_loss = check_training(name, cfg, state, out_dir,
                                             failures)
    theta = state.theta
    eval_s, report_shas = [], set()
    for _ in range(eval_reps):
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            cli.cmd_eval(cfg)
        eval_s.append(time.perf_counter() - t0)
        report_shas.add(hashlib.sha256(
            (out_dir / "eval" / "report.json").read_bytes()).hexdigest())
    if len(report_shas) != 1:
        failures.append("eval: report.json differs between repeated evals")
    ratio, acc = check_eval(cfg, state, out_dir / "eval", failures)
    return PassResult(train_s=train_s, rows=rows, steps=steps,
                      final_loss=final_loss,
                      theta_sha=hashlib.sha256(theta.tobytes()).hexdigest(),
                      theta_nbytes=theta.nbytes, eval_s=eval_s,
                      report_sha=min(report_shas), ratio_c_over_z=ratio,
                      heldout_acc=acc, failures=failures)


def check_training(name, cfg, state, out_dir: Path, failures: list[str]):
    """Rows and steps from shard sizes; loss, theta and file checks."""
    epochs = cfg.epochs_per_phase
    rows = steps = 0
    if len(state.history) != cfg.rounds:
        failures.append(f"train: {len(state.history)} rounds, "
                        f"expected {cfg.rounds}")
    for rec in state.history:
        for k in rec.sampled:
            ep_steps, ep_rows = per_epoch(state.shards[k].n, cfg.batch_size)
            steps += 2 * epochs * ep_steps
            rows += 2 * epochs * ep_rows
            stats = rec.clients[k]
            if stats.get("n_batches") != epochs * ep_steps:
                failures.append(f"round {rec.round} client {k}: "
                                f"{stats.get('n_batches')} phase-2 batches, "
                                f"expected {epochs * ep_steps}")
            bad = [key for key in LOSS_KEYS
                   if not math.isfinite(stats.get(key, math.nan))]
            if bad:
                failures.append(f"round {rec.round} client {k}: "
                                f"non-finite {bad}")
            if name in MONITOR_CHECKED and stats.get("monitor_min", -1) < 0:
                failures.append(f"round {rec.round} client {k}: constraint "
                                f"monitor {stats.get('monitor_min')} < 0")
    lines = (out_dir / "history.jsonl").read_text().splitlines()
    if [json.loads(line)["round"] for line in lines] != list(
            range(1, cfg.rounds + 1)):
        failures.append("train: history.jsonl does not hold one line per round")
    last = state.history[-1] if state.history else None
    final_loss = (float(np.mean([c.get("total", math.nan)
                                 for c in last.clients.values()]))
                  if last else math.nan)
    if not np.all(np.isfinite(state.theta)):
        failures.append("train: final theta is not finite")
    ckpt = (out_dir / "checkpoints" / f"round_{cfg.rounds:05d}"
            / "shared.ckpt")
    payload = state.theta.astype("<f8").tobytes()
    if not ckpt.is_file() or not ckpt.read_bytes().endswith(payload):
        failures.append(f"train: {ckpt.name} of the last round does not "
                        "hold the final theta")
    return rows, steps, final_loss


def check_eval(cfg, state, eval_dir: Path, failures: list[str]):
    """Artifacts of cmd_eval are present and well-formed."""
    report = json.loads((eval_dir / "report.json").read_text())
    ratio = float(report["ratio_c_over_z"])
    if not (math.isfinite(ratio) and ratio > 0):
        failures.append(f"eval: ratio_c_over_z is {ratio}")
    if not all(math.isfinite(e)
               for e in report["constraint_estimate_per_client"]):
        failures.append("eval: non-finite constraint estimate")
    lines = (eval_dir / "embeddings.csv").read_text().splitlines()
    if len(lines) != 1 + sum(s.n for s in state.shards):
        failures.append(f"eval: embeddings.csv has {len(lines)} lines")
    steps = cfg.traversal_steps
    dims = (f"{steps * cfg.toy_width + steps - 1} "
            f"{steps * cfg.toy_height + steps - 1}")
    for s in state.shards:
        head = (eval_dir / f"traversal_client{s.id:03d}.pgm").read_bytes()
        if head.split(b"\n", 3)[:3] != [b"P5", dims.encode(), b"255"]:
            failures.append(f"eval: traversal grid of client {s.id} "
                            "is malformed")
    acc = None
    if cfg.task == "classify":
        rows = (eval_dir / "accuracy.csv").read_text().splitlines()
        if len(rows) != 1 + len(state.shards) + 2:
            failures.append(f"eval: accuracy.csv has {len(rows)} lines")
        acc = float(rows[-2].split(",")[1])
        if not 0.0 <= acc <= 1.0:
            failures.append(f"eval: held-out accuracy {acc}")
    return ratio, acc


# ------------------------------------------------------------------ runs


def measure_end_to_end(name: str, seed: int, seconds: float, out_dir: Path):
    """Cycles of repeated set-up and one pass, while they fit in ``seconds``.

    Set-up and eval samples are spread over the whole run, so their medians
    see the same machine load as the training passes do.
    """
    from feddva import federation

    cfg = make_config(name, seed, str(out_dir / "pass"))
    start = time.perf_counter()
    federation.init_run(cfg)  # warm-up: first-call costs are not set-up
    setup_s, passes, failures = [], [], []
    while True:
        t0 = time.perf_counter()
        while (len(setup_s) % MIN_SETUP_REPS
               or time.perf_counter() - t0 < SETUP_SHARE * seconds):
            t1 = time.perf_counter()
            federation.init_run(cfg)
            setup_s.append(time.perf_counter() - t1)
        if not attempt(lambda: run_pass(name, cfg, out_dir / "pass",
                                        EVAL_REPS_PER_PASS),
                       passes, failures):
            break
        # start another cycle while at least half of it fits
        cycle_s = time.perf_counter() - t0
        if time.perf_counter() - start + cycle_s / 2 > seconds:
            break
    attempted, failed = tally(passes, failures)

    metrics, info = {}, {"setup_reps": len(setup_s), "passes": len(passes)}
    if passes:
        first = passes[0]
        values = {
            "setup_s": statistics.median(setup_s),
            "train_samples_per_s": statistics.median(p.rate for p in passes),
            "eval_s": statistics.median(s for p in passes for s in p.eval_s),
            "peak_rss_mb": peak_rss_mb(),
            "final_loss": first.final_loss,
        }
        metrics = {n: {"value": values[n], "unit": u} for n, u, _ in END_TO_END}
        info.update(ratio_c_over_z=first.ratio_c_over_z,
                    heldout_acc=first.heldout_acc,
                    pass_rates=[round(p.rate, 1) for p in passes],
                    theta_sha=first.theta_sha, rows_per_pass=first.rows,
                    steps_per_pass=first.steps,
                    eval_reps=sum(len(p.eval_s) for p in passes))
    info["failed_runs_frac"] = failed / attempted
    return metrics, attempted, failed, failures, info


def attempt(make_pass, passes: list[PassResult],
            failures: list[str]) -> bool:
    """Run one pass and record it; False when it raised."""
    label = f"pass {len(passes) + 1}"
    try:
        result = make_pass()
    except Exception as exc:  # a raising pass is a failed run
        traceback.print_exc()
        failures.append(f"{label}: {type(exc).__name__}: {exc}")
        return False
    passes.append(result)
    failures += [f"{label}: {f}" for f in result.failures]
    if result.outcome != passes[0].outcome:
        failures.append(f"{label}: theta, eval report or loss differ from "
                        "pass 1")
    return True


def tally(passes: list[PassResult], failures: list[str]) -> tuple[int, int]:
    """(attempted, failed) passes; a pass fails when it raised, failed a
    check or disagreed with the first pass."""
    labels = {f.split(":", 1)[0] for f in failures}
    attempted = len(passes) + (f"pass {len(passes) + 1}" in labels)
    return attempted, len(labels)


def measure_layers(name: str, seed: int, out_dir: Path):
    """One untraced pass, one traced pass, per-module metrics."""
    cfg = make_config(name, seed, str(out_dir / "pass"))
    passes, failures = [], []
    tracer = Tracer()
    if attempt(lambda: run_pass(name, cfg, out_dir / "pass", 1),
               passes, failures):
        tracer.install()
        try:
            attempt(lambda: run_pass(name, cfg, out_dir / "pass", 1),
                    passes, failures)
        finally:
            tracer.uninstall()
    attempted, failed = tally(passes, failures)
    if len(passes) < 2:
        return {}, {}, attempted, failed, failures, {}
    untraced, traced = passes
    tracer.write(out_dir / "spans.npz")
    values = layer_values(tracer, cfg, traced, untraced)
    metrics = {n: {"value": values[n], "unit": u} for n, u, _ in PER_LAYER}
    info = {"theta_sha": traced.theta_sha, "spans": len(tracer.spans)}
    return metrics, values, attempted, failed, failures, info


def layer_values(tracer: Tracer, cfg, traced: PassResult,
                 untraced: PassResult) -> dict[str, float]:
    """Every traced span as calls/incl_s/self_s, plus the named counts."""
    values: dict[str, float] = {}
    for span, stats in tracer.per_name().items():
        for key, v in stats.items():
            values[f"{span}.{key}"] = v
    skews = [max(d) / statistics.fmean(d)
             for d in tracer.client_update_s.values()]
    values.update({
        "autodiff.nodes_per_step": tracer.topo_nodes / tracer.topo_calls,
        "autodiff.stepped_leaf_frac": (tracer.leaves_stepped
                                       / tracer.leaves_reached),
        "losses.hinge_mixture_frac": (tracer.hinge_mixture
                                      / tracer.hinge_calls),
        "federation.client_skew": statistics.median(skews),
        "federation.update_bytes_per_round": cfg.m * traced.theta_nbytes,
        "federation.rows": traced.rows,
        "federation.steps": traced.steps,
        "checkpoint.save_checkpoint.bytes": tracer.save_bytes,
        "trace.overhead_frac": 1.0 - traced.rate / untraced.rate,
    })
    return values


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


# ---------------------------------------------------------------- report


def run(name: str, seed: int, seconds: float, trace: int, threads: int) -> dict:
    """Measure one workload, print the metrics, return the result line."""
    import feddva

    src = ROOT / "src"
    if Path(feddva.__file__).resolve().parent.parent != src:
        raise RuntimeError(f"feddva imported from {feddva.__file__}, "
                           f"not from {src}")
    out_dir = OUT / f"{name}-s{seed}"
    env = environment(threads)
    print(f"# {name} seed={seed} trace={trace} " + " ".join(
        f"{k}={v}" for k, v in env.items()))
    if trace:
        metrics, values, attempted, failed, failures, info = measure_layers(
            name, seed, out_dir)
        shown = sorted(values.items())
    else:
        metrics, attempted, failed, failures, info = measure_end_to_end(
            name, seed, seconds, out_dir)
        shown = [(n, m["value"]) for n, m in metrics.items()]
        shown += [(n, info[n]) for n in QUALITY if info.get(n) is not None]
    units = {n: u for n, u, _ in END_TO_END + PER_LAYER}
    units.update(QUALITY)
    for metric, value in shown:
        unit = units.get(metric, "s" if metric.endswith("_s") else "count")
        print(f"{name:12s} {metric:44s} {value:.6g} {unit}")
    for key, value in info.items():
        if key not in dict(shown) and value is not None:
            print(f"{name:12s} # {key} = {value}")
    for f in failures:
        print(f"{name:12s} FAILED {f}")
    result = {"correct": not failures and bool(metrics),
              "attempted": attempted, "failed": failed, "metrics": metrics}
    record = dict(result, workload=name, seed=seed, trace=trace, env=env,
                  info=info, failures=failures)
    if trace:
        record["counts"] = {k: values[k] for k in EXACT_COUNTS if k in values}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{name}-s{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    sys.stdout.flush()
    return result
