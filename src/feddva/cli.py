"""Command-line surface: train, eval, selftest.

train  runs the configured method, streaming one JSON line per round to
       history.jsonl (flushed immediately), checkpointing on schedule,
       and writing a reproducibility manifest. --resume continues a
       killed run from its last complete checkpoint; the splittable seed
       schedule makes the continuation identical to an uninterrupted run
       under the same numeric stack, and resume warns when it differs.
eval   rebuilds models from a checkpoint directory, applies the method's
       end-of-run rule (federation.finalize), and emits the
       disentanglement report, accuracy CSV, embeddings CSV, and
       traversal grids.
selftest  the fast invariant suite; nonzero exit on any failure.

Flags mirror ExperimentConfig keys and override the --config file. The
FEDDVA_OUTPUT_DIR environment variable overrides output_dir.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__, blas
from .checkpoint import load_checkpoint, save_checkpoint
from .config import ConfigError, ExperimentConfig
from .federation import (ServerState, finalize, init_run, run_rounds,
                         worker_count)
from .metrics import (accuracy_per_client, clustering_report,
                      export_accuracy_csv, export_embeddings_csv,
                      export_grid_image, latent_traversal, write_report_json)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    for f in fields(ExperimentConfig):
        parser.add_argument(f"--{f.name}", default=None, type=str,
                            help=f"override config key {f.name}")


def _build_config(args) -> ExperimentConfig:
    text = ""
    if args.config is not None:
        text = Path(args.config).read_text(encoding="utf-8")
    overrides = []
    for f in fields(ExperimentConfig):
        val = getattr(args, f.name, None)
        if val is not None:
            overrides.append(f"{f.name} = {val}")
    if overrides:
        text = text + "\n" + "\n".join(overrides)
    cfg = ExperimentConfig.from_text(text)
    env_out = os.environ.get("FEDDVA_OUTPUT_DIR")
    if env_out:
        cfg.output_dir = env_out
    return cfg


# ------------------------------------------------------------ persistence


def _ckpt_dir(out_dir: Path, round_idx: int) -> Path:
    return out_dir / "checkpoints" / f"round_{round_idx:05d}"


def _round_of(ckpt_dir: Path) -> int | None:
    """The round a round_NNNNN checkpoint directory holds; None for any
    other name."""
    match = re.fullmatch(r"round_([0-9]+)", ckpt_dir.name)
    return int(match[1]) if match else None


def save_state(cfg: ExperimentConfig, state: ServerState, out_dir: Path) -> None:
    """Write the round's checkpoint directory, atomically.

    Files go to a hidden temporary directory that is renamed into place, so
    a kill leaves either the complete round directory or none.
    """
    final = _ckpt_dir(out_dir, state.round)
    tmp = final.with_name(f".{final.name}.tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    save_checkpoint(tmp / "shared.ckpt", "shared", state.arch, state.theta)
    for s in state.shards:
        save_checkpoint(tmp / f"client_{s.id:03d}.ckpt", "local", state.arch,
                        s.model.flatten_local())
    if final.exists():
        shutil.rmtree(final)  # os.replace cannot rename onto a non-empty dir
    os.replace(tmp, final)


def load_state(cfg: ExperimentConfig, ckpt_dir: Path) -> ServerState:
    round_idx = _round_of(ckpt_dir)
    if round_idx is None:
        raise ConfigError(f"checkpoint directory {str(ckpt_dir)!r} is not "
                          "named round_NNNNN")
    state = init_run(cfg)
    kind, arch, theta = load_checkpoint(ckpt_dir / "shared.ckpt")
    if arch != state.arch:
        raise ConfigError(f"checkpoint architecture {arch} does not match "
                          f"config-derived {state.arch}")
    state.theta = theta
    for s in state.shards:
        _, _, local = load_checkpoint(ckpt_dir / f"client_{s.id:03d}.ckpt")
        s.model.load_local(local)
    state.round = round_idx
    return state


def latest_checkpoint(out_dir: Path, n_clients: int) -> Path | None:
    """Newest round_NNNNN directory that holds every checkpoint file."""
    root = out_dir / "checkpoints"
    if not root.is_dir():
        return None
    files = ["shared.ckpt"] + [f"client_{k:03d}.ckpt" for k in range(n_clients)]
    complete = [d for d in root.iterdir() if _round_of(d) is not None
                and all((d / f).is_file() for f in files)]
    return max(complete, key=_round_of, default=None)


# manifest fields that a bitwise continuation needs unchanged; workers is
# not one: the bits do not depend on it
NUMERIC_STACK = ("numpy", "blas", "blas_threads", "train_blas_threads")


def write_manifest(cfg: ExperimentConfig, out_dir: Path,
                   resume: bool = False) -> None:
    """Config and seed, plus the numeric stack: results are bitwise
    reproducible only under the same numpy, BLAS and BLAS thread count.
    train_blas_threads is the count client updates ran at (1 where it can
    be pinned), blas_threads the inherited one that eval runs at; workers
    is the number of processes each round's clients ran on.

    On resume, one stderr line names each numeric-stack field that differs
    from the manifest the run was started with.
    """
    manifest = {"version": f"feddva-{__version__}", "seed": cfg.seed,
                "config": cfg.to_text(), "numpy": np.__version__,
                "blas": blas.vendor(),
                "blas_threads": {v: os.environ.get(v) for v in
                                 ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
                "train_blas_threads": blas.train_threads(),
                "workers": worker_count(cfg.m)}
    path = out_dir / "manifest.json"
    if resume and path.is_file():
        old = json.loads(path.read_text())
        changed = [f"{k} {old.get(k)!r} -> {manifest[k]!r}"
                   for k in NUMERIC_STACK if old.get(k) != manifest[k]]
        if changed:
            print("warning: --resume: numeric stack differs from "
                  "manifest.json, so the continuation is not bitwise: "
                  + "; ".join(changed), file=sys.stderr)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------- train


def cmd_train(cfg: ExperimentConfig, resume: bool = False) -> int:
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.txt").write_text(cfg.to_text())
    write_manifest(cfg, out_dir, resume)

    history_path = out_dir / "history.jsonl"
    if resume:
        ckpt = latest_checkpoint(out_dir, cfg.K)
        if ckpt is None:
            raise ConfigError(f"--resume: no checkpoints under {out_dir}")
        state = load_state(cfg, ckpt)
        # drop a torn (unterminated) last line and every line past the
        # checkpoint, keep the rest
        text = history_path.read_text() if history_path.exists() else ""
        kept = [line for line in text[:text.rfind("\n") + 1].splitlines()
                if line and json.loads(line)["round"] <= state.round]
        history_path.write_text("".join(k + "\n" for k in kept))
    else:
        state = init_run(cfg)
        history_path.write_text("")
    if state.plan is not None:
        (out_dir / "partition.json").write_text(state.plan.to_json() + "\n")

    history_file = open(history_path, "a")

    def on_round(st: ServerState, record) -> None:
        history_file.write(json.dumps(record.to_json_dict(), sort_keys=True) + "\n")
        history_file.flush()
        if st.round % cfg.checkpoint_every == 0 or st.round == cfg.rounds:
            save_state(cfg, st, out_dir)

    start_round = state.round
    try:
        state = run_rounds(cfg, state, on_round)
        if state.round == start_round:  # no round ran, so on_round saved none
            save_state(cfg, state, out_dir)
    finally:
        history_file.close()
    print(f"train: {cfg.method} finished round {state.round}, "
          f"outputs in {out_dir}")
    return 0


# ----------------------------------------------------------------- eval


def cmd_eval(cfg: ExperimentConfig, checkpoint_dir: str | None = None) -> int:
    out_dir = Path(cfg.output_dir)
    ckpt = (Path(checkpoint_dir) if checkpoint_dir
            else latest_checkpoint(out_dir, cfg.K))
    if ckpt is None or not ckpt.is_dir():
        raise ConfigError(f"eval: no checkpoint directory found "
                          f"(looked in {out_dir / 'checkpoints'})")
    state = finalize(cfg, load_state(cfg, ckpt))
    eval_dir = out_dir / "eval"
    eval_dir.mkdir(parents=True, exist_ok=True)

    if cfg.method == "feddva":
        model = state.shards[0].model  # shared encoders are identical
        report = clustering_report(model, state.shards, xi=cfg.xi_value(),
                                   seed=cfg.seed)
        write_report_json(report, eval_dir / "report.json")
        export_embeddings_csv(model, state.shards, eval_dir / "embeddings.csv")
        for s in state.shards:
            grid = latent_traversal(s.model, s, anchor=0,
                                    steps=cfg.traversal_steps,
                                    span=cfg.traversal_span)
            export_grid_image(grid, eval_dir / f"traversal_client{s.id:03d}.pgm")

    if cfg.task == "classify":
        models = {s.id: s.model for s in state.shards}
        accs, mean, std = accuracy_per_client(models, state.shards,
                                              split="held-out",
                                              latents=cfg.classifier_latents)
        export_accuracy_csv(accs, mean, std, eval_dir / "accuracy.csv")
        print(f"eval: held-out accuracy mean={mean:.4f} std={std:.4f}")
    print(f"eval: artifacts in {eval_dir}")
    return 0


# ----------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="feddva",
                                     description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run a federated experiment")
    p_train.add_argument("--config", default=None, help="flat key=value file")
    p_train.add_argument("--resume", action="store_true",
                         help="continue from the last checkpoint")
    _add_config_flags(p_train)

    p_eval = sub.add_parser("eval", help="evaluate a trained run")
    p_eval.add_argument("--config", default=None)
    p_eval.add_argument("--checkpoint-dir", default=None,
                        help="round directory; default: latest under output_dir")
    _add_config_flags(p_eval)

    sub.add_parser("selftest", help="fast invariant suite")

    args = parser.parse_args(argv)
    try:
        if args.command == "selftest":
            from .selftest import run_selftest
            return run_selftest()
        cfg = _build_config(args)
        if args.command == "train":
            return cmd_train(cfg, resume=args.resume)
        return cmd_eval(cfg, checkpoint_dir=args.checkpoint_dir)
    except (ConfigError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
