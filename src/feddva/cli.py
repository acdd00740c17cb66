"""Command-line surface: train, eval, selftest.

train  runs the configured method, streaming one JSON line per round to
       history.jsonl (flushed immediately), checkpointing on schedule,
       and writing a reproducibility manifest; a fresh run first removes
       the checkpoints and eval an earlier run left. --resume continues a
       killed run from its last complete checkpoint; the splittable seed
       schedule makes the continuation identical to an uninterrupted run
       under the same numeric stack, and resume warns when it differs.
eval   rebuilds models from a checkpoint directory, applies the method's
       end-of-run rule (federation.finalize), and emits the
       disentanglement report, accuracy CSV, embeddings CSV, and
       traversal grids.
selftest  the fast invariant suite; nonzero exit on any failure.

train flags mirror ExperimentConfig keys and override the --config file.
eval and train --resume take their config from the run directory's
config.txt instead: eval accepts only the keys that shape its report,
and --resume only --rounds, to extend the run. The run directory is the
FEDDVA_OUTPUT_DIR environment variable, else --output_dir, else the
default output_dir.
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
from .federation import (ClientError, ServerState, blank_run, finalize,
                         init_run, run_rounds, worker_count)
from .metrics import (accuracy_per_client, clustering_report, encode_shards,
                      export_accuracy_csv, export_embeddings_csv,
                      export_grid_image, latent_traversal, write_report_json)


CONFIG_KEYS = tuple(f.name for f in fields(ExperimentConfig))
# the keys eval may set: they shape the report, not the model it scores
EVAL_KEYS = ("traversal_steps",)
# how far a traversal sweeps either side of its anchor
TRAVERSAL_SPAN = 2.0
# the key --resume may set, to take the run further
RESUME_KEYS = ("rounds",)


def _add_config_flags(parser: argparse.ArgumentParser,
                      keys=CONFIG_KEYS) -> None:
    for key in keys:
        parser.add_argument(f"--{key}", default=None, type=str,
                            help=f"override config key {key}")


def _overrides(args, keys) -> dict[str, str]:
    """The value of every key in `keys` that args sets, as typed."""
    return {key: getattr(args, key) for key in keys
            if getattr(args, key) is not None}


def _build_config(args) -> ExperimentConfig:
    text = ""
    if args.config is not None:
        text = Path(args.config).read_text(encoding="utf-8")
    overrides = _overrides(args, CONFIG_KEYS)
    env_out = os.environ.get("FEDDVA_OUTPUT_DIR")
    if env_out:
        overrides["output_dir"] = env_out
    return ExperimentConfig.from_text(text, overrides)


def _run_config(args, keys) -> ExperimentConfig:
    """The config a run was trained with, read from its config.txt, with
    the `keys` that args sets.

    output_dir becomes the directory it was read from, since the stored
    key goes stale when a run is moved.
    """
    run_dir = (os.environ.get("FEDDVA_OUTPUT_DIR") or args.output_dir
               or ExperimentConfig.output_dir)
    path = Path(run_dir) / "config.txt"
    if not path.is_file():
        raise ConfigError(f"no config.txt in {run_dir}: not a directory "
                          "that train wrote")
    return ExperimentConfig.from_text(path.read_text(encoding="utf-8"),
                                      {**_overrides(args, keys),
                                       "output_dir": run_dir})


def _resume_config(args) -> ExperimentConfig:
    given = ["--config"] if args.config is not None else []
    given += [f"--{key}" for key in CONFIG_KEYS
              if key not in ("output_dir", *RESUME_KEYS)
              and getattr(args, key) is not None]
    if given:
        raise ConfigError(f"--resume continues the run in its config.txt "
                          f"and takes only --output_dir and --rounds; got "
                          f"{', '.join(given)}")
    return _run_config(args, RESUME_KEYS)


# ------------------------------------------------------------ persistence


def _ckpt_dir(out_dir: Path, round_idx: int) -> Path:
    return out_dir / "checkpoints" / f"round_{round_idx:05d}"


def _replace_text(path: Path, text: str) -> None:
    """Write path through a temporary file renamed into place, so a kill
    leaves the old file or the new one, never a torn one."""
    tmp = path.with_name(f".{path.name}.tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


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
    """The run as checkpointed in ckpt_dir: theta and every client's local
    group read into the zero-weight models of blank_run, as init_run's
    draws fill them on a fresh run."""
    round_idx = _round_of(ckpt_dir)
    if round_idx is None:
        raise ConfigError(f"checkpoint directory {str(ckpt_dir)!r} is not "
                          "named round_NNNNN")
    state = blank_run(cfg)

    def load(name: str, kind: str) -> np.ndarray:
        got_kind, arch, flat = load_checkpoint(ckpt_dir / name)
        if (got_kind, arch) != (kind, state.arch):
            raise ConfigError(f"checkpoint {str(ckpt_dir / name)!r} holds "
                              f"kind {got_kind!r} of architecture {arch}, "
                              f"expected {kind!r} of {state.arch}")
        return flat

    state.theta = load("shared.ckpt", "shared")
    for s in state.shards:
        s.model.load_local(load(f"client_{s.id:03d}.ckpt", "local"))
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


# manifest fields a bitwise continuation needs unchanged; where the count
# cannot be pinned, training runs at the inherited blas_threads, on a
# library no one has checked at other counts, so that joins them
NUMERIC_STACK = ("numpy", "blas")


def write_manifest(cfg: ExperimentConfig, out_dir: Path,
                   resume: bool = False) -> None:
    """Config and seed, plus the numeric stack a bitwise rerun needs
    (NUMERIC_STACK), the inherited blas_threads and workers, the number of
    processes each round's clients ran on.

    On resume, one stderr line names each numeric-stack field that differs
    from the manifest the run was started with.
    """
    manifest = {"version": f"feddva-{__version__}", "seed": cfg.seed,
                "config": cfg.to_text(), "numpy": np.__version__,
                "blas": blas.vendor(),
                "blas_threads": {v: os.environ.get(v) for v in
                                 ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
                "workers": worker_count(cfg.m)}
    path = out_dir / "manifest.json"
    if resume and path.is_file():
        old = json.loads(path.read_text())
        stack = NUMERIC_STACK + (() if blas.can_pin() else ("blas_threads",))
        changed = [f"{k} {old.get(k)!r} -> {manifest[k]!r}"
                   for k in stack if old.get(k) != manifest[k]]
        if changed:
            print("warning: --resume: numeric stack differs from "
                  "manifest.json, so the continuation is not bitwise: "
                  + "; ".join(changed), file=sys.stderr)
    _replace_text(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------- train


def cmd_train(cfg: ExperimentConfig, resume: bool = False) -> int:
    out_dir = Path(cfg.output_dir)
    if resume:
        ckpt = latest_checkpoint(out_dir, cfg.K)
        if ckpt is None:
            raise ConfigError(f"--resume: no checkpoints under {out_dir}")
        state = load_state(cfg, ckpt)
        if cfg.rounds < state.round:
            raise ConfigError(f"config key 'rounds': --resume cannot end the "
                              f"run at round {cfg.rounds}, before its "
                              f"checkpoint of round {state.round}")
    else:
        state = init_run(cfg)
        # a fresh run: eval and --resume must not find an old run's outputs
        for stale in (out_dir / "checkpoints", out_dir / "eval"):
            if stale.is_dir():
                shutil.rmtree(stale)
    out_dir.mkdir(parents=True, exist_ok=True)
    _replace_text(out_dir / "config.txt", cfg.to_text())
    write_manifest(cfg, out_dir, resume)

    # on resume, drop a torn (unterminated) last line and every line past
    # the checkpoint, keep the rest
    history_path = out_dir / "history.jsonl"
    text = history_path.read_text() if resume and history_path.exists() else ""
    kept = [line for line in text[:text.rfind("\n") + 1].splitlines()
            if line and json.loads(line)["round"] <= state.round]
    _replace_text(history_path, "".join(k + "\n" for k in kept))
    _replace_text(out_dir / "partition.json", state.plan.to_json() + "\n")

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
        codes = encode_shards(state.shards)
        report = clustering_report(codes, xi=cfg.xi_value(), seed=cfg.seed)
        write_report_json(report, eval_dir / "report.json")
        export_embeddings_csv(codes, eval_dir / "embeddings.csv")
        for s, code in zip(state.shards, codes):
            grid = latent_traversal(s, code, anchor=0,
                                    steps=cfg.traversal_steps,
                                    span=TRAVERSAL_SPAN)
            export_grid_image(grid, eval_dir / f"traversal_client{s.id:03d}.pgm")

    if cfg.task == "classify":
        accs, mean, std = accuracy_per_client(state.shards,
                                              latents=cfg.classifier_latents)
        export_accuracy_csv(accs, mean, std, eval_dir / "accuracy.csv")
        if mean is not None:
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
                         help="continue the run in output_dir from its last "
                         "checkpoint, with its config.txt")
    _add_config_flags(p_train)

    p_eval = sub.add_parser("eval", help="evaluate a trained run, with the "
                            "config.txt in its output_dir")
    p_eval.add_argument("--output_dir", default=None,
                        help=f"the run directory; default: "
                        f"{ExperimentConfig.output_dir}")
    p_eval.add_argument("--checkpoint-dir", default=None,
                        help="round directory; default: latest under output_dir")
    _add_config_flags(p_eval, EVAL_KEYS)

    sub.add_parser("selftest", help="fast invariant suite")

    args = parser.parse_args(argv)
    try:
        if args.command == "selftest":
            from .selftest import run_selftest
            return run_selftest()
        if args.command == "eval":
            return cmd_eval(_run_config(args, EVAL_KEYS),
                            checkpoint_dir=args.checkpoint_dir)
        if args.resume:
            return cmd_train(_resume_config(args), resume=True)
        return cmd_train(_build_config(args))
    except (ClientError, ConfigError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
