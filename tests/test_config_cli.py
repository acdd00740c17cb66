import builtins
import hashlib
import io
import json
import os
import re
import runpy
import shutil
import subprocess
import sys
import time
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import feddva.autodiff as ad
import feddva.data
import feddva.gaussians
import feddva.metrics
from feddva import blas, federation
from feddva.checkpoint import load_checkpoint, save_checkpoint
from feddva.cli import (cmd_eval, cmd_train, latest_checkpoint,
                        load_state, main)
from feddva.config import ConfigError, ExperimentConfig, load_config
from feddva.federation import run_experiment, worker_count
from feddva.metrics import accuracy_per_client, export_accuracy_csv, parse_pgm
from feddva.model import DvaModel
from feddva.selftest import run_selftest


# scripts/fingerprint.py's table of a run directory: (sha256, name) pairs
FINGERPRINT = runpy.run_path(str(Path(__file__).resolve().parent.parent
                                 / "scripts/fingerprint.py"))["fingerprint"]


def write_cfg(tmp_path, text):
    p = tmp_path / "cfg.txt"
    p.write_text(text)
    return p


FAST = """
task = reconstruct
method = feddva
K = 2
m = 2
rounds = 3
epochs_per_phase = 1
batch_size = 16
toy_per_class = 16
toy_classes = 2
toy_height = 8
toy_width = 8
hidden_dims = 12
d_z = 2
d_c = 2
xi_scale = 0.05
seed = 3
checkpoint_every = 2
traversal_steps = 3
"""


# ----------------------------------------------------------------- config


def test_empty_file_gives_defaults(tmp_path):
    cfg = load_config(write_cfg(tmp_path, ""))
    assert cfg.batch_size == 256
    assert cfg.lr_eta == 0.001 and cfg.lr_lambda == 0.001
    assert cfg.rounds == 200 and cfg.epochs_per_phase == 5
    assert cfg.alpha == 1.0 and cfg.beta == 0.75
    assert cfg.d_z == 4 and cfg.d_c == 4  # reconstruct task
    assert cfg.xi_value() == 8.0 * 4


def test_classify_defaults_eight_dims(tmp_path):
    cfg = load_config(write_cfg(tmp_path, "task = classify"))
    assert cfg.d_z == 8 and cfg.d_c == 8
    assert cfg.xi_value() == 64.0


def test_xi_follows_d_c_override(tmp_path):
    cfg = load_config(write_cfg(tmp_path, "d_c = 8"))
    assert cfg.xi_value() == 64.0


def test_unknown_key_named(tmp_path):
    with pytest.raises(ConfigError, match="unknown config key 'learning_rate'"):
        load_config(write_cfg(tmp_path, "learning_rate = 1"))


def test_negative_lr_named(tmp_path):
    with pytest.raises(ConfigError, match="lr_eta"):
        load_config(write_cfg(tmp_path, "lr_eta = -0.1"))


def test_invalid_value_parse_error(tmp_path):
    with pytest.raises(ConfigError, match="rounds"):
        load_config(write_cfg(tmp_path, "rounds = many"))


def test_method_task_compatibility():
    with pytest.raises(ConfigError, match="requires task = classify"):
        ExperimentConfig(method="fedavg", task="reconstruct")
    with pytest.raises(ConfigError, match="vanilla-vae"):
        ExperimentConfig(method="vanilla-vae", task="classify")


def test_elbo_samples_only_for_feddva():
    assert ExperimentConfig(task="classify", n_elbo_samples=2).n_elbo_samples == 2
    for method, task in (("vanilla-vae", "reconstruct"),
                         ("fedavg", "classify"), ("fedavg-ft", "classify")):
        assert ExperimentConfig(method=method, task=task).n_elbo_samples == 1
        with pytest.raises(ConfigError, match="'n_elbo_samples'.*" + method):
            ExperimentConfig(method=method, task=task, n_elbo_samples=2)


def test_latent_options_rejected_for_pixel_classifier():
    # fedavg's pixel classifier has no z/c latents: a mask or a frozen
    # encoder would be ignored without a word
    for method in ("fedavg", "fedavg-ft"):
        assert ExperimentConfig(task="classify", method=method)
        with pytest.raises(ConfigError, match="'classifier_latents'.*" + method):
            ExperimentConfig(task="classify", method=method,
                             classifier_latents="z")
        with pytest.raises(ConfigError, match="'classifier_frozen'.*" + method):
            ExperimentConfig(task="classify", method=method,
                             classifier_frozen=True)
    cfg = ExperimentConfig(task="classify", classifier_latents="c",
                           classifier_frozen=True)
    assert cfg.classifier_latents == "c" and cfg.classifier_frozen


def test_latent_dims_and_xi_named():
    assert ExperimentConfig(d_z=4, d_c=4).xi_value() == 32.0
    with pytest.raises(ConfigError, match="'d_z'"):
        ExperimentConfig(d_z=-1)
    with pytest.raises(ConfigError, match="'d_c'"):
        ExperimentConfig(d_c=-2)
    with pytest.raises(ConfigError, match="'xi_per_dim'"):
        ExperimentConfig(xi_per_dim=-0.5)


def test_negative_ft_epochs_named():
    assert ExperimentConfig(task="classify", method="fedavg-ft",
                            ft_epochs=0).ft_epochs == 0
    with pytest.raises(ConfigError, match="'ft_epochs'"):
        ExperimentConfig(task="classify", method="fedavg-ft", ft_epochs=-3)


def test_layer_widths_named(tmp_path, capsys):
    assert ExperimentConfig(hidden_dims=(), head_hidden=()).hidden_dims == ()
    for key in ("hidden_dims", "head_hidden"):
        for widths in ((0,), (8, -3)):
            with pytest.raises(ConfigError, match=f"'{key}'"):
                ExperimentConfig(**{key: widths})
    for flag in ("--hidden_dims=0", "--hidden_dims=-3", "--head_hidden=8,0"):
        rc = main(["train", flag, "--output_dir", str(tmp_path / "out")])
        assert rc == 2
        assert f"'{flag[2:].split('=')[0]}'" in capsys.readouterr().err


def test_toy_sizes_checked_against_K_named(tmp_path, capsys):
    for kwargs, key in (
            (dict(toy_per_class=0), "toy_per_class"),
            (dict(toy_classes=0), "toy_classes"),
            (dict(toy_classes=9), "toy_classes"),
            (dict(toy_height=7), "toy_height"),
            (dict(toy_width=4), "toy_width"),
            (dict(K=5, m=1, toy_classes=1, toy_per_class=4), "toy_per_class"),
            (dict(K=5, m=1, toy_classes=1, toy_per_class=9), "toy_per_class"),
            (dict(K=5, m=1, partition="label-skew", toy_classes=2,
                  toy_per_class=9), "toy_per_class")):
        with pytest.raises(ConfigError, match=f"'{key}'"):
            ExperimentConfig(**kwargs)
    # just enough: two samples per marked client, four per label-skewed one
    ExperimentConfig(K=5, m=1, toy_classes=1, toy_per_class=10)
    ExperimentConfig(K=5, m=1, partition="label-skew", toy_classes=2,
                     toy_per_class=10)
    # the toy keys do not describe an IDX dataset
    ExperimentConfig(dataset="digits-images.idx3", toy_per_class=0)
    rc = main(["train", "--toy_per_class", "0", "--K", "2", "--m", "2",
               "--output_dir", str(tmp_path / "out")])
    assert rc == 2
    assert "'toy_per_class'" in capsys.readouterr().err


def test_round_trip_lossless():
    cfg = ExperimentConfig(task="classify", method="fedavg-ft", K=9, m=4,
                           lr_eta=0.00125, hidden_dims=(48,), head_hidden=(),
                           partition="label-skew", concentration=0.3,
                           output_dir="runs/exp one")
    assert ExperimentConfig.from_text(cfg.to_text()) == cfg


def test_comments_and_blank_lines(tmp_path):
    cfg = load_config(write_cfg(tmp_path, "# comment\n\nrounds = 7 # tail\n"))
    assert cfg.rounds == 7


def test_repeated_key_named_with_both_lines(tmp_path):
    with pytest.raises(ConfigError, match="line 4: config key 'K' repeats "
                       "line 1"):
        load_config(write_cfg(tmp_path, "K = 4\nm = 2\n# K = 6\nK = 8\n"))
    # a flag or FEDDVA_OUTPUT_DIR still replaces the value the text sets
    assert ExperimentConfig.from_text("K = 4\nm = 2\n", {"K": "8"}).K == 8


FLOAT_KEYS = [f.name for f in fields(ExperimentConfig) if f.type == "float"]


@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_float_named(key):
    # lr_eta = inf trained to NaN and wrote bare NaN tokens, which are not
    # JSON, into history.jsonl
    for text in ("inf", "-inf", "nan"):
        with pytest.raises(ConfigError, match=f"config key '{key}'"):
            ExperimentConfig.from_text(f"{key} = {text}\n")


def test_seed_and_activation_named_before_the_run(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["train", "--seed", "-1", "--output_dir", out]) == 2
    assert "config key 'seed'" in capsys.readouterr().err
    # every network is ReLU: argparse refuses the flag by name
    with pytest.raises(SystemExit) as info:
        main(["train", "--activation", "relu", "--output_dir", out])
    assert info.value.code == 2
    assert "unrecognized arguments: --activation" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("key", ["dataset", "idx_labels", "output_dir"])
def test_text_values_config_text_cannot_carry_named(key):
    # '#' starts a comment, a line break a new key, and the parser strips
    # each value: config.txt would reload any of these as another value
    for bad in ("runs/a#b", "runs/x\nrounds = 3", "runs/x\r", " runs/x",
                "runs/x "):
        with pytest.raises(ConfigError, match=f"config key '{key}'"):
            ExperimentConfig(**{key: bad})


# -------------------------------------------------------------------- CLI


def test_train_writes_history_and_manifest(tmp_path):
    out = tmp_path / "run"
    cfg = load_config(write_cfg(tmp_path, FAST + f"output_dir = {out}\n"))
    assert cmd_train(cfg) == 0
    lines = (out / "history.jsonl").read_text().strip().splitlines()
    assert len(lines) == cfg.rounds
    rounds = [json.loads(l)["round"] for l in lines]
    assert rounds == [1, 2, 3]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == cfg.seed
    assert "config" in manifest
    assert (out / "checkpoints" / "round_00003" / "shared.ckpt").exists()
    plan = json.loads((out / "partition.json").read_text())
    assert plan["scheme"] == "uniform-with-marks"
    assert sorted(int(k) for k in plan["assignments"]) == [0, 1]


def _history_without_walltime(path):
    """History rows without their timing fields (wall_time, update_s,
    phase1_s, phase2_s)."""
    rows = []
    for line in Path(path).read_text().strip().splitlines():
        d = json.loads(line)
        d.pop("wall_time")
        for stats in d["clients"].values():
            for key in ("update_s", "phase1_s", "phase2_s"):
                stats.pop(key)
        rows.append(d)
    return rows


def test_train_rerun_identical_metrics(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        cfg = load_config(write_cfg(tmp_path, FAST + f"output_dir = {out}\n"))
        cmd_train(cfg)
        outs.append(out)
    assert _history_without_walltime(outs[0] / "history.jsonl") == \
        _history_without_walltime(outs[1] / "history.jsonl")
    a = (outs[0] / "checkpoints/round_00003/shared.ckpt").read_bytes()
    b = (outs[1] / "checkpoints/round_00003/shared.ckpt").read_bytes()
    assert a == b


def test_fingerprint_script_hashes_each_part_of_a_run(tmp_path):
    out = tmp_path / "run"
    cfg = load_config(write_cfg(tmp_path, FAST + f"output_dir = {out}\n"))
    cmd_train(cfg)
    cmd_eval(cfg)
    script = Path(__file__).resolve().parent.parent / "scripts/fingerprint.py"
    lines = subprocess.run([sys.executable, str(script), str(out)],
                           capture_output=True, text=True,
                           check=True).stdout.splitlines()
    got = dict(reversed(line.split("  ", 1)) for line in lines)
    ckpt = out / "checkpoints/round_00003"
    _, _, theta = load_checkpoint(ckpt / "shared.ckpt")
    history = "".join(json.dumps(row, sort_keys=True) + "\n" for row in
                      _history_without_walltime(out / "history.jsonl"))
    assert got.pop("theta") == hashlib.sha256(theta.tobytes()).hexdigest()
    assert got.pop("history.jsonl") == \
        hashlib.sha256(history.encode()).hexdigest()
    files = [ckpt / "shared.ckpt", *ckpt.glob("client_*.ckpt"),
             out / "config.txt", out / "partition.json",
             *(out / "eval").iterdir()]
    assert got == {str(f.relative_to(out)):
                   hashlib.sha256(f.read_bytes()).hexdigest() for f in files}


def test_manifest_replays_to_same_result(tmp_path):
    out = tmp_path / "orig"
    cfg = load_config(write_cfg(tmp_path, FAST + f"output_dir = {out}\n"))
    cmd_train(cfg)
    manifest = json.loads((out / "manifest.json").read_text())
    replay_cfg = ExperimentConfig.from_text(manifest["config"])
    replay_cfg.output_dir = str(tmp_path / "replay")
    cmd_train(replay_cfg)
    assert _history_without_walltime(out / "history.jsonl") == \
        _history_without_walltime(tmp_path / "replay" / "history.jsonl")


def test_resume_continues_identically(tmp_path):
    full_out = tmp_path / "full"
    cfg_full = load_config(write_cfg(tmp_path, FAST + f"output_dir = {full_out}\n"))
    cmd_train(cfg_full)

    part_out = tmp_path / "part"
    cfg_part = load_config(write_cfg(tmp_path, FAST + f"output_dir = {part_out}\n"))
    cfg_part.rounds = 2
    cmd_train(cfg_part)
    cfg_resume = load_config(write_cfg(tmp_path, FAST + f"output_dir = {part_out}\n"))
    cmd_train(cfg_resume, resume=True)

    a = (full_out / "checkpoints/round_00003/shared.ckpt").read_bytes()
    b = (part_out / "checkpoints/round_00003/shared.ckpt").read_bytes()
    assert a == b
    assert _history_without_walltime(full_out / "history.jsonl")[-1] == \
        _history_without_walltime(part_out / "history.jsonl")[-1]


def test_a_run_with_no_round_left_starts_no_executor(tmp_path, monkeypatch):
    entered = []
    enter = federation.ClientExecutor.__enter__

    def counted(executor):
        entered.append(executor.n_procs)
        return enter(executor)

    out = tmp_path / "run"
    cfg = load_config(write_cfg(tmp_path, FAST + f"output_dir = {out}\n"))
    cmd_train(cfg)
    table = FINGERPRINT(out)
    monkeypatch.setattr(federation.ClientExecutor, "__enter__", counted)
    # --resume of a finished run has no round to train
    assert cmd_train(cfg, resume=True) == 0
    assert entered == [] and FINGERPRINT(out) == table
    # nor has a fresh run of zero rounds
    zero = FAST.replace("rounds = 3", "rounds = 0")
    cfg = load_config(write_cfg(tmp_path, zero + "output_dir = "
                                f"{tmp_path / 'zero'}\n"))
    assert cmd_train(cfg) == 0 and entered == []
    # fedavg-ft's finalize has no epoch to fine-tune at ft_epochs = 0
    ft = ExperimentConfig(task="classify", method="fedavg-ft", K=2, m=2,
                          rounds=1, epochs_per_phase=1, batch_size=16,
                          toy_per_class=16, toy_classes=2, toy_height=8,
                          toy_width=8, hidden_dims=(8,), d_z=2, d_c=2,
                          partition="label-skew", ft_epochs=0, seed=3)
    state = run_experiment(ft)
    assert len(entered) == 1  # the round's, not finalize's
    assert all(s.model.flatten_shared().tobytes() == state.theta.tobytes()
               for s in state.shards)


def test_resume_warns_on_changed_numeric_stack(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = load_config(write_cfg(tmp_path, FAST + f"output_dir = {out}\n"))
    cfg.rounds = 2
    cmd_train(cfg)
    cfg.rounds = 3
    cmd_train(cfg, resume=True)  # same stack: no warning
    assert "warning" not in capsys.readouterr().err

    path = out / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["numpy"] = "0.0.1"
    manifest["blas_threads"] = {"OPENBLAS_NUM_THREADS": "64",
                                "OMP_NUM_THREADS": None}
    path.write_text(json.dumps(manifest))
    cmd_train(cfg, resume=True)
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    changed = err[0].split("not bitwise: ", 1)[1].split("; ")
    assert [c.split()[0] for c in changed] == ["numpy"]
    assert changed[0].startswith("numpy '0.0.1' -> ")
    # the manifest now describes the resuming process again
    assert json.loads(path.read_text())["numpy"] == np.__version__


def test_resume_ignores_changed_inherited_blas_threads(tmp_path, capsys,
                                                      monkeypatch):
    # training pins its own count, so the inherited one leaves the bits alone
    monkeypatch.setattr(blas, "can_pin", lambda: True)
    out = tmp_path / "run"
    cfg = load_config(write_cfg(tmp_path, FAST + f"output_dir = {out}\n"))
    cfg.rounds = 2
    cmd_train(cfg)
    path = out / "manifest.json"

    def resume_with_blas_threads(threads):
        manifest = json.loads(path.read_text())
        manifest["blas_threads"] = {"OPENBLAS_NUM_THREADS": threads,
                                    "OMP_NUM_THREADS": None}
        path.write_text(json.dumps(manifest))
        cmd_train(cfg, resume=True)
        return capsys.readouterr().err.splitlines()

    assert resume_with_blas_threads("64") == []
    # where it cannot pin, training runs at the inherited count
    monkeypatch.setattr(blas, "can_pin", lambda: False)
    err = resume_with_blas_threads("63")
    assert len(err) == 1
    assert err[0].split("not bitwise: ", 1)[1].startswith(
        "blas_threads {'OPENBLAS_NUM_THREADS': '63'")


def test_manifest_records_workers(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = load_config(write_cfg(tmp_path, FAST + f"output_dir = {out}\n"))
    cfg.rounds = 2
    cmd_train(cfg)
    path = out / "manifest.json"
    manifest = json.loads(path.read_text())
    assert manifest["workers"] == worker_count(cfg.m)

    # the bits do not depend on the worker count: no warning
    manifest["workers"] = 64
    path.write_text(json.dumps(manifest))
    cfg.rounds = 3
    cmd_train(cfg, resume=True)
    assert "warning" not in capsys.readouterr().err
    manifest = json.loads(path.read_text())
    assert manifest["workers"] == worker_count(cfg.m)

    # nor on the training thread count that older manifests recorded
    manifest["train_blas_threads"] = 1
    path.write_text(json.dumps(manifest))
    cmd_train(cfg, resume=True)
    assert capsys.readouterr().err == ""
    assert "train_blas_threads" not in json.loads(path.read_text())


def _resume_matches_full_run(tmp_path, kill) -> None:
    """Train FAST in full, then again in the same directory with `kill(out)`
    applied to the finished run's files; --resume must then give the full
    run's fingerprint table."""
    out = tmp_path / "run"
    cfg = load_config(write_cfg(tmp_path, FAST + f"output_dir = {out}\n"))
    cmd_train(cfg)
    full = FINGERPRINT(out)
    shutil.rmtree(out)
    cmd_train(cfg)
    kill(out)
    assert cmd_train(cfg, resume=True) == 0
    assert FINGERPRINT(out) == full


def test_resume_drops_torn_history_line(tmp_path):
    def kill_while_logging_round_3(out):
        # round 3's line half written, its checkpoint never started
        history = out / "history.jsonl"
        text = history.read_text()
        last = text.rstrip("\n").rsplit("\n", 1)[1]
        history.write_text(text[:-len(last) - 1] + last[:len(last) // 2])
        shutil.rmtree(out / "checkpoints/round_00003")

    _resume_matches_full_run(tmp_path, kill_while_logging_round_3)


def test_resume_skips_partial_round_directory(tmp_path):
    def kill_while_saving_round_3(out):
        (out / "checkpoints/round_00003/client_001.ckpt").unlink()

    _resume_matches_full_run(tmp_path, kill_while_saving_round_3)


class _Killed(BaseException):
    """Stands in for a kill: nothing in the program handles it."""


@pytest.mark.parametrize("name", ["config.txt", "manifest.json",
                                  "history.jsonl"])
def test_resume_survives_a_kill_while_resume_rewrites(tmp_path, monkeypatch,
                                                      name):
    # 2 rounds, then --resume --rounds 3 stopped half-way through writing
    # `name` (or a temporary file for it); resuming again must still give
    # the table of a straight 3-round run
    out = tmp_path / "run"
    train = ["train", "--config", str(write_cfg(tmp_path, FAST)),
             "--checkpoint_every", "1", "--output_dir", str(out)]
    assert main(train) == 0
    full = FINGERPRINT(out)
    shutil.rmtree(out)
    assert main(train + ["--rounds", "2"]) == 0
    write_text = Path.write_text

    def torn(path, text, *args, **kwargs):
        if name in path.name:
            write_text(path, text[:len(text) // 2], *args, **kwargs)
            raise _Killed
        return write_text(path, text, *args, **kwargs)

    resume = ["train", "--resume", "--output_dir", str(out), "--rounds", "3"]
    with monkeypatch.context() as patched:
        patched.setattr(Path, "write_text", torn)
        with pytest.raises(_Killed):
            main(resume)
    assert main(resume) == 0
    assert FINGERPRINT(out) == full


def _hook_writes(monkeypatch, out: Path, crash_at: int | None) -> list[str]:
    """Record every file-system write under out: each open for writing,
    os.replace and os.mkdir, in order. Write number crash_at (from 0)
    raises _Killed instead: an open after it has created or truncated its
    file, a rename or mkdir before it happens."""
    real_open, real_replace, real_mkdir = io.open, os.replace, os.mkdir
    writes = []

    def hit(kind, path) -> bool:
        if not isinstance(path, (str, os.PathLike)) or not (
                str(path) == str(out)
                or str(path).startswith(f"{out}{os.sep}")):
            return False
        writes.append(f"{kind} {Path(path).relative_to(out)}")
        return len(writes) - 1 == crash_at

    def opened(file, mode="r", *args, **kwargs):
        f = real_open(file, mode, *args, **kwargs)
        if set(mode) & set("wax+") and hit("open", file):
            f.close()
            raise _Killed
        return f

    def replaced(src, dst, *args, **kwargs):
        if hit("replace", dst):
            raise _Killed
        return real_replace(src, dst, *args, **kwargs)

    def made(path, *args, **kwargs):
        if hit("mkdir", path):
            raise _Killed
        return real_mkdir(path, *args, **kwargs)

    for owner in (io, builtins):
        monkeypatch.setattr(owner, "open", opened)
    monkeypatch.setattr(os, "replace", replaced)
    monkeypatch.setattr(os, "mkdir", made)
    return writes


def test_resume_recovers_from_a_crash_at_every_write(tmp_path, monkeypatch,
                                                     capsys):
    # a crash at each write a 2-round train makes; resuming, or training
    # afresh where no round directory exists yet, gives the straight run's
    # table
    out = tmp_path / "run"
    train = ["train", "--config", str(write_cfg(tmp_path, FAST)),
             "--rounds", "2", "--checkpoint_every", "1", "--m", "1",
             "--toy_per_class", "8", "--output_dir", str(out)]
    resume = ["train", "--resume", "--output_dir", str(out)]
    with monkeypatch.context() as patched:
        writes = _hook_writes(patched, out, crash_at=None)
        assert main(train) == 0
    full = FINGERPRINT(out)
    first_round = writes.index("replace checkpoints/round_00001")
    for i, write in enumerate(writes):
        shutil.rmtree(out)
        with monkeypatch.context() as patched:
            _hook_writes(patched, out, crash_at=i)
            with pytest.raises(_Killed):
                main(train)
        capsys.readouterr()
        if i <= first_round:
            # nothing to resume; a crash before config.txt leaves no run
            assert main(resume) == 2, write
            err = capsys.readouterr().err
            assert re.fullmatch(r"error: (--resume: no checkpoints|no "
                                r"config\.txt) .*\n", err), (write, err)
            assert main(train) == 0, write
        else:
            assert main(resume) == 0, write
        assert FINGERPRINT(out) == full, f"crash at write {i}: {write}"


def _children(pid: int) -> list[int]:
    """The pids of pid's child processes, read from /proc."""
    kids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            after_name = stat.read_text().rsplit(")", 1)[1].split()
        except (FileNotFoundError, ProcessLookupError):
            continue
        if int(after_name[1]) == pid:
            kids.append(int(stat.parent.name))
    return kids


def _running(pid: int) -> bool:
    """Whether pid is a live process: not gone, and not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not blas.can_pin() or len(os.sched_getaffinity(0)) < 2
                    or not Path("/proc/self/stat").is_file(),
                    reason="needs a BLAS thread setter, 2 cores and /proc "
                    "for a 2-process run")
def test_resume_after_sigkill_of_a_2_process_train(tmp_path, capsys):
    # SIGKILL a real train, parent plus one worker, once before its first
    # checkpoint and twice after, and SIGKILL a --resume inside its
    # rewrites and after its first new history line; each worker must
    # leave quietly, and --resume (or, with nothing to resume, a fresh
    # train) must give the straight run's table
    out = tmp_path / "run"
    # 40 epochs a phase make a round last about 70 ms, long enough for the
    # poll below to kill inside the round after the one it saw end
    train = ["train", "--config", str(write_cfg(tmp_path, FAST)),
             "--K", "4", "--m", "4", "--rounds", "6",
             "--epochs_per_phase", "40", "--checkpoint_every", "2",
             "--hidden_dims", "16", "--output_dir", str(out)]
    resume = ["train", "--resume", "--output_dir", str(out)]
    assert main(train) == 0
    full = FINGERPRINT(out)
    src = Path(feddva.data.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("FEDDVA_OUTPUT_DIR", None)
    two_cores = sorted(os.sched_getaffinity(0))[:2]
    history = out / "history.jsonl"

    def logged() -> int:
        return history.read_text().count("\n") if history.is_file() else 0

    def inode(name: str) -> int:
        return (out / name).stat().st_ino

    def kill_when(argv, ready, n_workers, pause=0.001) -> None:
        """Run the CLI on two cores and SIGKILL it once ready() holds; it
        must have had n_workers workers, each gone soon after. With none
        expected, /proc is not scanned, so the kill follows ready()."""
        err_path = tmp_path / "stderr.txt"
        with open(err_path, "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "feddva.cli", *argv], env=env,
                stdout=subprocess.DEVNULL, stderr=err,
                preexec_fn=lambda: os.sched_setaffinity(0, two_cores))
        deadline = time.monotonic() + 60
        while (proc.poll() is None and time.monotonic() < deadline
               and not ready()):
            time.sleep(pause)
        workers = _children(proc.pid) if n_workers else []
        proc.kill()
        assert proc.wait() == -9, err_path.read_text()
        assert len(workers) == n_workers, argv
        deadline = time.monotonic() + 2
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not any(map(_running, workers)), argv
        assert "Traceback" not in err_path.read_text(), err_path.read_text()

    before_checkpoint = 0
    for lines in (1, 3, 5):
        shutil.rmtree(out)
        kill_when(train, lambda: logged() >= lines, 1)
        capsys.readouterr()
        if latest_checkpoint(out, 4) is None:
            before_checkpoint += 1
            assert main(resume) == 2
            assert capsys.readouterr().err.startswith(
                "error: --resume: no checkpoints")
            assert main(train) == 0
        elif lines == 3:
            # resume rewrites config.txt first and partition.json last,
            # about 1.5 ms apart; a poll without sleep kills in between
            for _ in range(5):
                old = {name: inode(name)
                       for name in ("config.txt", "partition.json")}
                kill_when(resume, lambda: inode("config.txt")
                          != old["config.txt"], 0, pause=0)
                if inode("partition.json") == old["partition.json"]:
                    break
            else:
                pytest.fail("no kill landed inside resume's rewrites")
            ckpt = latest_checkpoint(out, 4)
            first_new = int(ckpt.name[len("round_"):]) + 1
            before = inode("history.jsonl")
            kill_when(resume, lambda: inode("history.jsonl") != before
                      and logged() >= first_new, 1)
            assert main(resume) == 0
        else:
            assert main(resume) == 0
        assert FINGERPRINT(out) == full, f"killed after {lines} lines"
    assert before_checkpoint == 1


def test_non_finite_loss_stops_train_at_the_last_good_checkpoint(tmp_path,
                                                                capsys):
    out = tmp_path / "run"
    argv = ["train", "--K", "2", "--m", "2", "--rounds", "2",
            "--epochs_per_phase", "1", "--batch_size", "16",
            "--toy_per_class", "8", "--toy_classes", "2", "--toy_height", "8",
            "--toy_width", "8", "--hidden_dims", "8", "--seed", "1",
            "--lr_eta", "1e6", "--lr_lambda", "1e6", "--checkpoint_every", "1",
            "--output_dir", str(out)]
    message = re.compile(r"^error: client \d failed in round 2: "
                         r"FloatingPointError: non-finite loss \S+ in phase "
                         r"[12], epoch 1, batch \d+$", re.M)
    for args in (argv, ["train", "--resume", "--output_dir", str(out)]):
        with np.errstate(all="ignore"):
            assert main(args) == 2
        err = capsys.readouterr().err
        assert message.search(err) and "Traceback" not in err
        # round 2 left no history line and no checkpoint, so a resume
        # starts from round 1's and fails the same way
        rows = [json.loads(line, parse_constant=pytest.fail) for line in
                (out / "history.jsonl").read_text().splitlines()]
        assert [row["round"] for row in rows] == [1]
        assert [d.name for d in (out / "checkpoints").iterdir()] == \
            ["round_00001"]


# label-skewed and large enough that fedavg-ft's fine-tune changes accuracy
SKEW = """
K = 3
m = 2
rounds = 3
epochs_per_phase = 1
batch_size = 16
toy_per_class = 30
toy_classes = 3
toy_height = 8
toy_width = 8
hidden_dims = 12
d_z = 2
d_c = 2
xi_scale = 0.05
lr_lambda = 0.02
seed = 3
checkpoint_every = 2
partition = label-skew
concentration = 0.5
ft_epochs = 3
"""


@pytest.mark.parametrize("task,method", [
    ("classify", "feddva"), ("classify", "fedavg"), ("classify", "fedavg-ft"),
    ("reconstruct", "vanilla-vae")])
def test_eval_scores_the_model_training_produced(tmp_path, task, method):
    out = tmp_path / "run"
    cfg = load_config(write_cfg(tmp_path, SKEW + f"task = {task}\n"
                                f"method = {method}\noutput_dir = {out}\n"))
    cmd_train(cfg)
    state = run_experiment(cfg)
    ckpt = out / "checkpoints" / f"round_{cfg.rounds:05d}"
    for s in state.shards:
        _, _, local = load_checkpoint(ckpt / f"client_{s.id:03d}.ckpt")
        assert local.tobytes() == s.model.flatten_local().tobytes()
    if task == "classify":
        cmd_eval(cfg)
        accs, mean, std = accuracy_per_client(
            state.shards, latents=cfg.classifier_latents)
        export_accuracy_csv(accs, mean, std, tmp_path / "in_memory.csv")
        assert (out / "eval" / "accuracy.csv").read_text() == \
            (tmp_path / "in_memory.csv").read_text()


def test_eval_outputs_and_determinism(tmp_path):
    out = tmp_path / "run"
    cfg = load_config(write_cfg(tmp_path, FAST + f"output_dir = {out}\n"))
    cmd_train(cfg)
    assert cmd_eval(cfg) == 0
    eval_dir = out / "eval"
    report = json.loads((eval_dir / "report.json").read_text())
    for key in ("separation_ratio_z", "separation_ratio_c",
                "constraint_estimate_per_client", "fraction_constraint_met",
                "xi", "ratio_c_over_z"):
        assert key in report
    grid = parse_pgm(eval_dir / "traversal_client000.pgm")
    assert grid.shape == (3 * 8 + 2, 3 * 8 + 2)
    first = {p.name: p.read_bytes() for p in eval_dir.iterdir()}
    cmd_eval(cfg)
    second = {p.name: p.read_bytes() for p in eval_dir.iterdir()}
    assert first == second


def test_eval_of_a_one_client_run_writes_every_artifact(tmp_path):
    out = tmp_path / "run"
    assert main(["train", "--K", "1", "--m", "1", "--rounds", "1",
                 "--epochs_per_phase", "1", "--batch_size", "16",
                 "--toy_per_class", "8", "--toy_classes", "2",
                 "--toy_height", "8", "--toy_width", "8", "--hidden_dims", "8",
                 "--seed", "1", "--output_dir", str(out)]) == 0
    assert main(["eval", "--output_dir", str(out)]) == 0
    eval_dir = out / "eval"
    assert sorted(p.name for p in eval_dir.iterdir()) == [
        "embeddings.csv", "report.json", "traversal_client000.pgm"]
    report = json.loads((eval_dir / "report.json").read_text())
    # one client: a constraint estimate, nothing to separate
    assert len(report["constraint_estimate_per_client"]) == 1
    assert np.isfinite(report["constraint_estimate_per_client"][0])
    for key in ("separation_ratio_z", "separation_ratio_c", "ratio_c_over_z"):
        assert report[key] is None, key


TINY = ["--K", "2", "--m", "2", "--epochs_per_phase", "1", "--batch_size",
        "16", "--toy_classes", "2", "--toy_height", "8", "--toy_width", "8",
        "--hidden_dims", "8", "--seed", "1"]


def test_eval_of_a_classify_run_with_no_held_out_rows(tmp_path):
    out = tmp_path / "run"
    assert main(["train", *TINY, "--task", "classify", "--rounds", "1",
                 "--toy_per_class", "12", "--d_z", "2", "--d_c", "2",
                 "--holdout_frac", "0", "--output_dir", str(out)]) == 0
    row = json.loads((out / "history.jsonl").read_text())
    assert [c["accuracy"] for c in row["clients"].values()] == [None, None]
    assert main(["eval", "--output_dir", str(out)]) == 0
    assert (out / "eval" / "accuracy.csv").read_text().splitlines() == [
        "client_id,accuracy", "0,", "1,", "mean,", "stddev,"]


def test_eval_report_of_a_run_with_no_spread_is_json(tmp_path):
    # zero-initialised posterior heads: every mean is 0, so both separation
    # ratios read 0 and their ratio has a zero denominator
    out = tmp_path / "run"
    assert main(["train", *TINY, "--rounds", "0", "--toy_per_class", "8",
                 "--output_dir", str(out)]) == 0
    assert main(["eval", "--output_dir", str(out)]) == 0
    report = json.loads((out / "eval" / "report.json").read_text(),
                        parse_constant=pytest.fail)
    assert (report["separation_ratio_z"], report["separation_ratio_c"],
            report["ratio_c_over_z"]) == (0.0, 0.0, None)


def test_eval_of_a_diverged_checkpoint_exits_before_its_report(tmp_path,
                                                               capsys):
    # the lr 1e6 run fails in round 2; round 1's c log-variances are finite
    # but overflow the constraint estimate
    out = tmp_path / "run"
    with np.errstate(all="ignore"):
        assert main(["train", *TINY, "--rounds", "2", "--toy_per_class", "8",
                     "--lr_eta", "1e6", "--lr_lambda", "1e6",
                     "--checkpoint_every", "1", "--output_dir", str(out)]) == 2
        capsys.readouterr()
        assert main(["eval", "--output_dir", str(out)]) == 2
    assert re.fullmatch(r"error: clustering_report: constraint estimate of "
                        r"client 0 is nan: .*\n", capsys.readouterr().err)
    assert not (out / "eval" / "report.json").exists()


DIVERGING = [*TINY, "--rounds", "2", "--toy_per_class", "8", "--lr_eta",
             "1e6", "--lr_lambda", "1e6", "--checkpoint_every", "1"]


def test_diverging_train_prints_only_its_error(tmp_path, capsys,
                                               monkeypatch):
    # every client in this process, where the filter below applies
    monkeypatch.setattr(federation, "available_cores", lambda: 1)
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["train", *DIVERGING, "--output_dir", str(out)]) == 2
    assert re.fullmatch(r"error: client 0 failed in round 2: "
                        r"FloatingPointError: non-finite loss nan in phase "
                        r"1, epoch 1, batch 1\n", capsys.readouterr().err)


def test_eval_of_a_diverged_checkpoint_prints_only_its_error(tmp_path,
                                                             capsys):
    out = tmp_path / "run"
    with np.errstate(all="ignore"):
        assert main(["train", *DIVERGING, "--output_dir", str(out)]) == 2
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["eval", "--output_dir", str(out)]) == 2
    assert re.fullmatch(r"error: clustering_report: constraint estimate of "
                        r"client 0 is nan: .*\n", capsys.readouterr().err)


def test_eval_untrained_checkpoint_chance_accuracy(tmp_path):
    out = tmp_path / "run"
    text = FAST.replace("task = reconstruct", "task = classify") \
        .replace("rounds = 3", "rounds = 0") \
        .replace("toy_per_class = 16", "toy_per_class = 60")
    cfg = load_config(write_cfg(tmp_path, text + f"output_dir = {out}\n"))
    cmd_train(cfg)
    cmd_eval(cfg)
    rows = (out / "eval" / "accuracy.csv").read_text().strip().splitlines()
    mean = float([r for r in rows if r.startswith("mean")][0].split(",")[1])
    assert abs(mean - 0.5) < 0.25  # 2 classes, untrained: near chance


def test_eval_missing_checkpoint_errors(tmp_path):
    cfg = ExperimentConfig(output_dir=str(tmp_path / "nothing"))
    with pytest.raises(ConfigError, match="no checkpoint"):
        cmd_eval(cfg)


def test_eval_rejects_checkpoint_dir_not_named_by_round(tmp_path, capsys,
                                                        monkeypatch):
    def no_init(cfg):
        raise AssertionError("init_run ran before the directory name check")

    monkeypatch.setattr("feddva.cli.blank_run", no_init)
    (tmp_path / "config.txt").write_text(ExperimentConfig().to_text())
    for name in ("best", "round_final"):
        ckpt = tmp_path / name
        ckpt.mkdir()
        rc = main(["eval", "--output_dir", str(tmp_path),
                   "--checkpoint-dir", str(ckpt)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "round_NNNNN" in err and name in err


def test_eval_rejects_client_checkpoint_of_another_architecture(tmp_path):
    runs = {}
    for d_z, d_c in ((2, 4), (4, 2)):
        out = tmp_path / f"z{d_z}c{d_c}"
        runs[d_z] = out
        cmd_train(load_config(write_cfg(
            tmp_path, FAST.replace("rounds = 3", "rounds = 1")
            .replace("d_z = 2", f"d_z = {d_z}").replace("d_c = 2", f"d_c = {d_c}")
            + f"output_dir = {out}\n")))
    ckpt = runs[2] / "checkpoints" / "round_00001"
    foreign = runs[4] / "checkpoints" / "round_00001" / "client_000.ckpt"
    # the decoder vectors have equal lengths, so only the header tells
    assert load_checkpoint(foreign)[2].size == \
        load_checkpoint(ckpt / "client_000.ckpt")[2].size
    shutil.copy(foreign, ckpt / "client_000.ckpt")
    cfg = load_config(write_cfg(tmp_path, FAST.replace("d_c = 2", "d_c = 4")
                                + f"output_dir = {runs[2]}\n"))
    with pytest.raises(ConfigError, match="client_000.ckpt"):
        cmd_eval(cfg)


def test_eval_rejects_checkpoint_of_the_wrong_kind(tmp_path):
    out = tmp_path / "run"
    cfg = load_config(write_cfg(tmp_path, FAST.replace("rounds = 3", "rounds = 1")
                                + f"output_dir = {out}\n"))
    cmd_train(cfg)
    ckpt = out / "checkpoints" / "round_00001"
    kind, arch, theta = load_checkpoint(ckpt / "shared.ckpt")
    save_checkpoint(ckpt / "shared.ckpt", "local", arch, theta)
    with pytest.raises(ConfigError, match="shared.ckpt.*'local'"):
        cmd_eval(cfg)
    save_checkpoint(ckpt / "shared.ckpt", kind, arch, theta)
    _, arch, local = load_checkpoint(ckpt / "client_001.ckpt")
    save_checkpoint(ckpt / "client_001.ckpt", "shared", arch, local)
    with pytest.raises(ConfigError, match="client_001.ckpt.*'shared'"):
        cmd_eval(cfg)


def test_eval_exits_2_on_a_checkpoint_header_missing_a_key(tmp_path, capsys):
    out = tmp_path / "run"
    cmd_train(load_config(write_cfg(
        tmp_path, FAST.replace("rounds = 3", "rounds = 1")
        + f"output_dir = {out}\n")))
    path = out / "checkpoints" / "round_00001" / "shared.ckpt"
    raw = path.read_bytes()
    # drop the hidden_dims item; the header-length field shrinks to match
    item = b"hidden_dims=12;"
    header_len = int.from_bytes(raw[5:9], "little") - len(item)
    path.write_bytes(raw[:5] + header_len.to_bytes(4, "little")
                     + raw[9:].replace(item, b"", 1))
    assert main(["eval", "--output_dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{path}: malformed header at byte 9" in err
    assert "hidden_dims" in err


def _train_fast(tmp_path, name, rounds):
    """Train FAST (K=2, 8x8 toy digits: not the defaults) for `rounds`."""
    out = tmp_path / name
    cfg = load_config(write_cfg(tmp_path, FAST + f"output_dir = {out}\n"))
    cfg.rounds = rounds
    cmd_train(cfg)
    return cfg, out


def _files(root):
    return {p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_eval_reads_the_run_config(tmp_path, monkeypatch):
    cfg, out = _train_fast(tmp_path, "run", 3)
    cmd_eval(cfg)
    expected = _files(out / "eval")
    shutil.rmtree(out / "eval")
    assert main(["eval", "--output_dir", str(out)]) == 0
    assert _files(out / "eval") == expected

    # a moved run is read from where it is now, not its stored output_dir
    moved = tmp_path / "moved"
    shutil.move(out, moved)
    shutil.rmtree(moved / "eval")
    monkeypatch.setenv("FEDDVA_OUTPUT_DIR", str(moved))
    assert main(["eval"]) == 0
    assert _files(moved / "eval") == expected
    assert not out.exists()

    # the keys that shape the report stay free
    assert main(["eval", "--traversal_steps", "2"]) == 0
    grid = parse_pgm(moved / "eval" / "traversal_client000.pgm")
    assert grid.shape == (2 * 8 + 1, 2 * 8 + 1)


def test_eval_encodes_each_shard_once(tmp_path, monkeypatch):
    out = tmp_path / "run"
    text = FAST.replace("K = 2", "K = 3").replace("m = 2", "m = 3")
    cfg = load_config(write_cfg(tmp_path, text + f"output_dir = {out}\n"))
    cmd_train(cfg)
    encoded = []
    posteriors = DvaModel.posteriors

    def counted(model, x):
        encoded.append(x.shape[0])
        return posteriors(model, x)

    monkeypatch.setattr(DvaModel, "posteriors", counted)
    assert cmd_eval(cfg) == 0
    assert len(encoded) == cfg.K


@pytest.mark.parametrize("text", [FAST, SKEW + "task = classify\n"],
                         ids=["reconstruct", "classify"])
def test_eval_records_no_graph_node(tmp_path, text):
    out = tmp_path / "run"
    cfg = load_config(write_cfg(tmp_path, text + f"output_dir = {out}\n"))
    cmd_train(cfg)
    before = next(ad._creation)
    assert cmd_eval(cfg) == 0
    # a recorded node would have taken the next creation index
    assert next(ad._creation) == before + 1


def test_load_state_draws_no_init_weights(tmp_path, monkeypatch):
    cfg, out = _train_fast(tmp_path, "run", 2)
    ckpt = out / "checkpoints" / "round_00002"
    labels = []
    make_rng = federation.make_rng

    def recorded(seed, *parts):
        labels.append(parts[0])
        return make_rng(seed, *parts)

    monkeypatch.setattr(federation, "make_rng", recorded)
    state = load_state(cfg, ckpt)
    assert {"client-init", "server-init"}.isdisjoint(labels)
    assert np.array_equal(state.theta,
                          load_checkpoint(ckpt / "shared.ckpt")[2])
    for s in state.shards:
        # the shared group holds zeros until theta is loaded into it
        assert not s.model.flatten_shared().any()
        assert np.array_equal(s.model.flatten_local(), load_checkpoint(
            ckpt / f"client_{s.id:03d}.ckpt")[2])


def test_fresh_train_drops_the_old_runs_checkpoints_and_eval(tmp_path):
    cfg_path = write_cfg(tmp_path, FAST)

    def train(out, rounds, seed):
        return main(["train", "--config", str(cfg_path), "--rounds", rounds,
                     "--seed", seed, "--output_dir", str(out)])

    out, ref = tmp_path / "run", tmp_path / "ref"
    assert train(out, "4", "1") == 0
    assert main(["eval", "--output_dir", str(out)]) == 0
    assert train(out, "2", "7") == 0
    assert [p.name for p in (out / "checkpoints").iterdir()] == ["round_00002"]
    assert not (out / "eval").exists()
    # eval and --resume then see only the seed-7 run, as if trained afresh
    assert train(ref, "2", "7") == 0
    for run in (out, ref):
        assert main(["eval", "--output_dir", str(run)]) == 0
    assert _files(out / "eval") == _files(ref / "eval")
    for run in (out, ref):
        assert main(["train", "--resume", "--output_dir", str(run),
                     "--rounds", "5"]) == 0
    history = _history_without_walltime(out / "history.jsonl")
    assert [row["round"] for row in history] == [1, 2, 3, 4, 5]
    assert history == _history_without_walltime(ref / "history.jsonl")
    ckpt = "checkpoints/round_00005/shared.ckpt"
    assert (out / ckpt).read_bytes() == (ref / ckpt).read_bytes()


def test_eval_rejects_config_flags(tmp_path, capsys):
    cfg, out = _train_fast(tmp_path, "run", 1)
    cmd_eval(cfg)
    before = _files(out / "eval")
    for flags in (["--seed", "9"], ["--toy_per_class", "12"],
                  ["--config", str(out / "config.txt")]):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--output_dir", str(out), *flags])
        assert exc.value.code == 2
        assert flags[0] in capsys.readouterr().err
    assert _files(out / "eval") == before


def test_eval_needs_the_run_config(tmp_path, capsys):
    assert main(["eval", "--output_dir", str(tmp_path)]) == 2
    assert "config.txt" in capsys.readouterr().err


def test_resume_reads_the_run_config(tmp_path):
    full_cfg, full = _train_fast(tmp_path, "full", 3)
    _, part = _train_fast(tmp_path, "part", 2)
    assert main(["train", "--resume", "--output_dir", str(part),
                 "--rounds", "3"]) == 0
    ckpt = "checkpoints/round_00003/shared.ckpt"
    assert (full / ckpt).read_bytes() == (part / ckpt).read_bytes()
    assert _history_without_walltime(full / "history.jsonl") == \
        _history_without_walltime(part / "history.jsonl")
    full_cfg.output_dir = str(part)
    assert load_config(part / "config.txt") == full_cfg


def test_resume_rejects_config_flags(tmp_path, capsys):
    _, out = _train_fast(tmp_path, "run", 2)
    before = _files(out)
    for flags in (["--seed", "9"], ["--seed", "9", "--toy_per_class", "12"],
                  ["--config", str(write_cfg(tmp_path, FAST))]):
        rc = main(["train", "--resume", "--output_dir", str(out),
                   "--rounds", "3", *flags])
        assert rc == 2
        err = capsys.readouterr().err
        assert all(f in err for f in flags if f.startswith("--"))
        assert "--rounds" not in err.split("got ", 1)[1]
    # --rounds may extend the run, not end it before its checkpoint
    assert main(["train", "--resume", "--output_dir", str(out),
                 "--rounds", "1"]) == 2
    assert "'rounds'" in capsys.readouterr().err
    # config.txt, manifest.json, history and checkpoints as they were
    assert _files(out) == before


def test_cli_main_selftest_and_errors(tmp_path, capsys):
    assert main(["selftest"]) == 0
    assert main(["train", "--rounds", "not-a-number"]) == 2


def test_cli_flag_overrides(tmp_path):
    out = tmp_path / "flags"
    rc = main(["train", "--rounds", "0", "--K", "2", "--m", "2",
               "--toy_per_class", "8", "--toy_height", "8",
               "--toy_width", "8", "--hidden_dims", "8",
               "--d_z", "2", "--d_c", "2",
               "--output_dir", str(out)])
    assert rc == 0
    assert (out / "config.txt").read_text().find("rounds = 0") >= 0


def test_flag_values_are_checked_before_comments_are_cut(tmp_path, capsys,
                                                        monkeypatch):
    small = ["--rounds", "0", "--K", "2", "--m", "2", "--toy_per_class", "8",
             "--toy_height", "8", "--toy_width", "8", "--hidden_dims", "8",
             "--d_z", "2", "--d_c", "2"]
    for flags, key in (
            (["--output_dir", str(tmp_path / "a#b")], "output_dir"),
            (["--output_dir", str(tmp_path / "run"),
              "--dataset", str(tmp_path / "x#1.idx")], "dataset")):
        assert main(["train", *small, *flags]) == 2
        assert f"config key '{key}'" in capsys.readouterr().err
    monkeypatch.setenv("FEDDVA_OUTPUT_DIR", str(tmp_path / "e#f"))
    assert main(["train", *small]) == 2
    assert "config key 'output_dir'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []  # no run in a, e or run


def test_env_var_overrides_output_dir(tmp_path, monkeypatch):
    out = tmp_path / "envdir"
    monkeypatch.setenv("FEDDVA_OUTPUT_DIR", str(out))
    rc = main(["train", "--rounds", "0", "--K", "2", "--m", "2",
               "--toy_per_class", "8", "--toy_height", "8",
               "--toy_width", "8", "--hidden_dims", "8",
               "--d_z", "2", "--d_c", "2"])
    assert rc == 0
    assert out.exists()


# -------------------------------------------------------------- selftest


def test_selftest_passes_and_is_fast():
    lines = []
    start = time.monotonic()
    assert run_selftest(out=lines.append) == 0
    assert time.monotonic() - start < 60
    assert all(l.startswith("[ok]") for l in lines[:-1])


def test_selftest_catches_mutated_kl(monkeypatch):
    # the bound training runs, off by a constant: every gradient holds
    exact = feddva.gaussians.mixture_bound_batch_mean

    def shifted(batch):
        return ad.shift(exact(batch), 0.5)

    monkeypatch.setattr(feddva.gaussians, "mixture_bound_batch_mean", shifted)
    lines = []
    assert run_selftest(out=lines.append) == 1
    assert [l.split(":")[0] for l in lines if l.startswith("[FAIL]")] == [
        "[FAIL] kl-closed-forms-vs-monte-carlo"]


def test_selftest_catches_mutated_mixture_kl_estimator(monkeypatch):
    exact = feddva.metrics.mixture_kl_to_standard_mc

    def off_by_a_millionth(mus, sigmas, n_samples, rng):
        return exact(mus, sigmas, n_samples, rng) * (1.0 + 1e-6)

    monkeypatch.setattr(feddva.metrics, "mixture_kl_to_standard_mc",
                        off_by_a_millionth)
    lines = []
    assert run_selftest(out=lines.append) == 1
    assert [l.split(":")[0] for l in lines if l.startswith("[FAIL]")] == [
        "[FAIL] mixture-kl-estimator"]


def test_selftest_catches_swapped_toy_digit_jitter_halves(monkeypatch):
    # dy from the high half of each first raw and dx from the low half:
    # the block still decodes, but not the stream Generator.integers reads
    exact = feddva.data._jitter_draws
    monkeypatch.setattr(feddva.data, "_jitter_draws",
                        lambda first: exact(first)[::-1])
    lines = []
    assert run_selftest(out=lines.append) == 1
    assert [l.split(":")[0] for l in lines if l.startswith("[FAIL]")] == [
        "[FAIL] toy-digits-stream"]
