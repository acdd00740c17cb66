import hashlib
import json
import shutil
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import feddva.gaussians
import feddva.metrics
from feddva import blas, federation
from feddva.checkpoint import load_checkpoint, save_checkpoint
from feddva.cli import cmd_eval, cmd_train, load_state, main
from feddva.config import ConfigError, ExperimentConfig, load_config
from feddva.federation import run_experiment, worker_count
from feddva.metrics import accuracy_per_client, export_accuracy_csv, parse_pgm
from feddva.model import DvaModel
from feddva.selftest import run_selftest


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
    for flag, value in (("--seed", "-1"), ("--activation", "gelu")):
        rc = main(["train", flag, value, "--output_dir", str(tmp_path / "out")])
        assert rc == 2
        assert f"config key '{flag[2:]}'" in capsys.readouterr().err
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
    monkeypatch.setattr(blas, "train_threads", lambda: 1)
    out = tmp_path / "run"
    cfg = load_config(write_cfg(tmp_path, FAST + f"output_dir = {out}\n"))
    cfg.rounds = 2
    cmd_train(cfg)
    path = out / "manifest.json"

    def resume_with_blas_threads(threads):
        manifest = json.loads(path.read_text())
        manifest["blas_threads"] = {"OPENBLAS_NUM_THREADS": threads,
                                    "OMP_NUM_THREADS": None}
        manifest["train_blas_threads"] = blas.train_threads()
        path.write_text(json.dumps(manifest))
        cmd_train(cfg, resume=True)
        return capsys.readouterr().err.splitlines()

    assert resume_with_blas_threads("64") == []
    # where it cannot pin, training runs at the inherited count
    monkeypatch.setattr(blas, "train_threads", lambda: None)
    err = resume_with_blas_threads("63")
    assert len(err) == 1
    assert err[0].split("not bitwise: ", 1)[1].startswith(
        "blas_threads {'OPENBLAS_NUM_THREADS': '63'")


def test_manifest_records_workers_and_train_threads(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = load_config(write_cfg(tmp_path, FAST + f"output_dir = {out}\n"))
    cfg.rounds = 2
    cmd_train(cfg)
    path = out / "manifest.json"
    manifest = json.loads(path.read_text())
    assert manifest["workers"] == worker_count(cfg.m)
    assert manifest["train_blas_threads"] == blas.train_threads()
    if blas.can_pin():
        assert manifest["train_blas_threads"] == 1

    # the bits do not depend on the worker count: no warning
    manifest["workers"] = 64
    path.write_text(json.dumps(manifest))
    cfg.rounds = 3
    cmd_train(cfg, resume=True)
    assert "warning" not in capsys.readouterr().err
    manifest = json.loads(path.read_text())
    assert manifest["workers"] == worker_count(cfg.m)

    # they do depend on the training thread count
    manifest["train_blas_threads"] = 64
    path.write_text(json.dumps(manifest))
    cmd_train(cfg, resume=True)
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].split("not bitwise: ", 1)[1].startswith(
        "train_blas_threads 64 -> ")


def _resume_matches_full_run(tmp_path, kill) -> None:
    """Train FAST in full, and again with `kill(out)` applied to the finished
    second run's files; --resume must then reproduce the full run."""
    runs = {name: tmp_path / name for name in ("full", "killed")}
    cfgs = {name: load_config(write_cfg(tmp_path, FAST + f"output_dir = {out}\n"))
            for name, out in runs.items()}
    for cfg in cfgs.values():
        cmd_train(cfg)
    kill(runs["killed"])
    assert cmd_train(cfgs["killed"], resume=True) == 0
    assert _history_without_walltime(runs["full"] / "history.jsonl") == \
        _history_without_walltime(runs["killed"] / "history.jsonl")
    for f in ("shared.ckpt", "client_000.ckpt", "client_001.ckpt"):
        assert (runs["full"] / "checkpoints/round_00003" / f).read_bytes() == \
            (runs["killed"] / "checkpoints/round_00003" / f).read_bytes()


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
    def corrupted(q_i, q_j):
        import feddva.autodiff as ad
        return ad.scale(feddva.gaussians.kl_to_standard(q_i), 2.0)

    monkeypatch.setattr(feddva.gaussians, "kl_pairwise", corrupted)
    lines = []
    assert run_selftest(out=lines.append) == 1
    assert any(l.startswith("[FAIL] kl-closed-forms") for l in lines)


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
