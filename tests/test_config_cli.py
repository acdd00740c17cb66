import json
import shutil
import time
from pathlib import Path

import numpy as np
import pytest

import feddva.gaussians
from feddva import blas
from feddva.checkpoint import load_checkpoint
from feddva.cli import cmd_eval, cmd_train, main
from feddva.config import ConfigError, ExperimentConfig, load_config
from feddva.federation import run_experiment, worker_count
from feddva.metrics import accuracy_per_client, export_accuracy_csv, parse_pgm
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


def test_round_trip_lossless():
    cfg = ExperimentConfig(task="classify", method="fedavg-ft", K=9, m=4,
                           lr_eta=0.00125, hidden_dims=(48,), head_hidden=(),
                           partition="label-skew", concentration=0.3,
                           output_dir="runs/exp one")
    assert ExperimentConfig.from_text(cfg.to_text()) == cfg


def test_comments_and_blank_lines(tmp_path):
    cfg = load_config(write_cfg(tmp_path, "# comment\n\nrounds = 7 # tail\n"))
    assert cfg.rounds == 7


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
    """History rows without their timing fields (wall_time, update_s)."""
    rows = []
    for line in Path(path).read_text().strip().splitlines():
        d = json.loads(line)
        d.pop("wall_time")
        for stats in d["clients"].values():
            stats.pop("update_s")
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
    assert [c.split()[0] for c in changed] == ["numpy", "blas_threads"]
    assert changed[0].startswith("numpy '0.0.1' -> ")
    # the manifest now describes the resuming process again
    assert json.loads(path.read_text())["numpy"] == np.__version__


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
            {s.id: s.model for s in state.shards}, state.shards,
            latents=cfg.classifier_latents)
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

    monkeypatch.setattr("feddva.cli.init_run", no_init)
    for name in ("best", "round_final"):
        ckpt = tmp_path / name
        ckpt.mkdir()
        rc = main(["eval", "--output_dir", str(tmp_path),
                   "--checkpoint-dir", str(ckpt)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "round_NNNNN" in err and name in err


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
