"""The names the benchmark tracer patches exist and are restored.

perfbench/tracer.py wraps functions by name in the namespaces feddva looks
them up in. Renaming or removing one of those names, or calling a traced
function through a reference the tracer cannot reach, breaks the traced
benchmark run; these tests catch it in the ordinary suite.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from feddva import (autodiff, cli, data, federation, gaussians, losses,
                    metrics, model)
from feddva.config import ExperimentConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER_PATH = PERFBENCH / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def namespaces():
    return {"autodiff": vars(autodiff), "cli": vars(cli), "data": vars(data),
            "federation": vars(federation), "gaussians": vars(gaussians),
            "losses": vars(losses), "metrics": vars(metrics),
            "model": vars(model), "ACTIVATIONS": model.ACTIVATIONS,
            "DvaModel": vars(model.DvaModel)}


def snapshot():
    return {ns: dict(table) for ns, table in namespaces().items()}


def test_tracer_install_then_uninstall_restores_every_name():
    before = snapshot()
    tracer = load_tracer()
    try:
        tracer.install()
        assert tracer._patched
        for owner, attr, original, is_dict in tracer._patched:
            now = owner[attr] if is_dict else getattr(owner, attr)
            assert getattr(now, "__wrapped__", None) is original, attr
    finally:
        tracer.uninstall()
    after = snapshot()
    for ns, table in before.items():
        for name, value in table.items():
            assert after[ns].get(name) is value, f"{ns}.{name} not restored"


def test_traced_run_reaches_the_traced_names(monkeypatch):
    # the tracer sees only this process: run every client here
    monkeypatch.setattr(federation, "available_cores", lambda: 1)
    cfg = ExperimentConfig(task="classify", method="feddva", K=2, m=2,
                           rounds=2, epochs_per_phase=1, batch_size=16,
                           toy_per_class=12, toy_classes=2, toy_height=8,
                           toy_width=8, hidden_dims=(8,), d_z=2, d_c=2,
                           head_hidden=(), partition="label-skew", seed=4)
    tracer = load_tracer()
    try:
        tracer.install()
        state = federation.run_rounds(cfg, federation.init_run(cfg))
    finally:
        tracer.uninstall()
    assert np.all(np.isfinite(state.theta))
    calls = {name: row["calls"] for name, row in tracer.per_name().items()}
    steps = sum(rec.clients[k]["n_batches"]
                for rec in state.history for k in rec.sampled)
    assert calls["federation.client_update"] == cfg.rounds * cfg.m
    assert calls["losses.loss_classifier"] == 2 * steps
    assert calls["losses.loss_feddva"] == 2 * steps
    assert calls["model.classify"] > 0
    assert calls["autodiff.sgd_step"] == 2 * steps
    # the tracer keys client timings by the positional round argument
    assert sorted(tracer.client_update_s) == [1, 2]


def test_traced_eval_reaches_each_eval_layer(tmp_path, monkeypatch):
    # perfbench's eval-layer metrics read these counts; one worker, as the
    # tracer sees only this process
    monkeypatch.setattr(federation, "available_cores", lambda: 1)
    cfg = ExperimentConfig(K=3, m=3, rounds=1, epochs_per_phase=1,
                           batch_size=16, toy_per_class=12, toy_classes=2,
                           toy_height=8, toy_width=8, hidden_dims=(8,),
                           d_z=2, d_c=2, seed=4, traversal_steps=2,
                           output_dir=str(tmp_path))
    cli.cmd_train(cfg)
    tracer = load_tracer()
    try:
        tracer.install()
        cli.cmd_eval(cfg)
    finally:
        tracer.uninstall()
    calls = {name: row["calls"] for name, row in tracer.per_name().items()}
    for name in ("cli.load_state", "data.make_toy_digits",
                 "metrics.clustering_report", "metrics.export_embeddings_csv"):
        assert calls[name] == 1, name
    assert calls["metrics.latent_traversal"] == cfg.K
    assert calls["model.encode_z"] == cfg.K


def test_every_span_the_harness_reads_is_registered(monkeypatch):
    # harness.py imports tracer and workloads as top-level modules
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("harness", "tracer", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    harness = importlib.import_module("harness")
    read = {name.rsplit(".", 1)[0] for name, _, _ in harness.PER_LAYER
            if name.endswith((".calls", ".incl_s", ".self_s"))}
    tracer = harness.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert read and sorted(read - set(tracer.names)) == []
