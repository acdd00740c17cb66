"""The workload config files: each runs as the README says, and the
benchmark's copy of each workload matches its file."""

import importlib.util
from pathlib import Path

import pytest

from feddva.cli import main
from feddva.config import ExperimentConfig

ROOT = Path(__file__).resolve().parent.parent
CONFIG_FILES = sorted((ROOT / "configs").glob("*.txt"))


def from_file(path, **overrides):
    return ExperimentConfig.from_text(path.read_text(encoding="utf-8"),
                                      overrides)


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_workloads_match_the_config_files():
    workloads = load_workloads()
    assert sorted(workloads.WORKLOADS) == [p.stem for p in CONFIG_FILES]
    for name in workloads.WORKLOADS:
        for seed in (1, 2, 3):
            assert workloads.make_config(name, seed, "out") == from_file(
                ROOT / "configs" / f"{name}.txt", seed=str(seed),
                output_dir="out"), (name, seed)


@pytest.mark.parametrize("path", CONFIG_FILES, ids=lambda p: p.stem)
def test_config_file_trains_as_the_readme_says(path, tmp_path):
    keys = {line.split("#", 1)[0].split("=", 1)[0].strip()
            for line in path.read_text(encoding="utf-8").splitlines()}
    assert not keys & {"seed", "output_dir"}
    out = str(tmp_path / "run")
    assert main(["train", "--config", str(path), "--seed", "1",
                 "--rounds", "0", "--output_dir", out]) == 0
    expected = from_file(path, seed="1", rounds="0", output_dir=out)
    assert (tmp_path / "run" / "config.txt").read_text() == expected.to_text()
