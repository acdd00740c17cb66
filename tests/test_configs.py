"""The workload config files: each runs as the README says, its round-0
theta is pinned, and the benchmark's copy of each workload matches its
file."""

import hashlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from feddva.cli import main
from feddva.config import ExperimentConfig
from feddva.federation import init_run

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


# seed-1 round 0 of each config file: the length and sha256 (numpy 2.4.6)
# of theta and of the clients' local vectors, concatenated in client order.
# init_run draws theta over the shared layers from the server-init stream
# and each local group from its client-init stream past the shared draws
# that stream starts with, so both keep the bytes of models drawn whole,
# the c encoder's split first weight drawn as the joint one
ROUND_ZERO = {
    "classify": ((35488, "3151f108921e675dabc4b2a7715d54cc"
                         "08a8ffabf8c463dcdb9887095e51a3a2"),
                 (152608, "963652a193a6c4a8fa7d0ace37fbc373"
                          "08eee53255f336948f4a6937d7cfc392")),
    "disentangle": ((34192, "0d18c3039ac54848b486120c3d8e053a"
                            "bf3059850ba479aadba495314616274d"),
                    (68864, "d7b7c0fa326d68d93dcb11523918b9a5"
                            "c013a67ca7db061d7638068c6f2dc012")),
    "fullscale": ((268304, "4efaf8f751ca92b5b022cd4ba64f8b35"
                           "04db6328fd9a3eac31dffbbe89f76a78"),
                  (535552, "418206251bd779ac01ff81a412498745"
                           "4dc12481f48b6acc321c0b1cd88c725a")),
}


@pytest.mark.parametrize("path", CONFIG_FILES, ids=lambda p: p.stem)
def test_round_zero_theta_of_each_config_file(path):
    state = init_run(from_file(path, seed="1", output_dir="out"))
    local = np.concatenate([s.model.flatten_local() for s in state.shards])
    assert [(v.size, hashlib.sha256(v.tobytes()).hexdigest())
            for v in (state.theta, local)] == list(ROUND_ZERO[path.stem])
