"""Splittable seed discipline.

One master seed derives the per-client, per-round and per-phase
sub-streams through sha256 of "master|part|part|...", so that randomness is
independent of execution order and stable across processes. Three streams
are not derived: data.make_toy_digits, data.partition_uniform_marked and
data.partition_label_skew each seed np.random.default_rng with the master
seed itself, so a partition's first draws read the same PCG64 raws that
built the first toy images. Deriving them would change every run's bytes.
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive_seed(master: int, *parts) -> int:
    text = "|".join([str(int(master))] + [str(p) for p in parts])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def make_rng(master: int, *parts) -> np.random.Generator:
    return np.random.default_rng(derive_seed(master, *parts))
