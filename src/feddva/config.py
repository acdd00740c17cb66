"""Flat key-value experiment configuration.

One ``key = value`` per line, '#' comments, unknown or repeated keys
rejected by name; every float key must be finite and >= 0. Unset keys
fall back to the full-scale defaults: batch 256, learning rates 0.001,
200 rounds of 5 epochs per phase, alpha 1, beta 0.75, xi of 8 per c
dimension, and latent dims 4 for reconstruction or 8 for
classification. A resolved config round-trips through its text
form losslessly: validate rejects the free-text values (TEXT_KEYS) that the
text could not carry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .data import (MIN_PER_CLIENT, MIN_PER_MARKED_CLIENT, TOY_MAX_CLASSES,
                   TOY_MIN_SIDE)
from .model import ACTIVATIONS

TASKS = ("reconstruct", "classify")
METHODS = ("feddva", "fedavg", "fedavg-ft", "vanilla-vae")
PARTITIONS = ("marked", "label-skew")
LATENT_MODES = ("both", "z", "c")
# free-text keys: config text carries a value only without '#', a line
# break, or leading or trailing whitespace
TEXT_KEYS = ("dataset", "idx_labels", "output_dir")


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    task: str = "reconstruct"
    method: str = "feddva"
    K: int = 4
    m: int = 4
    rounds: int = 200
    epochs_per_phase: int = 5
    batch_size: int = 256
    lr_eta: float = 0.001
    lr_lambda: float = 0.001
    d_z: int = 0            # 0 = by task: 4 reconstruct, 8 classify
    d_c: int = 0
    alpha: float = 1.0
    beta: float = 0.75
    xi_per_dim: float = 8.0
    xi_scale: float = 1.0
    gamma: float = 1.0
    n_elbo_samples: int = 1
    seed: int = 0
    dataset: str = "toy"
    idx_labels: str = "auto"
    partition: str = "marked"
    concentration: float = 0.5
    holdout_frac: float = 0.2
    toy_classes: int = 4
    toy_per_class: int = 160
    toy_height: int = 16
    toy_width: int = 16
    hidden_dims: tuple[int, ...] = (256, 256)
    head_hidden: tuple[int, ...] = (64,)
    activation: str = "relu"
    classifier_latents: str = "both"
    classifier_frozen: bool = False
    ft_epochs: int = 5
    eval_every: int = 5
    checkpoint_every: int = 10
    traversal_steps: int = 7
    traversal_span: float = 2.0
    output_dir: str = "runs/out"

    def __post_init__(self):
        if self.d_z == 0:
            self.d_z = 8 if self.task == "classify" else 4
        if self.d_c == 0:
            self.d_c = 8 if self.task == "classify" else 4
        self.validate()

    def validate(self) -> None:
        def need(cond, key, msg):
            if not cond:
                raise ConfigError(f"config key '{key}': {msg}")

        need(self.task in TASKS, "task", f"must be one of {TASKS}")
        need(self.method in METHODS, "method", f"must be one of {METHODS}")
        need(self.partition in PARTITIONS, "partition",
             f"must be one of {PARTITIONS}")
        need(self.classifier_latents in LATENT_MODES, "classifier_latents",
             f"must be one of {LATENT_MODES}")
        need(self.activation in ACTIVATIONS, "activation",
             f"must be one of {tuple(ACTIVATIONS)}")
        need(self.seed >= 0, "seed", "must be >= 0")
        need(self.K >= 1, "K", "must be >= 1")
        need(self.d_z >= 1, "d_z", "must be >= 1")
        need(self.d_c >= 1, "d_c", "must be >= 1")
        need(1 <= self.m <= self.K, "m", f"must be in [1, K={self.K}]")
        need(self.rounds >= 0, "rounds", "must be >= 0")
        need(self.epochs_per_phase >= 1, "epochs_per_phase", "must be >= 1")
        need(self.ft_epochs >= 0, "ft_epochs", "must be >= 0")
        need(self.batch_size >= 2, "batch_size", "must be >= 2")
        need(self.concentration > 0, "concentration", "must be > 0")
        need(0 <= self.holdout_frac < 1, "holdout_frac", "must be in [0, 1)")
        for f in fields(self):
            if f.type == "float":
                value = getattr(self, f.name)
                need(math.isfinite(value) and value >= 0, f.name,
                     f"must be finite and >= 0, got {value!r}")
        need(self.n_elbo_samples >= 1, "n_elbo_samples", "must be >= 1")
        need(self.eval_every >= 1, "eval_every", "must be >= 1")
        need(self.checkpoint_every >= 1, "checkpoint_every", "must be >= 1")
        need(self.traversal_steps >= 1, "traversal_steps", "must be >= 1")
        for key in TEXT_KEYS:
            value = getattr(self, key)
            need("#" not in value and value.strip() == value
                 and "".join(value.splitlines()) == value, key,
                 f"{value!r}: config text cannot carry a '#', a line break, "
                 "or leading or trailing whitespace")
        for key in ("hidden_dims", "head_hidden"):
            need(all(w >= 1 for w in getattr(self, key)), key,
                 "every layer width must be >= 1")
        if self.dataset == "toy":
            need(self.toy_per_class >= 1, "toy_per_class", "must be >= 1")
            need(1 <= self.toy_classes <= TOY_MAX_CLASSES, "toy_classes",
                 f"must be in [1, {TOY_MAX_CLASSES}]")
            for key in ("toy_height", "toy_width"):
                need(getattr(self, key) >= TOY_MIN_SIDE, key,
                     f"must be >= {TOY_MIN_SIDE}")
            # the partition gives every client at least this many samples
            per_client = (MIN_PER_CLIENT if self.partition == "label-skew"
                          else MIN_PER_MARKED_CLIENT)
            n = self.toy_classes * self.toy_per_class
            need(n >= per_client * self.K, "toy_per_class",
                 f"toy_classes * toy_per_class = {n} samples, but the "
                 f"{self.partition} partition needs {per_client} per client, "
                 f"{per_client * self.K} for K={self.K}")
        if self.method in ("fedavg", "fedavg-ft"):
            need(self.task == "classify", "method",
                 f"{self.method} requires task = classify")
            # the pixel classifier has no latents to mask or freeze
            need(self.classifier_latents == "both", "classifier_latents",
                 f"must be 'both' for {self.method}, which has no latents")
            need(not self.classifier_frozen, "classifier_frozen",
                 f"must be false for {self.method}, which has no latents")
        if self.method == "vanilla-vae":
            need(self.task == "reconstruct", "method",
                 "vanilla-vae requires task = reconstruct")
        if self.method != "feddva":
            need(self.n_elbo_samples == 1, "n_elbo_samples",
                 f"must be 1 for {self.method}, whose loss draws one sample")

    def xi_value(self) -> float:
        return self.xi_per_dim * self.d_c * self.xi_scale

    # ------------------------------------------------------------- text

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            lines.append(f"{f.name} = {_render(getattr(self, f.name))}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str,
                  overrides: dict[str, str] | None = None) -> "ExperimentConfig":
        """The config of `text`, with each key of `overrides` set to its
        value as given: not cut at '#' nor stripped, so validate sees it."""
        known = {f.name: f for f in fields(cls)}

        def parse(key: str, val: str):
            try:
                return _parse(known[key].type, val)
            except ConfigError:
                raise
            except Exception as exc:
                raise ConfigError(f"config key '{key}': cannot parse "
                                  f"{val!r} ({exc})") from None

        values, seen = {}, {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected 'key = value', "
                                  f"got {raw!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            if key not in known:
                raise ConfigError(f"line {lineno}: unknown config key '{key}'")
            if key in seen:
                raise ConfigError(f"line {lineno}: config key '{key}' "
                                  f"repeats line {seen[key]}")
            seen[key] = lineno
            values[key] = parse(key, val)
        for key, val in (overrides or {}).items():
            values[key] = parse(key, val)
        return cls(**values)


def _render(value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value) or "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse(annotation: str, val: str):
    ann = str(annotation)
    if "tuple" in ann:
        return () if val == "none" else tuple(int(v) for v in val.split(","))
    if "bool" in ann:
        if val not in ("true", "false"):
            raise ConfigError(f"expected true/false, got {val!r}")
        return val == "true"
    if "int" in ann:
        return int(val)
    if "float" in ann:
        return float(val)
    return val


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as f:
        return ExperimentConfig.from_text(f.read())
