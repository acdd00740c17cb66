"""Dual-encoder architecture with per-client decoders and classifier heads.

Two shared encoders form a cascade: f(x) infers the universal posterior
q(z|x), then h(x, z) infers the personalized posterior q(c|x, z) from the
concatenation of x and z. Each client owns a decoder g(z, c) that maps
both latents back to pixel Bernoulli logits, and (in classifier mode) a
local head over the two posterior means.

A network over two inputs never concatenates them in the graph: its first
dense layer reads both as parts of one input (``ad.linear``), so a part
that takes no gradient, such as z and c in a frozen decoder, costs no
input-gradient GEMM. h's first layer goes further and holds its weight
as two parameters, the pixel rows W_x and then the z rows W_z (drawn and
flattened as the one joint weight they split). A batch computes its
pixel product x @ W_x + b once (``DvaModel.pixel_product``); each
encode_c of that batch, one per ELBO draw of z plus the classifier's,
adds only its own z @ W_z, and phase 2's W_x gradient is one GEMM over
the summed gradients. With no hidden layer, h's heads read x beside z.

Networks are dense MLPs. Trunk weights initialize uniform in
±1/sqrt(fan_in); the four posterior-head layers initialize to zero so
every posterior starts exactly at N(0, I), which keeps the constraint
monitor nonnegative from the first logged batch. A model built with rng
None draws nothing and holds zeros everywhere, for a checkpoint to fill.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor
from .gaussians import DiagGaussian

ACTIVATIONS = {"relu": ad.relu, "tanh": ad.tanh}


@dataclass(frozen=True)
class ArchitectureConfig:
    input_dim: int
    hidden_dims: tuple[int, ...] = (256, 256)
    d_z: int = 4
    d_c: int = 4
    activation: str = "relu"
    n_classes: int | None = None
    head_hidden: tuple[int, ...] = (64,)

    def __post_init__(self):
        if self.input_dim < 1:
            raise ValueError(f"input_dim must be >= 1, got {self.input_dim}")
        if self.d_z < 1 or self.d_c < 1:
            raise ValueError(f"latent dims must be >= 1, got d_z={self.d_z} d_c={self.d_c}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    def canonical_text(self) -> str:
        parts = [
            f"input_dim={self.input_dim}",
            "hidden_dims=" + ",".join(str(h) for h in self.hidden_dims),
            f"d_z={self.d_z}",
            f"d_c={self.d_c}",
            f"activation={self.activation}",
            f"n_classes={'none' if self.n_classes is None else self.n_classes}",
            "head_hidden=" + (",".join(str(h) for h in self.head_hidden) or "none"),
        ]
        return ";".join(parts)

    @classmethod
    def from_text(cls, text: str) -> "ArchitectureConfig":
        kv = dict(item.split("=", 1) for item in text.strip().split(";"))

        def ints(s):
            return () if s in ("", "none") else tuple(int(v) for v in s.split(","))

        return cls(
            input_dim=int(kv["input_dim"]),
            hidden_dims=ints(kv["hidden_dims"]),
            d_z=int(kv["d_z"]),
            d_c=int(kv["d_c"]),
            activation=kv["activation"],
            n_classes=None if kv["n_classes"] == "none" else int(kv["n_classes"]),
            head_hidden=ints(kv["head_hidden"]),
        )


def _draw(rng: np.random.Generator | None, fan_in: int, fan_out: int,
          zero: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """(w, b) of an affine layer: uniform in ±1/sqrt(fan_in), or zeros when
    zero or rng is None."""
    if zero or rng is None:
        return np.zeros((fan_in, fan_out)), np.zeros((1, fan_out))
    bound = 1.0 / np.sqrt(fan_in)
    w = rng.uniform(-bound, bound, (fan_in, fan_out))
    return w, rng.uniform(-bound, bound, (1, fan_out))


class Dense:
    """One affine layer: x @ W + b, x given as one or more column parts;
    zero weights when zero or rng is None."""

    def __init__(self, rng: np.random.Generator | None, fan_in: int,
                 fan_out: int, zero: bool = False):
        w, b = _draw(rng, fan_in, fan_out, zero)
        self.w = Tensor(w, requires_grad=True)
        self.b = Tensor(b, requires_grad=True)

    def __call__(self, *xs: Tensor) -> Tensor:
        return ad.linear(*xs, self.w, self.b)

    @property
    def params(self) -> list[Tensor]:
        return [self.w, self.b]


class PixelDense:
    """h's first layer over (x, z), act(x @ W_x + z @ W_z + b), drawn as one
    joint weight over the input_dim + d_z rows and held as its pixel rows
    W_x and its z rows W_z. ``pixel_product`` gives a batch's x @ W_x + b,
    which each call for that batch then completes with its own z."""

    def __init__(self, rng, input_dim: int, d_z: int, fan_out: int,
                 activation: str):
        w, b = _draw(rng, input_dim + d_z, fan_out)
        self.w_x = Tensor(w[:input_dim].copy(), requires_grad=True)
        self.w_z = Tensor(w[input_dim:].copy(), requires_grad=True)
        self.b = Tensor(b, requires_grad=True)
        self.act = ACTIVATIONS[activation]

    def pixel_product(self, x: Tensor) -> Tensor:
        return ad.linear(x, self.w_x, self.b)

    def __call__(self, product: Tensor, z: Tensor) -> Tensor:
        return self.act(ad.linear(z, self.w_z, product))

    @property
    def params(self) -> list[Tensor]:
        return [self.w_x, self.w_z, self.b]


class Mlp:
    """Dense stack with the activation applied after every layer.

    Maps input parts to the parts the next layer reads: one hidden tensor,
    or the input parts themselves for a stack with no layers.
    """

    def __init__(self, rng, dims: tuple[int, ...], activation: str):
        self.layers = [Dense(rng, dims[i], dims[i + 1]) for i in range(len(dims) - 1)]
        self.act = ACTIVATIONS[activation]
        self.out_dim = dims[-1]

    def __call__(self, *xs: Tensor) -> tuple[Tensor, ...]:
        for layer in self.layers:
            xs = (self.act(layer(*xs)),)
        return xs

    @property
    def params(self) -> list[Tensor]:
        return [p for layer in self.layers for p in layer.params]


def _flatten(params: list[Tensor]) -> np.ndarray:
    if not params:
        return np.zeros(0)
    return np.concatenate([p.data.reshape(-1) for p in params])


def _load(params: list[Tensor], flat: np.ndarray, what: str) -> None:
    total = sum(p.data.size for p in params)
    if flat.size != total:
        raise ValueError(f"load {what}: expected {total} values, got {flat.size}")
    at = 0
    for p in params:
        n = p.data.size
        p.data = flat[at:at + n].reshape(p.data.shape).astype(np.float64).copy()
        at += n


class FederatedModel:
    """Parameter protocol of every model.

    Subclasses list a shared group, which travels to the server and is
    averaged, and a local group, which never leaves the client. Flat
    vectors concatenate each group's tensors in list order.
    """

    def shared_parameters(self) -> list[Tensor]:
        raise NotImplementedError

    def local_parameters(self) -> list[Tensor]:
        return []

    def all_parameters(self) -> list[Tensor]:
        return self.shared_parameters() + self.local_parameters()

    def zero_grad(self) -> None:
        ad.zero_grads(self.all_parameters())

    def _check_input(self, x: Tensor) -> None:
        if x.data.ndim != 2 or x.shape[1] != self.arch.input_dim:
            raise ShapeError(f"encode: expected [batch, {self.arch.input_dim}], "
                             f"got {x.shape}")

    def flatten_shared(self) -> np.ndarray:
        return _flatten(self.shared_parameters())

    def load_shared(self, flat: np.ndarray) -> None:
        _load(self.shared_parameters(), flat, "shared")

    def flatten_local(self) -> np.ndarray:
        return _flatten(self.local_parameters())

    def load_local(self, flat: np.ndarray) -> None:
        _load(self.local_parameters(), flat, "local")


class DvaModel(FederatedModel):
    """Shared dual encoders plus this client's decoder and optional head."""

    def __init__(self, arch: ArchitectureConfig,
                 rng: np.random.Generator | None):
        self.arch = arch
        act = arch.activation
        h = arch.hidden_dims

        self.f_trunk = Mlp(rng, (arch.input_dim, *h), act)
        self.z_mu = Dense(rng, self.f_trunk.out_dim, arch.d_z, zero=True)
        self.z_lv = Dense(rng, self.f_trunk.out_dim, arch.d_z, zero=True)

        # with a hidden layer, h's first one splits its weight by input
        self.h_in = (PixelDense(rng, arch.input_dim, arch.d_z, h[0], act)
                     if h else None)
        self.h_trunk = Mlp(rng, h or (arch.input_dim + arch.d_z,), act)
        self.c_mu = Dense(rng, self.h_trunk.out_dim, arch.d_c, zero=True)
        self.c_lv = Dense(rng, self.h_trunk.out_dim, arch.d_c, zero=True)

        self.dec_trunk = Mlp(rng, (arch.d_z + arch.d_c, *reversed(h)), act)
        self.dec_out = Dense(rng, self.dec_trunk.out_dim, arch.input_dim)

        self.head: Mlp | None = None
        self.head_out: Dense | None = None
        if arch.n_classes is not None:
            self.head = Mlp(rng, (arch.d_z + arch.d_c, *arch.head_hidden), act)
            self.head_out = Dense(rng, self.head.out_dim, arch.n_classes)

    # -------------------------------------------------------- forward

    def encode_z(self, x: Tensor) -> DiagGaussian:
        self._check_input(x)
        hid = self.f_trunk(x)
        return DiagGaussian(self.z_mu(*hid), self.z_lv(*hid))

    def pixel_product(self, x: Tensor) -> Tensor:
        """x's share of h's first layer, x @ W_x + b, for every encode_c of
        the batch x to take; x itself when h has no hidden layer."""
        self._check_input(x)
        return x if self.h_in is None else self.h_in.pixel_product(x)

    def encode_c(self, x: Tensor, z: Tensor,
                 product: Tensor | None = None) -> DiagGaussian:
        """q(c|x, z); product is pixel_product(x), computed here if not
        given."""
        self._check_input(x)
        if z.shape != (x.shape[0], self.arch.d_z):
            raise ShapeError(f"encode_c: z shape {z.shape} does not align with "
                             f"x rows {x.shape[0]} and d_z {self.arch.d_z}")
        if product is None:
            product = self.pixel_product(x)
        hid = (self.h_trunk(product, z) if self.h_in is None
               else self.h_trunk(self.h_in(product, z)))
        return DiagGaussian(self.c_mu(*hid), self.c_lv(*hid))

    def decode(self, z: Tensor, c: Tensor) -> Tensor:
        """Pixel Bernoulli logits; sigmoid of them gives the means."""
        if z.shape[0] != c.shape[0]:
            raise ShapeError(f"decode: z rows {z.shape} vs c rows {c.shape}")
        return self.dec_out(*self.dec_trunk(z, c))

    def classify(self, z_mu: Tensor, c_mu: Tensor,
                 latents: str = "both") -> Tensor:
        """Head logits over the posterior means; latents "z" or "c" feeds
        that mean alone and zeros the other."""
        if self.head is None or self.head_out is None:
            raise ValueError("classify: model built without a classifier head")
        if latents == "z":
            c_mu = Tensor(np.zeros_like(c_mu.data))
        elif latents == "c":
            z_mu = Tensor(np.zeros_like(z_mu.data))
        elif latents != "both":
            raise ValueError(f"unknown latents mode {latents!r}")
        return self.head_out(*self.head(z_mu, c_mu))

    def posteriors(self, x: Tensor) -> tuple[DiagGaussian, DiagGaussian]:
        """Deterministic (q_z, q_c) pair; c is conditioned on mu_z."""
        qz = self.encode_z(x)
        return qz, self.encode_c(x, qz.mu)

    def predict_logits(self, x: Tensor, latents: str = "both") -> Tensor:
        qz, qc = self.posteriors(x)
        return self.classify(qz.mu, qc.mu, latents)

    # ----------------------------------------------------- parameters

    @property
    def theta_z(self) -> list[Tensor]:
        return self.f_trunk.params + self.z_mu.params + self.z_lv.params

    @property
    def theta_c(self) -> list[Tensor]:
        first = self.h_in.params if self.h_in is not None else []
        return first + self.h_trunk.params + self.c_mu.params + self.c_lv.params

    def shared_parameters(self) -> list[Tensor]:
        return self.theta_z + self.theta_c

    def local_parameters(self) -> list[Tensor]:
        phi = self.dec_trunk.params + self.dec_out.params
        if self.head is not None:
            phi = phi + self.head.params + self.head_out.params
        return phi


class VanillaVaeModel(FederatedModel):
    """Single-encoder VAE: shared encoder, client-local z-only decoder."""

    def __init__(self, arch: ArchitectureConfig,
                 rng: np.random.Generator | None):
        self.arch = arch
        act = arch.activation
        h = arch.hidden_dims
        self.f_trunk = Mlp(rng, (arch.input_dim, *h), act)
        self.z_mu = Dense(rng, self.f_trunk.out_dim, arch.d_z, zero=True)
        self.z_lv = Dense(rng, self.f_trunk.out_dim, arch.d_z, zero=True)
        self.dec_trunk = Mlp(rng, (arch.d_z, *reversed(h)), act)
        self.dec_out = Dense(rng, self.dec_trunk.out_dim, arch.input_dim)

    def encode_z(self, x: Tensor) -> DiagGaussian:
        self._check_input(x)
        hid = self.f_trunk(x)
        return DiagGaussian(self.z_mu(*hid), self.z_lv(*hid))

    def decode(self, z: Tensor) -> Tensor:
        """Pixel Bernoulli logits; sigmoid of them gives the means."""
        return self.dec_out(*self.dec_trunk(z))

    def shared_parameters(self) -> list[Tensor]:
        return self.f_trunk.params + self.z_mu.params + self.z_lv.params

    def local_parameters(self) -> list[Tensor]:
        return self.dec_trunk.params + self.dec_out.params


class PixelClassifier(FederatedModel):
    """Plain MLP classifier on raw pixels; every parameter is shared."""

    def __init__(self, arch: ArchitectureConfig,
                 rng: np.random.Generator | None):
        if arch.n_classes is None:
            raise ValueError("PixelClassifier needs n_classes")
        self.arch = arch
        self.trunk = Mlp(rng, (arch.input_dim, *arch.hidden_dims), arch.activation)
        self.out = Dense(rng, self.trunk.out_dim, arch.n_classes)

    def predict_logits(self, x: Tensor, latents: str = "both") -> Tensor:
        self._check_input(x)
        return self.out(*self.trunk(x))

    def shared_parameters(self) -> list[Tensor]:
        return self.trunk.params + self.out.params


# the model each method trains
MODEL_CLASS = {"feddva": DvaModel, "vanilla-vae": VanillaVaeModel,
               "fedavg": PixelClassifier, "fedavg-ft": PixelClassifier}
