"""Diagonal-Gaussian posterior machinery.

Posteriors are parameterized as (mu, log_var) so sigma = exp(log_var / 2)
is positive by construction and every KL below is a smooth graph op.

Closed forms, with sigma^2 = exp(log_var):

  KL(q || N(0, I))       = 1/2 sum_l [mu_l^2 - log_var_l + exp(log_var_l) - 1]
  KL(q_i || q_j)         = 1/2 sum_l [(mu_i - mu_j)^2 / s_j^2
                                      - (lv_i - lv_j) + exp(lv_i - lv_j) - 1]
  KL(q_i || mixture)    <= 1/n sum_j KL(q_i || q_j)     (Jensen upper bound)

The mixture bound is what gets differentiated; it dominates the exact
mixture KL, so using it inside a minimized penalty is conservative. The
self term j = i is included (it contributes 0).

Its batch mean (1/n^2) sum_ij KL(q_i || q_j) needs no n x n matrix. With
per-column sums over the batch, c = mu - mean(mu), inv = exp(-lv) and
var = exp(lv), the log-variance differences cancel over i, j and

  bound = 1/2 [ sum_l ((sum_i c^2 + sum_i var) sum_j inv
                       + n sum_j c^2 inv) / n^2 - d ]

which costs O(n d). Centring mu first keeps the mean-square terms free of
the cancellation that the expansion mu_i^2 - 2 mu_i mu_j + mu_j^2 suffers
under a large common offset.

The three functions the loss calls are one graph node each, with the
vector-Jacobian product written out; each skips a parent that does not
require grad, so a frozen encoder group gets no gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ShapeError, Tensor


@dataclass
class DiagGaussian:
    """Batched diagonal Gaussian: mu and log-variance, each [batch, d]."""

    mu: Tensor
    log_var: Tensor

    def __post_init__(self):
        if self.mu.shape != self.log_var.shape:
            raise ShapeError(f"DiagGaussian: mu {self.mu.shape} and "
                             f"log_var {self.log_var.shape} differ")

    @property
    def batch(self) -> int:
        return self.mu.shape[0]


def reparameterize(q: DiagGaussian, rng: np.random.Generator) -> Tensor:
    """Sample mu + sigma * eps with eps ~ N(0, I) from the given generator.

    eps enters as a constant, so gradients flow to mu and log_var only.
    """
    mu, lv = q.mu, q.log_var
    eps = rng.standard_normal(mu.shape)
    sigma = np.exp(lv.data * 0.5)

    def back(g):
        return g, (g * eps * sigma * 0.5 if lv.requires_grad else None)

    return Tensor._from_op(mu.data + sigma * eps, "reparameterize", (mu, lv), back)


def kl_to_standard(q: DiagGaussian) -> Tensor:
    """Batch-mean KL(q || N(0, I)) as a scalar graph node."""
    mu, lv = q.mu, q.log_var
    scale = 0.5 / q.batch
    var = np.exp(lv.data)

    def back(g):
        gs = float(g) * scale
        return (gs * 2.0 * mu.data if mu.requires_grad else None,
                gs * var - gs if lv.requires_grad else None)

    core = mu.data * mu.data - lv.data + var - 1.0
    return Tensor._from_op(np.asarray(core.sum() * scale), "kl-to-standard",
                           (mu, lv), back)


def mixture_bound_batch_mean(batch: DiagGaussian) -> Tensor:
    """Batch mean over i of the Jensen bound, (1/n^2) sum_ij KL(q_i || q_j).

    The centred closed form of the module docstring, O(n d), one node.
    """
    n, d = batch.mu.shape
    if n == 0:
        raise ValueError("mixture_bound_batch_mean: batch is empty")
    mu, lv = batch.mu, batch.log_var
    c = mu.data - mu.data.mean(axis=0)
    inv = np.exp(-lv.data)
    var = np.exp(lv.data)
    c2 = c * c
    c2_inv = c2 * inv
    sum_inv = inv.sum(axis=0)
    spread = c2.sum(axis=0) + var.sum(axis=0)       # sum_i c^2 + sum_i var
    total = float((spread * sum_inv + n * c2_inv.sum(axis=0)).sum())

    def back(g):
        gn = float(g) / (n * n)
        g_mu = g_lv = None
        if mu.requires_grad:
            c_inv = c * inv
            g_mu = gn * (c * sum_inv + n * c_inv - c_inv.sum(axis=0))
        if lv.requires_grad:
            g_lv = (0.5 * gn) * (var * sum_inv - inv * spread - n * c2_inv)
        return g_mu, g_lv

    return Tensor._from_op(np.asarray(0.5 * (total / (n * n) - d)),
                           "mixture-bound", (mu, lv), back)
