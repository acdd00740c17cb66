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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
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

    @property
    def dim(self) -> int:
        return self.mu.shape[-1]


def reparameterize(q: DiagGaussian, rng: np.random.Generator) -> Tensor:
    """Sample mu + sigma * eps with eps ~ N(0, I) from the given generator.

    eps enters as a constant, so gradients flow to mu and log_var only.
    """
    eps = Tensor(rng.standard_normal(q.mu.shape))
    sigma = ad.exp(ad.scale(q.log_var, 0.5))
    return ad.add(q.mu, ad.mul(sigma, eps))


def kl_to_standard(q: DiagGaussian) -> Tensor:
    """Batch-mean KL(q || N(0, I)) as a scalar graph node."""
    core = ad.square(q.mu) - q.log_var + ad.exp(q.log_var) - 1.0
    return ad.scale(ad.sum_all(core), 0.5 / q.batch)


def kl_pairwise(q_i: DiagGaussian, q_j: DiagGaussian) -> Tensor:
    """Closed-form KL(q_i || q_j) for two rows of the same dimension."""
    if q_i.mu.shape != q_j.mu.shape:
        raise ShapeError(f"kl_pairwise: rows {q_i.mu.shape} vs {q_j.mu.shape}")
    lv_diff = ad.sub(q_i.log_var, q_j.log_var)
    mahal = ad.mul(ad.square(ad.sub(q_i.mu, q_j.mu)), ad.exp(ad.neg(q_j.log_var)))
    core = mahal - lv_diff + ad.exp(lv_diff) - 1.0
    return ad.scale(ad.sum_all(core), 0.5)


def kl_to_batch_mixture(q_row: DiagGaussian, batch: DiagGaussian) -> Tensor:
    """Jensen upper bound on KL(q_row || uniform mixture of batch rows).

    Average of kl_pairwise(q_row, q_j) over every row j; the batch is
    expected to contain q_row itself, whose term is 0.
    """
    n = batch.batch
    if n == 0:
        raise ValueError("kl_to_batch_mixture: mixture batch is empty")
    if q_row.mu.shape[-1] != batch.dim:
        raise ShapeError(f"kl_to_batch_mixture: row dim {q_row.mu.shape[-1]} "
                         f"vs batch dim {batch.dim}")
    # per-row terms against the whole batch via row broadcasting
    mu_diff = ad.add_rowvec(ad.neg(batch.mu), q_row.mu)           # mu_i - mu_j
    lv_diff = ad.add_rowvec(ad.neg(batch.log_var), q_row.log_var)  # lv_i - lv_j
    mahal = ad.mul(ad.square(mu_diff), ad.exp(ad.neg(batch.log_var)))
    core = mahal - lv_diff + ad.exp(lv_diff) - 1.0
    return ad.scale(ad.sum_all(core), 0.5 / n)


def pairwise_kl_matrix(batch: DiagGaussian) -> Tensor:
    """[n, n] matrix M with M[i, j] = KL(q_i || q_j), built from matmuls.

    Expansion of the closed form:
      sum_l (mu_i - mu_j)^2 / s_j^2 = mu^2 inv^T - 2 mu (mu inv)^T + rowb(sum mu_j^2 inv_j)
      sum_l s_i^2 / s_j^2          = var inv^T
      sum_l (lv_i - lv_j)          = colb(rowsum lv) - rowb(rowsum lv)
    with inv = exp(-log_var), var = exp(log_var).
    """
    n, d = batch.mu.shape
    inv = ad.exp(ad.neg(batch.log_var))
    var = ad.exp(batch.log_var)
    inv_t = ad.transpose(inv)
    ones_col = Tensor(np.ones((d, 1)))
    ones_row_n = Tensor(np.ones((1, n)))

    t_sq = ad.matmul(ad.square(batch.mu), inv_t)
    t_cross = ad.matmul(batch.mu, ad.transpose(ad.mul(batch.mu, inv)))
    s_j = ad.transpose(ad.matmul(ad.mul(ad.square(batch.mu), inv), ones_col))  # [1, n]
    t_var = ad.matmul(var, inv_t)

    lv_sum = ad.matmul(batch.log_var, ones_col)                 # [n, 1]
    lv_col = ad.matmul(lv_sum, ones_row_n)                      # lv_i broadcast
    lv_row = ad.matmul(Tensor(np.ones((n, 1))), ad.transpose(lv_sum))

    mahal = ad.add_rowvec(t_sq - ad.scale(t_cross, 2.0), s_j)
    core = mahal - (lv_col - lv_row) + t_var - float(d)
    return ad.scale(core, 0.5)


def mixture_bound_batch_mean(batch: DiagGaussian) -> Tensor:
    """Batch mean over i of the Jensen bound: mean of the pairwise-KL matrix."""
    if batch.batch == 0:
        raise ValueError("mixture_bound_batch_mean: batch is empty")
    return ad.mean_all(pairwise_kl_matrix(batch))
