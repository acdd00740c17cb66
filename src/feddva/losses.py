"""Training objectives: the client-specific negative ELBO and baselines.

The personalized objective combines three terms, all minimized:

  total = recon + alpha * r_z + beta * r_c

  recon  binary cross-entropy of the input under the decoded Bernoulli
         logits, summed over pixels and averaged over the batch
  r_z    batch-mean KL(q(z|x) || N(0, I))
  r_c    hinge max(xi + bound, KL(q(c|x,z) || N(0, I))), where bound is
         the Jensen upper estimate of the KL to the batch mixture

The hinge is an exact max; at a tie the subgradient follows the first
branch. The slack KL(c to prior) - bound - xi is recorded per batch as
the runtime constraint monitor.

Every ELBO loss takes the batch's q(z|x) from its caller, so a caller
whose z encoder is frozen can encode its data once and pass constant rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import gaussians
from .autodiff import Tensor

@dataclass
class LossBreakdown:
    """Scalar loss for backward plus recorded component values.

    ``total`` is the graph root until the batch is stepped; the client
    update then keeps only its value, so a record holds no graph.
    """

    total: Tensor
    recon: float = 0.0
    r_z: float = 0.0
    r_c: float = 0.0
    kl_c_to_qc: float = 0.0
    kl_c_to_mixture: float = 0.0
    constraint_slack: float = 0.0
    cross_entropy: float = 0.0

    @property
    def monitor(self) -> float:
        """Batch estimate of KL(client mixture || global prior): slack + xi."""
        return self.kl_c_to_qc - self.kl_c_to_mixture

    def to_row(self) -> dict[str, float]:
        return {
            "total": self.total.item(),
            "recon": self.recon,
            "r_z": self.r_z,
            "r_c": self.r_c,
            "kl_c_to_qc": self.kl_c_to_qc,
            "kl_c_to_mixture": self.kl_c_to_mixture,
            "constraint_slack": self.constraint_slack,
            "cross_entropy": self.cross_entropy,
        }


def bce_recon(logits: Tensor, x: Tensor) -> Tensor:
    """Pixel-sum, batch-mean binary cross-entropy of x under Bernoulli logits."""
    if logits.shape != x.shape:
        raise ad.ShapeError(f"bce: prediction {logits.shape} vs target {x.shape}")
    return ad.bce_logits(logits, x)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Batch-mean softmax cross-entropy; labels are integer class ids.

    One node: mean(logsumexp(l) - l[label]) over the rows, with the VJP
    (softmax(l) - onehot) / n in logits space.
    """
    n, n_classes = logits.shape
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ad.ShapeError(f"cross_entropy: labels shape {labels.shape} "
                            f"vs batch {n}")
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValueError(f"cross_entropy: label out of range [0, {n_classes}): "
                         f"found {int(labels.min())}..{int(labels.max())}")
    rows = np.arange(n)
    # shifted by each row's max, so exp cannot overflow
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    probs = np.exp(shifted)
    norm = probs.sum(axis=1, keepdims=True)
    value = (np.log(norm[:, 0]) - shifted[rows, labels]).sum() / n

    def back(g):
        grad = probs / norm
        grad[rows, labels] -= 1.0
        grad *= float(g) / n
        return (grad,)

    return Tensor._from_op(np.asarray(value), "softmax-cross-entropy",
                           (logits,), back)


def hinge_max(first: Tensor, second: Tensor) -> Tensor:
    """Exact max of two scalars; the tie routes gradient to `first`."""
    return first if first.item() >= second.item() else second


def loss_vanilla_vae(x: Tensor, qz: gaussians.DiagGaussian, model,
                     rng: np.random.Generator) -> LossBreakdown:
    """Negative ELBO of the plain VAE: BCE + KL(q(z|x) || N(0, I)), with
    qz the batch's q(z|x)."""
    z = gaussians.reparameterize(qz, rng)
    recon = bce_recon(model.decode(z), x)
    r_z = gaussians.kl_to_standard(qz)
    total = recon + r_z
    return LossBreakdown(total=total, recon=recon.item(), r_z=r_z.item())


def loss_feddva(x: Tensor, qz: gaussians.DiagGaussian, model, xi: float,
                alpha: float, beta: float, rng: np.random.Generator,
                n_samples: int = 1,
                product: Tensor | None = None) -> LossBreakdown:
    """Client-specific negative ELBO with the hinge personalization penalty.

    qz is the batch's q(z|x), and product its model.pixel_product(x),
    computed here if not given. Needs batch >= 2: the mixture estimator is
    degenerate on one sample. z and c are reparameterized (n_samples
    independent draws, averaged); the cascade feeds the sampled z into the
    c encoder, each draw over the one pixel product.
    """
    n = x.shape[0]
    if n < 2:
        raise ValueError("loss_feddva: batch size must be >= 2 so the batch "
                         "mixture has peers; got 1")
    r_z = gaussians.kl_to_standard(qz)
    if product is None:
        product = model.pixel_product(x)

    totals, recons, r_cs, klqcs, klmixes = [], [], [], [], []
    for _ in range(n_samples):
        z = gaussians.reparameterize(qz, rng)
        qc = model.encode_c(x, z, product)
        c = gaussians.reparameterize(qc, rng)
        recon = bce_recon(model.decode(z, c), x)
        kl_qc = gaussians.kl_to_standard(qc)
        kl_mix = gaussians.mixture_bound_batch_mean(qc)
        r_c = hinge_max(kl_mix + xi, kl_qc)
        totals.append(recon + ad.scale(r_z, alpha) + ad.scale(r_c, beta))
        recons.append(recon.item())
        r_cs.append(r_c.item())
        klqcs.append(kl_qc.item())
        klmixes.append(kl_mix.item())

    total = totals[0]
    for t in totals[1:]:
        total = total + t
    total = ad.scale(total, 1.0 / n_samples)  # exact at n_samples == 1

    kl_qc_v = float(np.mean(klqcs))
    kl_mix_v = float(np.mean(klmixes))
    return LossBreakdown(
        total=total,
        recon=float(np.mean(recons)),
        r_z=r_z.item(),
        r_c=float(np.mean(r_cs)),
        kl_c_to_qc=kl_qc_v,
        kl_c_to_mixture=kl_mix_v,
        constraint_slack=kl_qc_v - kl_mix_v - xi,
    )


def loss_classifier(x: Tensor, qz: gaussians.DiagGaussian, labels: np.ndarray,
                    model, xi: float, alpha: float, beta: float, gamma: float,
                    rng: np.random.Generator, frozen: bool = False,
                    latents: str = "both", n_samples: int = 1) -> LossBreakdown:
    """ELBO (n_samples draws) plus gamma-weighted cross-entropy on the
    posterior means.

    The head reads the ELBO's mu_z and q(c|x, mu_z)'s mean, so it adds one
    encode_c, over the ELBO's pixel product, and no encode_z. frozen=True
    detaches the means so the CE gradient stops at the head.
    """
    product = model.pixel_product(x)
    breakdown = loss_feddva(x, qz, model, xi, alpha, beta, rng,
                            n_samples=n_samples, product=product)
    z_mu = qz.mu
    c_mu = model.encode_c(x, z_mu, product).mu
    if frozen:
        z_mu, c_mu = z_mu.detach(), c_mu.detach()
    ce = cross_entropy(model.classify(z_mu, c_mu, latents), labels)
    breakdown.total = breakdown.total + ad.scale(ce, gamma)
    breakdown.cross_entropy = ce.item()
    return breakdown


def loss_fedavg_classifier(x: Tensor, labels: np.ndarray, model) -> LossBreakdown:
    """Plain cross-entropy for the vanilla federated baseline."""
    ce = cross_entropy(model.predict_logits(x), labels)
    return LossBreakdown(total=ce, cross_entropy=ce.item())
