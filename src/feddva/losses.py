"""Training objectives: the client-specific negative ELBO and baselines.

The personalized objective combines three terms, all minimized:

  total = recon + alpha * r_z + beta * r_c

  recon  binary cross-entropy of the input under the decoded Bernoulli
         logits, summed over pixels and averaged over the batch
  r_z    batch-mean KL(q(z|x) || N(0, I))
  r_c    hinge max(xi + bound, KL(q(c|x,z) || N(0, I))), where bound is
         the Jensen upper estimate of the KL to the batch mixture

With S ELBO draws the total is (1/S) sum_k (recon_k + alpha r_z + beta
r_c,k), one graph node (elbo_sum). The hinge is an exact max; at a tie
the subgradient follows the first branch. The slack KL(c to prior) -
bound - xi is recorded per batch as the runtime constraint monitor.

Every loss returns (total, values): the scalar graph root to backward, and
a dict of the floats it measured, by name. A loss names only what it
computed: the ELBO losses their components, the cross-entropy losses
cross_entropy; loss_feddva records cross_entropy 0.0 (no head term), which
loss_classifier sets to its head's value. loss_local records nothing.

Every ELBO loss takes the batch's q(z|x) from its caller, so a caller
whose z encoder is frozen can encode its data once and pass constant rows.
With the encoders frozen only recon (and the classifier's cross-entropy)
reach the decoder and head: loss_local computes just those, from the
frozen encoders' outputs, with the same draws and the same gradients.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from . import autodiff as ad
from . import gaussians
from .autodiff import Tensor


def bce_recon(logits: Tensor, x: Tensor) -> Tensor:
    """Pixel-sum, batch-mean binary cross-entropy of x under Bernoulli logits."""
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
                     rng: np.random.Generator) -> tuple[Tensor, dict]:
    """Negative ELBO of the plain VAE: BCE + KL(q(z|x) || N(0, I)), with
    qz the batch's q(z|x)."""
    z = gaussians.reparameterize(qz, rng)
    recon = bce_recon(model.decode(z), x)
    r_z = gaussians.kl_to_standard(qz)
    return recon + r_z, {"recon": recon.item(), "r_z": r_z.item()}


def elbo_sum(recons: Sequence[Tensor], r_z: Tensor | None = None,
             r_cs: Sequence[Tensor] = (), alpha: float = 0.0,
             beta: float = 0.0) -> Tensor:
    """The S-draw ELBO total, (1/S) sum_k (recon_k + alpha r_z + beta r_c,k),
    as one node; without r_z and r_cs, (1/S) sum_k recon_k.

    Value and parent gradients are bitwise those of the composed graph
    ``scale(t_1 + ... + t_S, 1/S)`` with t_k = recon_k + scale(r_z, alpha)
    + scale(r_c,k, beta): every term takes g * (1/S) times its weight, and
    r_z the sum of its S copies.
    """
    n_samples = len(recons)
    inv = 1.0 / n_samples
    terms = [recon.item() for recon in recons]
    if r_z is not None:
        terms = [t + r_z.item() * alpha + r_c.item() * beta
                 for t, r_c in zip(terms, r_cs)]
    value = terms[0]
    for t in terms[1:]:
        value += t

    def back(g):
        h = g * inv
        if r_z is None:
            return (h,) * n_samples
        g_z = h * alpha
        g_rz = g_z
        for _ in range(n_samples - 1):
            g_rz = g_rz + g_z
        return (h,) * n_samples + (g_rz,) + (h * beta,) * n_samples

    parents = tuple(recons) if r_z is None else (*recons, r_z, *r_cs)
    return Tensor._from_op(np.asarray(value * inv), "elbo-sum", parents, back)


def _elbo_draw(x: Tensor, qz: gaussians.DiagGaussian, model,
               rng: np.random.Generator,
               product: Tensor) -> tuple[Tensor, gaussians.DiagGaussian]:
    """One ELBO draw over the batch x: z ~ q(z|x), q(c|x, z) over x's pixel
    product, c ~ q(c|x, z), and the BCE of x under decode(z, c); returns
    that recon and q(c|x, z)."""
    z = gaussians.reparameterize(qz, rng)
    qc = model.encode_c(x, z, product)
    c = gaussians.reparameterize(qc, rng)
    return bce_recon(model.decode(z, c), x), qc


def loss_feddva(x: Tensor, qz: gaussians.DiagGaussian, model, xi: float,
                alpha: float, beta: float, rng: np.random.Generator,
                n_samples: int = 1,
                product: Tensor | None = None) -> tuple[Tensor, dict]:
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

    recons, r_cs = [], []
    recon_v = r_c_v = kl_qc_v = kl_mix_v = 0.0
    for _ in range(n_samples):
        recon, qc = _elbo_draw(x, qz, model, rng, product)
        kl_qc = gaussians.kl_to_standard(qc)
        kl_mix = gaussians.mixture_bound_batch_mean(qc)
        r_c = hinge_max(kl_mix + xi, kl_qc)
        recons.append(recon)
        r_cs.append(r_c)
        recon_v += recon.item()
        r_c_v += r_c.item()
        kl_qc_v += kl_qc.item()
        kl_mix_v += kl_mix.item()

    kl_qc_v /= n_samples
    kl_mix_v /= n_samples
    return elbo_sum(recons, r_z, r_cs, alpha, beta), {
        "recon": recon_v / n_samples,
        "r_z": r_z.item(),
        "r_c": r_c_v / n_samples,
        "kl_c_to_qc": kl_qc_v,
        "kl_c_to_mixture": kl_mix_v,
        "constraint_slack": kl_qc_v - kl_mix_v - xi,
        "cross_entropy": 0.0,
    }


def loss_classifier(x: Tensor, qz: gaussians.DiagGaussian, labels: np.ndarray,
                    model, xi: float, alpha: float, beta: float, gamma: float,
                    rng: np.random.Generator, frozen: bool = False,
                    latents: str = "both", n_samples: int = 1
                    ) -> tuple[Tensor, dict]:
    """ELBO (n_samples draws) plus gamma-weighted cross-entropy on the
    posterior means.

    The head reads the ELBO's mu_z and q(c|x, mu_z)'s mean, so it adds one
    encode_c, over the ELBO's pixel product, and no encode_z. frozen=True
    detaches the means so the CE gradient stops at the head.
    """
    product = model.pixel_product(x)
    elbo, values = loss_feddva(x, qz, model, xi, alpha, beta, rng,
                               n_samples=n_samples, product=product)
    z_mu = qz.mu
    c_mu = model.encode_c(x, z_mu, product).mu
    if frozen:
        z_mu, c_mu = z_mu.detach(), c_mu.detach()
    ce = cross_entropy(model.classify(z_mu, c_mu, latents), labels)
    values["cross_entropy"] = ce.item()
    return elbo + ad.scale(ce, gamma), values


def loss_local(x: Tensor, qz: gaussians.DiagGaussian, model,
               rng: np.random.Generator, n_samples: int, product: Tensor,
               head: tuple[Tensor, Tensor, np.ndarray] | None = None,
               gamma: float = 0.0, latents: str = "both"
               ) -> tuple[Tensor, dict]:
    """The terms of loss_feddva, or of loss_classifier given head, whose
    gradient reaches the decoder and head while the encoders are frozen.

    That is the n_samples-draw reconstruction, drawing the noise of
    loss_feddva in the same order, plus, for head = (mu_z, c_mu, labels),
    gamma times the head's cross-entropy over those posterior means. qz,
    product and the means are the frozen encoders' constants, so r_z, r_c
    and the head's encode_c, which take no gradient, are not computed; the
    local group's gradient is bitwise the one the full loss gives. Its
    values are empty: phase 1 keeps no record.
    """
    total = elbo_sum([_elbo_draw(x, qz, model, rng, product)[0]
                      for _ in range(n_samples)])
    if head is not None:
        z_mu, c_mu, labels = head
        ce = cross_entropy(model.classify(z_mu, c_mu, latents), labels)
        total = total + ad.scale(ce, gamma)
    return total, {}


def loss_fedavg_classifier(x: Tensor, labels: np.ndarray,
                           model) -> tuple[Tensor, dict]:
    """Plain cross-entropy for the vanilla federated baseline."""
    ce = cross_entropy(model.predict_logits(x), labels)
    return ce, {"cross_entropy": ce.item()}
