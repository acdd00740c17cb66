"""Independent oracles used to freeze expected values in the test suite.

Most of what is here does not touch the reverse-mode machinery under test:
gradients come from central finite differences over repeated forward
evaluations, KL values from Monte Carlo sampling of the defining
integrals, raster checks from per-pixel membership loops, and the data
path from per-sample generation and per-image marking.

Two oracles are graph forms built from generic autodiff ops, so their
backward is the engine's own chain rule rather than a hand-written VJP:
``kl_to_batch_mixture`` (the Jensen bound of one row against a batch,
row-broadcast; against a one-row batch it is the pairwise KL of two
rows) and ``pairwise_kl_matrix`` (the full n x n matrix of pairwise KLs,
from matmuls). The fused closed-form node
``gaussians.mixture_bound_batch_mean`` is checked against them.

The eval references at the end keep the per-row traversal decode, the
per-tile PGM and the csv.writer embeddings that metrics replaced with
whole-array passes of the same bits and bytes.
"""

from __future__ import annotations

import csv
import math

import numpy as np

import feddva.autodiff as ad
from feddva.autodiff import ShapeError, Tensor
from feddva.model import draw


def drawn_model(model_class, arch, rng):
    """A model_class over arch with every layer drawn from rng, shared
    layers first: the draws a whole model took before init_run skipped a
    client's shared group, and the reference that skip is checked against."""
    model = model_class(arch)
    draw(model.shared_layers + model.local_layers, rng)
    return model


def finite_diff_grads(loss_fn, params, h=1e-4):
    """Central-difference gradient of loss_fn() w.r.t. each param tensor.

    loss_fn takes no arguments and must recompute the forward pass from the
    params' current data. Returns one array per param.
    """
    out = []
    for p in params:
        g = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up = loss_fn().item()
            flat[i] = keep - h
            down = loss_fn().item()
            flat[i] = keep
            gflat[i] = (up - down) / (2.0 * h)
        out.append(g)
    return out


def max_rel_error(analytic, numeric, floor=1e-6):
    """max |a - n| / max(|a|, |n|, floor) over all entries of all arrays."""
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def grad_check(loss_fn, params, h=1e-4, tol=1e-4):
    """Run loss_fn forward+backward and compare grads against central differences."""
    from feddva.autodiff import backward, zero_grads

    zero_grads(params)
    loss = loss_fn()
    backward(loss)
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
                for p in params]
    zero_grads(params)
    numeric = finite_diff_grads(loss_fn, params, h=h)
    err = max_rel_error(analytic, numeric)
    return err, err < tol


def leaf(rng, shape, lo=-1.0, hi=1.0):
    return Tensor(rng.uniform(lo, hi, size=shape), requires_grad=True)


# ------------------------------------------------------------- Gaussian MC


def diag_gauss_logpdf(x, mu, sigma):
    """log N(x; mu, diag(sigma^2)) for x [n, d], mu/sigma [d]."""
    z = (x - mu) / sigma
    return -0.5 * np.sum(z * z, axis=1) - np.sum(np.log(sigma)) \
        - 0.5 * x.shape[1] * math.log(2.0 * math.pi)


def mc_kl_between_gaussians(mu_i, sigma_i, mu_j, sigma_j, n_samples, rng):
    """Monte-Carlo KL(N_i || N_j) with its standard error."""
    x = mu_i + sigma_i * rng.standard_normal((n_samples, mu_i.shape[0]))
    vals = diag_gauss_logpdf(x, mu_i, sigma_i) - diag_gauss_logpdf(x, mu_j, sigma_j)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n_samples))


def mixture_logpdf(x, mus, sigmas):
    """log of the uniform mixture of diagonal Gaussians at each row of x."""
    n_comp = mus.shape[0]
    comp = np.stack([diag_gauss_logpdf(x, mus[k], sigmas[k]) for k in range(n_comp)])
    m = comp.max(axis=0)
    return m + np.log(np.mean(np.exp(comp - m), axis=0))


def mc_kl_to_mixture(mu_i, sigma_i, mus, sigmas, n_samples, rng):
    """Monte-Carlo KL(N_i || uniform mixture of components) with standard error."""
    x = mu_i + sigma_i * rng.standard_normal((n_samples, mu_i.shape[0]))
    vals = diag_gauss_logpdf(x, mu_i, sigma_i) - mixture_logpdf(x, mus, sigmas)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n_samples))


def mc_kl_mixture_to_standard(mus, sigmas, n_samples, rng):
    """Monte-Carlo KL(uniform mixture || N(0, I)) with standard error."""
    n_comp, d = mus.shape
    picks = rng.integers(0, n_comp, size=n_samples)
    x = mus[picks] + sigmas[picks] * rng.standard_normal((n_samples, d))
    vals = mixture_logpdf(x, mus, sigmas) \
        - diag_gauss_logpdf(x, np.zeros(d), np.ones(d))
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n_samples))


# ------------------------------------------------------ graph-form KL oracles


def kl_to_batch_mixture(q_row, batch):
    """Jensen upper bound on KL(q_row || uniform mixture of batch rows).

    Average of the pairwise KL of q_row against every row j of the batch,
    expected to contain q_row itself, whose term is 0.
    """
    n = batch.batch
    if n == 0:
        raise ValueError("kl_to_batch_mixture: mixture batch is empty")
    if q_row.mu.shape[-1] != batch.mu.shape[-1]:
        raise ShapeError(f"kl_to_batch_mixture: row dim {q_row.mu.shape[-1]} "
                         f"vs batch dim {batch.mu.shape[-1]}")
    # per-row terms against the whole batch via row broadcasting
    mu_diff = ad.add_rowvec(ad.scale(batch.mu, -1.0), q_row.mu)  # mu_i - mu_j
    lv_diff = ad.add_rowvec(ad.scale(batch.log_var, -1.0),
                            q_row.log_var)                        # lv_i - lv_j
    mahal = ad.mul(ad.square(mu_diff), ad.exp(ad.scale(batch.log_var, -1.0)))
    core = mahal - lv_diff + ad.exp(lv_diff) - 1.0
    return ad.scale(ad.sum_all(core), 0.5 / n)


def pairwise_kl_matrix(batch):
    """[n, n] matrix M with M[i, j] = KL(q_i || q_j), built from matmuls.

    Expansion of the closed form:
      sum_l (mu_i - mu_j)^2 / s_j^2 = mu^2 inv^T - 2 mu (mu inv)^T + rowb(sum mu_j^2 inv_j)
      sum_l s_i^2 / s_j^2          = var inv^T
      sum_l (lv_i - lv_j)          = colb(rowsum lv) - rowb(rowsum lv)
    with inv = exp(-log_var), var = exp(log_var).
    """
    n, d = batch.mu.shape
    inv = ad.exp(ad.scale(batch.log_var, -1.0))
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


# ------------------------------------------------------------- rasterizers


def sinusoid_pixels(height, width, amplitude, frequency, phase, thickness,
                    vertical=False):
    """Per-pixel membership loop for the sinusoidal mark band."""
    marked = np.zeros((height, width), dtype=bool)
    if vertical:
        center = (width - 1) / 2.0
        for i in range(height):
            curve = center + amplitude * math.sin(
                2.0 * math.pi * frequency * i / height + phase)
            for j in range(width):
                if abs(j - curve) <= thickness / 2.0:
                    marked[i, j] = True
    else:
        center = (height - 1) / 2.0
        for j in range(width):
            curve = center + amplitude * math.sin(
                2.0 * math.pi * frequency * j / width + phase)
            for i in range(height):
                if abs(i - curve) <= thickness / 2.0:
                    marked[i, j] = True
    return marked


def ellipse_pixels(height, width, ry, rx, thickness):
    """Per-pixel membership loop for the elliptical boundary band."""
    cy, cx = (height - 1) / 2.0, (width - 1) / 2.0
    band = thickness / (2.0 * min(rx, ry))
    marked = np.zeros((height, width), dtype=bool)
    for i in range(height):
        for j in range(width):
            r = math.sqrt(((i - cy) / ry) ** 2 + ((j - cx) / rx) ** 2)
            if abs(r - 1.0) <= band:
                marked[i, j] = True
    return marked


# ------------------------------------------------------------- data path


def toy_digits_per_sample(n_per_class, n_classes, height, width, seed):
    """make_toy_digits with both rolls and the clip redone per sample, in
    the generator's draw order: images [n, H, W] and labels [n]."""
    from feddva.data import _GLYPHS, _paint_stroke

    rng = np.random.default_rng(seed)
    images = np.zeros((n_per_class * n_classes, height, width))
    labels = np.zeros(n_per_class * n_classes, dtype=np.int64)
    at = 0
    for cls in range(n_classes):
        template = np.zeros((height, width))
        for stroke in _GLYPHS[cls]:
            _paint_stroke(template, stroke)
        for _ in range(n_per_class):
            dy, dx = rng.integers(-1, 2, size=2)
            img = np.roll(np.roll(template, dy, axis=0), dx, axis=1)
            img = img * rng.uniform(0.85, 1.0)
            noise = rng.uniform(0.0, 0.05, size=img.shape)
            images[at] = np.clip(np.maximum(img, noise), 0.0, 1.0)
            labels[at] = cls
            at += 1
    perm = rng.permutation(at)
    return images[perm], labels[perm]


def shards_per_image(ds, assignments, marks, seed, holdout_frac):
    """Client shards as (images, labels, holdout images, holdout labels),
    marked one image at a time, then split with the partitioners' holdout
    stream."""
    from feddva.data import _split_holdout, apply_mark
    from feddva.seeding import make_rng

    out = []
    for k in sorted(assignments):
        idx = np.asarray(assignments[k], dtype=int)
        images = ds.images[idx]
        if marks:
            images = np.stack([apply_mark(img, marks[k]) for img in images])
        out.append(_split_holdout(images, ds.labels[idx], holdout_frac,
                                  make_rng(seed, "holdout", k)))
    return out


def dataset_mean_bce(images):
    """Mean per-image BCE of predicting the dataset mean image everywhere."""
    flat = images.reshape(images.shape[0], -1)
    p = np.clip(flat.mean(axis=0), 1e-12, 1.0 - 1e-12)
    bce = -(flat * np.log(p) + (1.0 - flat) * np.log(1.0 - p)).sum(axis=1)
    return float(bce.mean())


# ------------------------------------------------ eval, one piece at a time
# The eval exports as they were written before their whole-array passes:
# metrics.latent_traversal, export_grid_image and export_embeddings_csv
# must give these bits and bytes.


def latent_traversal_per_row(shard, code, anchor, steps, span):
    """The traversal grid decoded one row of z at a time: steps decodes of
    steps rows each."""
    from feddva.metrics import _principal_axis

    z_mu, c_mu = code.z_mu, code.c_mu
    if z_mu.shape[0] > 1:
        dir_z, dir_c = _principal_axis(z_mu), _principal_axis(c_mu)
    else:
        dir_z, dir_c = np.eye(z_mu.shape[1])[0], np.eye(c_mu.shape[1])[0]
    offsets = np.linspace(-span, span, steps) if steps > 1 else np.zeros(1)
    grid = np.zeros((steps, steps, *shard.images.shape[1:]))
    z_rows = np.stack([z_mu[anchor] + o * dir_z for o in offsets])
    c_cols = np.stack([c_mu[anchor] + o * dir_c for o in offsets])
    for i in range(steps):
        z_batch = np.repeat(z_rows[i][None, :], steps, axis=0)
        logits = shard.model.decode(Tensor(z_batch), Tensor(c_cols)).data
        grid[i] = (0.5 * (1.0 + np.tanh(0.5 * logits))).reshape(grid.shape[1:])
    return grid


def export_grid_image_per_tile(images, path):
    """The P5 PGM of a [steps_z, steps_c, H, W] grid, each tile clipped,
    rounded and placed on its own."""
    steps_z, steps_c, h, w = images.shape
    out_h = steps_z * h + (steps_z - 1)
    out_w = steps_c * w + (steps_c - 1)
    canvas = np.full((out_h, out_w), 128, dtype=np.uint8)
    for i in range(steps_z):
        for j in range(steps_c):
            tile = np.clip(images[i, j], 0.0, 1.0)
            quant = np.round(tile * 255.0).astype(np.uint8)
            canvas[i * (h + 1):i * (h + 1) + h,
                   j * (w + 1):j * (w + 1) + w] = quant
    with open(path, "wb") as f:
        f.write(f"P5\n{out_w} {out_h}\n255\n".encode("ascii"))
        f.write(canvas.tobytes())


def export_embeddings_csv_writer(codes, path):
    """The embeddings CSV written row by row through csv.writer."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        if codes:
            writer.writerow(["client_id", "sample_id"]
                            + [f"z_{i}" for i in range(codes[0].z_mu.shape[1])]
                            + [f"c_{i}" for i in range(codes[0].c_mu.shape[1])])
        for code in codes:
            rows = np.hstack([code.z_mu, code.c_mu]).tolist()
            writer.writerows([code.shard_id, s, *row]
                             for s, row in enumerate(rows))
