"""Evaluation: disentanglement reports, traversal grids, accuracy, exports.

Everything here reads posterior means only, so accuracy and separation
ratios are deterministic. The one sampled quantity, the Monte-Carlo KL of
each client's c-posterior mixture against N(0, I), draws from a fixed
derived seed and is therefore reproducible byte for byte. Each function
given a shard scores it with the model the shard holds, under
``autodiff.frozen``: scoring records no graph node, so eval keeps no
intermediate alive past the op that reads it. encode_shards encodes each
shard once; the report, the embeddings and the traversals read its arrays
and run no encoder themselves. A traversal grid is one decode, and the
exports write whole arrays: the PGM quantizes its grid in one pass and
places its tiles in one strided write, and the CSV writes each client's
rows in one call.

That estimator needs every component's log-density at every sample. With
inv = 1/sigma^2, and x and mu centred on the mean m of the components'
means (xc = x - m, mc = mu - m), the log-density of component k at x is

    sum_l xc_l^2 * (-inv_kl / 2) + xc_l * (mc_kl * inv_kl)
          + (-sum_l mc_kl^2 inv_kl / 2 - sum_l log sigma_kl - d/2 log 2 pi)

so the [n, block] slab of log-densities at a block of samples is one
BLAS product of the [n, 2d+1] coefficient rows with the [2d+1, block]
operand whose rows are xc^2, xc and 1. Centring removes a common offset
of the means before anything is squared, so the rounding error of the
expanded square grows with the spread of the means, not with their
distance from the origin.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import Tensor, frozen
from .data import ClientShard
from .seeding import make_rng

# the Monte-Carlo draws of each client's mixture-to-prior KL, and the most
# components of its mixture, a random subset of a larger shard
MC_SAMPLES = 10_000
MAX_MIXTURE_COMPONENTS = 128


@dataclass
class DisentanglementReport:
    """The separation ratios compare clients: None (null in JSON) for a
    run of one client, and for a ratio over a zero spread."""
    separation_ratio_z: float | None
    separation_ratio_c: float | None
    constraint_estimate_per_client: list[float]
    fraction_constraint_met: float
    xi: float

    def to_json_dict(self) -> dict:
        z, c = self.separation_ratio_z, self.separation_ratio_c
        return {
            "separation_ratio_z": z,
            "separation_ratio_c": c,
            "ratio_c_over_z": c / z if z and c is not None else None,
            "constraint_estimate_per_client": self.constraint_estimate_per_client,
            "fraction_constraint_met": self.fraction_constraint_met,
            "xi": self.xi,
        }


@dataclass
class ShardCodes:
    """One encode of a shard's train images: the means of q(z|x) and of
    q(c|x, mu_z), and the log-variance of q(c|x, mu_z), one row per
    sample."""
    shard_id: int
    z_mu: np.ndarray
    c_mu: np.ndarray
    c_log_var: np.ndarray


def encode_shards(shards: list[ClientShard]) -> list[ShardCodes]:
    """The ShardCodes of each shard under its model's shared encoders,
    with no graph recorded."""
    codes = []
    for shard in shards:
        with frozen(shard.model.all_parameters()):
            qz, qc = shard.model.posteriors(Tensor(shard.flat_images()))
        codes.append(ShardCodes(shard.id, qz.mu.data, qc.mu.data,
                                qc.log_var.data))
    return codes


def _principal_axis(points: np.ndarray) -> np.ndarray:
    centered = points - points.mean(axis=0, keepdims=True)
    cov = centered.T @ centered / max(1, points.shape[0] - 1)
    vals, vecs = np.linalg.eigh(cov)
    return vecs[:, -1]


def latent_traversal(shard: ClientShard, code: ShardCodes, anchor: int,
                     steps: int, span: float) -> np.ndarray:
    """[steps, steps, H, W] grid of decodes by shard.model, each the shape
    of a shard image: rows sweep z, columns sweep c around the anchor.

    Sweeps run along the top principal axis of the shard's posterior means
    (the first coordinate axis for a one-sample shard); the center cell is
    the anchor's own reconstruction from its means. The steps * steps
    cells are one decode, row-major, with no graph recorded.
    """
    z_mu, c_mu = code.z_mu, code.c_mu
    n = z_mu.shape[0]
    if not 0 <= anchor < n:
        raise ValueError(f"anchor {anchor} outside shard of {n} samples")
    if not (np.isfinite(z_mu).all() and np.isfinite(c_mu).all()):
        raise ValueError("latent_traversal: non-finite posterior means; "
                         "model looks untrained or diverged")
    if n > 1:
        dir_z = _principal_axis(z_mu)
        dir_c = _principal_axis(c_mu)
    else:
        dir_z = np.eye(z_mu.shape[1])[0]
        dir_c = np.eye(c_mu.shape[1])[0]
    offsets = np.linspace(-span, span, steps) if steps > 1 else np.zeros(1)
    z_rows = z_mu[anchor] + offsets[:, None] * dir_z
    c_cols = c_mu[anchor] + offsets[:, None] * dir_c
    # cell (i, j) is row i * steps + j: z_rows[i] beside c_cols[j]
    with frozen(shard.model.all_parameters()):
        logits = shard.model.decode(Tensor(np.repeat(z_rows, steps, axis=0)),
                                    Tensor(np.tile(c_cols, (steps, 1)))).data
    # the sigmoid in ad.sigmoid's tanh form
    return (0.5 * (1.0 + np.tanh(0.5 * logits))).reshape(
        steps, steps, *shard.images.shape[1:])


def _separation_ratio(per_client: list[np.ndarray]) -> float | None:
    """Mean pairwise inter-centroid distance over mean within-client spread;
    0 when all points coincide, None for distinct points with no spread."""
    centroids = [p.mean(axis=0) for p in per_client]
    inter = []
    for i in range(len(centroids)):
        for j in range(i + 1, len(centroids)):
            inter.append(np.linalg.norm(centroids[i] - centroids[j]))
    intra = [float(np.linalg.norm(p - c, axis=1).mean())
             for p, c in zip(per_client, centroids)]
    mean_intra = float(np.mean(intra))
    mean_inter = float(np.mean(inter))
    if mean_intra == 0.0:
        return 0.0 if mean_inter == 0.0 else None
    return mean_inter / mean_intra


def mixture_kl_to_standard_mc(mus: np.ndarray, sigmas: np.ndarray,
                              n_samples: int, rng) -> float:
    """MC estimate of KL(uniform mixture of diag Gaussians || N(0, I))."""
    n, d = mus.shape
    picks = rng.integers(0, n, size=n_samples)
    # take gathers rows as fancy indexing does, about 10x faster here
    x = (mus.take(picks, axis=0)
         + sigmas.take(picks, axis=0) * rng.standard_normal((n_samples, d)))
    # the GEMM form of the module docstring, centred on the mean of mus
    centre = mus.mean(axis=0)
    mc = mus - centre
    inv = 1.0 / (sigmas * sigmas)
    coef = np.empty((n, 2 * d + 1))
    coef[:, :d] = -0.5 * inv
    coef[:, d:2 * d] = mc * inv
    coef[:, 2 * d] = (-0.5 * np.sum(mc * mc * inv, axis=1)
                      - np.sum(np.log(sigmas), axis=1)
                      - 0.5 * d * math.log(2 * math.pi))
    # log mixture density via logsumexp over components, 1024 samples at a
    # time in two buffers reused in place: the reductions run per sample, so
    # blocking keeps their order, and the buffers take 1 MB where one
    # [n, n_samples] matrix takes 10 MB (n=128), the peak of the whole eval
    block = min(n_samples, 1024)
    feats = np.empty((2 * d + 1, block))
    feats[2 * d] = 1.0
    comp = np.empty((n, block))
    log_mix = np.empty(n_samples)
    for lo in range(0, n_samples, block):
        hi = min(lo + block, n_samples)
        f, c = feats[:, :hi - lo], comp[:, :hi - lo]
        np.subtract(x[lo:hi].T, centre[:, None], out=f[d:2 * d])
        np.square(f[d:2 * d], out=f[:d])
        np.matmul(coef, f, out=c)
        mx = c.max(axis=0)
        c -= mx
        np.exp(c, out=c)
        log_mix[lo:hi] = mx + np.log(np.mean(c, axis=0))
    log_std = -0.5 * np.sum(x * x, axis=1) - 0.5 * d * math.log(2 * math.pi)
    return float(np.mean(log_mix - log_std))


def clustering_report(codes: list[ShardCodes], xi: float,
                      seed: int = 0) -> DisentanglementReport:
    """Per-client clustering of c vs client-invariance of z, plus the
    Monte-Carlo estimate of each client's mixture-to-prior KL; one client
    has nothing to separate, so its report gives no separation ratios."""
    if not codes:
        raise ValueError("clustering_report: no clients")
    z_all, c_all, estimates = [], [], []
    for code in codes:
        if code.z_mu.shape[0] < 2:
            raise ValueError(f"clustering_report: shard {code.shard_id} has "
                             f"fewer than 2 samples")
        z_all.append(code.z_mu)
        c_all.append(code.c_mu)
        mus = code.c_mu
        rng = make_rng(seed, "mixture-kl", code.shard_id)
        # a diverged model's variances overflow the estimate, which the
        # check below then reports in place of numpy's warnings
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            sigmas = np.exp(code.c_log_var / 2.0)
            if mus.shape[0] > MAX_MIXTURE_COMPONENTS:
                keep = rng.choice(mus.shape[0], size=MAX_MIXTURE_COMPONENTS,
                                  replace=False)
                mus, sigmas = mus[keep], sigmas[keep]
            estimate = mixture_kl_to_standard_mc(mus, sigmas, MC_SAMPLES,
                                                 rng)
        if not math.isfinite(estimate):
            raise ValueError(f"clustering_report: constraint estimate of client "
                             f"{code.shard_id} is {estimate}: diverged model?")
        estimates.append(estimate)
    met = float(np.mean([e >= xi for e in estimates]))
    several = len(codes) > 1
    return DisentanglementReport(
        separation_ratio_z=_separation_ratio(z_all) if several else None,
        separation_ratio_c=_separation_ratio(c_all) if several else None,
        constraint_estimate_per_client=estimates,
        fraction_constraint_met=met,
        xi=xi,
    )


def accuracy(shard: ClientShard, latents: str) -> float | None:
    """Share of the shard's held-out rows whose largest logit under
    shard.model is their label, with no graph recorded; None for a shard
    with no held-out rows."""
    n_hold = shard.holdout_images.shape[0]
    if n_hold == 0:
        return None
    with frozen(shard.model.all_parameters()):
        logits = shard.model.predict_logits(
            Tensor(shard.holdout_images.reshape(n_hold, -1)), latents=latents)
    return float(np.mean(np.argmax(logits.data, axis=1)
                         == shard.holdout_labels))


def accuracy_per_client(shards: list[ClientShard], latents: str = "both"):
    """Deterministic per-client held-out accuracy, plus the mean and
    across-client stddev of those not None (None if all are)."""
    accs = [accuracy(shard, latents) for shard in shards]
    scored = [a for a in accs if a is not None]
    if not scored:
        return accs, None, None
    return accs, float(np.mean(scored)), float(np.std(scored))


# ----------------------------------------------------------------- export


def export_grid_image(images: np.ndarray, path) -> None:
    """Tile a [steps_z, steps_c, H, W] grid into one 8-bit PGM (P5) with
    1-px separators: the grid is quantized in one pass, and its tiles are
    placed in one strided write."""
    steps_z, steps_c, h, w = images.shape
    quant = np.round(np.clip(images, 0.0, 1.0) * 255.0).astype(np.uint8)
    # each tile with its separator row and column below and to its right,
    # the last of which fall outside the image
    cells = np.full((steps_z, h + 1, steps_c, w + 1), 128, dtype=np.uint8)
    cells[:, :h, :, :w] = quant.transpose(0, 2, 1, 3)
    canvas = cells.reshape(steps_z * (h + 1), steps_c * (w + 1))[:-1, :-1]
    out_h, out_w = canvas.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{out_w} {out_h}\n255\n".encode("ascii"))
        f.write(canvas.tobytes())


def parse_pgm(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    parts = raw.split(b"\n", 3)
    if parts[0] != b"P5":
        raise ValueError(f"{path}: not a P5 PGM")
    width, height = (int(v) for v in parts[1].split())
    if parts[2] != b"255":
        raise ValueError(f"{path}: expected 8-bit maxval")
    return np.frombuffer(parts[3], dtype=np.uint8,
                         count=width * height).reshape(height, width)


def export_embeddings_csv(codes: list[ShardCodes], path) -> None:
    """client_id, sample_id, z_0..z_{d-1}, c_0..c_{d-1} for every train
    sample, in csv.writer's bytes: floats as repr writes them, no field
    quoted, lines ended by CRLF. Each client's rows are one write."""
    with open(path, "w", newline="") as f:
        if codes:
            names = (["client_id", "sample_id"]
                     + [f"z_{i}" for i in range(codes[0].z_mu.shape[1])]
                     + [f"c_{i}" for i in range(codes[0].c_mu.shape[1])])
            f.write(",".join(names) + "\r\n")
        for code in codes:
            rows = np.hstack([code.z_mu, code.c_mu]).tolist()
            f.write("".join(f"{code.shard_id},{s},{','.join(map(repr, row))}"
                            "\r\n" for s, row in enumerate(rows)))


def export_accuracy_csv(accs: list[float | None], mean: float | None,
                        std: float | None, path) -> None:
    """One row per client, then mean and stddev; None is an empty cell."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["client_id", "accuracy"])
        for k, a in enumerate(accs):
            writer.writerow([k, a])
        writer.writerow(["mean", mean])
        writer.writerow(["stddev", std])


def write_report_json(report: DisentanglementReport, path) -> None:
    with open(path, "w") as f:
        json.dump(report.to_json_dict(), f, indent=2, sort_keys=True,
                  allow_nan=False)
        f.write("\n")
