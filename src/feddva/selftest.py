"""Fast invariant suite behind the `selftest` CLI command.

Each check re-derives its expected values independently (finite
differences, Monte Carlo, hand arithmetic, the Generator calls a decode
stands for) and prints one pass/fail line.
Budget is well under a minute. KL checks resolve the functions through
the gaussians and metrics modules at call time, so a corrupted formula is
caught even if patched in after import.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from . import data, gaussians, metrics
from .autodiff import Tensor, backward, zero_grads
from .config import ExperimentConfig
from .federation import aggregate
from .losses import loss_feddva
from .model import ArchitectureConfig, DvaModel


def _finite_diff(loss_fn, params):
    h = 1e-4  # central-difference step
    grads = []
    for p in params:
        g = np.zeros_like(p.data)
        flat, gflat = p.data.reshape(-1), g.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up = loss_fn().item()
            flat[i] = keep - h
            down = loss_fn().item()
            flat[i] = keep
            gflat[i] = (up - down) / (2 * h)
        grads.append(g)
    return grads


def _grad_ok(loss_fn, params):
    zero_grads(params)
    backward(loss_fn())
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
                for p in params]
    zero_grads(params)
    numeric = _finite_diff(loss_fn, params)
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst < 1e-4, f"max rel err {worst:.2e}"


# operand shapes of one sample input per op kind, for every finite-difference
# sweep over OP_TABLE; unequal dims so a transposed VJP cannot conform.
# linear takes its input in two column parts, as the model's two-input
# layers do
OP_SAMPLE_SHAPES: dict[str, list[tuple[int, int]]] = {
    "matmul": [(2, 3), (3, 4)],
    "add": [(2, 3)] * 2,
    "sub": [(2, 3)] * 2,
    "mul-elementwise": [(2, 3)] * 2,
    "relu": [(2, 3)],
    "tanh": [(2, 3)],
    "sigmoid": [(2, 3)],
    "exp": [(2, 3)],
    "log": [(2, 3)],
    "square": [(2, 3)],
    "sum": [(2, 3)],
    "mean": [(2, 3)],
    "concat-last-axis": [(2, 3), (2, 2)],
    "broadcast-add-row": [(4, 3), (1, 3)],
    "transpose": [(3, 2)],
    "linear": [(4, 3), (4, 2), (5, 2), (1, 2)],
    "bce-logits": [(3, 4)] * 2,
}


def check_op_gradients():
    rng = np.random.default_rng(0)
    for kind, op in ad.OP_TABLE.items():
        shapes = OP_SAMPLE_SHAPES[kind]
        for _ in range(3):
            if kind == "log":
                args = [Tensor(rng.uniform(0.5, 2.0, shapes[0]), requires_grad=True)]
            elif kind in ("relu", "square"):
                # away from the relu kink / the ill-conditioned quartic origin
                x = rng.uniform(-1, 1, shapes[0])
                x += np.sign(x) * 0.2
                args = [Tensor(x, requires_grad=True)]
            else:
                args = [Tensor(rng.uniform(-1, 1, s), requires_grad=True)
                        for s in shapes]
            ok, detail = _grad_ok(lambda: ad.sum_all(ad.square(op(*args))),
                                  args)
            if not ok:
                return False, f"{kind}: {detail}"
    return True, f"{len(ad.OP_TABLE)} op kinds x 3 seeds"


def check_loss_gradient():
    arch = ArchitectureConfig(input_dim=4, hidden_dims=(4,), d_z=2, d_c=2)
    model = DvaModel(arch, np.random.default_rng(1))
    rng = np.random.default_rng(2)
    for layer in (model.z_mu, model.z_lv, model.c_mu, model.c_lv):
        layer.w.data = rng.uniform(-0.4, 0.4, layer.w.data.shape)
    x = Tensor(rng.uniform(0, 1, (3, 4)))

    def fn():
        return loss_feddva(x, model.encode_z(x), model, xi=0.6, alpha=1.0,
                           beta=0.75, rng=np.random.default_rng(11))[0]

    return _grad_ok(fn, model.all_parameters())


def _pairwise_kl_matrix(mu: np.ndarray, log_var: np.ndarray) -> np.ndarray:
    """[n, n] matrix of KL(q_i || q_j) over the rows of a batch, the closed
    form of the gaussians docstring term by term."""
    diff = mu[:, None, :] - mu[None, :, :]
    lv_diff = log_var[:, None, :] - log_var[None, :, :]
    core = (diff * diff * np.exp(-log_var)[None] - lv_diff + np.exp(lv_diff)
            - 1.0)
    return 0.5 * core.sum(axis=-1)


def check_kl_closed_forms():
    """kl_to_standard and the pairwise closed form against Monte Carlo, and
    the mixture bound that training runs against the pairwise mean."""
    rng = np.random.default_rng(3)
    n_draws, n_mc = 8, 10**5
    for _ in range(n_draws):
        d = int(rng.integers(1, 4))
        mu_i = rng.uniform(-2, 2, d)
        mu_j = rng.uniform(-2, 2, d)
        lv_i = rng.uniform(-1, 1, d)
        lv_j = rng.uniform(-1, 1, d)
        closed = _pairwise_kl_matrix(np.stack([mu_i, mu_j]),
                                    np.stack([lv_i, lv_j]))[0, 1]
        s_i, s_j = np.exp(lv_i / 2), np.exp(lv_j / 2)
        x = mu_i + s_i * rng.standard_normal((n_mc, d))

        def logpdf(mu, s):
            z = (x - mu) / s
            return (-0.5 * np.sum(z * z, axis=1) - np.sum(np.log(s))
                    - 0.5 * d * math.log(2 * math.pi))

        vals = logpdf(mu_i, s_i) - logpdf(mu_j, s_j)
        se = vals.std(ddof=1) / math.sqrt(n_mc)
        if abs(closed - vals.mean()) > 3 * se:
            return False, f"pairwise KL off by {abs(closed - vals.mean()):.3g} (3se={3*se:.3g})"
        q_i = gaussians.DiagGaussian(Tensor(mu_i[None]), Tensor(lv_i[None]))
        std_closed = gaussians.kl_to_standard(q_i).item()
        vals_std = logpdf(mu_i, s_i) - logpdf(np.zeros(d), np.ones(d))
        se_std = vals_std.std(ddof=1) / math.sqrt(n_mc)
        if abs(std_closed - vals_std.mean()) > 3 * se_std:
            return False, "kl_to_standard disagrees with Monte Carlo"
    worst = 0.0
    for offset in (0.0, 0.0, 1e3):
        n, d = int(rng.integers(2, 9)), int(rng.integers(1, 4))
        mu = rng.uniform(-2, 2, (n, d)) + offset
        lv = rng.uniform(-1, 1, (n, d))
        got = gaussians.mixture_bound_batch_mean(
            gaussians.DiagGaussian(Tensor(mu), Tensor(lv))).item()
        want = float(_pairwise_kl_matrix(mu, lv).mean())
        worst = max(worst, abs(got - want) / max(abs(want), 1.0))
        if not worst <= 1e-9:
            return False, (f"mixture bound {got!r} vs pairwise mean {want!r} "
                           f"at offset {offset:g}")
    return True, (f"{n_draws} random draws vs {n_mc}-sample MC; mixture bound "
                  f"at offsets 0 and 1e3, max rel err {worst:.1e}")


def check_mixture_kl_estimator():
    rng = np.random.default_rng(6)
    n, d, n_mc = 5, 3, 4000
    spread = rng.normal(size=(n, d))
    sigmas = np.exp(rng.uniform(-3, 1, (n, d)))
    worst = 0.0
    for offset in (0.0, 1e3):
        mus = spread + offset
        got = metrics.mixture_kl_to_standard_mc(mus, sigmas, n_mc,
                                                np.random.default_rng(7))
        # the same draws, each component's log-density summed directly; the
        # -d/2 log 2pi of both densities cancels
        draw = np.random.default_rng(7)
        picks = draw.integers(0, n, size=n_mc)
        x = mus[picks] + sigmas[picks] * draw.standard_normal((n_mc, d))
        comp = np.stack([-0.5 * np.sum(((x - mus[k]) / sigmas[k]) ** 2, axis=1)
                         - np.sum(np.log(sigmas[k])) for k in range(n)])
        top = comp.max(axis=0)
        log_mix = top + np.log(np.mean(np.exp(comp - top), axis=0))
        want = float(np.mean(log_mix + 0.5 * np.sum(x * x, axis=1)))
        worst = max(worst, abs(got - want) / max(abs(want), 1.0))
        if not worst <= 1e-9:
            return False, (f"estimate {got!r} vs per-component {want!r} at "
                           f"offset {offset:g}")
    return True, f"offsets 0 and 1e3, max rel err {worst:.1e}"


def check_hinge_cases():
    rng = np.random.default_rng(4)
    from .losses import hinge_max
    for _ in range(100):
        xi = float(rng.uniform(0, 5))
        mix = float(rng.uniform(0, 5))
        qc = float(rng.uniform(0, 10))
        got = hinge_max(Tensor(np.asarray(xi + mix)),
                        Tensor(np.asarray(qc))).item()
        if got != max(xi + mix, qc):
            return False, f"branch mismatch at xi={xi}, mix={mix}, qc={qc}"
    return True, "100 random triples"


def check_aggregation_algebra():
    rng = np.random.default_rng(5)
    updates = {k: rng.normal(size=6) for k in range(4)}
    weights = {k: float(rng.uniform(0.1, 1.0)) for k in range(4)}
    out = aggregate(updates, weights)
    stack = np.stack(list(updates.values()))
    if not (np.all(out >= stack.min(axis=0) - 1e-12)
            and np.all(out <= stack.max(axis=0) + 1e-12)):
        return False, "convexity violated"
    v = rng.normal(size=6)
    same = aggregate({0: v, 1: v.copy()}, {0: 0.3, 1: 0.9})
    if not np.allclose(same, v, atol=1e-12):
        return False, "identical updates not a fixed point"
    two = aggregate({0: np.array([0.0]), 1: np.array([4.0])},
                    {0: 0.25, 1: 0.75})
    if not np.allclose(two, [3.0]):
        return False, "weighted mean arithmetic wrong"
    return True, "convexity, fixed point, weighted mean"


def check_reparameterization():
    q = gaussians.DiagGaussian(Tensor(np.array([[1.0, -1.0]])),
                               Tensor(np.array([[0.4, 0.4]])))

    class ZeroRng:
        def standard_normal(self, shape):
            return np.zeros(shape)

    out = gaussians.reparameterize(q, ZeroRng())
    if not np.array_equal(out.data, q.mu.data):
        return False, "zero noise did not return mu"
    return True, "zero-noise identity"


def check_config_round_trip():
    cfg = ExperimentConfig(task="classify", method="fedavg", K=6, m=3,
                           rounds=11, lr_eta=0.0025, hidden_dims=(32, 16),
                           partition="label-skew")
    again = ExperimentConfig.from_text(cfg.to_text())
    if again != cfg:
        return False, "text round trip not lossless"
    return True, "lossless text round trip"


def check_toy_digits_stream():
    """make_toy_digits' decode of one block of raw draws against the
    Generator calls it decodes, made one image at a time."""
    n_per_class, n_classes, height, width, seed = 4, 3, 9, 8, 5
    got = data.make_toy_digits(n_per_class, n_classes, height, width, seed)
    labels = np.repeat(np.arange(n_classes, dtype=np.int64), n_per_class)
    rng = np.random.default_rng(seed)
    images = data._toy_images_per_image(
        data._toy_glyphs(n_classes, height, width), labels, rng)
    perm = rng.permutation(labels.size)
    if (got.images.tobytes() != images[perm].tobytes()
            or got.labels.tobytes() != labels[perm].tobytes()):
        return False, "the block decode differs from the per-image draws"
    return True, (f"{n_classes} classes x {n_per_class} images at "
                  f"{height}x{width}, byte for byte")


CHECKS = [
    ("op-gradients-vs-finite-differences", check_op_gradients),
    ("objective-gradient-vs-finite-differences", check_loss_gradient),
    ("kl-closed-forms-vs-monte-carlo", check_kl_closed_forms),
    ("mixture-kl-estimator", check_mixture_kl_estimator),
    ("hinge-branch-selection", check_hinge_cases),
    ("aggregation-algebra", check_aggregation_algebra),
    ("reparameterization-identity", check_reparameterization),
    ("config-round-trip", check_config_round_trip),
    ("toy-digits-stream", check_toy_digits_stream),
]


def run_selftest(out=print) -> int:
    failures = 0
    for name, fn in CHECKS:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        status = "ok" if ok else "FAIL"
        out(f"[{status}] {name}: {detail}")
        failures += 0 if ok else 1
    out(f"selftest: {len(CHECKS) - failures}/{len(CHECKS)} checks passed")
    return 0 if failures == 0 else 1
