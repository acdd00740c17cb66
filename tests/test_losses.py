import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import feddva.autodiff as ad
from feddva.autodiff import Tensor, backward, sgd_step
from feddva.gaussians import kl_to_standard
from feddva.losses import (bce_recon, cross_entropy, elbo_sum, hinge_max,
                           loss_classifier, loss_feddva, loss_local,
                           loss_vanilla_vae)
from feddva.model import ArchitectureConfig, DvaModel, VanillaVaeModel
from oracles import grad_check

TINY = ArchitectureConfig(input_dim=4, hidden_dims=(4,), d_z=2, d_c=2,
                          n_classes=3, head_hidden=())


def tiny_model(seed=0, arch=TINY, spread=0.4):
    m = DvaModel(arch, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1000)
    # non-zero posterior heads so every term has signal
    for layer in (m.z_mu, m.z_lv, m.c_mu, m.c_lv):
        layer.w.data = rng.uniform(-spread, spread, layer.w.data.shape)
        layer.b.data = rng.uniform(-spread, spread, layer.b.data.shape)
    return m


def tiny_batch(seed=1, n=3, arch=TINY):
    return Tensor(np.random.default_rng(seed).uniform(0, 1, (n, arch.input_dim)))


# ------------------------------------------------------------------ hinge


def test_hinge_exact_branch_selection_thousand_triples():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        xi = float(rng.uniform(0, 5))
        kl_mix = float(rng.uniform(0, 5))
        kl_qc = float(rng.uniform(0, 10))
        first = Tensor(np.asarray(xi + kl_mix))
        second = Tensor(np.asarray(kl_qc))
        got = hinge_max(first, second).item()
        assert got == max(xi + kl_mix, kl_qc)


def test_hinge_tie_routes_gradient_to_first_branch():
    a = Tensor(np.asarray(2.0), requires_grad=True)
    b = Tensor(np.asarray(2.0), requires_grad=True)
    backward(hinge_max(ad.scale(a, 1.0), ad.scale(b, 1.0)))
    assert a.grad is not None and b.grad is None


@settings(max_examples=100, deadline=None)
@given(st.floats(0, 10), st.floats(0, 10),
       st.floats(0, 5), st.floats(0, 5))
def test_hinge_monotone_in_xi(kl_mix, kl_qc, xi_lo, xi_hi):
    lo, hi = sorted((xi_lo, xi_hi))
    r_lo = max(lo + kl_mix, kl_qc)
    r_hi = max(hi + kl_mix, kl_qc)
    assert r_hi >= r_lo


# ----------------------------------------------------------------- pieces


def test_bce_matches_hand_formula():
    # logits +-log 4 are the Bernoulli means 0.8 and 0.2
    logits = Tensor(np.array([[math.log(4.0), -math.log(4.0)]]))
    assert np.allclose(ad.sigmoid(logits).data, [[0.8, 0.2]], rtol=1e-12)
    x = Tensor(np.array([[1.0, 0.0]]))
    expected = -(math.log(0.8) + math.log(0.8))
    assert bce_recon(logits, x).item() == pytest.approx(expected, rel=1e-9)


def test_bce_survives_saturated_sigmoid():
    logits = Tensor(np.array([[60.0, -60.0]]))
    x = Tensor(np.array([[1.0, 0.0]]))
    val = bce_recon(logits, x).item()
    assert np.isfinite(val) and val >= 0.0


def test_cross_entropy_uniform_logits():
    logits = Tensor(np.zeros((8, 5)))
    ce = cross_entropy(logits, np.zeros(8, dtype=int))
    assert ce.item() == pytest.approx(math.log(5), rel=1e-12)


def test_cross_entropy_label_out_of_range():
    logits = Tensor(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="label out of range"):
        cross_entropy(logits, np.array([0, 3]))


def test_cross_entropy_grad_check():
    rng = np.random.default_rng(4)
    logits = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    labels = np.array([0, 2, 1, 1])
    err, ok = grad_check(lambda: cross_entropy(logits, labels), [logits])
    assert ok, err


def test_bce_value_bitwise_and_gradient_from_its_softplus():
    rng = np.random.default_rng(8)
    l = rng.normal(scale=6.0, size=(7, 9))
    l[0, :4] = [0.0, -0.0, 40.0, -40.0]
    x = rng.uniform(0, 1, size=l.shape)
    x[1] = rng.integers(0, 2, size=l.shape[1])
    logits = Tensor(l.copy(), requires_grad=True)
    out = ad.bce_logits(logits, Tensor(x))
    former = np.asarray((np.maximum(l, 0.0) + np.log1p(np.exp(-np.abs(l)))
                         - x * l).sum() / l.shape[0])
    assert out.data.tobytes() == former.tobytes()
    backward(out)
    sigmoid = 0.5 * (1.0 + np.tanh(0.5 * l))
    assert np.max(np.abs(logits.grad - (sigmoid - x) / l.shape[0])) <= 1e-15


def test_cross_entropy_is_one_node_with_the_softmax_gradient():
    rng = np.random.default_rng(9)
    l = rng.normal(scale=3.0, size=(6, 5))
    l[0] += 700.0  # the row shift keeps exp finite
    labels = np.array([0, 4, 2, 2, 1, 3])
    logits = Tensor(l.copy(), requires_grad=True)
    ce = cross_entropy(logits, labels)
    assert ce.op == "softmax-cross-entropy" and ce.parents == (logits,)
    shifted = l - l.max(axis=1, keepdims=True)
    log_softmax = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    assert ce.item() == pytest.approx(-log_softmax[np.arange(6), labels].mean(),
                                      rel=1e-13)
    backward(ce)
    onehot = np.eye(5)[labels]
    assert np.allclose(logits.grad, (np.exp(log_softmax) - onehot) / 6,
                       rtol=0, atol=1e-15)
    logits.data -= 700.0 * (np.arange(6) == 0)[:, None]
    err, ok = grad_check(lambda: ad.scale(cross_entropy(logits, labels), 3.0),
                         [logits])
    assert ok, err


def test_one_pixel_product_per_batch(monkeypatch):
    m = tiny_model()
    x = tiny_batch(n=4)
    qz = m.encode_z(x)
    real, products, completions = ad.linear, [], []

    def spy(*operands):
        if operands[-2] is m.h_in.w_x:
            products.append(operands)
        if operands[-2] is m.h_in.w_z:
            completions.append(operands)
        return real(*operands)

    monkeypatch.setattr(ad, "linear", spy)
    loss_feddva(x, qz, m, 0.5, 1.0, 1.0, np.random.default_rng(0), n_samples=2)
    assert (len(products), len(completions)) == (1, 2)
    products.clear()
    completions.clear()
    loss_classifier(x, qz, np.array([0, 1, 2, 0]), m, 0.5, 1.0, 1.0, 1.0,
                    np.random.default_rng(0), n_samples=2)
    # two ELBO draws and the head's encode_c(x, mu_z) share one product
    assert (len(products), len(completions)) == (1, 3)


# ------------------------------------------------------------- objectives


def test_feddva_rejects_batch_of_one():
    m = tiny_model()
    x = tiny_batch(n=1)
    with pytest.raises(ValueError, match="batch size must be >= 2"):
        loss_feddva(x, m.encode_z(x), m, xi=1.0, alpha=1.0, beta=1.0,
                    rng=np.random.default_rng(0))


def test_feddva_breakdown_identity():
    m = tiny_model(seed=2)
    alpha, beta, xi = 0.7, 0.4, 1.3
    x = tiny_batch(n=4)
    total, b = loss_feddva(x, m.encode_z(x), m, xi, alpha, beta,
                           np.random.default_rng(5))
    assert total.item() == pytest.approx(
        b["recon"] + alpha * b["r_z"] + beta * b["r_c"], rel=1e-12)
    assert b["r_c"] == pytest.approx(max(xi + b["kl_c_to_mixture"],
                                         b["kl_c_to_qc"]))
    assert b["constraint_slack"] == pytest.approx(
        b["kl_c_to_qc"] - b["kl_c_to_mixture"] - xi)


def test_feddva_zero_weights_leave_recon():
    m = tiny_model(seed=3)
    x = tiny_batch(n=3)
    total, b = loss_feddva(x, m.encode_z(x), m, xi=2.0, alpha=0.0, beta=0.0,
                           rng=np.random.default_rng(6))
    assert total.item() == pytest.approx(b["recon"], rel=1e-12)


def test_feddva_satisfied_constraint_selects_kl_branch():
    # identical posteriors across the batch: mixture bound is 0, so
    # r_c = max(xi, kl_qc); with xi=0 the KL branch is selected exactly
    m = tiny_model(seed=4)
    for layer in (m.c_mu, m.c_lv):
        layer.w.data[:] = 0.0
        layer.b.data[:] = 0.6
    x = tiny_batch(n=4)
    _, b = loss_feddva(x, m.encode_z(x), m, xi=0.0, alpha=1.0, beta=1.0,
                       rng=np.random.default_rng(7))
    assert b["kl_c_to_mixture"] == pytest.approx(0.0, abs=1e-12)
    assert b["r_c"] == pytest.approx(b["kl_c_to_qc"])
    assert b["kl_c_to_qc"] > 0.0


def test_feddva_identical_posteriors_hinge_floor():
    m = tiny_model(seed=4)
    for layer in (m.c_mu, m.c_lv):
        layer.w.data[:] = 0.0
        layer.b.data[:] = 0.2
    xi = 50.0
    x = tiny_batch(n=4)
    _, b = loss_feddva(x, m.encode_z(x), m, xi=xi, alpha=1.0, beta=1.0,
                       rng=np.random.default_rng(8))
    assert b["r_c"] == pytest.approx(max(xi, b["kl_c_to_qc"])) == \
        pytest.approx(xi)


def test_vanilla_kl_term_delegates():
    m = VanillaVaeModel(TINY, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    m.z_mu.w.data = rng.uniform(-0.5, 0.5, m.z_mu.w.data.shape)
    x = tiny_batch(n=4)
    _, b = loss_vanilla_vae(x, m.encode_z(x), m, np.random.default_rng(2))
    assert b["r_z"] == pytest.approx(kl_to_standard(m.encode_z(x)).item(),
                                     rel=1e-12)


def test_vanilla_zero_kl_means_total_is_recon():
    m = VanillaVaeModel(TINY, np.random.default_rng(3))
    # zero heads are the init default: posterior exactly N(0, I)
    x = tiny_batch(n=3)
    total, b = loss_vanilla_vae(x, m.encode_z(x), m, np.random.default_rng(4))
    assert b["r_z"] == 0.0
    assert total.item() == pytest.approx(b["recon"], rel=1e-12)


def test_classifier_gamma_zero_reduces_to_feddva():
    m = tiny_model(seed=5)
    x = tiny_batch(n=4)
    labels = np.array([0, 1, 2, 0])
    b, _ = loss_classifier(x, m.encode_z(x), labels, m, xi=1.0, alpha=1.0,
                           beta=0.5, gamma=0.0, rng=np.random.default_rng(9))
    ref, _ = loss_feddva(x, m.encode_z(x), m, xi=1.0, alpha=1.0, beta=0.5,
                         rng=np.random.default_rng(9))
    assert b.item() == pytest.approx(ref.item(), rel=1e-12)


def test_classifier_passes_sample_count_to_elbo():
    m = tiny_model(seed=5)
    x = tiny_batch(n=4)
    labels = np.array([0, 1, 2, 0])
    b, _ = loss_classifier(x, m.encode_z(x), labels, m, xi=1.0, alpha=1.0,
                           beta=0.5, gamma=0.0, rng=np.random.default_rng(9),
                           n_samples=2)
    ref, _ = loss_feddva(x, m.encode_z(x), m, xi=1.0, alpha=1.0, beta=0.5,
                         rng=np.random.default_rng(9), n_samples=2)
    one, _ = loss_feddva(x, m.encode_z(x), m, xi=1.0, alpha=1.0, beta=0.5,
                         rng=np.random.default_rng(9))
    assert b.item() == pytest.approx(ref.item(), rel=1e-12)
    assert b.item() != pytest.approx(one.item(), rel=1e-6)


def test_classifier_frozen_mode_keeps_encoder_ce_free():
    m = tiny_model(seed=6)
    x = tiny_batch(n=4)
    labels = np.array([0, 1, 2, 0])
    # gamma-only loss: frozen mode must leave encoder grads at zero
    b, _ = loss_classifier(x, m.encode_z(x), labels, m, xi=0.0, alpha=0.0,
                           beta=0.0, gamma=1.0, rng=np.random.default_rng(10),
                           frozen=True)
    ad.zero_grads(m.all_parameters())
    backward(b)
    head_grads = [p.grad for p in m.head.params + m.head_out.params]
    assert any(g is not None and np.abs(g).max() > 0 for g in head_grads)
    # encoder grads exist only via the recon term; compare against unfrozen
    m2 = tiny_model(seed=6)
    b2, _ = loss_classifier(x, m2.encode_z(x), labels, m2, xi=0.0, alpha=0.0,
                            beta=0.0, gamma=1.0, rng=np.random.default_rng(10),
                            frozen=False)
    ad.zero_grads(m2.all_parameters())
    backward(b2)
    g_frozen = np.concatenate([p.grad.reshape(-1) for p in m.shared_parameters()])
    g_joint = np.concatenate([p.grad.reshape(-1) for p in m2.shared_parameters()])
    assert not np.allclose(g_frozen, g_joint)


def test_full_loss_gradient_completeness():
    # d total / d every parameter (shared and local) vs finite differences
    m = tiny_model(seed=7)
    x = tiny_batch(seed=8, n=3)

    def fn():
        return loss_feddva(x, m.encode_z(x), m, xi=0.7, alpha=1.0, beta=0.75,
                           rng=np.random.default_rng(123))[0]

    err, ok = grad_check(fn, m.all_parameters())
    assert ok, f"max rel err {err}"


def test_classifier_loss_gradient_completeness():
    m = tiny_model(seed=9)
    x = tiny_batch(seed=10, n=3)
    labels = np.array([0, 1, 2])

    def fn():
        return loss_classifier(x, m.encode_z(x), labels, m, xi=0.4, alpha=1.0,
                               beta=0.75, gamma=1.0,
                               rng=np.random.default_rng(99))[0]

    err, ok = grad_check(fn, m.all_parameters())
    assert ok, f"max rel err {err}"


def numpy_recon_draws(m, x, n_draws, rng, chunk=10**4):
    """The recon of n_draws independent single-sample draws of loss_feddva
    on TINY's model m and batch x: a numpy forward of f, h's first layer as
    x W_x + z W_z + b, the c heads, g and the BCE from logits, vectorized
    over each chunk of draws."""
    def dense(layer, a):
        return a @ layer.w.data + layer.b.data

    (f,), h, (g,) = m.f_trunk.layers, m.h_in, m.dec_trunk.layers
    hid = np.maximum(dense(f, x), 0.0)
    mu_z, sd_z = dense(m.z_mu, hid), np.exp(dense(m.z_lv, hid) / 2)
    d_z = mu_z.shape[1]
    recons = []
    for at in range(0, n_draws, chunk):
        k = min(chunk, n_draws - at)
        z = mu_z + sd_z * rng.standard_normal((k, *mu_z.shape))
        hc = np.maximum(x @ h.w_x.data + z @ h.w_z.data + h.b.data, 0.0)
        c = dense(m.c_mu, hc) + np.exp(dense(m.c_lv, hc) / 2) * \
            rng.standard_normal((k, x.shape[0], m.arch.d_c))
        hg = np.maximum(z @ g.w.data[:d_z] + c @ g.w.data[d_z:] + g.b.data,
                        0.0)
        logits = dense(m.dec_out, hg)
        bce = np.logaddexp(0.0, logits) - x * logits  # softplus(l) - x l
        recons.append(bce.sum(axis=(1, 2)) / x.shape[0])
    return np.concatenate(recons)


def test_single_sample_estimator_unbiased_in_recon():
    m = tiny_model(seed=11)
    x = tiny_batch(seed=12, n=4)
    qz = m.encode_z(x)
    master = np.random.default_rng(2024)
    draws = np.array([
        loss_feddva(x, qz, m, xi=0.5, alpha=1.0, beta=0.5,
                    rng=master)[1]["recon"]
        for _ in range(10**4)
    ])
    # the reference does not run the estimator under test
    ref = numpy_recon_draws(m, x.data, 10**5, np.random.default_rng(777))
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    se_ref = ref.std(ddof=1) / math.sqrt(ref.size)
    band = 3.0 * math.sqrt(se**2 + se_ref**2)
    assert abs(draws.mean() - ref.mean()) < band


def test_vanilla_training_smoke_loss_decreases():
    arch = ArchitectureConfig(input_dim=16, hidden_dims=(16,), d_z=2, d_c=1)
    m = VanillaVaeModel(arch, np.random.default_rng(0))
    data = np.random.default_rng(1).uniform(0, 1, (32, 16)) > 0.5
    x = Tensor(data.astype(float))
    rng = np.random.default_rng(2)
    first = loss_vanilla_vae(x, m.encode_z(x), m, rng)[0].item()
    for _ in range(200):
        total, _ = loss_vanilla_vae(x, m.encode_z(x), m, rng)
        backward(total)
        sgd_step(m.all_parameters(), 0.05)
        ad.zero_grads(m.all_parameters())
    last, _ = loss_vanilla_vae(x, m.encode_z(x), m, np.random.default_rng(3))
    assert last.item() < first


def test_multi_sample_estimator_averages():
    m = tiny_model(seed=13)
    x = tiny_batch(seed=14, n=3)
    total, b = loss_feddva(x, m.encode_z(x), m, xi=0.5, alpha=1.0, beta=0.5,
                           rng=np.random.default_rng(0), n_samples=4)
    assert np.isfinite(total.item())
    assert total.item() == pytest.approx(
        b["recon"] + 1.0 * b["r_z"] + 0.5 * b["r_c"], rel=1e-6)


# ------------------------------------------------ one-node sum, phase 1


def composed_elbo_sum(recons, r_z, r_cs, alpha, beta):
    """elbo_sum as the add/scale graph it replaces."""
    if r_z is None:
        terms = list(recons)
    else:
        terms = [recon + ad.scale(r_z, alpha) + ad.scale(r_c, beta)
                 for recon, r_c in zip(recons, r_cs)]
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    return ad.scale(total, 1.0 / len(recons))


@pytest.mark.parametrize("n_samples", [1, 2, 3])
@pytest.mark.parametrize("with_penalties", [True, False])
def test_elbo_sum_is_bitwise_the_composed_graph(n_samples, with_penalties):
    rng = np.random.default_rng(n_samples)
    for _ in range(50):
        # the weights and the upstream gradient decide every rounding of
        # the parents' gradients, so each trial draws its own
        alpha, beta, upstream = rng.uniform(0.1, 3.0, 3)
        leaves = [Tensor(np.asarray(v), requires_grad=True)
                  for v in rng.uniform(-50, 50, 2 * n_samples + 1)]
        recons, r_z = leaves[:n_samples], leaves[n_samples]
        r_cs = leaves[n_samples + 1:]
        if not with_penalties:
            r_z, r_cs = None, ()
        got = []
        for fn in (elbo_sum, composed_elbo_sum):
            root = ad.scale(fn(recons, r_z, r_cs, alpha, beta), upstream)
            backward(root)
            grads = [p.grad for p in leaves]
            got.append((root.data.tobytes(),
                        [None if g is None else g.tobytes() for g in grads]))
            ad.zero_grads(leaves)
        assert got[0] == got[1]


def test_elbo_sum_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    leaves = [Tensor(np.asarray(v), requires_grad=True)
              for v in rng.uniform(-1, 1, 7)]
    err, ok = grad_check(
        lambda: ad.square(elbo_sum(leaves[:3], leaves[3], leaves[4:],
                                   0.6, 1.7)),
        leaves)
    assert ok, f"max rel err {err}"


def local_grads(m, loss):
    backward(loss)
    # the head takes none without a cross-entropy term
    grads = [None if p.grad is None else p.grad.tobytes()
             for p in m.local_parameters()]
    ad.zero_grads(m.local_parameters())
    return grads


@pytest.mark.parametrize("n_samples", [1, 2])
@pytest.mark.parametrize("classify", [False, True])
def test_phase_1_loss_steps_the_local_group_as_the_full_loss(n_samples,
                                                             classify):
    m = tiny_model(seed=21)
    for p in m.shared_parameters():
        p.requires_grad = False
    x = tiny_batch(seed=22, n=4)
    labels = np.array([0, 2, 1, 2])
    qz = m.encode_z(x)
    product = m.pixel_product(x)
    xi, alpha, beta, gamma = 0.3, 0.9, 1.4, 2.5
    full_rng, local_rng = np.random.default_rng(8), np.random.default_rng(8)
    if classify:
        full, _ = loss_classifier(x, qz, labels, m, xi, alpha, beta, gamma,
                                  full_rng, n_samples=n_samples)
        head = (qz.mu, m.encode_c(x, qz.mu, product).mu, labels)
    else:
        full, _ = loss_feddva(x, qz, m, xi, alpha, beta, full_rng,
                              n_samples=n_samples)
        head = None
    local, values = loss_local(x, qz, m, local_rng, n_samples, product, head,
                               gamma)
    assert values == {}
    want = local_grads(m, full)
    assert want[0] is not None and local_grads(m, local) == want
    assert full_rng.bit_generator.state == local_rng.bit_generator.state
