import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import feddva.autodiff as ad
from feddva.autodiff import Tensor, backward
from feddva.gaussians import (DiagGaussian, kl_to_standard,
                              mixture_bound_batch_mean, reparameterize)
from oracles import (grad_check, kl_to_batch_mixture, mc_kl_between_gaussians,
                     mc_kl_to_mixture, pairwise_kl_matrix)


def gauss(mu, log_var, requires_grad=False):
    return DiagGaussian(Tensor(np.atleast_2d(mu), requires_grad=requires_grad),
                        Tensor(np.atleast_2d(log_var), requires_grad=requires_grad))


def random_gauss(rng, n, d, spread=1.5, requires_grad=False):
    return gauss(rng.uniform(-spread, spread, (n, d)),
                 rng.uniform(-1.5, 1.0, (n, d)), requires_grad=requires_grad)


def test_diag_gaussian_shape_check():
    with pytest.raises(ad.ShapeError):
        DiagGaussian(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))


def test_reparameterize_zero_noise_returns_mu():
    class ZeroRng:
        def standard_normal(self, shape):
            return np.zeros(shape)

    q = gauss([[1.0, -2.0]], [[0.3, 0.3]])
    out = reparameterize(q, ZeroRng())
    assert np.array_equal(out.data, q.mu.data)


def test_reparameterize_sample_mean():
    n = 10**5
    q = gauss(np.zeros((n, 2)), np.zeros((n, 2)))
    out = reparameterize(q, np.random.default_rng(0))
    tol = 3.0 / math.sqrt(n)
    assert np.all(np.abs(out.data.mean(axis=0)) < tol)


def test_reparameterize_grad_wrt_mu_is_ones():
    q = gauss(np.zeros((3, 2)), np.zeros((3, 2)), requires_grad=True)
    out = reparameterize(q, np.random.default_rng(1))
    backward(ad.sum_all(out))
    assert np.array_equal(q.mu.grad, np.ones((3, 2)))


def test_kl_to_standard_zero_at_prior():
    q = gauss(np.zeros((4, 3)), np.zeros((4, 3)))
    assert kl_to_standard(q).item() == 0.0


def test_kl_to_standard_hand_value():
    # single sample, d=1, mu=1, sigma=1: 1/2 (1 - 0 + 1 - 1) = 0.5
    q = gauss([[1.0]], [[0.0]])
    assert kl_to_standard(q).item() == pytest.approx(0.5)


def test_kl_pairwise_self_is_zero():
    rng = np.random.default_rng(2)
    q = random_gauss(rng, 1, 3)
    assert kl_to_batch_mixture(q, q).item() == pytest.approx(0.0, abs=1e-15)


def test_kl_pairwise_hand_values():
    q_i = gauss([[1.0, 0.0]], [[0.0, 0.0]])
    q_j = gauss([[0.0, 0.0]], [[0.0, 0.0]])
    assert kl_to_batch_mixture(q_i, q_j).item() == pytest.approx(0.5)

    # d=1, mu equal, sigma_i=2, sigma_j=1: 1/2 (-log 4 + 4 - 1)
    q_i = gauss([[0.0]], [[math.log(4.0)]])
    q_j = gauss([[0.0]], [[0.0]])
    expected = 0.5 * (-math.log(4.0) + 4.0 - 1.0)
    assert kl_to_batch_mixture(q_i, q_j).item() == pytest.approx(expected)
    assert expected == pytest.approx(0.8069, abs=5e-5)


def test_kl_pairwise_against_monte_carlo():
    q_i = gauss([[0.0]], [[math.log(4.0)]])
    q_j = gauss([[0.0]], [[0.0]])
    mc, se = mc_kl_between_gaussians(np.array([0.0]), np.array([2.0]),
                                     np.array([0.0]), np.array([1.0]),
                                     10**6, np.random.default_rng(5))
    assert abs(kl_to_batch_mixture(q_i, q_j).item() - mc) < 3 * se


def test_kl_batch_mixture_identical_rows_zero():
    q = gauss(np.ones((5, 2)), np.full((5, 2), -0.5))
    row = gauss(np.ones((1, 2)), np.full((1, 2), -0.5))
    assert kl_to_batch_mixture(row, q).item() == pytest.approx(0.0, abs=1e-14)


def test_kl_batch_mixture_singleton_batch():
    rng = np.random.default_rng(3)
    q = random_gauss(rng, 1, 3)
    assert kl_to_batch_mixture(q, q).item() == pytest.approx(0.0, abs=1e-14)


def test_kl_batch_mixture_empty_batch_errors():
    row = gauss([[0.0]], [[0.0]])
    empty = DiagGaussian(Tensor(np.zeros((0, 1))), Tensor(np.zeros((0, 1))))
    with pytest.raises(ValueError, match="empty"):
        kl_to_batch_mixture(row, empty)


def test_jensen_bound_dominates_monte_carlo():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n, d = int(rng.integers(2, 6)), int(rng.integers(1, 4))
        mus = rng.uniform(-2, 2, (n, d))
        lvs = rng.uniform(-1.5, 1.0, (n, d))
        batch = gauss(mus, lvs)
        i = int(rng.integers(0, n))
        row = gauss(mus[i:i + 1], lvs[i:i + 1])
        bound = kl_to_batch_mixture(row, batch).item()
        mc, se = mc_kl_to_mixture(mus[i], np.exp(lvs[i] / 2), mus,
                                  np.exp(lvs / 2), 10**5, rng)
        assert bound >= mc - 3 * se


def test_pairwise_matrix_matches_row_ops():
    rng = np.random.default_rng(9)
    n, d = 6, 3
    batch = random_gauss(rng, n, d)
    mat = pairwise_kl_matrix(batch).data
    for i in range(n):
        for j in range(n):
            q_i = gauss(batch.mu.data[i:i + 1], batch.log_var.data[i:i + 1])
            q_j = gauss(batch.mu.data[j:j + 1], batch.log_var.data[j:j + 1])
            assert mat[i, j] == pytest.approx(
                kl_to_batch_mixture(q_i, q_j).item(), abs=1e-10)
    bound_mean = mixture_bound_batch_mean(batch).item()
    assert bound_mean == pytest.approx(mat.mean(), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_kl_nonnegativity(seed):
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(1, 5)), int(rng.integers(1, 4))
    batch = random_gauss(rng, n, d, spread=3.0)
    assert kl_to_standard(batch).item() >= 0.0
    row = gauss(batch.mu.data[0:1], batch.log_var.data[0:1])
    other = random_gauss(rng, 1, d, spread=3.0)
    assert kl_to_batch_mixture(row, other).item() >= 0.0
    assert kl_to_batch_mixture(row, batch).item() >= -1e-12


def test_kl_ops_pass_finite_difference():
    rng = np.random.default_rng(21)
    q = random_gauss(rng, 3, 2, requires_grad=True)
    params = [q.mu, q.log_var]

    err, ok = grad_check(lambda: kl_to_standard(q), params)
    assert ok, err
    err, ok = grad_check(lambda: mixture_bound_batch_mean(q), params)
    assert ok, err

    row = random_gauss(rng, 1, 2, requires_grad=True)
    err, ok = grad_check(lambda: kl_to_batch_mixture(row, q),
                         params + [row.mu, row.log_var])
    assert ok, err

    q_j = random_gauss(rng, 1, 2, requires_grad=True)
    err, ok = grad_check(lambda: kl_to_batch_mixture(row, q_j),
                         [row.mu, row.log_var, q_j.mu, q_j.log_var])
    assert ok, err


def test_reparameterize_deterministic_under_seed():
    q = gauss(np.zeros((4, 2)), np.zeros((4, 2)))
    a = reparameterize(q, np.random.default_rng(77)).data
    b = reparameterize(q, np.random.default_rng(77)).data
    assert a.tobytes() == b.tobytes()


def max_rel(a, b):
    """max |a - b| over max |b|: relative to the array's scale."""
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))


def pairwise_loop_mean(mus, lvs):
    n = mus.shape[0]
    rows = [gauss(mus[i:i + 1], lvs[i:i + 1]) for i in range(n)]
    return float(np.mean([[kl_to_batch_mixture(a, b).item() for b in rows]
                          for a in rows]))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=2, max_value=40),
       d=st.integers(min_value=1, max_value=6),
       lv_spread=st.floats(min_value=0.0, max_value=3.0),
       seed=st.integers(min_value=0, max_value=10**6))
def test_mixture_bound_closed_form_matches_matrix_oracle(n, d, lv_spread, seed):
    rng = np.random.default_rng(seed)
    mus = rng.uniform(-2.0, 2.0, (n, d))
    lvs = rng.uniform(-lv_spread, lv_spread, (n, d))

    def value_and_grads(fn):
        q = gauss(mus, lvs, requires_grad=True)
        out = fn(q)
        backward(out)
        return out.item(), q.mu.grad, q.log_var.grad

    got = value_and_grads(mixture_bound_batch_mean)
    want = value_and_grads(lambda q: ad.mean_all(pairwise_kl_matrix(q)))
    assert got[0] == pytest.approx(want[0], rel=1e-10)
    assert max_rel(got[1], want[1]) < 1e-10
    assert max_rel(got[2], want[2]) < 1e-10


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mixture_bound_survives_common_mu_offset(seed):
    rng = np.random.default_rng(seed)
    mus = rng.uniform(-2.0, 2.0, (12, 3)) + 1e3
    lvs = rng.uniform(-1.5, 1.5, (12, 3))
    got = mixture_bound_batch_mean(gauss(mus, lvs)).item()
    assert got == pytest.approx(pairwise_loop_mean(mus, lvs), rel=1e-9)


@pytest.mark.parametrize("n,d", [(2, 1), (3, 5), (64, 4), (256, 16)])
def test_mixture_bound_exactly_zero_at_prior(n, d):
    # the constraint monitor KL(q_c || prior) - bound starts at exactly 0
    q = gauss(np.zeros((n, d)), np.zeros((n, d)))
    assert mixture_bound_batch_mean(q).item() == 0.0
    assert kl_to_standard(q).item() - mixture_bound_batch_mean(q).item() == 0.0


def test_mixture_bound_empty_batch_errors():
    empty = DiagGaussian(Tensor(np.zeros((0, 2))), Tensor(np.zeros((0, 2))))
    with pytest.raises(ValueError, match="empty"):
        mixture_bound_batch_mean(empty)


@pytest.mark.parametrize("n,d", [(2, 1), (2, 3), (5, 3)])
def test_fused_gaussian_nodes_pass_finite_difference(n, d):
    rng = np.random.default_rng(40 + n * d)
    q = random_gauss(rng, n, d, requires_grad=True)
    params = [q.mu, q.log_var]
    for fn in (kl_to_standard, mixture_bound_batch_mean,
               lambda q: ad.sum_all(ad.square(
                   reparameterize(q, np.random.default_rng(5))))):
        err, ok = grad_check(lambda: fn(q), params)
        assert ok, err


@pytest.mark.parametrize("frozen", ["mu", "log_var"])
@pytest.mark.parametrize("fn", [
    kl_to_standard, mixture_bound_batch_mean,
    lambda q: ad.sum_all(reparameterize(q, np.random.default_rng(3)))],
    ids=["kl_to_standard", "mixture_bound", "reparameterize"])
def test_fused_nodes_skip_frozen_parent(fn, frozen):
    rng = np.random.default_rng(8)
    q = random_gauss(rng, 4, 3, requires_grad=True)
    getattr(q, frozen).requires_grad = False
    backward(fn(q))
    live = q.log_var if frozen == "mu" else q.mu
    assert getattr(q, frozen).grad is None
    assert live.grad is not None and np.all(np.isfinite(live.grad))
