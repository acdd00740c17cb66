import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import feddva.autodiff as ad
from feddva.autodiff import (DomainError, GraphError, ShapeError, Tensor,
                             backward, forward_op, sgd_step, topo_order)
from feddva.selftest import OP_SAMPLE_SHAPES
from oracles import grad_check, leaf


def test_matmul_hand_value():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[1.0], [1.0]])
    assert np.array_equal(ad.matmul(a, b).data, [[3.0], [7.0]])


def test_relu_definition():
    x = Tensor([-1.0, 0.0, 2.0])
    assert np.array_equal(ad.relu(x).data, [0.0, 0.0, 2.0])


def test_relu_bitwise_equals_select_on_finite_inputs():
    rng = np.random.default_rng(31)
    x = rng.standard_normal((5, 37))
    x[0, :4] = [-0.0, 0.0, -0.0, 5e-324]
    x[1, :3] = [-5e-324, 1e308, -1e308]
    y = ad.relu(Tensor(x)).data
    assert y.tobytes() == np.where(x > 0, x, 0.0).tobytes()
    assert not np.signbit(y).any()


def test_relu_keeps_nan():
    # a NaN pre-activation must surface, not be zeroed into a finite loss
    y = ad.relu(Tensor([np.nan, -1.0, 1.0])).data
    assert np.isnan(y[0]) and y[1] == 0.0 and y[2] == 1.0


def test_concat_last_axis_shape():
    a = Tensor(np.zeros((2, 3)))
    b = Tensor(np.zeros((2, 5)))
    assert ad.concat_last(a, b).shape == (2, 8)


def test_shape_mismatch_names_op_and_shapes():
    a = Tensor(np.zeros((2, 3)))
    b = Tensor(np.zeros((3, 3)))
    with pytest.raises(ShapeError, match=r"add.*\(2, 3\).*\(3, 3\)"):
        ad.add(a, b)
    with pytest.raises(ShapeError, match="matmul"):
        ad.matmul(a, Tensor(np.zeros((2, 2))))


def test_log_domain_error():
    with pytest.raises(DomainError, match="log"):
        ad.log(Tensor([1.0, 0.0]))
    with pytest.raises(DomainError):
        ad.log(Tensor([-1.0]))


def test_backward_square_sum():
    w = Tensor([1.0, 2.0], requires_grad=True)
    loss = ad.sum_all(ad.square(w))
    backward(loss)
    assert np.array_equal(w.grad, [2.0, 4.0])


def test_backward_linear():
    w = Tensor([3.0], requires_grad=True)
    x = Tensor([5.0])
    loss = ad.sum_all(ad.mul(w, x))
    backward(loss)
    assert np.array_equal(w.grad, [5.0])


def test_backward_rejects_non_scalar():
    w = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(GraphError, match="scalar"):
        backward(ad.square(w))


def test_backward_accumulates_without_zeroing():
    w = Tensor([1.0, 2.0], requires_grad=True)
    for expected in ([2.0, 4.0], [4.0, 8.0]):
        loss = ad.sum_all(ad.square(w))
        backward(loss)
        assert np.allclose(w.grad, expected)


def test_sgd_step_arithmetic():
    p = Tensor([1.0], requires_grad=True)
    p.grad = np.array([0.5])
    sgd_step([p], 0.1)
    assert np.allclose(p.data, [0.95])
    assert p.grad is None


def test_sgd_step_zero_lr():
    p = Tensor([1.0, -2.0], requires_grad=True)
    p.grad = np.array([10.0, 10.0])
    sgd_step([p], 0.0)
    assert np.array_equal(p.data, [1.0, -2.0])


def test_sgd_step_missing_grad():
    p = Tensor([1.0], requires_grad=True)
    with pytest.raises(GraphError, match="no gradient"):
        sgd_step([p], 0.1)


def test_two_sgd_steps_on_square():
    # loss = p^2 from p=1 at lr 0.25: p <- p - 0.25 * 2p, so 0.5 then 0.25
    p = Tensor([1.0], requires_grad=True)
    for expected in (0.5, 0.25):
        backward(ad.sum_all(ad.square(p)))
        sgd_step([p], 0.25)
        assert np.allclose(p.data, [expected])


def test_topo_order_parents_precede():
    a = Tensor([[1.0, 2.0]], requires_grad=True)
    b = ad.tanh(a)
    c = ad.square(b)
    d = ad.sum_all(ad.add(c, ad.square(a)))
    order = topo_order(d)
    pos = {id(t): i for i, t in enumerate(order)}
    for node in order:
        for parent in node.parents:
            assert pos[id(parent)] < pos[id(node)]


ELEMENTWISE_KINDS = ["relu", "tanh", "sigmoid", "exp", "square", "sum", "mean"]

# hash() is salted per process; seeds must be literal for reproducibility
SEEDS = {kind: 1000 + i for i, kind in enumerate(
    ["relu", "tanh", "sigmoid", "exp", "square", "sum", "mean", "add", "sub",
     "mul-elementwise", "matmul", "concat-last-axis", "broadcast-add-row",
     "transpose", "log", "linear", "bce-logits"])}


@pytest.mark.parametrize("kind", ELEMENTWISE_KINDS)
def test_grad_check_unary_ops(kind):
    rng = np.random.default_rng(SEEDS[kind])
    for _ in range(20):
        x = leaf(rng, (3, 4))
        if kind in ("relu", "square"):
            # away from the relu kink / the ill-conditioned quartic origin
            x.data += np.sign(x.data) * 0.15
        fn = lambda: ad.sum_all(ad.square(forward_op(kind, x)))
        err, ok = grad_check(fn, [x])
        assert ok, f"{kind}: max rel err {err}"


def test_grad_check_log():
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = leaf(rng, (3, 4), lo=0.5, hi=2.0)
        err, ok = grad_check(lambda: ad.sum_all(ad.square(ad.log(x))), [x])
        assert ok, err


@pytest.mark.parametrize("kind", ["add", "sub", "mul-elementwise"])
def test_grad_check_binary_ops(kind):
    rng = np.random.default_rng(SEEDS[kind])
    for _ in range(20):
        a, b = leaf(rng, (2, 3)), leaf(rng, (2, 3))
        fn = lambda: ad.sum_all(ad.square(forward_op(kind, a, b)))
        err, ok = grad_check(fn, [a, b])
        assert ok, f"{kind}: max rel err {err}"


def test_op_sample_shapes_name_every_op_kind():
    assert set(OP_SAMPLE_SHAPES) == set(ad.OP_TABLE)


@pytest.mark.parametrize("kind,shapes", [
    (kind, OP_SAMPLE_SHAPES[kind])
    for kind in ("matmul", "concat-last-axis", "broadcast-add-row",
                 "transpose", "linear", "bce-logits")])
def test_grad_check_shaped_ops(kind, shapes):
    rng = np.random.default_rng(SEEDS[kind])
    for _ in range(20):
        args = [leaf(rng, s) for s in shapes]
        fn = lambda: ad.sum_all(ad.square(forward_op(kind, *args)))
        err, ok = grad_check(fn, args)
        assert ok, f"{kind}: max rel err {err}"


@pytest.mark.parametrize("kind,frozen", [
    (kind, i) for kind, shapes in OP_SAMPLE_SHAPES.items() if len(shapes) > 1
    for i in range(len(shapes))])
def test_frozen_input_takes_no_gradient(kind, frozen):
    rng = np.random.default_rng(SEEDS[kind] + 100 * frozen)
    args = [leaf(rng, s) for s in OP_SAMPLE_SHAPES[kind]]
    args[frozen].requires_grad = False
    live = [a for i, a in enumerate(args) if i != frozen]
    fn = lambda: ad.sum_all(ad.square(forward_op(kind, *args)))
    err, ok = grad_check(fn, live)
    assert ok, f"{kind}: max rel err {err}"
    assert args[frozen].grad is None


def test_bce_logits_matches_probability_formula():
    rng = np.random.default_rng(21)
    logits = rng.uniform(-4, 4, (3, 5))
    x = rng.uniform(0, 1, (3, 5))
    p = 1.0 / (1.0 + np.exp(-logits))
    expected = -np.sum(x * np.log(p) + (1 - x) * np.log(1 - p)) / 3
    got = ad.bce_logits(Tensor(logits), Tensor(x)).item()
    assert got == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("magnitude", [60.0, 800.0])
def test_bce_logits_finite_at_saturated_logits(magnitude):
    logits = Tensor(np.array([[magnitude, -magnitude], [-magnitude, magnitude]]),
                    requires_grad=True)
    x = Tensor(np.array([[1.0, 0.0], [1.0, 0.0]]), requires_grad=True)
    loss = ad.bce_logits(logits, x)
    backward(loss)
    assert np.isfinite(loss.item())
    # the matching row costs about nothing, the mismatched row 2 * magnitude
    assert loss.item() == pytest.approx(magnitude, rel=1e-9)
    assert np.all(np.isfinite(logits.grad)) and np.all(np.isfinite(x.grad))
    assert np.allclose(logits.grad, [[0.0, 0.0], [-0.5, 0.5]], atol=1e-12)


def test_bce_logits_rejects_mismatched_shapes():
    with pytest.raises(ShapeError, match="bce-logits"):
        ad.bce_logits(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))


def test_linear_equals_matmul_plus_row_bitwise():
    rng = np.random.default_rng(22)
    arrays = [rng.uniform(-1, 1, s) for s in ((5, 7), (7, 3), (1, 3))]

    def run(fused):
        x, w, b = (Tensor(a.copy(), requires_grad=True) for a in arrays)
        out = ad.linear(x, w, b) if fused else ad.add_rowvec(ad.matmul(x, w), b)
        backward(ad.sum_all(ad.square(ad.tanh(out))))
        return [t.tobytes() for t in (out.data, x.grad, w.grad, b.grad)]

    assert run(fused=True) == run(fused=False)


def test_linear_over_parts_equals_concat_then_linear():
    # forward, w and b gradients bitwise; a frozen part gets no gradient and
    # the others match the concat path's column blocks
    rng = np.random.default_rng(23)
    arrays = [rng.uniform(-1, 1, s)
              for s in ((5, 4), (5, 2), (5, 3), (9, 6), (1, 6))]

    def run(parts):
        xs = [Tensor(a.copy(), requires_grad=i != 1)
              for i, a in enumerate(arrays[:3])]
        w, b = (Tensor(a.copy(), requires_grad=True) for a in arrays[3:])
        out = (ad.linear(*xs, w, b) if parts
               else ad.linear(ad.concat_last(ad.concat_last(xs[0], xs[1]),
                                             xs[2]), w, b))
        backward(ad.sum_all(ad.square(ad.tanh(out))))
        return out.data, xs, w.grad, b.grad

    out, xs, gw, gb = run(parts=True)
    ref_out, ref_xs, ref_gw, ref_gb = run(parts=False)
    assert out.tobytes() == ref_out.tobytes()
    assert gw.tobytes() == ref_gw.tobytes() and gb.tobytes() == ref_gb.tobytes()
    assert xs[1].grad is None and ref_xs[1].grad is None
    for x, ref in zip(xs, ref_xs):
        if x.requires_grad:
            assert np.allclose(x.grad, ref.grad, rtol=1e-13, atol=0.0)


def test_linear_over_parts_rejects_misaligned_parts():
    w, b = Tensor(np.zeros((5, 2))), Tensor(np.zeros((1, 2)))
    with pytest.raises(ShapeError, match=r"linear.*\(2, 3\) \| \(3, 2\)"):
        ad.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))), w, b)
    with pytest.raises(ShapeError, match=r"linear.*\(2, 3\) \| \(2, 1\)"):
        ad.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 1))), w, b)


def test_linear_shape_errors_name_linear():
    x = Tensor(np.zeros((2, 3)))
    with pytest.raises(ShapeError, match=r"linear.*\(2, 3\).*\(4, 2\)"):
        ad.linear(x, Tensor(np.zeros((4, 2))), Tensor(np.zeros((1, 2))))
    with pytest.raises(ShapeError, match="linear: bias"):
        ad.linear(x, Tensor(np.zeros((3, 2))), Tensor(np.zeros((1, 5))))


def test_sigmoid_tanh_form_accurate_and_saturates():
    # the tanh form is accurate in absolute terms; far-negative inputs
    # round to exactly 0 instead of a tiny positive value
    a = np.array([-800.0, -40.0, -1.5, 0.0, 2.5, 40.0, 800.0])
    y = ad.sigmoid(Tensor(a)).data
    with np.errstate(over="ignore"):
        reference = 1.0 / (1.0 + np.exp(-a))
    assert np.allclose(y, reference, rtol=0.0, atol=1e-15)
    assert y[0] == 0.0 and y[-1] == 1.0 and y[3] == 0.5


def test_grad_check_scalar_affine():
    rng = np.random.default_rng(11)
    x = leaf(rng, (2, 2))
    fn = lambda: ad.sum_all(ad.square(3.0 * x + 1.5 - (2.0 - x)))
    err, ok = grad_check(fn, [x])
    assert ok, err


def mlp_loss(ws, bs, x):
    h = ad.tanh(ad.add_rowvec(ad.matmul(x, ws[0]), bs[0]))
    out = ad.add_rowvec(ad.matmul(h, ws[1]), bs[1])
    return ad.mean_all(ad.square(out))


def test_grad_check_two_layer_mlp_hundred_seeds():
    # acceptance-grade: analytic vs central differences over 100 random nets
    for seed in range(100):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.uniform(-1, 1, (3, 4)))
        ws = [leaf(rng, (4, 5)), leaf(rng, (5, 2))]
        bs = [leaf(rng, (1, 5)), leaf(rng, (1, 2))]
        err, ok = grad_check(lambda: mlp_loss(ws, bs, x), ws + bs)
        assert ok, f"seed {seed}: max rel err {err}"


def test_backward_linearity():
    rng = np.random.default_rng(3)
    w = leaf(rng, (3, 3))
    x = Tensor(rng.uniform(-1, 1, (2, 3)))

    def l1():
        return ad.sum_all(ad.square(ad.matmul(x, w)))

    def l2():
        return ad.mean_all(ad.exp(ad.scale(w, 0.3)))

    a_coef, b_coef = 0.7, -1.3
    backward(l1())
    g1 = w.grad.copy()
    w.grad = None
    backward(l2())
    g2 = w.grad.copy()
    w.grad = None
    combined = ad.add(ad.scale(l1(), a_coef), ad.scale(l2(), b_coef))
    backward(combined)
    assert np.allclose(w.grad, a_coef * g1 + b_coef * g2, rtol=1e-12, atol=1e-12)


def test_determinism_bitwise():
    def run():
        rng = np.random.default_rng(1234)
        x = Tensor(rng.uniform(-1, 1, (4, 3)))
        w = Tensor(rng.uniform(-1, 1, (3, 2)), requires_grad=True)
        loss = ad.sum_all(ad.square(ad.sigmoid(ad.matmul(x, w))))
        backward(loss)
        return loss.data.copy(), w.grad.copy()

    (v1, g1), (v2, g2) = run(), run()
    assert v1.tobytes() == v2.tobytes()
    assert g1.tobytes() == g2.tobytes()


def test_leaf_grad_accumulates_across_graphs():
    w = Tensor([2.0], requires_grad=True)
    backward(ad.sum_all(ad.square(w)))
    backward(ad.sum_all(ad.scale(w, 3.0)))
    assert np.allclose(w.grad, [4.0 + 3.0])


def test_forward_op_unknown_kind():
    with pytest.raises(ValueError, match="unknown op kind"):
        forward_op("softmax", Tensor([1.0]))


def test_detach_blocks_gradient():
    w = Tensor([1.0, 2.0], requires_grad=True)
    y = ad.square(w).detach()
    assert not y.requires_grad
    loss = ad.sum_all(ad.mul(ad.square(w), y))
    backward(loss)
    # d/dw of w^2 * const(y) only
    assert np.allclose(w.grad, 2.0 * w.data * y.data)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5))
def test_tensor_invariants(n, m):
    t = Tensor(np.zeros((n, m)))
    assert int(np.prod(t.shape)) == t.data.size
    t2 = Tensor(np.ones((n, m)), requires_grad=True)
    backward(ad.sum_all(t2))
    assert t2.grad.shape == t2.data.shape


def test_linear_takes_an_addend_of_the_output_shape():
    # the c encoder's pixel product enters its first layer as this addend
    rng = np.random.default_rng(12)
    x, w = leaf(rng, (3, 4)), leaf(rng, (4, 2))
    addend = leaf(rng, (3, 2))
    out = ad.linear(x, w, addend)
    assert np.array_equal(out.data, x.data @ w.data + addend.data)
    err, ok = grad_check(lambda: ad.sum_all(ad.square(ad.linear(x, w, addend))),
                         [x, w, addend])
    assert ok, err
    with pytest.raises(ShapeError, match="bias shape"):
        ad.linear(x, w, Tensor(np.zeros((2, 2))))


# ------------------------------------------------------- gradient slots


def test_raising_vjp_leaves_no_pending_gradient():
    w = Tensor([1.0, 2.0], requires_grad=True)
    a = ad.square(w)
    fail = [True]

    def back(g):
        if fail[0]:
            raise RuntimeError("vjp failed")
        return (g,)

    # walked before a, after the add has given a its pending gradient
    b = Tensor._from_op(a.data.copy(), "identity", (a,), back)
    loss = ad.sum_all(ad.add(a, b))
    with pytest.raises(RuntimeError, match="vjp failed"):
        backward(loss)
    assert w.grad is None
    fail[0] = False
    backward(loss)
    assert np.array_equal(w.grad, 4.0 * w.data)


def test_leaves_fed_by_one_add_get_separate_grads():
    # add's VJP hands one array to both parents
    p = Tensor([1.0, 2.0], requires_grad=True)
    q = Tensor([3.0, 4.0], requires_grad=True)
    backward(ad.sum_all(ad.add(p, q)))
    assert not np.shares_memory(p.grad, q.grad)
    sgd_step([p], 0.5)
    assert np.array_equal(q.grad, [1.0, 1.0])


def test_backward_orders_the_graph_with_one_topo_order_call(monkeypatch):
    # perfbench's tracer counts nodes and leaves by wrapping this name
    calls = []

    def spy(root):
        order = topo_order(root)
        calls.append(order)
        return order

    monkeypatch.setattr(ad, "topo_order", spy)
    rng = np.random.default_rng(5)
    x, w, b = Tensor(rng.uniform(-1, 1, (3, 4))), leaf(rng, (4, 2)), leaf(rng, (1, 2))
    h = ad.linear(x, w, b)
    loss = ad.sum_all(ad.add(ad.relu(h), ad.square(h)))
    backward(loss)
    assert len(calls) == 1
    reachable, stack = {id(loss): loss}, [loss]
    while stack:
        for p in stack.pop().parents:
            if id(p) not in reachable:
                reachable[id(p)] = p
                stack.append(p)
    order = calls[0]
    assert len(order) == len(reachable) == len({id(n) for n in order})
    assert {id(n) for n in order} == set(reachable)
    pos = {id(n): i for i, n in enumerate(order)}
    for node in order:
        for parent in node.parents:
            assert pos[id(parent)] < pos[id(node)]
