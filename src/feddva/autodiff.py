"""Reverse-mode automatic differentiation over dense float64 tensors.

Every operation returns a Tensor recording its parent tensors and a
closure for the local vector-Jacobian product. A recorded node (one with
a requires-grad parent) takes a creation index, and a node is always
created after its parents, so creation order is a topological order:
``topo_order`` collects the subgraph reachable from a scalar loss and
sorts it by that index, leaves first. ``backward`` walks it in reverse,
holding each pending gradient in a slot on its node, and accumulates
gradients into requires-grad leaves. Gradients are never overwritten:
repeated backward calls add up until the caller clears them
(``sgd_step`` clears what it steps).

The VJP contract: a node's closure ``back(g)`` maps the gradient of its
output to a tuple with one gradient per entry of ``node.parents``, or None
for a parent that takes none (it may skip one that does not require grad).
``backward`` alone accumulates them, in parent order and never in place.

All arithmetic is float64 numpy, so identical seeds give
bitwise-identical forwards and gradients on one platform.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

# creation indexes of recorded nodes; a leaf keeps index 0, so it sorts
# before every node that reads it wherever it was made
_creation = itertools.count(1)


class ShapeError(ValueError):
    """Operand shapes do not conform for the requested op."""


class DomainError(ValueError):
    """Operand values outside an op's mathematical domain (e.g. log of <= 0)."""


class GraphError(RuntimeError):
    """Misuse of the recorded graph: non-scalar backward, missing gradients."""


class Tensor:
    """A dense float64 array plus an optional record of how it was computed.

    Leaves (no parents) may carry ``requires_grad``; op outputs inherit it
    from their parents. ``grad`` is populated by :func:`backward` on
    requires-grad leaves and accumulates across calls.
    """

    __slots__ = ("data", "grad", "requires_grad", "op", "parents", "_backward",
                 "_index", "_pending")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self.op = "leaf"
        self.parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], tuple] | None = None
        self._index = 0
        # backward's gradient slot; None outside a backward call
        self._pending: np.ndarray | None = None

    @classmethod
    def _from_op(cls, data: np.ndarray, op: str, parents: tuple["Tensor", ...],
                 backward: Callable[[np.ndarray], tuple]) -> "Tensor":
        out = cls(data)
        out.op = op
        for p in parents:
            if p.requires_grad:
                out.requires_grad = True
                out.parents = parents
                out._backward = backward
                out._index = next(_creation)
                break
        return out

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise GraphError(f"item: tensor of shape {self.shape} is not a scalar")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        """A gradient-free leaf copy of this tensor's value."""
        return Tensor(self.data.copy())

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self.op!r}, requires_grad={self.requires_grad})"

    # operator sugar; a scalar operand becomes a constant shift
    def __add__(self, other):
        if isinstance(other, Tensor):
            return add(self, other)
        return shift(self, float(other))

    def __sub__(self, other):
        if isinstance(other, Tensor):
            return sub(self, other)
        return shift(self, -float(other))


_by_index = attrgetter("_index")


def topo_order(root: Tensor) -> list[Tensor]:
    """Nodes reachable from ``root``, every node after all of its parents:
    the leaves, then the recorded nodes in creation order."""
    nodes = [root]
    seen = {id(root)}
    stack = [root]
    while stack:
        for p in stack.pop().parents:
            if id(p) not in seen:
                seen.add(id(p))
                nodes.append(p)
                stack.append(p)
    nodes.sort(key=_by_index)
    return nodes


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every requires-grad leaf with d(loss)/d(leaf).

    ``loss`` must be scalar. Pending gradients sit in slots on their nodes
    only while this call runs, also when a VJP raises, so calling backward
    twice on the same graph adds a second full contribution to the leaves
    (accumulation contract).
    """
    if loss.data.size != 1:
        raise GraphError(f"backward: loss must be scalar, got shape {loss.shape}")
    order = topo_order(loss)
    loss._pending = np.ones_like(loss.data)
    try:
        for node in reversed(order):
            g = node._pending
            if g is None:
                continue
            node._pending = None
            if not node.parents:
                if node.requires_grad:
                    # a copy: one VJP may hand the same array to two parents
                    if node.grad is None:
                        node.grad = g.copy()
                    else:
                        node.grad += g
                continue
            # enumerate and an index cost less per node than zip on CPython 3.11
            values = node._backward(g)
            for i, parent in enumerate(node.parents):
                value = values[i]
                if value is None or not parent.requires_grad:
                    continue
                pending = parent._pending
                # never in place, for the same reason
                parent._pending = value if pending is None else pending + value
    except BaseException:
        for node in order:
            node._pending = None
        raise


def sgd_step(params: Sequence[Tensor], lr: float) -> None:
    """In-place p <- p - lr * grad for every param, then clear those grads."""
    for i, p in enumerate(params):
        if p.grad is None:
            raise GraphError(f"sgd_step: parameter {i} (shape {p.shape}) has no gradient")
    for p in params:
        # the leaf owns its grad array (backward allocates it), so scale it
        p.grad *= lr
        p.data -= p.grad
        p.grad = None


def zero_grads(params: Iterable[Tensor]) -> None:
    for p in params:
        p.grad = None


@contextmanager
def frozen(params: Iterable[Tensor]) -> Iterator[None]:
    """Clear ``requires_grad`` on every param for the block, and restore
    each one's flag on exit, also when the block raises. An op whose
    parents are all frozen or constant records no node and takes no
    creation index, so its output holds no graph; scoring under it keeps
    nothing alive but the arrays it returns."""
    params = list(params)
    flags = [p.requires_grad for p in params]
    for p in params:
        p.requires_grad = False
    try:
        yield
    finally:
        for p, flag in zip(params, flags):
            p.requires_grad = flag


# ---------------------------------------------------------------- ops


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} differ")

    def back(g):
        return g, g

    return Tensor._from_op(a.data + b.data, "add", (a, b), back)


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"sub: shapes {a.shape} and {b.shape} differ")

    def back(g):
        return g, -g

    return Tensor._from_op(a.data - b.data, "sub", (a, b), back)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul-elementwise: shapes {a.shape} and {b.shape} differ")

    def back(g):
        return (g * b.data if a.requires_grad else None,
                g * a.data if b.requires_grad else None)

    return Tensor._from_op(a.data * b.data, "mul-elementwise", (a, b), back)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: shapes {a.shape} @ {b.shape} do not conform")

    def back(g):
        return (g @ b.data.T if a.requires_grad else None,
                a.data.T @ g if b.requires_grad else None)

    return Tensor._from_op(a.data @ b.data, "matmul", (a, b), back)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose: expected 2-d tensor, got shape {a.shape}")

    def back(g):
        return (g.T,)

    return Tensor._from_op(a.data.T.copy(), "transpose", (a,), back)


def scale(a: Tensor, s: float) -> Tensor:
    def back(g):
        return (g * s,)

    return Tensor._from_op(a.data * s, "scale", (a,), back)


def shift(a: Tensor, s: float) -> Tensor:
    def back(g):
        return (g,)

    return Tensor._from_op(a.data + s, "shift", (a,), back)


def relu(a: Tensor) -> Tensor:
    # max(x, 0) maps -0.0 to +0.0 like a select on x > 0, and keeps NaN
    y = np.maximum(a.data, 0.0)

    def back(g):
        return (g * (y > 0),)

    return Tensor._from_op(y, "relu", (a,), back)


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)

    def back(g):
        return (g * (1.0 - y * y),)

    return Tensor._from_op(y, "tanh", (a,), back)


def sigmoid(a: Tensor) -> Tensor:
    # the tanh form needs no branch on the sign and cannot overflow
    y = 0.5 * (1.0 + np.tanh(0.5 * a.data))

    def back(g):
        return (g * y * (1.0 - y),)

    return Tensor._from_op(y, "sigmoid", (a,), back)


def exp(a: Tensor) -> Tensor:
    y = np.exp(a.data)

    def back(g):
        return (g * y,)

    return Tensor._from_op(y, "exp", (a,), back)


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0.0):
        raise DomainError(f"log: input has non-positive entries (min={a.data.min()!r}); "
                          "callers must pre-shift")

    def back(g):
        return (g / a.data,)

    return Tensor._from_op(np.log(a.data), "log", (a,), back)


def square(a: Tensor) -> Tensor:
    def back(g):
        return (g * 2.0 * a.data,)

    return Tensor._from_op(a.data * a.data, "square", (a,), back)


def sum_all(a: Tensor) -> Tensor:
    def back(g):
        return (np.full_like(a.data, float(g)),)

    return Tensor._from_op(np.asarray(a.data.sum()), "sum", (a,), back)


def mean_all(a: Tensor) -> Tensor:
    n = a.data.size

    def back(g):
        return (np.full_like(a.data, float(g) / n),)

    return Tensor._from_op(np.asarray(a.data.mean()), "mean", (a,), back)


def concat_last(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[0] != b.shape[0]:
        raise ShapeError(f"concat-last-axis: shapes {a.shape} and {b.shape} "
                         "must be 2-d with equal row counts")
    split = a.shape[1]

    def back(g):
        return g[:, :split], g[:, split:]

    return Tensor._from_op(np.concatenate([a.data, b.data], axis=1),
                           "concat-last-axis", (a, b), back)


def add_rowvec(x: Tensor, row: Tensor) -> Tensor:
    """x + row with row broadcast over the rows of x (bias add)."""
    if x.data.ndim != 2:
        raise ShapeError(f"broadcast-add-row: left operand must be 2-d, got {x.shape}")
    r = row.data.reshape(-1)
    if row.data.ndim > 2 or r.shape[0] != x.shape[1]:
        raise ShapeError(f"broadcast-add-row: row shape {row.shape} does not match "
                         f"columns of {x.shape}")

    def back(g):
        return (g,
                g.sum(axis=0).reshape(row.shape) if row.requires_grad else None)

    return Tensor._from_op(x.data + r[None, :], "broadcast-add-row", (x, row), back)


def linear(*operands: Tensor) -> Tensor:
    """linear(x_1, ..., x_k, w, b): x @ w + b for the input x that joins the
    k >= 1 parts x_i along the last axis; one node for a dense layer. b is a
    bias row broadcast over the rows of x, or an addend of the output's
    shape, such as another input's share of the same layer.

    Bitwise equal to ``add_rowvec(matmul(x, w), b)`` with x from
    ``concat_last``, forward and, for one part, backward. Part i's gradient
    is ``g @ w[rows_i].T`` over its own weight rows, computed only when the
    part requires grad, so a frozen input column block costs no GEMM.
    """
    if len(operands) < 3:
        raise ShapeError(f"linear: needs input parts, w and b; got "
                         f"{len(operands)} operands")
    *xs, w, b = operands
    shapes = [x.data.shape for x in xs]  # each read once, for every layer
    w_shape, b_shape = w.data.shape, b.data.shape
    if (len(w_shape) != 2
            or any(len(s) != 2 or s[0] != shapes[0][0] for s in shapes)
            or sum(s[1] for s in shapes) != w_shape[0]):
        parts = " | ".join(str(s) for s in shapes)
        raise ShapeError(f"linear: shapes {parts} @ {w_shape} do not conform")
    out_shape = (shapes[0][0], w_shape[1])
    full = b_shape == out_shape
    if not full and (len(b_shape) > 2 or b.data.size != w_shape[1]):
        raise ShapeError(f"linear: bias shape {b_shape} matches neither the "
                         f"columns of {w_shape} nor the output {out_shape}")
    x = xs[0].data if len(xs) == 1 else np.concatenate([p.data for p in xs],
                                                       axis=1)
    out = x @ w.data
    out += b.data if full else b.data.reshape(-1)

    def back(g):
        grads, at = [], 0
        for p, s in zip(xs, shapes):
            rows = w.data[at:at + s[1]]
            grads.append(g @ rows.T if p.requires_grad else None)
            at += s[1]
        g_b = None
        if b.requires_grad:
            g_b = g if full else g.sum(axis=0).reshape(b_shape)
        return (*grads, x.T @ g if w.requires_grad else None, g_b)

    return Tensor._from_op(out, "linear", (*xs, w, b), back)


def bce_logits(logits: Tensor, x: Tensor) -> Tensor:
    """Row-mean binary cross-entropy of targets x under Bernoulli logits.

    sum(softplus(l) - x * l) / n over an [n, d] pair, the value of
    -sum(x log sigmoid(l) + (1 - x) log(1 - sigmoid(l))) / n, finite for
    any finite logits. Gradients: (sigmoid(l) - x) / n for the logits and
    -l / n for x.
    """
    if logits.shape != x.shape or logits.data.ndim != 2:
        raise ShapeError(f"bce-logits: logits {logits.shape} vs target {x.shape} "
                         "must be equal 2-d shapes")
    l = logits.data
    n = l.shape[0]
    # softplus(l) = max(l, 0) + log1p(exp(-|l|)): no overflow, no cancellation
    softplus = np.abs(l)
    np.negative(softplus, out=softplus)
    np.exp(softplus, out=softplus)
    np.log1p(softplus, out=softplus)
    softplus += np.maximum(l, 0.0)
    value = x.data * l
    np.subtract(softplus, value, out=value)

    def back(g):
        g_logits = g_x = None
        if logits.requires_grad:
            # sigmoid(l) = exp(l - softplus(l)), from the forward's softplus
            g_logits = l - softplus
            np.exp(g_logits, out=g_logits)
            g_logits -= x.data
            g_logits *= float(g) / n
        if x.requires_grad:
            g_x = (-float(g) / n) * l
        return g_logits, g_x

    return Tensor._from_op(np.asarray(value.sum() / n), "bce-logits",
                           (logits, x), back)


# one entry per op kind, for dispatch-style callers (selftest, grad sweeps)
OP_TABLE: dict[str, Callable[..., Tensor]] = {
    "matmul": matmul,
    "add": add,
    "sub": sub,
    "mul-elementwise": mul,
    "relu": relu,
    "tanh": tanh,
    "sigmoid": sigmoid,
    "exp": exp,
    "log": log,
    "square": square,
    "sum": sum_all,
    "mean": mean_all,
    "concat-last-axis": concat_last,
    "broadcast-add-row": add_rowvec,
    "transpose": transpose,
    "linear": linear,
    "bce-logits": bce_logits,
}
