"""Reverse-mode automatic differentiation over dense float64 arrays.

A Tensor wraps an ndarray and remembers, for each parent it was computed
from, a vector-Jacobian closure. Calling an op builds the graph implicitly;
`gradients` walks it once in reverse topological order and accumulates
per-parent contributions in a side table, so evaluation never mutates nodes
and a finished graph is safe to read from multiple threads.

The operator set is deliberately small: the affine map `affine` (x @ w + b)
and the fused residual branch `residual_branch` (relu(h @ w1 + b1) @ w2 + b2),
each one graph node, plus matmul, relu / sigmoid / tanh, softmax, elementwise
arithmetic, reductions, max against a constant, the Euclidean norm, and log.
Everything downstream (layers, losses, entropy, attack objectives) is composed
from these.

`gradients` evaluates only the vector-Jacobian products on paths from the
output to a tensor in `wrt`: an input-gradient step computes no parameter
gradients, and a training step computes no gradient of its input batch.

Finiteness contract: an op whose value is NaN or infinite raises
`NonFiniteError`, and so does every gradient contribution `gradients`
computes. The fused residual branch also checks its hidden pre-activation,
so a relu cannot mask a non-finite value there.
"""

import numpy as np


class ShapeError(ValueError):
    """Operand shapes incompatible for the requested op."""


class NonFiniteError(ArithmeticError):
    """An op produced NaN or Inf from finite inputs."""


def _require_finite(data, op):
    if not np.isfinite(data).all():
        raise NonFiniteError("op %r produced a non-finite value" % op)


class Tensor:
    """Immutable graph node. `data` on leaves may be rebound by optimizers
    between graph constructions, never during evaluation."""

    __slots__ = ("data", "op", "_vjps")

    def __init__(self, data, _vjps=(), op="leaf"):
        self.data = np.asarray(data, dtype=np.float64)
        self.op = op
        self._vjps = _vjps
        _require_finite(self.data, op)

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data.reshape(-1)[0]) if self.size == 1 else self._bad_item()

    def _bad_item(self):
        raise ShapeError("item() needs a size-1 tensor, got shape %s" % (self.shape,))

    def __repr__(self):
        return "Tensor(op=%r, shape=%s)" % (self.op, self.shape)

    # operator sugar; constants are wrapped on the fly
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


def as_tensor(value):
    return value if isinstance(value, Tensor) else Tensor(value)


def _unbroadcast(grad, shape):
    """Sum `grad` back down to `shape` after numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _elementwise(a, b, fn, dfa, dfb, op):
    a, b = as_tensor(a), as_tensor(b)
    try:
        out = fn(a.data, b.data)
    except ValueError:
        raise ShapeError(
            "op %r cannot broadcast shapes %s and %s" % (op, a.shape, b.shape)
        ) from None
    vjps = (
        (a, lambda g: _unbroadcast(dfa(g, a.data, b.data), a.shape)),
        (b, lambda g: _unbroadcast(dfb(g, a.data, b.data), b.shape)),
    )
    return Tensor(out, vjps, op)


def add(a, b):
    return _elementwise(a, b, np.add, lambda g, x, y: g, lambda g, x, y: g, "add")


def sub(a, b):
    return _elementwise(a, b, np.subtract, lambda g, x, y: g, lambda g, x, y: -g, "sub")


def mul(a, b):
    return _elementwise(a, b, np.multiply, lambda g, x, y: g * y, lambda g, x, y: g * x, "mul")


def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim not in (1, 2) or b.ndim != 2 or a.shape[-1] != b.shape[0]:
        raise ShapeError("matmul got shapes %s and %s" % (a.shape, b.shape))
    out = a.data @ b.data

    def grad_a(g):
        return g @ b.data.T

    def grad_b(g):
        if a.ndim == 1:
            return np.outer(a.data, g)
        return a.data.T @ g

    return Tensor(out, ((a, grad_a), (b, grad_b)), "matmul")


def _check_affine(op, x_shape, w, b):
    if len(x_shape) not in (1, 2) or w.ndim != 2 or x_shape[-1] != w.shape[0] \
            or b.shape != (w.shape[1],):
        raise ShapeError("%s got shapes %s, %s and %s" % (op, x_shape, w.shape, b.shape))


def _weight_grad(x, g):
    """Gradient of x @ w with respect to w, for a 1-D or 2-D `x`."""
    return np.outer(x, g) if x.ndim == 1 else x.T @ g


def _bias_grad(g):
    return g if g.ndim == 1 else g.sum(axis=0)


def affine(x, w, b):
    """x @ w + b as one node; `x` is a vector or a batch of rows."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    _check_affine("affine", x.shape, w, b)
    xd, wd = x.data, w.data
    return Tensor(xd @ wd + b.data, (
        (x, lambda g: g @ wd.T),
        (w, lambda g: _weight_grad(xd, g)),
        (b, _bias_grad),
    ), "affine")


def residual_branch(h, w1, b1, w2, b2):
    """relu(h @ w1 + b1) @ w2 + b2 as one node.

    The hidden pre-activation is checked for finiteness too, because the
    relu would otherwise hide a -inf or NaN there. Each parent's closure
    recomputes the hidden gradient it needs, so the closures stay pure.
    """
    h, w1, b1, w2, b2 = (as_tensor(t) for t in (h, w1, b1, w2, b2))
    _check_affine("residual_branch", h.shape, w1, b1)
    _check_affine("residual_branch", h.shape[:-1] + w1.shape[1:], w2, b2)
    hd, w1d, w2d = h.data, w1.data, w2.data
    z1 = hd @ w1d + b1.data
    _require_finite(z1, "residual_branch")
    mask = z1 > 0.0
    a = np.where(mask, z1, 0.0)

    def grad_z1(g):
        return (g @ w2d.T) * mask

    return Tensor(a @ w2d + b2.data, (
        (h, lambda g: grad_z1(g) @ w1d.T),
        (w1, lambda g: _weight_grad(hd, grad_z1(g))),
        (b1, lambda g: _bias_grad(grad_z1(g))),
        (w2, lambda g: _weight_grad(a, g)),
        (b2, _bias_grad),
    ), "residual_branch")


def relu(x):
    x = as_tensor(x)
    mask = x.data > 0.0
    return Tensor(np.where(mask, x.data, 0.0), ((x, lambda g: g * mask),), "relu")


def sigmoid(x):
    x = as_tensor(x)
    # exp overflow at very negative inputs still yields the right limit (0.0)
    with np.errstate(over="ignore"):
        out = 1.0 / (1.0 + np.exp(-x.data))
    return Tensor(out, ((x, lambda g: g * out * (1.0 - out)),), "sigmoid")


def tanh(x):
    x = as_tensor(x)
    out = np.tanh(x.data)
    return Tensor(out, ((x, lambda g: g * (1.0 - out * out)),), "tanh")


def log(x):
    x = as_tensor(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(x.data)
    _require_finite(out, "log")
    return Tensor(out, ((x, lambda g: g / x.data),), "log")


def softmax(x):
    """Softmax along the last axis; rows of a 2-D input are independent."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def grad_x(g):
        inner = (g * out).sum(axis=-1, keepdims=True)
        return out * (g - inner)

    return Tensor(out, ((x, grad_x),), "softmax")


def log_softmax(x):
    """log(softmax(x)) computed without underflow, last axis."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    out = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))

    def grad_x(g):
        return g - np.exp(out) * g.sum(axis=-1, keepdims=True)

    return Tensor(out, ((x, grad_x),), "log_softmax")


def tsum(x, axis=None):
    x = as_tensor(x)
    out = x.data.sum(axis=axis)

    def grad_x(g):
        if axis is None:
            return np.broadcast_to(g, x.shape).copy()
        return np.broadcast_to(np.expand_dims(g, axis), x.shape).copy()

    return Tensor(out, ((x, grad_x),), "sum")


def tmean(x, axis=None):
    x = as_tensor(x)
    count = x.size if axis is None else x.shape[axis]
    if count == 0:
        raise ShapeError("mean over an empty axis")
    return mul(tsum(x, axis=axis), 1.0 / count)


def maximum(x, constant):
    """Elementwise max(x, constant); the subgradient at the kink is 0."""
    x = as_tensor(x)
    c = float(constant)
    mask = x.data > c
    return Tensor(np.where(mask, x.data, c), ((x, lambda g: g * mask),), "maximum")


def l2_norm(x, axis=None):
    """Euclidean norm, optionally per row. Subgradient at the origin is 0."""
    x = as_tensor(x)
    sq = (x.data * x.data).sum(axis=axis)
    out = np.sqrt(sq)

    def grad_x(g):
        denom = np.where(out > 0.0, out, 1.0)
        scale = g / denom * (out > 0.0)
        if axis is None:
            return scale * x.data
        return np.expand_dims(scale, axis) * x.data

    return Tensor(out, ((x, grad_x),), "l2_norm")


def _topo_order(root, wrt_ids):
    """Post-order of the graph under `root` (parents before children), and
    the ids of the nodes at or above some tensor whose id is in `wrt_ids`."""
    order, seen, needed, stack = [], set(), set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            if id(node) in wrt_ids or any(id(p) in needed for p, _ in node._vjps):
                needed.add(id(node))
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent, _ in node._vjps:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order, needed


def gradients(output, wrt):
    """Gradients of a scalar `output` with respect to each tensor in `wrt`.

    Returns a list of ndarrays aligned with `wrt`; tensors the output does
    not depend on get zeros. Only the vector-Jacobian products on paths from
    `output` to a tensor in `wrt` are evaluated, and each contribution they
    make is checked for finiteness. Accumulation happens in a side table
    keyed by node identity, so the graph itself is left untouched.
    """
    output = as_tensor(output)
    if output.size != 1:
        raise ShapeError(
            "gradients needs a scalar output, got shape %s" % (output.shape,)
        )
    table = {id(output): np.ones_like(output.data)}
    grads = {id(t): None for t in wrt}
    order, needed = _topo_order(output, grads)
    # reverse topological order: every consumer of a node is processed
    # before the node itself, so its table entry is complete when read
    for node in reversed(order):
        g = table.get(id(node))
        if g is None:
            continue
        if id(node) in grads:
            grads[id(node)] = g
        for parent, vjp in node._vjps:
            key = id(parent)
            if key not in needed:
                continue
            contribution = vjp(g)
            _require_finite(contribution, node.op + ".grad")
            if key in table:
                table[key] = table[key] + contribution
            else:
                table[key] = contribution
    return [
        grads[id(t)] if grads[id(t)] is not None else np.zeros_like(t.data)
        for t in wrt
    ]
