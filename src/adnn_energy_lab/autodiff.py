"""Reverse-mode automatic differentiation over dense float64 arrays.

A Tensor wraps an ndarray and remembers, for each parent it was computed
from, a vector-Jacobian closure. Calling an op builds the graph implicitly;
`gradients` walks it once in reverse topological order and accumulates
per-parent contributions in a side table, so evaluation never mutates nodes.

The small subgraphs every training step rebuilds are fused ops, one graph
node each with hand-written vector-Jacobian products:

- `affine`: x @ w + b;
- `sigmoid_gate`: sigmoid(x * w + b), a skip gate;
- `residual_step`: h + s * (relu(h @ w1 + b1) @ w2 + b2), where `s` is a soft
  gate, a hard fire mask or absent;
- `softmax_cross_entropy`, `squared_error` and `mean_of_means`: the
  classification, regression and gate-sparsity losses.

The rest is primitive: matmul, relu / sigmoid / tanh, softmax, elementwise
arithmetic, reductions, max against a constant, the Euclidean norm, and log.
Everything downstream (layers, losses, entropy, attack objectives) is composed
from these. Each fused op gives the value and gradients of its unfused
composition bit for bit.

`gradients` evaluates only the vector-Jacobian products on paths from the
output to a tensor in `wrt`: an input-gradient step computes no parameter
gradients, and a training step computes no gradient of its input batch.

The residual step computes what its products share once per backward: the
branch gradient g * s and the hidden gradient (g * s) @ w2.T * mask. They sit
in a per-node memo keyed on the identity of the incoming gradient array and
held, with that array, in one tuple that is read and written whole. So a
finished graph is still safe to differentiate from several threads at once:
each `gradients` call passes its own arrays, and a thread finds either its
own entry or none.

Finiteness contract: an op whose value is NaN or infinite raises
`NonFiniteError`, and so does every gradient contribution `gradients`
computes. The fused ops also check their hidden values (the pre-activation
of the gate and of the residual step's relu, and the log-probabilities of
the cross-entropy), where a sigmoid or a relu could hide a non-finite value.
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


def _once_per_gradient(fn):
    """`fn(g)`, computed once for each incoming gradient `g` and shared by the
    vector-Jacobian products of one node.

    The memo is one `(g, fn(g))` tuple, read and written whole, and keyed on
    the identity of `g`. It holds `g` itself, so no other array can take over
    its id while the entry lives. Two threads running `gradients` on one graph
    pass different `g` arrays, so each either finds its own entry or computes
    its own value; neither can read the other's.
    """
    memo = (None, None)

    def cached(g):
        nonlocal memo
        key, value = memo
        if key is not g:
            value = fn(g)
            memo = (g, value)
        return value

    return cached


def sigmoid_gate(x, w, b):
    """sigmoid(x * w + b) as one node; a skip gate has a scalar weight and
    bias, and the operands broadcast as in `mul` and `add`.

    The pre-activation is checked for finiteness too, because the sigmoid
    would otherwise turn an infinite one into 0 or 1.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    xd, wd = x.data, w.data
    try:
        z = xd * wd + b.data
    except ValueError:
        raise ShapeError("sigmoid_gate cannot broadcast shapes %s, %s and %s"
                         % (x.shape, w.shape, b.shape)) from None
    _require_finite(z, "sigmoid_gate")
    # exp overflow at very negative inputs still yields the right limit (0.0)
    with np.errstate(over="ignore"):
        out = 1.0 / (1.0 + np.exp(-z))

    def grad_z(g):
        return g * out * (1.0 - out)

    return Tensor(out, (
        (x, lambda g: _unbroadcast(grad_z(g) * wd, x.shape)),
        (w, lambda g: _unbroadcast(grad_z(g) * xd, w.shape)),
        (b, lambda g: _unbroadcast(grad_z(g), b.shape)),
    ), "sigmoid_gate")


def residual_step(h, w1, b1, w2, b2, s=None):
    """h + s * (relu(h @ w1 + b1) @ w2 + b2) as one node.

    `s` scales the branch: a soft gate Tensor, a hard 0/1 fire mask, or None
    for the plain residual block `h + branch`. The hidden pre-activation is
    checked for finiteness too, because the relu would otherwise hide a -inf
    or NaN there. The branch gradient `g * s` and the hidden gradient
    `(g * s) @ w2.T * mask` are computed once per backward and shared by the
    products toward `h`, `w1`, `b1`, `w2` and `b2`.
    """
    h, w1, b1, w2, b2 = (as_tensor(t) for t in (h, w1, b1, w2, b2))
    _check_affine("residual_step", h.shape, w1, b1)
    _check_affine("residual_step", h.shape[:-1] + w1.shape[1:], w2, b2)
    if w2.shape[1] != h.shape[-1]:
        raise ShapeError("residual_step maps width %d back to %d"
                         % (h.shape[-1], w2.shape[1]))
    hd, w1d, w2d = h.data, w1.data, w2.data
    z1 = hd @ w1d + b1.data
    _require_finite(z1, "residual_step")
    mask = z1 > 0.0
    a = np.where(mask, z1, 0.0)
    branch = a @ w2d + b2.data
    if s is None:
        out, sd, parents = hd + branch, None, ()
    else:
        s = as_tensor(s)
        sd = s.data
        try:
            out = hd + sd * branch
        except ValueError:
            out = None
        if out is None or out.shape != hd.shape:
            raise ShapeError("residual_step cannot scale a branch of shape %s by %s"
                             % (branch.shape, s.shape))
        parents = ((s, lambda g: _unbroadcast(g * branch, s.shape)),)

    @_once_per_gradient
    def grads(g):
        """(branch gradient, hidden pre-activation gradient)."""
        g_branch = g if sd is None else g * sd
        return g_branch, (g_branch @ w2d.T) * mask

    # the skip path and the branch reach `h` as two products, so `gradients`
    # adds them to h's other contributions in the unfused order
    return Tensor(out, (
        (h, lambda g: g),
        (h, lambda g: grads(g)[1] @ w1d.T),
        (w1, lambda g: _weight_grad(hd, grads(g)[1])),
        (b1, lambda g: _bias_grad(grads(g)[1])),
        (w2, lambda g: _weight_grad(a, grads(g)[0])),
        (b2, lambda g: _bias_grad(grads(g)[0])),
    ) + parents, "residual_step")


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


def _batch_scale(rows, op):
    """1 / the number of rows a mean runs over."""
    if rows.size == 0:
        raise ShapeError("%s needs at least one row" % op)
    return 1.0 / rows.size


def _constant_like(value, t, op):
    """`value` as a float array of the shape of Tensor `t`."""
    arr = np.asarray(value, dtype=np.float64)
    if arr.shape != t.shape:
        raise ShapeError("%s got shapes %s and %s" % (op, t.shape, arr.shape))
    return arr


def softmax_cross_entropy(logits, targets):
    """Mean over rows of -sum(targets * log_softmax(logits)), as one node.

    `targets` is a constant array of the logits' shape (one-hot labels, say)
    and takes no gradient. The log-probabilities are checked for finiteness
    too, so an overflow is reported where it happens.
    """
    logits = as_tensor(logits)
    t = _constant_like(targets, logits, "softmax_cross_entropy")
    x = logits.data
    shifted = x - x.max(axis=-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    _require_finite(logp, "softmax_cross_entropy")
    picked = (logp * t).sum(axis=-1)
    scale = _batch_scale(picked, "softmax_cross_entropy")

    def grad_logits(g):
        g_logp = g * -1.0 * scale * t
        return g_logp - np.exp(logp) * g_logp.sum(axis=-1, keepdims=True)

    return Tensor(picked.sum() * scale * -1.0, ((logits, grad_logits),),
                  "softmax_cross_entropy")


def squared_error(pred, target):
    """Mean over rows of the row-summed squared error, as one node:
    mean(sum((pred - target) ** 2, axis=-1)). `target` is a constant array
    of the prediction's shape and takes no gradient."""
    pred = as_tensor(pred)
    err = pred.data - _constant_like(target, pred, "squared_error")
    rows = (err * err).sum(axis=-1)
    scale = _batch_scale(rows, "squared_error")

    def grad_pred(g):
        half = g * scale * err
        return half + half

    return Tensor(rows.sum() * scale, ((pred, grad_pred),), "squared_error")


def mean_of_means(tensors):
    """The mean over `tensors` of each one's mean, as one node."""
    tensors = [as_tensor(t) for t in tensors]
    if not tensors or any(t.size == 0 for t in tensors):
        raise ShapeError("mean_of_means needs non-empty tensors")
    scales = [1.0 / t.size for t in tensors]
    total = tensors[0].data.sum() * scales[0]
    for t, scale in zip(tensors[1:], scales[1:]):
        total = total + t.data.sum() * scale
    inv_count = 1.0 / len(tensors)

    def grad(t, scale):
        return lambda g: np.full(t.shape, g * inv_count * scale)

    return Tensor(total * inv_count,
                  tuple((t, grad(t, scale)) for t, scale in zip(tensors, scales)),
                  "mean_of_means")


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
