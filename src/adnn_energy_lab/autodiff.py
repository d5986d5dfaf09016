"""Reverse-mode automatic differentiation over dense float64 arrays.

The library differentiates on arrays. Every piece the fits and the attack
loops compose has one form, a function giving its value and its
hand-written vector-Jacobian product, with no graph:

- a whole residual MLP, stem to heads (`nn.ResidualMLP.terms` and
  `theta_terms`);
- the classification, regression and gate-sparsity losses
  (`softmax_cross_entropy_terms`, `squared_error_terms` and
  `mean_of_column_means_terms`);
- the white-box attack's gate and exit-entropy hinges (`hinge_terms`,
  `entropy_hinge_terms`) and the attacks' pixel reparameterization
  (`tanh_unit_terms`).

The graph engine stays beside them as the tests' oracle: each array form
equals, byte for byte, its unfused composition of the primitive ops below
(matmul, relu / sigmoid / tanh, softmax, log_softmax, elementwise
arithmetic, reductions, max against a constant, the Euclidean norm, and
log). The benchmark's traced probes still build graphs, so the graph
pieces they reach stay in the library until the benchmark stops calling
them: `Tensor`, `gradients`, the flat leaves, the network as one node
(`nn.ResidualMLP.__call__`), `columns` and `softmax_cross_entropy`.

A Tensor wraps an ndarray and remembers, for each parent it was computed
from, a vector-Jacobian closure. Calling an op builds the graph implicitly;
`gradients` walks it once in reverse topological order and accumulates
per-parent contributions in a side table, so evaluation never mutates nodes.
It evaluates only the vector-Jacobian products on paths from the output to
a tensor in `wrt` (or a view's flat leaf).

Parameters live in flat leaves. `pack` puts many parameter values back to
back in one `FlatLeaf`, and hands out a `View` per parameter: a leaf that
reads (and, by copy-on-write, writes) its slice. An optimizer steps the
flat leaf; `gradients` gives a view the matching slice of its flat leaf's
gradient, plus whatever it gets as a leaf of its own.

A node whose products share work computes it once per backward, in a memo
keyed on the identity of the incoming gradient array and held, with that
array, in one tuple that is read and written whole. So a finished graph is
still safe to differentiate from several threads at once: each `gradients`
call passes its own arrays, and a thread finds either its own entry or none.

Finiteness contract: an op whose value is NaN or infinite raises
`NonFiniteError`, and so does every gradient contribution `gradients`
computes. The network and the losses also check their hidden values (every
relu and sigmoid pre-activation of a network, and the log-probabilities of
the cross-entropy and the entropy hinge), where a sigmoid or a relu could
hide a non-finite value. The array forms check a value under its op name
and its product under op + ".grad", as `gradients` names a contribution.
A check costs one `math.isfinite` on a number or a 0-d array, and one sum
of squares on an array: a finite sum proves every entry finite, and only a
sum that is not finite (a non-finite entry, or an overflow of finite ones)
has the entries checked one by one.
"""

import math

import numpy as np


class ShapeError(ValueError):
    """Operand shapes incompatible for the requested op."""


class NonFiniteError(ArithmeticError):
    """An op produced NaN or Inf from finite inputs."""


_FLOAT64 = np.dtype(np.float64)


def _require_finite(data, op):
    """Raise `NonFiniteError` naming `op` unless every value of `data` is finite.

    A float or a 0-d float64 array goes through `math.isfinite`. An array
    passes when the sum of its squares (one `np.vdot`, which costs less than
    a ufunc reduction) is finite, which no NaN or infinity allows; only a
    sum that is not finite has the entries checked one by one, so a finite
    array whose squares overflow still passes. Where numpy warns of that
    overflow and a warnings filter or numpy's error state turns the warning
    into an exception, the entries are checked as well.
    """
    if isinstance(data, np.ndarray) and data.ndim:
        try:
            if math.isfinite(np.vdot(data, data)):
                return
        except (RuntimeWarning, FloatingPointError):
            pass
        if np.isfinite(data).all():
            return
    elif isinstance(data, float) or (isinstance(data, np.ndarray) and data.dtype is _FLOAT64):
        if math.isfinite(data):
            return
    elif np.isfinite(data).all():
        return
    raise NonFiniteError("op %r produced a non-finite value" % op)


def _checked(data, op):
    """`data`, once `_require_finite` has passed it under the name `op`."""
    _require_finite(data, op)
    return data


# d loss / d loss, the gradient `gradients` starts its reverse walk from
_ONE = np.ones(())
_ONE.flags.writeable = False


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


class FlatLeaf(Tensor):
    """A leaf holding many parameters back to back, made by `pack`.

    An optimizer steps the one flat vector; each `View` reads its slice of
    whatever array the leaf holds at the time. The leaf keeps only the
    views' layout, not the views, so a dropped model leaves no reference
    cycle behind.
    """

    __slots__ = ("layout",)

    def holds(self, tensors):
        """Whether `tensors` are views of this leaf that cover it in order."""
        return len(tensors) == len(self.layout) and all(
            type(t) is View and t.flat is self and t.start == start
            for t, (start, _, _) in zip(tensors, self.layout))

    def split(self, data):
        """Each view's value in `data`, an array this leaf holds, as slices."""
        return [data[start:stop].reshape(shape) for start, stop, shape in self.layout]


class View(Tensor):
    """A leaf whose value is a slice of a `FlatLeaf`, reshaped.

    Reading `data` reads the flat leaf's current array. Assigning `data`
    gives the flat leaf a copy of its array with this slice replaced, so an
    array already handed out is never written. `gradients` gives a view the
    matching slice of its flat leaf's gradient.
    """

    __slots__ = ("flat", "start", "stop", "_shape")

    def __init__(self, flat, start, shape):
        self.flat = flat
        self.start = start
        self._shape = tuple(shape)
        self.stop = start + int(np.prod(self._shape, dtype=np.int64))
        self.op = "leaf"
        self._vjps = ()

    @property
    def data(self):
        return self.flat.data[self.start:self.stop].reshape(self._shape)

    @data.setter
    def data(self, value):
        value = np.asarray(value, dtype=np.float64)
        if value.shape != self._shape:
            raise ShapeError("cannot set a view of shape %s to shape %s"
                             % (self._shape, value.shape))
        _require_finite(value, "leaf")
        flat = self.flat.data.copy()
        flat[self.start:self.stop] = value.reshape(-1)
        self.flat.data = flat

    @property
    def shape(self):
        return self._shape


def pack(tensors):
    """The values of `tensors` back to back in a new `FlatLeaf`, and a view
    of it standing for each tensor, in order."""
    flat = FlatLeaf(np.concatenate([np.ravel(t.data) for t in tensors]))
    views, start = [], 0
    for t in tensors:
        views.append(View(flat, start, t.shape))
        start = views[-1].stop
    flat.layout = tuple((v.start, v.stop, v.shape) for v in views)
    return flat, views


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


def _log_softmax_rows(x):
    """(exp of the max-shifted x, log_softmax(x)) along the last axis."""
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e, shifted - np.log(np.add.reduce(e, axis=-1, keepdims=True))


def log_softmax(x):
    """log(softmax(x)) computed without underflow, last axis."""
    x = as_tensor(x)
    out = _log_softmax_rows(x.data)[1]

    def grad_x(g):
        return g - np.exp(out) * g.sum(axis=-1, keepdims=True)

    return Tensor(out, ((x, grad_x),), "log_softmax")


def _batch_scale(rows, op):
    """1 / the number of rows a mean runs over."""
    if rows.size == 0:
        raise ShapeError("%s needs at least one row" % op)
    return 1.0 / rows.size


def _constant_like(value, t, op):
    """`value` as a float array of the shape of `t`, a Tensor or an array."""
    arr = np.asarray(value, dtype=np.float64)
    if arr.shape != t.shape:
        raise ShapeError("%s got shapes %s and %s" % (op, t.shape, arr.shape))
    return arr


def softmax_cross_entropy_terms(logits, t):
    """The value of `softmax_cross_entropy` on arrays, and its vector-Jacobian
    product toward the logits. The log-probabilities are checked."""
    logp = _log_softmax_rows(logits)[1]
    _require_finite(logp, "softmax_cross_entropy")
    picked = np.add.reduce(logp * t, axis=-1)
    scale = _batch_scale(picked, "softmax_cross_entropy")

    def grad_logits(g):
        g_logp = g * -1.0 * scale * t
        return g_logp - np.exp(logp) * np.add.reduce(g_logp, axis=-1, keepdims=True)

    return np.add.reduce(picked, None) * scale * -1.0, grad_logits


def softmax_cross_entropy(logits, targets):
    """Mean over rows of -sum(targets * log_softmax(logits)), as one node.

    `targets` is a constant array of the logits' shape (one-hot labels, say)
    and takes no gradient. The log-probabilities are checked for finiteness
    too, so an overflow is reported where it happens.
    """
    logits = as_tensor(logits)
    t = _constant_like(targets, logits, "softmax_cross_entropy")
    value, vjp = softmax_cross_entropy_terms(logits.data, t)
    return Tensor(value, ((logits, vjp),), "softmax_cross_entropy")


def squared_error_terms(pred, target):
    """Mean over rows of the row-summed squared error,
    mean(sum((pred - target) ** 2, axis=-1)), on arrays, and its
    vector-Jacobian product toward the prediction. `target` has the
    prediction's shape and takes no gradient."""
    err = pred - _constant_like(target, pred, "squared_error")
    rows = np.add.reduce(err * err, axis=-1)
    scale = _batch_scale(rows, "squared_error")

    def grad_pred(g):
        half = g * scale * err
        return half + half

    return np.add.reduce(rows, None) * scale, grad_pred


def _rows(x):
    """A vector as a one-row batch; a batch of rows as it is."""
    return x.reshape(1, -1) if x.ndim == 1 else x


def _column_sums(block):
    """Each column's sum, summed as numpy sums that column on its own."""
    return np.add.reduce(np.ascontiguousarray(block.T), axis=-1)


def _check_columns(op, x, start, stop):
    if x.ndim not in (1, 2) or not 0 <= start < stop <= x.shape[-1]:
        raise ShapeError("%s cannot take columns %d:%d of shape %s" % (op, start, stop, x.shape))


def _scatter_columns(shape, start, stop, block):
    """An array of zeros of `shape` with `block` in columns start..stop-1."""
    out = np.zeros(shape)
    out[..., start:stop] = block.reshape(out[..., start:stop].shape)
    return out


def columns(x, start, stop):
    """Columns start..stop-1 (along the last axis) of x, as one node."""
    x = as_tensor(x)
    _check_columns("columns", x, start, stop)
    return Tensor(x.data[..., start:stop],
                  ((x, lambda g: _scatter_columns(x.shape, start, stop, g)),), "columns")


def mean_of_column_means_terms(x, start, stop):
    """The mean over columns start..stop-1 of array `x` of each column's
    mean, and its vector-Jacobian product toward `x`. A column's mean is its
    sum times 1 / rows, and the columns are added left to right, as a mean
    of means over separate column tensors would; shapes are checked as
    "mean_of_column_means"."""
    _check_columns("mean_of_column_means", x, start, stop)
    block = _rows(x)[:, start:stop]
    scale = 1.0 / block.shape[0]
    sums = _column_sums(block)
    total = sums[0] * scale
    for s in sums[1:]:
        total = total + s * scale
    inv_count = 1.0 / block.shape[1]

    def grad_x(g):
        out = np.zeros(x.shape)
        out[..., start:stop] = g * inv_count * scale
        return out

    return total * inv_count, grad_x


def hinge_terms(x, level, start, stop):
    """The sum over columns start..stop-1 of array `x`, left to right, of
    each column's sum over rows of max(0, level - x), and its vector-Jacobian
    product toward `x`; shapes are checked as "hinge_sum"."""
    _check_columns("hinge_sum", x, start, stop)
    shortfall = level - _rows(x)[:, start:stop]
    mask = shortfall > 0.0
    sums = _column_sums(np.where(mask, shortfall, 0.0))
    total = sums[0]
    for s in sums[1:]:
        total = total + s
    return total, lambda g: _scatter_columns(
        x.shape, start, stop, -(np.full(mask.shape, g) * mask))


def entropy_hinge_terms(x, level, width, count):
    """The sum over k < count, left to right, of the sum over rows of
    max(0, level - H_k), where H_k is the entropy of the softmax of columns
    k * width .. (k + 1) * width - 1 of array `x`, and its vector-Jacobian
    product toward `x`. Shapes and the log-probabilities, where the product
    p * log p would otherwise hide an overflow, are checked as
    "entropy_hinge_sum".

    Every exit runs in one pass over the (rows, count, width) view of the
    columns; each exit's term is its own sum over rows, and the terms are
    added left to right.
    """
    _check_columns("entropy_hinge_sum", x, 0, width * count)
    rows = _rows(x)
    e, logp = _log_softmax_rows(rows[:, :width * count].reshape(len(rows), count, width))
    p = e / e.sum(axis=-1, keepdims=True)
    _require_finite(logp, "entropy_hinge_sum")
    entropy = -(p * logp).sum(axis=-1)
    shortfall = level - entropy
    mask = shortfall > 0.0
    terms = _column_sums(np.where(mask, shortfall, 0.0))
    total = terms[0]
    for term in terms[1:]:
        total = total + term

    def grad_x(g):
        # d/d(sum p log p) of level + sum p log p, where the hinge is live
        g_prod = np.empty(p.shape)
        g_prod[...] = (np.full(mask.shape, g) * mask)[..., None]
        g_p, g_logp = g_prod * logp, g_prod * p
        from_logp = g_logp - np.exp(logp) * g_logp.sum(axis=-1, keepdims=True)
        out = from_logp + p * (g_p - (g_p * p).sum(axis=-1, keepdims=True))
        return _scatter_columns(x.shape, 0, width * count, out)

    return total, grad_x


def tanh_unit_terms(w):
    """(tanh(w) + 1) * 0.5 on array `w`, any real array into (0, 1), and its
    vector-Jacobian product toward `w`: the value checked as "tanh_unit", the
    product as "tanh_unit.grad"."""
    t = np.tanh(w)
    return (_checked((t + 1.0) * 0.5, "tanh_unit"),
            lambda g: _checked((g * 0.5) * (1.0 - t * t), "tanh_unit.grad"))


def tsum(x, axis=None):
    x = as_tensor(x)
    out = x.data.sum(axis=axis)

    def grad_x(g):
        if axis is None:
            return np.full(x.shape, g)
        full = np.empty(x.shape)
        full[...] = np.expand_dims(g, axis)
        return full

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


def _topo_order(root, wrt):
    """Post-order of the graph under `root` (parents before children), and
    the nodes at or above some tensor in `wrt`.

    A depth-first walk keyed on the nodes themselves (a Tensor hashes by
    identity), visiting each node's parents last to first.
    """
    order, needed, seen = [], set(), {root}
    stack = [(root, reversed(root._vjps))]
    while stack:
        node, parents = stack[-1]
        for parent, _ in parents:
            if parent not in seen:
                seen.add(parent)
                stack.append((parent, reversed(parent._vjps)))
                break
        else:
            stack.pop()
            order.append(node)
            if node in wrt:
                needed.add(node)
            else:
                for parent, _ in node._vjps:
                    if parent in needed:
                        needed.add(node)
                        break
    return order, needed


def gradients(output, wrt):
    """Gradients of a scalar `output` with respect to each tensor in `wrt`.

    Returns a list of ndarrays aligned with `wrt`; tensors the output does
    not depend on get zeros. A `View` gets its own gradient plus the
    matching slice of its flat leaf's gradient. Only the vector-Jacobian
    products on paths from `output` to a tensor in `wrt` (or a view's flat
    leaf) are evaluated, and each contribution they make is checked for
    finiteness. Accumulation happens in a side table keyed by the nodes
    (a Tensor hashes and compares by identity), so the graph itself is left
    untouched.
    """
    output = as_tensor(output)
    if output.size != 1:
        raise ShapeError(
            "gradients needs a scalar output, got shape %s" % (output.shape,)
        )
    table = {output: np.ones_like(output.data)}
    grads = {t: None for t in wrt}
    grads.update((t.flat, None) for t in wrt if isinstance(t, View))
    order, needed = _topo_order(output, grads)
    # reverse topological order: every consumer of a node is processed
    # before the node itself, so its table entry is complete when read
    for node in reversed(order):
        g = table.get(node)
        if g is None:
            continue
        if node in grads:
            grads[node] = g
        for parent, vjp in node._vjps:
            if parent not in needed:
                continue
            contribution = vjp(g)
            _require_finite(contribution, node.op + ".grad")
            if parent in table:
                table[parent] = table[parent] + contribution
            else:
                table[parent] = contribution
    return [_gradient_of(t, grads) for t in wrt]


def _gradient_of(t, grads):
    g = grads[t]
    flat = grads[t.flat] if isinstance(t, View) else None
    if flat is not None:
        part = flat[t.start:t.stop].reshape(t.shape)
        g = part if g is None else g + part
    return g if g is not None else np.zeros(t.shape)
