"""Reverse-mode automatic differentiation over dense float64 arrays.

The library differentiates on arrays. Every piece the fits and the attack
loops compose has one form, a function giving its value and its
hand-written vector-Jacobian product, with no graph:

- a whole residual MLP, stem to heads (`nn.ResidualMLP.terms` and
  `theta_terms`);
- the classification, regression and gate-sparsity losses
  (`softmax_cross_entropy_terms`, `squared_error_terms` and
  `mean_of_column_means_terms`);
- the white-box attack's gate and exit-entropy hinges, one value per row
  (`hinge_terms`, `entropy_hinge_terms`), and the attacks' pixel
  reparameterization (`tanh_unit_terms`).

The benchmark's traced probes still build and differentiate graphs, so
this module keeps only the graph pieces they reach: `Tensor`, `gradients`,
the flat leaves, and the one-node `columns` and `softmax_cross_entropy`
(with the network as one node, `nn.ResidualMLP.__call__`). The primitive
ops (matmul, relu, softmax, the elementwise arithmetic, the reductions and
the rest) live with the tests, which compose them into the unfused graph
each array form must equal byte for byte.

A Tensor wraps an ndarray and remembers, for each parent it was computed
from, a vector-Jacobian closure; it has no operators, and a graph is built
by calling functions that return Tensors. `gradients` walks it once in
reverse topological order and accumulates per-parent contributions in a
side table, so evaluation never mutates nodes. It evaluates only the
vector-Jacobian products on paths from the output to a tensor in `wrt` (or
a view's flat leaf).

Parameters live in flat leaves. `pack` puts many parameter arrays back to
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
An attack objective checks its score alone, not each term: its seed, `c`
and terms enter the score by +, - or *, which carry NaN and infinities
through (see `attacks._scorer`). A check costs one `math.isfinite` on a
number or a 0-d array, and one sum of squares on an array: a finite sum
proves every entry finite, and only a sum that is not finite (a non-finite
entry, or an overflow of finite ones) has the entries checked one by one.
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


def _constant(value):
    """`value` as a read-only 0-d float64 array. A ufunc takes it as an
    operand of a float64 array as it takes the Python float, with the same
    bytes (under numpy's value-based casting and NEP 50 alike), but without
    converting the float again on every call."""
    out = np.array(value, dtype=np.float64)
    out.flags.writeable = False
    return out


# d loss / d loss, the gradient `gradients` starts its reverse walk from,
# and the constants of the relu, the sigmoid, the hinges and tanh_unit
_ONE = _constant(1.0)
_ZERO, _HALF = _constant(0.0), _constant(0.5)


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


class FlatLeaf(Tensor):
    """A leaf holding many parameters back to back, made by `pack`.

    An optimizer steps the one flat vector; each `View` reads its slice of
    whatever array the leaf holds at the time. The leaf keeps only the
    views' layout, not the views, so a dropped model leaves no reference
    cycle behind.
    """

    __slots__ = ("layout",)

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


def pack(arrays):
    """`arrays` back to back in a new `FlatLeaf`, and a view of it standing
    for each array, in order. The leaf checks the whole of it for
    finiteness, as a "leaf"."""
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    flat = FlatLeaf(np.concatenate([a.ravel() for a in arrays]))
    views, start = [], 0
    for a in arrays:
        views.append(View(flat, start, a.shape))
        start = views[-1].stop
    flat.layout = tuple((v.start, v.stop, v.shape) for v in views)
    return flat, views


def as_tensor(value):
    return value if isinstance(value, Tensor) else Tensor(value)


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


def _log_softmax_rows(x):
    """(exp of the max-shifted x, its sums, log_softmax(x)) along the last
    axis, the sums kept as dimensions of size one."""
    shifted = x - np.maximum.reduce(x, axis=-1, keepdims=True)
    e = np.exp(shifted)
    sums = np.add.reduce(e, axis=-1, keepdims=True)
    return e, sums, shifted - np.log(sums)


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
    product toward the logits. `logits` is one row, a batch of rows or a
    (rows, heads, classes) array, and `t` has its shape or, as the one
    target of every head, (rows, classes). The value is each head's mean over
    rows, its row sum taken contiguous, added left to right, as the graph
    adds separate heads' losses. The log-probabilities and each head's loss
    are checked as "softmax_cross_entropy", and each sum as "add"."""
    x, t = (a if a.ndim == 3 else a.reshape(-1, 1, a.shape[-1]) for a in (logits, t))
    logp = _log_softmax_rows(x)[2]
    _require_finite(logp, "softmax_cross_entropy")
    picked = np.add.reduce(logp * t, axis=-1)
    scale = _batch_scale(picked[:, 0], "softmax_cross_entropy")
    losses = _checked(_column_sums(picked) * scale * -1.0, "softmax_cross_entropy")
    value = losses[0]
    for loss in losses[1:]:
        value = _checked(value + loss, "add")

    def grad_logits(g):
        g_logp = g * -1.0 * scale * t
        grad = g_logp - np.exp(logp) * np.add.reduce(g_logp, axis=-1, keepdims=True)
        return grad.reshape(logits.shape)

    return value, grad_logits


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
    """An array of zeros of `shape` with `block` in columns start..stop-1;
    `block` itself, reshaped, where it spans every column."""
    if start == 0 and stop == shape[-1]:
        return block.reshape(shape)
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


def _row_sums(terms):
    """Each row's sum of the columns of `terms`, added left to right: the
    last column of their running sum."""
    return np.add.accumulate(terms, axis=1)[:, -1]


def hinge_terms(x, level, start, stop):
    """Each row's sum over columns start..stop-1 of array `x`, left to right,
    of max(0, level - x), one value per row, and the vector-Jacobian product
    of their sum toward `x` for a scalar incoming gradient; shapes are
    checked as "hinge_sum"."""
    _check_columns("hinge_sum", x, start, stop)
    shortfall = level - _rows(x)[:, start:stop]
    mask = shortfall > _ZERO
    return (_row_sums(np.where(mask, shortfall, _ZERO)),
            lambda g: _scatter_columns(x.shape, start, stop, -(g * mask)))


def entropy_hinge_terms(x, level, width, count):
    """Each row's sum over k < count, left to right, of max(0, level - H_k),
    one value per row, where H_k is the entropy of the softmax of columns
    k * width .. (k + 1) * width - 1 of array `x`, and the vector-Jacobian
    product of their sum toward `x` for a scalar incoming gradient. Shapes
    and the log-probabilities, where the product p * log p would otherwise
    hide an overflow, are checked as "entropy_hinge_sum".

    Every exit runs in one pass over the (rows, count, width) view of the
    columns, and each row adds its exits' terms left to right.
    """
    _check_columns("entropy_hinge_sum", x, 0, width * count)
    rows = _rows(x)
    e, sums, logp = _log_softmax_rows(rows[:, :width * count].reshape(len(rows), count, width))
    p = e / sums
    _require_finite(logp, "entropy_hinge_sum")
    entropy = -np.add.reduce(p * logp, axis=-1)
    shortfall = level - entropy
    mask = shortfall > _ZERO
    total = _row_sums(np.where(mask, shortfall, _ZERO))

    def grad_x(g):
        # d/d(sum p log p) of level + sum p log p, where the hinge is live
        g_prod = np.empty(p.shape)
        g_prod[...] = (g * mask)[..., None]
        g_p, g_logp = g_prod * logp, g_prod * p
        from_logp = g_logp - np.exp(logp) * np.add.reduce(g_logp, axis=-1, keepdims=True)
        out = from_logp + p * (g_p - np.add.reduce(g_p * p, axis=-1, keepdims=True))
        return _scatter_columns(x.shape, 0, width * count, out)

    return total, grad_x


def tanh_unit_terms(w):
    """(tanh(w) + 1) * 0.5 on array `w`, any real array into (0, 1), and its
    vector-Jacobian product toward `w`: the value checked as "tanh_unit", the
    product as "tanh_unit.grad"."""
    t = np.tanh(w)
    return (_checked((t + _ONE) * _HALF, "tanh_unit"),
            lambda g: _checked((g * _HALF) * (_ONE - t * t), "tanh_unit.grad"))


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
