"""The primitive graph ops: the tests' oracle for the library's array forms.

Each op takes Tensors (or constants, wrapped on the fly) and returns a new
`autodiff.Tensor` holding its value and a vector-Jacobian closure per
parent, so `autodiff.gradients` can walk the graph the ops build. The
oracles in `oracles.py` compose these ops into the unfused graph each
array form of the library stands for, and the tests compare the two byte
for byte.

The ops rest on the library's graph node (`Tensor`, its finiteness check
and `gradients`) and on nothing else of it: the softmax and log-softmax
here repeat their arithmetic (max shift, `exp`, `np.add.reduce`, `log`)
rather than call the library's own helper, so a fault in that helper shows
as a difference between the array forms and these graphs.
"""

import numpy as np

from adnn_energy_lab.autodiff import ShapeError, Tensor, _require_finite, as_tensor


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
    e = np.exp(x.data - x.data.max(axis=-1, keepdims=True))
    out = e / np.add.reduce(e, axis=-1, keepdims=True)

    def grad_x(g):
        inner = (g * out).sum(axis=-1, keepdims=True)
        return out * (g - inner)

    return Tensor(out, ((x, grad_x),), "softmax")


def log_softmax(x):
    """log(softmax(x)) computed without underflow, last axis: the max-shifted
    x less the log of its exponentials' sum."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    out = shifted - np.log(np.add.reduce(np.exp(shifted), axis=-1, keepdims=True))

    def grad_x(g):
        return g - np.exp(out) * g.sum(axis=-1, keepdims=True)

    return Tensor(out, ((x, grad_x),), "log_softmax")


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
