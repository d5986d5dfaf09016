"""Layers shared by the adaptive models, the energy regressor and the filter.

All four networks are one shape, a `ResidualMLP`: a stem, residual blocks
and one head at the end or one after every block, optionally with a sigmoid
gate per block. Its whole forward and backward is one autodiff node over one
flat parameter leaf, `theta`; the per-layer weights (`Dense`,
`ResidualBlock`, gate lists) are `View`s of it.

FLOPs accounting is fixed at 2 * fan_in * fan_out per affine map (one
multiply plus one add per weight). Activations, pooling and gate heads are
treated as free; only affine maps carry cost.
"""

import numpy as np

from .autodiff import (ShapeError, Tensor, View, _column_sums, _once_per_gradient,
                       _require_finite, as_tensor, log_softmax, mul, pack,
                       softmax_cross_entropy, tmean)
from .serialize import param_from_json


def xavier_uniform(rng, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class Dense:
    """The weight and bias of an affine map x @ W + b."""

    def __init__(self, weight, bias):
        self.weight = weight if isinstance(weight, Tensor) else Tensor(weight)
        self.bias = bias if isinstance(bias, Tensor) else Tensor(bias)
        if self.weight.ndim != 2 or self.bias.shape != (self.weight.shape[1],):
            raise ValueError(
                "weight must be 2-D with bias matching its columns, got %s / %s"
                % (self.weight.shape, self.bias.shape)
            )

    @classmethod
    def init(cls, rng, fan_in, fan_out):
        return cls(xavier_uniform(rng, fan_in, fan_out), np.zeros(fan_out))

    @classmethod
    def from_payload(cls, payload, prefix, fan_in, fan_out):
        """The layer stored under `prefix` in a model payload."""
        return cls(param_from_json(payload, prefix + ".weight", (fan_in, fan_out)),
                   param_from_json(payload, prefix + ".bias", (fan_out,)))

    @property
    def fan_in(self):
        return self.weight.shape[0]

    @property
    def fan_out(self):
        return self.weight.shape[1]

    @property
    def flops(self):
        return 2 * self.fan_in * self.fan_out

    @property
    def params(self):
        return [self.weight, self.bias]


class ResidualBlock:
    """h + s * lin2(relu(lin1(h))), both affine maps width -> width; `s` is
    the block's gate value, its 0/1 fire decision, or 1 in an ungated net."""

    def __init__(self, lin1, lin2):
        self.lin1 = lin1
        self.lin2 = lin2

    @classmethod
    def init(cls, rng, width):
        return cls(Dense.init(rng, width, width), Dense.init(rng, width, width))

    @classmethod
    def from_payload(cls, payload, prefix, width):
        return cls(Dense.from_payload(payload, prefix + ".lin1", width, width),
                   Dense.from_payload(payload, prefix + ".lin2", width, width))

    @property
    def flops(self):
        return self.lin1.flops + self.lin2.flops

    @property
    def params(self):
        return self.lin1.params + self.lin2.params


class ResidualMLP:
    """stem -> residual blocks -> head(s) over one flat parameter leaf.

    h0 = relu(x @ Ws + bs), then h <- h + s_i * (relu(h @ w1 + b1) @ w2 + b2)
    per block, and a head reads the last h, or (given one head per block)
    each block's h. A gated net has s_i = sigmoid(pooled * gw_i + gb_i),
    where pooled = x @ `pool`; an ungated net has no s.

    Built per forward from a model's current layers. `theta` holds their
    values back to back in the order stem, blocks (lin1 then lin2 weight and
    bias), every gate weight, every gate bias, heads. When the layers are not
    the views of one such leaf (a fresh build, or a layer Tensor replaced),
    they are packed into a new one and rebound to its views.
    """

    def __init__(self, stem, blocks, heads, gates=None, pool=None):
        if len(heads) not in (1, len(blocks)):
            raise ValueError("need one head, or one per block")
        self.num_blocks = len(blocks)
        self.tap_heads = len(heads) > 1
        self.pool = pool
        gate_params = list(gates[0]) + list(gates[1]) if gates is not None else []
        params = (stem.params + [p for b in blocks for p in b.params] + gate_params
                  + [p for h in heads for p in h.params])
        theta = params[0].flat if isinstance(params[0], View) else None
        if theta is None or not theta.holds(params):
            theta, params = pack(params)
            views = iter(params)
            for layer in [stem] + [lin for b in blocks for lin in (b.lin1, b.lin2)]:
                layer.weight, layer.bias = next(views), next(views)
            for part in gates or ():
                part[:] = [next(views) for _ in part]
            for layer in heads:
                layer.weight, layer.bias = next(views), next(views)
        self.theta = theta
        self.params = params
        self.gated = gates is not None
        self.out_dim = heads[0].fan_out

    def _layers(self):
        """(stem, blocks, gate weights and biases or None, heads) as arrays."""
        a = self.theta.split()
        n = self.num_blocks
        blocks = [a[2 + 4 * i:6 + 4 * i] for i in range(n)]
        rest = 2 + 4 * n
        gates = None
        if self.gated:
            start = self.params[rest].start
            data = self.theta.data
            gates = (data[start:start + n], data[start + n:start + 2 * n])
            rest += 2 * n
        heads = [a[i:i + 2] for i in range(rest, len(a), 2)]
        return a[:2], blocks, gates, heads

    def _forward(self, x, layers, threshold=None):
        """The forward pass on a batch of rows, and what the backward needs.

        Soft (no `threshold`): every block runs, its branch scaled by the
        gate. Hard: the 0/1 fire mask scales it, and a block no row fires is
        skipped. Returns (logits of each head, gate values or None, cache).
        """
        (ws, bs), blocks, gate_params, heads = layers
        z0 = x @ ws + bs
        _require_finite(z0, "residual_mlp")
        mask0 = z0 > 0.0
        h = np.where(mask0, z0, 0.0)
        gates = scale = pooled = None
        if gate_params is not None:
            pooled = x @ self.pool
            zg = pooled * gate_params[0] + gate_params[1]
            _require_finite(zg, "residual_mlp")
            # exp overflow at very negative inputs still yields the right limit (0.0)
            with np.errstate(over="ignore"):
                gates = 1.0 / (1.0 + np.exp(-zg))
            scale = gates if threshold is None else (gates >= threshold).astype(np.float64)
        steps, tops, logits = [], [], []
        for i, (w1, b1, w2, b2) in enumerate(blocks):
            s = None if scale is None else scale[:, i:i + 1]
            if threshold is not None and s is not None and not s.any():
                steps.append(None)
            else:
                z1 = h @ w1 + b1
                _require_finite(z1, "residual_mlp")
                mask = z1 > 0.0
                act = np.where(mask, z1, 0.0)
                branch = act @ w2 + b2
                steps.append((h, mask, act, branch, s))
                h = h + branch if s is None else h + s * branch
            if self.tap_heads:
                tops.append(h)
                logits.append(h @ heads[i][0] + heads[i][1])
        if not self.tap_heads:
            tops.append(h)
            logits.append(h @ heads[0][0] + heads[0][1])
        return logits, gates, (x, mask0, pooled, gates, steps, tops)

    def _rows(self, x):
        """`x` as a batch of rows: a vector is one row."""
        if x.ndim not in (1, 2) or x.shape[-1] != self.params[0].shape[0]:
            raise ShapeError("residual_mlp got input shape %s for %d features"
                             % (x.shape, self.params[0].shape[0]))
        return x.reshape(1, -1) if x.ndim == 1 else x

    def run(self, x, threshold=None):
        """Forward on an array with no graph: (list of each head's logits,
        gate values or None). A `threshold` runs a gated net hard."""
        logits, gates, _ = self._forward(self._rows(np.asarray(x, dtype=np.float64)),
                                         self._layers(), threshold)
        for part in logits:
            _require_finite(part, "residual_mlp")
        return logits, gates

    def __call__(self, x):
        """The soft forward as one node: every head's logits, then the gate
        values, along the last axis. Its parents are `x` and `theta`."""
        x = as_tensor(x)
        rows = self._rows(x.data)
        layers = self._layers()
        logits, gates, cache = self._forward(rows, layers)
        parts = logits if gates is None else logits + [gates]
        out = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
        chain = _once_per_gradient(lambda g: self._backward(layers, cache, g))

        def grad_x(g):
            return self._input_grad(layers, cache, chain(g)).reshape(x.shape)

        def grad_theta(g):
            return self._theta_grad(cache, chain(g))

        return Tensor(out.reshape(-1) if x.ndim == 1 else out,
                      ((x, grad_x), (self.theta, grad_theta)), "residual_mlp")

    def _backward(self, layers, cache, g):
        """One reverse walk for the incoming gradient `g`.

        A head whose incoming gradient is all zero contributes nothing, and a
        block nothing reaches is not walked. Where several products reach
        one h, they are added head, skip path, branch, in that order.
        """
        (ws, bs), blocks, gate_params, heads = layers
        x, mask0, pooled, gates, steps, tops = cache
        g = g.reshape(len(x), -1)
        c, n = self.out_dim, self.num_blocks
        head_grads = [g[:, k * c:(k + 1) * c] for k in range(len(heads))]
        head_grads = [hg if hg.any() else None for hg in head_grads]
        down = [None] * len(heads)   # each head's product toward its h
        for k, hg in enumerate(head_grads):
            if hg is not None:
                down[k] = hg @ heads[k][0].T
        block_grads, gate_cols = [None] * n, [None] * n
        # what reaches h after block i: its tapped head, then the skip path
        # and the branch of block i + 1 (the one head, past the last block)
        skip, branch_in = (None if self.tap_heads else down[0]), None
        for i in reversed(range(n)):
            dh = _left_sum([down[i] if self.tap_heads else None, skip, branch_in])
            if dh is None:
                skip = branch_in = None
                continue
            h, mask, act, branch, s = steps[i]
            g_branch = dh if s is None else dh * s
            dz1 = (g_branch @ blocks[i][2].T) * mask
            if s is not None:
                gate_cols[i] = (dh * branch).sum(axis=-1)
            block_grads[i] = (g_branch, dz1)
            skip, branch_in = dh, dz1 @ blocks[i][0].T
        dh0 = _left_sum([skip, branch_in])
        dz0 = None if dh0 is None else dh0 * mask0
        gate_grads = None
        if gates is not None:
            # a gate's block product, then what the loss sends it directly
            incoming = g[:, len(heads) * c:]
            d_gates = incoming.copy()
            for i, col in enumerate(gate_cols):
                if col is not None:
                    d_gates[:, i] = col + incoming[:, i]
            grad_z = d_gates * gates * (1.0 - gates)
            gate_grads = (grad_z, np.cumsum(grad_z * gate_params[0], axis=1)[:, -1:])
        return head_grads, block_grads, dz0, gate_grads

    def _input_grad(self, layers, cache, grads):
        """The gradient toward x: the stem's product, then the pool's."""
        ws = layers[0][0]
        x = cache[0]
        _, _, dz0, gate_grads = grads
        dx = None if dz0 is None else dz0 @ ws.T
        if gate_grads is not None:
            pooled_part = gate_grads[1] @ self.pool.T
            dx = pooled_part if dx is None else dx + pooled_part
        return np.zeros(x.shape) if dx is None else dx

    def _theta_grad(self, cache, grads):
        """The gradient toward theta, one flat vector in its layout."""
        x, _, pooled, _, steps, tops = cache
        head_grads, block_grads, dz0, gate_grads = grads
        out = np.zeros(self.theta.data.shape)
        views = self.params

        def put(k, *arrays):
            for view, arr in zip(views[k:k + len(arrays)], arrays):
                out[view.start:view.stop] = arr.reshape(-1)

        if dz0 is not None:
            put(0, x.T @ dz0, dz0.sum(axis=0))
        for i, bg in enumerate(block_grads):
            if bg is not None:
                h, _, act, _, _ = steps[i]
                g_branch, dz1 = bg
                put(2 + 4 * i, h.T @ dz1, dz1.sum(axis=0), act.T @ g_branch,
                    g_branch.sum(axis=0))
        k = 2 + 4 * self.num_blocks
        if gate_grads is not None:
            grad_z = gate_grads[0]
            n = self.num_blocks
            start = views[k].start
            out[start:start + n] = _column_sums(grad_z * pooled)
            out[start + n:start + 2 * n] = _column_sums(grad_z)
            k += 2 * n
        for j, hg in enumerate(head_grads):
            if hg is not None:
                put(k + 2 * j, tops[j].T @ hg, hg.sum(axis=0))
        return out


def _left_sum(parts):
    """((a + b) + c) ... over the parts that are not None; None if none are."""
    total = None
    for part in parts:
        if part is not None:
            total = part if total is None else total + part
    return total


def one_hot(labels, num_classes):
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError("labels out of range for %d classes" % num_classes)
    eye = np.eye(num_classes)
    return eye[labels]


def cross_entropy(logits, labels, num_classes):
    """Mean negative log-likelihood of integer labels under softmax(logits)."""
    return softmax_cross_entropy(logits, one_hot(labels, num_classes))


def uniform_cross_entropy(logits):
    """Cross-entropy of softmax(logits) rows against the uniform distribution:
    -mean_k log p_k. A smooth stand-in for entropy that shares its maximizer."""
    return mul(tmean(log_softmax(logits)), -1.0)
