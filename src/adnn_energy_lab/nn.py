"""Layers shared by the adaptive models, the energy regressor and the filter.

All four networks are one shape, a `ResidualMLP`: a stem, residual blocks
and one head at the end or one after every block, optionally with a sigmoid
gate per block, over one flat parameter leaf, `theta`. Its whole forward
and backward runs on arrays: `terms` gives the product toward the input and
`theta_terms` the product toward theta (called on a Tensor, it is one graph
node). It runs only the layers its kept heads and gates read; the per-layer
weights (`Dense`, `ResidualBlock`, gate lists) are `View`s of theta.

The four fits run on arrays and share one epoch loop, `fit_minibatch`: each
step takes a batch's loss and theta gradient from the model's
`_batch_terms`, and Adam writes them into theta's one array in place, so
the layer slices are cut once per fit. The three saved kinds share one
payload layout, `payload_layout`: a (payload key, shape) per theta view, in
theta order.

FLOPs accounting is fixed at 2 * fan_in * fan_out per affine map (one
multiply plus one add per weight). Activations, pooling and gate heads are
treated as free; only affine maps carry cost.
"""

import numpy as np

from .autodiff import (ShapeError, Tensor, View, _checked, _column_sums, _once_per_gradient,
                       _require_finite, as_tensor, pack, softmax_cross_entropy)
from .optim import Adam
from .serialize import array_to_json, param_from_json
from .validation import is_int


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

    `terms` gives, on an array with no graph, the logits of the first
    `heads` heads, then the gate values, and their product toward the input.
    It runs only the layers those outputs read: the gates read `pool` alone,
    so `heads=0` runs no stem, block or head, and a net with one head per
    block runs its blocks only up to the last head it keeps. Called on a
    Tensor, the net gives the same output as one graph node.

    Built from a model's current layers, and kept by the model while they
    stay in place (`kept_network`). `theta` holds their values back to back
    in the order stem, blocks (lin1 then lin2 weight and bias), every gate
    weight, every gate bias, heads. When the layers are not the views of one
    such leaf (a fresh build, or a layer Tensor replaced), they are packed
    into a new one and rebound to its views.
    """

    def __init__(self, stem, blocks, heads, gates=None, pool=None):
        if len(heads) not in (1, len(blocks)):
            raise ValueError("need one head, or one per block")
        self.num_blocks = len(blocks)
        self.num_heads = len(heads)
        self.tap_heads = len(heads) > 1
        self.pool = pool
        params = list(_layer_tensors(stem, blocks, heads, gates))
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
        self._layers_memo = None

    def _layers(self):
        """(stem, blocks, gate weights and biases or None, heads) as arrays,
        slices of theta's present data.

        Computed once per array theta holds: an attack's iterates share one,
        and a fit step rebinds it. The memo is one `(data, layers)` tuple,
        read and written whole.
        """
        data = self.theta.data
        memo = self._layers_memo
        if memo is None or memo[0] is not data:
            memo = (data, self._slice_layers(data))
            self._layers_memo = memo
        return memo[1]

    def _slice_layers(self, data):
        a = self.theta.split(data)
        n = self.num_blocks
        blocks = [a[2 + 4 * i:6 + 4 * i] for i in range(n)]
        rest = 2 + 4 * n
        gates = None
        if self.gated:
            start = self.params[rest].start
            gates = (data[start:start + n], data[start + n:start + 2 * n])
            rest += 2 * n
        heads = [a[i:i + 2] for i in range(rest, len(a), 2)]
        return a[:2], blocks, gates, heads

    def _forward(self, x, layers, threshold=None, heads=None):
        """The forward pass on a batch of rows, and what the backward needs.

        Soft (no `threshold`): every block runs, its branch scaled by the
        gate. Hard: the 0/1 fire mask scales it, and a block no row fires is
        skipped. `heads` keeps the first that many heads (all if None), and
        runs only the layers they read: a tap-head net runs its blocks up to
        the last head kept, and with no head kept neither the stem nor a
        block runs. Returns (logits of each kept head, gate values or None,
        cache).
        """
        (ws, bs), blocks, gate_params, head_params = layers
        kept = self.num_heads if heads is None else heads
        depth = kept if self.tap_heads else (self.num_blocks if kept else 0)
        mask0 = h = None
        if kept:
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
        for i, (w1, b1, w2, b2) in enumerate(blocks[:depth]):
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
                logits.append(h @ head_params[i][0] + head_params[i][1])
        if kept and not self.tap_heads:
            tops.append(h)
            logits.append(h @ head_params[0][0] + head_params[0][1])
        return logits, gates, (x, mask0, pooled, gates, steps, tops)

    def _check_heads(self, heads):
        """`heads`, once checked to be None or how many heads to keep, from
        the first. A net with no gates must keep one, or it returns nothing."""
        least = 0 if self.gated else 1
        if heads is not None and not (is_int(heads) and least <= heads <= self.num_heads):
            raise ValueError("heads must be None or an integer in %d..%d, got %r"
                             % (least, self.num_heads, heads))
        return heads

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

    def _soft(self, x, heads):
        """The soft forward of array `x` (a vector or a batch of rows) and its
        reverse walk: (output, walk, grad_x, grad_theta).

        The output is the logits of the first `heads` heads, then the gate
        values, shaped as the node gives it. `walk(g)` is the one reverse walk
        for the incoming gradient `g`, run once however many of the products
        ask for it; `grad_x` and `grad_theta` map `g` to the gradient toward
        `x` and toward theta. The node, `terms` and `stem_grad` are views of
        this one entry.
        """
        layers = self._layers()
        logits, gates, cache = self._forward(self._rows(x), layers,
                                             heads=self._check_heads(heads))
        out = _side_by_side(logits, gates)
        walk = _once_per_gradient(lambda g: self._backward(layers, cache, g))

        def grad_x(g):
            return self._input_grad(layers, cache, walk(g)).reshape(x.shape)

        def grad_theta(g):
            return self._theta_grad(cache, walk(g))

        return (out.reshape(-1) if x.ndim == 1 else out), walk, grad_x, grad_theta

    def __call__(self, x, heads=None):
        """The soft forward as one node: the logits of the first `heads`
        heads (all of them if None), then the gate values, along the last
        axis. Its parents are `x` and `theta`.

        Only the layers those outputs read are run (see `_forward`): a
        gate-only call (`heads=0`) runs neither the stem, nor a block, nor a
        head. Every value the node computes is checked for finiteness; a
        layer it does not run has no value, and is not checked.
        """
        x = as_tensor(x)
        out, _, grad_x, grad_theta = self._soft(x.data, heads)
        return Tensor(out, ((x, grad_x), (self.theta, grad_theta)), "residual_mlp")

    def terms(self, x, heads=None):
        """The node's output on array `x`, with no graph, and its
        vector-Jacobian product toward `x`: (output, vjp). Both are checked as
        the node and `gradients` check them ("residual_mlp" and
        "residual_mlp.grad"); no theta gradient is built."""
        out, _, grad_x, _ = self._soft(np.asarray(x, dtype=np.float64), heads)
        return _checked(out, "residual_mlp"), lambda g: _checked(grad_x(g), "residual_mlp.grad")

    def theta_terms(self, x):
        """The node's output on array `x`, every head and gate, with no graph,
        and its vector-Jacobian product toward theta: (output, vjp). They are
        checked as a training step's graph checks them: `x` as the input
        leaf ("leaf"), the output as the node ("residual_mlp") and the
        product as its contribution ("residual_mlp.grad"). The walk builds
        no product toward `x`."""
        out, _, _, grad_theta = self._soft(_checked(x, "leaf"), None)
        return (_checked(out, "residual_mlp"),
                lambda g: _checked(grad_theta(g), "residual_mlp.grad"))

    def stem_grad(self, x, out_grad, heads=None):
        """dL/dz0 for each row of `x`, where z0 = x @ Ws + bs is the stem's
        pre-activation: one soft forward and one reverse walk, which builds
        no theta gradient. `out_grad` maps the forward's output (as the node
        gives it for `heads`, one row per input) to dL/d(output).

        The stem weight's gradient for row i is outer(x_i, dL/dz0_i), the
        per-example form of the node's theta gradient `x.T @ dz0`.
        """
        rows = self._rows(np.asarray(x, dtype=np.float64))
        out, walk, _, _ = self._soft(rows, heads)
        dz0 = walk(out_grad(_checked(out, "residual_mlp")))[2]
        return np.zeros((len(rows), self.params[0].shape[1])) if dz0 is None else dz0

    def _backward(self, layers, cache, g):
        """One reverse walk for the incoming gradient `g`, over the layers
        the forward ran.

        A head whose incoming gradient is all zero contributes nothing, and a
        block nothing reaches is not walked. Where several products reach
        one h, they are added head, skip path, branch, in that order.
        """
        (ws, bs), blocks, gate_params, heads = layers
        x, mask0, pooled, gates, steps, tops = cache
        g = g.reshape(len(x), -1)
        c, n = self.out_dim, self.num_blocks
        head_grads = [g[:, k * c:(k + 1) * c] for k in range(len(tops))]
        head_grads = [hg if np.count_nonzero(hg) else None for hg in head_grads]
        down = [None] * len(tops)   # each head's product toward its h
        for k, hg in enumerate(head_grads):
            if hg is not None:
                down[k] = hg @ heads[k][0].T
        block_grads, gate_cols = [None] * n, [None] * n
        # what reaches h after block i: its tapped head, then the skip path
        # and the branch of block i + 1 (the one head, past the last block)
        skip, branch_in = (None if self.tap_heads or not down else down[0]), None
        for i in reversed(range(len(steps))):
            dh = _left_sum([down[i] if self.tap_heads else None, skip, branch_in])
            if dh is None:
                skip = branch_in = None
                continue
            h, mask, act, branch, s = steps[i]
            g_branch = dh if s is None else dh * s
            dz1 = (g_branch @ blocks[i][2].T) * mask
            if s is not None:
                gate_cols[i] = np.add.reduce(dh * branch, axis=-1)
            block_grads[i] = (g_branch, dz1)
            skip, branch_in = dh, dz1 @ blocks[i][0].T
        dh0 = _left_sum([skip, branch_in])
        dz0 = None if dh0 is None else dh0 * mask0
        grad_z = None
        if gates is not None:
            # a gate's block product, then what the loss sends it directly
            incoming = g[:, len(tops) * c:]
            d_gates = incoming.copy()
            for i, col in enumerate(gate_cols):
                if col is not None:
                    d_gates[:, i] = col + incoming[:, i]
            grad_z = d_gates * gates * (1.0 - gates)
        return head_grads, block_grads, dz0, grad_z

    def _input_grad(self, layers, cache, grads):
        """The gradient toward x: the stem's product, then the pool's. The
        pool's product is formed only here, so a walk toward theta alone
        never computes it."""
        ws, gate_params = layers[0][0], layers[2]
        x = cache[0]
        _, _, dz0, grad_z = grads
        dx = None if dz0 is None else dz0 @ ws.T
        if grad_z is not None:
            pooled_grad = np.add.accumulate(grad_z * gate_params[0], axis=1)[:, -1:]
            pooled_part = pooled_grad @ self.pool.T
            dx = pooled_part if dx is None else dx + pooled_part
        return np.zeros(x.shape) if dx is None else dx

    def _theta_grad(self, cache, grads):
        """The gradient toward theta, one flat vector in its layout. Each
        product and bias sum is written straight into its slice."""
        x, _, pooled, _, steps, tops = cache
        head_grads, block_grads, dz0, grad_z = grads
        out = np.zeros(self.theta.data.shape)
        layout = self.theta.layout

        def put(k, left, right):
            # the weight gradient left.T @ right, then its bias, right's column sums
            (start, stop, shape), (bias_start, bias_stop, _) = layout[k:k + 2]
            np.matmul(left.T, right, out=out[start:stop].reshape(shape))
            np.add.reduce(right, axis=0, out=out[bias_start:bias_stop])

        if dz0 is not None:
            put(0, x, dz0)
        for i, bg in enumerate(block_grads):
            if bg is not None:
                h, _, act, _, _ = steps[i]
                g_branch, dz1 = bg
                put(2 + 4 * i, h, dz1)
                put(4 + 4 * i, act, g_branch)
        k = 2 + 4 * self.num_blocks
        if grad_z is not None:
            n = self.num_blocks
            start = layout[k][0]
            out[start:start + n] = _column_sums(grad_z * pooled)
            out[start + n:start + 2 * n] = _column_sums(grad_z)
            k += 2 * n
        for j, hg in enumerate(head_grads):
            if hg is not None:
                put(k + 2 * j, tops[j], hg)
        return out


def _layer_tensors(stem, blocks, heads, gates):
    """Every layer tensor of a network, in theta order."""
    out = [stem.weight, stem.bias]
    for block in blocks:
        lin1, lin2 = block.lin1, block.lin2
        out += lin1.weight, lin1.bias, lin2.weight, lin2.bias
    if gates is not None:
        out += gates[0]
        out += gates[1]
    for head in heads:
        out += head.weight, head.bias
    return tuple(out)


def kept_network(owner, stem, blocks, heads, gates=None, pool=None):
    """`owner`'s `ResidualMLP` over these layers, built once and then reused.

    The network is kept on `owner` as one (layer tensors, network) tuple,
    read and written whole, and reused while every layer tensor it was built
    from is still in place. Replacing a `Dense`, a block, a layer Tensor, a
    gate list or one of its entries builds a new network, which packs the
    layers into a new `theta`. Writing a view's `data` does not: the network
    reads theta's current array at every forward. `pool` makes the gates'
    pooling matrix, and is called only when a network is built. The network
    holds no reference to `owner`, so keeping it makes no reference cycle.
    """
    tensors = _layer_tensors(stem, blocks, heads, gates)
    kept = getattr(owner, "_kept_network", None)
    # a Tensor has no __eq__, so tuple equality compares entries by identity
    if kept is not None and kept[0] == tensors:
        return kept[1]
    net = ResidualMLP(stem, blocks, heads, gates, None if pool is None else pool())
    owner._kept_network = (tuple(net.params), net)
    return net


def payload_layout(input_dim, width, num_blocks, out_dim, block_key, head_keys, gated=False):
    """(payload key, shape) of every theta view, in theta order: the stem,
    each block's lin1 and lin2, every gate weight, every gate bias, the heads.
    `block_key` formats a block's index ("blocks.%d"); `head_keys` names the
    heads. A generator, so a loader sizes nothing before a parameter parses."""
    def dense(key, fan_in, fan_out):
        yield key + ".weight", (fan_in, fan_out)
        yield key + ".bias", (fan_out,)

    yield from dense("stem", input_dim, width)
    for i in range(num_blocks):
        yield from dense(block_key % i + ".lin1", width, width)
        yield from dense(block_key % i + ".lin2", width, width)
    if gated:
        for part in ("weight", "bias"):
            for i in range(num_blocks):
                yield "gates.%d.%s" % (i, part), ()
    for key in head_keys:
        yield from dense(key, width, out_dim)


def params_to_payload(layout, params):
    """A payload's "params" object: each theta view under its layout key."""
    return {key: array_to_json(p.data) for (key, _), p in zip(layout, params)}


def layers_from_payload(payload, layout, num_blocks, gated=False):
    """(stem, blocks, (gate weights, gate biases) or None, heads) from a
    payload's parameters, each checked against its shape in `layout`."""
    arrays = iter([param_from_json(payload, key, shape) for key, shape in layout])

    def dense():
        return Dense(next(arrays), next(arrays))

    stem = dense()
    blocks = [ResidualBlock(dense(), dense()) for _ in range(num_blocks)]
    gates = (tuple([Tensor(next(arrays)) for _ in range(num_blocks)] for _ in range(2))
             if gated else None)
    heads = [Dense(weight, next(arrays)) for weight in arrays]   # the rest, in pairs
    return stem, blocks, gates, heads


def fit_minibatch(batch_terms, theta, X, y, epochs, batch_size, lr, rng, on_epoch=None):
    """Adam on `theta` over shuffled minibatches; each epoch's mean loss.

    Every epoch draws one `rng.permutation(len(X))` and steps once per
    batch of `batch_size` rows on `batch_terms(X[idx], y[idx])`, which
    gives the batch's loss and its gradient toward theta on plain arrays.
    Adam steps `theta.data` in place, in its own copy, so the network's
    layer slices are cut once per fit. `on_epoch(epoch, opt)` runs after
    each epoch; it may set `opt.lr` for the next one or rebind
    `theta.data`. The caller checks the settings against its parameter
    table before it builds anything.
    """
    opt = Adam([theta], lr=lr)
    history = []
    for epoch in range(epochs):
        perm = rng.permutation(len(X))
        epoch_loss = 0.0
        for start in range(0, len(X), batch_size):
            idx = perm[start:start + batch_size]
            loss, grad = batch_terms(X[idx], y[idx])
            opt.step([grad])
            epoch_loss += float(loss) * len(idx)
        history.append(epoch_loss / len(X))
        if on_epoch is not None:
            on_epoch(epoch, opt)
    return history


def _side_by_side(logits, gates):
    """Every head's logits, then the gate values if any, along the last axis."""
    parts = logits if gates is None else logits + [gates]
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)


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
    out = np.zeros(labels.shape + (num_classes,))
    out.reshape(-1, num_classes)[np.arange(labels.size), labels.reshape(-1)] = 1.0
    return out


def cross_entropy(logits, labels, num_classes):
    """Mean negative log-likelihood of integer labels under softmax(logits)."""
    return softmax_cross_entropy(logits, one_hot(labels, num_classes))
