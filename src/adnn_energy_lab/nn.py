"""Layers shared by the adaptive models, the energy regressor and the filter.

All four networks are one shape, a `ResidualMLP`: a stem, residual blocks
and one head at the end or one after every block, optionally with a sigmoid
gate per block, over one flat parameter leaf, `theta`. Its whole forward
and backward runs on arrays: `terms` gives the product toward the input and
`theta_terms` the product toward theta (called on a Tensor, it is one graph
node). It runs only the layers its kept heads and gates read. Every
product goes through `ndarray.dot`, and each weight gradient through
`np.dot(out=)` into its slice of theta's gradient: `@` makes the same BLAS
call through the matmul ufunc, whose dispatch costs more per call, and
`tests/test_packaging.py` keeps `@` and `matmul` out of this module. The
relu is `np.maximum(z, 0.0)`, with the mask `z > 0.0` kept for the
backward, so a -0.0 pre-activation gives +0.0. The network packs the
layout's arrays into theta and cuts its layers from theta's views: `Dense`
and `ResidualBlock` are read-only records (named tuples) of `View`s, and a
weight changes by a write to its view's `data`. The network holds no
reference to its model, so a dropped model is freed at once.

The four models are `ResidualModel`s. The base draws the layers, builds and
holds the model's one network, shows its layers as read-only attributes
(`layer_view`) and runs the one epoch loop, `fit_minibatch`: each step
takes a batch's loss and theta gradient from the model's `_batch_terms`,
and Adam writes them into theta's one array in place, so the layer slices
are cut once per fit. It also holds the classifiers' one fit and one batch
loss, every head's cross-entropy plus a gated net's gate penalty, which
the skip and exit nets and the filter share; the estimator gives its own
regression loss and fit. A step builds no graph; the tests compare each
step, byte for byte, with the unfused graph of the batch's loss in
`tests/oracles.py`. The draw, `to_payload` and `from_payload` walk one
layout, `payload_layout`: a (payload key, shape) per theta view, in theta
order; the draw and the loader build the network with one method,
`ResidualModel._assemble`.
"""

from typing import NamedTuple

import numpy as np

from .autodiff import (_ONE, _ZERO, ShapeError, Tensor, View, _checked, _column_sums,
                       _once_per_gradient, _require_finite, _scatter_columns, as_tensor,
                       mean_of_column_means_terms, pack, softmax_cross_entropy,
                       softmax_cross_entropy_terms)
from .base import ParamsMixin, check_is_fitted
from .optim import Adam
from .seeding import derive_rng
from .serialize import array_to_json, param_from_json, payload_config
from .validation import (as_label_array, as_sample_matrix, check_params, check_same_length,
                         is_int)


def xavier_uniform(rng, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class Dense(NamedTuple):
    """The weight and bias of an affine map x @ W + b: views of a network's
    theta, fixed when the network is built."""

    weight: View
    bias: View

    @property
    def params(self):
        return [self.weight, self.bias]


class ResidualBlock(NamedTuple):
    """h + s * lin2(relu(lin1(h))), both affine maps width -> width; `s` is
    the block's gate value, its 0/1 fire decision, or 1 in an ungated net."""

    lin1: Dense
    lin2: Dense

    @property
    def params(self):
        return self.lin1.params + self.lin2.params


class ResidualMLP:
    """stem -> residual blocks -> head(s) over one flat parameter leaf.

    h0 = relu(x @ Ws + bs), then h <- h + s_i * (relu(h @ w1 + b1) @ w2 + b2)
    per block, and a head reads the last h, or (given one head per block)
    each block's h. A gated net has s_i = sigmoid(pooled * gw_i + gb_i),
    where pooled = x @ `pool`; an ungated net has no `pool` and no s.

    `terms` gives, on an array with no graph, the logits of the first
    `heads` heads, then the gate values, and their product toward the input.
    It runs only the layers those outputs read: the gates read `pool` alone,
    so `heads=0` runs no stem, block or head, and a net with one head per
    block runs its blocks only up to the last head it keeps. Called on a
    Tensor, the net gives the same output as one graph node.

    Built once per model, by `ResidualModel._assemble`, from `arrays` in
    layout order (stem, each block's lin1 then lin2 weight and bias, every
    gate weight, every gate bias if gated, heads): they are packed back to
    back into a new `theta`, and the net cuts its `stem`, `blocks`, `gates`
    (gate weights, gate biases) and `heads` from theta's views. These are
    read-only records; every forward reads theta's current array, so a
    write to a view's `data` is what the next forward runs on.
    """

    def __init__(self, arrays, num_blocks, pool=None):
        self.theta, self.params = pack(arrays)
        n = self.num_blocks = num_blocks
        self.pool = pool
        self.gated = pool is not None
        v = self.params
        self.stem = Dense(*v[:2])
        self.blocks = tuple(ResidualBlock(Dense(*v[k:k + 2]), Dense(*v[k + 2:k + 4]))
                            for k in range(2, 2 + 4 * n, 4))
        rest = 2 + 4 * n
        self.gates = None
        if self.gated:
            self.gates = (tuple(v[rest:rest + n]), tuple(v[rest + n:rest + 2 * n]))
            rest += 2 * n
        self.heads = tuple(Dense(*v[k:k + 2]) for k in range(rest, len(v), 2))
        self.num_heads = len(self.heads)
        self.tap_heads = self.num_heads > 1
        self.input_dim = self.stem.weight.shape[0]
        self.out_dim = self.heads[0].weight.shape[1]
        self._layers_memo = None

    def _layers(self):
        """The layer records, slices of theta's present data: the stem
        (ws, bs, ws.T), each block (w1, b1, w2, b2, w1.T, w2.T), the gate
        weights and biases or None, and each head (w, b, w.T). The
        transposes are the views the reverse walk multiplies by.

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
        blocks = [(w1, b1, w2, b2, w1.T, w2.T)
                  for w1, b1, w2, b2 in (a[2 + 4 * i:6 + 4 * i] for i in range(n))]
        rest = 2 + 4 * n
        gates = None
        if self.gated:
            start = self.params[rest].start
            gates = (data[start:start + n], data[start + n:start + 2 * n])
            rest += 2 * n
        heads = [(a[i], a[i + 1], a[i].T) for i in range(rest, len(a), 2)]
        return (a[0], a[1], a[0].T), blocks, gates, heads

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
        (ws, bs, _), blocks, gate_params, head_params = layers
        kept = self.num_heads if heads is None else heads
        depth = kept if self.tap_heads else (self.num_blocks if kept else 0)
        mask0 = h = None
        if kept:
            z0 = x.dot(ws) + bs
            _require_finite(z0, "residual_mlp")
            mask0 = z0 > _ZERO
            h = np.maximum(z0, _ZERO)
        gates = scale = pooled = None
        if gate_params is not None:
            pooled = x.dot(self.pool)
            zg = pooled * gate_params[0] + gate_params[1]
            _require_finite(zg, "residual_mlp")
            # exp overflow at very negative inputs still yields the right limit (0.0)
            with np.errstate(over="ignore"):
                gates = _ONE / (_ONE + np.exp(-zg))
            scale = gates if threshold is None else (gates >= threshold).astype(np.float64)
        steps, tops, logits = [], [], []
        for i, (w1, b1, w2, b2, _, _) in enumerate(blocks[:depth]):
            s = None if scale is None else scale[:, i:i + 1]
            if threshold is not None and s is not None and not s.any():
                steps.append(None)
            else:
                z1 = h.dot(w1) + b1
                _require_finite(z1, "residual_mlp")
                mask = z1 > _ZERO
                act = np.maximum(z1, _ZERO)
                branch = act.dot(w2) + b2
                steps.append((h, mask, act, branch, s))
                h = h + branch if s is None else h + s * branch
            if self.tap_heads:
                tops.append(h)
                logits.append(h.dot(head_params[i][0]) + head_params[i][1])
        if kept and not self.tap_heads:
            tops.append(h)
            logits.append(h.dot(head_params[0][0]) + head_params[0][1])
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
        if x.ndim not in (1, 2) or x.shape[-1] != self.input_dim:
            raise ShapeError("residual_mlp got input shape %s for %d features"
                             % (x.shape, self.input_dim))
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
        """The soft forward of array `x` (a vector or a batch of rows), and
        what its reverse walk reads: (output, layers, cache).

        The output is the logits of the first `heads` heads, then the gate
        values, shaped as the node gives it. The node, `terms`,
        `theta_terms` and `stem_grad` each walk back from this one entry,
        with `_backward`, and form only the products they read.
        """
        layers = self._layers()
        logits, gates, cache = self._forward(self._rows(x), layers,
                                             heads=self._check_heads(heads))
        out = _side_by_side(logits, gates)
        return (out.reshape(-1) if x.ndim == 1 else out), layers, cache

    def __call__(self, x, heads=None):
        """The soft forward as one node: the logits of the first `heads`
        heads (all of them if None), then the gate values, along the last
        axis. Its parents are `x` and `theta`, whose two products share one
        reverse walk per incoming gradient.

        Only the layers those outputs read are run (see `_forward`): a
        gate-only call (`heads=0`) runs neither the stem, nor a block, nor a
        head. Every value the node computes is checked for finiteness; a
        layer it does not run has no value, and is not checked.
        """
        x = as_tensor(x)
        out, layers, cache = self._soft(x.data, heads)
        walk = _once_per_gradient(lambda g: self._backward(layers, cache, g))
        return Tensor(out, ((x, lambda g: self._input_grad(layers, walk(g), x.shape)),
                            (self.theta, lambda g: self._theta_grad(cache, walk(g)))),
                      "residual_mlp")

    def terms(self, x, heads=None):
        """The node's output on array `x`, with no graph, and its
        vector-Jacobian product toward `x`: (output, vjp). Both are checked as
        the node and `gradients` check them ("residual_mlp" and
        "residual_mlp.grad"); no theta gradient is built."""
        x = np.asarray(x, dtype=np.float64)
        out, layers, cache = self._soft(x, heads)

        def vjp(g):
            grads = self._backward(layers, cache, g)
            return _checked(self._input_grad(layers, grads, x.shape), "residual_mlp.grad")

        return _checked(out, "residual_mlp"), vjp

    def theta_terms(self, x):
        """The node's output on array `x`, every head and gate, with no graph,
        and its vector-Jacobian product toward theta: (output, vjp). They are
        checked as a training step's graph checks them: `x` as the input
        leaf ("leaf"), the output as the node ("residual_mlp") and the
        product as its contribution ("residual_mlp.grad"). The walk builds
        no product toward `x`."""
        out, layers, cache = self._soft(_checked(x, "leaf"), None)
        return (_checked(out, "residual_mlp"), lambda g: _checked(
            self._theta_grad(cache, self._backward(layers, cache, g)), "residual_mlp.grad"))

    def stem_grad(self, x, out_grad, heads=None):
        """dL/dz0 for each row of `x`, where z0 = x @ Ws + bs is the stem's
        pre-activation: one soft forward and one reverse walk, which builds
        no theta gradient and no gate product. `out_grad` maps the forward's
        output (as the node gives it for `heads`, one row per input) to
        dL/d(output).

        The stem weight's gradient for row i is outer(x_i, dL/dz0_i), the
        per-example form of the node's theta gradient `x.T @ dz0`.
        """
        rows = self._rows(np.asarray(x, dtype=np.float64))
        out, layers, cache = self._soft(rows, heads)
        dz0 = self._backward(layers, cache, out_grad(_checked(out, "residual_mlp")),
                             gates=False)[2]
        return np.zeros((len(rows), self.params[0].shape[1])) if dz0 is None else dz0

    def _backward(self, layers, cache, g, gates=True):
        """One reverse walk for the incoming gradient `g`, over the layers
        the forward ran: (head grads, block grads, dz0, gate pre-activation
        grad). With `gates` False it forms no gate product, and gives None.

        A head whose incoming gradient is all zero contributes nothing, and a
        block nothing reaches is not walked. Where several products reach
        one h, they are added head, skip path, branch, in that order.
        """
        _, blocks, _, heads = layers
        x, mask0, _, gate_values, steps, tops = cache
        c, n = self.out_dim, self.num_blocks
        width = len(tops) * c
        # the output's own width, so that a batch of no rows walks too
        g = g.reshape(len(x), width if gate_values is None else width + n)
        head_grads, down = [], []   # each head's gradient, and its product toward its h
        for k in range(len(tops)):
            hg = g[:, k * c:(k + 1) * c]
            live = np.count_nonzero(hg)
            head_grads.append(hg if live else None)
            down.append(hg.dot(heads[k][2]) if live else None)
        block_grads, gate_cols = [None] * n, [None] * n
        # what reaches h after block i: its tapped head, then the skip path
        # and the branch of block i + 1 (the one head, past the last block)
        skip, branch_in = (None if self.tap_heads or not down else down[0]), None
        for i in reversed(range(len(steps))):
            dh = down[i] if self.tap_heads else None
            if skip is not None:
                dh = skip if dh is None else dh + skip
            if branch_in is not None:
                dh = branch_in if dh is None else dh + branch_in
            if dh is None:
                continue
            h, mask, act, branch, s = steps[i]
            g_branch = dh if s is None else dh * s
            dz1 = g_branch.dot(blocks[i][5]) * mask
            if s is not None and gates:
                gate_cols[i] = np.add.reduce(dh * branch, axis=-1)
            block_grads[i] = (g_branch, dz1)
            skip, branch_in = dh, dz1.dot(blocks[i][4])
        if branch_in is not None:
            skip = branch_in if skip is None else skip + branch_in
        dz0 = None if skip is None else skip * mask0
        grad_z = None
        if gate_values is not None and gates:
            # a gate's block product, then what the loss sends it directly
            incoming = g[:, width:]
            d_gates = incoming.copy()
            for i, col in enumerate(gate_cols):
                if col is not None:
                    d_gates[:, i] = col + incoming[:, i]
            grad_z = d_gates * gate_values * (_ONE - gate_values)
        return head_grads, block_grads, dz0, grad_z

    def _input_grad(self, layers, grads, shape):
        """The gradient toward x, in `shape`: the stem's product, then the
        pool's. The pool's product is formed only here, so a walk toward
        theta alone never computes it."""
        _, _, dz0, grad_z = grads
        dx = None if dz0 is None else dz0.dot(layers[0][2])
        if grad_z is not None:
            pooled_grad = np.add.accumulate(grad_z * layers[2][0], axis=1)[:, -1:]
            pooled_part = pooled_grad.dot(self.pool.T)
            dx = pooled_part if dx is None else dx + pooled_part
        return np.zeros(shape) if dx is None else dx.reshape(shape)

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
            np.dot(left.T, right, out=out[start:stop].reshape(shape))
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


def fit_minibatch(batch_terms, theta, X, y, epochs, batch_size, lr, rng, on_epoch=None):
    """Adam on `theta` over shuffled minibatches; each epoch's mean loss.

    Every epoch draws one `rng.permutation(len(X))`, gathers the rows of
    `X` and `y` in that order once, and steps once per batch of
    `batch_size` consecutive rows of the gathered arrays on
    `batch_terms(rows, targets)`, which gives the batch's loss and its
    gradient toward theta on plain arrays. Adam steps `theta.data` in
    place, in its own copy, so the network's layer slices are cut once per
    fit. `on_epoch(epoch, opt)` runs after each epoch; it may set `opt.lr`
    for the next one or rebind `theta.data`. The caller checks the settings
    against its parameter table before it builds anything.
    """
    opt = Adam([theta], lr=lr)
    history = []
    for epoch in range(epochs):
        perm = rng.permutation(len(X))
        X_epoch, y_epoch = X[perm], y[perm]
        epoch_loss = 0.0
        for start in range(0, len(X), batch_size):
            rows = X_epoch[start:start + batch_size]
            loss, grad = batch_terms(rows, y_epoch[start:start + batch_size])
            opt.step([grad])
            epoch_loss += float(loss) * len(rows)
        history.append(epoch_loss / len(X))
        if on_epoch is not None:
            on_epoch(epoch, opt)
    return history


def layer_view(read):
    """A fitted layer attribute with no setter: `read` of the network the
    model holds, or None before a fit. A list is a new one on every read."""
    return property(lambda self: None if self._network is None else read(self._network))


class ResidualModel(ParamsMixin):
    """A fitted model that is one `ResidualMLP`: the skip and exit nets, the
    energy estimator and the defense filter.

    A subclass names its payload kind, its saved settings and its layout
    (`kind`, `_SAVED`, `_layout`). Its layer attributes are `layer_view`s
    of the network, by default `stem_`, `blocks_` and one `head_`. The base
    draws the layers, builds the model's one network and holds it, runs the
    epoch loop and reads and writes the payload. It fits a classifier
    (`fit`, `_batch_terms`); a classifier adds only what it records of the
    fit (`_fitted`), and a regressor gives its own loss and fit.
    """

    kind = None
    _SAVED = ()
    _BLOCKS = "num_blocks"   # the setting that counts the residual blocks
    _GATED = False           # a sigmoid gate per block, on the mean-pooled input
    _network = None

    stem_ = layer_view(lambda net: net.stem)
    blocks_ = layer_view(lambda net: list(net.blocks))
    head_ = layer_view(lambda net: net.heads[0])

    def _assemble(self, arrays):
        """The model's one network over `arrays`, one per layout entry in
        theta order; a gated net's gates read the mean over the input
        features."""
        pool = np.full((self.input_dim, 1), 1.0 / self.input_dim) if self._GATED else None
        self._network = ResidualMLP(arrays, getattr(self, self._BLOCKS), pool)

    def _build(self, rng):
        """Fresh layers, one draw per layout entry in layout order: a Xavier
        weight, a 1x1 Xavier draw as a gate's 0-d weight, a zero bias."""
        def draw(key, shape):
            if key.endswith(".bias"):
                return np.zeros(shape)
            return xavier_uniform(rng, *shape) if shape else xavier_uniform(rng, 1, 1).reshape(())

        self._assemble(draw(key, shape) for key, shape in self._layout())
        return self

    def _net(self):
        """The network `_assemble` built; its weights change only through
        writes to the layers' `data`."""
        check_is_fitted(self, "stem_")
        return self._network

    def _params(self):
        return self._net().params

    def set_params(self, **params):
        """Set hyperparameters as `ParamsMixin.set_params` does. A change to
        a setting the layout reads (the input, width, block or segment and
        class counts) drops the fit, since the held network no longer has
        the settings' shape: every fitted attribute becomes None, and
        `infer`, `predict`, `forward_terms`, `predict_terms` and `to_payload`
        raise `NotFittedError`, until the next `fit`. Any other setting (a
        threshold, `epochs`, `lr`, `seed`) keeps the fit."""
        layout = list(self._layout())
        super().set_params(**params)
        if list(self._layout()) != layout:
            for name in vars(self):
                if name.endswith("_"):
                    setattr(self, name, None)
            self._network = None
        return self

    def score(self, X, y):
        """The fraction of rows whose `predict` equals `y`: a classifier's
        accuracy. `X` needs at least one row."""
        X = self._nonempty(X, "score")
        y = np.asarray(y)
        check_same_length(X, y, "X", "y")
        return float(np.mean(self.predict(X) == y))

    def _nonempty(self, X, what):
        """`X` as a sample matrix of at least one row, or a ValueError
        saying it cannot `what` an empty dataset."""
        X = as_sample_matrix(X, "X", feature_dim=self.input_dim)
        if len(X) == 0:
            raise ValueError("cannot %s an empty dataset" % what)
        return X

    def _labeled(self, X, y):
        """A classifier fit's inputs, checked before anything is built: the
        settings against `PARAMS`, `X` as a nonempty sample matrix and `y`
        as its labels."""
        check_params(self.PARAMS, vars(self))
        X = self._nonempty(X, "fit on")
        return X, as_label_array(y, n=len(X), num_classes=self.num_classes)

    def _train(self, X, targets, rng, on_epoch=None):
        """`fit_minibatch` on (X, targets) over the network's theta; the
        epoch losses go to `history_`."""
        self.history_ = fit_minibatch(self._batch_terms, self._net().theta, X, targets,
                                      self.epochs, self.batch_size, self.lr, rng, on_epoch)

    def fit(self, X, y):
        """Fit a classifier: the inputs checked by `_labeled`, the layers
        drawn from `derive_rng(seed, kind + "-init")`, a gated net's gates
        calibrated on `X`, and the epoch loop on the `kind + "-batches"`
        stream, over the labels' one-hot rows, built once per fit. `_fitted`
        then keeps what the model records of the fit."""
        X, y = self._labeled(X, y)
        self._build(derive_rng(self.seed, self.kind + "-init"))
        if self._GATED:
            self._calibrate_gates(X)
        self._train(X, one_hot(y, self.num_classes), derive_rng(self.seed, self.kind + "-batches"))
        self._fitted(X, y)
        return self

    def _fitted(self, X, y):
        """What a classifier records of its fit beyond the network, from the
        checked inputs: nothing here."""

    def _batch_terms(self, X, targets):
        """A classifier's training loss on one batch, its rows `X` and their
        one-hot `targets`, and its gradient toward theta, on arrays: every
        head's mean cross-entropy, over the (rows, heads, classes) view of
        the output's logit columns, plus, in a gated net, `sparsity_weight`
        times the mean gate value. Arithmetic and
        addition order are the graph's: columns -> softmax_cross_entropy per
        head, folded with add, then add(loss, mul(mean_of_column_means,
        weight)). So are the checks (by op name) of every value that can
        overflow; slices of the checked output, a mean of sigmoids and the
        products toward the output cannot, and are not checked again."""
        net = self._net()
        out, grad_theta = net.theta_terms(X)
        c, heads = self.num_classes, net.num_heads
        loss, loss_grad = softmax_cross_entropy_terms(
            out[:, :heads * c].reshape(len(out), heads, c), targets)
        weight = self._GATED and self.sparsity_weight
        if weight:
            gates, gates_grad = mean_of_column_means_terms(out, heads * c, out.shape[1])
            loss = _checked(loss + gates * weight, "add")
        g = _scatter_columns(out.shape, 0, heads * c, loss_grad(_ONE))
        if weight:
            g = g + gates_grad(_ONE * weight)
        return loss, grad_theta(g)

    def _config(self):
        return {k: getattr(self, k) for k in self._SAVED}

    def to_payload(self):
        """{"kind", "config", "params"}: each theta view under its layout key."""
        check_is_fitted(self, "stem_")
        return {"kind": self.kind, "config": self._config(),
                "params": {key: array_to_json(p.data)
                           for (key, _), p in zip(self._layout(), self._params())}}

    @classmethod
    def _from_config(cls, config):
        return cls(**{k: config[k] for k in cls._SAVED})

    @classmethod
    def from_payload(cls, payload):
        """The model `to_payload` saved: the config is checked first, then
        each parameter against its shape in the layout."""
        model = cls._from_config(payload_config(payload, cls.PARAMS, cls._SAVED))
        model._assemble(param_from_json(payload, key, shape) for key, shape in model._layout())
        return model


def _side_by_side(logits, gates):
    """Every head's logits, then the gate values if any, along the last axis."""
    parts = logits if gates is None else logits + [gates]
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)


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
