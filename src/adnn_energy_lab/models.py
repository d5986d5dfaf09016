"""Input-adaptive networks with per-inference execution traces.

Two families are implemented. GatedSkipNet guards each residual block with a
sigmoid gate on the mean-pooled block input: blocks whose gate falls below
the gate threshold are skipped (the residual identity passes the input
through). EarlyExitNet attaches a classifier head to every trunk segment and
returns from the first head whose prediction entropy drops below the
entropy threshold. ScriptedAdnn is a weight-free stand-in whose gates fire
on fixed input-mean thresholds, used as a ground-truth oracle in tests.

Gating is trained soft (the residual branch is scaled by the gate value, so
everything is differentiable) and deployed hard. FLOPs: each affine map
costs 2 * fan_in * fan_out; gates, activations and pooling are free, so only
the input-dependent block executions move the count.

`infer` on a batch of rows returns a `TraceBatch`: one array per trace
field (FLOPs, logits, gate values and decisions or exit indices and
entropies), built without a per-row loop. Indexing or iterating it gives
`ExecutionTrace` rows, which are what `infer` returns for a single vector.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .autodiff import (_ONE, Tensor, _checked, _require_finite, _scatter_columns, as_tensor,
                       columns, mean_of_column_means_terms, softmax_cross_entropy_terms)
from .base import ParamsMixin, check_is_fitted
from .nn import (Dense, ResidualBlock, fit_minibatch, kept_network, layers_from_payload, one_hot,
                 params_to_payload, payload_layout, xavier_uniform)
from .seeding import derive_rng
from .serialize import DataFormatError, dump_json, load_json, payload_config
from .validation import (COUNT, INT, LADDER, NONNEGATIVE, OPEN_UNIT, SIZE, as_label_array,
                         as_sample_matrix, check_params)


def entropy(p):
    """Shannon entropy in nats of a probability vector; 0 ln 0 = 0."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError("entropy expects a single probability vector")
    if p.min() < 0 or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError("entropy needs a normalized probability vector")
    return float(_entropies(p))


def _entropies(p):
    """Entropy along the last axis of probabilities known to be normalized."""
    terms = np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)), 0.0)
    return -terms.sum(axis=-1)


@dataclass(frozen=True)
class ExecutionTrace:
    """What one inference did: decisions taken and the FLOPs they cost."""

    kind: str                      # "skip" or "exit"
    flops: int
    logits: np.ndarray
    signature: tuple
    gate_values: Optional[tuple] = None
    gate_decisions: Optional[tuple] = None
    exit_index: Optional[int] = None
    exit_entropies: Optional[tuple] = None

    @property
    def active_units(self):
        """Blocks executed (skip) or segments consumed (exit)."""
        if self.kind == "skip":
            return int(sum(self.gate_decisions))
        return int(self.exit_index) + 1

    @property
    def label(self):
        return int(np.argmax(self.logits))


@dataclass(frozen=True, eq=False)
class TraceBatch:
    """What a batch of inferences did, one column per trace field.

    `flops` is (n,) and `logits` (n, classes), the logits each row answered
    with. A skip batch has the (n, blocks) gate values and decisions; an exit
    batch has the (n,) exit indices and the (n, segments) exit entropies.
    Row `i` is `batch[i]`, an `ExecutionTrace` with Python scalars and tuples
    and its own copy of the logits, as a single-row `infer` gives it.
    """

    kind: str                      # "skip" or "exit"
    signature: tuple
    flops: np.ndarray
    logits: np.ndarray
    gate_values: Optional[np.ndarray] = None
    gate_decisions: Optional[np.ndarray] = None
    exit_indices: Optional[np.ndarray] = None
    exit_entropies: Optional[np.ndarray] = None

    def __len__(self):
        return len(self.flops)

    def __getitem__(self, i):
        if self.kind == "skip":
            return ExecutionTrace("skip", int(self.flops[i]), self.logits[i].copy(),
                                  self.signature,
                                  gate_values=tuple(self.gate_values[i].tolist()),
                                  gate_decisions=tuple(self.gate_decisions[i].tolist()))
        return ExecutionTrace("exit", int(self.flops[i]), self.logits[i].copy(), self.signature,
                              exit_index=int(self.exit_indices[i]),
                              exit_entropies=tuple(self.exit_entropies[i].tolist()))

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    @property
    def active_units(self):
        """Blocks executed (skip) or segments consumed (exit), per row."""
        if self.kind == "skip":
            return np.count_nonzero(self.gate_decisions, axis=1)
        return self.exit_indices + 1

    @property
    def labels(self):
        return np.argmax(self.logits, axis=1)


def flops_of_trace(model, trace):
    """Recompute the trace's FLOPs from its recorded decisions.

    Raises if the trace was produced by a differently shaped model.
    """
    if trace.signature != model.signature:
        raise ValueError(
            "trace signature %s does not match model %s"
            % (trace.signature, model.signature)
        )
    if trace.kind == "skip":
        return model.base_flops + trace.active_units * model.block_flops
    return model.trace_flops(trace.exit_index)


class GatedSkipNet(ParamsMixin):
    """Residual classifier that skips gated blocks on easy inputs."""

    kind = "skip"
    PARAMS = {"input_dim": SIZE, "width": SIZE, "num_blocks": SIZE, "num_classes": SIZE,
              "gate_threshold": OPEN_UNIT, "epochs": SIZE, "lr": NONNEGATIVE,
              "sparsity_weight": NONNEGATIVE, "batch_size": SIZE, "seed": INT}
    _SAVED = ("input_dim", "width", "num_blocks", "num_classes", "gate_threshold")

    def __init__(
        self,
        input_dim=64,
        width=16,
        num_blocks=8,
        num_classes=4,
        gate_threshold=0.5,
        epochs=200,
        lr=0.01,
        sparsity_weight=0.05,
        batch_size=32,
        seed=0,
    ):
        self.input_dim = input_dim
        self.width = width
        self.num_blocks = num_blocks
        self.num_classes = num_classes
        self.gate_threshold = gate_threshold
        self.epochs = epochs
        self.lr = lr
        self.sparsity_weight = sparsity_weight
        self.batch_size = batch_size
        self.seed = seed
        check_params(self.PARAMS, vars(self))
        self.stem_ = None
        self.blocks_ = None
        self.gate_weights_ = None
        self.gate_biases_ = None
        self.head_ = None
        self.train_accuracy_ = None
        self.history_ = None

    # -- construction -------------------------------------------------

    def _build(self, rng):
        self.stem_ = Dense.init(rng, self.input_dim, self.width)
        self.blocks_ = [ResidualBlock.init(rng, self.width) for _ in range(self.num_blocks)]
        self.gate_weights_ = [
            Tensor(xavier_uniform(rng, 1, 1).reshape(())) for _ in range(self.num_blocks)
        ]
        self.gate_biases_ = [Tensor(np.float64(0.0)) for _ in range(self.num_blocks)]
        self.head_ = Dense.init(rng, self.width, self.num_classes)
        return self

    def _calibrate_gates(self, X, slope=80.0):
        """Spread initial gate switch points over the pooled-input quantiles.

        All gates start as sharp increasing functions of the input mean with
        staggered thresholds, so block usage varies across inputs from the
        first step instead of depending on symmetry breaking by the loss.
        """
        pooled = X.mean(axis=1)
        qs = np.quantile(pooled, (np.arange(self.num_blocks) + 0.5) / self.num_blocks)
        self.gate_weights_ = [Tensor(np.float64(slope)) for _ in range(self.num_blocks)]
        self.gate_biases_ = [Tensor(np.float64(-slope * q)) for q in qs]

    def _net(self):
        """The network over the current layers; see `nn.kept_network`."""
        check_is_fitted(self, "stem_")
        return kept_network(self, self.stem_, self.blocks_, [self.head_],
                            gates=(self.gate_weights_, self.gate_biases_), pool=self._pool)

    def _pool(self):
        """The gates' input pooling: the mean over the input features."""
        return np.full((self.input_dim, 1), 1.0 / self.input_dim)

    def _params(self):
        return self._net().params

    @property
    def signature(self):
        return ("skip", self.input_dim, self.width, self.num_blocks, self.num_classes)

    @property
    def base_flops(self):
        return self.stem_.flops + self.head_.flops

    @property
    def block_flops(self):
        return self.blocks_[0].flops

    @property
    def min_flops(self):
        return self.base_flops

    @property
    def max_flops(self):
        return self.base_flops + self.num_blocks * self.block_flops

    @property
    def stem_flops(self):
        return self.stem_.flops

    # -- forward ------------------------------------------------------

    def forward_terms(self, x, heads=None):
        """The soft forward of array `x` (a vector or a batch of rows), with
        no graph: (the logits, then the gate values, along the last axis;
        their vector-Jacobian product toward `x`). `heads=0` gives the gate
        values alone, and runs neither the stem, the blocks nor the head; see
        `nn.ResidualMLP.terms`."""
        return self._net().terms(x, heads)

    def forward(self, x, mode="hard"):
        """Run the network on a Tensor (vector or batch of rows) as a graph.

        Returns (logits, gate_values, hard_decisions): gate values are one
        (n, 1) Tensor per block, decisions an (n, num_blocks) boolean array.
        Soft mode scales each residual branch by its gate value; hard mode
        executes a block only when its gate clears the threshold.
        """
        if mode not in ("hard", "soft"):
            raise ValueError("mode must be 'hard' or 'soft'")
        x = as_tensor(x)
        c, n = self.num_classes, self.num_blocks
        # gates read the mean-pooled network input, so both modes see the
        # same gate values and hard decisions match soft thresholding exactly
        if mode == "soft":
            out = self._net()(x)
            gates = [columns(out, c + i, c + i + 1) for i in range(n)]
            values = out.data.reshape(-1, c + n)[:, c:]
            logits = columns(out, 0, c)
        else:
            (logits,), values = self._net().run(x.data, self.gate_threshold)
            gates = [Tensor(values[:, i:i + 1].reshape(x.shape[:-1] + (1,))) for i in range(n)]
            logits = Tensor(logits.reshape(x.shape[:-1] + (c,)))
        return logits, gates, values >= self.gate_threshold

    def infer(self, x):
        """Hard-mode inference: a TraceBatch for a batch of rows, an
        ExecutionTrace for a single vector."""
        X = as_sample_matrix(x, "x", feature_dim=self.input_dim)
        (logits,), values = self._net().run(X, self.gate_threshold)
        decisions = values >= self.gate_threshold
        batch = TraceBatch("skip", self.signature,
                           self.base_flops + decisions.sum(axis=1) * self.block_flops, logits,
                           gate_values=values, gate_decisions=decisions)
        return batch[0] if np.asarray(x).ndim == 1 else batch

    def predict(self, X):
        X = as_sample_matrix(X, "X", feature_dim=self.input_dim)
        (logits,), _ = self._net().run(X, self.gate_threshold)
        return np.argmax(logits, axis=-1)

    def score(self, X, y):
        return float(np.mean(self.predict(X) == np.asarray(y)))

    # -- training -----------------------------------------------------

    def _batch_terms(self, X, y, net=None):
        """Training loss of one batch and its gradient toward theta, on
        arrays: soft-mode cross-entropy plus the sparsity penalty on the mean
        gate value; `net` is the network, if already resolved. Arithmetic,
        addition order and checks (by op name) are the graph's, columns ->
        softmax_cross_entropy, add(loss, mul(mean_of_column_means, weight)),
        whose "add.grad" checks pass the incoming 1.0 on and are left out."""
        out, grad_theta = (self._net() if net is None else net).theta_terms(X)
        c, n, weight = self.num_classes, self.num_blocks, self.sparsity_weight
        logits = _checked(out[:, :c], "columns")
        loss, loss_grad = softmax_cross_entropy_terms(logits, one_hot(y, c))
        _require_finite(loss, "softmax_cross_entropy")
        if weight:
            gates, gates_grad = mean_of_column_means_terms(out, c, c + n)
            _require_finite(gates, "mean_of_column_means")
            weight = _checked(np.float64(weight), "leaf")
            loss = _checked(loss + _checked(gates * weight, "mul"), "add")
        g_logits = _checked(loss_grad(_ONE), "softmax_cross_entropy.grad")
        g = _checked(_scatter_columns(out.shape, 0, c, g_logits), "columns.grad")
        if weight:
            g_gates = _checked(_ONE * weight, "mul.grad")
            g = g + _checked(gates_grad(g_gates), "mean_of_column_means.grad")
        return loss, grad_theta(g)

    def fit(self, X, y):
        check_params(self.PARAMS, vars(self))
        X = as_sample_matrix(X, "X", feature_dim=self.input_dim)
        if len(X) == 0:
            raise ValueError("cannot fit on an empty dataset")
        y = as_label_array(y, n=len(X), num_classes=self.num_classes)
        self._build(derive_rng(self.seed, "skip-init"))
        self._calibrate_gates(X)
        order_rng = derive_rng(self.seed, "skip-batches")
        net = self._net()
        self.history_ = fit_minibatch(lambda Xb, yb: self._batch_terms(Xb, yb, net), net.theta,
                                      X, y, self.epochs, self.batch_size, self.lr, order_rng)
        self.train_accuracy_ = self.score(X, y)
        return self

    # -- serialization ------------------------------------------------

    def _layout(self):
        return payload_layout(self.input_dim, self.width, self.num_blocks, self.num_classes,
                              "blocks.%d", ["head"], gated=True)

    def to_payload(self):
        check_is_fitted(self, "stem_")
        return {"kind": "skip", "config": {k: getattr(self, k) for k in self._SAVED},
                "params": params_to_payload(self._layout(), self._params())}

    @classmethod
    def from_payload(cls, payload):
        cfg = payload_config(payload, cls.PARAMS, cls._SAVED)
        model = cls(**{k: cfg[k] for k in cls._SAVED})
        model.stem_, model.blocks_, gates, (model.head_,) = layers_from_payload(
            payload, model._layout(), model.num_blocks, gated=True)
        model.gate_weights_, model.gate_biases_ = gates
        return model


class EarlyExitNet(ParamsMixin):
    """Trunk of residual segments with a classifier head at every segment."""

    kind = "exit"
    PARAMS = {"input_dim": SIZE, "width": SIZE, "num_segments": SIZE, "num_classes": SIZE,
              "entropy_threshold": NONNEGATIVE, "epochs": SIZE, "lr": NONNEGATIVE,
              "batch_size": SIZE, "seed": INT}
    _SAVED = ("input_dim", "width", "num_segments", "num_classes", "entropy_threshold")

    def __init__(
        self,
        input_dim=64,
        width=16,
        num_segments=4,
        num_classes=4,
        entropy_threshold=0.3,
        epochs=200,
        lr=0.01,
        batch_size=32,
        seed=0,
    ):
        self.input_dim = input_dim
        self.width = width
        self.num_segments = num_segments
        self.num_classes = num_classes
        self.entropy_threshold = entropy_threshold
        self.epochs = epochs
        self.lr = lr
        self.batch_size = batch_size
        self.seed = seed
        check_params(self.PARAMS, vars(self))
        self.stem_ = None
        self.segments_ = None
        self.exit_heads_ = None
        self.train_accuracy_ = None
        self.exit_accuracies_ = None
        self.history_ = None

    def _build(self, rng):
        self.stem_ = Dense.init(rng, self.input_dim, self.width)
        self.segments_ = [ResidualBlock.init(rng, self.width) for _ in range(self.num_segments)]
        self.exit_heads_ = [
            Dense.init(rng, self.width, self.num_classes) for _ in range(self.num_segments)
        ]
        return self

    def _net(self):
        """The network over the current layers; see `nn.kept_network`."""
        check_is_fitted(self, "stem_")
        return kept_network(self, self.stem_, self.segments_, self.exit_heads_)

    def _params(self):
        return self._net().params

    @property
    def signature(self):
        return ("exit", self.input_dim, self.width, self.num_segments, self.num_classes)

    @property
    def block_flops(self):
        return self.segments_[0].flops

    @property
    def head_flops(self):
        return self.exit_heads_[0].flops

    def trace_flops(self, exit_index):
        return self.stem_.flops + (exit_index + 1) * self.block_flops + self.head_flops

    @property
    def min_flops(self):
        return self.trace_flops(0)

    @property
    def max_flops(self):
        return self.trace_flops(self.num_segments - 1)

    @property
    def stem_flops(self):
        return self.stem_.flops

    def forward_terms(self, x, heads=None):
        """The logits of the first `heads` exits (every exit if None) for
        array `x`, side by side along the last axis, with no graph, and their
        vector-Jacobian product toward `x`. The trunk is shared, and runs only
        as far as the last exit kept; see `nn.ResidualMLP.terms`."""
        return self._net().terms(x, heads)

    def infer(self, x):
        """Hard-mode inference: a TraceBatch for a batch of rows, an
        ExecutionTrace for a single vector. A row exits at the first head
        whose prediction entropy is below the threshold, else at the last."""
        X = as_sample_matrix(x, "x", feature_dim=self.input_dim)
        all_logits, _ = self._net().run(X)
        logits = np.stack(all_logits, axis=1)
        # every head's softmax at once, with autodiff.softmax's ufuncs
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        probs = e / e.sum(axis=-1, keepdims=True)
        _require_finite(probs, "softmax")
        entropies = _entropies(probs)
        below = entropies < self.entropy_threshold
        exits = np.where(below.any(axis=1), below.argmax(axis=1), self.num_segments - 1)
        flops = np.array([self.trace_flops(k) for k in range(self.num_segments)])
        batch = TraceBatch("exit", self.signature, flops[exits],
                           logits[np.arange(len(X)), exits], exit_indices=exits,
                           exit_entropies=entropies)
        return batch[0] if np.asarray(x).ndim == 1 else batch

    def predict(self, X):
        return self.infer(as_sample_matrix(X, "X", feature_dim=self.input_dim)).labels

    def score(self, X, y):
        return float(np.mean(self.predict(X) == np.asarray(y)))

    def _batch_terms(self, X, y, net=None):
        """Training loss of one batch and its gradient toward theta, on
        arrays: the sum of every exit's cross-entropy, added left to right;
        `net` is the network, if already resolved. Arithmetic and checks (by
        op name) are the graph's, columns -> softmax_cross_entropy per exit,
        folded with add, whose "add.grad" checks pass the incoming 1.0 on
        and are left out."""
        out, grad_theta = (self._net() if net is None else net).theta_terms(X)
        c = self.num_classes
        logits = [_checked(out[:, k * c:(k + 1) * c], "columns") for k in range(self.num_segments)]
        targets, losses, vjps = one_hot(y, c), [], []
        for part in logits:
            value, vjp = softmax_cross_entropy_terms(part, targets)
            losses.append(_checked(value, "softmax_cross_entropy"))
            vjps.append(vjp)
        loss = losses[0]
        for value in losses[1:]:
            loss = _checked(loss + value, "add")
        grads = [_checked(vjp(_ONE), "softmax_cross_entropy.grad") for vjp in vjps]
        # the graph adds the exits' zero-padded products, which equals their
        # concatenation: no entry of a cross-entropy product is -0.0
        return loss, grad_theta(_checked(np.concatenate(grads, axis=1), "columns.grad"))

    def fit(self, X, y):
        check_params(self.PARAMS, vars(self))
        X = as_sample_matrix(X, "X", feature_dim=self.input_dim)
        if len(X) == 0:
            raise ValueError("cannot fit on an empty dataset")
        y = as_label_array(y, n=len(X), num_classes=self.num_classes)
        self._build(derive_rng(self.seed, "exit-init"))
        order_rng = derive_rng(self.seed, "exit-batches")
        net = self._net()
        self.history_ = fit_minibatch(lambda Xb, yb: self._batch_terms(Xb, yb, net), net.theta,
                                      X, y, self.epochs, self.batch_size, self.lr, order_rng)
        self.train_accuracy_ = self.score(X, y)
        all_logits, _ = self._net().run(X)
        self.exit_accuracies_ = [float(np.mean(np.argmax(l, axis=-1) == y)) for l in all_logits]
        return self

    def _layout(self):
        return payload_layout(self.input_dim, self.width, self.num_segments, self.num_classes,
                              "segments.%d", ("exits.%d" % i for i in range(self.num_segments)))

    def to_payload(self):
        check_is_fitted(self, "stem_")
        return {"kind": "exit", "config": {k: getattr(self, k) for k in self._SAVED},
                "params": params_to_payload(self._layout(), self._params())}

    @classmethod
    def from_payload(cls, payload):
        cfg = payload_config(payload, cls.PARAMS, cls._SAVED)
        model = cls(**{k: cfg[k] for k in cls._SAVED})
        model.stem_, model.segments_, _, model.exit_heads_ = layers_from_payload(
            payload, model._layout(), model.num_segments)
        return model


class ScriptedAdnn:
    """Deterministic gate oracle: block i runs iff mean(x) >= thresholds[i]."""

    kind = "skip"
    PARAMS = {"thresholds": LADDER, "base_flops": COUNT, "block_flops": COUNT,
              "num_classes": SIZE}

    def __init__(self, thresholds, base_flops=2176, block_flops=1024, num_classes=4):
        check_params(self.PARAMS, locals())
        self.thresholds = [float(t) for t in thresholds]
        self.base_flops = int(base_flops)
        self.block_flops = int(block_flops)
        self.num_classes = int(num_classes)

    @property
    def num_blocks(self):
        return len(self.thresholds)

    @property
    def signature(self):
        return ("scripted", tuple(self.thresholds), self.base_flops, self.block_flops)

    @property
    def min_flops(self):
        return self.base_flops

    @property
    def max_flops(self):
        return self.base_flops + self.num_blocks * self.block_flops

    def infer(self, x):
        """A TraceBatch for a batch of rows, an ExecutionTrace for a single
        vector. The one-hot logits pick class int(mean(x) * num_classes),
        capped at the last class."""
        X = as_sample_matrix(x, "x")
        # a (0, 0) batch has no row to average, and numpy warns on its mean
        means = X.mean(axis=1) if len(X) else np.zeros(0)
        if not np.isfinite(means).all():
            raise ValueError("x has a row whose mean overflows")
        decisions = means[:, None] >= np.array(self.thresholds)
        label = np.minimum(np.trunc(means * self.num_classes), self.num_classes - 1)
        logits = np.zeros((len(X), self.num_classes))
        logits[np.arange(len(X)), label.astype(np.int64)] = 1.0
        batch = TraceBatch("skip", self.signature,
                           self.base_flops + decisions.sum(axis=1) * self.block_flops, logits,
                           gate_values=decisions.astype(np.float64), gate_decisions=decisions)
        return batch[0] if np.asarray(x).ndim == 1 else batch

    def predict(self, X):
        return self.infer(as_sample_matrix(X, "X")).labels


def scripted_gate_analogue(thresholds, sharpness=40.0, input_dim=64, width=16, num_classes=4, seed=0):
    """A GatedSkipNet whose gate i outputs sigmoid(sharpness * (mean(x) - thresholds[i])).

    Stem, blocks and head come from the usual seeded init; only the gates are
    hand-set, making the model a differentiable twin of a ScriptedAdnn with
    the same thresholds: the hard decision for gate i is exactly
    mean(x) >= thresholds[i]. Used as a white-box fixture with known behavior.
    """
    thresholds = [float(t) for t in thresholds]
    net = GatedSkipNet(
        input_dim=input_dim,
        width=width,
        num_blocks=len(thresholds),
        num_classes=num_classes,
    )
    net._build(derive_rng(seed, "scripted-analogue"))
    for i, t in enumerate(thresholds):
        net.gate_weights_[i] = Tensor(np.float64(sharpness))
        net.gate_biases_[i] = Tensor(np.float64(-sharpness * t))
    return net


def save_model(model, path):
    dump_json(model_to_payload(model), path)


def model_to_payload(model):
    if isinstance(model, ScriptedAdnn):
        return {"kind": "scripted", "config": {k: getattr(model, k) for k in model.PARAMS},
                "params": {}}
    return model.to_payload()


def model_from_payload(payload):
    kind = payload.get("kind") if isinstance(payload, dict) else None
    if kind == "skip":
        return GatedSkipNet.from_payload(payload)
    if kind == "exit":
        return EarlyExitNet.from_payload(payload)
    if kind == "scripted":
        cfg = payload_config(payload, ScriptedAdnn.PARAMS, ScriptedAdnn.PARAMS,
                             optional=("num_classes",))
        return ScriptedAdnn(**{k: cfg[k] for k in ScriptedAdnn.PARAMS if k in cfg})
    raise DataFormatError("unknown model kind %r" % kind)


def load_model(path):
    return model_from_payload(load_json(path, "model"))
