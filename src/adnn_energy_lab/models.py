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
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .autodiff import Tensor, add, as_tensor, columns, mean_of_column_means, mul, softmax
from .base import ParamsMixin, check_is_fitted
from .nn import (Dense, ResidualBlock, cross_entropy, fit_minibatch, kept_network,
                 layers_from_payload, params_to_payload, payload_layout, xavier_uniform)
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

    def forward_all(self, x, heads=None):
        """The soft forward of a Tensor (vector or batch of rows) as one node:
        the logits, then the gate values, along the last axis. `heads=0`
        gives the gate values alone, and runs neither the stem, the blocks
        nor the head (see `nn.ResidualMLP`)."""
        return self._net()(x, heads)

    def forward_terms(self, x, heads=None):
        """`forward_all` on an array, with no graph: (output, vector-Jacobian
        product toward `x`); see `nn.ResidualMLP.terms`."""
        return self._net().terms(x, heads)

    def forward(self, x, mode="hard"):
        """Run the network on a Tensor (vector or batch of rows).

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
            out = self.forward_all(x)
            gates = [columns(out, c + i, c + i + 1) for i in range(n)]
            values = out.data.reshape(-1, c + n)[:, c:]
            logits = columns(out, 0, c)
        else:
            (logits,), values = self._net().run(x.data, self.gate_threshold)
            gates = [Tensor(values[:, i:i + 1].reshape(x.shape[:-1] + (1,))) for i in range(n)]
            logits = Tensor(logits.reshape(x.shape[:-1] + (c,)))
        return logits, gates, values >= self.gate_threshold

    def infer(self, x):
        """Hard-mode inference; one ExecutionTrace per input row."""
        X = as_sample_matrix(x, "x", feature_dim=self.input_dim)
        (logits,), values = self._net().run(X, self.gate_threshold)
        decisions = values >= self.gate_threshold
        flops = self.base_flops + decisions.sum(axis=1) * self.block_flops
        signature = self.signature
        traces = [
            ExecutionTrace(
                kind="skip",
                flops=int(flops[i]),
                logits=logits[i].copy(),
                signature=signature,
                gate_values=tuple(values[i].tolist()),
                gate_decisions=tuple(decisions[i].tolist()),
            )
            for i in range(len(X))
        ]
        return traces[0] if np.asarray(x).ndim == 1 else traces

    def predict(self, X):
        X = as_sample_matrix(X, "X", feature_dim=self.input_dim)
        (logits,), _ = self._net().run(X, self.gate_threshold)
        return np.argmax(logits, axis=-1)

    def score(self, X, y):
        return float(np.mean(self.predict(X) == np.asarray(y)))

    # -- training -----------------------------------------------------

    def _batch_loss(self, X, y):
        """Training loss of one batch: soft-mode cross-entropy plus the
        sparsity penalty on the mean gate value."""
        out = self.forward_all(Tensor(X))
        c = self.num_classes
        loss = cross_entropy(columns(out, 0, c), y, c)
        if self.sparsity_weight:
            gates = mean_of_column_means(out, c, c + self.num_blocks)
            loss = add(loss, mul(gates, self.sparsity_weight))
        return loss

    def fit(self, X, y):
        check_params(self.PARAMS, vars(self))
        X = as_sample_matrix(X, "X", feature_dim=self.input_dim)
        if len(X) == 0:
            raise ValueError("cannot fit on an empty dataset")
        y = as_label_array(y, n=len(X), num_classes=self.num_classes)
        self._build(derive_rng(self.seed, "skip-init"))
        self._calibrate_gates(X)
        order_rng = derive_rng(self.seed, "skip-batches")
        self.history_ = fit_minibatch(self._batch_loss, self._net().theta, X, y, self.epochs,
                                      self.batch_size, self.lr, order_rng)
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

    def forward_all(self, x, heads=None):
        """The logits of the first `heads` exits (every exit if None) for a
        Tensor input, side by side along the last axis, as one node; the
        trunk is shared, and runs only as far as the last exit kept (see
        `nn.ResidualMLP`)."""
        return self._net()(x, heads)

    def forward_terms(self, x, heads=None):
        """`forward_all` on an array, with no graph: (output, vector-Jacobian
        product toward `x`); see `nn.ResidualMLP.terms`."""
        return self._net().terms(x, heads)

    def forward_exits(self, x):
        """All exit logits for a Tensor input, one Tensor per exit."""
        out = self.forward_all(x)
        c = self.num_classes
        return [columns(out, k * c, (k + 1) * c) for k in range(self.num_segments)]

    def infer(self, x):
        X = as_sample_matrix(x, "x", feature_dim=self.input_dim)
        all_logits, _ = self._net().run(X)
        logits = np.stack(all_logits, axis=1)
        probs = np.stack([softmax(Tensor(l)).data for l in all_logits], axis=1)
        entropies = _entropies(probs)
        below = entropies < self.entropy_threshold
        exits = np.where(below.any(axis=1), below.argmax(axis=1), self.num_segments - 1)
        flops = [self.trace_flops(e) for e in range(self.num_segments)]
        signature = self.signature
        traces = [
            ExecutionTrace(
                kind="exit",
                flops=flops[e],
                logits=logits[i, e].copy(),
                signature=signature,
                exit_index=e,
                exit_entropies=tuple(entropies[i].tolist()),
            )
            for i, e in enumerate(exits.tolist())
        ]
        return traces[0] if np.asarray(x).ndim == 1 else traces

    def predict(self, X):
        X = as_sample_matrix(X, "X", feature_dim=self.input_dim)
        traces = self.infer(X)
        if isinstance(traces, ExecutionTrace):
            traces = [traces]
        return np.array([t.label for t in traces], dtype=np.int64)

    def score(self, X, y):
        return float(np.mean(self.predict(X) == np.asarray(y)))

    def _batch_loss(self, X, y):
        """Training loss of one batch: the sum of every exit's cross-entropy."""
        losses = [cross_entropy(l, y, self.num_classes) for l in self.forward_exits(Tensor(X))]
        return sum(losses[1:], losses[0])

    def fit(self, X, y):
        check_params(self.PARAMS, vars(self))
        X = as_sample_matrix(X, "X", feature_dim=self.input_dim)
        if len(X) == 0:
            raise ValueError("cannot fit on an empty dataset")
        y = as_label_array(y, n=len(X), num_classes=self.num_classes)
        self._build(derive_rng(self.seed, "exit-init"))
        order_rng = derive_rng(self.seed, "exit-batches")
        self.history_ = fit_minibatch(self._batch_loss, self._net().theta, X, y, self.epochs,
                                      self.batch_size, self.lr, order_rng)
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
        X = as_sample_matrix(x, "x")
        signature = self.signature
        traces = []
        for m in X.mean(axis=1).tolist():
            decisions = tuple(m >= t for t in self.thresholds)
            label = min(int(m * self.num_classes), self.num_classes - 1)
            logits = np.zeros(self.num_classes)
            logits[label] = 1.0
            traces.append(
                ExecutionTrace(
                    kind="skip",
                    flops=self.base_flops + sum(decisions) * self.block_flops,
                    logits=logits,
                    signature=signature,
                    gate_values=tuple(1.0 if d else 0.0 for d in decisions),
                    gate_decisions=decisions,
                )
            )
        return traces[0] if np.asarray(x).ndim == 1 else traces

    def predict(self, X):
        X = as_sample_matrix(X, "X")
        traces = self.infer(X)
        if isinstance(traces, ExecutionTrace):
            traces = [traces]
        return np.array([t.label for t in traces], dtype=np.int64)


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
