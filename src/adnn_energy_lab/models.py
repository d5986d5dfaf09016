"""Input-adaptive networks with per-inference execution traces.

Two families are implemented. GatedSkipNet guards each residual block with a
sigmoid gate on the mean-pooled block input: blocks whose gate falls below
the gate threshold are skipped (the residual identity passes the input
through). EarlyExitNet attaches a classifier head to every trunk segment and
returns from the first head whose prediction entropy drops below the
entropy threshold. ScriptedAdnn is a weight-free stand-in whose gates fire
on fixed input-mean thresholds, used as a ground-truth oracle in tests.

Both nets are `AdaptiveNet`s: `nn.ResidualModel`s (which draw, hold, fit
and save the network, with the one classifier batch loss) that share the
signature, the FLOPs ladder read from the settings, the soft forward,
`predict` and the training accuracy a fit records. Each adds its payload
layout, least FLOPs and `infer`, and the layer attributes the base does
not give, each a read-only view of the held network: the skip net its
gate weights and biases (and their calibration), the exit net its
segments and exit heads (and its per-exit accuracies). Gating is trained
soft (the residual branch is scaled by the gate value, so everything is
differentiable) and deployed hard.

`infer` on a batch of rows returns a `TraceBatch`: one array per trace
field (FLOPs, logits, gate values and decisions or exit indices and
entropies), built without a per-row loop. Indexing or iterating it gives
`ExecutionTrace` rows, which are what `infer` returns for a single vector;
a row equals, field by field and by type, the trace a one-row `infer`
gives (`tests/test_traces.py` checks it against `oracles.infer_reference`).
The exit net takes every head's softmax at once with the ufuncs of the
tests' graph `softmax`, which that oracle runs head by head.

The estimator and the filter are plain `ResidualModel`s with no
`forward_terms`, so `IlfoAttack` rejects them when it is built.
`model_to_payload` and `model_from_payload` save and load the target kinds
(skip, exit, scripted): `serialize.dump_json(model_to_payload(model), path)`
and `model_from_payload(serialize.load_json(path, "model"))`. The estimator
and the filter load through their own `from_payload`.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .autodiff import _require_finite, as_tensor, columns
from .nn import ResidualModel, layer_view, payload_layout
from .serialize import DataFormatError, payload_config
from .validation import (COUNT, INT, LADDER, NONNEGATIVE, OPEN_UNIT, SIZE, as_sample_matrix,
                         check_params)


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
    return model.base_flops + trace.active_units * model.block_flops


class AdaptiveNet(ResidualModel):
    """An input-adaptive `ResidualModel`: the skip and exit nets.

    Its sizes come from the settings, as its `signature` does, never from
    the layer objects. FLOPs count 2 * fan_in * fan_out per affine map (one
    multiply plus one add per weight); activations, pooling and gates are
    free. So an inference costs `base_flops`, the stem and one head, plus
    `block_flops`, a block's two width x width maps, per active unit: a
    block that ran (skip) or a segment consumed (exit). A subclass gives its
    `min_flops`, its `infer` and the rest of a `ResidualModel`.
    """

    @property
    def signature(self):
        return (self.kind, self.input_dim, self.width, getattr(self, self._BLOCKS),
                self.num_classes)

    @property
    def stem_flops(self):
        return 2 * int(self.input_dim) * int(self.width)

    @property
    def block_flops(self):
        return 4 * int(self.width) * int(self.width)

    @property
    def base_flops(self):
        return self.stem_flops + 2 * int(self.width) * int(self.num_classes)

    @property
    def max_flops(self):
        return self.base_flops + int(getattr(self, self._BLOCKS)) * self.block_flops

    def forward_terms(self, x, heads=None):
        """The soft forward of array `x` (a vector or a batch of rows), with
        no graph: the first `heads` heads' logits (all if None), then any
        gate values, along the last axis, and their vector-Jacobian product
        toward `x`. It runs only the layers those outputs read: `heads=0`
        gives a skip net's gate values alone, and an exit net's trunk runs
        only as far as the last exit kept; see `nn.ResidualMLP.terms`."""
        return self._net().terms(x, heads)

    def predict(self, X):
        return self.infer(as_sample_matrix(X, "X", feature_dim=self.input_dim)).labels

    def _fitted(self, X, y):
        self.train_accuracy_ = self.score(X, y)


class GatedSkipNet(AdaptiveNet):
    """Residual classifier that skips gated blocks on easy inputs."""

    kind = "skip"
    PARAMS = {"input_dim": SIZE, "width": SIZE, "num_blocks": SIZE, "num_classes": SIZE,
              "gate_threshold": OPEN_UNIT, "epochs": SIZE, "lr": NONNEGATIVE,
              "sparsity_weight": NONNEGATIVE, "batch_size": SIZE, "seed": INT}
    _SAVED = ("input_dim", "width", "num_blocks", "num_classes", "gate_threshold")
    _GATED = True

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
        self._store(locals())
        self.train_accuracy_ = None
        self.history_ = None

    # -- construction -------------------------------------------------

    gate_weights_ = layer_view(lambda net: list(net.gates[0]))
    gate_biases_ = layer_view(lambda net: list(net.gates[1]))

    def _layout(self):
        return payload_layout(self.input_dim, self.width, self.num_blocks, self.num_classes,
                              "blocks.%d", ["head"], gated=True)

    def _calibrate_gates(self, X, slope=80.0):
        """Spread initial gate switch points over the pooled-input quantiles.

        All gates start as sharp increasing functions of the input mean with
        staggered thresholds, so block usage varies across inputs from the
        first step instead of depending on symmetry breaking by the loss.
        """
        pooled = X.mean(axis=1)
        qs = np.quantile(pooled, (np.arange(self.num_blocks) + 0.5) / self.num_blocks)
        for weight, bias, q in zip(self.gate_weights_, self.gate_biases_, qs):
            weight.data, bias.data = np.float64(slope), np.float64(-slope * q)

    @property
    def min_flops(self):
        return self.base_flops

    # -- forward ------------------------------------------------------

    def forward(self, x, mode):
        """The soft forward of a Tensor (vector or batch of rows) as a graph.

        Returns (logits, gate_values, hard_decisions): gate values are one
        (n, 1) Tensor per block, decisions an (n, num_blocks) boolean array
        of the gates that clear the threshold. Each residual branch is scaled
        by its gate value. `mode` must be "soft"; hard inference is `infer`.
        """
        if mode != "soft":
            raise ValueError("mode must be 'soft' (hard inference is infer), got %r" % (mode,))
        c, n = self.num_classes, self.num_blocks
        out = self._net()(as_tensor(x))
        values = out.data.reshape(-1, c + n)[:, c:]
        gates = [columns(out, c + i, c + i + 1) for i in range(n)]
        return columns(out, 0, c), gates, values >= self.gate_threshold

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


class EarlyExitNet(AdaptiveNet):
    """Trunk of residual segments with a classifier head at every segment."""

    kind = "exit"
    PARAMS = {"input_dim": SIZE, "width": SIZE, "num_segments": SIZE, "num_classes": SIZE,
              "entropy_threshold": NONNEGATIVE, "epochs": SIZE, "lr": NONNEGATIVE,
              "batch_size": SIZE, "seed": INT}
    _SAVED = ("input_dim", "width", "num_segments", "num_classes", "entropy_threshold")
    _BLOCKS = "num_segments"

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
        self._store(locals())
        self.train_accuracy_ = None
        self.exit_accuracies_ = None
        self.history_ = None

    segments_ = layer_view(lambda net: list(net.blocks))
    exit_heads_ = layer_view(lambda net: list(net.heads))
    blocks_ = head_ = property()   # none: its blocks are the segments, each with its exit head

    def _layout(self):
        return payload_layout(self.input_dim, self.width, self.num_segments, self.num_classes,
                              "segments.%d", ("exits.%d" % i for i in range(self.num_segments)))

    @property
    def min_flops(self):
        return self.base_flops + self.block_flops

    def infer(self, x):
        """Hard-mode inference: a TraceBatch for a batch of rows, an
        ExecutionTrace for a single vector. A row exits at the first head
        whose prediction entropy is below the threshold, else at the last."""
        X = as_sample_matrix(x, "x", feature_dim=self.input_dim)
        all_logits, _ = self._net().run(X)
        logits = np.stack(all_logits, axis=1)
        # every head's softmax at once: max shift, exp, then each row over its sum
        e = np.exp(logits - np.maximum.reduce(logits, axis=-1, keepdims=True))
        probs = e / np.add.reduce(e, axis=-1, keepdims=True)
        _require_finite(probs, "softmax")
        # each exit's entropy in nats, 0 ln 0 = 0
        terms = np.where(probs > 0, probs * np.log(np.where(probs > 0, probs, 1.0)), 0.0)
        entropies = -np.add.reduce(terms, axis=-1)
        below = entropies < self.entropy_threshold
        exits = np.where(below.any(axis=1), below.argmax(axis=1), self.num_segments - 1)
        batch = TraceBatch("exit", self.signature,
                           self.base_flops + (exits + 1) * self.block_flops,
                           logits[np.arange(len(X)), exits], exit_indices=exits,
                           exit_entropies=entropies)
        return batch[0] if np.asarray(x).ndim == 1 else batch

    def _fitted(self, X, y):
        super()._fitted(X, y)
        all_logits, _ = self._net().run(X)
        self.exit_accuracies_ = [float(np.mean(np.argmax(l, axis=-1) == y)) for l in all_logits]


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
