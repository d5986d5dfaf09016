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

from .autodiff import Tensor, add, matmul, mul, relu, sigmoid, softmax, tmean
from .base import ParamsMixin, check_is_fitted
from .nn import Dense, ResidualBlock, cross_entropy, xavier_uniform
from .optim import Adam
from .seeding import derive_rng
from .serialize import (DataFormatError, array_to_json, dump_json, load_json,
                        param_from_json, payload_config)
from .validation import as_label_array, as_sample_matrix


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
        if not 0.0 < gate_threshold < 1.0:
            raise ValueError("gate_threshold must lie in (0, 1)")
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
        self._input_pool = Tensor(np.full((self.input_dim, 1), 1.0 / self.input_dim))
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

    def _params(self):
        params = self.stem_.params[:]
        for block in self.blocks_:
            params.extend(block.params)
        params.extend(self.gate_weights_)
        params.extend(self.gate_biases_)
        params.extend(self.head_.params)
        return params

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

    def forward(self, x, mode="hard"):
        """Run the network on a Tensor (vector or batch of rows).

        Returns (logits, gate_values, hard_decisions): gate values are
        (n, 1) Tensors, decisions an (n, num_blocks) boolean array. Soft
        mode scales each residual branch by its gate value; hard mode
        executes a block only when its gate clears the threshold.
        """
        check_is_fitted(self, "stem_")
        if mode not in ("hard", "soft"):
            raise ValueError("mode must be 'hard' or 'soft'")
        # gates read the mean-pooled network input, so both modes see the
        # same gate values and hard decisions match soft thresholding exactly
        pooled = matmul(x, self._input_pool)
        h = relu(self.stem_(x))
        gate_values = []
        decisions = []
        for block, gw, gb in zip(self.blocks_, self.gate_weights_, self.gate_biases_):
            gate = sigmoid(add(mul(pooled, gw), gb))
            fire = gate.data >= self.gate_threshold
            gate_values.append(gate)
            decisions.append(fire.reshape(-1))
            if mode == "soft":
                h = add(h, mul(gate, block.branch(h)))
            elif fire.any():
                h = add(h, mul(Tensor(fire.astype(np.float64)), block.branch(h)))
        logits = self.head_(h)
        return logits, gate_values, np.stack(decisions, axis=-1)

    def infer(self, x):
        """Hard-mode inference; one ExecutionTrace per input row."""
        X = as_sample_matrix(x, "x", feature_dim=self.input_dim)
        logits, gates, decisions = self.forward(Tensor(X), mode="hard")
        values = np.concatenate([g.data.reshape(-1, 1) for g in gates], axis=1)
        flops = self.base_flops + decisions.sum(axis=1) * self.block_flops
        signature = self.signature
        traces = [
            ExecutionTrace(
                kind="skip",
                flops=int(flops[i]),
                logits=logits.data[i].copy(),
                signature=signature,
                gate_values=tuple(values[i].tolist()),
                gate_decisions=tuple(decisions[i].tolist()),
            )
            for i in range(len(X))
        ]
        return traces[0] if np.asarray(x).ndim == 1 else traces

    def predict(self, X):
        X = as_sample_matrix(X, "X", feature_dim=self.input_dim)
        logits, _, _ = self.forward(Tensor(X), mode="hard")
        return np.argmax(logits.data, axis=-1)

    def score(self, X, y):
        return float(np.mean(self.predict(X) == np.asarray(y)))

    # -- training -----------------------------------------------------

    def fit(self, X, y):
        X = as_sample_matrix(X, "X", feature_dim=self.input_dim)
        if len(X) == 0:
            raise ValueError("cannot fit on an empty dataset")
        y = as_label_array(y, n=len(X), num_classes=self.num_classes)
        self._build(derive_rng(self.seed, "skip-init"))
        self._calibrate_gates(X)
        order_rng = derive_rng(self.seed, "skip-batches")
        params = self._params()
        opt = Adam(params, lr=self.lr)
        history = []
        for _ in range(self.epochs):
            perm = order_rng.permutation(len(X))
            epoch_loss = 0.0
            for start in range(0, len(X), self.batch_size):
                idx = perm[start : start + self.batch_size]
                logits, gates, _ = self.forward(Tensor(X[idx]), mode="soft")
                loss = cross_entropy(logits, y[idx], self.num_classes)
                if self.sparsity_weight:
                    gate_mean = mul(add_many([tmean(g) for g in gates]), 1.0 / len(gates))
                    loss = add(loss, mul(gate_mean, self.sparsity_weight))
                opt.step_loss(loss)
                epoch_loss += loss.item() * len(idx)
            history.append(epoch_loss / len(X))
        self.history_ = history
        self.train_accuracy_ = self.score(X, y)
        return self

    # -- serialization ------------------------------------------------

    def to_payload(self):
        check_is_fitted(self, "stem_")
        params = {
            "stem.weight": array_to_json(self.stem_.weight.data),
            "stem.bias": array_to_json(self.stem_.bias.data),
            "head.weight": array_to_json(self.head_.weight.data),
            "head.bias": array_to_json(self.head_.bias.data),
        }
        for i, block in enumerate(self.blocks_):
            params["blocks.%d.lin1.weight" % i] = array_to_json(block.lin1.weight.data)
            params["blocks.%d.lin1.bias" % i] = array_to_json(block.lin1.bias.data)
            params["blocks.%d.lin2.weight" % i] = array_to_json(block.lin2.weight.data)
            params["blocks.%d.lin2.bias" % i] = array_to_json(block.lin2.bias.data)
        for i, (gw, gb) in enumerate(zip(self.gate_weights_, self.gate_biases_)):
            params["gates.%d.weight" % i] = array_to_json(gw.data)
            params["gates.%d.bias" % i] = array_to_json(gb.data)
        return {
            "kind": "skip",
            "config": {
                "input_dim": self.input_dim,
                "width": self.width,
                "num_blocks": self.num_blocks,
                "num_classes": self.num_classes,
                "gate_threshold": self.gate_threshold,
            },
            "params": params,
        }

    @classmethod
    def from_payload(cls, payload):
        keys = ("input_dim", "width", "num_blocks", "num_classes", "gate_threshold")
        cfg = payload_config(payload, keys)
        model = cls(**{k: cfg[k] for k in keys})
        d, w, n = cfg["input_dim"], cfg["width"], cfg["num_blocks"]
        model._input_pool = Tensor(np.full((d, 1), 1.0 / d))
        model.stem_ = Dense.from_payload(payload, "stem", d, w)
        model.head_ = Dense.from_payload(payload, "head", w, cfg["num_classes"])
        model.blocks_ = [ResidualBlock.from_payload(payload, "blocks.%d" % i, w)
                         for i in range(n)]
        model.gate_weights_ = [Tensor(param_from_json(payload, "gates.%d.weight" % i, ()))
                               for i in range(n)]
        model.gate_biases_ = [Tensor(param_from_json(payload, "gates.%d.bias" % i, ()))
                              for i in range(n)]
        return model


def add_many(tensors):
    total = tensors[0]
    for t in tensors[1:]:
        total = add(total, t)
    return total


class EarlyExitNet(ParamsMixin):
    """Trunk of residual segments with a classifier head at every segment."""

    kind = "exit"

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
        if entropy_threshold < 0:
            raise ValueError("entropy_threshold must be >= 0")
        self.input_dim = input_dim
        self.width = width
        self.num_segments = num_segments
        self.num_classes = num_classes
        self.entropy_threshold = entropy_threshold
        self.epochs = epochs
        self.lr = lr
        self.batch_size = batch_size
        self.seed = seed
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

    def _params(self):
        params = self.stem_.params[:]
        for seg in self.segments_:
            params.extend(seg.params)
        for head in self.exit_heads_:
            params.extend(head.params)
        return params

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

    def forward_exits(self, x):
        """All exit logits for a Tensor input; the trunk is shared."""
        check_is_fitted(self, "stem_")
        h = relu(self.stem_(x))
        logits = []
        for seg, head in zip(self.segments_, self.exit_heads_):
            h = seg(h)
            logits.append(head(h))
        return logits

    def infer(self, x):
        X = as_sample_matrix(x, "x", feature_dim=self.input_dim)
        all_logits = self.forward_exits(Tensor(X))
        logits = np.stack([l.data for l in all_logits], axis=1)
        probs = np.stack([softmax(l).data for l in all_logits], axis=1)
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

    def fit(self, X, y):
        X = as_sample_matrix(X, "X", feature_dim=self.input_dim)
        if len(X) == 0:
            raise ValueError("cannot fit on an empty dataset")
        y = as_label_array(y, n=len(X), num_classes=self.num_classes)
        self._build(derive_rng(self.seed, "exit-init"))
        order_rng = derive_rng(self.seed, "exit-batches")
        opt = Adam(self._params(), lr=self.lr)
        history = []
        for _ in range(self.epochs):
            perm = order_rng.permutation(len(X))
            epoch_loss = 0.0
            for start in range(0, len(X), self.batch_size):
                idx = perm[start : start + self.batch_size]
                all_logits = self.forward_exits(Tensor(X[idx]))
                losses = [cross_entropy(l, y[idx], self.num_classes) for l in all_logits]
                loss = add_many(losses)
                opt.step_loss(loss)
                epoch_loss += loss.item() * len(idx)
            history.append(epoch_loss / len(X))
        self.history_ = history
        self.train_accuracy_ = self.score(X, y)
        per_exit = []
        all_logits = self.forward_exits(Tensor(X))
        for l in all_logits:
            per_exit.append(float(np.mean(np.argmax(l.data, axis=-1) == y)))
        self.exit_accuracies_ = per_exit
        return self

    def to_payload(self):
        check_is_fitted(self, "stem_")
        params = {
            "stem.weight": array_to_json(self.stem_.weight.data),
            "stem.bias": array_to_json(self.stem_.bias.data),
        }
        for i, seg in enumerate(self.segments_):
            params["segments.%d.lin1.weight" % i] = array_to_json(seg.lin1.weight.data)
            params["segments.%d.lin1.bias" % i] = array_to_json(seg.lin1.bias.data)
            params["segments.%d.lin2.weight" % i] = array_to_json(seg.lin2.weight.data)
            params["segments.%d.lin2.bias" % i] = array_to_json(seg.lin2.bias.data)
        for i, head in enumerate(self.exit_heads_):
            params["exits.%d.weight" % i] = array_to_json(head.weight.data)
            params["exits.%d.bias" % i] = array_to_json(head.bias.data)
        return {
            "kind": "exit",
            "config": {
                "input_dim": self.input_dim,
                "width": self.width,
                "num_segments": self.num_segments,
                "num_classes": self.num_classes,
                "entropy_threshold": self.entropy_threshold,
            },
            "params": params,
        }

    @classmethod
    def from_payload(cls, payload):
        keys = ("input_dim", "width", "num_segments", "num_classes", "entropy_threshold")
        cfg = payload_config(payload, keys)
        model = cls(**{k: cfg[k] for k in keys})
        w, n = cfg["width"], cfg["num_segments"]
        model.stem_ = Dense.from_payload(payload, "stem", cfg["input_dim"], w)
        model.segments_ = [ResidualBlock.from_payload(payload, "segments.%d" % i, w)
                           for i in range(n)]
        model.exit_heads_ = [Dense.from_payload(payload, "exits.%d" % i, w, cfg["num_classes"])
                             for i in range(n)]
        return model


class ScriptedAdnn:
    """Deterministic gate oracle: block i runs iff mean(x) >= thresholds[i]."""

    kind = "skip"

    def __init__(self, thresholds, base_flops=2176, block_flops=1024, num_classes=4):
        thresholds = [float(t) for t in thresholds]
        if any(b < a for a, b in zip(thresholds, thresholds[1:])):
            raise ValueError("thresholds must be ascending")
        if any(t < 0.0 or t > 1.0 for t in thresholds):
            raise ValueError("thresholds must lie in [0, 1]")
        self.thresholds = thresholds
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
        traces = []
        for row in X:
            m = float(row.mean())
            decisions = tuple(m >= t for t in self.thresholds)
            label = min(int(m * self.num_classes), self.num_classes - 1)
            logits = np.zeros(self.num_classes)
            logits[label] = 1.0
            traces.append(
                ExecutionTrace(
                    kind="skip",
                    flops=self.base_flops + sum(decisions) * self.block_flops,
                    logits=logits,
                    signature=self.signature,
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


def make_scripted(num_blocks, thresholds, base_flops, block_flops):
    if len(thresholds) != num_blocks:
        raise ValueError("need one threshold per block")
    return ScriptedAdnn(thresholds, base_flops=base_flops, block_flops=block_flops)


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
        return {
            "kind": "scripted",
            "config": {
                "thresholds": model.thresholds,
                "base_flops": model.base_flops,
                "block_flops": model.block_flops,
                "num_classes": model.num_classes,
            },
            "params": {},
        }
    return model.to_payload()


def model_from_payload(payload):
    kind = payload.get("kind") if isinstance(payload, dict) else None
    if kind == "skip":
        return GatedSkipNet.from_payload(payload)
    if kind == "exit":
        return EarlyExitNet.from_payload(payload)
    if kind == "scripted":
        cfg = payload_config(payload, ("thresholds", "base_flops", "block_flops"))
        return ScriptedAdnn(
            cfg["thresholds"],
            base_flops=cfg["base_flops"],
            block_flops=cfg["block_flops"],
            num_classes=cfg.get("num_classes", 4),
        )
    raise DataFormatError("unknown model kind %r" % kind)


def load_model(path):
    return model_from_payload(load_json(path, "model"))
