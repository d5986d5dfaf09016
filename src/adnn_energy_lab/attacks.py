"""Energy-surging test-input generation.

Two black-box modes drive a trained energy estimator: input-based keeps
the crafted input near a seed image while pushing predicted energy up;
universal ignores the seed and chases predicted energy alone across
random restarts. The white-box path optimizes the target's own
intermediate quantities (gate values or exit entropies) through its soft
forward pass. All modes craft inputs through a tanh reparameterization so
pixels stay inside [0, 1] by construction.

An iterate's graph is a handful of nodes: the modifier `w`, its
reparameterization `f`, the network (over `f` and its flat parameters), and
for the black-box modes the estimator's prediction; the objective on top is
one node with a hand-written vector-Jacobian product that equals the unfused
composition's bit for bit (5 nodes for ILFO, 6 for the black-box modes).
The black-box modes reach the estimator only through `predict_tensor` and
`input_dim`. The white-box network node keeps only the outputs its hinge
reads, and so runs only the layers they need: the gate hinge asks for no
head (the gate values alone: no stem, block or head runs), the exit hinge
for every early exit (the last segment and exit do not run).
"""

import inspect
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .autodiff import (ShapeError, Tensor, _require_finite, entropy_hinge_terms, hinge_terms,
                       relu, tanh_unit, tsum)
from .optim import Adam
from .seeding import array_fingerprint, derive_rng
from .validation import as_float_array

_ATANH_CLIP = 1e-6


def reparam(w):
    """Map unconstrained weights to an image: (tanh(w) + 1) / 2, one node."""
    return tanh_unit(w)


def _to_modifier(x):
    """Inverse reparameterization: the w with reparam(w) == x (clipped)."""
    x = np.clip(x, _ATANH_CLIP, 1.0 - _ATANH_CLIP)
    return np.arctanh(2.0 * x - 1.0)


def _offset(f, x, op):
    """f's value minus the seed `x` (an array or a Tensor), checked."""
    x = np.asarray(x.data if isinstance(x, Tensor) else x, dtype=np.float64)
    _require_finite(x, op)
    d = f.data - x
    if d.shape != f.shape:
        raise ShapeError("%s got an input of shape %s and a seed of shape %s"
                         % (op, f.shape, x.shape))
    _require_finite(d, op)
    return d


def input_based_loss(w, x, c, estimator):
    """Distance-to-seed minus c times predicted energy, as a scalar Tensor.

    l2_norm(f - x) - tsum(pred) * c, one node over f = reparam(w) and the
    estimator's prediction pred = estimator.predict_tensor(f).
    """
    f = reparam(w)
    pred = estimator.predict_tensor(f)
    d = _offset(f, x, "input_based_loss")
    norm = np.sqrt((d * d).sum())
    energy = pred.data.sum()
    scaled = energy * c
    for value in (norm, energy, c, scaled):
        _require_finite(value, "input_based_loss")

    def grad_f(g):
        # the Euclidean norm's subgradient at the origin is 0
        return g / np.where(norm > 0.0, norm, 1.0) * (norm > 0.0) * d

    return Tensor(norm - scaled, ((f, grad_f), (pred, lambda g: np.full(pred.shape, (-g) * c))),
                  "input_based_loss")


def universal_loss(w, estimator):
    """Negated predicted energy, 0.0 - tsum(pred), one node over the
    estimator's prediction; no distance term."""
    pred = estimator.predict_tensor(reparam(w))
    return Tensor(0.0 - pred.data.sum(), ((pred, lambda g: np.full(pred.shape, -g)),),
                  "universal_loss")


def _ilfo_objective(f, x, out, hinge, c):
    """tsum(d * d) + hinge * c with d = f - x, one node over f and the
    model's soft forward `out`; `hinge` is (value, vector-Jacobian product)
    of the intermediate hinge on out's value."""
    d = _offset(f, x, "ilfo_loss")
    dd = d * d
    distance = dd.sum()
    hinge_value, hinge_grad = hinge
    scaled = hinge_value * c
    for value in (dd, distance, hinge_value, c, scaled):
        _require_finite(value, "ilfo_loss")

    def grad_f(g):
        half = g * d
        return half + half

    return Tensor(distance + scaled, ((f, grad_f), (out, lambda g: hinge_grad(g * c))),
                  "ilfo_loss")


def _is_finite_real(value):
    return isinstance(value, numbers.Real) and math.isfinite(value)


def _check_count(config, name, least):
    value = getattr(config, name)
    if not isinstance(value, numbers.Integral) or value < least:
        raise ValueError("%s must be an integer >= %d, got %r" % (name, least, value))


def _check_steps(config):
    """Reject a weight `c`, step size `lr` or `iterations` count that an
    attack cannot run with, before anything is fitted or generated."""
    for name in ("c", "lr"):
        value = getattr(config, name)
        if not (_is_finite_real(value) and value > 0):
            raise ValueError("%s must be a positive finite number, got %r" % (name, value))
    _check_count(config, "iterations", 0)


@dataclass(frozen=True)
class TestGenConfig:
    mode: str = "input_based"
    c: float = 100.0
    lr: float = 0.01
    iterations: int = 500
    restarts: int = 30
    track_best: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("input_based", "universal"):
            raise ValueError("mode must be 'input_based' or 'universal'")
        _check_steps(self)
        _check_count(self, "restarts", 1)
        # derive_rng masks any integer to 64 bits; a float would be truncated
        if not isinstance(self.seed, numbers.Integral):
            raise ValueError("seed must be an integer, got %r" % (self.seed,))


class InputBasedAttack:
    """Craft a near-seed input that raises the estimator's predicted energy.

    Black-box: consumes only the estimator. Runs exactly `iterations` Adam
    steps and returns the final iterate (set track_best to return the
    lowest-loss iterate instead).
    """

    def __init__(self, estimator, config=None):
        self.estimator = estimator
        self.config = config or TestGenConfig(mode="input_based")

    def generate(self, x):
        cfg = self.config
        x = as_float_array(x, "x").reshape(1, -1)
        rng = derive_rng(cfg.seed, "testgen", "input_based", array_fingerprint(x))
        w = Tensor(rng.normal(0.0, 0.1, size=x.shape))
        opt = Adam([w], lr=cfg.lr)
        self.history_ = []
        best = (np.inf, w.data.copy())
        loss = input_based_loss(w, x, cfg.c, self.estimator)
        for _ in range(cfg.iterations):
            # one graph per iterate: it scores the iterate, then steps it
            if loss.data < best[0]:
                best = (float(loss.data), w.data.copy())
            self.history_.append(opt.step_loss(loss))
            loss = input_based_loss(w, x, cfg.c, self.estimator)
        final = float(loss.data)
        if final < best[0]:
            best = (final, w.data.copy())
        self.final_loss_ = final
        self.best_loss_ = best[0] if cfg.iterations else final
        chosen = best[1] if cfg.track_best else w.data
        return reparam(Tensor(chosen)).data.reshape(-1)


class UniversalAttack:
    """Chase predicted energy from many random starts; keep the best run.

    All restarts run as the rows of one (restarts, d) modifier under one
    Adam, so the estimator's `predict_tensor` must treat batch rows
    independently. Restart r keeps its own seeded start and its final loss
    is scored on its row alone, within float rounding of a one-row run.
    The restart whose final loss is lowest wins; per-restart losses and
    final inputs are kept on the instance for inspection.
    """

    def __init__(self, estimator, config=None):
        self.estimator = estimator
        self.config = config or TestGenConfig(mode="universal")

    def generate(self):
        cfg = self.config
        dim = self.estimator.input_dim
        w = Tensor(np.concatenate([
            derive_rng(cfg.seed, "testgen", "universal", str(r)).normal(0.0, 0.1, size=(1, dim))
            for r in range(cfg.restarts)]))
        opt = Adam([w], lr=cfg.lr)
        for _ in range(cfg.iterations):
            opt.step_loss(universal_loss(w, self.estimator))
        self.restart_losses_ = [float(universal_loss(Tensor(row[None]), self.estimator).data)
                                for row in w.data]
        self.restart_inputs_ = list(reparam(Tensor(w.data)).data)
        self.best_restart_ = int(np.argmin(self.restart_losses_))
        self.best_loss_ = self.restart_losses_[self.best_restart_]
        return self.restart_inputs_[self.best_restart_].copy()


# -- white-box intermediate-target attack --------------------------------


def ilfo_gate_loss(gate_values, gate_threshold):
    """Sum of hinge shortfalls max(0, G_T - g); zero iff every gate fires."""
    if isinstance(gate_values, Tensor):
        return tsum(relu(gate_threshold - gate_values))
    values = np.asarray(gate_values, dtype=np.float64)
    # fsum: correctly rounded, so plain per-element accumulation matches it
    return math.fsum(np.maximum(0.0, gate_threshold - values))


def ilfo_exit_loss(exit_entropies, entropy_threshold, margin=0.0):
    """Hinge shortfall of each constrained exit's entropy below T_H + margin.

    Pass the entropies of the early exits only; the final head is
    unconditional and carries no constraint.
    """
    if margin < 0:
        raise ValueError("margin must be nonnegative")
    target = entropy_threshold + margin
    if isinstance(exit_entropies, Tensor):
        return tsum(relu(target - exit_entropies))
    values = np.asarray(exit_entropies, dtype=np.float64)
    return math.fsum(np.maximum(0.0, target - values))


@dataclass(frozen=True)
class IlfoConfig:
    target: str = "gate"
    threshold: float = None
    margin: float = 0.05
    c: float = 100.0
    lr: float = 0.01
    iterations: int = 500

    def __post_init__(self):
        if self.target not in ("gate", "exit"):
            raise ValueError("target must be 'gate' or 'exit'")
        if self.threshold is not None and not _is_finite_real(self.threshold):
            raise ValueError("threshold must be None or a finite number, got %r"
                             % (self.threshold,))
        if not (_is_finite_real(self.margin) and self.margin >= 0):
            raise ValueError("margin must be a nonnegative finite number, got %r"
                             % (self.margin,))
        _check_steps(self)


class IlfoAttack:
    """White-box attack on the model's own intermediate outputs.

    Minimizes squared distance to the seed plus c times the hinge loss of
    the chosen intermediate target, differentiating through the soft
    forward pass. The modifier starts at zero perturbation (arctanh of the
    seed) and the minimum-loss iterate is returned. Each iterate costs one
    soft forward: the graph that scores it also gives the next step. The
    model's `forward_all(x, heads)` gives that forward as one node, the kept
    heads' logits first and gate values last, and the objective is one node
    on top of it. It keeps no head for a gate target and every early exit
    for an exit target, so the layers that would feed only unread outputs
    do not run; their values are neither computed nor checked.
    """

    def __init__(self, model, config=None):
        self.model = model
        self.config = config or IlfoConfig()
        _check_ilfo_target(model, self.config)

    def _threshold(self):
        if self.config.threshold is not None:
            return self.config.threshold
        if self.config.target == "gate":
            return self.model.gate_threshold
        return self.model.entropy_threshold

    def _heads(self):
        """The heads the objective reads: none for the gates, every early
        exit (all but the last) for the exit entropies."""
        return 0 if self.config.target == "gate" else self.model.num_segments - 1

    def _hinge(self, out):
        """The summed hinge of every gate, or of every early exit's entropy,
        on the output array of the soft forward that keeps `_heads()` heads:
        (value, vector-Jacobian product)."""
        level = self._threshold()
        model = self.model
        if self.config.target == "gate":
            return hinge_terms(out, level, 0, model.num_blocks)
        return entropy_hinge_terms(out, level + self.config.margin, model.num_classes,
                                   model.num_segments - 1)

    def _loss(self, w, x):
        """tsum(d * d) + hinge * c, d = reparam(w) - x, as one node over the
        reparameterized input and the model's one-node soft forward, which
        runs only the layers the hinge reads."""
        f = reparam(w)
        out = self.model.forward_all(f, self._heads())
        return _ilfo_objective(f, x, out, self._hinge(out.data), self.config.c)

    def generate(self, x):
        cfg = self.config
        x = as_float_array(x, "x").reshape(1, -1)
        w = Tensor(_to_modifier(x))
        opt = Adam([w], lr=cfg.lr)
        loss = self._loss(w, x)
        best_loss = float(loss.data)
        best_w = w.data.copy()
        self.min_losses_ = [best_loss]
        for _ in range(cfg.iterations):
            opt.step_loss(loss)
            loss = self._loss(w, x)
            current = float(loss.data)
            if current < best_loss:
                best_loss = current
                best_w = w.data.copy()
            self.min_losses_.append(best_loss)
        self.best_loss_ = best_loss
        return reparam(Tensor(best_w)).data.reshape(-1)


def _check_ilfo_target(model, config):
    """Reject a model that lacks the intermediate outputs `config.target` attacks.

    A gate target needs a soft `forward(x, mode)`; an exit target needs
    `forward_exits` and at least two exits, since the last one carries no
    constraint. Either needs `forward_all(x, heads)`, the one-node soft
    forward that keeps only the heads the objective reads, and the model's
    threshold unless the config sets one.
    """
    name = type(model).__name__
    forward_all = getattr(model, "forward_all", None)
    if callable(forward_all) and "heads" not in inspect.signature(forward_all).parameters:
        raise ValueError("IlfoAttack needs forward_all(x, heads), to run only the layers its "
                         "objective reads; %s.forward_all takes no heads" % name)
    if config.target == "gate":
        forward = getattr(model, "forward", None)
        if not callable(forward) or "mode" not in inspect.signature(forward).parameters \
                or not callable(getattr(model, "forward_all", None)):
            raise ValueError("target 'gate' needs a soft forward(x, mode) and forward_all, "
                             "which %s lacks" % name)
        threshold = "gate_threshold"
    else:
        if not callable(getattr(model, "forward_exits", None)) \
                or not callable(getattr(model, "forward_all", None)):
            raise ValueError("target 'exit' needs forward_exits and forward_all, which %s lacks"
                             % name)
        exits = getattr(model, "num_segments", 0)
        if exits < 2:
            raise ValueError("target 'exit' needs at least 2 exits, %s has %d" % (name, exits))
        threshold = "entropy_threshold"
    if config.threshold is None and not hasattr(model, threshold):
        raise ValueError("target %r needs a threshold: %s has no %s and the config sets none"
                         % (config.target, name, threshold))


# -- surrogate baseline ----------------------------------------------------


def surrogate_pipeline(target, surrogate, inputs, config=None, num_attack=None):
    """Label-oracle surrogate study: train a stand-in on the target's
    labels, attack the stand-in, replay on the target.

    The target contributes only predicted labels and replay traces. Inputs
    already running at maximum FLOPs on either model are excluded from the
    transfer averages and reported separately.
    """
    from .metrics import TransferRecord, inc_rf, transfer_metrics

    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2 or len(inputs) == 0:
        raise ValueError("inputs must be a non-empty sample matrix")
    attack = IlfoAttack(surrogate, config)
    labels = np.array([t.label for t in target.infer(inputs)])
    surrogate.fit(inputs, labels)

    chosen = inputs if num_attack is None else inputs[:num_attack]
    if len(chosen) == 0:
        raise ValueError("no inputs selected for attack replay")

    test_inputs = [attack.generate(x) for x in chosen]
    flops = [[t.flops for t in model.infer(batch)] for model in (surrogate, target)
             for batch in (chosen, np.array(test_inputs))]
    records, excluded = [], 0
    for base_before, base_after, target_before, target_after in zip(*flops):
        if base_before == surrogate.max_flops or target_before == target.max_flops:
            excluded += 1
            continue
        records.append(TransferRecord(
            base_inc_rf=inc_rf(base_before, base_after, surrogate.max_flops),
            target_inc_rf=inc_rf(target_before, target_after, target.max_flops),
            base_flops_before=base_before, base_flops_after=base_after,
            target_flops_before=target_before, target_flops_after=target_after,
        ))
    if not records:
        raise ValueError("replay set is empty: every input was excluded")
    itp, etp = transfer_metrics(records)
    return test_inputs, {
        "itp": itp,
        "etp": etp,
        "excluded": excluded,
        "records": records,
    }
