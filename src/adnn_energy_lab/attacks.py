"""Energy-surging test-input generation.

Two black-box modes drive a trained energy estimator: input-based keeps
the crafted input near a seed image while pushing predicted energy up;
universal ignores the seed and chases predicted energy alone across
random restarts. The white-box path optimizes the target's own
intermediate quantities (gate values or exit entropies) through its soft
forward pass. All modes craft inputs through a tanh reparameterization so
pixels stay inside [0, 1] by construction.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .autodiff import Tensor, l2_norm, relu, tanh, tsum
from .nn import entropy_from_logits
from .optim import Adam
from .seeding import array_fingerprint, derive_rng
from .validation import as_float_array

_ATANH_CLIP = 1e-6


def reparam(w):
    """Map unconstrained weights to an image: (tanh(w) + 1) / 2."""
    if not isinstance(w, Tensor):
        w = Tensor(w)
    return (tanh(w) + 1.0) * 0.5


def _to_modifier(x):
    """Inverse reparameterization: the w with reparam(w) == x (clipped)."""
    x = np.clip(x, _ATANH_CLIP, 1.0 - _ATANH_CLIP)
    return np.arctanh(2.0 * x - 1.0)


def input_based_loss(w, x, c, estimator):
    """Distance-to-seed minus c times predicted energy, as a scalar Tensor."""
    f = reparam(w)
    x = x if isinstance(x, Tensor) else Tensor(x)
    return l2_norm(f - x) - tsum(estimator.predict_tensor(f)) * c


def universal_loss(w, estimator):
    """Negated predicted energy; no distance term."""
    return 0.0 - tsum(estimator.predict_tensor(reparam(w)))


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
        if self.c <= 0:
            raise ValueError("c must be positive")
        if self.iterations < 0:
            raise ValueError("iterations must be nonnegative")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


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
        for _ in range(cfg.iterations):
            loss = opt.step_loss(input_based_loss(w, x, cfg.c, self.estimator))
            self.history_.append(loss)
            if loss < best[0]:
                best = (loss, w.data.copy())
        final = float(input_based_loss(w, x, cfg.c, self.estimator).data)
        if final < best[0]:
            best = (final, w.data.copy())
        self.final_loss_ = final
        self.best_loss_ = best[0] if cfg.iterations else final
        chosen = best[1] if cfg.track_best else w.data
        return reparam(Tensor(chosen)).data.reshape(-1)


class UniversalAttack:
    """Chase predicted energy from many random starts; keep the best run.

    The restart whose final loss is lowest wins; per-restart losses and
    final inputs are kept on the instance for inspection.
    """

    def __init__(self, estimator, config=None):
        self.estimator = estimator
        self.config = config or TestGenConfig(mode="universal")

    def generate(self):
        cfg = self.config
        dim = self.estimator.input_dim
        self.restart_losses_ = []
        self.restart_inputs_ = []
        for r in range(cfg.restarts):
            rng = derive_rng(cfg.seed, "testgen", "universal", str(r))
            w = Tensor(rng.normal(0.0, 0.1, size=(1, dim)))
            opt = Adam([w], lr=cfg.lr)
            for _ in range(cfg.iterations):
                opt.step_loss(universal_loss(w, self.estimator))
            final = float(universal_loss(w, self.estimator).data)
            self.restart_losses_.append(final)
            self.restart_inputs_.append(reparam(Tensor(w.data)).data.reshape(-1))
        self.best_restart_ = int(np.argmin(self.restart_losses_))
        self.best_loss_ = self.restart_losses_[self.best_restart_]
        return self.restart_inputs_[self.best_restart_].copy()


def generate(mode, x, config, estimator):
    """One-call front door for the black-box modes."""
    config = replace(config, mode=mode) if config.mode != mode else config
    if mode == "input_based":
        if x is None:
            raise ValueError("input_based mode needs a seed input")
        return InputBasedAttack(estimator, config).generate(x)
    return UniversalAttack(estimator, config).generate()


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
    seed: int = 0

    def __post_init__(self):
        if self.target not in ("gate", "exit"):
            raise ValueError("target must be 'gate' or 'exit'")
        if self.margin < 0:
            raise ValueError("margin must be nonnegative")
        if self.c <= 0:
            raise ValueError("c must be positive")
        if self.iterations < 0:
            raise ValueError("iterations must be nonnegative")


class IlfoAttack:
    """White-box attack on the model's own intermediate outputs.

    Minimizes squared distance to the seed plus c times the hinge loss of
    the chosen intermediate target, differentiating through the soft
    forward pass. The modifier starts at zero perturbation (arctanh of the
    seed) and the minimum-loss iterate is returned.
    """

    def __init__(self, model, config=None):
        self.model = model
        self.config = config or IlfoConfig()

    def _threshold(self):
        if self.config.threshold is not None:
            return self.config.threshold
        if self.config.target == "gate":
            return self.model.gate_threshold
        return self.model.entropy_threshold

    def _intermediate_loss(self, f):
        level = self._threshold()
        if self.config.target == "gate":
            _, gates, _ = self.model.forward(f, mode="soft")
            total = ilfo_gate_loss(gates[0], level)
            for gate in gates[1:]:
                total = total + ilfo_gate_loss(gate, level)
            return total
        logits = self.model.forward_exits(f)
        total = None
        for exit_logits in logits[:-1]:
            term = ilfo_exit_loss(entropy_from_logits(exit_logits), level,
                                  self.config.margin)
            total = term if total is None else total + term
        if total is None:
            raise ValueError("model has no constrained early exits")
        return total

    def _loss(self, w, x):
        f = reparam(w)
        d = f - x
        return tsum(d * d) + self._intermediate_loss(f) * self.config.c

    def generate(self, x):
        cfg = self.config
        x = as_float_array(x, "x").reshape(1, -1)
        xt = Tensor(x)
        w = Tensor(_to_modifier(x))
        opt = Adam([w], lr=cfg.lr)
        best_loss = float(self._loss(w, xt).data)
        best_w = w.data.copy()
        self.min_losses_ = [best_loss]
        for _ in range(cfg.iterations):
            opt.step_loss(self._loss(w, xt))
            current = float(self._loss(w, xt).data)
            if current < best_loss:
                best_loss = current
                best_w = w.data.copy()
            self.min_losses_.append(best_loss)
        self.best_loss_ = best_loss
        return reparam(Tensor(best_w)).data.reshape(-1)


def ilfo_attack(model, x, config=None):
    """Functional wrapper around IlfoAttack."""
    return IlfoAttack(model, config).generate(x)


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
    labels = np.array([t.label for t in target.infer(inputs)])
    surrogate.fit(inputs, labels)

    chosen = inputs if num_attack is None else inputs[:num_attack]
    if len(chosen) == 0:
        raise ValueError("no inputs selected for attack replay")

    test_inputs = []
    records = []
    excluded = 0
    for x in chosen:
        f = IlfoAttack(surrogate, config).generate(x)
        test_inputs.append(f)
        base_before = surrogate.infer(x).flops
        base_after = surrogate.infer(f).flops
        target_before = target.infer(x).flops
        target_after = target.infer(f).flops
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
