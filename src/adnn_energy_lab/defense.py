"""Defenses against energy-surging inputs: a screening filter and a
gradient-feature detector with early-stopped inference.

The filter is a small standalone classifier run before the protected model;
it only needs labeled examples of normal and energy-consuming inputs. The
detector assumes the defender owns the model: each input is scored by the
gradient its gating-relevant loss induces on the stem weights, a linear SVM
separates benign from adversarial in that feature space, and inference is
cut short whenever the margin says adversarial. The features of a whole
pool come from one batched forward and one reverse walk that stops at the
stem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .autodiff import (_ONE, _checked, _log_softmax_rows, _require_finite, _scatter_columns,
                       softmax_cross_entropy_terms)
from .base import ParamsMixin, check_is_fitted
from .metrics import auc
from .models import EarlyExitNet, GatedSkipNet
from .nn import Dense, ResidualBlock, fit_minibatch, kept_network, one_hot
from .seeding import derive_rng
from .validation import (INT, NONNEGATIVE, POSITIVE, SIZE, as_label_array, as_sample_matrix,
                         check_params, check_same_length)

__all__ = [
    "FilterModel",
    "train_filter",
    "gradient_feature",
    "LinearSvm",
    "train_svm",
    "svm_score",
    "GuardedResult",
    "detector_cost_joules",
    "guarded_inference",
    "evaluate_defense",
]


# -- input filtering ------------------------------------------------------


class FilterModel(ParamsMixin):
    """Residual-MLP screen: class 0 = normal input, class 1 = energy noise.

    At this scale the screen is not cheap relative to the models it guards:
    its own forward costs more FLOPs than their minimum trace.
    """

    PARAMS = {"input_dim": SIZE, "width": SIZE, "num_blocks": SIZE, "num_classes": SIZE,
              "epochs": SIZE, "lr": NONNEGATIVE, "batch_size": SIZE, "seed": INT}

    def __init__(self, input_dim=64, width=16, num_blocks=3, num_classes=2,
                 epochs=150, lr=0.01, batch_size=32, seed=0):
        self.input_dim = input_dim
        self.width = width
        self.num_blocks = num_blocks
        self.num_classes = num_classes
        self.epochs = epochs
        self.lr = lr
        self.batch_size = batch_size
        self.seed = seed
        check_params(self.PARAMS, vars(self))
        self.stem_ = None
        self.blocks_ = None
        self.head_ = None
        self.history_ = None

    def _net(self):
        """The network over the current layers; see `nn.kept_network`."""
        check_is_fitted(self, "stem_")
        return kept_network(self, self.stem_, self.blocks_, [self.head_])

    def predict(self, X):
        X = as_sample_matrix(X, "X", feature_dim=self.input_dim)
        (logits,), _ = self._net().run(X)
        return np.argmax(logits, axis=-1)

    def _batch_terms(self, X, y, net=None):
        """Cross-entropy of one batch and its gradient toward theta, on
        arrays; checked as the graph softmax_cross_entropy(network(X)) checks
        it. `net` is the network, if already resolved."""
        out, grad_theta = (self._net() if net is None else net).theta_terms(X)
        loss, loss_grad = softmax_cross_entropy_terms(out, one_hot(y, self.num_classes))
        return (_checked(loss, "softmax_cross_entropy"),
                grad_theta(_checked(loss_grad(_ONE), "softmax_cross_entropy.grad")))

    def score(self, X, y):
        return float(np.mean(self.predict(X) == np.asarray(y)))

    def fit(self, X, y):
        check_params(self.PARAMS, vars(self))
        X = as_sample_matrix(X, "X", feature_dim=self.input_dim)
        if len(X) == 0:
            raise ValueError("cannot fit on an empty dataset")
        y = as_label_array(y, n=len(X), num_classes=self.num_classes)
        rng = derive_rng(self.seed, "filter-init")
        self.stem_ = Dense.init(rng, self.input_dim, self.width)
        self.blocks_ = [ResidualBlock.init(rng, self.width)
                        for _ in range(self.num_blocks)]
        self.head_ = Dense.init(rng, self.width, self.num_classes)
        order_rng = derive_rng(self.seed, "filter-batches")
        net = self._net()
        self.history_ = fit_minibatch(lambda Xb, yb: self._batch_terms(Xb, yb, net), net.theta,
                                      X, y, self.epochs, self.batch_size, self.lr, order_rng)
        return self


def train_filter(normal_inputs, noisy_inputs, epochs=150, lr=0.01, seed=0):
    """Fit a FilterModel on two labeled pools and report held-out accuracy.

    A fifth of the combined pool (at least one example) is held out before
    training; the returned accuracy is measured there, so it is an honest
    estimate rather than a training score.
    """
    normal = as_sample_matrix(normal_inputs, "normal_inputs")
    noisy = as_sample_matrix(noisy_inputs, "noisy_inputs")
    if len(normal) == 0 or len(noisy) == 0:
        raise ValueError("train_filter needs examples of both classes")
    if normal.shape[1] != noisy.shape[1]:
        raise ValueError(
            "class pools disagree on feature count: %d vs %d"
            % (normal.shape[1], noisy.shape[1])
        )
    X = np.concatenate([normal, noisy])
    y = np.concatenate([np.zeros(len(normal), dtype=np.int64),
                        np.ones(len(noisy), dtype=np.int64)])
    order = derive_rng(seed, "filter-split").permutation(len(X))
    n_held = max(1, len(X) // 5)
    held, train = order[:n_held], order[n_held:]
    model = FilterModel(input_dim=X.shape[1], epochs=epochs, lr=lr, seed=seed)
    model.fit(X[train], y[train])
    return model, model.score(X[held], y[held])


# -- gradient features ----------------------------------------------------


def gradient_feature(adnn, x):
    """Stem-weight gradient of the model's gating-relevant loss at each input.

    Takes one input and returns its feature vector, or a matrix of inputs and
    returns one feature row per input, as `infer` returns one trace per row.

    For gated-skip models the loss is the head's cross-entropy against a
    uniform target evaluated through the soft gate path, so each branch's
    share of the gradient is scaled by its gate value and the feature
    reflects how far open the gates are. For early-exit models it is the
    first exit's cross-entropy against uniform, the quantity the exit rule
    thresholds. Energy attacks push both losses far from their benign
    range, which shows up in the gradient's direction and magnitude.

    Row i is outer(x_i, dL_i/dz0_i), where L_i is input i's own loss and z0
    the stem pre-activation (the per-example gradient of Goodfellow, arXiv
    1510.01799). Every row comes from one batched forward and one reverse
    walk that stops at the stem; no other parameter's gradient is built. The
    forward keeps the first head alone, the only one the loss reads, so an
    early-exit model runs its first segment and no other. A row of a batch
    equals the one-input feature up to the rounding of the network's
    batched matrix products.

    Limitation: an input whose stem relu units are all dead (z0 <= 0 in
    every unit) passes no gradient to the stem, so its feature is all zeros
    and every linear detector scores it at its bias, whatever the input.
    """
    if not isinstance(adnn, (GatedSkipNet, EarlyExitNet)):
        raise TypeError(
            "gradient features need a differentiable gated model, got %s"
            % type(adnn).__name__
        )
    check_is_fitted(adnn, "stem_")
    X = as_sample_matrix(x, "x", feature_dim=adnn.input_dim)
    c = adnn.num_classes
    # each row's seed is d(-mean_k log p_k)/d(log p_k) of its own loss, the
    # seed of a one-row batch; a mean over the whole batch would scale by 1/n
    seed = (1.0 * -1.0) * (1.0 / c)

    def out_grad(out):
        # the forward keeps the first head, whose logits come first: the head
        # of a gated-skip model, the first exit of an early-exit one
        logp = _log_softmax_rows(out[:, :c])[1]
        _require_finite(logp, "gradient_feature")
        g = np.full(logp.shape, seed)
        g_logits = g - np.exp(logp) * g.sum(axis=-1, keepdims=True)
        _require_finite(g_logits, "gradient_feature.grad")
        return _scatter_columns(out.shape, 0, c, g_logits)

    dz0 = adnn._net().stem_grad(X, out_grad, heads=1)
    # + 0.0 turns the -0.0 of a product into the 0.0 a matrix product gives
    features = (X[:, :, None] * dz0[:, None, :]).reshape(len(X), -1) + 0.0
    _require_finite(features, "gradient_feature.grad")
    return features[0] if np.ndim(x) == 1 else features


# -- linear SVM detector --------------------------------------------------


@dataclass
class LinearSvm:
    """Margin classifier over gradient features: score = w . phi + b.

    Positive score means adversarial; an exact zero stays benign, so a
    dead detector fails open instead of blocking everything.
    """

    weights: np.ndarray
    bias: float
    lam: float
    objective_history_: Optional[list] = field(
        default=None, repr=False, compare=False)


_SVM_PARAMS = {"lam": POSITIVE, "epochs": SIZE}


def _svm_objective(w, b, features, y, lam):
    margins = y * (features @ w + b)
    hinge = float(np.mean(np.maximum(0.0, 1.0 - margins)))
    # the bias rides along as an augmented coordinate, so it is priced
    # inside the quadratic term just like the weights
    return 0.5 * lam * (float(w @ w) + b * b) + hinge


def train_svm(features, labels, lam=1e-4, epochs=200, seed=0):
    """Pegasos-style SGD for lam/2 ||w||^2 + mean hinge loss.

    The bias is folded in as a constant augmented feature so it shares the
    regularizer and the step-size schedule; iterates are projected onto
    the 1/sqrt(lam) ball and the returned classifier is the average of all
    iterates, whose full-set objective is recorded per epoch.
    """
    check_params(_SVM_PARAMS, {"lam": lam, "epochs": epochs})
    features = as_sample_matrix(np.asarray(features, dtype=np.float64),
                                "features")
    labels = np.asarray(labels).reshape(-1)
    check_same_length(features, labels, "features", "labels")
    if not np.isin(labels, (0, 1)).all():
        raise ValueError("labels must be 0 (benign) or 1 (adversarial)")
    if len(np.unique(labels)) < 2:
        raise ValueError("training needs both classes present")
    y = np.where(labels == 1, 1.0, -1.0)
    n, d = features.shape
    # one row array and one Python float label per example, indexed by a
    # Python int: the step reads them with no numpy scalar boxing
    rows = list(np.concatenate([features, np.ones((n, 1))], axis=1))
    signs = y.tolist()
    w = np.zeros(d + 1)
    w_sum = np.zeros(d + 1)
    radius = 1.0 / math.sqrt(lam)
    rng = derive_rng(seed, "svm")
    t = 0
    history = []
    for _ in range(epochs):
        for i in rng.permutation(n).tolist():
            t += 1
            eta = 1.0 / (lam * t)
            row, sign = rows[i], signs[i]
            violated = sign * (w @ row) < 1.0
            w *= 1.0 - 1.0 / t
            if violated:
                w += eta * sign * row
            norm = math.sqrt(w @ w)
            if norm > radius:
                w *= radius / norm
            w_sum += w
        w_bar = w_sum / t
        history.append(_svm_objective(w_bar[:d], float(w_bar[d]),
                                      features, y, lam))
    w_bar = w_sum / t
    svm = LinearSvm(weights=w_bar[:d].copy(), bias=float(w_bar[d]), lam=lam)
    svm.objective_history_ = history
    return svm


def svm_score(svm, feature):
    """Signed margin w . phi + b; positive classifies as adversarial."""
    phi = np.asarray(feature, dtype=np.float64).reshape(-1)
    if phi.shape != svm.weights.shape:
        raise ValueError(
            "feature has %d entries, classifier expects %d"
            % (phi.size, svm.weights.size)
        )
    return float(svm.weights @ phi + svm.bias)


# -- guarded inference ----------------------------------------------------


@dataclass(frozen=True)
class GuardedResult:
    verdict: str
    logits: Optional[np.ndarray]
    energy: float


def detector_cost_joules(adnn, energy_model):
    """Joules for one feature extraction, priced at the model's block rate.

    The detector runs a stem forward plus a backward of equal cost, so it
    is charged 2x the stem FLOPs converted through joules-per-FLOP implied
    by the energy model's block pricing.
    """
    per_block = energy_model.per_block_joules
    if not np.isscalar(per_block):
        per_block = float(np.mean(per_block))
    return 2.0 * adnn.stem_flops * per_block / adnn.block_flops


def guarded_inference(adnn, svm, x, energy_model):
    """Screen one input, then either run the model or stop early.

    The detector cost is always paid. A benign verdict adds the full
    noiseless inference energy and returns the model's logits; an
    adversarial verdict stops before the model runs, so the energy spent
    is the detector overhead alone.
    """
    score = svm_score(svm, gradient_feature(adnn, x))
    overhead = detector_cost_joules(adnn, energy_model)
    if score > 0.0:
        return GuardedResult(verdict="adversarial", logits=None,
                             energy=overhead)
    trace = adnn.infer(np.asarray(x, dtype=np.float64).reshape(-1))
    return GuardedResult(
        verdict="benign",
        logits=trace.logits.copy(),
        energy=overhead + energy_model.noiseless_energy(trace),
    )


def evaluate_defense(adnn, svm, energy_model, benign_inputs, benign_labels,
                     adversarial_inputs):
    """Score the detector on labeled pools and summarize as a report dict.

    Keys mirror the quantities a deployment would track: detection rate on
    adversarial inputs, ranking quality (AUC), accuracy lost to false
    alarms on benign inputs, and the energy deltas the guard buys on each
    pool, all in percent. Each pool's features come from one batched
    `gradient_feature` call and each pool is inferred in one batch; the
    guarded energy and accuracy follow from the verdicts exactly as
    `guarded_inference` gives them.
    """
    benign = as_sample_matrix(benign_inputs, "benign_inputs",
                              feature_dim=adnn.input_dim)
    adv = as_sample_matrix(adversarial_inputs, "adversarial_inputs",
                           feature_dim=adnn.input_dim)
    labels = np.asarray(benign_labels).reshape(-1)
    check_same_length(benign, labels, "benign_inputs", "benign_labels")
    if len(benign) == 0 or len(adv) == 0:
        raise ValueError("evaluation needs both benign and adversarial inputs")

    scores_b, scores_a = (np.array([svm_score(svm, phi) for phi in gradient_feature(adnn, pool)])
                          for pool in (benign, adv))
    detection_pct = 100.0 * float(np.mean(scores_a > 0.0))
    auc_value = auc(
        np.concatenate([scores_b, scores_a]),
        np.concatenate([np.zeros(len(benign)), np.ones(len(adv))]),
    )

    # as in guarded_inference: the overhead, plus the model's energy if it runs
    overhead = detector_cost_joules(adnn, energy_model)
    traces_b = adnn.infer(benign)
    plain_b = energy_model.noiseless_energies(traces_b)
    plain_a = energy_model.noiseless_energies(adnn.infer(adv))
    guarded_b = np.where(scores_b > 0.0, overhead, overhead + plain_b)
    guarded_a = np.where(scores_a > 0.0, overhead, overhead + plain_a)
    predicted = traces_b.labels
    acc_plain = float(np.mean(predicted == labels))
    acc_guarded = int(np.sum(~(scores_b > 0.0) & (predicted == labels))) / len(benign)
    benign_inc = 100.0 * (guarded_b - plain_b) / plain_b
    adv_dec = 100.0 * (plain_a - guarded_a) / plain_a

    return {
        "detection_pct": detection_pct,
        "auc": auc_value,
        "acc_drop_pct": 100.0 * (acc_plain - acc_guarded),
        "adv_energy_dec_pct": float(np.mean(adv_dec)),
        "benign_energy_inc_pct": float(np.mean(benign_inc)),
    }
