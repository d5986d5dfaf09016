"""Defenses against energy-surging inputs: a screening filter and a
gradient-feature detector with early-stopped inference.

The filter is a small standalone classifier run before the protected model;
it only needs labeled examples of normal and energy-consuming inputs. The
detector assumes the defender owns the model: each input is scored by the
gradient its gating-relevant loss induces on the stem weights, a linear SVM
separates benign from adversarial in that feature space, and inference is
cut short whenever the margin says adversarial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .autodiff import Tensor, gradients, relu
from .base import ParamsMixin, check_is_fitted
from .metrics import auc
from .models import EarlyExitNet, GatedSkipNet
from .nn import Dense, ResidualBlock, cross_entropy, uniform_cross_entropy
from .optim import Adam
from .seeding import derive_rng
from .validation import as_label_array, as_sample_matrix, check_same_length

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

    At this scale the screen is not cheap relative to the models it guards
    (its own forward costs more FLOPs than their minimum trace); the flops
    property makes that ratio easy to audit rather than hiding it.
    """

    def __init__(self, input_dim=64, width=16, num_blocks=3, num_classes=2,
                 epochs=150, lr=0.01, batch_size=32, seed=0):
        if epochs < 1:
            raise ValueError("epochs must be at least 1")
        if lr < 0:
            raise ValueError("lr must be nonnegative")
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        self.input_dim = input_dim
        self.width = width
        self.num_blocks = num_blocks
        self.num_classes = num_classes
        self.epochs = epochs
        self.lr = lr
        self.batch_size = batch_size
        self.seed = seed
        self.stem_ = None
        self.blocks_ = None
        self.head_ = None
        self.history_ = None

    @property
    def flops(self):
        stem = 2 * self.input_dim * self.width
        block = 2 * (2 * self.width * self.width)
        head = 2 * self.width * self.num_classes
        return stem + self.num_blocks * block + head

    def forward(self, x):
        check_is_fitted(self, "stem_")
        h = relu(self.stem_(x))
        for block in self.blocks_:
            h = block(h)
        return self.head_(h)

    def predict(self, X):
        X = as_sample_matrix(X, "X", feature_dim=self.input_dim)
        return np.argmax(self.forward(Tensor(X)).data, axis=-1)

    def score(self, X, y):
        return float(np.mean(self.predict(X) == np.asarray(y)))

    def fit(self, X, y):
        X = as_sample_matrix(X, "X", feature_dim=self.input_dim)
        if len(X) == 0:
            raise ValueError("cannot fit on an empty dataset")
        y = as_label_array(y, n=len(X), num_classes=self.num_classes)
        rng = derive_rng(self.seed, "filter-init")
        self.stem_ = Dense.init(rng, self.input_dim, self.width)
        self.blocks_ = [ResidualBlock.init(rng, self.width)
                        for _ in range(self.num_blocks)]
        self.head_ = Dense.init(rng, self.width, self.num_classes)
        params = self.stem_.params[:]
        for block in self.blocks_:
            params += block.params
        params += self.head_.params
        opt = Adam(params, lr=self.lr)
        order_rng = derive_rng(self.seed, "filter-batches")
        history = []
        for _ in range(self.epochs):
            perm = order_rng.permutation(len(X))
            epoch_loss = 0.0
            for start in range(0, len(X), self.batch_size):
                idx = perm[start : start + self.batch_size]
                loss = cross_entropy(self.forward(Tensor(X[idx])), y[idx],
                                     self.num_classes)
                opt.step_loss(loss)
                epoch_loss += loss.item() * len(idx)
            history.append(epoch_loss / len(X))
        self.history_ = history
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
    """Stem-weight gradient of the model's gating-relevant loss at x.

    For gated-skip models the loss is the head's cross-entropy against a
    uniform target evaluated through the soft gate path, so each branch's
    share of the gradient is scaled by its gate value and the feature
    reflects how far open the gates are. For early-exit models it is the
    first exit's cross-entropy against uniform, the quantity the exit rule
    thresholds. Energy attacks push both losses far from their benign
    range, which shows up in the gradient's direction and magnitude.
    """
    if not isinstance(adnn, (GatedSkipNet, EarlyExitNet)):
        raise TypeError(
            "gradient features need a differentiable gated model, got %s"
            % type(adnn).__name__
        )
    check_is_fitted(adnn, "stem_")
    x = as_sample_matrix(x, "x", feature_dim=adnn.input_dim)
    if len(x) != 1:
        raise ValueError("gradient_feature scores one input at a time")
    if isinstance(adnn, EarlyExitNet):
        loss = uniform_cross_entropy(adnn.forward_exits(Tensor(x))[0])
    else:
        logits, _, _ = adnn.forward(Tensor(x), mode="soft")
        loss = uniform_cross_entropy(logits)
    (grad,) = gradients(loss, [adnn.stem_.weight])
    return grad.reshape(-1).copy()


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
    features = as_sample_matrix(np.asarray(features, dtype=np.float64),
                                "features")
    labels = np.asarray(labels).reshape(-1)
    check_same_length(features, labels, "features", "labels")
    if not np.isin(labels, (0, 1)).all():
        raise ValueError("labels must be 0 (benign) or 1 (adversarial)")
    if len(np.unique(labels)) < 2:
        raise ValueError("training needs both classes present")
    if lam <= 0:
        raise ValueError("lam must be positive")
    if epochs < 1:
        raise ValueError("epochs must be at least 1")
    y = np.where(labels == 1, 1.0, -1.0)
    n, d = features.shape
    aug = np.concatenate([features, np.ones((n, 1))], axis=1)
    w = np.zeros(d + 1)
    w_sum = np.zeros(d + 1)
    radius = 1.0 / math.sqrt(lam)
    rng = derive_rng(seed, "svm")
    t = 0
    history = []
    for _ in range(epochs):
        for i in rng.permutation(n):
            t += 1
            eta = 1.0 / (lam * t)
            violated = y[i] * (w @ aug[i]) < 1.0
            w *= 1.0 - 1.0 / t
            if violated:
                w += eta * y[i] * aug[i]
            norm = float(np.sqrt(w @ w))
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
    pool, all in percent.
    """
    benign = as_sample_matrix(benign_inputs, "benign_inputs",
                              feature_dim=adnn.input_dim)
    adv = as_sample_matrix(adversarial_inputs, "adversarial_inputs",
                           feature_dim=adnn.input_dim)
    labels = np.asarray(benign_labels).reshape(-1)
    check_same_length(benign, labels, "benign_inputs", "benign_labels")
    if len(benign) == 0 or len(adv) == 0:
        raise ValueError("evaluation needs both benign and adversarial inputs")

    scores_b = np.array([svm_score(svm, gradient_feature(adnn, x))
                         for x in benign])
    scores_a = np.array([svm_score(svm, gradient_feature(adnn, x))
                         for x in adv])
    detection_pct = 100.0 * float(np.mean(scores_a > 0.0))
    auc_value = auc(
        np.concatenate([scores_b, scores_a]),
        np.concatenate([np.zeros(len(benign)), np.ones(len(adv))]),
    )

    acc_plain = float(np.mean(adnn.predict(benign) == labels))
    correct_guarded = 0
    benign_inc = []
    for x, label in zip(benign, labels):
        result = guarded_inference(adnn, svm, x, energy_model)
        plain = energy_model.noiseless_energy(adnn.infer(x))
        benign_inc.append(100.0 * (result.energy - plain) / plain)
        if result.verdict == "benign" and int(np.argmax(result.logits)) == label:
            correct_guarded += 1
    acc_guarded = correct_guarded / len(benign)

    adv_dec = []
    for x in adv:
        result = guarded_inference(adnn, svm, x, energy_model)
        plain = energy_model.noiseless_energy(adnn.infer(x))
        adv_dec.append(100.0 * (plain - result.energy) / plain)

    return {
        "detection_pct": detection_pct,
        "auc": auc_value,
        "acc_drop_pct": 100.0 * (acc_plain - acc_guarded),
        "adv_energy_dec_pct": float(np.mean(adv_dec)),
        "benign_energy_inc_pct": float(np.mean(benign_inc)),
    }
