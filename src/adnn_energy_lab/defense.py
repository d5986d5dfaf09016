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

from .autodiff import _log_softmax_rows, _require_finite, _scatter_columns
from .base import check_is_fitted
from .metrics import auc
from .models import EarlyExitNet, GatedSkipNet
from .nn import ResidualModel, payload_layout
from .seeding import derive_rng
from .validation import (INT, NONNEGATIVE, POSITIVE, SIZE, as_sample_matrix, check_params,
                         check_same_length)

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


class FilterModel(ResidualModel):
    """Residual-MLP screen: class 0 = normal input, class 1 = energy noise.

    At this scale the screen is not cheap relative to the models it guards:
    its own forward costs more FLOPs than their minimum trace.
    """

    kind = "filter"
    PARAMS = {"input_dim": SIZE, "width": SIZE, "num_blocks": SIZE, "num_classes": SIZE,
              "epochs": SIZE, "lr": NONNEGATIVE, "batch_size": SIZE, "seed": INT}
    _SAVED = ("input_dim", "width", "num_blocks", "num_classes")

    def __init__(self, input_dim=64, width=16, num_blocks=3, num_classes=2,
                 epochs=150, lr=0.01, batch_size=32, seed=0):
        self._store(locals())
        self.history_ = None

    def _layout(self):
        return payload_layout(self.input_dim, self.width, self.num_blocks, self.num_classes,
                              "blocks.%d", ["head"])

    def predict(self, X):
        X = as_sample_matrix(X, "X", feature_dim=self.input_dim)
        (logits,), _ = self._net().run(X)
        return np.argmax(logits, axis=-1)


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
    batched matrix products, within 1e-12 of the pool's largest entry; a
    one-input feature is bit-identical to the stem slice of the full theta
    gradient.

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
        logp = _log_softmax_rows(out[:, :c])[2]
        _require_finite(logp, "gradient_feature")
        g = np.full(logp.shape, seed)
        g_logits = g - np.exp(logp) * np.add.reduce(g, axis=-1, keepdims=True)
        _require_finite(g_logits, "gradient_feature.grad")
        return _scatter_columns(out.shape, 0, c, g_logits)

    dz0 = adnn._net().stem_grad(X, out_grad, heads=1)
    # + 0.0 turns the -0.0 of a product into the 0.0 a matrix product gives
    features = (X[:, :, None] * dz0[:, None, :]).reshape(len(X), X.shape[1] * dz0.shape[1]) + 0.0
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


# a scale below this is folded into alpha, so alpha stays within
# 1 / _SVM_FOLD of the iterate's own coefficients and cannot grow without
# bound over a long run
_SVM_FOLD = 1e-3


def train_svm(features, labels, lam=1e-4, epochs=200, seed=0):
    """Pegasos-style SGD for lam/2 ||w||^2 + mean hinge loss.

    The bias is folded in as a constant augmented feature so it shares the
    regularizer and the step-size schedule; iterates are projected onto
    the 1/sqrt(lam) ball and the returned classifier is the average of all
    iterates, whose full-set objective is recorded per epoch.

    The loop runs the Pegasos iterates in their kernelized form
    (Shalev-Shwartz et al., Math. Programming 2011, section 4): with u_i =
    y_i [x_i, 1] the signed augmented rows and K = U U^T their n x n Gram
    matrix, the iterate is w = s U^T alpha and the running sum of iterates
    U^T (summed + S alpha), where S sums the scales s since alpha last
    changed and `summed` holds the iterates' coefficients from before.
    Every row's margin (K alpha)_i is kept in one array, so a step that
    keeps its margin updates scalars only; a violating step adds S alpha
    to `summed`, one row of K to the margins, and moves alpha_i and
    |U^T alpha|^2. Every term of `summed`, S and alpha is nonnegative, so
    the running sum's coefficients lose nothing to cancellation. The
    margins and the norm are recomputed from K once per epoch and whenever
    s is folded into alpha; each epoch's objective comes from K too, and
    the weights are formed once, at the end. The iterates are the primal
    loop's in exact arithmetic; in floats they differ by rounding, within
    1e-10 relative on the classifier and 1e-8 on each epoch's objective
    (against the primal loop in `tests/oracles.py`). K takes n * n floats,
    no more than the features take while n <= d + 1.

    Raises ValueError when an inner product of the augmented rows
    overflows, before the first step.
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
    rows = np.concatenate([features, np.ones((n, 1))], axis=1) * y[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        gram = rows @ rows.T
    if not np.isfinite(gram).all():
        raise ValueError("features too large: the inner products of their rows overflow")
    gram_rows, diag = list(gram), gram.diagonal().tolist()
    alpha, summed, kalpha, sq_norm = np.zeros(n), np.zeros(n), np.zeros(n), 0.0
    # the scale is s = p / t: the shrink by 1 - 1/t at step t leaves p as it
    # is, and a violating step adds 1 / (lam p) to its alpha_i
    p, scale_sum, t = 1.0, 0.0, 0
    rng = derive_rng(seed, "svm")
    history = []
    for _ in range(epochs):
        for i in rng.permutation(n).tolist():
            t += 1
            # w . u_i = s (K alpha)_i < 1 for the iterate before the step,
            # whose scale is p / (t - 1); the first, w = 0, violates them all
            if kalpha.item(i) * p < t - 1 or t == 1:
                summed += scale_sum * alpha
                scale_sum = 0.0
                if p < _SVM_FOLD * t:
                    alpha *= p / t
                    p = float(t)
                    kalpha = gram @ alpha
                    sq_norm = float(alpha @ kalpha)
                step = 1.0 / (lam * p)
                alpha[i] += step
                sq_norm += step * (2.0 * kalpha.item(i) + step * diag[i])
                kalpha += step * gram_rows[i]
                if lam * p * p * sq_norm > t * t:    # |w| > 1 / sqrt(lam)
                    p = t / math.sqrt(lam * sq_norm)
            scale_sum += p / t
        coef = (summed + scale_sum * alpha) / t    # the average iterate is U^T coef
        kcoef = gram @ coef
        history.append(0.5 * lam * float(coef @ kcoef)
                       + float(np.maximum(0.0, 1.0 - kcoef).sum()) / n)
        kalpha = gram @ alpha
        sq_norm = float(alpha @ kalpha)
    w_bar = rows.T @ coef
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
