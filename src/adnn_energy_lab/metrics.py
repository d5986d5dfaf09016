"""Quantitative instruments for the testing pipeline: energy increase,
FLOPs-recovery fraction, transferability percentages, input-quality scores
(squared difference, PSNR, SSIM), rank and correlation statistics, and the
empirical robustness summary.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .seeding import derive_rng
from .validation import check_same_length

PSNR_CAP_DB = 100.0


def energy_increase_percent(e_orig, e_test):
    """Signed percentage change from the original energy."""
    if e_orig <= 0:
        raise ValueError("original energy must be positive, got %r" % (e_orig,))
    return (e_test - e_orig) / e_orig * 100.0


def inc_rf(flops_orig, flops_test, flops_max):
    """Fraction of the model's FLOPs reduction recovered by a test input.

    1.0 means the input dragged the model all the way back to its maximum
    work. Undefined when the original input already ran at maximum; callers
    exclude those from averages.
    """
    if flops_orig > flops_max:
        raise ValueError("flops_orig exceeds flops_max")
    if flops_orig == flops_max:
        raise ValueError(
            "IncRF undefined: input already runs at maximum FLOPs"
        )
    return (flops_test - flops_orig) / (flops_max - flops_orig)


@dataclass(frozen=True)
class TransferRecord:
    """Replay outcome for one test input on base and target models."""

    base_inc_rf: float
    target_inc_rf: float
    base_flops_before: int
    base_flops_after: int
    target_flops_before: int
    target_flops_after: int


def transfer_metrics(records):
    """(ITP %, ETP %) for a replay set.

    ITP counts inputs whose target FLOPs strictly increased; ETP compares
    mean recovered fractions: mean(target IncRF) / mean(base IncRF) * 100.
    """
    records = list(records)
    if not records:
        raise ValueError("transfer_metrics needs at least one record")
    increased = sum(
        1 for rec in records if rec.target_flops_after > rec.target_flops_before
    )
    itp = increased / len(records) * 100.0
    # exactly-rounded sums so clean worked examples come out exact
    p_base = math.fsum(rec.base_inc_rf for rec in records) / len(records)
    p_target = math.fsum(rec.target_inc_rf for rec in records) / len(records)
    if p_base == 0:
        raise ValueError("ETP undefined: base model recovered no FLOPs")
    return itp, p_target / p_base * 100.0


def avg_squared_difference(pairs):
    """Mean squared pixel difference over all (original, test) pairs."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("need at least one pair")
    total = 0.0
    count = 0
    for x, f in pairs:
        x = np.asarray(x, dtype=np.float64)
        f = np.asarray(f, dtype=np.float64)
        if x.shape != f.shape:
            raise ValueError("pair shapes differ: %s vs %s" % (x.shape, f.shape))
        total += float(np.sum((x - f) ** 2))
        count += x.size
    return total / count


def psnr(x, f, peak=1.0):
    """Peak signal-to-noise ratio in dB, capped at 100 for identical images."""
    x = np.asarray(x, dtype=np.float64)
    f = np.asarray(f, dtype=np.float64)
    if x.shape != f.shape:
        raise ValueError("shapes differ: %s vs %s" % (x.shape, f.shape))
    mse = float(np.mean((x - f) ** 2))
    if mse == 0.0:
        return PSNR_CAP_DB
    return 10.0 * math.log10(peak * peak / mse)


def ssim(x, f):
    """Structural similarity over the whole image as a single window."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    f = np.asarray(f, dtype=np.float64).reshape(-1)
    if x.shape != f.shape:
        raise ValueError("shapes differ")
    if x.size < 2:
        raise ValueError("ssim needs at least 2 pixels")
    c1 = (0.01) ** 2
    c2 = (0.03) ** 2
    mx, mf = x.mean(), f.mean()
    vx, vf = x.var(), f.var()
    cov = ((x - mx) * (f - mf)).mean()
    return float(
        (2 * mx * mf + c1) * (2 * cov + c2)
        / ((mx * mx + mf * mf + c1) * (vx + vf + c2))
    )


def _pearson_r(xs, ys):
    sx, sy = xs.std(), ys.std()
    if sx == 0 or sy == 0:
        raise ValueError("pearson undefined for zero-variance input")
    return float(((xs - xs.mean()) * (ys - ys.mean())).mean() / (sx * sy))


def pearson(xs, ys, n_perm=10000, seed=0):
    """Pearson r with a two-sided permutation p-value.

    Exhaustive over all permutations when n <= 7 (exact p); otherwise
    n_perm seeded shuffles with add-one smoothing.
    """
    xs = np.asarray(xs, dtype=np.float64).reshape(-1)
    ys = np.asarray(ys, dtype=np.float64).reshape(-1)
    check_same_length(xs, ys, "xs", "ys")
    if len(xs) < 3:
        raise ValueError("pearson needs at least 3 points")
    r = _pearson_r(xs, ys)
    threshold = abs(r) - 1e-12
    if len(xs) <= 7:
        hits = 0
        total = 0
        for perm in itertools.permutations(ys):
            total += 1
            if abs(_pearson_r(xs, np.array(perm))) >= threshold:
                hits += 1
        p = hits / total
    else:
        rng = derive_rng(seed, "pearson")
        hits = 0
        shuffled = ys.copy()
        for _ in range(n_perm):
            rng.shuffle(shuffled)
            if abs(_pearson_r(xs, shuffled)) >= threshold:
                hits += 1
        p = (hits + 1) / (n_perm + 1)
    return r, p


def auc(scores, labels):
    """Rank-statistic ROC AUC: P(positive outranks negative), ties half.

    Mann-Whitney form: the positives' rank sum, tied scores sharing their
    average rank, less its least value n_pos (n_pos + 1) / 2. The ranks are
    half-integers, so the sum is exact and equals the all-pairs count of
    wins plus half the ties. Labels must be 0 (negative) or 1 (positive).
    """
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    labels = np.asarray(labels).reshape(-1)
    check_same_length(scores, labels, "scores", "labels")
    if not np.isfinite(scores).all():
        raise ValueError("auc needs finite scores")
    if not np.isin(labels, (0, 1)).all():
        raise ValueError("auc needs labels 0 (negative) or 1 (positive)")
    positive = labels == 1
    n_pos = int(positive.sum())
    n_neg = len(scores) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("auc needs both classes present")
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    # the k tied scores ending at rank c share the rank c - (k - 1) / 2
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[group.reshape(-1)]
    wins = ranks[positive].sum() - n_pos * (n_pos + 1) / 2.0
    return float(wins / (n_pos * n_neg))


@dataclass(frozen=True)
class RobustnessScores:
    """Empirical energy-robustness summary (negated best attack outcomes)."""

    e_input: float
    e_universal: float
    budget: float


def robustness_scores(adnn, energy_model, seed_inputs, budget, input_tests,
                      universal_tests):
    """Estimate robustness from attack outputs.

    e_input negates the best admissible (within the L2 budget) energy
    increase over the seed inputs; zero perturbation is always admissible,
    so it is never positive. e_universal negates the highest energy any
    universal test input reaches.
    """
    seed_inputs = [np.asarray(x, dtype=np.float64).reshape(-1) for x in seed_inputs]
    input_tests = [np.asarray(f, dtype=np.float64).reshape(-1) for f in input_tests]
    universal_tests = [np.asarray(f, dtype=np.float64).reshape(-1)
                       for f in universal_tests]
    if not seed_inputs or len(seed_inputs) != len(input_tests):
        raise ValueError("need one input-based test per seed input")
    if not universal_tests:
        raise ValueError("need at least one universal test input")
    if budget < 0:
        raise ValueError("budget must be nonnegative")

    best_gain = 0.0  # delta = 0 is always admissible
    for x, f in zip(seed_inputs, input_tests):
        if float(np.linalg.norm(f - x)) > budget:
            continue
        gain = (energy_model.noiseless_energy(adnn.infer(f))
                - energy_model.noiseless_energy(adnn.infer(x)))
        best_gain = max(best_gain, gain)

    peak = max(energy_model.noiseless_energy(adnn.infer(f))
               for f in universal_tests)
    return RobustnessScores(e_input=-best_gain, e_universal=-peak, budget=budget)
