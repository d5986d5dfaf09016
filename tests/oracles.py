"""Independent reference implementations used to check the library.

Everything here is written directly from the defining formulas, without
importing the code under test, so a bug in the library cannot hide in the
oracle. Slow O(n^2)/exhaustive forms are fine; these run at test scale.
"""

import itertools
import math
import statistics

import numpy as np


def finite_difference(fn, arrays, h=1e-6):
    """Central-difference gradient of scalar fn(arrays) w.r.t. every entry."""
    grads = []
    for base in arrays:
        g = np.zeros_like(base)
        flat = base.reshape(-1)
        gf = g.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            fplus = fn(arrays)
            flat[j] = orig - h
            fminus = fn(arrays)
            flat[j] = orig
            gf[j] = (fplus - fminus) / (2.0 * h)
        grads.append(g)
    return grads


def max_relative_error(ad_grads, fd_grads):
    worst = 0.0
    for a, f in zip(ad_grads, fd_grads):
        denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(f)))
        worst = max(worst, float(np.max(np.abs(a - f) / denom)))
    return worst


def filter_outliers_reference(samples, factor=1.5):
    """Keep values not exceeding factor * median; boundary values stay."""
    med = statistics.median(samples)
    return [v for v in samples if v <= factor * med]


def measure_sequential_reference(adnn, x, rng, base_joules, per_block_joules,
                                 noise_sigma, repetitions=20, factor=1.5):
    """Repeat-and-reject measurement with one inference per repetition.

    Each repetition infers x again and takes one noisy reading of the step
    energy (base plus a scalar per-block cost for every block run or segment
    consumed), clamped at 0. `rng` is the input's own noise stream. Returns
    (raw, retained, mean).
    """
    raw = []
    for _ in range(repetitions):
        trace = adnn.infer(x)
        if trace.kind == "exit":
            value = base_joules + sum([per_block_joules] * (trace.exit_index + 1))
        else:
            value = base_joules + per_block_joules * int(sum(trace.gate_decisions))
        if noise_sigma > 0:
            value += rng.normal(0.0, noise_sigma)
        raw.append(max(value, 0.0))
    retained = filter_outliers_reference(raw, factor)
    return tuple(raw), tuple(retained), float(np.mean(retained))


def auc_reference(scores, labels):
    """All-pairs probability that a positive outranks a negative, ties 1/2."""
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    if not pos or not neg:
        raise ValueError("need both classes")
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def ssim_reference(x, y, data_range=1.0):
    """Single-window SSIM straight from the defining formula."""
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    c1 = (0.01 * data_range) ** 2
    c2 = (0.03 * data_range) ** 2
    mx, my = x.mean(), y.mean()
    vx = ((x - mx) ** 2).mean()
    vy = ((y - my) ** 2).mean()
    cov = ((x - mx) * (y - my)).mean()
    return ((2 * mx * my + c1) * (2 * cov + c2)) / (
        (mx * mx + my * my + c1) * (vx + vy + c2)
    )


def pearson_r_reference(xs, ys):
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    dx = xs - xs.mean()
    dy = ys - ys.mean()
    return float((dx * dy).sum() / math.sqrt((dx * dx).sum() * (dy * dy).sum()))


def exhaustive_permutation_p(xs, ys):
    """Two-sided permutation p-value over every permutation of ys."""
    observed = abs(pearson_r_reference(xs, ys))
    hits = 0
    count = 0
    for perm in itertools.permutations(ys):
        count += 1
        if abs(pearson_r_reference(xs, perm)) >= observed - 1e-12:
            hits += 1
    return hits / count


def adam_reference_steps(p0, grads, lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8):
    """Scalar Adam recurrence unrolled with plain floats."""
    p, m, v = float(p0), 0.0, 0.0
    trail = []
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1**t)
        vhat = v / (1 - beta2**t)
        p = p - lr * mhat / (math.sqrt(vhat) + eps)
        trail.append(p)
    return trail


def random_op_mix_graph(rng):
    """A random scalar graph touching every primitive op, plus its leaves.

    Returns (build, arrays): `build` maps a list of leaf Tensors to a scalar
    Tensor, `arrays` holds leaf values. Leaves are redrawn until every relu /
    maximum input sits at least 1e-4 from its kink and every softmax
    probability stays above 1e-6, so central differences are trustworthy.
    """
    from adnn_energy_lab import autodiff as ad

    n = int(rng.integers(2, 6))
    m = int(rng.integers(2, 5))
    k = int(rng.integers(2, 5))
    batch = int(rng.integers(1, 4))
    use_batch = bool(rng.integers(0, 2))

    def draw():
        x_shape = (batch, n) if use_batch else (n,)
        return [
            rng.uniform(-1.2, 1.2, size=x_shape),   # x
            rng.uniform(-0.9, 0.9, size=(n, m)),    # W1
            rng.uniform(-0.5, 0.5, size=(m,)),      # b1
            rng.uniform(-0.9, 0.9, size=(m, k)),    # W2
            rng.uniform(-0.5, 0.5, size=(k,)),      # b2
            rng.uniform(0.1, 1.0, size=(k,)),       # mixing weights
            rng.uniform(-0.8, 0.8, size=(m,)),      # norm anchor
        ]

    def build(tensors, record=None):
        x, w1, b1, w2, b2, mix, anchor = tensors
        pre = ad.add(ad.matmul(x, w1), b1)
        h1 = ad.relu(pre)
        h2 = ad.tanh(pre)
        logits = ad.add(ad.matmul(h2, w2), b2)
        probs = ad.softmax(logits)
        picked = ad.tsum(ad.mul(ad.log(probs), mix), axis=-1)
        clipped = ad.maximum(ad.sub(h1, 0.3), 0.1)
        gap = ad.sub(h2, anchor)
        dist = ad.l2_norm(gap)
        gate = ad.tmean(ad.sigmoid(h1))
        if record is not None:
            record.append(("kink", pre.data))
            record.append(("kink", h1.data - 0.3 - 0.1))
            record.append(("prob", probs.data))
            record.append(("norm", gap.data))
        return ad.add(
            ad.add(ad.tmean(picked), dist),
            ad.add(ad.mul(ad.tsum(clipped), 0.3), gate),
        )

    def valid(arrays):
        record = []
        build([ad.Tensor(a) for a in arrays], record)
        for kind, data in record:
            if kind == "kink" and np.min(np.abs(data)) < 1e-4:
                return False
            if kind == "prob" and np.min(data) < 1e-6:
                return False
            if kind == "norm" and np.linalg.norm(data) < 1e-3:
                return False
        return True

    for _ in range(200):
        arrays = draw()
        if valid(arrays):
            return build, arrays
    raise RuntimeError("could not find kink-free leaf values")


# -- sequential forms of the batched attack and defense loops -------------
#
# These keep the one-input-at-a-time loops the library used to run. They
# call the library's per-input pieces (losses, Adam, inference, features),
# so they check the batching and bookkeeping around those pieces, not the
# pieces themselves, which have their own oracles above.


def ilfo_two_forward_reference(attack, x):
    """ILFO with two soft forwards per step: one graph for the update, a
    fresh one to score the new iterate. Returns (input, min_losses)."""
    from adnn_energy_lab.attacks import reparam
    from adnn_energy_lab.autodiff import Tensor
    from adnn_energy_lab.optim import Adam

    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    xt = Tensor(x)
    w = Tensor(np.arctanh(2.0 * np.clip(x, 1e-6, 1.0 - 1e-6) - 1.0))
    opt = Adam([w], lr=attack.config.lr)
    best_loss = float(attack._loss(w, xt).data)
    best_w = w.data.copy()
    min_losses = [best_loss]
    for _ in range(attack.config.iterations):
        opt.step_loss(attack._loss(w, xt))
        current = float(attack._loss(w, xt).data)
        if current < best_loss:
            best_loss = current
            best_w = w.data.copy()
        min_losses.append(best_loss)
    return reparam(Tensor(best_w)).data.reshape(-1), min_losses


def universal_per_restart_reference(estimator, config):
    """Each universal restart as its own one-row Adam run.

    Returns (restart inputs, restart final losses).
    """
    from adnn_energy_lab.attacks import reparam, universal_loss
    from adnn_energy_lab.autodiff import Tensor
    from adnn_energy_lab.optim import Adam
    from adnn_energy_lab.seeding import derive_rng

    inputs, losses = [], []
    for r in range(config.restarts):
        rng = derive_rng(config.seed, "testgen", "universal", str(r))
        w = Tensor(rng.normal(0.0, 0.1, size=(1, estimator.input_dim)))
        opt = Adam([w], lr=config.lr)
        for _ in range(config.iterations):
            opt.step_loss(universal_loss(w, estimator))
        losses.append(float(universal_loss(w, estimator).data))
        inputs.append(reparam(Tensor(w.data)).data.reshape(-1))
    return inputs, losses


def surrogate_records_reference(target, surrogate, inputs, config, num_attack):
    """Surrogate study with four one-row replays per attacked input.

    Fits `surrogate` on the target's labels, like the library does.
    Returns (test inputs, transfer records, excluded count).
    """
    from adnn_energy_lab.attacks import IlfoAttack
    from adnn_energy_lab.metrics import TransferRecord, inc_rf

    labels = np.array([target.infer(x).label for x in inputs])
    surrogate.fit(inputs, labels)
    tests, records, excluded = [], [], 0
    for x in inputs[:num_attack]:
        f = IlfoAttack(surrogate, config).generate(x)
        tests.append(f)
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
    return tests, records, excluded


def evaluate_defense_sequential_reference(adnn, svm, energy_model, benign,
                                          labels, adversarial):
    """The defense report built input by input through guarded_inference.

    Every input is scored, then guarded and inferred on its own, so each
    one's feature is computed twice and its model run twice; the AUC is the
    all-pairs form.
    """
    from adnn_energy_lab.defense import (gradient_feature, guarded_inference,
                                         svm_score)

    scores_b = [svm_score(svm, gradient_feature(adnn, x)) for x in benign]
    scores_a = [svm_score(svm, gradient_feature(adnn, x)) for x in adversarial]
    correct_plain = correct_guarded = 0
    benign_inc = []
    for x, label in zip(benign, labels):
        result = guarded_inference(adnn, svm, x, energy_model)
        trace = adnn.infer(x)
        plain = energy_model.noiseless_energy(trace)
        benign_inc.append(100.0 * (result.energy - plain) / plain)
        correct_plain += trace.label == label
        if result.verdict == "benign" and int(np.argmax(result.logits)) == label:
            correct_guarded += 1
    adv_dec = []
    for x in adversarial:
        result = guarded_inference(adnn, svm, x, energy_model)
        plain = energy_model.noiseless_energy(adnn.infer(x))
        adv_dec.append(100.0 * (plain - result.energy) / plain)
    n = len(benign)
    return {
        "detection_pct": 100.0 * float(np.mean(np.array(scores_a) > 0.0)),
        "auc": auc_reference(scores_b + scores_a, [0] * n + [1] * len(scores_a)),
        "acc_drop_pct": 100.0 * (correct_plain / n - correct_guarded / n),
        "adv_energy_dec_pct": float(np.mean(adv_dec)),
        "benign_energy_inc_pct": float(np.mean(benign_inc)),
    }
