"""Reference implementations used to check the library.

Each is written directly from the defining formulas. The graph oracles
compose the tests' own primitive ops (`graph_ops`) and use of the library
only its graph node: `Tensor`, `gradients` and the one-node `columns` and
`softmax_cross_entropy`, which the tests check against these ops in turn.
The sequential and loop references call per-input pieces of the library,
and say which. Slow O(n^2)/exhaustive forms are fine; these run at test
scale.
"""

import hashlib
import itertools
import math
import statistics

import numpy as np

from adnn_energy_lab.autodiff import (Tensor, columns, gradients, softmax_cross_entropy,
                                      tanh_unit_terms)

import graph_ops as ops


def array_fingerprint(arr):
    """The fingerprint that keys one input's streams, from its definition:
    the first 8 bytes, big-endian, of the SHA-256 of the input's float64
    bytes in C order."""
    data = np.asarray(arr, dtype=np.float64).tobytes(order="C")
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "big")


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


def fd_check(build, arrays, tol=1e-6):
    """Assert that `gradients` of the scalar graph `build(leaves)` toward its
    leaves, Tensors of `arrays`, is within `tol` of central differences."""
    tensors = [Tensor(a) for a in arrays]
    loss = build(tensors)
    ad_grads = gradients(loss, tensors)
    fd_grads = finite_difference(lambda arrs: build([Tensor(a) for a in arrs]).item(), arrays)
    assert max_relative_error(ad_grads, fd_grads) < tol


def entropy(p):
    """Shannon entropy in nats of a probability vector; 0 ln 0 = 0. Its
    terms are summed as one numpy reduce, as `infer` sums each exit's."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError("entropy expects a single probability vector")
    if p.min() < 0 or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError("entropy needs a normalized probability vector")
    return float(-np.add.reduce(np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)), 0.0)))


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


def infer_reference(model, x):
    """Hard-mode inference with each row's trace built by itself, as a dict
    of `ExecutionTrace` fields: a list for a batch, one dict for a vector.

    The skip and exit nets run their network's hard forward once
    (`_net().run`); the exit net's softmax runs head by head through the
    tests' graph `softmax` and its exit is searched row by row. The scripted
    model is evaluated row by row from its thresholds. The nets' FLOPs are
    counted by hand from their sizes: the stem, one head and a block's two
    width x width maps per block run or segment consumed.
    """

    X = np.atleast_2d(np.asarray(x, dtype=np.float64))
    rows = []

    def hand_flops(units):
        w = model.width
        return 2 * model.input_dim * w + 2 * w * model.num_classes + units * 2 * (2 * w * w)

    def row(kind, flops, logits, gate_values=None, gate_decisions=None, exit_index=None,
            exit_entropies=None):
        rows.append({"kind": kind, "flops": flops, "logits": logits,
                     "signature": model.signature, "gate_values": gate_values,
                     "gate_decisions": gate_decisions, "exit_index": exit_index,
                     "exit_entropies": exit_entropies})

    if hasattr(model, "thresholds"):
        for m in X.mean(axis=1).tolist():
            decisions = tuple(m >= t for t in model.thresholds)
            logits = np.zeros(model.num_classes)
            logits[min(int(m * model.num_classes), model.num_classes - 1)] = 1.0
            row("skip", model.base_flops + sum(decisions) * model.block_flops, logits,
                tuple(1.0 if d else 0.0 for d in decisions), decisions)
    elif model.kind == "skip":
        (logits,), values = model._net().run(X, model.gate_threshold)
        for i in range(len(X)):
            decisions = tuple(v >= model.gate_threshold for v in values[i].tolist())
            row("skip", hand_flops(sum(decisions)), logits[i].copy(),
                tuple(values[i].tolist()), decisions)
    else:
        all_logits, _ = model._net().run(X)
        entropies = []
        for logits in all_logits:
            p = ops.softmax(Tensor(logits)).data
            entropies.append(-np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)), 0.0)
                             .sum(axis=-1))
        for i in range(len(X)):
            ent = tuple(float(e[i]) for e in entropies)
            below = [k for k, e in enumerate(ent) if e < model.entropy_threshold]
            exit_index = below[0] if below else model.num_segments - 1
            row("exit", hand_flops(exit_index + 1), all_logits[exit_index][i].copy(),
                exit_index=exit_index, exit_entropies=ent)
    return rows[0] if np.asarray(x).ndim == 1 else rows


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


def xavier_layer(rng, fan_in, fan_out):
    """(weight, bias) of one affine map, drawn as a model's build draws it:
    a Xavier-uniform weight in +-sqrt(6 / (fan_in + fan_out)), a zero bias."""
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out)), np.zeros(fan_out)


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


def adam_per_parameter_steps(values, grads, state, lr=0.01, beta1=0.9,
                             beta2=0.999, eps=1e-8):
    """One Adam step run parameter by parameter on plain arrays, in the
    folded form: the second moment v kept without its (1 - beta2) factor,
    and both bias corrections and that factor folded into the step size
    and eps.

    `values` and `grads` are lists of arrays; `state` is a dict holding the
    step count and per-parameter moments, created empty and carried between
    calls. Returns the new values as fresh arrays.
    """
    t = state["t"] = state.get("t", 0) + 1
    ms = state.setdefault("m", [np.zeros(np.shape(v)) for v in values])
    vs = state.setdefault("v", [np.zeros(np.shape(v)) for v in values])
    scale = math.sqrt((1.0 - beta2**t) / (1.0 - beta2))
    alpha = lr / (1.0 - beta1**t) * scale
    out = []
    for i, (p, g) in enumerate(zip(values, grads)):
        ms[i] = beta1 * ms[i] + (1.0 - beta1) * g
        vs[i] = beta2 * vs[i] + g * g
        out.append(p - alpha * (ms[i] / (np.sqrt(vs[i]) + eps * scale)))
    return out


def step_loss(opt, loss):
    """One Adam step on the graph of the scalar Tensor `loss`: the backward
    pass toward every parameter of `opt`, then the update. Returns the loss."""
    opt.step(gradients(loss, opt.params))
    return float(loss.data)


def minibatch_reference(batch_loss, theta, X, y, epochs, batch_size, lr, rng):
    """The epoch loop each fit ran before they shared one, on a graph: Adam
    on `theta`, one permutation per epoch, one `step_loss` per batch on
    `batch_loss(X[idx], y[idx])`, a scalar Tensor, and each epoch's
    row-weighted mean loss."""
    from adnn_energy_lab.optim import Adam
    opt = Adam([theta], lr=lr)
    history = []
    for _ in range(epochs):
        perm = rng.permutation(len(X))
        epoch_loss = 0.0
        for start in range(0, len(X), batch_size):
            idx = perm[start : start + batch_size]
            loss = batch_loss(X[idx], y[idx])
            step_loss(opt, loss)
            epoch_loss += loss.item() * len(idx)
        history.append(epoch_loss / len(X))
    return history


def random_op_mix_graph(rng):
    """A random scalar graph touching every primitive op and the one-node
    `columns` and `softmax_cross_entropy`, plus its leaves.

    Returns (build, arrays): `build` maps a list of leaf Tensors to a scalar
    Tensor, `arrays` holds leaf values. Leaves are redrawn until every relu /
    maximum input sits at least 1e-4 from its kink and every softmax
    probability stays above 1e-6, so central differences are trustworthy.
    """

    n = int(rng.integers(2, 6))
    m = int(rng.integers(2, 5))
    k = int(rng.integers(2, 5))
    batch = int(rng.integers(1, 4))
    use_batch = bool(rng.integers(0, 2))
    x_shape = (batch, n) if use_batch else (n,)
    # constants of the loss ops, which take no gradient
    targets = np.eye(k)[rng.integers(0, k, size=x_shape[:-1])]
    anchor_rows = rng.uniform(-0.5, 0.5, size=x_shape[:-1] + (m,))

    def draw():
        return [
            rng.uniform(-1.2, 1.2, size=x_shape),   # x
            rng.uniform(-0.9, 0.9, size=(n, m)),    # W1
            rng.uniform(-0.5, 0.5, size=(m,)),      # b1
            rng.uniform(-0.9, 0.9, size=(m, k)),    # W2
            rng.uniform(-0.5, 0.5, size=(k,)),      # b2
            rng.uniform(0.1, 1.0, size=(k,)),       # mixing weights
            rng.uniform(-0.8, 0.8, size=(m,)),      # norm anchor
            rng.uniform(-0.9, 0.9, size=(k, m)),    # W3, from k back to width m
        ]

    def build(tensors, record=None):
        x, w1, b1, w2, b2, mix, anchor, w3 = tensors
        pre = ops.add(ops.matmul(x, w1), b1)
        h1 = ops.relu(pre)
        h2 = ops.tanh(pre)
        logits = ops.add(ops.matmul(h2, w2), b2)
        probs = ops.softmax(logits)
        picked = ops.tsum(ops.mul(ops.log(probs), mix), axis=-1)
        clipped = ops.maximum(ops.sub(h1, 0.3), 0.1)
        gap = ops.sub(h2, anchor)
        dist = ops.l2_norm(gap)
        gate = ops.tmean(ops.sigmoid(h1))
        unit = unfused_tanh_unit(ops.matmul(logits, w3))
        objectives = ops.add(unfused_hinge_sum([unit], 0.5),
                            unfused_entropy_hinge_sum([logits], 0.6 * math.log(k)))
        losses = ops.add(softmax_cross_entropy(logits, targets),
                        unfused_squared_error(h2, Tensor(anchor_rows)))
        means = unfused_mean_of_means([columns(probs, j, j + 1) for j in range(k)])
        mixed = ops.add(ops.add(ops.tmean(columns(h1, 1, m)), objectives), ops.add(losses, means))
        if record is not None:
            record.append(("kink", pre.data))
            record.append(("kink", h1.data - 0.3 - 0.1))
            record.append(("kink", 0.5 - unit.data))
            p = probs.data
            record.append(("kink", 0.6 * math.log(k) + (p * np.log(p)).sum(axis=-1)))
            record.append(("prob", probs.data))
            record.append(("norm", gap.data))
        return ops.add(
            ops.add(ops.add(ops.tmean(picked), dist), mixed),
            ops.add(ops.mul(ops.tsum(clipped), 0.3), gate),
        )

    def valid(arrays):
        record = []
        build([Tensor(a) for a in arrays], record)
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


# -- unfused forms of the array forms, the networks and the objectives ----
#
# Each builds from the primitive ops (matmul, add, mul, relu, sigmoid, tanh,
# softmax, log_softmax, tsum, tmean) the graph the library's array form (or
# one-node op) stands for, in the order the layers composed them before
# fusion. Where an array form reads column blocks of one array, its unfused
# form takes the blocks as separate tensors, as the layers produced them.


def unfused_affine(x, w, b):
    return ops.add(ops.matmul(x, w), b)


def unfused_residual_step(h, w1, b1, w2, b2, s=None):
    branch = unfused_affine(ops.relu(unfused_affine(h, w1, b1)), w2, b2)
    return ops.add(h, branch if s is None else ops.mul(s, branch))


def unfused_sigmoid_gate(x, w, b):
    return ops.sigmoid(ops.add(ops.mul(x, w), b))


def unfused_softmax_cross_entropy(logits, targets):
    picked = ops.tsum(ops.mul(ops.log_softmax(logits), targets), axis=-1)
    return ops.mul(ops.tmean(picked), -1.0)


def unfused_head_softmax_cross_entropy(logits, targets):
    """The cross-entropy of a (rows, heads, classes) Tensor: each head's
    unfused cross-entropy against its (rows, classes) targets, added left
    to right. A head is a node of its own over its slice of `logits`."""

    def head(k):
        def vjp(g):
            full = np.zeros(logits.shape)
            full[:, k] = g
            return full
        return Tensor(logits.data[:, k], ((logits, vjp),), "head")

    return _fold([unfused_softmax_cross_entropy(head(k), targets[:, k])
                  for k in range(logits.shape[1])])


def unfused_squared_error(pred, target):
    err = ops.sub(pred, target)
    return ops.tmean(ops.tsum(ops.mul(err, err), axis=-1))


def unfused_mean_of_means(tensors):
    total = ops.tmean(tensors[0])
    for t in tensors[1:]:
        total = ops.add(total, ops.tmean(t))
    return ops.mul(total, 1.0 / len(tensors))


def _fold(terms):
    total = terms[0]
    for t in terms[1:]:
        total = ops.add(total, t)
    return total


def unfused_hinge_sum(tensors, level):
    """sum over `tensors`, left to right, of tsum(relu(level - t))."""
    return _fold([ops.tsum(ops.relu(ops.sub(level, t))) for t in tensors])


def unfused_entropy(logits):
    """Shannon entropy of softmax(logits) rows."""
    plogp = ops.tsum(ops.mul(ops.softmax(logits), ops.log_softmax(logits)), axis=-1)
    return ops.mul(plogp, -1.0)


def unfused_entropy_hinge_sum(tensors, level):
    """The hinge sum of the entropies of each logits tensor in `tensors`."""
    return unfused_hinge_sum([unfused_entropy(t) for t in tensors], level)


def unfused_tanh_unit(w):
    return ops.mul(ops.add(ops.tanh(w), 1.0), 0.5)


def unfused_skip_forward(net, x):
    """A GatedSkipNet's soft forward, unfused: (logits, gate values)."""
    pooled = ops.matmul(x, Tensor(np.full((net.input_dim, 1), 1.0 / net.input_dim)))
    h = ops.relu(unfused_affine(x, *net.stem_.params))
    gates = []
    for block, gw, gb in zip(net.blocks_, net.gate_weights_, net.gate_biases_):
        gates.append(unfused_sigmoid_gate(pooled, gw, gb))
        h = unfused_residual_step(h, *block.params, gates[-1])
    return unfused_affine(h, *net.head_.params), gates


def unfused_exit_forward(net, x):
    """An EarlyExitNet's forward, unfused: every exit's logits."""
    h = ops.relu(unfused_affine(x, *net.stem_.params))
    logits = []
    for seg, head in zip(net.segments_, net.exit_heads_):
        h = unfused_residual_step(h, *seg.params)
        logits.append(unfused_affine(h, *head.params))
    return logits


def _unfused_trunk(stem, blocks, x):
    h = ops.relu(unfused_affine(x, *stem.params))
    for block in blocks:
        h = unfused_residual_step(h, *block.params)
    return h


def unfused_estimator_forward(est, x):
    """An EnergyEstimator's normalized prediction, unfused."""
    return unfused_affine(_unfused_trunk(est.stem_, est.blocks_, x), *est.head_.params)


def _unfused_labels_loss(logits, y, num_classes):
    return unfused_softmax_cross_entropy(logits, np.eye(num_classes)[np.asarray(y)])


def unfused_skip_loss(net, X, y):
    """A GatedSkipNet's soft-mode training loss on one batch, unfused."""
    logits, gates = unfused_skip_forward(net, Tensor(X))
    loss = _unfused_labels_loss(logits, y, net.num_classes)
    if net.sparsity_weight:
        loss = ops.add(loss, ops.mul(unfused_mean_of_means(gates), net.sparsity_weight))
    return loss


def unfused_exit_loss(net, X, y):
    """An EarlyExitNet's training loss on one batch: every exit's
    cross-entropy, summed left to right, unfused."""
    return _fold([_unfused_labels_loss(logits, y, net.num_classes)
                  for logits in unfused_exit_forward(net, Tensor(X))])


def unfused_estimator_loss(est, X, targets):
    """An EnergyEstimator's training loss on one batch of normalized targets."""
    pred = unfused_estimator_forward(est, Tensor(X))
    return unfused_squared_error(pred, Tensor(np.reshape(targets, (-1, 1))))


def unfused_filter_loss(filt, X, y):
    """A FilterModel's training loss on one batch, unfused."""
    logits = unfused_affine(_unfused_trunk(filt.stem_, filt.blocks_, Tensor(X)),
                            *filt.head_.params)
    return _unfused_labels_loss(logits, y, filt.num_classes)


def unfused_ilfo_loss(model, w, x, target, level, c):
    """ILFO's loss on modifier `w` and seed Tensor `x`, unfused: squared
    distance plus c times the gate hinges, or the hinges of every early
    exit's entropy (`level` then includes the margin)."""
    f = unfused_tanh_unit(w)
    d = ops.sub(f, x)
    if target == "gate":
        terms = unfused_skip_forward(model, f)[1]
        inter = unfused_hinge_sum(terms, level)
    else:
        inter = unfused_entropy_hinge_sum(unfused_exit_forward(model, f)[:-1], level)
    return ops.add(ops.tsum(ops.mul(d, d)), ops.mul(inter, c))


def unfused_estimator_prediction(est, f):
    """An estimator's joule prediction on Tensor `f`, unfused: a stub's own
    graph (its `graph_prediction`), or an EnergyEstimator's network."""
    if hasattr(est, "graph_prediction"):
        return est.graph_prediction(f)
    return ops.add(ops.mul(unfused_estimator_forward(est, f), Tensor(est.energy_scale_)),
                  Tensor(est.energy_mean_))


def unfused_input_based_loss(est, w, x, c):
    """The input-based attack's loss on modifier `w` and seed `x`, unfused."""
    f = unfused_tanh_unit(w)
    pred = unfused_estimator_prediction(est, f)
    return ops.sub(ops.l2_norm(ops.sub(f, Tensor(x))), ops.mul(ops.tsum(pred), c))


def unfused_universal_loss(est, w):
    """The universal attack's loss on modifier `w`, unfused."""
    return ops.sub(0.0, ops.tsum(unfused_estimator_prediction(est, unfused_tanh_unit(w))))


def unfused_ilfo_attack_loss(attack, w, x):
    """ILFO's loss for `attack` on modifier `w` and seed `x`, unfused, with
    the attack's own level (the threshold, plus the margin for an exit
    target) and c."""
    cfg = attack.config
    level = attack._threshold() + (cfg.margin if cfg.target == "exit" else 0.0)
    return unfused_ilfo_loss(attack.model, w, x, cfg.target, level, cfg.c)


def unfused_uniform_cross_entropy(logits):
    """Cross-entropy of softmax(logits) rows against the uniform distribution,
    -mean log_softmax(logits) over every entry: the gradient feature's loss."""
    return ops.mul(ops.tmean(ops.log_softmax(logits)), -1.0)


# -- sequential forms of the batched attack and defense loops -------------
#
# These keep the one-input-at-a-time loops the library used to run. They
# call per-input pieces (the unfused losses above, the library's Adam,
# inference and features), so they check the batching and bookkeeping
# around those pieces, not the pieces themselves, which have their own
# oracles.


def input_based_graph_reference(attack, x):
    """The input-based attack with one unfused graph per iterate, which
    scores the iterate and then steps it through `step_loss`. Returns
    (input, history, best_loss, final_loss)."""
    from adnn_energy_lab.optim import Adam
    from adnn_energy_lab.seeding import derive_rng

    cfg, est = attack.config, attack.estimator
    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    rng = derive_rng(cfg.seed, "testgen", "input_based", array_fingerprint(x))
    w = Tensor(rng.normal(0.0, 0.1, size=x.shape))
    opt = Adam([w], lr=cfg.lr)
    history, best = [], (np.inf, w.data.copy())
    loss = unfused_input_based_loss(est, w, x, cfg.c)
    for _ in range(cfg.iterations):
        if loss.data < best[0]:
            best = (float(loss.data), w.data.copy())
        history.append(step_loss(opt, loss))
        loss = unfused_input_based_loss(est, w, x, cfg.c)
    final = float(loss.data)
    if final < best[0]:
        best = (final, w.data.copy())
    chosen = best[1] if cfg.track_best else w.data
    return (unfused_tanh_unit(Tensor(chosen)).data.reshape(-1), history,
            best[0] if cfg.iterations else final, final)


def universal_graph_reference(attack):
    """The universal attack with one unfused graph per iterate over all
    restarts' rows, stepped by `step_loss`, and each final row scored on its
    own. Returns (inputs, losses, best restart)."""
    from adnn_energy_lab.optim import Adam
    from adnn_energy_lab.seeding import derive_rng

    cfg, est = attack.config, attack.estimator
    w = Tensor(np.concatenate([
        derive_rng(cfg.seed, "testgen", "universal", str(r)).normal(
            0.0, 0.1, size=(1, est.input_dim)) for r in range(cfg.restarts)]))
    opt = Adam([w], lr=cfg.lr)
    for _ in range(cfg.iterations):
        step_loss(opt, unfused_universal_loss(est, w))
    losses = [float(unfused_universal_loss(est, Tensor(row[None])).data) for row in w.data]
    return list(unfused_tanh_unit(Tensor(w.data)).data), losses, int(np.argmin(losses))


def ilfo_graph_reference(attack, x):
    """ILFO with one unfused graph per iterate: it scores the iterate, and
    `step_loss` on the same graph steps it. Returns (input, min_losses)."""
    from adnn_energy_lab.optim import Adam

    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    w = Tensor(np.arctanh(2.0 * np.clip(x, 1e-6, 1.0 - 1e-6) - 1.0))
    opt = Adam([w], lr=attack.config.lr)
    loss = unfused_ilfo_attack_loss(attack, w, x)
    best_loss, best_w = float(loss.data), w.data.copy()
    min_losses = [best_loss]
    for _ in range(attack.config.iterations):
        step_loss(opt, loss)
        loss = unfused_ilfo_attack_loss(attack, w, x)
        if float(loss.data) < best_loss:
            best_loss, best_w = float(loss.data), w.data.copy()
        min_losses.append(best_loss)
    return unfused_tanh_unit(Tensor(best_w)).data.reshape(-1), min_losses


def ilfo_two_forward_reference(attack, x):
    """ILFO with two soft forwards per step: one unfused graph for the
    update, a fresh one to score the new iterate. Returns (input,
    min_losses)."""
    from adnn_energy_lab.optim import Adam

    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    xt = Tensor(x)
    w = Tensor(np.arctanh(2.0 * np.clip(x, 1e-6, 1.0 - 1e-6) - 1.0))
    opt = Adam([w], lr=attack.config.lr)
    best_loss = float(unfused_ilfo_attack_loss(attack, w, xt).data)
    best_w = w.data.copy()
    min_losses = [best_loss]
    for _ in range(attack.config.iterations):
        step_loss(opt, unfused_ilfo_attack_loss(attack, w, xt))
        current = float(unfused_ilfo_attack_loss(attack, w, xt).data)
        if current < best_loss:
            best_loss = current
            best_w = w.data.copy()
        min_losses.append(best_loss)
    return unfused_tanh_unit(Tensor(best_w)).data.reshape(-1), min_losses


def universal_per_restart_reference(estimator, config):
    """Each universal restart as its own one-row Adam run, on unfused graphs.

    Returns (restart inputs, restart final losses).
    """
    from adnn_energy_lab.optim import Adam
    from adnn_energy_lab.seeding import derive_rng

    inputs, losses = [], []
    for r in range(config.restarts):
        rng = derive_rng(config.seed, "testgen", "universal", str(r))
        w = Tensor(rng.normal(0.0, 0.1, size=(1, estimator.input_dim)))
        opt = Adam([w], lr=config.lr)
        for _ in range(config.iterations):
            step_loss(opt, unfused_universal_loss(estimator, w))
        losses.append(float(unfused_universal_loss(estimator, w).data))
        inputs.append(unfused_tanh_unit(Tensor(w.data)).data.reshape(-1))
    return inputs, losses


# -- each attack's own descent loop ----------------------------------------
#
# Each attack's generate once wrote out its own Adam loop and best-iterate
# bookkeeping. These keep those loops on the library's scorers, so they
# check the one shared loop and what each attack reads from it, not the
# scorers, which the graph references above check. A scorer gives one
# loss per row of the modifier, and these loops run one row. Each returns
# (test, the attributes generate records, by name).


def input_based_loop_reference(attack, x):
    """The input-based loop: keep the iterate if its loss is the lowest yet,
    step it, record its loss, score the next; then the final iterate."""
    from adnn_energy_lab.attacks import _input_based_scorer
    from adnn_energy_lab.optim import Adam
    from adnn_energy_lab.seeding import derive_rng

    cfg = attack.config
    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    rng = derive_rng(cfg.seed, "testgen", "input_based", array_fingerprint(x))
    w = Tensor(rng.normal(0.0, 0.1, size=x.shape))
    opt = Adam([w], lr=cfg.lr)
    score = _input_based_scorer(attack.estimator, x, cfg.c)
    history = []
    best = (np.inf, w.data.copy())
    (loss,), grad = score(w.data)
    for _ in range(cfg.iterations):
        if loss < best[0]:
            best = (float(loss), w.data.copy())
        opt.step([grad()])
        history.append(float(loss))
        (loss,), grad = score(w.data)
    final = float(loss)
    if final < best[0]:
        best = (final, w.data.copy())
    chosen = best[1] if cfg.track_best else w.data
    return tanh_unit_terms(chosen)[0].reshape(-1), {
        "history_": history, "final_loss_": final,
        "best_loss_": best[0] if cfg.iterations else final}


def universal_loop_reference(attack):
    """The universal loop: step all restarts' rows from each iterate's
    batch gradient, with no final batch score, then score each final row on
    its own and keep the lowest."""
    from adnn_energy_lab.attacks import _scorer, _universal_terms
    from adnn_energy_lab.optim import Adam
    from adnn_energy_lab.seeding import derive_rng

    cfg, est = attack.config, attack.estimator
    w = Tensor(np.concatenate([
        derive_rng(cfg.seed, "testgen", "universal", str(r)).normal(
            0.0, 0.1, size=(1, est.input_dim)) for r in range(cfg.restarts)]))
    opt = Adam([w], lr=cfg.lr)
    score = _scorer(est.predict_terms, _universal_terms, "universal_loss")
    for _ in range(cfg.iterations):
        opt.step([score(w.data)[1]()])
    losses = [float(score(row[None])[0]) for row in w.data]
    inputs = list(tanh_unit_terms(w.data)[0])
    best = int(np.argmin(losses))
    return inputs[best].copy(), {"restart_losses_": losses, "restart_inputs_": inputs,
                                 "best_restart_": best, "best_loss_": losses[best]}


def ilfo_loop_reference(attack, x):
    """The ILFO loop: score the start at arctanh of the seed, then step,
    score and keep each iterate whose loss is the lowest yet."""
    from adnn_energy_lab.optim import Adam

    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    w = Tensor(np.arctanh(2.0 * np.clip(x, 1e-6, 1.0 - 1e-6) - 1.0))
    opt = Adam([w], lr=attack.config.lr)
    score = attack._score(x)
    (loss,), grad = score(w.data)
    best_loss = float(loss)
    best_w = w.data.copy()
    min_losses = [best_loss]
    for _ in range(attack.config.iterations):
        opt.step([grad()])
        (loss,), grad = score(w.data)
        current = float(loss)
        if current < best_loss:
            best_loss = current
            best_w = w.data.copy()
        min_losses.append(best_loss)
    return tanh_unit_terms(best_w)[0].reshape(-1), {"min_losses_": min_losses,
                                                   "best_loss_": best_loss}


def surrogate_records_reference(target, surrogate, inputs, config, num_attack):
    """Surrogate study with four one-row replays per attacked input.

    Fits `surrogate` on the target's labels, like the library does, and
    attacks the chosen inputs with one `IlfoAttack.generate_many`, whose
    rows the attack tests compare with one-row `generate`.
    Returns (test inputs, transfer records, excluded count).
    """
    from adnn_energy_lab.attacks import IlfoAttack
    from adnn_energy_lab.metrics import TransferRecord, inc_rf

    labels = np.array([target.infer(x).label for x in inputs])
    surrogate.fit(inputs, labels)
    chosen = inputs[:num_attack]
    tests, records, excluded = list(IlfoAttack(surrogate, config).generate_many(chosen)), [], 0
    for x, f in zip(chosen, tests):
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


def pegasos_objective_reference(weights, bias, features, labels, lam):
    """lam / 2 * (|w|^2 + b^2) + the mean over rows of max(0, 1 - y (w . x + b)),
    with y = +1 for label 1 and -1 for label 0 (the bias is regularized too)."""
    hinge = 0.0
    for x, label in zip(features, labels):
        y = 1.0 if label == 1 else -1.0
        hinge += max(0.0, 1.0 - y * (float(np.dot(weights, x)) + bias))
    return 0.5 * lam * (float(np.dot(weights, weights)) + bias * bias) + hinge / len(features)


def svm_subgradient_reference(features, labels, lam, steps=5000):
    """A minimizer of the Pegasos objective by full-batch projected
    subgradient descent: step 1 / (lam t), projection onto the 1/sqrt(lam)
    ball (which holds the minimizer), and the average of the second half of
    the iterates. Returns (weights, bias)."""
    features = np.asarray(features, dtype=np.float64)
    y = np.array([1.0 if label == 1 else -1.0 for label in labels])
    aug = np.hstack([features, np.ones((len(features), 1))])
    u = np.zeros(aug.shape[1])
    total = np.zeros_like(u)
    radius = 1.0 / math.sqrt(lam)
    for t in range(1, steps + 1):
        violated = y * (aug @ u) < 1.0
        subgradient = lam * u - (y[violated, None] * aug[violated]).sum(axis=0) / len(aug)
        u = u - subgradient / (lam * t)
        norm = math.sqrt(float(u @ u))
        if norm > radius:
            u = u * (radius / norm)
        if t > steps // 2:
            total += u
    u = total / (steps - steps // 2)
    return u[:-1], float(u[-1])


def pegasos_primal_reference(features, labels, lam=1e-4, epochs=200, seed=0):
    """`train_svm`'s Pegasos iterates as the primal loop runs them: one
    (d + 1)-vector iterate, its shrink, step, projection and running sum at
    every step, and each epoch's objective scored on the features. Takes
    inputs `train_svm` accepts and returns the same `LinearSvm`."""
    from adnn_energy_lab.defense import LinearSvm
    from adnn_energy_lab.seeding import derive_rng

    def objective(w, b, features, y, lam):
        margins = y * (features @ w + b)
        hinge = float(np.mean(np.maximum(0.0, 1.0 - margins)))
        return 0.5 * lam * (float(w @ w) + b * b) + hinge

    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels).reshape(-1)
    y = np.where(labels == 1, 1.0, -1.0)
    n, d = features.shape
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
        history.append(objective(w_bar[:d], float(w_bar[d]), features, y, lam))
    w_bar = w_sum / t
    svm = LinearSvm(weights=w_bar[:d].copy(), bias=float(w_bar[d]), lam=lam)
    svm.objective_history_ = history
    return svm


def pearson_loop_reference(xs, ys, n_perm=10000, seed=0):
    """`metrics.pearson` scoring one permutation at a time: r as
    `_pearson_r` takes it, then every permutation (n <= 7) or `n_perm`
    seeded in-place shuffles of ys, each scored on its own."""
    from adnn_energy_lab.seeding import derive_rng

    def pearson_r(xs, ys):
        sx, sy = xs.std(), ys.std()
        if sx == 0 or sy == 0:
            raise ValueError("pearson undefined for zero-variance input")
        return float(((xs - xs.mean()) * (ys - ys.mean())).mean() / (sx * sy))

    xs = np.asarray(xs, dtype=np.float64).reshape(-1)
    ys = np.asarray(ys, dtype=np.float64).reshape(-1)
    r = pearson_r(xs, ys)
    threshold = abs(r) - 1e-12
    if len(xs) <= 7:
        hits = 0
        total = 0
        for perm in itertools.permutations(ys):
            total += 1
            if abs(pearson_r(xs, np.array(perm))) >= threshold:
                hits += 1
        p = hits / total
    else:
        rng = derive_rng(seed, "pearson")
        hits = 0
        shuffled = ys.copy()
        for _ in range(n_perm):
            rng.shuffle(shuffled)
            if abs(pearson_r(xs, shuffled)) >= threshold:
                hits += 1
        p = (hits + 1) / (n_perm + 1)
    return r, p
