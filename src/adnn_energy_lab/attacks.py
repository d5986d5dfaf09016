"""Energy-surging test-input generation.

Two black-box modes drive a trained energy estimator: input-based keeps
the crafted input near a seed image while pushing predicted energy up;
universal ignores the seed and chases predicted energy alone across
random restarts. The white-box path optimizes the target's own
intermediate quantities (gate values or exit entropies) through its soft
forward pass. All modes craft inputs through a tanh reparameterization so
pixels stay inside [0, 1] by construction.

An iterate builds no graph. It computes its loss on plain arrays and, when
it steps, the modifier gradient with one forward and one reverse walk: the
reparameterization (`tanh_unit_terms`), the network or the estimator, and
the objective each give a value and its vector-Jacobian product, composed
by `_scorer`. The black-box modes reach the estimator only through
`predict_terms` and `input_dim`, and the white-box mode reaches the model
only through `forward_terms(x, heads)` and its sizes and thresholds. The
white-box forward keeps only the outputs its hinge reads, and so runs only
the layers they need: the gate hinge asks for no head (the gate values
alone: no stem, block or head runs), the exit hinge for every early exit
(the last segment and exit do not run).

Each objective has this one form. The tests check a loop's values and
gradients, byte for byte, against one unfused graph per iterate built from
the engine's primitive ops, stepped by a hand-written loop per attack that
`tests/oracles.py` keeps. `input_based_loss` wraps the input-based scorer
as one graph node over the modifier, for the benchmark's traced probe, so
the probe times the same path as the loop.

Every attack runs one descent loop, `_descend`, and supplies only its
start, its scorer and how it reads the scored losses. The input-based and
ILFO objectives give one loss per row of the modifier, and a step is the
gradient of their sum; Adam works per coordinate, so the rows stay
independent. So `generate_many(X)` runs k seeds as the rows of one (k, d)
modifier under one Adam, and `generate(x)` is that descent on one row.
Row r agrees with `generate(X[r])` within 1e-12, as a batch's matrix
products may round otherwise than one row's, and picks the same iterate;
on one row the two agree byte for byte. A seed passes one boundary,
`_one_input` for `generate` and `_seed_rows` for `generate_many`, before
any draw, forward or step.
"""

import inspect
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .autodiff import (_ONE, ShapeError, Tensor, _checked, entropy_hinge_terms, hinge_terms,
                       tanh_unit_terms)
from .optim import Adam
from .seeding import array_fingerprints, derive_rng
from .validation import (COUNT, FLAG, INT, NONNEGATIVE, POSITIVE, REAL_OR_NONE, SIZE,
                         as_float_array, check_params, check_unit_range)

def _offset(f, x, op):
    """Array `f` minus the float64 seed array `x`; a ShapeError naming `op`
    where `x` does not take the shape of `f`. It checks no value: a
    non-finite entry of `x` or of the difference reaches the objective's
    score, which `_scorer` checks under `op`."""
    try:
        d = f - x
        if d.shape == f.shape:
            return d
    except ValueError:   # the shapes do not broadcast
        pass
    raise ShapeError("%s got an input of shape %s and a seed of shape %s"
                     % (op, f.shape, x.shape))


def _one_input(x, width):
    """The seed `x`, one input (a vector or a single row) of `width` values
    in [0, 1], as one row."""
    x = as_float_array(x, "x")
    if x.ndim not in (1, 2) or (x.ndim == 2 and len(x) != 1):
        raise ValueError("x must be one input, a vector or a single row, got shape %s"
                         % (x.shape,))
    if x.shape[-1] != width:
        raise ShapeError("x has %d features, expected %d" % (x.shape[-1], width))
    return check_unit_range(x, "x").reshape(1, -1)


def _seed_rows(X, width):
    """The seeds `X`, a matrix of one or more rows of `width` values in
    [0, 1]."""
    X = as_float_array(X, "X")
    if X.ndim != 2 or len(X) == 0:
        raise ValueError("X must be a matrix of one or more seeds, one per row, got shape %s"
                         % (X.shape,))
    if X.shape[1] != width:
        raise ShapeError("X has %d features, expected %d" % (X.shape[1], width))
    return check_unit_range(X, "X")


def _filled(shape, value):
    """A new array of `shape` with every entry `value`."""
    out = np.empty(shape)
    out.fill(value)
    return out


def _input_based_terms(f, x, pred, c):
    """l2_norm(f - x) - tsum(pred) * c for each row of the modifier's image
    `f` and of the seeds `x`, on arrays: (the rows' values, product of their
    sum toward f, product toward pred). `pred` holds each row's own
    energies, as an estimator's `predict_terms` must give them: a whole
    number of entries per row of `f`."""
    if np.size(pred) % len(f):
        raise ShapeError("input_based_loss needs each row's own energies from the estimator's "
                         "predict_terms, got %d for %d rows" % (np.size(pred), len(f)))
    d = _offset(f, x, "input_based_loss")
    norm = np.sqrt(np.add.reduce(d * d, axis=1, keepdims=True))
    scaled = np.add.reduce(pred.reshape(len(f), -1), axis=1) * c

    def grad_f(g):
        if np.count_nonzero(norm) == len(norm):
            return g / norm * d
        # the Euclidean norm's subgradient at the origin is 0
        return np.divide(g, norm, out=np.zeros(norm.shape), where=norm > 0.0) * d

    return norm[:, 0] - scaled, grad_f, lambda g: _filled(pred.shape, (-g) * c)


def _input_based_scorer(estimator, x, c):
    """The input-based iterate for the seed rows `x` (see `_scorer`)."""
    x = np.asarray(x, dtype=np.float64)
    return _scorer(estimator.predict_terms, lambda f, pred: _input_based_terms(f, x, pred, c),
                   "input_based_loss")


def input_based_loss(w, x, c, estimator):
    """Distance-to-seed minus c times predicted energy, as one scalar node
    over the modifier Tensor `w`: the sum over rows of l2_norm(f - x) -
    tsum(pred) * c, where f is (tanh(w) + 1) / 2 and pred the estimator's
    joules on f. On one row its value and vector-Jacobian product are the
    input-based loop's own."""
    value, grad = _input_based_scorer(estimator, x, c)(w.data)
    return Tensor(np.add.reduce(value), ((w, grad),), "input_based_loss")


def _universal_terms(f, pred):
    """Negated predicted energy, 0.0 - tsum(pred), on arrays: (value, None,
    as no term reaches f, product toward pred)."""
    return 0.0 - np.add.reduce(pred, axis=None), None, lambda g: _filled(pred.shape, -g)


def _ilfo_terms(f, x, out, hinge, c):
    """tsum(d * d) + hinge * c with d = f - x, for each row, on arrays: (the
    rows' values, product of their sum toward f, product toward out).
    `hinge` is (the rows' values, vector-Jacobian product) of the
    intermediate hinge on the model's soft forward `out`."""
    d = _offset(f, x, "ilfo_loss")
    distance = np.add.reduce(d * d, axis=1)
    hinge_value, hinge_grad = hinge

    def grad_f(g):
        half = g * d
        return half + half

    return distance + hinge_value * c, grad_f, lambda g: hinge_grad(g * c)


def _scorer(forward, objective, op):
    """One iterate's loss and modifier gradient, with no graph.

    Returns score(w): f = (tanh(w) + 1) / 2 feeds `forward`, a function
    giving the model's output and its product toward f, and
    `objective(f, out)`, which gives (value, product toward f or None,
    product toward out). score(w) is (value, grad): the value is one loss
    per row of w, or one for all rows (the universal attack's), and grad(g)
    is the gradient of their sum toward w for the scalar incoming gradient
    g, 1.0 unless given. It adds the objective's term toward f and then the
    model's, and checks the objective's value under `op` and its products
    under op + ".grad". The value's check is the objective's only one:
    each of its terms (the seed's offset, `c`, the energy or the hinge)
    enters it by +, - or *, which carry NaN and infinities through, so a
    term that is not finite leaves the value not finite.
    """
    grad_op = op + ".grad"

    def score(w):
        f, f_vjp = tanh_unit_terms(w)
        out, out_vjp = forward(f)
        value, grad_f, grad_out = objective(f, out)

        def grad(g=_ONE):
            near = None if grad_f is None else _checked(grad_f(g), grad_op)
            far = out_vjp(_checked(grad_out(g), grad_op))
            return f_vjp(far if near is None else near + far)

        return _checked(value, op), grad

    return score


# the scored iterates `_descend` holds before it keeps each row's lowest
_HELD = 32


def _descend(w, score, lr, iterations, final=True):
    """Adam on the modifier rows `w`: `iterations` steps, each the gradient
    of the rows' summed losses from the pass that scores the iterate
    (`score` as `_scorer` gives it), and the final iterate scored unless
    `final` is False. Adam works per coordinate, so each row descends as it
    would alone. Returns the final rows, the losses of every scored iterate
    as an (iterations + 1, rows) array, and each row's first lowest-loss
    iterate. Without the final score, when a lowest over the others would
    pass over it, the losses and the lowest are None, and a score may give
    one loss for all rows.

    Each scored iterate is copied whole, and every `_HELD` copies (and at
    the end) each row keeps its first lowest of them: a copy per iterate
    costs less than a per-row comparison and masked copy, and the held
    copies stay bounded.
    """
    w = Tensor(w)
    opt = Adam([w], lr=lr)
    losses, held = [], []
    best, lowest = np.empty(w.data.shape), _filled(len(w.data), math.inf)
    for step in range(iterations + final):
        loss, grad = score(w.data)
        if final:
            losses.append(loss)
            held.append(w.data.copy())
            if len(held) == _HELD or step == iterations:
                _keep_lowest(best, lowest, losses[-len(held):], held)
                held = []
        if step < iterations:
            opt.step([grad()])
    if not final:
        return w.data, None, None
    return w.data, np.array(losses), best


def _keep_lowest(best, lowest, losses, iterates):
    """Set row r of `best` to row r of its first lowest-loss iterate among
    `iterates`, scored `losses` (one array of row losses each), where that
    loss is below `lowest[r]`, which then takes it."""
    losses = np.array(losses)
    for r, t in enumerate(np.argmin(losses, axis=0).tolist()):
        if losses[t, r] < lowest[r]:
            lowest[r], best[r] = losses[t, r], iterates[t][r]


@dataclass(frozen=True)
class TestGenConfig:
    mode: str = "input_based"
    c: float = 100.0
    lr: float = 0.01
    iterations: int = 500
    restarts: int = 30
    track_best: bool = False
    seed: int = 0

    # derive_rng masks any integer seed to 64 bits; a float would be truncated
    PARAMS = {"c": POSITIVE, "lr": POSITIVE, "iterations": COUNT, "restarts": SIZE,
              "track_best": FLAG, "seed": INT}
    # a settings class, though its name is one pytest collects tests from
    __test__ = False

    def __post_init__(self):
        if self.mode not in ("input_based", "universal"):
            raise ValueError("mode must be 'input_based' or 'universal'")
        check_params(self.PARAMS, vars(self))
        if self.track_best and self.mode == "universal":
            raise ValueError("track_best applies to mode 'input_based' only: the universal "
                             "attack returns the final iterate of its best restart")


def _config_of(mode, config):
    """`config`, or the default `TestGenConfig` of `mode`; a ValueError
    naming `mode` where `config` is set up for the other attack."""
    config = config or TestGenConfig(mode=mode)
    if config.mode != mode:
        raise ValueError("mode must be %r for this attack, got %r" % (mode, config.mode))
    return config


class _SeededAttack:
    """An attack that crafts one test per seed input.

    `generate_many(X)` runs the k seed rows of `X` as the rows of one
    (k, d) modifier under one Adam, returns the (k, d) tests, and
    records each attribute as a list by row. `generate(x)` is the same
    descent on one row: it returns that row's test and records each
    attribute's one entry. A subclass gives the seeds' width (`_width`) and
    the descent (`_attack`), which returns the tests and the attributes by
    name, each a list by row.
    """

    def generate(self, x):
        """The test crafted from the one seed `x`, a vector or a single row."""
        tests, record = self._attack(_one_input(x, self._width()))
        for name, rows in record.items():
            setattr(self, name, rows[0])
        return tests[0]

    def generate_many(self, X):
        """The (k, d) tests crafted from the k seed rows of the matrix `X`."""
        tests, record = self._attack(_seed_rows(X, self._width()))
        for name, rows in record.items():
            setattr(self, name, rows)
        return tests


class InputBasedAttack(_SeededAttack):
    """Craft a near-seed input that raises the estimator's predicted energy.

    Black-box: consumes only the estimator. Runs exactly `iterations` Adam
    steps and returns the final iterate (set track_best to return the
    lowest-loss iterate instead). Each seed row starts from its own stream,
    `derive_rng(seed, "testgen", "input_based", fingerprint of the row)`,
    and records its `history_`, `final_loss_` and `best_loss_`.
    """

    def __init__(self, estimator, config=None):
        self.estimator = estimator
        self.config = _config_of("input_based", config)

    def _width(self):
        return self.estimator.input_dim

    def _attack(self, X):
        cfg = self.config
        start = np.concatenate([
            derive_rng(cfg.seed, "testgen", "input_based", int(key)).normal(
                0.0, 0.1, size=(1, X.shape[1])) for key in array_fingerprints(X)])
        w, losses, best = _descend(start, _input_based_scorer(self.estimator, X, cfg.c),
                                   cfg.lr, cfg.iterations)
        rows = losses.T.tolist()
        return tanh_unit_terms(best if cfg.track_best else w)[0], {
            "history_": [row[:-1] for row in rows], "final_loss_": [row[-1] for row in rows],
            "best_loss_": [min(row) for row in rows]}


class UniversalAttack:
    """Chase predicted energy from many random starts; keep the best run.

    All restarts run as the rows of one (restarts, d) modifier under one
    Adam, so the estimator's `predict_terms` must treat batch rows
    independently. Restart r keeps its own seeded start and its final loss
    is scored on its row alone: its input and loss agree with a one-row run
    within 1e-12, and the chosen restart is the same.
    The restart whose final loss is lowest wins; per-restart losses and
    final inputs are kept on the instance for inspection.
    """

    def __init__(self, estimator, config=None):
        self.estimator = estimator
        self.config = _config_of("universal", config)

    def generate(self):
        cfg = self.config
        dim = self.estimator.input_dim
        score = _scorer(self.estimator.predict_terms, _universal_terms, "universal_loss")
        w = _descend(np.concatenate([
            derive_rng(cfg.seed, "testgen", "universal", str(r)).normal(0.0, 0.1, size=(1, dim))
            for r in range(cfg.restarts)]), score, cfg.lr, cfg.iterations, final=False)[0]
        self.restart_losses_ = [float(score(row[None])[0]) for row in w]
        self.restart_inputs_ = list(tanh_unit_terms(w)[0])
        self.best_restart_ = int(np.argmin(self.restart_losses_))
        self.best_loss_ = self.restart_losses_[self.best_restart_]
        return self.restart_inputs_[self.best_restart_].copy()


# -- white-box intermediate-target attack --------------------------------


@dataclass(frozen=True)
class IlfoConfig:
    target: str = "gate"
    threshold: float = None
    margin: float = 0.05
    c: float = 100.0
    lr: float = 0.01
    iterations: int = 500

    PARAMS = {"threshold": REAL_OR_NONE, "margin": NONNEGATIVE, "c": POSITIVE, "lr": POSITIVE,
              "iterations": COUNT}

    def __post_init__(self):
        if self.target not in ("gate", "exit"):
            raise ValueError("target must be 'gate' or 'exit'")
        check_params(self.PARAMS, vars(self))


class IlfoAttack(_SeededAttack):
    """White-box attack on the model's own intermediate outputs.

    Minimizes squared distance to the seed plus c times the hinge loss of
    the chosen intermediate target, differentiating through the soft
    forward pass. The modifier starts at zero perturbation (arctanh of the
    seed) and the minimum-loss iterate is returned; each seed row records
    its running minimum `min_losses_` and its `best_loss_`. Each iterate
    costs one soft forward: the pass that scores it also gives the next
    step. The model's `forward_terms(x, heads)` gives that forward on an
    array, the kept heads' logits first and gate values last, with its
    product toward the input. It keeps no head for a gate target and every
    early exit for an exit target, so the layers that would feed only
    unread outputs do not run; their values are neither computed nor
    checked.
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

    def _width(self):
        return self.model.input_dim

    def _score(self, x):
        """The iterate for the seed rows `x` (see `_scorer`): tsum(d * d) +
        hinge * c per row, d = f - x. A row's hinge is the summed hinge of
        every gate, over a soft forward that keeps no head, or of every early
        exit's entropy, over one that keeps those exits (all but the last)."""
        cfg, model = self.config, self.model
        x, level = np.asarray(x, dtype=np.float64), self._threshold()
        if cfg.target == "gate":
            heads, count = 0, model.num_blocks

            def hinge(out):
                return hinge_terms(out, level, 0, count)
        else:
            level, width = level + cfg.margin, model.num_classes
            heads = count = model.num_segments - 1

            def hinge(out):
                return entropy_hinge_terms(out, level, width, count)

        forward = model.forward_terms
        return _scorer(lambda f: forward(f, heads),
                       lambda f, out: _ilfo_terms(f, x, out, hinge(out), cfg.c), "ilfo_loss")

    def _attack(self, X):
        # the start is the seed itself, w = arctanh(2x - 1), with x kept off
        # 0 and 1, where arctanh is infinite
        start = np.arctanh(2.0 * np.clip(X, 1e-6, 1.0 - 1e-6) - 1.0)
        _, losses, best = _descend(start, self._score(X), self.config.lr, self.config.iterations)
        min_losses = [list(itertools.accumulate(row, min)) for row in losses.T.tolist()]
        return tanh_unit_terms(best)[0], {"min_losses_": min_losses,
                                          "best_loss_": [row[-1] for row in min_losses]}


def _check_ilfo_target(model, config):
    """Reject a model that lacks what IlfoAttack calls for `config.target`.

    Either target needs `forward_terms(x, heads)`, the soft forward that
    keeps only the heads the objective reads, the `input_dim` a seed is
    checked against, and the model's threshold unless the config sets one.
    A gate target reads `num_blocks` gate values; an exit target reads
    `num_classes` logits per exit and needs at least two exits
    (`num_segments`), since the last one carries no constraint.
    """
    name = type(model).__name__
    forward = getattr(model, "forward_terms", None)
    if not callable(forward) or "heads" not in inspect.signature(forward).parameters:
        raise ValueError("IlfoAttack needs forward_terms(x, heads), to run only the layers its "
                         "objective reads, which %s lacks" % name)
    if config.target == "gate":
        size, threshold = "num_blocks", "gate_threshold"
    else:
        exits = getattr(model, "num_segments", 0)
        if exits < 2:
            raise ValueError("target 'exit' needs at least 2 exits, %s has %d" % (name, exits))
        size, threshold = "num_classes", "entropy_threshold"
    for attr in ("input_dim", size):
        if not hasattr(model, attr):
            raise ValueError("target %r needs %s, which %s lacks" % (config.target, attr, name))
    if config.threshold is None and not hasattr(model, threshold):
        raise ValueError("target %r needs a threshold: %s has no %s and the config sets none"
                         % (config.target, name, threshold))


# -- surrogate baseline ----------------------------------------------------


def surrogate_pipeline(target, surrogate, inputs, config=None, num_attack=None):
    """Label-oracle surrogate study: train a stand-in on the target's
    labels, attack the stand-in, replay on the target.

    `inputs` must be a non-empty matrix of the target's width (when it has
    one) with values in [0, 1], and `num_attack` at most its row count. The
    surrogate must take the inputs' width and, where both models count
    their classes, have at least the target's. All of these are checked
    before the target is queried or the surrogate fitted. The target
    contributes only predicted labels and replay traces. Inputs already
    running at maximum FLOPs on either model are excluded from the transfer
    averages and reported separately.
    """
    from .metrics import TransferRecord, inc_rf, transfer_metrics

    inputs = as_float_array(inputs, "inputs")
    if inputs.ndim != 2 or len(inputs) == 0:
        raise ValueError("inputs must be a non-empty sample matrix")
    width = getattr(target, "input_dim", inputs.shape[1])   # a scripted target reads any width
    if inputs.shape[1] != width:
        raise ShapeError("inputs has %d features, expected the target's %d"
                         % (inputs.shape[1], width))
    check_unit_range(inputs, "inputs")
    if num_attack is not None:
        check_params({"num_attack": SIZE}, locals())
        if num_attack > len(inputs):
            raise ValueError("num_attack is %d, above the %d rows of inputs"
                             % (num_attack, len(inputs)))
    attack = IlfoAttack(surrogate, config)
    if surrogate.input_dim != inputs.shape[1]:
        raise ShapeError("inputs has %d features, the surrogate takes %d"
                         % (inputs.shape[1], surrogate.input_dim))
    classes = [getattr(model, "num_classes", None) for model in (target, surrogate)]
    if None not in classes and classes[1] < classes[0]:
        raise ValueError("the surrogate has %d classes, below the target's %d"
                         % (classes[1], classes[0]))
    labels = target.infer(inputs).labels
    surrogate.fit(inputs, labels)

    chosen = inputs[:num_attack]
    test_inputs = attack.generate_many(chosen)
    flops = [model.infer(batch).flops.tolist() for model in (surrogate, target)
             for batch in (chosen, test_inputs)]
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
    return list(test_inputs), {
        "itp": itp,
        "etp": etp,
        "excluded": excluded,
        "records": records,
    }
