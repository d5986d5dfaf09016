"""The three benchmark workloads, one per stage of the paper's pipeline.

Each workload is a ``Workload`` of four functions:

- ``setup(run, seed, sizes)`` generates the seeded inputs and fits the
  models the timed phase consumes, and returns a state dict;
- ``cycle(run, state, sizes)`` is one pass of the timed phase; it returns
  its outputs and ``ops``, the count of the workload's unit of work;
- ``verify(run, state, out)`` checks one cycle's outputs, outside the clock;
- ``summarize(run, state)`` gives the quality and modelled-activity numbers.

Every call into the library goes through ``run.call`` so that it is counted,
caught and, in the traced run, wrapped in a span named after its layer.
The workload seed only picks the generated inputs; the library sees those
inputs and fixed model seeds.
"""

import json
import math
import statistics
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

from adnn_energy_lab.attacks import (IlfoAttack, IlfoConfig, InputBasedAttack,
                                     TestGenConfig, UniversalAttack,
                                     input_based_loss, surrogate_pipeline)
from adnn_energy_lab.autodiff import Tensor, gradients
from adnn_energy_lab.data import estimator_corpus, generate_dataset
from adnn_energy_lab.defense import (evaluate_defense, gradient_feature,
                                     train_filter, train_svm)
from adnn_energy_lab.energy import EnergyModel, MeasurementProtocol, measure_many
from adnn_energy_lab.estimator import EnergyEstimator
from adnn_energy_lab.metrics import (energy_increase_percent, inc_rf, pearson,
                                     robustness_scores)
from adnn_energy_lab.models import (EarlyExitNet, GatedSkipNet, ScriptedAdnn,
                                    flops_of_trace, model_from_payload,
                                    model_to_payload)
from adnn_energy_lab.nn import cross_entropy
from adnn_energy_lab.optim import Adam

from ops import Run


@dataclass(frozen=True)
class Sizes:
    """Problem sizes. The defaults are the benchmark; tests use ``TINY``."""

    setups: int = 3             # set-ups per run; setup_s is their median
    min_cycles: int = 3         # timed cycles per run, at least
    train: int = 256            # training examples per target
    held_out: int = 1000        # held-out examples per target
    target_epochs: int = 30
    corpus: int = 200           # estimator corpus, and its held-out twin
    est_epochs: int = 100
    filter_epochs: int = 30
    profile_inputs: int = 50    # per input family, measured on each target
    attack_seeds: int = 4       # input-based tests per cycle
    attack_iters: int = 150
    restarts: int = 4
    universal_iters: int = 100
    ilfo_seeds: int = 2         # ILFO tests per target per cycle
    ilfo_iters: int = 150
    surrogate_inputs: int = 64
    surrogate_attack: int = 2
    surrogate_iters: int = 100
    benign: int = 96            # benign inputs for the detector, half held out
    svm_epochs: int = 100
    probe_reps: int = 30


TINY = Sizes(setups=1, min_cycles=1, train=64, held_out=40, target_epochs=10,
             corpus=40, est_epochs=4, filter_epochs=2, profile_inputs=4,
             attack_seeds=2, attack_iters=3, restarts=2, universal_iters=3,
             ilfo_seeds=2, ilfo_iters=3, surrogate_inputs=16,
             surrogate_attack=2, surrogate_iters=40, benign=8, svm_epochs=3,
             probe_reps=2)

# per-layer metrics from the fixed-size probes of the traced run
PROBE_METRICS = {
    "autodiff.b32.fwd_ms": "ms", "autodiff.b32.bwd_ms": "ms",
    "autodiff.b32.nodes": "count", "optim.adam_step_ms": "ms",
    "autodiff.b1.fwd_ms": "ms", "autodiff.b1.bwd_ms": "ms",
    "autodiff.b1.nodes": "count",
}

# quality and modelled-activity numbers; 0 where the workload lacks the stage
SUMMARY_METRICS = {
    "models.skip.active_frac": "fraction",
    "models.exit.depth_frac": "fraction",
    "energy.retained_frac": "fraction",
    "estimator.useful_epoch_frac": "fraction",
    "estimator.val_rel_rmse": "fraction",
    "metrics.est_pearson_r": "r",
    "attacks.input_based.raised_frac": "fraction",
    "attacks.ilfo.all_fire_frac": "fraction",
    "attacks.energy_inc_pct": "%",
    "attacks.ilfo_inc_rf": "fraction",
    "attacks.etp_pct": "%",
    "defense.detect_auc": "AUC",
}

NUM_CLASSES = 4
SIGMA_MULTIPLE = 6.0   # a measured mean may sit this many standard errors off
REPETITIONS = MeasurementProtocol().repetitions
ENERGY = EnergyModel(base_joules=1.0, per_block_joules=0.5, noise_sigma=0.05,
                     seed=0)
SCRIPTED = ScriptedAdnn([(i + 0.5) / 8 for i in range(8)])


@dataclass(frozen=True)
class Workload:
    setup: Callable
    cycle: Callable
    verify: Callable
    summarize: Callable


def _seed(seed, stream):
    """Distinct data seed per input stream of one workload seed."""
    return seed * 16 + stream


def _batches(n, batch_size):
    return math.ceil(n / batch_size)


def _skip(sizes):
    return GatedSkipNet(epochs=sizes.target_epochs, seed=0)


def _exit(sizes):
    return EarlyExitNet(entropy_threshold=0.3, epochs=sizes.target_epochs, seed=0)


def _target_steps(sizes):
    return sizes.target_epochs * _batches(sizes.train, 32)


def _estimator_steps(sizes):
    n_val = max(1, int(round(0.1 * sizes.corpus)))
    return sizes.est_epochs * _batches(sizes.corpus - n_val, 32)


def _filter_steps(sizes):
    total = sizes.train + sizes.corpus
    return sizes.filter_epochs * _batches(total - max(1, total // 5), 32)


def _make_data(run, seed, sizes):
    """Targets' train and held-out sets plus the estimator corpora."""
    data = {}
    for key, stream, n, kwargs in (
            ("skip_train", 0, sizes.train, {"noise_span": 0.6}),
            ("skip_test", 1, sizes.held_out, {"noise_span": 0.6}),
            ("exit_train", 2, sizes.train, {"noise_span": 0.9, "contrast": 0.1}),
            ("exit_test", 3, sizes.held_out, {"noise_span": 0.9, "contrast": 0.1})):
        data[key] = run.call("data", generate_dataset, n, ops=0,
                             seed=_seed(seed, stream), **kwargs)
    data["corpus"] = run.call("data", estimator_corpus, sizes.corpus, ops=0,
                              seed=_seed(seed, 4))
    data["corpus_test"] = run.call("data", estimator_corpus, sizes.corpus,
                                   ops=0, seed=_seed(seed, 5))
    return data


def _fit_target(run, model, dataset, sizes):
    return run.call("models.fit", lambda m, d: m.fit(d.inputs, d.labels),
                    model, dataset, counts={"steps": _target_steps(sizes)})


def _measure(run, adnn, inputs):
    n = len(inputs)
    return run.call("energy.measure_many", measure_many, adnn, ENERGY, inputs,
                    ops=n, counts={"samples": n * REPETITIONS})


def _infer(run, model, X):
    X = np.atleast_2d(X)
    return run.call("models.infer", lambda m, X: m.infer(X), model, X,
                    ops=len(X), counts={"rows": len(X)})


def _means(measurements):
    if not _ok(measurements):
        return Run.FAILED
    return np.array([m.mean for m in measurements])


def _tensors(model):
    """Every parameter Tensor of a fitted residual-MLP model."""
    out = []
    for attr in ("stem_", "head_", "blocks_", "segments_", "exit_heads_",
                 "gate_weights_", "gate_biases_"):
        parts = getattr(model, attr, None)
        for part in parts if isinstance(parts, list) else [parts]:
            if part is None:
                continue
            out.extend(part.params if hasattr(part, "params") else [part])
    return out


def _finite(model):
    return all(np.isfinite(t.data).all() for t in _tensors(model))


def _ok(*values):
    return all(v is not Run.FAILED for v in values)


def _pick(state, key):
    """A model from the set-up state, or from the last timed cycle."""
    value = state.get(key)
    return value if value is not None else state.get("last", {}).get(key)


def _graph_nodes(root):
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(parent for parent, _ in node._vjps)
    return len(seen)


def _target_summary(state, skip, exit_net):
    """Held-out accuracy and modelled activity of the two targets."""
    data = state["data"]
    out = dict.fromkeys(SUMMARY_METRICS, 0.0)
    out["target_acc"] = 0.0
    if not _ok(skip, exit_net):
        return out
    skip_test, exit_test = data["skip_test"], data["exit_test"]
    out["target_acc"] = 0.5 * (skip.score(skip_test.inputs, skip_test.labels)
                               + exit_net.score(exit_test.inputs, exit_test.labels))
    out["models.skip.active_frac"] = float(np.mean(
        [t.active_units for t in skip.infer(skip_test.inputs)])) / skip.num_blocks
    out["models.exit.depth_frac"] = float(np.mean(
        [t.exit_index + 1 for t in exit_net.infer(exit_test.inputs)])) / exit_net.num_segments
    return out


def _retained_frac(measurements):
    if not _ok(measurements):
        return 0.0
    kept = sum(len(m.retained) for m in measurements)
    return kept / sum(len(m.raw_samples) for m in measurements)


def _estimator_summary(out, est):
    if _ok(est):
        out["estimator.useful_epoch_frac"] = (est.best_epoch_ + 1) / est.epochs
        out["estimator.val_rel_rmse"] = est.val_relative_rmse_


# -- fit: train the targets, the estimator and the filter ------------------


def _fit_estimator(run, inputs, energies, sizes):
    est = EnergyEstimator(epochs=sizes.est_epochs, seed=0)
    return run.call("estimator.fit", lambda X, y: est.fit(X, y), inputs,
                    energies, counts={"steps": _estimator_steps(sizes)})


def _roundtrip(model):
    """Payload out, through JSON text, and back to a model."""
    if isinstance(model, EnergyEstimator):
        return EnergyEstimator.from_payload(json.loads(json.dumps(model.to_payload())))
    return model_from_payload(json.loads(json.dumps(model_to_payload(model))))


def fit_setup(run, seed, sizes):
    data = _make_data(run, seed, sizes)
    # energies come from the scripted oracle, so measuring stays cheap
    measured = _measure(run, SCRIPTED, data["corpus"])
    measured_test = _measure(run, SCRIPTED, data["corpus_test"])
    return {"data": data, "measured": measured,
            "energies": _means(measured), "energies_test": _means(measured_test)}


def fit_cycle(run, state, sizes):
    data = state["data"]
    skip = _fit_target(run, _skip(sizes), data["skip_train"], sizes)
    exit_net = _fit_target(run, _exit(sizes), data["exit_train"], sizes)
    est = _fit_estimator(run, data["corpus"], state["energies"], sizes)
    screen = run.call("defense.train_filter",
                      lambda d, noisy: train_filter(d.inputs, noisy,
                                                    epochs=sizes.filter_epochs),
                      data["skip_train"], data["corpus"])
    restored = [run.call("serialize.roundtrip", _roundtrip, m)
                for m in (skip, exit_net, est)]
    predicted = run.call("estimator.predict", lambda e, X: e.predict(X), est,
                         data["corpus_test"], ops=0)
    corr = run.call("metrics.pearson", pearson, predicted,
                    state["energies_test"], n_perm=200)
    steps = [_target_steps(sizes), _target_steps(sizes),
             _estimator_steps(sizes), _filter_steps(sizes)]
    fitted = (skip, exit_net, est, screen)
    return {"ops": sum(s for s, m in zip(steps, fitted) if _ok(m)),
            "skip": skip, "exit": exit_net, "est": est, "filter": screen,
            "restored": restored, "pearson": corr}


def fit_verify(run, state, out):
    data = state["data"]
    for name, test in (("skip", "skip_test"), ("exit", "exit_test")):
        model = out[name]
        if _ok(model):
            acc = model.score(data[test].inputs, data[test].labels)
            run.check("models", _finite(model) and acc > 1.0 / NUM_CLASSES,
                      "%s target: finite weights, accuracy above chance" % name)
    if _ok(out["est"]):
        run.check("estimator", _finite(out["est"]), "estimator weights finite")
    if _ok(out["filter"]):
        screen, held_acc = out["filter"]
        run.check("defense", _finite(screen) and held_acc > 0.5,
                  "filter: finite weights, accuracy above chance")
    probe = {"skip": data["skip_test"].inputs[:200],
             "exit": data["exit_test"].inputs[:200],
             "est": data["corpus_test"]}
    for name, restored in zip(("skip", "exit", "est"), out["restored"]):
        if _ok(out[name], restored):
            X = probe[name]
            run.check("serialize",
                      np.array_equal(restored.predict(X), out[name].predict(X)),
                      "%s payload round-trip changes predictions" % name)
    if _ok(out["pearson"]):
        run.check("metrics", math.isfinite(out["pearson"][0]), "pearson r finite")


def fit_summary(run, state):
    last = state["last"]
    out = _target_summary(state, last["skip"], last["exit"])
    out["energy.retained_frac"] = _retained_frac(state["measured"])
    _estimator_summary(out, last["est"])
    if _ok(last["pearson"]):
        out["metrics.est_pearson_r"] = last["pearson"][0]
    return out


# -- profile: black-box energy measurement of the fitted targets ------------


def profile_setup(run, seed, sizes):
    data = _make_data(run, seed, sizes)
    skip = _fit_target(run, _skip(sizes), data["skip_train"], sizes)
    exit_net = _fit_target(run, _exit(sizes), data["exit_train"], sizes)
    n = sizes.profile_inputs
    # easy in-distribution inputs skip blocks or exit early; corpus inputs
    # mostly run deep, so the work per inference varies across the mix
    mixes = {
        name: np.concatenate([data[test].inputs[:n], data["corpus"][:n]])
        for name, test in (("skip", "skip_test"), ("exit", "exit_test"))
    }
    return {"data": data, "skip": skip, "exit": exit_net, "mixes": mixes}


def profile_cycle(run, state, sizes):
    out = {name: _measure(run, state[name], state["mixes"][name])
           for name in ("skip", "exit")}
    out["ops"] = sum(len(m) for m in out.values() if _ok(m))
    return out


def profile_verify(run, state, out):
    for name in ("skip", "exit"):
        measured = out[name]
        if not _ok(measured, state[name]):
            continue
        key = "noiseless_" + name
        if key not in state:
            traces = state[name].infer(state["mixes"][name])
            state[key] = [ENERGY.noiseless_energy(t) for t in traces]
        for m, expected in zip(measured, state[key]):
            bound = SIGMA_MULTIPLE * ENERGY.noise_sigma / math.sqrt(len(m.retained))
            run.check("energy",
                      len(m.raw_samples) == REPETITIONS
                      and not Counter(m.retained) - Counter(m.raw_samples)
                      and abs(m.mean - expected) <= bound,
                      "%s measurement off its noiseless energy" % name)


def profile_summary(run, state):
    out = _target_summary(state, state["skip"], state["exit"])
    last = state["last"]
    out["energy.retained_frac"] = 0.5 * (_retained_frac(last["skip"])
                                         + _retained_frac(last["exit"]))
    return out


# -- attack: generate tests, replay them, transfer and defend ---------------


def _lowest_mean(X, k):
    return X[np.argsort(X.mean(axis=1), kind="stable")[:k]]


def attack_setup(run, seed, sizes):
    data = _make_data(run, seed, sizes)
    skip = _fit_target(run, _skip(sizes), data["skip_train"], sizes)
    exit_net = _fit_target(run, _exit(sizes), data["exit_train"], sizes)
    measured = _measure(run, skip, data["corpus"])
    est = _fit_estimator(run, data["corpus"], _means(measured), sizes)
    skip_test, exit_test = data["skip_test"], data["exit_test"]
    # held-out rows: a fifth to pick attack seeds from, then the
    # surrogate's inputs, and the detector's benign pool at the end
    pool, cut, b = skip_test.inputs, len(skip_test) // 5, sizes.benign
    # low-mean inputs fire few gates, so there is energy left to surge
    seeds = _lowest_mean(pool[:cut], max(sizes.attack_seeds, sizes.ilfo_seeds))
    easy = exit_test.inputs[np.argsort(exit_test.difficulty, kind="stable")]
    return {
        "data": data, "skip": skip, "exit": exit_net, "est": est,
        "measured": measured, "seeds": seeds,
        "exit_seeds": easy[:sizes.ilfo_seeds],
        "surrogate_inputs": _lowest_mean(pool[cut:cut + sizes.surrogate_inputs],
                                         sizes.surrogate_inputs),
        "benign": pool[-b:], "benign_labels": skip_test.labels[-b:],
    }


def _input_based(est, x, sizes):
    cfg = TestGenConfig(mode="input_based", iterations=sizes.attack_iters)
    return InputBasedAttack(est, cfg).generate(x)


def _universal(est, sizes):
    cfg = TestGenConfig(mode="universal", iterations=sizes.universal_iters,
                        restarts=sizes.restarts)
    return UniversalAttack(est, cfg).generate()


def _ilfo(model, x, target, sizes):
    attack = IlfoAttack(model, IlfoConfig(target=target, iterations=sizes.ilfo_iters))
    test = attack.generate(x)
    return test, attack.min_losses_[0], attack.best_loss_


def _energies(traces):
    return np.array([ENERGY.noiseless_energy(t) for t in traces])


def attack_cycle(run, state, sizes):
    skip, exit_net, est = state["skip"], state["exit"], state["est"]
    seeds = state["seeds"]
    ib_seeds = seeds[:sizes.attack_seeds]
    out = {}
    out["input_based"] = [
        run.call("attacks.input_based", _input_based, est, x, sizes,
                 counts={"iters": sizes.attack_iters})
        for x in ib_seeds]
    out["universal"] = run.call("attacks.universal", _universal, est, sizes,
                                counts={"iters": sizes.restarts * sizes.universal_iters})
    out["ilfo_gate"] = [
        run.call("attacks.ilfo", _ilfo, skip, x, "gate", sizes,
                 counts={"iters": sizes.ilfo_iters})
        for x in seeds[:sizes.ilfo_seeds]]
    out["ilfo_exit"] = [
        run.call("attacks.ilfo", _ilfo, exit_net, x, "exit", sizes,
                 counts={"iters": sizes.ilfo_iters})
        for x in state["exit_seeds"]]
    surrogate = GatedSkipNet(width=8, num_blocks=4, epochs=sizes.target_epochs, seed=0)
    cfg = IlfoConfig(iterations=sizes.surrogate_iters)
    out["surrogate"] = run.call(
        "attacks.surrogate", surrogate_pipeline, skip, surrogate,
        state["surrogate_inputs"], cfg, ops=2 * sizes.surrogate_attack,
        num_attack=sizes.surrogate_attack)

    ib_tests = [t for t in out["input_based"] if _ok(t)]
    gate_tests = [r[0] for r in out["ilfo_gate"] if _ok(r)]
    exit_tests = [r[0] for r in out["ilfo_exit"] if _ok(r)]
    uni_tests = [out["universal"]] if _ok(out["universal"]) else []
    sur_tests = list(out["surrogate"][0]) if _ok(out["surrogate"]) else []

    # replay every test and its seed on the target it was made for
    replays = {
        "seeds": (skip, _infer(run, skip, seeds)),
        "input_based": (skip, _infer(run, skip, ib_tests) if ib_tests else []),
        "ilfo_gate": (skip, _infer(run, skip, gate_tests) if gate_tests else []),
        "universal": (skip, _infer(run, skip, uni_tests) if uni_tests else []),
        "exit_seeds": (exit_net, _infer(run, exit_net, state["exit_seeds"])),
        "ilfo_exit": (exit_net, _infer(run, exit_net, exit_tests) if exit_tests else []),
    }
    out["replays"] = replays
    out["robustness"] = run.call(
        "metrics.robustness_scores", robustness_scores, skip, ENERGY,
        ib_seeds, 2.0, out["input_based"], uni_tests)

    # detector: half the benign pool and every other test train it, the
    # rest evaluate it
    adv = ib_tests + gate_tests + uni_tests + sur_tests
    half = len(state["benign"]) // 2
    train_x = list(state["benign"][:half]) + adv[0::2]
    feats = [run.call("defense.gradient_feature", gradient_feature, skip, x,
                      ops=0, counts={"calls": 1}) for x in train_x]
    labels = [0] * half + [1] * len(adv[0::2])
    feats_ok = [f for f in feats if _ok(f)]
    svm = run.call("defense.train_svm", train_svm,
                   np.array(feats_ok) if len(feats_ok) == len(feats) else Run.FAILED,
                   labels, ops=0, epochs=sizes.svm_epochs)
    out["defense"] = run.call(
        "defense.evaluate_defense", evaluate_defense, skip, svm, ENERGY,
        state["benign"][half:], state["benign_labels"][half:],
        np.array(adv[1::2]))
    out["tests"] = {"input_based": ib_tests, "ilfo_gate": gate_tests,
                    "ilfo_exit": exit_tests, "universal": uni_tests,
                    "surrogate": sur_tests}
    out["ops"] = sum(len(v) for v in out["tests"].values())
    return out


def attack_verify(run, state, out):
    for name, tests in out["tests"].items():
        for test in tests:
            run.check("attacks", test.shape == (64,) and np.isfinite(test).all()
                      and test.min() >= 0.0 and test.max() <= 1.0,
                      "%s test not finite or outside [0, 1]" % name)
    for name, (model, traces) in out["replays"].items():
        if not _ok(traces):
            continue
        for trace in traces:
            run.check("models", trace.flops == flops_of_trace(model, trace),
                      "%s replay FLOPs differ from flops_of_trace" % name)
    for result in out["ilfo_gate"] + out["ilfo_exit"]:
        if _ok(result):
            run.check("attacks", result[2] <= result[1],
                      "ILFO best loss above its starting loss")
    if _ok(out["robustness"]):
        # a zero perturbation is always admissible, so the score is <= 0
        run.check("metrics", out["robustness"].e_input <= 0.0,
                  "robustness e_input is positive")


def attack_summary(run, state):
    out = _target_summary(state, state["skip"], state["exit"])
    out["energy.retained_frac"] = _retained_frac(state["measured"])
    _estimator_summary(out, state["est"])
    last = state["last"]
    replays = last["replays"]
    skip = state["skip"]
    seeds = replays["seeds"][1]
    if _ok(seeds):
        before = _energies(seeds)
        ib = replays["input_based"][1]
        if _ok(ib) and ib and len(ib) == len(last["input_based"]):
            after = _energies(ib)
            out["attacks.energy_inc_pct"] = float(np.mean(
                [energy_increase_percent(b, a) for b, a in zip(before, after)]))
            out["attacks.input_based.raised_frac"] = float(np.mean(after > before[:len(after)]))
        gate = replays["ilfo_gate"][1]
        if _ok(gate) and len(gate) == len(last["ilfo_gate"]):
            pairs = [(s.flops, t.flops) for s, t in zip(seeds, gate)
                     if s.flops < skip.max_flops]
            if pairs:
                out["attacks.ilfo_inc_rf"] = float(np.mean(
                    [inc_rf(b, a, skip.max_flops) for b, a in pairs]))
            out["attacks.ilfo.all_fire_frac"] = float(np.mean(
                [all(t.gate_decisions) for t in gate])) if gate else 0.0
    if _ok(last["surrogate"]):
        out["attacks.etp_pct"] = last["surrogate"][1]["etp"]
    if _ok(last["defense"]):
        out["defense.detect_auc"] = last["defense"]["auc"]
    return out


WORKLOADS = {
    "fit": Workload(fit_setup, fit_cycle, fit_verify, fit_summary),
    "profile": Workload(profile_setup, profile_cycle, profile_verify, profile_summary),
    "attack": Workload(attack_setup, attack_cycle, attack_verify, attack_summary),
}


# -- fixed-size probes of the traced run ------------------------------------


def _timed_ms(fn):
    start = time.perf_counter()
    value = fn()
    return value, 1e3 * (time.perf_counter() - start)


def probes(tracer, state, sizes):
    """Median forward, backward and Adam-step times at batch 32 and batch 1.

    Each probe is one more call into the library, spanned like the others;
    a probe whose model the workload does not have reads 0.
    """
    metrics = dict.fromkeys(PROBE_METRICS, 0.0)
    skip, est = _pick(state, "skip"), _pick(state, "est")
    train = state["data"]["skip_train"]
    if _ok(skip) and skip is not None:
        X, y = train.inputs[:32], train.labels[:32]
        params = _tensors(skip)
        copy = model_from_payload(model_to_payload(skip))
        opt = Adam(_tensors(copy), lr=0.01)
        fwd, bwd, step = [], [], []
        for _ in range(sizes.probe_reps):
            with tracer.span("autodiff.b32.forward"):
                loss, ms = _timed_ms(lambda: cross_entropy(
                    skip.forward(Tensor(X), mode="soft")[0], y, NUM_CLASSES))
            fwd.append(ms)
            with tracer.span("autodiff.b32.gradients"):
                grads, ms = _timed_ms(lambda: gradients(loss, params))
            bwd.append(ms)
            with tracer.span("optim.adam_step"):
                step.append(_timed_ms(lambda: opt.step(grads))[1])
        metrics["autodiff.b32.fwd_ms"] = statistics.median(fwd)
        metrics["autodiff.b32.bwd_ms"] = statistics.median(bwd)
        metrics["autodiff.b32.nodes"] = _graph_nodes(loss)
        metrics["optim.adam_step_ms"] = statistics.median(step)
    if _ok(est) and est is not None:
        x = state["data"]["skip_test"].inputs[:1]
        w = Tensor(np.zeros((1, x.shape[1])))
        fwd, bwd = [], []
        for _ in range(sizes.probe_reps):
            with tracer.span("autodiff.b1.forward"):
                loss, ms = _timed_ms(lambda: input_based_loss(w, x, 100.0, est))
            fwd.append(ms)
            with tracer.span("autodiff.b1.gradients"):
                bwd.append(_timed_ms(lambda: gradients(loss, [w]))[1])
        metrics["autodiff.b1.fwd_ms"] = statistics.median(fwd)
        metrics["autodiff.b1.bwd_ms"] = statistics.median(bwd)
        metrics["autodiff.b1.nodes"] = _graph_nodes(loss)
    return metrics
