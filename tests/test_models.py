"""Adaptive model behavior: gating, early exits, FLOPs accounting,
training dynamics, and serialization."""

import copy
import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adnn_energy_lab.autodiff import NonFiniteError, Tensor, gradients, relu, softmax, tsum
from adnn_energy_lab.base import NotFittedError
from adnn_energy_lab.data import generate_dataset
from adnn_energy_lab.defense import FilterModel
from adnn_energy_lab.energy import EnergyModel
from adnn_energy_lab.estimator import EnergyEstimator
from adnn_energy_lab.models import (
    EarlyExitNet,
    ExecutionTrace,
    GatedSkipNet,
    ScriptedAdnn,
    entropy,
    flops_of_trace,
    load_model,
    model_from_payload,
    model_to_payload,
    save_model,
    scripted_gate_analogue,
)
from adnn_energy_lab.nn import Dense, ResidualBlock
from adnn_energy_lab.optim import Adam
from adnn_energy_lab.seeding import derive_rng
from adnn_energy_lab.serialize import DataFormatError, dump_json, load_json

from oracles import unfused_affine


class TestEntropy:
    def test_certain_distribution(self):
        assert entropy([1.0, 0.0]) == 0.0

    def test_two_way_uniform(self):
        assert entropy([0.5, 0.5]) == pytest.approx(math.log(2), abs=1e-12)

    def test_four_way_uniform(self):
        assert entropy([0.25] * 4) == pytest.approx(math.log(4), abs=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            entropy([0.5, 0.6])

    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError):
            entropy([1.5, -0.5])


class TestFlopsAccounting:
    def test_dense_layer_count(self):
        layer = Dense.init(derive_rng(0, "dense-count"), 64, 16)
        assert layer.flops == 2 * 64 * 16

    def test_width8_residual_block(self):
        block = ResidualBlock.init(derive_rng(0, "block-count"), 8)
        assert block.flops == 256

    def test_scripted_two_active_blocks(self):
        model = ScriptedAdnn([0.2, 0.4, 0.6, 0.8], base_flops=100, block_flops=256)
        trace = model.infer(np.full(64, 0.5))
        assert trace.active_units == 2
        assert trace.flops == 612
        assert flops_of_trace(model, trace) == 612

    def test_zero_active_blocks_cost_base_only(self):
        model = ScriptedAdnn([0.2, 0.4, 0.6, 0.8], base_flops=100, block_flops=256)
        trace = model.infer(np.zeros(64))
        assert trace.flops == model.base_flops == model.min_flops

    def test_default_skip_architecture_hand_count(self, trained_skip):
        # stem 2*64*16, head 2*16*4, block 2*(2*16*16)
        assert trained_skip.stem_flops == 2048
        assert trained_skip.base_flops == 2048 + 128
        assert trained_skip.block_flops == 1024
        assert trained_skip.max_flops == 2176 + 8 * 1024

    def test_default_exit_architecture_hand_count(self, trained_exit):
        assert trained_exit.stem_flops == 2048
        assert trained_exit.block_flops == 1024
        assert trained_exit.head_flops == 128
        assert trained_exit.trace_flops(0) == 2048 + 1024 + 128
        assert trained_exit.max_flops == 2048 + 4 * 1024 + 128

    def test_trace_flops_recomputed_from_decisions(self, trained_skip, skip_dataset):
        for trace in trained_skip.infer(skip_dataset.inputs[:32]):
            assert flops_of_trace(trained_skip, trace) == trace.flops

    def test_foreign_trace_rejected(self, trained_skip):
        other = ScriptedAdnn([0.3, 0.6], base_flops=10, block_flops=5)
        trace = other.infer(np.full(64, 0.9))
        with pytest.raises(ValueError):
            flops_of_trace(trained_skip, trace)


class TestScriptedModel:
    def test_all_zeros_activates_nothing(self):
        model = ScriptedAdnn([0.2, 0.4, 0.6, 0.8], base_flops=100, block_flops=256)
        assert model.infer(np.zeros(64)).active_units == 0

    def test_all_ones_activates_everything(self):
        model = ScriptedAdnn([0.2, 0.4, 0.6, 0.8], base_flops=100, block_flops=256)
        assert model.infer(np.ones(64)).active_units == 4

    def test_non_ascending_thresholds_rejected(self):
        with pytest.raises(ValueError):
            ScriptedAdnn([0.6, 0.4], base_flops=100, block_flops=256)

    def test_out_of_range_thresholds_rejected(self):
        with pytest.raises(ValueError):
            ScriptedAdnn([0.5, 1.5])

    @pytest.mark.parametrize("field, args", [
        ("thresholds", ([math.nan],)), ("thresholds", ([0.2, math.inf],)),
        ("thresholds", ([True],)), ("thresholds", ("0.5",)), ("thresholds", (0.5,)),
        ("thresholds", ([-0.1, 0.5],)),
        ("base_flops", ([0.5], -3)), ("base_flops", ([0.5], 2.5)),
        ("base_flops", ([0.5], math.nan)), ("block_flops", ([0.5], 100, True)),
        ("block_flops", ([0.5], 100, -1)), ("num_classes", ([0.5], 100, 50, 0)),
        ("num_classes", ([0.5], 100, 50, math.inf)),
    ], ids=repr)
    def test_bad_setting_rejected_when_built(self, field, args):
        with pytest.raises(ValueError, match=field):
            ScriptedAdnn(*args)

    def test_sequences_and_numpy_numbers_accepted(self):
        for thresholds in ((0.25, 0.5), np.array([0.25, 0.5]), [np.float32(0.25), 1]):
            model = ScriptedAdnn(thresholds, base_flops=np.int64(0), block_flops=np.uint8(5),
                                 num_classes=np.int32(3))
            assert model.thresholds == [0.25, float(thresholds[1])]
            assert type(model.base_flops) is int and model.num_classes == 3

    @settings(max_examples=200, deadline=None)
    @given(thresholds=st.lists(st.floats() | st.integers(-2, 2) | st.booleans(), max_size=4),
           flops=st.lists(st.floats() | st.integers(-5, 5) | st.booleans(),
                          min_size=3, max_size=3))
    def test_a_model_that_builds_round_trips_through_its_payload(self, thresholds, flops):
        try:
            model = ScriptedAdnn(thresholds, *flops)
        except ValueError:
            return
        text = json.dumps(model_to_payload(model))
        loaded = model_from_payload(json.loads(text))
        assert loaded.signature == model.signature
        assert loaded.num_classes == model.num_classes

    def test_activation_monotone_in_mean(self):
        model = ScriptedAdnn([(i + 0.5) / 8 for i in range(8)], base_flops=2176, block_flops=1024)
        rng = derive_rng(0, "scripted-monotone")
        for _ in range(200):
            a = rng.uniform(0, 1, size=64)
            b = rng.uniform(0, 1, size=64)
            if a.mean() > b.mean():
                a, b = b, a
            ta, tb = model.infer(a), model.infer(b)
            assert ta.flops <= tb.flops
            for da, db in zip(ta.gate_decisions, tb.gate_decisions):
                assert (not da) or db


class TestGatedSkipNet:
    def saturated_net(self, bias):
        net = GatedSkipNet(num_blocks=3)
        net._build(derive_rng(0, "saturated"))
        net.gate_weights_ = [Tensor(np.float64(0.0)) for _ in range(3)]
        net.gate_biases_ = [Tensor(np.float64(bias)) for _ in range(3)]
        return net

    def test_forced_open_gates_run_every_block(self):
        net = self.saturated_net(800.0)
        trace = net.infer(np.full(64, 0.5))
        assert trace.gate_decisions == (True, True, True)
        assert trace.flops == net.max_flops

    def test_forced_closed_gates_reduce_to_stem_head(self):
        net = self.saturated_net(-800.0)
        x = derive_rng(1, "closed-gates").uniform(0, 1, size=(4, 64))
        traces = net.infer(x)
        assert all(t.flops == net.base_flops for t in traces)
        h = relu(unfused_affine(Tensor(x), *net.stem_.params))
        direct = unfused_affine(h, *net.head_.params).data
        assert np.array_equal(np.stack([t.logits for t in traces]), direct)

    def test_saturated_soft_and_hard_agree_exactly(self):
        # at +-800 the sigmoid rounds to exactly 0/1, so scaling the branch
        # equals running or skipping it with no float residue
        for bias in (800.0, -800.0):
            net = self.saturated_net(bias)
            x = Tensor(derive_rng(2, "agree").uniform(0, 1, size=(5, 64)))
            hard_logits, _, hard_dec = net.forward(x, mode="hard")
            soft_logits, _, soft_dec = net.forward(x, mode="soft")
            assert np.array_equal(hard_logits.data, soft_logits.data)
            assert np.array_equal(hard_dec, soft_dec)

    def test_hard_decisions_match_soft_gate_thresholding(self, trained_skip, skip_dataset):
        X = Tensor(skip_dataset.inputs[:64])
        _, gates, decisions = trained_skip.forward(X, mode="soft")
        values = np.concatenate([g.data.reshape(-1, 1) for g in gates], axis=1)
        assert np.array_equal(decisions, values >= trained_skip.gate_threshold)

    def test_trained_fixture_is_accurate_and_adaptive(self, trained_skip, skip_dataset):
        assert trained_skip.train_accuracy_ >= 0.9
        traces = trained_skip.infer(skip_dataset.inputs)
        counts = {t.active_units for t in traces}
        assert len(counts) >= 3

    def test_lr_zero_leaves_parameters_unchanged(self):
        ds = generate_dataset(60, seed=3)
        net = GatedSkipNet(epochs=1, lr=0.0, sparsity_weight=0.0, seed=0)
        net._build(derive_rng(0, "skip-init"))
        net._calibrate_gates(ds.inputs)
        before = [p.data.copy() for p in net._params()]
        net.fit(ds.inputs, ds.labels)
        after = [p.data for p in net._params()]
        assert all(np.array_equal(a, b) for a, b in zip(before, after))

    def test_heavy_sparsity_penalty_lowers_block_usage(self):
        ds = generate_dataset(200, noise_span=0.6, seed=4)

        def mean_active(weight):
            net = GatedSkipNet(epochs=40, sparsity_weight=weight, seed=0)
            net.fit(ds.inputs, ds.labels)
            return np.mean([t.active_units for t in net.infer(ds.inputs)])

        assert mean_active(10.0) < mean_active(0.0)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            GatedSkipNet().fit(np.empty((0, 64)), np.empty(0, dtype=int))

    def test_unfitted_inference_raises(self):
        with pytest.raises(NotFittedError):
            GatedSkipNet().infer(np.zeros(64))

    def test_gate_threshold_validation(self):
        with pytest.raises(ValueError):
            GatedSkipNet(gate_threshold=1.0)


class TestGateAnalogue:
    def test_hard_decisions_follow_mean_thresholds(self):
        net = scripted_gate_analogue([0.25, 0.5, 0.75])
        for level, expected in ((0.1, 0), (0.3, 1), (0.6, 2), (0.9, 3)):
            trace = net.infer(np.full(64, level))
            assert trace.active_units == expected

    def test_matches_scripted_twin_on_random_inputs(self):
        thresholds = [0.2, 0.4, 0.6, 0.8]
        analogue = scripted_gate_analogue(thresholds)
        scripted = ScriptedAdnn(thresholds, base_flops=analogue.base_flops,
                                block_flops=analogue.block_flops)
        X = derive_rng(3, "twin").uniform(0, 1, size=(50, 64))
        for x in X:
            assert analogue.infer(x).gate_decisions == scripted.infer(x).gate_decisions


class TestEarlyExitNet:
    def untrained(self, **kwargs):
        net = EarlyExitNet(**kwargs)
        net._build(derive_rng(0, "exit-untrained"))
        return net

    def test_zero_threshold_never_exits_early(self):
        net = self.untrained(entropy_threshold=0.0)
        X = derive_rng(4, "never-early").uniform(0, 1, size=(8, 64))
        for trace in net.infer(X):
            assert trace.exit_index == net.num_segments - 1

    def test_huge_threshold_always_exits_first(self):
        net = self.untrained(entropy_threshold=math.log(4) + 1.0)
        X = derive_rng(5, "always-first").uniform(0, 1, size=(8, 64))
        for trace in net.infer(X):
            assert trace.exit_index == 0
            assert trace.flops == net.min_flops

    def test_exit_selection_is_first_crossing(self, trained_exit, exit_dataset):
        for trace in trained_exit.infer(exit_dataset.inputs[:64]):
            expected = trained_exit.num_segments - 1
            for e, h in enumerate(trace.exit_entropies):
                if h < trained_exit.entropy_threshold:
                    expected = e
                    break
            assert trace.exit_index == expected

    def test_raising_threshold_never_delays_exit(self, trained_exit, exit_dataset):
        variants = []
        for th in (0.05, 0.3, 0.8, 1.3):
            net = copy.copy(trained_exit)
            net.entropy_threshold = th
            variants.append(net)
        for x in exit_dataset.inputs[:16]:
            indices = [net.infer(x).exit_index for net in variants]
            assert all(b <= a for a, b in zip(indices, indices[1:]))

    @pytest.mark.parametrize("threshold", [0.05, 0.3, 0.8, 1.3])
    def test_batched_trace_matches_per_row_entropy(self, trained_exit, exit_dataset,
                                                  threshold):
        net = copy.copy(trained_exit)
        net.entropy_threshold = threshold
        X = np.concatenate([exit_dataset.inputs[:48],
                            derive_rng(8, "exit-noise").uniform(0, 1, size=(16, 64))])
        out, c = net.forward_terms(X)[0], net.num_classes
        all_logits = [out[:, k * c:(k + 1) * c] for k in range(net.num_segments)]
        probs = [softmax(Tensor(l)).data for l in all_logits]
        for i, trace in enumerate(net.infer(X)):
            entropies = tuple(entropy(p[i]) for p in probs)
            assert trace.exit_entropies == entropies
            assert trace.flops == net.trace_flops(trace.exit_index)
            assert np.array_equal(trace.logits, all_logits[trace.exit_index][i])

    def test_trained_fixture_uses_multiple_exits(self, trained_exit, exit_dataset):
        indices = {t.exit_index for t in trained_exit.infer(exit_dataset.inputs)}
        assert len(indices) >= 2

    def test_one_example_overfit_drives_exit0_entropy_down(self):
        x = generate_dataset(1, seed=9).inputs
        net = EarlyExitNet(epochs=300, seed=0)
        net.fit(x, np.array([2]))
        trace = net.infer(x[0])
        assert trace.exit_entropies[0] < 0.05

    def test_lr_zero_leaves_parameters_unchanged(self):
        ds = generate_dataset(40, seed=6)
        net = EarlyExitNet(epochs=1, lr=0.0, seed=0)
        net._build(derive_rng(0, "exit-init"))
        before = [p.data.copy() for p in net._params()]
        net.fit(ds.inputs, ds.labels)
        after = [p.data for p in net._params()]
        assert all(np.array_equal(a, b) for a, b in zip(before, after))

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            EarlyExitNet().fit(np.empty((0, 64)), np.empty(0, dtype=int))

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            EarlyExitNet(entropy_threshold=-0.1)


class TestLabelValidation:
    """Bad labels fail before the first epoch, not mid-fit or in score."""

    @pytest.mark.parametrize("make", [GatedSkipNet, EarlyExitNet, FilterModel])
    @pytest.mark.parametrize("labels", [
        np.zeros(19, dtype=int),
        np.zeros(21, dtype=int),
        np.full(20, -1),
        np.full(20, 4),
    ], ids=["short", "long", "negative", "past-last-class"])
    def test_bad_labels_rejected_before_training(self, make, labels):
        model = make(num_classes=4, epochs=1)
        X = generate_dataset(20, seed=3).inputs
        with pytest.raises(ValueError):
            model.fit(X, labels)
        assert model.stem_ is None


FITTED_KINDS = [GatedSkipNet, EarlyExitNet, EnergyEstimator, FilterModel]


class TestFitSettings:
    """epochs, batch_size and lr are checked when a model is built, by
    set_params, and again before the first step of a fit, so an attribute
    assigned directly cannot route around the check either."""

    @pytest.mark.parametrize("make", FITTED_KINDS)
    @pytest.mark.parametrize("bad", [
        {"epochs": 0}, {"epochs": -3}, {"epochs": 2.5}, {"epochs": "3"},
        {"batch_size": 0}, {"batch_size": 32.0}, {"batch_size": None},
        {"lr": -0.1}, {"lr": math.nan}, {"lr": math.inf}, {"lr": "0.1"},
        {"epochs": True}, {"batch_size": True}, {"lr": True}, {"lr": -math.inf},
        {"input_dim": 0}, {"input_dim": -2}, {"input_dim": 2.5}, {"input_dim": True},
        {"width": 0}, {"width": 16.0}, {"width": math.nan},
        {"seed": 2.5}, {"seed": True}, {"seed": math.nan}, {"seed": "1"},
    ], ids=lambda bad: "%s=%r" % next(iter(bad.items())))
    def test_bad_setting_rejected_when_built(self, make, bad):
        with pytest.raises(ValueError, match=next(iter(bad))):
            make(**bad)
        model = make()
        with pytest.raises(ValueError, match=next(iter(bad))):
            model.set_params(**bad)
        assert model.get_params() == make().get_params()

    @pytest.mark.parametrize("make, bad", [
        (GatedSkipNet, {"num_blocks": 0}), (GatedSkipNet, {"num_blocks": -1}),
        (GatedSkipNet, {"num_classes": True}), (GatedSkipNet, {"num_classes": 0}),
        (GatedSkipNet, {"gate_threshold": math.nan}), (GatedSkipNet, {"gate_threshold": 0.0}),
        (GatedSkipNet, {"gate_threshold": True}),
        (GatedSkipNet, {"sparsity_weight": math.nan}), (GatedSkipNet, {"sparsity_weight": -1.0}),
        (GatedSkipNet, {"sparsity_weight": math.inf}), (GatedSkipNet, {"sparsity_weight": True}),
        (EarlyExitNet, {"num_segments": 0}), (EarlyExitNet, {"num_segments": 2.0}),
        (EarlyExitNet, {"num_classes": -1}),
        (EarlyExitNet, {"entropy_threshold": math.nan}),
        (EarlyExitNet, {"entropy_threshold": math.inf}),
        (EarlyExitNet, {"entropy_threshold": True}),
        (FilterModel, {"num_blocks": -1}), (FilterModel, {"num_blocks": 1.5}),
        (FilterModel, {"num_classes": 0}),
        (EnergyEstimator, {"num_blocks": True}), (EnergyEstimator, {"val_fraction": True}),
    ], ids=lambda v: v.__name__ if isinstance(v, type) else "%s=%r" % next(iter(v.items())))
    def test_bad_model_setting_rejected_when_built(self, make, bad):
        with pytest.raises(ValueError, match=next(iter(bad))):
            make(**bad)
        model = make()
        with pytest.raises(ValueError, match=next(iter(bad))):
            model.set_params(**bad)
        assert model.get_params() == make().get_params()

    @pytest.mark.parametrize("make", FITTED_KINDS)
    def test_edge_settings_accepted(self, make):
        make(epochs=1, batch_size=1, lr=0.0)
        make(epochs=np.int64(2), batch_size=np.int32(4), lr=np.float64(0.1))
        make(input_dim=np.int64(3), width=np.int32(1))
        for seed in (-1, np.int64(-3), np.uint64(2**64 - 1), 2**70):
            assert make(seed=seed).seed == seed

    @pytest.mark.parametrize("make", FITTED_KINDS)
    def test_bad_setting_from_set_params_rejected_before_a_step(self, make, monkeypatch):
        steps = []
        monkeypatch.setattr(Adam, "step", lambda opt, grads: steps.append(1))
        X = generate_dataset(24, seed=3).inputs
        y = np.arange(24) % 2
        for bad in ({"batch_size": 0}, {"epochs": 2.5}, {"lr": math.nan}, {"epochs": True},
                    {"width": 0}, {"seed": 2.5}):
            model = make(epochs=1)
            with pytest.raises(ValueError, match=next(iter(bad))):
                model.set_params(**bad)
            assert model.get_params() == make(epochs=1).get_params()
            for key, value in bad.items():
                setattr(model, key, value)
            with pytest.raises(ValueError, match=next(iter(bad))):
                model.fit(X, y)
        assert not steps


class TestSerialization:
    def test_skip_roundtrip_is_bitwise(self, trained_skip, skip_dataset, tmp_path):
        path = tmp_path / "skip.json"
        save_model(trained_skip, path)
        loaded = load_model(path)
        X = skip_dataset.inputs[:16]
        assert np.array_equal(loaded.predict(X), trained_skip.predict(X))
        for a, b in zip(loaded._params(), trained_skip._params()):
            assert np.array_equal(a.data, b.data)

    def test_exit_roundtrip_is_bitwise(self, trained_exit, exit_dataset, tmp_path):
        path = tmp_path / "exit.json"
        save_model(trained_exit, path)
        loaded = load_model(path)
        X = exit_dataset.inputs[:16]
        assert np.array_equal(loaded.predict(X), trained_exit.predict(X))
        assert loaded.entropy_threshold == trained_exit.entropy_threshold

    def test_scripted_roundtrip(self, tmp_path):
        model = ScriptedAdnn([0.25, 0.5, 0.75], base_flops=100, block_flops=50)
        path = tmp_path / "scripted.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.thresholds == model.thresholds
        assert loaded.base_flops == model.base_flops
        assert loaded.block_flops == model.block_flops

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "mystery", "config": {}, "params": {}}\n')
        with pytest.raises(DataFormatError):
            load_model(path)

    @pytest.fixture(params=["skip", "exit"])
    def payload(self, request, trained_skip, trained_exit):
        model = trained_skip if request.param == "skip" else trained_exit
        return model_to_payload(model)

    def test_missing_config_rejected(self, payload):
        with pytest.raises(DataFormatError):
            model_from_payload({"kind": payload["kind"]})
        with pytest.raises(DataFormatError):
            model_from_payload(dict(payload, config={"width": 16}))

    def test_missing_parameter_rejected(self, payload):
        prefix = "blocks" if payload["kind"] == "skip" else "segments"
        params = dict(payload["params"])
        del params[prefix + ".2.lin1.bias"]
        with pytest.raises(DataFormatError):
            model_from_payload(dict(payload, params=params))

    @pytest.mark.parametrize("shape", [(64, 17), (63, 16)])
    def test_stem_shape_disagreeing_with_config_rejected(self, payload, shape):
        params = dict(payload["params"], **{"stem.weight": {
            "shape": list(shape), "data": [0.0] * (shape[0] * shape[1])}})
        with pytest.raises(DataFormatError):
            model_from_payload(dict(payload, params=params))

    def test_scripted_missing_config_rejected(self):
        with pytest.raises(DataFormatError):
            model_from_payload({"kind": "scripted", "config": {"thresholds": [0.5]}})

    def test_non_object_payload_rejected(self):
        with pytest.raises(DataFormatError):
            model_from_payload(["skip"])

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "trunc.json"
        path.write_text('{"kind": "skip", "config"')
        with pytest.raises(DataFormatError):
            load_model(path)


def _small_payloads():
    """A valid payload of every loader's kind, small enough to mutate anywhere."""
    rng = derive_rng(0, "payload-fuzz")
    skip = GatedSkipNet(input_dim=3, width=2, num_blocks=2, num_classes=2)._build(rng)
    exit_net = EarlyExitNet(input_dim=3, width=2, num_segments=2, num_classes=2)._build(rng)
    est = EnergyEstimator(input_dim=3, width=2, num_blocks=1, target_id="t")
    est._build(rng)
    est.energy_mean_, est.energy_scale_ = 2.0, 0.5
    return {
        "skip": model_to_payload(skip),
        "exit": model_to_payload(exit_net),
        "scripted": model_to_payload(ScriptedAdnn([0.25, 0.5], base_flops=100, block_flops=50)),
        "estimator": est.to_payload(),
    }


PAYLOADS = _small_payloads()


def _load(kind, payload):
    if kind == "estimator":
        return EnergyEstimator.from_payload(payload)
    return model_from_payload(payload)


def _paths(node, prefix=()):
    """Every key path into a JSON tree, the root's children first."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)


class TestLoaderFuzz:
    @pytest.mark.parametrize("kind", sorted(PAYLOADS))
    def test_valid_small_payload_loads(self, kind):
        _load(kind, copy.deepcopy(PAYLOADS[kind]))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_mutated_payload_raises_only_data_format_error(self, data):
        kind = data.draw(st.sampled_from(sorted(PAYLOADS)))
        payload = copy.deepcopy(PAYLOADS[kind])
        for _ in range(data.draw(st.integers(1, 3))):
            path = data.draw(st.sampled_from(list(_paths(payload))))
            parent = payload
            for key in path[:-1]:
                parent = parent[key]
            if isinstance(parent, dict) and data.draw(st.booleans()):
                del parent[path[-1]]
            else:
                parent[path[-1]] = data.draw(json_values)
        try:
            _load(kind, payload)
        except DataFormatError:
            pass

    @pytest.mark.parametrize("kind, key, value", [
        ("skip", "gate_threshold", 2), ("skip", "gate_threshold", "0.5"),
        ("skip", "input_dim", 0), ("skip", "width", 2.0), ("skip", "num_blocks", True),
        ("exit", "entropy_threshold", -1.0), ("exit", "num_segments", None),
        ("scripted", "thresholds", [0.5, 0.25]), ("scripted", "thresholds", [float("nan")]),
        ("scripted", "block_flops", -1), ("scripted", "num_classes", 0),
        ("estimator", "energy_mean", "x"), ("estimator", "energy_scale", float("inf")),
        ("estimator", "energy_scale", 0.0), ("estimator", "energy_scale", -1.0),
        ("estimator", "num_blocks", -2),
        ("skip", "input_dim", 2.5), ("skip", "width", math.nan), ("skip", "num_blocks", 0),
        ("skip", "num_classes", True), ("skip", "gate_threshold", math.nan),
        ("skip", "gate_threshold", math.inf), ("skip", "gate_threshold", True),
        ("exit", "input_dim", -1), ("exit", "width", True), ("exit", "num_segments", 0),
        ("exit", "num_classes", 2.0), ("exit", "entropy_threshold", math.nan),
        ("exit", "entropy_threshold", math.inf), ("exit", "entropy_threshold", False),
        ("scripted", "thresholds", [math.inf]), ("scripted", "thresholds", [True]),
        ("scripted", "thresholds", 0.5), ("scripted", "base_flops", -3),
        ("scripted", "base_flops", 2.5), ("scripted", "block_flops", True),
        ("scripted", "num_classes", math.nan), ("scripted", "num_classes", True),
        ("estimator", "input_dim", True), ("estimator", "width", 0),
        ("estimator", "num_blocks", 1.0), ("estimator", "energy_mean", math.nan),
        ("estimator", "energy_mean", -math.inf), ("estimator", "energy_mean", True),
        ("estimator", "energy_scale", True),
    ])
    def test_bad_config_value_rejected_before_any_parameter(self, kind, key, value):
        payload = copy.deepcopy(PAYLOADS[kind])
        payload["config"][key] = value
        # parameters that cannot parse: the config must be rejected first
        payload["params"] = {name: "not an array" for name in payload["params"]}
        with pytest.raises(DataFormatError, match="config"):
            _load(kind, payload)


GOLDEN = pathlib.Path(__file__).parent / "data"


class TestGoldenPayloads:
    """The saved form of each fitted kind, pinned byte for byte."""

    @pytest.mark.parametrize("kind", ["skip", "exit", "estimator"])
    def test_dump_and_reload_match_golden_file(self, kind, tmp_path):
        golden = GOLDEN / ("payload_%s.json" % kind)
        fresh = tmp_path / "fresh.json"
        dump_json(PAYLOADS[kind], fresh)
        assert fresh.read_bytes() == golden.read_bytes()
        loaded = _load(kind, load_json(golden))
        again = tmp_path / "again.json"
        dump_json(loaded.to_payload(), again)
        assert again.read_bytes() == golden.read_bytes()


def _small_model(kind):
    """A small model of `kind` with seeded, unfitted weights."""
    rng = derive_rng(40, "small-model", kind)
    if kind == "skip":
        return GatedSkipNet(input_dim=6, width=4, num_blocks=3, num_classes=3)._build(rng)
    if kind == "exit":
        return EarlyExitNet(input_dim=6, width=4, num_segments=4, num_classes=3)._build(rng)
    if kind == "estimator":
        model = EnergyEstimator(input_dim=6, width=4, num_blocks=2)
        model._build(rng)
        return model
    model = FilterModel(input_dim=6, width=4, num_blocks=2)
    model.stem_ = Dense.init(rng, 6, 4)
    model.blocks_ = [ResidualBlock.init(rng, 4) for _ in range(2)]
    model.head_ = Dense.init(rng, 4, 2)
    return model


def _soft_forward(model):
    """The model's one-node soft forward, `forward(x, heads=None)`."""
    return model._net()


def _array_forward(model):
    """The same forward on arrays, `forward_terms(x, heads=None)`."""
    return getattr(model, "forward_terms", model._net().terms)


MODEL_KINDS = ["skip", "exit", "estimator", "filter"]


class TestHeadSelectiveNode:
    """`heads` keeps the first heads' logits and the gate values, and runs
    only the layers they read; what it keeps is the full node's, bit for bit."""

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_kept_columns_and_gradients_equal_the_full_node(self, kind):
        model = _small_model(kind)
        forward, net = _soft_forward(model), model._net()
        c, num_heads = net.out_dim, net.num_heads
        rng = derive_rng(41, "heads-oracle", kind)
        x = Tensor(rng.uniform(0.0, 1.0, size=(3, model.input_dim)))
        full = forward(x)
        for k in range(0 if net.gated else 1, num_heads + 1):
            part = forward(x, k)
            keep = np.r_[0:k * c, num_heads * c:full.shape[1]]
            assert part.data.tobytes() == full.data[:, keep].tobytes()
            one_row = forward(Tensor(x.data[:1]), k).data
            assert forward(Tensor(x.data[0]), k).data.tobytes() == one_row[0].tobytes()
            # the dropped heads get a zero incoming gradient
            seed = rng.normal(size=part.shape)
            seed_full = np.zeros(full.shape)
            seed_full[:, keep] = seed
            got = gradients(tsum(part * Tensor(seed)), [x, net.theta])
            want = gradients(tsum(full * Tensor(seed_full)), [x, net.theta])
            assert [g.tobytes() for g in got] == [g.tobytes() for g in want]

    @pytest.mark.parametrize("kind, bad", [
        ("skip", -1), ("skip", 2), ("skip", 1.0), ("skip", "1"),
        ("exit", 0), ("exit", 5), ("estimator", 0), ("filter", 2),
    ] + [(kind, flag) for kind in MODEL_KINDS for flag in (True, False)])
    def test_bad_head_count_rejected(self, kind, bad):
        # through the node and the array form alike
        model = _small_model(kind)
        x = np.ones((1, 6))
        with pytest.raises(ValueError, match="heads"):
            _soft_forward(model)(Tensor(x), bad)
        with pytest.raises(ValueError, match="heads"):
            _array_forward(model)(x, bad)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_array_form_equals_the_node(self, kind):
        # output and product toward the input, bit for bit, on a batch and a vector
        model = _small_model(kind)
        forward, terms, net = _soft_forward(model), _array_forward(model), model._net()
        rng = derive_rng(43, "terms-oracle", kind)
        for shape in ((3, 6), (6,)):
            x = rng.uniform(0.0, 1.0, size=shape)
            for k in [None] + list(range(0 if net.gated else 1, net.num_heads + 1)):
                xt = Tensor(x)
                node = forward(xt, k)
                out, vjp = terms(x, k)
                assert out.shape == node.shape and out.tobytes() == node.data.tobytes()
                seed = rng.normal(size=out.shape)
                want = gradients(tsum(node * Tensor(seed)), [xt])[0]
                assert vjp(seed).tobytes() == want.tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("kind", ["skip", "exit"])
    def test_array_form_checks_what_the_node_checks(self, kind):
        model = _small_model(kind)
        width, big = model.width, np.finfo(np.float64).max
        model.stem_ = Dense(np.full((6, width), big), np.zeros(width))
        x = np.full((1, 6), 10.0)
        with pytest.raises(NonFiniteError, match="residual_mlp"):
            model.forward_terms(x)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("kind, layer", [
        ("skip", "stem"), ("skip", "block"), ("skip", "head"),
        ("exit", "block"), ("exit", "head"),
    ])
    def test_a_layer_the_kept_outputs_do_not_read_is_not_run(self, kind, layer):
        model = _small_model(kind)
        x = derive_rng(42, "overflow-input").uniform(5.0, 10.0, size=(2, 6))
        # the gates alone, or every exit but the last
        kept = 0 if kind == "skip" else model.num_segments - 1
        before = model.forward_terms(x, kept)[0].tobytes()
        blocks = model.blocks_ if kind == "skip" else model.segments_
        width, big = model.width, np.finfo(np.float64).max
        if layer == "stem":
            model.stem_ = Dense(np.full((6, width), big), np.zeros(width))
        elif layer == "block":
            blocks[-1] = ResidualBlock(Dense(np.full((width, width), big), np.zeros(width)),
                                       blocks[-1].lin2)
        elif kind == "skip":
            model.head_ = Dense(np.full((width, 3), big), np.zeros(3))
        else:
            model.exit_heads_[-1] = Dense(np.full((width, 3), big), np.zeros(3))
        with pytest.raises(NonFiniteError, match="residual_mlp"):
            model.forward_terms(x)
        assert model.forward_terms(x, kept)[0].tobytes() == before


class TestSetParams:
    """set_params checks a value as the constructor does, before it assigns."""

    @pytest.mark.parametrize("make, bad", [
        (GatedSkipNet, {"gate_threshold": 1.5}),
        (GatedSkipNet, {"gate_threshold": 0.7, "epochs": 0}),
        (EarlyExitNet, {"entropy_threshold": -1.0}),
        (EnergyEstimator, {"batch_size": 0}),
        (FilterModel, {"lr": math.nan}),
        (EnergyModel, {"base_joules": -1.0}),
        (EnergyModel, {"per_block_joules": [0.5, 0.0]}),
        (EnergyModel, {"noise_sigma": -0.1}),
    ], ids=lambda v: v.__name__ if isinstance(v, type) else ",".join(v))
    def test_bad_value_raises_and_leaves_the_model_unchanged(self, make, bad):
        model = make()
        before = model.get_params()
        with pytest.raises(ValueError):
            model.set_params(**bad)
        assert model.get_params() == before

    @pytest.mark.parametrize("make", [GatedSkipNet, EarlyExitNet, EnergyEstimator,
                                      FilterModel, EnergyModel])
    def test_unknown_name_raises(self, make):
        model = make()
        with pytest.raises(ValueError, match="unknown parameter"):
            model.set_params(seed=1, no_such_parameter=1)
        assert model.seed == 0

    def test_good_values_are_stored_as_the_constructor_stores_them(self):
        energy = EnergyModel().set_params(base_joules=2, per_block_joules=(1, 2))
        built = EnergyModel(base_joules=2, per_block_joules=(1, 2))
        assert energy.get_params() == built.get_params()
        assert type(energy.base_joules) is float and energy.per_block_joules == [1.0, 2.0]

    @pytest.mark.parametrize("kind", ["skip", "exit"])
    def test_fitted_state_is_kept(self, kind):
        model = _small_model(kind)
        stem = model.stem_
        key = "gate_threshold" if kind == "skip" else "entropy_threshold"
        assert model.set_params(**{key: 0.25}) is model
        assert getattr(model, key) == 0.25 and model.stem_ is stem
