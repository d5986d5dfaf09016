"""Adaptive model behavior: gating, early exits, FLOPs accounting,
training dynamics, and serialization."""

import copy
import math

import numpy as np
import pytest

from adnn_energy_lab.autodiff import Tensor, relu, softmax
from adnn_energy_lab.base import NotFittedError
from adnn_energy_lab.data import generate_dataset
from adnn_energy_lab.defense import FilterModel
from adnn_energy_lab.models import (
    EarlyExitNet,
    ExecutionTrace,
    GatedSkipNet,
    ScriptedAdnn,
    entropy,
    flops_of_trace,
    load_model,
    make_scripted,
    save_model,
    scripted_gate_analogue,
)
from adnn_energy_lab.nn import Dense, ResidualBlock
from adnn_energy_lab.seeding import derive_rng
from adnn_energy_lab.serialize import DataFormatError


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
        model = make_scripted(4, [0.2, 0.4, 0.6, 0.8], 100, 256)
        trace = model.infer(np.full(64, 0.5))
        assert trace.active_units == 2
        assert trace.flops == 612
        assert flops_of_trace(model, trace) == 612

    def test_zero_active_blocks_cost_base_only(self):
        model = make_scripted(4, [0.2, 0.4, 0.6, 0.8], 100, 256)
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
        other = make_scripted(2, [0.3, 0.6], 10, 5)
        trace = other.infer(np.full(64, 0.9))
        with pytest.raises(ValueError):
            flops_of_trace(trained_skip, trace)


class TestScriptedModel:
    def test_all_zeros_activates_nothing(self):
        model = make_scripted(4, [0.2, 0.4, 0.6, 0.8], 100, 256)
        assert model.infer(np.zeros(64)).active_units == 0

    def test_all_ones_activates_everything(self):
        model = make_scripted(4, [0.2, 0.4, 0.6, 0.8], 100, 256)
        assert model.infer(np.ones(64)).active_units == 4

    def test_non_ascending_thresholds_rejected(self):
        with pytest.raises(ValueError):
            make_scripted(2, [0.6, 0.4], 100, 256)

    def test_out_of_range_thresholds_rejected(self):
        with pytest.raises(ValueError):
            ScriptedAdnn([0.5, 1.5])

    def test_activation_monotone_in_mean(self):
        model = make_scripted(8, [(i + 0.5) / 8 for i in range(8)], 2176, 1024)
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
        h = relu(net.stem_(Tensor(x)))
        direct = net.head_(h).data
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
        scripted = make_scripted(4, thresholds, analogue.base_flops, analogue.block_flops)
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
        all_logits = [l.data for l in net.forward_exits(Tensor(X))]
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
        model = make_scripted(3, [0.25, 0.5, 0.75], 100, 50)
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

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "trunc.json"
        path.write_text('{"kind": "skip", "config"')
        with pytest.raises(DataFormatError):
            load_model(path)
