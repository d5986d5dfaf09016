"""Test-input generation: reparameterization, black-box loss surfaces,
white-box hinge objectives, and the surrogate replay pipeline."""

import math

import numpy as np
import pytest

from adnn_energy_lab.attacks import (
    IlfoAttack,
    IlfoConfig,
    InputBasedAttack,
    TestGenConfig as GenConfig,
    UniversalAttack,
    generate,
    ilfo_attack,
    ilfo_exit_loss,
    ilfo_gate_loss,
    input_based_loss,
    reparam,
    surrogate_pipeline,
    universal_loss,
)
from adnn_energy_lab.autodiff import Tensor, gradients, tsum
from adnn_energy_lab.data import estimator_corpus
from adnn_energy_lab.energy import EnergyModel, measure_energy
from adnn_energy_lab.estimator import EnergyEstimator, predict_energy
from adnn_energy_lab.models import (
    EarlyExitNet,
    GatedSkipNet,
    make_scripted,
    scripted_gate_analogue,
)
from adnn_energy_lab.seeding import derive_rng

SCRIPTED = make_scripted(8, [(i + 0.5) / 8 for i in range(8)], 2176, 1024)
NOISELESS = EnergyModel(base_joules=1.0, per_block_joules=0.5, noise_sigma=0.0)


class ConstantEstimator:
    """Stub predicting the same energy everywhere; gradient w.r.t. input is 0."""

    def __init__(self, value, input_dim=64):
        self.value = value
        self.input_dim = input_dim

    def predict_tensor(self, f):
        return Tensor(np.float64(self.value)) + tsum(f) * 0.0


class PixelMeanEstimator:
    """Stub whose predicted joules equal the mean pixel value."""

    input_dim = 64

    def predict_tensor(self, f):
        return tsum(f) * (1.0 / self.input_dim)


@pytest.fixture(scope="module")
def trained_estimator():
    X = estimator_corpus(160, seed=5)
    y = np.array([measure_energy(SCRIPTED, NOISELESS, x).mean for x in X])
    return EnergyEstimator(epochs=250, seed=0).fit(X, y)


class TestReparam:
    def test_zero_maps_to_half(self):
        out = reparam(Tensor(np.zeros(8)))
        assert np.all(out.data == 0.5)

    def test_large_positive_saturates_to_one(self):
        out = reparam(Tensor(np.full(4, 20.0)))
        assert np.all(np.abs(out.data - 1.0) < 1e-9)

    def test_large_negative_saturates_to_zero(self):
        out = reparam(Tensor(np.full(4, -20.0)))
        assert np.all(np.abs(out.data) < 1e-9)

    def test_open_interval_inside_float_range(self):
        # beyond |w| ~ 19 float64 tanh rounds to exactly +-1, so strict
        # openness is only testable where the math is representable
        rng = derive_rng(0, "reparam-range")
        out = reparam(Tensor(rng.uniform(-8, 8, size=200)))
        assert np.all(out.data > 0.0) and np.all(out.data < 1.0)


class TestBlackBoxLosses:
    def test_zero_perturbation_tiny_c_gives_near_zero_loss(self):
        x = np.linspace(0.1, 0.9, 16).reshape(1, -1)
        w = Tensor(np.arctanh(2 * x - 1))
        est = ConstantEstimator(3.0, input_dim=16)
        loss = input_based_loss(w, x, 1e-12, est)
        assert abs(float(loss.data)) < 1e-9

    def test_constant_estimator_distance_minus_ck(self):
        x = np.full((1, 8), 0.5)
        w = Tensor(np.full((1, 8), 0.3))
        est = ConstantEstimator(2.0, input_dim=8)
        f = reparam(w).data
        expected = np.linalg.norm(f - x) - 4.0 * 2.0
        assert float(input_based_loss(w, x, 4.0, est).data) == pytest.approx(expected, rel=1e-12)

    def test_loss_never_increases_in_c_when_energy_positive(self, trained_estimator):
        rng = derive_rng(1, "c-monotone")
        x = rng.uniform(0, 1, size=(1, 64))
        w = Tensor(rng.normal(0, 0.5, size=(1, 64)))
        losses = [float(input_based_loss(w, x, c, trained_estimator).data)
                  for c in (1.0, 10.0, 100.0)]
        assert losses[0] >= losses[1] >= losses[2]

    def test_universal_loss_is_negated_prediction(self, trained_estimator):
        rng = derive_rng(2, "universal-loss")
        w = rng.normal(0, 0.5, size=(1, 64))
        loss = float(universal_loss(Tensor(w), trained_estimator).data)
        f = reparam(Tensor(w)).data.reshape(-1)
        assert loss == -predict_energy(trained_estimator, f)

    def test_constant_estimator_universal_gradient_is_zero(self):
        w = Tensor(np.full((1, 8), 0.2))
        loss = universal_loss(w, ConstantEstimator(5.0, input_dim=8))
        grad = gradients(loss, [w])[0]
        assert np.all(grad == 0.0)


class TestConfigValidation:
    def test_bad_mode(self):
        with pytest.raises(ValueError):
            GenConfig(mode="sideways")

    def test_nonpositive_c(self):
        with pytest.raises(ValueError):
            GenConfig(c=0.0)

    def test_negative_iterations(self):
        with pytest.raises(ValueError):
            GenConfig(iterations=-1)

    def test_zero_iterations_allowed(self):
        assert GenConfig(iterations=0).iterations == 0

    def test_restarts_floor(self):
        with pytest.raises(ValueError):
            GenConfig(restarts=0)

    def test_ilfo_bad_target(self):
        with pytest.raises(ValueError):
            IlfoConfig(target="layer")

    def test_ilfo_negative_margin(self):
        with pytest.raises(ValueError):
            IlfoConfig(margin=-0.1)


class TestInputBasedGeneration:
    def test_zero_iterations_returns_near_half_image(self):
        est = ConstantEstimator(1.0)
        cfg = GenConfig(mode="input_based", iterations=0)
        f = InputBasedAttack(est, cfg).generate(np.full(64, 0.2))
        # w0 ~ N(0, 0.1^2) so reparam stays in a narrow band around 0.5
        assert f.shape == (64,)
        assert np.all(np.abs(f - 0.5) < 0.25)

    def test_deterministic_per_seed_and_input(self, trained_estimator):
        cfg = GenConfig(mode="input_based", iterations=5)
        x = np.full(64, 0.1)
        a = InputBasedAttack(trained_estimator, cfg).generate(x)
        b = InputBasedAttack(trained_estimator, cfg).generate(x)
        assert np.array_equal(a, b)

    def test_seed_changes_output(self, trained_estimator):
        x = np.full(64, 0.1)
        a = InputBasedAttack(trained_estimator, GenConfig(iterations=5, seed=0)).generate(x)
        b = InputBasedAttack(trained_estimator, GenConfig(iterations=5, seed=1)).generate(x)
        assert not np.array_equal(a, b)

    def test_input_changes_rng_stream(self, trained_estimator):
        cfg = GenConfig(iterations=0)
        a = InputBasedAttack(trained_estimator, cfg).generate(np.full(64, 0.1))
        b = InputBasedAttack(trained_estimator, cfg).generate(np.full(64, 0.9))
        assert not np.array_equal(a, b)

    def test_best_loss_never_above_final(self, trained_estimator):
        cfg = GenConfig(mode="input_based", iterations=40, track_best=True)
        attack = InputBasedAttack(trained_estimator, cfg)
        attack.generate(np.full(64, 0.3))
        assert attack.best_loss_ <= attack.final_loss_
        assert len(attack.history_) == 40

    def test_raises_energy_on_min_energy_seed(self, trained_estimator):
        x = np.full(64, 0.02)
        cfg = GenConfig(mode="input_based", c=100.0, iterations=150)
        f = InputBasedAttack(trained_estimator, cfg).generate(x)
        assert SCRIPTED.infer(f).flops > SCRIPTED.infer(x).flops


class TestUniversalGeneration:
    def test_mean_estimator_drives_pixels_toward_one(self):
        cfg = GenConfig(mode="universal", iterations=200, restarts=2)
        f = UniversalAttack(PixelMeanEstimator(), cfg).generate()
        assert f.mean() > 0.9

    def test_best_restart_has_minimal_recorded_loss(self, trained_estimator):
        cfg = GenConfig(mode="universal", iterations=10, restarts=6)
        attack = UniversalAttack(trained_estimator, cfg)
        attack.generate()
        assert len(attack.restart_losses_) == 6
        assert attack.best_loss_ == min(attack.restart_losses_)
        assert attack.best_restart_ == int(np.argmin(attack.restart_losses_))

    def test_returns_best_restart_input(self, trained_estimator):
        cfg = GenConfig(mode="universal", iterations=10, restarts=6)
        attack = UniversalAttack(trained_estimator, cfg)
        f = attack.generate()
        assert np.array_equal(f, attack.restart_inputs_[attack.best_restart_])
        # ties go to the first restart
        tied = UniversalAttack(ConstantEstimator(2.0),
                               GenConfig(mode="universal", iterations=2, restarts=3))
        f = tied.generate()
        assert tied.best_restart_ == 0
        assert np.array_equal(f, tied.restart_inputs_[0])

    def test_deterministic(self, trained_estimator):
        cfg = GenConfig(mode="universal", iterations=8, restarts=3)
        a = UniversalAttack(trained_estimator, cfg).generate()
        b = UniversalAttack(trained_estimator, cfg).generate()
        assert np.array_equal(a, b)

    def test_output_in_unit_cube_across_random_configs(self):
        # range is structural (tanh), so a cheap stub estimator suffices
        est = PixelMeanEstimator()
        rng = derive_rng(0, "cfg-sweep")
        for trial in range(1000):
            mode = "universal" if rng.uniform() < 0.5 else "input_based"
            cfg = GenConfig(
                mode=mode,
                c=float(rng.uniform(0.5, 200.0)),
                lr=float(rng.uniform(0.001, 0.5)),
                iterations=int(rng.integers(0, 3)),
                restarts=int(rng.integers(1, 3)),
                seed=int(rng.integers(0, 10_000)),
            )
            x = rng.uniform(0, 1, size=64) if mode == "input_based" else None
            f = generate(mode, x, cfg, est)
            assert f.shape == (64,)
            assert np.all(f >= 0.0) and np.all(f <= 1.0)


class TestGenerateDispatch:
    def test_input_based_requires_seed_input(self, trained_estimator):
        with pytest.raises(ValueError):
            generate("input_based", None, GenConfig(iterations=1), trained_estimator)

    def test_mode_override(self, trained_estimator):
        cfg = GenConfig(mode="input_based", iterations=3, restarts=2)
        f = generate("universal", None, cfg, trained_estimator)
        assert f.shape == (64,)

    def test_black_box_boundary_only_needs_estimator_surface(self):
        # anything exposing predict_tensor and input_dim is a valid oracle;
        # the attack never touches model internals or labels
        f = generate("universal", None,
                     GenConfig(mode="universal", iterations=2, restarts=1),
                     PixelMeanEstimator())
        assert f.shape == (64,)


class TestIlfoHinges:
    def test_gate_hand_example(self):
        assert ilfo_gate_loss([0.6, 0.3], 0.5) == pytest.approx(0.2, abs=1e-12)

    def test_gate_all_clear(self):
        assert ilfo_gate_loss([0.5, 0.7, 0.99], 0.5) == 0.0

    def test_gate_all_zero_eight_gates(self):
        assert ilfo_gate_loss(np.zeros(8), 0.5) == 4.0

    def test_exit_hand_example(self):
        assert ilfo_exit_loss([0.2], 0.5, margin=0.1) == pytest.approx(0.4, abs=1e-12)

    def test_exit_boundary_inclusive_at_zero_margin(self):
        assert ilfo_exit_loss([0.5], 0.5, margin=0.0) == 0.0

    def test_exit_all_clear(self):
        assert ilfo_exit_loss([0.8, 0.9], 0.5, margin=0.1) == 0.0

    def test_exit_negative_margin_rejected(self):
        with pytest.raises(ValueError):
            ilfo_exit_loss([0.5], 0.5, margin=-0.01)

    def test_gate_matches_brute_force_on_random_vectors(self):
        rng = derive_rng(3, "hinge-gate")
        for _ in range(1000):
            n = int(rng.integers(1, 12))
            values = rng.uniform(0, 1, size=n)
            threshold = float(rng.uniform(0, 1))
            expected = math.fsum(max(0.0, threshold - v) for v in values)
            assert ilfo_gate_loss(values, threshold) == expected
            tensor_val = float(ilfo_gate_loss(Tensor(values), threshold).data)
            assert tensor_val == pytest.approx(expected, abs=1e-12)

    def test_exit_matches_brute_force_on_random_vectors(self):
        rng = derive_rng(4, "hinge-exit")
        for _ in range(1000):
            n = int(rng.integers(1, 6))
            values = rng.uniform(0, 2, size=n)
            threshold = float(rng.uniform(0, 1.5))
            margin = float(rng.uniform(0, 0.3))
            expected = math.fsum(max(0.0, threshold + margin - v) for v in values)
            assert ilfo_exit_loss(values, threshold, margin) == expected
            tensor_val = float(ilfo_exit_loss(Tensor(values), threshold, margin).data)
            assert tensor_val == pytest.approx(expected, abs=1e-12)

    def test_zero_exactly_on_feasible_set(self):
        rng = derive_rng(5, "hinge-feasible")
        for _ in range(200):
            values = rng.uniform(0, 1, size=4)
            threshold = float(rng.uniform(0.1, 0.9))
            loss = ilfo_gate_loss(values, threshold)
            if np.all(values >= threshold):
                assert loss == 0.0
            else:
                assert loss > 0.0


class TestIlfoAttack:
    def test_min_loss_sequence_non_increasing(self):
        net = scripted_gate_analogue([0.3, 0.5, 0.7])
        attack = IlfoAttack(net, IlfoConfig(iterations=60))
        attack.generate(np.full(64, 0.2))
        seq = attack.min_losses_
        assert len(seq) == 61
        assert all(b <= a for a, b in zip(seq, seq[1:]))

    def test_already_feasible_seed_stays_put(self):
        net = scripted_gate_analogue([0.2, 0.4, 0.6])
        x = np.full(64, 0.9)
        f = ilfo_attack(net, x, IlfoConfig(iterations=50))
        assert float(np.linalg.norm(f - x)) < 1e-3

    def test_activates_all_gates_from_low_mean_seed(self):
        net = scripted_gate_analogue([0.3, 0.45, 0.6, 0.75])
        x = np.full(64, 0.2)
        before = net.infer(x)
        f = ilfo_attack(net, x, IlfoConfig(c=100.0, iterations=300))
        after = net.infer(f)
        assert sum(before.gate_decisions) == 0
        assert sum(after.gate_decisions) == 4

    def test_threshold_falls_back_to_model_attribute(self):
        net = scripted_gate_analogue([0.3, 0.6])
        attack = IlfoAttack(net, IlfoConfig(iterations=0))
        assert attack._threshold() == net.gate_threshold

    def test_exit_target_runs_on_early_exit_model(self):
        net = EarlyExitNet(input_dim=16, width=8, num_segments=3, num_classes=3,
                           entropy_threshold=0.4)
        net._build(derive_rng(0, "exit-attack-fixture"))
        x = derive_rng(1, "exit-attack-seed").uniform(0, 1, size=16)
        attack = IlfoAttack(net, IlfoConfig(target="exit", iterations=30))
        f = attack.generate(x)
        assert f.shape == (16,)
        assert np.all(f >= 0.0) and np.all(f <= 1.0)
        seq = attack.min_losses_
        assert all(b <= a for a, b in zip(seq, seq[1:]))

    def test_deterministic(self):
        net = scripted_gate_analogue([0.4, 0.6])
        x = np.full(64, 0.1)
        a = ilfo_attack(net, x, IlfoConfig(iterations=20))
        b = ilfo_attack(net, x, IlfoConfig(iterations=20))
        assert np.array_equal(a, b)


class FrozenSurrogate(GatedSkipNet):
    """Surrogate stand-in whose training is a no-op, for same-weights
    transfer sanity checks."""

    def fit(self, X, y):
        return self


def frozen_analogue(thresholds):
    net = scripted_gate_analogue(thresholds)
    frozen = FrozenSurrogate(input_dim=net.input_dim, width=net.width,
                             num_blocks=net.num_blocks, num_classes=net.num_classes)
    for attr in ("stem_", "blocks_", "gate_weights_", "gate_biases_", "head_",
                 "_input_pool"):
        setattr(frozen, attr, getattr(net, attr))
    return frozen


class TestSurrogatePipeline:
    def test_self_transfer_is_perfect(self):
        net = frozen_analogue([0.25, 0.4, 0.55, 0.7])
        rng = derive_rng(6, "self-transfer")
        inputs = rng.uniform(0.1, 0.2, size=(5, 64))
        tests, report = surrogate_pipeline(
            net, net, inputs, IlfoConfig(c=100.0, iterations=300))
        assert report["itp"] == 100.0
        assert report["etp"] == 100.0
        assert len(tests) == 5

    def test_mismatched_target_reports_without_error(self):
        surrogate = frozen_analogue([0.3, 0.5])
        target = make_scripted(2, [0.98, 0.99], 100, 50)
        rng = derive_rng(7, "mismatch")
        inputs = rng.uniform(0.05, 0.15, size=(4, 64))
        tests, report = surrogate_pipeline(
            target, surrogate, inputs, IlfoConfig(c=100.0, iterations=100))
        assert report["itp"] == 0.0
        assert report["etp"] == 0.0

    def test_inputs_already_at_max_are_excluded(self):
        net = frozen_analogue([0.25, 0.4])
        rng = derive_rng(8, "excluded")
        low = rng.uniform(0.1, 0.2, size=(3, 64))
        high = np.full((1, 64), 0.9)
        tests, report = surrogate_pipeline(
            net, net, np.vstack([low, high]),
            IlfoConfig(c=100.0, iterations=300))
        assert report["excluded"] == 1
        assert len(report["records"]) == 3
        assert len(tests) == 4

    def test_empty_replay_set_raises(self):
        surrogate = frozen_analogue([0.3, 0.5])
        target = make_scripted(2, [0.01, 0.02], 100, 50)
        inputs = np.full((3, 64), 0.9)
        with pytest.raises(ValueError):
            surrogate_pipeline(target, surrogate, inputs, IlfoConfig(iterations=5))

    def test_rejects_empty_input_matrix(self):
        surrogate = frozen_analogue([0.5])
        with pytest.raises(ValueError):
            surrogate_pipeline(SCRIPTED, surrogate, np.empty((0, 64)))
