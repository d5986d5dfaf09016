"""Test-input generation: reparameterization, black-box loss surfaces,
white-box hinge objectives, and the surrogate replay pipeline."""

import collections
import math
import sys
import warnings

import numpy as np
import pytest

from adnn_energy_lab.attacks import (
    IlfoAttack,
    IlfoConfig,
    InputBasedAttack,
    TestGenConfig as GenConfig,
    UniversalAttack,
    _scorer,
    _universal_terms,
    ilfo_exit_loss,
    ilfo_gate_loss,
    input_based_loss,
    surrogate_pipeline,
)
from adnn_energy_lab.autodiff import (NonFiniteError, ShapeError, Tensor, gradients,
                                      tanh_unit_terms, tsum)
from adnn_energy_lab.data import estimator_corpus
from adnn_energy_lab.defense import FilterModel
from adnn_energy_lab.energy import EnergyModel, measure_energy
from adnn_energy_lab.estimator import EnergyEstimator
from adnn_energy_lab.models import (
    EarlyExitNet,
    GatedSkipNet,
    ScriptedAdnn,
    scripted_gate_analogue,
)
from adnn_energy_lab.nn import Dense
from adnn_energy_lab.seeding import derive_rng

from oracles import (
    ilfo_graph_reference,
    ilfo_two_forward_reference,
    input_based_graph_reference,
    surrogate_records_reference,
    unfused_ilfo_attack_loss,
    unfused_estimator_prediction,
    unfused_input_based_loss,
    unfused_universal_loss,
    universal_graph_reference,
    universal_per_restart_reference,
)

SCRIPTED = ScriptedAdnn([(i + 0.5) / 8 for i in range(8)], base_flops=2176, block_flops=1024)
NOISELESS = EnergyModel(base_joules=1.0, per_block_joules=0.5, noise_sigma=0.0)


class ConstantEstimator:
    """Stub predicting the same energy everywhere; gradient w.r.t. input is 0.
    `predict_terms` is `graph_prediction`'s graph on arrays."""

    def __init__(self, value, input_dim=64):
        self.value = value
        self.input_dim = input_dim

    def graph_prediction(self, f):
        return Tensor(np.float64(self.value)) + tsum(f) * 0.0

    def predict_terms(self, f):
        return np.float64(self.value) + f.sum() * 0.0, lambda g: np.full(f.shape, g * 0.0)


class PixelMeanEstimator:
    """Stub whose predicted joules equal the mean pixel value."""

    input_dim = 64

    def graph_prediction(self, f):
        return tsum(f) * (1.0 / self.input_dim)

    def predict_terms(self, f):
        scale = 1.0 / self.input_dim
        return f.sum() * scale, lambda g: np.full(f.shape, g * scale)


def universal_score(estimator):
    """The universal attack's iterate on arrays: w -> (loss, grad)."""
    return _scorer(estimator.predict_terms, _universal_terms, "universal_loss")


@pytest.fixture(scope="module")
def trained_estimator():
    X = estimator_corpus(160, seed=5)
    y = np.array([measure_energy(SCRIPTED, NOISELESS, x).mean for x in X])
    return EnergyEstimator(epochs=250, seed=0).fit(X, y)


def reparam(w):
    return tanh_unit_terms(np.asarray(w, dtype=np.float64))[0]


class TestReparam:
    def test_zero_maps_to_half(self):
        assert np.all(reparam(np.zeros(8)) == 0.5)

    def test_large_positive_saturates_to_one(self):
        assert np.all(np.abs(reparam(np.full(4, 20.0)) - 1.0) < 1e-9)

    def test_large_negative_saturates_to_zero(self):
        assert np.all(np.abs(reparam(np.full(4, -20.0))) < 1e-9)

    def test_open_interval_inside_float_range(self):
        # beyond |w| ~ 19 float64 tanh rounds to exactly +-1, so strict
        # openness is only testable where the math is representable
        rng = derive_rng(0, "reparam-range")
        out = reparam(rng.uniform(-8, 8, size=200))
        assert np.all(out > 0.0) and np.all(out < 1.0)


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
        f = reparam(w.data)
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
        loss = float(universal_score(trained_estimator)(w)[0])
        f = reparam(w).reshape(-1)
        assert loss == -float(trained_estimator.predict(f)[0])

    def test_constant_estimator_universal_gradient_is_zero(self):
        grad = universal_score(ConstantEstimator(5.0, input_dim=8))(np.full((1, 8), 0.2))[1]()
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

    @pytest.mark.parametrize("field, value", [
        ("lr", -1.0), ("lr", math.nan), ("lr", 0.0), ("c", math.inf), ("c", math.nan),
        ("iterations", 2.5), ("restarts", 1.5), ("c", "100"),
        ("seed", 2.5), ("seed", math.nan), ("seed", "1"),
        ("seed", True), ("restarts", True), ("restarts", -1), ("lr", True), ("lr", math.inf),
        ("c", True), ("c", -math.inf), ("iterations", True), ("iterations", math.nan),
        ("track_best", 2), ("track_best", "yes"), ("track_best", None),
    ])
    def test_bad_numbers_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            GenConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("lr", -1.0), ("lr", math.nan), ("c", math.inf), ("c", math.nan),
        ("iterations", 2.5), ("threshold", math.nan), ("threshold", math.inf),
        ("margin", math.nan),
        ("iterations", True), ("iterations", -1), ("lr", True), ("lr", 0.0), ("c", True),
        ("c", -1.0), ("threshold", True), ("threshold", -math.inf), ("threshold", "0.5"),
        ("margin", True), ("margin", math.inf),
    ])
    def test_ilfo_bad_numbers_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            IlfoConfig(**{field: value})

    def test_numpy_numbers_accepted(self):
        cfg = GenConfig(c=np.float64(2.0), lr=np.float32(0.1), iterations=np.int64(3),
                        restarts=np.int32(2), seed=np.int64(7))
        assert cfg.iterations == 3
        assert cfg.seed == 7
        assert GenConfig(seed=-1).seed == -1
        assert GenConfig(seed=2**70, track_best=np.bool_(True)).seed == 2**70
        assert IlfoConfig(threshold=np.float64(0.4), margin=0.0).threshold == 0.4
        assert IlfoConfig(threshold=None, iterations=0).threshold is None

    def test_surrogate_pipeline_fails_before_fitting(self):
        surrogate = GatedSkipNet(width=8, num_blocks=2, epochs=5)
        with pytest.raises(ValueError, match="lr"):
            surrogate_pipeline(SCRIPTED, surrogate, np.full((3, 64), 0.2),
                               IlfoConfig(lr=math.nan, iterations=5))
        assert surrogate.history_ is None


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

    def test_track_best_returns_the_best_iterate(self, trained_estimator):
        # a large step makes the loss climb back after its minimum
        x = np.full(64, 0.1)
        cfg = GenConfig(mode="input_based", c=1.0, lr=0.8, iterations=40,
                        track_best=True)
        attack = InputBasedAttack(trained_estimator, cfg)
        f = attack.generate(x)
        assert attack.best_loss_ < attack.final_loss_
        recomputed = (float(np.linalg.norm(f - x))
                      - float(trained_estimator.predict(f)[0]))
        assert abs(recomputed - attack.best_loss_) < 1e-9

    def test_history_holds_the_loss_before_each_step(self, trained_estimator):
        cfg = GenConfig(mode="input_based", iterations=3)
        attack = InputBasedAttack(trained_estimator, cfg)
        x = np.full(64, 0.3)
        attack.generate(x)
        start = InputBasedAttack(trained_estimator,
                                 GenConfig(mode="input_based", iterations=0))
        start.generate(x)
        assert attack.history_[0] == start.final_loss_

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

    def test_batched_restarts_match_per_restart_reference(self, trained_estimator):
        cfg = GenConfig(mode="universal", iterations=30, restarts=5, seed=3)
        attack = UniversalAttack(trained_estimator, cfg)
        f = attack.generate()
        inputs, losses = universal_per_restart_reference(trained_estimator, cfg)
        assert len(attack.restart_inputs_) == len(inputs) == 5
        for got, want in zip(attack.restart_inputs_, inputs):
            assert np.max(np.abs(got - want)) <= 1e-12
        assert np.max(np.abs(np.subtract(attack.restart_losses_, losses))) <= 1e-12
        assert attack.best_restart_ == int(np.argmin(losses))
        assert np.array_equal(f, attack.restart_inputs_[attack.best_restart_])

    def test_stub_restarts_equal_per_restart_reference(self):
        # the mean stub's gradient is the same constant for every row, so
        # the batched run is exact
        cfg = GenConfig(mode="universal", iterations=5, restarts=3, lr=0.1)
        attack = UniversalAttack(PixelMeanEstimator(), cfg)
        attack.generate()
        inputs, losses = universal_per_restart_reference(PixelMeanEstimator(), cfg)
        assert attack.restart_losses_ == losses
        for got, want in zip(attack.restart_inputs_, inputs):
            assert np.array_equal(got, want)

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
            if mode == "input_based":
                f = InputBasedAttack(est, cfg).generate(rng.uniform(0, 1, size=64))
            else:
                f = UniversalAttack(est, cfg).generate()
            assert f.shape == (64,)
            assert np.all(f >= 0.0) and np.all(f <= 1.0)


class TestBlackBoxEntryPoints:
    def test_input_based_requires_seed_input(self, trained_estimator):
        with pytest.raises(ValueError):
            InputBasedAttack(trained_estimator, GenConfig(iterations=1)).generate(None)

    def test_black_box_boundary_only_needs_estimator_surface(self):
        # anything exposing predict_terms and input_dim is a valid oracle;
        # the attack never touches model internals or labels
        cfg = GenConfig(mode="universal", iterations=2, restarts=1)
        f = UniversalAttack(PixelMeanEstimator(), cfg).generate()
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

    def test_exit_matches_brute_force_on_random_vectors(self):
        rng = derive_rng(4, "hinge-exit")
        for _ in range(1000):
            n = int(rng.integers(1, 6))
            values = rng.uniform(0, 2, size=n)
            threshold = float(rng.uniform(0, 1.5))
            margin = float(rng.uniform(0, 0.3))
            expected = math.fsum(max(0.0, threshold + margin - v) for v in values)
            assert ilfo_exit_loss(values, threshold, margin) == expected

    @pytest.mark.parametrize("args, match", [
        (([0.6, math.nan], 0.5), "gate_values"), (([[0.6, 0.3]], 0.5), "gate_values"),
        (([0.6], math.nan), "gate_threshold"), (([0.6], math.inf), "gate_threshold"),
        (([0.6], True), "gate_threshold"),
    ])
    def test_gate_rejects_bad_input(self, args, match):
        with pytest.raises(ValueError, match=match):
            ilfo_gate_loss(*args)

    @pytest.mark.parametrize("args, match", [
        (([math.nan], 0.5, 0.1), "exit_entropies"), (([[0.2]], 0.5, 0.1), "exit_entropies"),
        (([0.2], math.nan, 0.1), "entropy_threshold"),
        (([0.2], -math.inf, 0.1), "entropy_threshold"),
        (([0.2], 0.5, math.nan), "margin"), (([0.2], 0.5, True), "margin"),
        (([0.2], 0.5, math.inf), "margin"),
    ])
    def test_exit_rejects_bad_input(self, args, match):
        with pytest.raises(ValueError, match=match):
            ilfo_exit_loss(*args)

    @pytest.mark.parametrize("loss, args", [
        (ilfo_exit_loss, ([0.2], 1e308, 1e308)),
        (ilfo_exit_loss, ([0.2], np.float64(1e308), np.float64(1e308))),
        (ilfo_gate_loss, ([-1e308], 1e308)),
        (ilfo_gate_loss, ([0.0, 0.0], 1e308)),
    ], ids=["exit level", "exit numpy level", "gate shortfall", "gate sum"])
    def test_overflow_of_finite_inputs_rejected(self, loss, args):
        # the threshold plus the margin, the threshold minus a value, or
        # the sum of the shortfalls is past the largest float
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="%s overflows" % loss.__name__):
                loss(*args)

    def test_shortfall_below_the_float_range_is_zero(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ilfo_gate_loss([1e308], -1e308) == 0.0

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
        f = IlfoAttack(net, IlfoConfig(iterations=50)).generate(x)
        assert float(np.linalg.norm(f - x)) < 1e-3

    def test_activates_all_gates_from_low_mean_seed(self):
        net = scripted_gate_analogue([0.3, 0.45, 0.6, 0.75])
        x = np.full(64, 0.2)
        before = net.infer(x)
        f = IlfoAttack(net, IlfoConfig(c=100.0, iterations=300)).generate(x)
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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_gate_pre_activation_raises(self):
        # the gate-only forward still runs, and checks, every gate
        net = scripted_gate_analogue([0.3, 0.6])
        net.gate_weights_[1] = Tensor(np.float64(1.5e308))
        net.gate_biases_[1] = Tensor(np.float64(1.5e308))
        with pytest.raises(NonFiniteError, match="residual_mlp"):
            IlfoAttack(net, IlfoConfig(iterations=3)).generate(np.full(64, 0.5))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("target", ["gate", "exit"])
    def test_objective_runs_only_the_layers_it_reads(self, target):
        # the gate hinge reads no head, the exit hinge every exit but the last
        if target == "gate":
            net = scripted_gate_analogue([0.3, 0.6])
            kept = net.num_blocks
        else:
            net = EarlyExitNet(num_segments=3)._build(derive_rng(0, "exit-unread-head"))
            kept = 2 * net.num_classes
        x = derive_rng(2, "unread-head").uniform(0.2, 0.8, size=64)
        cfg = IlfoConfig(target=target, iterations=5)
        want = IlfoAttack(net, cfg).generate(x)
        big = np.finfo(np.float64).max
        last = Dense(np.full((net.width, net.num_classes), big), np.zeros(net.num_classes))
        if target == "gate":
            net.head_ = last
        else:
            net.exit_heads_[-1] = last
        with pytest.raises(NonFiniteError):
            net.forward_terms(x)
        attack = IlfoAttack(net, cfg)
        assert attack.generate(x).tobytes() == want.tobytes()
        shapes = []

        def spy(f, heads):
            out = forward(f, heads)
            shapes.append(out[0].shape)
            return out

        forward, net.forward_terms = net.forward_terms, spy
        attack._score(x.reshape(1, -1))(np.zeros((1, 64)))
        assert shapes == [(1, kept)]

    def test_deterministic(self):
        net = scripted_gate_analogue([0.4, 0.6])
        x = np.full(64, 0.1)
        a = IlfoAttack(net, IlfoConfig(iterations=20)).generate(x)
        b = IlfoAttack(net, IlfoConfig(iterations=20)).generate(x)
        assert np.array_equal(a, b)


class UnfittableExitNet(EarlyExitNet):
    def fit(self, X, y):
        raise AssertionError("the surrogate was fitted")


class TestIlfoTargetCheck:
    """IlfoAttack rejects, when it is built, a model its target cannot attack."""

    @pytest.mark.parametrize("model, target, match", [
        (EarlyExitNet(), "gate", "num_blocks"),
        (FilterModel(), "gate", "forward_terms"),
        (ScriptedAdnn([0.3, 0.6], base_flops=100, block_flops=50), "gate", "forward_terms"),
        (GatedSkipNet(), "exit", "at least 2 exits"),
        (EarlyExitNet(num_segments=1), "exit", "at least 2 exits"),
    ])
    def test_model_without_the_target_is_rejected(self, model, target, match):
        with pytest.raises(ValueError, match=match):
            IlfoAttack(model, IlfoConfig(target=target))

    @pytest.mark.parametrize("target, attr", [("gate", "num_blocks"),
                                              ("exit", "num_classes")])
    def test_missing_size_is_rejected(self, target, attr):
        net = scripted_gate_analogue([0.3, 0.6]) if target == "gate" else EarlyExitNet()
        delattr(net, attr)
        with pytest.raises(ValueError, match=attr):
            IlfoAttack(net, IlfoConfig(target=target))

    @pytest.mark.parametrize("target", ["gate", "exit"])
    def test_only_what_the_attack_calls_is_needed(self, target):
        class Bare:
            """forward_terms(x, heads), the sizes and the threshold, and no other
            method: no forward(x, mode), no graph node."""

            def __init__(self, net):
                self.net = net
                for name in ("num_blocks", "num_segments", "num_classes", "gate_threshold",
                             "entropy_threshold"):
                    if hasattr(net, name):
                        setattr(self, name, getattr(net, name))

            def forward_terms(self, x, heads=None):
                return self.net.forward_terms(x, heads)

        net = (scripted_gate_analogue([0.3, 0.6]) if target == "gate" else
               EarlyExitNet(width=8, num_segments=2)._build(derive_rng(0, "bare-exit")))
        cfg = IlfoConfig(target=target, iterations=3)
        x = np.full(64, 0.2)
        assert np.array_equal(IlfoAttack(Bare(net), cfg).generate(x),
                              IlfoAttack(net, cfg).generate(x))

    @pytest.mark.parametrize("target, attr", [("gate", "gate_threshold"),
                                              ("exit", "entropy_threshold")])
    def test_missing_threshold_is_rejected(self, target, attr):
        net = scripted_gate_analogue([0.3, 0.6]) if target == "gate" else EarlyExitNet()
        delattr(net, attr)
        with pytest.raises(ValueError, match=attr):
            IlfoAttack(net, IlfoConfig(target=target))

    def test_config_threshold_stands_in_for_the_model_threshold(self):
        net = EarlyExitNet(width=8, num_segments=2)._build(derive_rng(0, "exit-threshold"))
        del net.entropy_threshold
        attack = IlfoAttack(net, IlfoConfig(target="exit", threshold=0.5, iterations=2))
        assert attack.generate(np.full(64, 0.2)).shape == (64,)

    @pytest.mark.parametrize("model, target", [
        (scripted_gate_analogue([0.3, 0.6]), "gate"),
        (EarlyExitNet(num_segments=2), "exit"),
    ])
    def test_model_with_the_target_is_accepted(self, model, target):
        assert IlfoAttack(model, IlfoConfig(target=target)).model is model

    @pytest.mark.parametrize("base, target", [(GatedSkipNet, "gate"), (EarlyExitNet, "exit")])
    def test_forward_terms_without_heads_is_rejected(self, base, target):
        class NoHeads(base):
            """A model whose soft forward cannot stop early."""

            def forward_terms(self, x):
                return super().forward_terms(x)

        with pytest.raises(ValueError, match="heads"):
            IlfoAttack(NoHeads(), IlfoConfig(target=target))

    def test_surrogate_pipeline_rejects_before_fitting(self):
        inputs = np.full((3, 64), 0.2)
        with pytest.raises(ValueError, match="num_blocks"):
            surrogate_pipeline(ScriptedAdnn([0.3, 0.6], base_flops=100, block_flops=50),
                               UnfittableExitNet(), inputs, IlfoConfig(iterations=5))

    @pytest.mark.parametrize("num_attack", [0, -1, True, 2.5])
    def test_surrogate_pipeline_rejects_a_bad_num_attack_first(self, num_attack):
        # checked before the attack is built, so ahead of the exit net's
        # missing gates, and before the surrogate is fitted
        inputs = np.full((3, 64), 0.2)
        with pytest.raises(ValueError, match="num_attack"):
            surrogate_pipeline(ScriptedAdnn([0.3, 0.6], base_flops=100, block_flops=50),
                               UnfittableExitNet(), inputs, IlfoConfig(iterations=5),
                               num_attack=num_attack)


class TestIlfoSequentialReference:
    @pytest.mark.parametrize("iterations", [0, 1, 40])
    def test_gate_target_equals_two_forward_loop(self, trained_skip,
                                                 skip_dataset, iterations):
        attack = IlfoAttack(trained_skip, IlfoConfig(iterations=iterations))
        x = skip_dataset.inputs[3]
        f = attack.generate(x)
        want, min_losses = ilfo_two_forward_reference(attack, x)
        assert np.array_equal(f, want)
        assert attack.min_losses_ == min_losses
        assert attack.best_loss_ == min_losses[-1]

    def test_exit_target_equals_two_forward_loop(self, trained_exit,
                                                 exit_dataset):
        attack = IlfoAttack(trained_exit, IlfoConfig(target="exit", iterations=40))
        x = exit_dataset.inputs[5]
        f = attack.generate(x)
        want, min_losses = ilfo_two_forward_reference(attack, x)
        assert np.array_equal(f, want)
        assert attack.min_losses_ == min_losses


class TestGraphReferences:
    """Each attack's loop equals, byte for byte, the loop that builds one
    unfused graph per iterate and steps it with the oracles' `step_loss`,
    and it makes the finiteness checks its one-node graph loop made."""

    @pytest.mark.parametrize("track_best", [False, True])
    @pytest.mark.parametrize("c, lr, iterations", [(100.0, 0.01, 30), (1.0, 0.8, 25),
                                                   (10.0, 0.1, 1), (100.0, 0.01, 0)])
    def test_input_based_equals_graph_loop(self, trained_estimator, track_best, c, lr,
                                           iterations):
        cfg = GenConfig(c=c, lr=lr, iterations=iterations, track_best=track_best, seed=4)
        for x in (np.full(64, 0.1), derive_rng(8, "graph-ref").uniform(0, 1, size=64)):
            attack = InputBasedAttack(trained_estimator, cfg)
            f = attack.generate(x)
            want, history, best_loss, final_loss = input_based_graph_reference(attack, x)
            assert f.tobytes() == want.tobytes()
            assert attack.history_ == history
            assert (attack.best_loss_, attack.final_loss_) == (best_loss, final_loss)

    @pytest.mark.parametrize("estimator", ["trained", "mean", "constant"])
    def test_universal_equals_graph_loop(self, trained_estimator, estimator):
        est = {"trained": trained_estimator, "mean": PixelMeanEstimator(),
               "constant": ConstantEstimator(2.0)}[estimator]
        attack = UniversalAttack(est, GenConfig(mode="universal", iterations=20, restarts=3,
                                                lr=0.05, seed=2))
        f = attack.generate()
        inputs, losses, best = universal_graph_reference(attack)
        assert [r.tobytes() for r in attack.restart_inputs_] == [r.tobytes() for r in inputs]
        assert attack.restart_losses_ == losses
        assert attack.best_restart_ == best and f.tobytes() == inputs[best].tobytes()

    @pytest.mark.parametrize("target", ["gate", "exit"])
    def test_ilfo_equals_graph_loop(self, target, trained_skip, skip_dataset, trained_exit,
                                    exit_dataset):
        model, x = ((trained_skip, skip_dataset.inputs[7]) if target == "gate"
                    else (trained_exit, exit_dataset.inputs[9]))
        attack = IlfoAttack(model, IlfoConfig(target=target, iterations=30, lr=0.05))
        f = attack.generate(x)
        want, min_losses = ilfo_graph_reference(attack, x)
        assert f.tobytes() == want.tobytes() and attack.min_losses_ == min_losses

    @pytest.fixture
    def checks(self, monkeypatch):
        """Every op name `_require_finite` is called with, counted, through
        each module of the package that holds the function."""
        counts = collections.Counter()
        for name, module in list(sys.modules.items()):
            real = getattr(module, "_require_finite", None) if name.startswith(
                "adnn_energy_lab") else None
            if real is not None:
                def spy(data, op, real=real):
                    counts[op] += 1
                    return real(data, op)

                monkeypatch.setattr(module, "_require_finite", spy)
        return counts

    # each op name and count of the checks of a five-iteration loop, as the
    # loop that built the one-node graph of each objective (the modifier's
    # reparameterization, the network and the objective a node each, and
    # the estimator's de-normalization) made them
    GRAPH_LOOP_CHECKS = {
        "input_based": {"tanh_unit": 7, "residual_mlp": 36, "denormalize": 6,
                        "input_based_loss": 42, "input_based_loss.grad": 10,
                        "denormalize.grad": 5, "residual_mlp.grad": 5, "tanh_unit.grad": 5},
        "universal": {"tanh_unit": 8, "residual_mlp": 42, "denormalize": 7, "universal_loss": 7,
                      "universal_loss.grad": 5, "denormalize.grad": 5, "residual_mlp.grad": 5,
                      "tanh_unit.grad": 5},
        "gate": {"tanh_unit": 7, "residual_mlp": 12, "ilfo_loss": 48, "ilfo_loss.grad": 10,
                 "residual_mlp.grad": 5, "tanh_unit.grad": 5},
        "exit": {"tanh_unit": 7, "residual_mlp": 30, "entropy_hinge_sum": 6, "ilfo_loss": 48,
                 "ilfo_loss.grad": 10, "residual_mlp.grad": 5, "tanh_unit.grad": 5},
    }

    @pytest.mark.parametrize("kind", ["input_based", "universal", "gate", "exit"])
    def test_loop_makes_the_checks_of_the_graph_loop(self, kind, checks, trained_estimator,
                                                     trained_skip, trained_exit):
        x = np.full(64, 0.3)
        checks.clear()
        if kind == "input_based":
            InputBasedAttack(trained_estimator, GenConfig(iterations=5)).generate(x)
        elif kind == "universal":
            UniversalAttack(trained_estimator,
                            GenConfig(mode="universal", iterations=5, restarts=2)).generate()
        else:
            model = trained_skip if kind == "gate" else trained_exit
            IlfoAttack(model, IlfoConfig(target=kind, iterations=5)).generate(x)
        assert {op: n for op, n in checks.items() if op != "leaf"} == self.GRAPH_LOOP_CHECKS[kind]


class FrozenSurrogate(GatedSkipNet):
    """Surrogate stand-in whose training is a no-op, for same-weights
    transfer sanity checks."""

    def fit(self, X, y):
        return self


def frozen_analogue(thresholds):
    net = scripted_gate_analogue(thresholds)
    frozen = FrozenSurrogate(input_dim=net.input_dim, width=net.width,
                             num_blocks=net.num_blocks, num_classes=net.num_classes)
    for attr in ("stem_", "blocks_", "gate_weights_", "gate_biases_", "head_"):
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
        target = ScriptedAdnn([0.98, 0.99], base_flops=100, block_flops=50)
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

    def test_records_equal_one_row_replay(self, trained_skip, skip_dataset):
        inputs = skip_dataset.inputs[:24]
        cfg = IlfoConfig(iterations=30)

        def surrogate():
            return GatedSkipNet(width=8, num_blocks=4, epochs=5, seed=0)

        tests, report = surrogate_pipeline(trained_skip, surrogate(), inputs,
                                           cfg, num_attack=4)
        want_tests, records, excluded = surrogate_records_reference(
            trained_skip, surrogate(), inputs, cfg, num_attack=4)
        assert report["records"] == records
        assert report["excluded"] == excluded
        assert len(tests) == len(want_tests) == 4
        for got, want in zip(tests, want_tests):
            assert np.array_equal(got, want)

    def test_empty_replay_set_raises(self):
        surrogate = frozen_analogue([0.3, 0.5])
        target = ScriptedAdnn([0.01, 0.02], base_flops=100, block_flops=50)
        inputs = np.full((3, 64), 0.9)
        with pytest.raises(ValueError):
            surrogate_pipeline(target, surrogate, inputs, IlfoConfig(iterations=5))

    def test_rejects_empty_input_matrix(self):
        surrogate = frozen_analogue([0.5])
        with pytest.raises(ValueError):
            surrogate_pipeline(SCRIPTED, surrogate, np.empty((0, 64)))


def graph_size(root):
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(parent for parent, _ in node._vjps)
    return len(seen)


class TestOneNodeObjectives:
    """Each attack objective's array form gives the loss and the modifier
    gradient of its unfused graph, byte for byte; `input_based_loss` is that
    form as one node over the modifier."""

    @pytest.mark.parametrize("target", ["gate", "exit"])
    def test_ilfo_loss_equals_unfused_oracle_graph(self, target, trained_skip, skip_dataset,
                                                  trained_exit, exit_dataset):
        model, data = ((trained_skip, skip_dataset) if target == "gate"
                       else (trained_exit, exit_dataset))
        attack = IlfoAttack(model, IlfoConfig(target=target))
        rng = derive_rng(30, "ilfo-oracle", target)
        # dimmed seeds close most gates, so every hinge term is live
        for x in np.concatenate([data.inputs[:2], 0.3 * data.inputs[2:4]]):
            x = x.reshape(1, -1)
            w = (np.arctanh(2.0 * np.clip(x, 0.05, 0.95) - 1.0)
                 + rng.normal(0.0, 0.3, size=x.shape))
            loss, grad = attack._score(x)(w)
            wt = Tensor(w)
            ref = unfused_ilfo_attack_loss(attack, wt, Tensor(x))
            assert np.asarray(loss).tobytes() == ref.data.tobytes()
            assert grad().tobytes() == gradients(ref, [wt])[0].tobytes()

    def test_input_based_loss_equals_unfused_oracle_graph(self, trained_estimator):
        rng = derive_rng(31, "input-based-oracle")
        for _ in range(3):
            x = rng.uniform(0, 1, size=(1, 64))
            w = Tensor(rng.normal(0.0, 0.5, size=(1, 64)))
            loss = input_based_loss(w, x, 100.0, trained_estimator)
            ref = unfused_input_based_loss(trained_estimator, w, x, 100.0)
            assert loss.data.tobytes() == ref.data.tobytes()
            assert gradients(loss, [w])[0].tobytes() == gradients(ref, [w])[0].tobytes()
            assert graph_size(loss) == 2 and loss._vjps[0][0] is w

    def test_universal_loss_equals_unfused_oracle_graph(self, trained_estimator):
        rng = derive_rng(32, "universal-oracle")
        for rows in (1, 3):
            w = rng.normal(0.0, 0.5, size=(rows, 64))
            loss, grad = universal_score(trained_estimator)(w)
            wt = Tensor(w)
            ref = unfused_universal_loss(trained_estimator, wt)
            assert np.asarray(loss).tobytes() == ref.data.tobytes()
            assert grad().tobytes() == gradients(ref, [wt])[0].tobytes()

    def test_prediction_terms_equal_unfused_oracle_graph(self, trained_estimator):
        f = derive_rng(33, "prediction").uniform(0, 1, size=(2, 64))
        pred, vjp = trained_estimator.predict_terms(f)
        ft = Tensor(f)
        ref = unfused_estimator_prediction(trained_estimator, ft)
        assert pred.tobytes() == ref.data.tobytes()
        seed = np.array([[0.5], [-2.0]])
        assert vjp(seed).tobytes() == gradients(tsum(ref * Tensor(seed)), [ft])[0].tobytes()

    def test_objectives_check_their_values(self, trained_skip):
        w = Tensor(np.zeros((1, 64)))
        est = ConstantEstimator(1.0)
        with pytest.raises(NonFiniteError, match="input_based_loss"):
            input_based_loss(w, np.full((1, 64), np.inf), 1.0, est)
        with pytest.raises(NonFiniteError, match="input_based_loss"):
            input_based_loss(w, np.full((1, 64), 0.5), np.inf, est)
        with pytest.raises(ShapeError, match="input_based_loss"):
            input_based_loss(w, np.full((2, 64), 0.5), 1.0, est)
        attack = IlfoAttack(trained_skip, IlfoConfig())
        with pytest.raises(NonFiniteError, match="ilfo_loss"):
            attack._score(np.full((1, 64), np.nan))(w.data)
