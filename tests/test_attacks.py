"""Test-input generation: reparameterization, black-box loss surfaces,
white-box hinge objectives, and the surrogate replay pipeline."""

import collections
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adnn_energy_lab import attacks
from adnn_energy_lab.attacks import (
    IlfoAttack,
    IlfoConfig,
    InputBasedAttack,
    TestGenConfig as GenConfig,
    UniversalAttack,
    _scorer,
    _universal_terms,
    input_based_loss,
    surrogate_pipeline,
)
from adnn_energy_lab.autodiff import (NonFiniteError, ShapeError, Tensor, entropy_hinge_terms,
                                      gradients, hinge_terms, tanh_unit_terms)
from adnn_energy_lab.data import estimator_corpus, generate_dataset
from adnn_energy_lab.defense import FilterModel
from adnn_energy_lab.energy import EnergyModel, measure_energy
from adnn_energy_lab.estimator import EnergyEstimator
from adnn_energy_lab.models import EarlyExitNet, GatedSkipNet, ScriptedAdnn
from adnn_energy_lab.nn import ResidualMLP
from adnn_energy_lab.seeding import derive_rng

from graph_ops import add, mul, tsum
from oracles import (
    entropy,
    ilfo_graph_reference,
    ilfo_loop_reference,
    ilfo_two_forward_reference,
    input_based_graph_reference,
    input_based_loop_reference,
    surrogate_records_reference,
    unfused_ilfo_attack_loss,
    unfused_estimator_prediction,
    unfused_input_based_loss,
    unfused_universal_loss,
    universal_graph_reference,
    universal_loop_reference,
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
        return add(Tensor(np.float64(self.value)), mul(tsum(f), 0.0))

    def predict_terms(self, f):
        return np.float64(self.value) + f.sum() * 0.0, lambda g: np.full(f.shape, g * 0.0)


class SummedOverflowEstimator:
    """Stub predicting two finite energies per row whose sum overflows."""

    input_dim = 64

    def predict_terms(self, f):
        return np.full((len(f), 2), 1e308), lambda g: np.zeros(f.shape)


class PixelMeanEstimator:
    """Stub whose predicted joules equal the mean pixel value."""

    input_dim = 64

    def graph_prediction(self, f):
        return mul(tsum(f), 1.0 / self.input_dim)

    def predict_terms(self, f):
        scale = 1.0 / self.input_dim
        return f.sum() * scale, lambda g: np.full(f.shape, g * scale)


class RecordingEstimator(PixelMeanEstimator):
    """`PixelMeanEstimator`, recording each input `predict_terms` gets."""

    def __init__(self):
        self.calls = []

    def predict_terms(self, f):
        self.calls.append(f)
        return super().predict_terms(f)


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

    @pytest.mark.parametrize("attack, mode", [(InputBasedAttack, "universal"),
                                              (UniversalAttack, "input_based")])
    def test_an_attack_rejects_the_other_attacks_mode(self, attack, mode):
        forwards = []

        class Spy(PixelMeanEstimator):
            def predict_terms(self, f):
                forwards.append(f)
                return super().predict_terms(f)

        with pytest.raises(ValueError, match="mode must be '%s' for this attack, got '%s'"
                           % (attack(Spy()).config.mode, mode)):
            attack(Spy(), GenConfig(mode=mode))
        assert forwards == []

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

    @pytest.mark.parametrize("track_best", [True, np.bool_(True)])
    def test_universal_rejects_track_best(self, track_best):
        # the universal attack returns its best restart's final iterate, so
        # there is no iterate for track_best to pick
        with pytest.raises(ValueError, match="track_best"):
            GenConfig(mode="universal", track_best=track_best)
        assert GenConfig(mode="universal", track_best=False).track_best is False

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

    @pytest.mark.parametrize("shape", [(2, 64), (1, 1, 64), ()])
    def test_input_based_takes_one_input_only(self, shape, monkeypatch):
        # a batch is not joined into one wide row: it is rejected before any
        # draw or forward
        draws, est = [], RecordingEstimator()
        monkeypatch.setattr(attacks, "derive_rng", lambda *args: draws.append(args))
        with pytest.raises(ValueError, match="x must be one input"):
            InputBasedAttack(est, GenConfig(iterations=1)).generate(np.full(shape, 0.5))
        assert draws == [] and est.calls == []

    def test_input_based_takes_a_single_row_as_its_vector(self):
        x = np.linspace(0.1, 0.9, 64)
        cfg = GenConfig(iterations=3)
        one_row = InputBasedAttack(PixelMeanEstimator(), cfg).generate(x[None])
        assert one_row.tobytes() == InputBasedAttack(PixelMeanEstimator(), cfg).generate(x).tobytes()

    def test_black_box_boundary_only_needs_estimator_surface(self):
        # anything exposing predict_terms and input_dim is a valid oracle;
        # the attack never touches model internals or labels
        cfg = GenConfig(mode="universal", iterations=2, restarts=1)
        f = UniversalAttack(PixelMeanEstimator(), cfg).generate()
        assert f.shape == (64,)


class TestSeedBoundary:
    """Both seeded attacks check the seed before any draw or forward: one
    input of the model's width, every value in [0, 1]."""

    @staticmethod
    def spied(kind, monkeypatch, scripted_gate_analogue):
        """(attack, draws, forwards) for `kind`, recording each rng the
        attack derives and each input its model's forward gets."""
        draws = []
        monkeypatch.setattr(attacks, "derive_rng", lambda *args: draws.append(args))
        if kind == "input_based":
            est = RecordingEstimator()
            return InputBasedAttack(est, GenConfig(iterations=1)), draws, est.calls
        net, forwards = scripted_gate_analogue([0.3, 0.6]), []
        attack = IlfoAttack(net, IlfoConfig(iterations=1))
        net.forward_terms = lambda x, heads=None: forwards.append(x)
        return attack, draws, forwards

    @pytest.mark.parametrize("kind", ["input_based", "ilfo"])
    @pytest.mark.parametrize("seed", [np.full(10, 0.5), np.full((1, 10), 0.5)])
    def test_seed_of_another_width_is_rejected(self, kind, seed, monkeypatch,
                                               scripted_gate_analogue):
        attack, draws, forwards = self.spied(kind, monkeypatch, scripted_gate_analogue)
        with pytest.raises(ShapeError, match="x has 10 features, expected 64"):
            attack.generate(seed)
        assert draws == [] and forwards == []

    @pytest.mark.parametrize("kind", ["input_based", "ilfo"])
    @pytest.mark.parametrize("value", [1.5, -0.25, 1.0 + 1e-12])
    def test_seed_outside_the_unit_range_is_rejected(self, kind, value, monkeypatch,
                                                     scripted_gate_analogue):
        attack, draws, forwards = self.spied(kind, monkeypatch, scripted_gate_analogue)
        seed = np.full(64, 0.5)
        seed[7] = value
        with pytest.raises(ValueError, match=r"x must lie in \[0, 1\]"):
            attack.generate(seed)
        assert draws == [] and forwards == []

    @pytest.mark.parametrize("value", [0.0, 1.0])
    def test_seed_on_the_unit_range_edge_is_accepted(self, value, scripted_gate_analogue):
        x = np.full(64, value)
        assert InputBasedAttack(PixelMeanEstimator(), GenConfig(iterations=2)).generate(
            x).shape == (64,)
        net = scripted_gate_analogue([0.3, 0.6])
        assert IlfoAttack(net, IlfoConfig(iterations=2)).generate(x).shape == (64,)


class TestGenerateMany:
    """`generate_many(X)` runs the seed rows of `X` as the rows of one
    modifier. Row r is `generate(X[r])` within 1e-12 (a batch's matrix
    products may round otherwise than one row's) and picks the same
    iterate; on one row it is `generate` byte for byte. It checks `X`
    before any draw, forward or Adam step."""

    @staticmethod
    def attack_and_seeds(kind, k, trained_estimator, trained_skip, trained_exit, skip_dataset,
                         exit_dataset):
        """A factory of fresh attacks of `kind`, and k seeds for them."""
        if kind == "input_based":
            seeds = derive_rng(11, "many").uniform(0.0, 1.0, size=(k, 64))
            cfg = GenConfig(c=10.0, lr=0.1, iterations=30, track_best=True, seed=3)
            return lambda: InputBasedAttack(trained_estimator, cfg), seeds
        model, data = ((trained_skip, skip_dataset) if kind == "gate"
                       else (trained_exit, exit_dataset))
        cfg = IlfoConfig(target=kind, iterations=30, lr=0.1)
        return lambda: IlfoAttack(model, cfg), data.inputs[:k]

    @staticmethod
    def recorded(attack):
        return {name: value for name, value in vars(attack).items() if name.endswith("_")}

    @staticmethod
    def chosen_step(record):
        """The step of the first lowest-loss iterate: the one returned by the
        ILFO attack, and by the input-based attack with track_best."""
        if "min_losses_" in record:
            return record["min_losses_"].index(record["best_loss_"])
        losses = record["history_"] + [record["final_loss_"]]
        return losses.index(min(losses))

    @pytest.mark.parametrize("kind", ["input_based", "gate", "exit"])
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_rows_equal_one_row_generate(self, kind, k, trained_estimator, trained_skip,
                                         trained_exit, skip_dataset, exit_dataset):
        make, X = self.attack_and_seeds(kind, k, trained_estimator, trained_skip, trained_exit,
                                        skip_dataset, exit_dataset)
        many = make()
        tests = many.generate_many(X)
        rows = self.recorded(many)
        assert tests.shape == X.shape
        assert all(len(value) == k for value in rows.values())
        for r, x in enumerate(X):
            one = make()
            test, want = one.generate(x), self.recorded(one)
            assert set(rows) == set(want)
            got = {name: value[r] for name, value in rows.items()}
            np.testing.assert_allclose(tests[r], test, rtol=0, atol=1e-12)
            for name in want:
                np.testing.assert_allclose(got[name], want[name], rtol=1e-12, atol=1e-12)
            assert self.chosen_step(got) == self.chosen_step(want)
            if k == 1:
                assert tests[0].tobytes() == test.tobytes()
                assert {name: exact(value) for name, value in got.items()} == want

    @pytest.mark.parametrize("kind", ["input_based", "ilfo"])
    @pytest.mark.parametrize("X, error, match", [
        (np.full((2, 10), 0.5), ShapeError, "X has 10 features, expected 64"),
        (np.full((2, 64), 1.5), ValueError, r"X must lie in \[0, 1\]"),
        (np.full((2, 64), -0.25), ValueError, r"X must lie in \[0, 1\]"),
        (np.empty((0, 64)), ValueError, "X must be a matrix of one or more seeds"),
        (np.full((1, 2, 64), 0.5), ValueError, "X must be a matrix of one or more seeds"),
        (np.full(64, 0.5), ValueError, "X must be a matrix of one or more seeds"),
        (np.full((2, 64), np.nan), ValueError, "X contains non-finite values"),
    ], ids=["width", "above_one", "below_zero", "empty", "three_dims", "vector", "nan"])
    def test_bad_seeds_are_rejected_before_any_step(self, kind, X, error, match, monkeypatch,
                                                    scripted_gate_analogue):
        attack, draws, forwards = TestSeedBoundary.spied(kind, monkeypatch,
                                                         scripted_gate_analogue)
        steps = []
        monkeypatch.setattr(attacks.Adam, "step", lambda opt, grads: steps.append(grads))
        with pytest.raises(error, match=match):
            attack.generate_many(X)
        assert steps == [] and draws == [] and forwards == []

    def test_an_estimator_with_one_energy_per_batch_is_named(self, monkeypatch):
        # the stub sums the whole batch into one energy: a ShapeError naming
        # the objective and the estimator's contract, before any step
        steps = []
        monkeypatch.setattr(attacks.Adam, "step", lambda opt, grads: steps.append(grads))
        attack = InputBasedAttack(PixelMeanEstimator(), GenConfig(iterations=3))
        with pytest.raises(ShapeError, match="input_based_loss needs each row's own energies"):
            attack.generate_many(np.full((2, 64), 0.5))
        assert steps == []
        monkeypatch.undo()
        assert InputBasedAttack(PixelMeanEstimator(), GenConfig(iterations=3)).generate(
            np.full(64, 0.5)).shape == (64,)


class TestIlfoHinges:
    """The hinges the attack scores on one row: `hinge_terms` of the gate
    values, and `entropy_hinge_terms` of the early exits' logits at the level
    threshold + margin that `IlfoAttack._score` passes."""

    @staticmethod
    def gate_hinge(values, threshold):
        values = np.asarray(values, dtype=np.float64).reshape(1, -1)
        return hinge_terms(values, threshold, 0, values.shape[1])[0]

    @staticmethod
    def exit_hinge(logits, threshold, margin):
        """`logits` holds one row of logits per exit."""
        logits = np.asarray(logits, dtype=np.float64)
        count, width = logits.shape
        return entropy_hinge_terms(logits.reshape(1, -1), threshold + margin, width, count)[0]

    @staticmethod
    def softmax(row):
        e = np.exp(row - row.max())
        return e / e.sum()

    def test_gate_hand_example(self):
        assert self.gate_hinge([0.6, 0.3], 0.5) == pytest.approx(0.2, abs=1e-12)

    def test_gate_all_clear(self):
        assert self.gate_hinge([0.5, 0.7, 0.99], 0.5) == 0.0

    def test_gate_all_zero_eight_gates(self):
        assert self.gate_hinge(np.zeros(8), 0.5) == 4.0

    def test_exit_hand_example(self):
        # two equal logits: the exit's entropy is ln 2
        assert self.exit_hinge([[0.0, 0.0]], 0.5, margin=0.3) == pytest.approx(
            0.8 - math.log(2), abs=1e-12)

    def test_exit_boundary_inclusive_at_zero_margin(self):
        # a certain exit, p = (1, 0), has entropy 0: a shortfall of exactly 0
        assert self.exit_hinge([[0.0, -1000.0]], 0.0, margin=0.0) == 0.0

    def test_exit_all_clear(self):
        # four equal logits: entropy ln 4 = 1.39 above the level 0.6
        assert self.exit_hinge(np.zeros((2, 4)), 0.5, margin=0.1) == 0.0

    def test_exit_matches_brute_force_on_random_vectors(self):
        rng = derive_rng(4, "hinge-exit")
        for _ in range(1000):
            count, width = int(rng.integers(1, 6)), int(rng.integers(2, 6))
            logits = rng.normal(0, 2, size=(count, width))
            threshold = float(rng.uniform(0, 1.5))
            margin = float(rng.uniform(0, 0.3))
            expected = sum(max(0.0, threshold + margin - entropy(self.softmax(row)))
                           for row in logits)
            assert self.exit_hinge(logits, threshold, margin) == pytest.approx(
                expected, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("values, start, stop", [
        (np.zeros((1, 2, 2)), 0, 2), (np.float64(0.5), 0, 1), (np.zeros((1, 2)), 1, 1),
        (np.zeros((1, 2)), 0, 3), (np.zeros((1, 2)), 2, 1),
    ], ids=["three_dims", "no_dims", "no_columns", "past_the_width", "reversed"])
    def test_gate_rejects_bad_input(self, values, start, stop):
        with pytest.raises(ShapeError, match="hinge_sum"):
            hinge_terms(values, 0.5, start, stop)

    # a logit that is not finite leaves a log-probability that is not, which
    # the hinge checks, since p * log p would hide it (inf - inf warns first)
    @pytest.mark.parametrize("logits, width, count, error", [
        ([[0.2, math.nan]], 2, 1, NonFiniteError), ([[0.2, math.inf]], 2, 1, NonFiniteError),
        ([[0.2, -math.inf]], 2, 1, NonFiniteError),
        (np.zeros((1, 1, 2)), 2, 1, ShapeError), (np.float64(0.2), 1, 1, ShapeError),
        ([[0.2, 0.3, 0.4]], 2, 2, ShapeError), ([[0.2, 0.3]], 2, 0, ShapeError),
    ], ids=["nan_logit", "inf_logit", "minus_inf_logit", "three_dims", "no_dims",
            "too_few_columns", "no_exits"])
    def test_exit_rejects_bad_input(self, logits, width, count, error):
        with np.errstate(invalid="ignore"), pytest.raises(error, match="entropy_hinge_sum"):
            entropy_hinge_terms(np.asarray(logits, dtype=np.float64), 0.5, width, count)

    # the level (threshold + margin) or the sum of the hinge's terms is past
    # the largest float, so the score's check names the objective; numpy's
    # overflow warning is off, so that the check, not the warning, fails
    @pytest.mark.parametrize("target, config", [
        ("exit", IlfoConfig(target="exit", threshold=1e308, margin=1e308)),
        ("exit", IlfoConfig(target="exit", threshold=np.float64(1e308),
                            margin=np.float64(1e308))),
        ("exit", IlfoConfig(target="exit", threshold=1e308, margin=0.0, c=1e-300)),
        ("gate", IlfoConfig(threshold=1e308, c=1e-300)),
    ], ids=["exit level", "exit numpy level", "exit sum", "gate sum"])
    def test_overflow_of_finite_inputs_rejected(self, target, config, scripted_gate_analogue,
                                                trained_exit):
        net = scripted_gate_analogue([0.3, 0.6]) if target == "gate" else trained_exit
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="ilfo_loss"):
            IlfoAttack(net, config)._score(np.full((1, 64), 0.5))(np.zeros((1, 64)))

    # every gate value and entropy is far above the level, and the shortfall
    # level - value stays in the float range: the hinge is 0, the score the
    # seed's distance alone, with no overflow warning
    @pytest.mark.parametrize("target", ["gate", "exit"])
    def test_shortfall_below_the_float_range_is_zero(self, target, scripted_gate_analogue,
                                                     trained_exit):
        net = scripted_gate_analogue([0.3, 0.6]) if target == "gate" else trained_exit
        x = np.full((1, 64), 0.2)
        score = IlfoAttack(net, IlfoConfig(target=target, threshold=-1e308))._score(x)
        d = np.full((1, 64), 0.5) - x
        assert score(np.zeros((1, 64)))[0] == np.add.reduce(d * d, axis=None)

    def test_gate_matches_brute_force_on_random_vectors(self):
        # the shortfalls are added left to right, as `hinge_terms` documents
        rng = derive_rng(3, "hinge-gate")
        for _ in range(1000):
            n = int(rng.integers(1, 12))
            values = rng.uniform(0, 1, size=n)
            threshold = float(rng.uniform(0, 1))
            expected = sum(max(0.0, threshold - v) for v in values)
            assert self.gate_hinge(values, threshold) == expected

    def test_zero_exactly_on_feasible_set(self):
        rng = derive_rng(5, "hinge-feasible")
        for _ in range(200):
            values = rng.uniform(0, 1, size=4)
            threshold = float(rng.uniform(0.1, 0.9))
            loss = self.gate_hinge(values, threshold)
            if np.all(values >= threshold):
                assert loss == 0.0
            else:
                assert loss > 0.0


class TestIlfoAttack:
    def test_min_loss_sequence_non_increasing(self, scripted_gate_analogue):
        net = scripted_gate_analogue([0.3, 0.5, 0.7])
        attack = IlfoAttack(net, IlfoConfig(iterations=60))
        attack.generate(np.full(64, 0.2))
        seq = attack.min_losses_
        assert len(seq) == 61
        assert all(b <= a for a, b in zip(seq, seq[1:]))

    def test_already_feasible_seed_stays_put(self, scripted_gate_analogue):
        net = scripted_gate_analogue([0.2, 0.4, 0.6])
        x = np.full(64, 0.9)
        f = IlfoAttack(net, IlfoConfig(iterations=50)).generate(x)
        assert float(np.linalg.norm(f - x)) < 1e-3

    def test_activates_all_gates_from_low_mean_seed(self, scripted_gate_analogue):
        net = scripted_gate_analogue([0.3, 0.45, 0.6, 0.75])
        x = np.full(64, 0.2)
        before = net.infer(x)
        f = IlfoAttack(net, IlfoConfig(c=100.0, iterations=300)).generate(x)
        after = net.infer(f)
        assert sum(before.gate_decisions) == 0
        assert sum(after.gate_decisions) == 4

    @pytest.mark.parametrize("shape", [(2, 64), (1, 1, 64), ()])
    def test_takes_one_input_only(self, shape, scripted_gate_analogue):
        # rejected before the first forward, not joined into one wide row
        net = scripted_gate_analogue([0.3, 0.6])
        attack, calls = IlfoAttack(net, IlfoConfig(iterations=1)), []
        net.forward_terms = lambda x, heads=None: calls.append(x)
        with pytest.raises(ValueError, match="x must be one input"):
            attack.generate(np.full(shape, 0.5))
        assert calls == []

    def test_threshold_falls_back_to_model_attribute(self, scripted_gate_analogue):
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
    def test_non_finite_gate_pre_activation_raises(self, scripted_gate_analogue):
        # the gate-only forward still runs, and checks, every gate
        net = scripted_gate_analogue([0.3, 0.6])
        net.gate_weights_[1].data = np.float64(1.5e308)
        net.gate_biases_[1].data = np.float64(1.5e308)
        with pytest.raises(NonFiniteError, match="residual_mlp"):
            IlfoAttack(net, IlfoConfig(iterations=3)).generate(np.full(64, 0.5))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("target", ["gate", "exit"])
    def test_objective_runs_only_the_layers_it_reads(self, target, scripted_gate_analogue):
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
        last = net.head_ if target == "gate" else net.exit_heads_[-1]
        last.weight.data = np.full((net.width, net.num_classes), big)
        last.bias.data = np.zeros(net.num_classes)
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

    def test_deterministic(self, scripted_gate_analogue):
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
        (EnergyEstimator(), "gate", "forward_terms"),
        (ScriptedAdnn([0.3, 0.6], base_flops=100, block_flops=50), "gate", "forward_terms"),
        (GatedSkipNet(), "exit", "at least 2 exits"),
        (EarlyExitNet(num_segments=1), "exit", "at least 2 exits"),
    ])
    def test_model_without_the_target_is_rejected(self, model, target, match):
        with pytest.raises(ValueError, match=match):
            IlfoAttack(model, IlfoConfig(target=target))

    @pytest.mark.parametrize("target, attr", [("gate", "num_blocks"), ("exit", "num_classes"),
                                              ("gate", "input_dim"), ("exit", "input_dim")])
    def test_missing_size_is_rejected(self, target, attr, scripted_gate_analogue):
        net = scripted_gate_analogue([0.3, 0.6]) if target == "gate" else EarlyExitNet()
        delattr(net, attr)
        with pytest.raises(ValueError, match=attr):
            IlfoAttack(net, IlfoConfig(target=target))

    @pytest.mark.parametrize("target", ["gate", "exit"])
    def test_only_what_the_attack_calls_is_needed(self, target, scripted_gate_analogue):
        class Bare:
            """forward_terms(x, heads), the sizes and the threshold, and no other
            method: no forward(x, mode), no graph node."""

            def __init__(self, net):
                self.net = net
                for name in ("input_dim", "num_blocks", "num_segments", "num_classes",
                             "gate_threshold", "entropy_threshold"):
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
    def test_missing_threshold_is_rejected(self, target, attr, scripted_gate_analogue):
        net = scripted_gate_analogue([0.3, 0.6]) if target == "gate" else EarlyExitNet()
        delattr(net, attr)
        with pytest.raises(ValueError, match=attr):
            IlfoAttack(net, IlfoConfig(target=target))

    def test_config_threshold_stands_in_for_the_model_threshold(self):
        net = EarlyExitNet(width=8, num_segments=2)._build(derive_rng(0, "exit-threshold"))
        del net.entropy_threshold
        attack = IlfoAttack(net, IlfoConfig(target="exit", threshold=0.5, iterations=2))
        assert attack.generate(np.full(64, 0.2)).shape == (64,)

    @pytest.mark.parametrize("target", ["gate", "exit"])
    def test_model_with_the_target_is_accepted(self, target, scripted_gate_analogue):
        model = (scripted_gate_analogue([0.3, 0.6]) if target == "gate" else
                 EarlyExitNet(num_segments=2))
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

    # each op name and count of the checks of a five-iteration loop: the
    # modifier's reparameterization, the network and the estimator's
    # de-normalization check their values and products as the one-node
    # graph of each made them, and an objective checks its score once (its
    # seed, `c` and terms reach that score by +, - or *) and its products
    GRAPH_LOOP_CHECKS = {
        "input_based": {"tanh_unit": 7, "residual_mlp": 36, "denormalize": 6,
                        "input_based_loss": 6, "input_based_loss.grad": 10,
                        "denormalize.grad": 5, "residual_mlp.grad": 5, "tanh_unit.grad": 5},
        "universal": {"tanh_unit": 8, "residual_mlp": 42, "denormalize": 7, "universal_loss": 7,
                      "universal_loss.grad": 5, "denormalize.grad": 5, "residual_mlp.grad": 5,
                      "tanh_unit.grad": 5},
        "gate": {"tanh_unit": 7, "residual_mlp": 12, "ilfo_loss": 6, "ilfo_loss.grad": 10,
                 "residual_mlp.grad": 5, "tanh_unit.grad": 5},
        "exit": {"tanh_unit": 7, "residual_mlp": 30, "entropy_hinge_sum": 6, "ilfo_loss": 6,
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


@pytest.mark.parametrize("kind", ["input_based", "universal", "gate", "exit"])
def test_generate_slices_the_layers_once(kind, monkeypatch, trained_estimator, trained_skip,
                                         trained_exit):
    """One `generate` cuts its network's layer records once, with the
    transposes the reverse walk reads: views of theta's one array, strided
    as each weight's `.T`."""
    slices, slice_layers = [], ResidualMLP._slice_layers

    def counted(net, data):
        layers = slice_layers(net, data)
        slices.append((data, layers))
        return layers

    model = {"gate": trained_skip, "exit": trained_exit}.get(kind, trained_estimator)
    model = type(model).from_payload(model.to_payload())   # a new network, nothing sliced
    monkeypatch.setattr(ResidualMLP, "_slice_layers", counted)
    x = np.full(64, 0.3)
    if kind == "input_based":
        InputBasedAttack(model, GenConfig(iterations=5)).generate(x)
    elif kind == "universal":
        UniversalAttack(model, GenConfig(mode="universal", iterations=5, restarts=2)).generate()
    else:
        IlfoAttack(model, IlfoConfig(target=kind, iterations=5)).generate(x)
    assert len(slices) == 1
    data, (stem, blocks, _, heads) = slices[0]
    assert data is model._net().theta.data
    pairs = ([(stem[0], stem[2])] + [(b[0], b[4]) for b in blocks]
             + [(b[2], b[5]) for b in blocks] + [(h[0], h[2]) for h in heads])
    for weight, transpose in pairs:
        assert np.shares_memory(transpose, data) and transpose.strides == weight.T.strides
        assert np.array_equal(transpose, weight.T)


class FrozenSurrogate(GatedSkipNet):
    """Surrogate stand-in whose training is a no-op, for same-weights
    transfer sanity checks."""

    def fit(self, X, y):
        return self


@pytest.fixture
def frozen_analogue(scripted_gate_analogue):
    """A factory of `FrozenSurrogate`s with a gate analogue's weights."""
    return lambda thresholds, **sizes: FrozenSurrogate.from_payload(
        scripted_gate_analogue(thresholds, **sizes).to_payload())


class TestSurrogatePipeline:
    def test_self_transfer_is_perfect(self, frozen_analogue):
        net = frozen_analogue([0.25, 0.4, 0.55, 0.7])
        rng = derive_rng(6, "self-transfer")
        inputs = rng.uniform(0.1, 0.2, size=(5, 64))
        tests, report = surrogate_pipeline(
            net, net, inputs, IlfoConfig(c=100.0, iterations=300))
        assert report["itp"] == 100.0
        assert report["etp"] == 100.0
        assert len(tests) == 5

    def test_mismatched_target_reports_without_error(self, frozen_analogue):
        surrogate = frozen_analogue([0.3, 0.5])
        target = ScriptedAdnn([0.98, 0.99], base_flops=100, block_flops=50)
        rng = derive_rng(7, "mismatch")
        inputs = rng.uniform(0.05, 0.15, size=(4, 64))
        tests, report = surrogate_pipeline(
            target, surrogate, inputs, IlfoConfig(c=100.0, iterations=100))
        assert report["itp"] == 0.0
        assert report["etp"] == 0.0

    def test_inputs_already_at_max_are_excluded(self, frozen_analogue):
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

    def test_empty_replay_set_raises(self, frozen_analogue):
        surrogate = frozen_analogue([0.3, 0.5])
        target = ScriptedAdnn([0.01, 0.02], base_flops=100, block_flops=50)
        inputs = np.full((3, 64), 0.9)
        with pytest.raises(ValueError):
            surrogate_pipeline(target, surrogate, inputs, IlfoConfig(iterations=5))

    def test_rejects_empty_input_matrix(self, frozen_analogue):
        surrogate = frozen_analogue([0.5])
        with pytest.raises(ValueError):
            surrogate_pipeline(SCRIPTED, surrogate, np.empty((0, 64)))


class TestSurrogateBoundary:
    """surrogate_pipeline checks its inputs, num_attack and the surrogate's
    sizes before the target is queried or the surrogate fitted."""

    @pytest.fixture
    def pair(self, frozen_analogue):
        target, surrogate = frozen_analogue([0.3, 0.5]), frozen_analogue([0.3, 0.5])
        target.infer = lambda x: pytest.fail("the target was queried")
        surrogate.fit = lambda X, y: pytest.fail("the surrogate was fitted")
        return target, surrogate

    def test_inputs_of_another_width_are_rejected(self, pair):
        with pytest.raises(ShapeError, match="inputs has 10 features, expected the target's 64"):
            surrogate_pipeline(*pair, np.full((3, 10), 0.2), IlfoConfig(iterations=5))

    def test_inputs_outside_the_unit_range_are_rejected(self, pair):
        inputs = np.full((3, 64), 0.2)
        inputs[1, 4] = 1.5
        with pytest.raises(ValueError, match=r"inputs must lie in \[0, 1\]"):
            surrogate_pipeline(*pair, inputs, IlfoConfig(iterations=5))

    def test_num_attack_above_the_rows_is_rejected(self, pair):
        with pytest.raises(ValueError, match="num_attack is 10, above the 3 rows"):
            surrogate_pipeline(*pair, np.full((3, 64), 0.2), IlfoConfig(iterations=5),
                               num_attack=10)

    @pytest.mark.parametrize("sizes, error, match", [
        ({"input_dim": 16}, ShapeError, "inputs has 64 features, the surrogate takes 16"),
        ({"num_classes": 2}, ValueError, "the surrogate has 2 classes, below the target's 4")],
        ids=["input_dim", "num_classes"])
    def test_a_surrogate_the_inputs_or_labels_do_not_fit_is_rejected(self, pair, sizes, error,
                                                                      match, frozen_analogue):
        target, watched = pair
        surrogate = frozen_analogue([0.3, 0.5], **sizes)
        surrogate.fit = watched.fit
        with pytest.raises(error, match=match):
            surrogate_pipeline(target, surrogate, np.full((4, 64), 0.2), IlfoConfig(iterations=5))


@pytest.fixture(scope="module")
def small_models():
    """A small fitted estimator, skip net and exit net on 16 features, by
    the attack kind each serves."""
    data = generate_dataset(120, input_dim=16, seed=3)
    X = estimator_corpus(80, input_dim=16, seed=3)
    est = EnergyEstimator(input_dim=16, width=8, num_blocks=2, epochs=20, seed=0).fit(
        X, 1.0 + X.mean(axis=1))
    skip = GatedSkipNet(input_dim=16, width=8, num_blocks=3, epochs=10, seed=0)
    exit_net = EarlyExitNet(input_dim=16, width=8, num_segments=3, epochs=10, seed=0)
    for net in (skip, exit_net):
        net.fit(data.inputs, data.labels)
    return {"input_based": est, "universal": est, "gate": skip, "exit": exit_net}


def exact(value):
    """`value` with each array as its bytes, for a byte-for-byte comparison."""
    if isinstance(value, list):
        return [exact(v) for v in value]
    return value.tobytes() if isinstance(value, np.ndarray) else value


class TestDescentLoopOracle:
    """Each attack's `generate` equals, byte for byte, the Adam loop it once
    wrote out on its own: the returned test and every attribute it records."""

    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(["input_based", "universal", "gate", "exit"]),
           iterations=st.integers(0, 12), track_best=st.booleans(),
           lr=st.sampled_from([0.01, 0.1, 0.5]), c=st.sampled_from([0.5, 10.0, 100.0]),
           seed=st.integers(0, 2**32 - 1), restarts=st.integers(1, 3))
    def test_generate_equals_its_own_loop(self, small_models, kind, iterations, track_best, lr,
                                          c, seed, restarts):
        model = small_models[kind]
        x = derive_rng(seed, "loop-oracle").uniform(0.0, 1.0, size=16)
        if kind == "input_based":
            attack = InputBasedAttack(model, GenConfig(c=c, lr=lr, iterations=iterations,
                                                       track_best=track_best, seed=seed))
            got, (want, recorded) = attack.generate(x), input_based_loop_reference(attack, x)
        elif kind == "universal":
            attack = UniversalAttack(model, GenConfig(
                mode="universal", c=c, lr=lr, iterations=iterations, restarts=restarts,
                seed=seed))
            got, (want, recorded) = attack.generate(), universal_loop_reference(attack)
        else:
            attack = IlfoAttack(model, IlfoConfig(target=kind, c=c, lr=lr,
                                                  iterations=iterations))
            got, (want, recorded) = attack.generate(x), ilfo_loop_reference(attack, x)
        assert got.tobytes() == want.tobytes()
        assert {name: exact(value) for name, value in vars(attack).items()
                if name.endswith("_")} == {name: exact(value) for name, value in recorded.items()}


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
        assert vjp(seed).tobytes() == gradients(tsum(mul(ref, Tensor(seed))), [ft])[0].tobytes()

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

    # a non-finite seed, `c` or term reaches the objective's score, so its
    # one check raises under the objective's name; the overflows run with
    # numpy's overflow warning off, so that the check, not the warning, fails
    @pytest.mark.parametrize("seed, c, estimator", [
        (np.full((1, 64), np.inf), 1.0, ConstantEstimator(1.0)),
        (np.full((1, 64), np.nan), 1.0, ConstantEstimator(1.0)),
        (np.full((1, 64), 0.5), np.inf, ConstantEstimator(1.0)),
        (np.full((1, 64), 0.5), 1.0, SummedOverflowEstimator()),
    ], ids=["inf_seed", "nan_seed", "inf_c", "energy_overflow"])
    def test_input_based_score_check_covers_every_term(self, seed, c, estimator):
        score = attacks._input_based_scorer(estimator, seed, c)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="input_based_loss"):
            score(np.zeros((1, 64)))

    @pytest.mark.parametrize("seed, config", [
        (np.full((1, 64), np.nan), IlfoConfig()),
        # every gate falls short of 10 by more than 9, so hinge * c > 72e308
        (np.full((1, 64), 0.5), IlfoConfig(threshold=10.0, c=1e308)),
    ], ids=["nan_seed", "scaled_overflow"])
    def test_ilfo_score_check_covers_every_term(self, seed, config, trained_skip):
        score = IlfoAttack(trained_skip, config)._score(seed)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="ilfo_loss"):
            score(np.zeros((1, 64)))

    # a seed that broadcasts to another shape, and one that does not broadcast
    @pytest.mark.parametrize("shape", [(2, 64), (3,)])
    def test_seed_of_the_wrong_shape_names_the_objective(self, trained_skip, shape):
        w, seed = np.zeros((1, 64)), np.full(shape, 0.5)
        with pytest.raises(ShapeError, match="input_based_loss"):
            attacks._input_based_scorer(ConstantEstimator(1.0), seed, 1.0)(w)
        with pytest.raises(ShapeError, match="ilfo_loss"):
            IlfoAttack(trained_skip, IlfoConfig())._score(seed)(w)
