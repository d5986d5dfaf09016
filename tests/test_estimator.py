"""Energy regressor: loss arithmetic, training behavior, gradients, and
serialization."""

import math

import numpy as np
import pytest

from adnn_energy_lab.base import NotFittedError
from adnn_energy_lab.data import probe_inputs
from adnn_energy_lab.energy import EnergyModel, measure_energy
from adnn_energy_lab.estimator import EnergyEstimator, estimator_loss
from adnn_energy_lab.models import ScriptedAdnn
from adnn_energy_lab.optim import Adam
from adnn_energy_lab.serialize import DataFormatError

from oracles import finite_difference, max_relative_error

SCRIPTED = ScriptedAdnn([(i + 0.5) / 8 for i in range(8)], base_flops=2176, block_flops=1024)
NOISELESS = EnergyModel(base_joules=1.0, per_block_joules=0.5, noise_sigma=0.0)


def measured_corpus(n, seed):
    X = probe_inputs(n, seed=seed)
    y = np.array([measure_energy(SCRIPTED, NOISELESS, x).mean for x in X])
    return X, y


class TestEstimatorLoss:
    def test_perfect_predictions(self):
        assert estimator_loss([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_hand_arithmetic(self):
        assert estimator_loss([1.0, 3.0], [2.0, 2.0]) == 1.0

    def test_single_pair(self):
        assert estimator_loss([0.0], [4.0]) == 16.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            estimator_loss([], [])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            estimator_loss([1.0], [1.0, 2.0])


class TestTraining:
    def test_constant_targets_learned_to_tolerance(self):
        X = probe_inputs(40, seed=2)
        y = np.full(40, 2.0)
        est = EnergyEstimator(epochs=200, lr=0.05, seed=0).fit(X, y)
        assert est.val_rmse_ < 1e-3
        assert np.allclose(est.predict(X), 2.0, atol=1e-2)
        assert est.val_relative_rmse_ == 0.0

    def test_lr_zero_leaves_parameters_unchanged(self):
        X, y = measured_corpus(40, seed=3)
        est = EnergyEstimator(epochs=3, lr=0.0, seed=1)
        # build once, snapshot, then retrain in place with lr 0
        est.fit(X, y)
        before = [p.data.copy() for p in est._params()]
        baseline = est.val_rmse_
        est.fit(X, y)
        for prev, now in zip(before, est._params()):
            assert np.array_equal(prev, now.data)
        assert est.val_rmse_ == baseline

    def test_best_epoch_checkpoint_is_restored_as_it_stood(self, monkeypatch):
        # Adam steps theta in place, so the checkpoint must be a copy that
        # no later step writes
        held = []
        step = Adam.step

        def recording_step(opt, grads):
            step(opt, grads)
            held.append(opt.params[0].data.copy())

        monkeypatch.setattr(Adam, "step", recording_step)
        X, y = measured_corpus(60, seed=3)
        y = y + np.random.default_rng(3).normal(0.0, 0.1, size=len(y))
        est = EnergyEstimator(width=16, num_blocks=2, epochs=30, lr=0.02, seed=0).fit(X, y)
        # 54 training rows after the 6-row validation split: 2 steps an epoch
        assert len(held) == 2 * est.epochs
        assert est.best_epoch_ < est.epochs - 1
        want = held[2 * est.best_epoch_ + 1]
        assert est._net().theta.data.tobytes() == want.tobytes()
        assert est._net().theta.data.tobytes() != held[-1].tobytes()

    def test_scripted_fidelity_at_reduced_budget(self):
        # the acceptance tier runs the full 2000-epoch budget; 300 epochs
        # already lands well under the fidelity bar on this fixture
        X, y = measured_corpus(500, seed=0)
        est = EnergyEstimator(epochs=300, seed=0).fit(X, y)
        assert est.val_relative_rmse_ < 0.05

        Xh, yh = measured_corpus(200, seed=1)
        r = np.corrcoef(est.predict(Xh), yh)[0, 1]
        assert r > 0.9

    def test_every_step_of_an_epoch_runs_at_its_cosine_step_size(self, monkeypatch):
        rates = []
        step = Adam.step

        def recording_step(opt, grads):
            rates.append(opt.lr)
            return step(opt, grads)

        monkeypatch.setattr(Adam, "step", recording_step)
        X, y = measured_corpus(40, seed=12)
        epochs, lr = 6, 0.05
        EnergyEstimator(epochs=epochs, lr=lr, batch_size=16, seed=0).fit(X, y)
        # 36 training rows after the 4-row validation split: 3 steps an epoch
        expected = [lr * 0.5 * (1.0 + math.cos(math.pi * e / epochs))
                    for e in range(epochs) for _ in range(3)]
        assert rates == expected
        assert rates[0] == lr

    @pytest.mark.parametrize("bad", [
        {"input_dim": 0}, {"input_dim": 64.0}, {"input_dim": True}, {"width": -4},
        {"width": "64"}, {"num_blocks": -1}, {"num_blocks": 0}, {"num_blocks": 2.5},
        {"val_fraction": 1.0}, {"val_fraction": 1.5}, {"val_fraction": -0.5},
        {"val_fraction": math.nan}, {"val_fraction": math.inf}, {"val_fraction": "0.1"},
    ], ids=repr)
    def test_bad_setting_rejected_before_any_fit(self, bad, monkeypatch):
        with pytest.raises(ValueError, match=next(iter(bad))):
            EnergyEstimator(**bad)
        with pytest.raises(ValueError, match=next(iter(bad))):
            EnergyEstimator().set_params(**bad)
        steps = []
        monkeypatch.setattr(Adam, "step", lambda opt, grads: steps.append(1))
        est = EnergyEstimator(epochs=1)
        for key, value in bad.items():
            setattr(est, key, value)
        X, y = measured_corpus(25, seed=5)
        with pytest.raises(ValueError, match=next(iter(bad))):
            est.fit(X, y)
        assert not steps and est.stem_ is None

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_target_rejected_before_a_refit_changes_anything(self, bad, monkeypatch):
        X, y = measured_corpus(25, seed=5)
        est = EnergyEstimator(epochs=2, seed=1).fit(X, y)
        fitted = {k: v for k, v in vars(est).items() if k.endswith("_")}
        theta = est._net().theta.data.copy()
        predicted = est.predict(X).tobytes()
        steps = []
        monkeypatch.setattr(Adam, "step", lambda opt, grads: steps.append(1))
        y = y.copy()
        y[3] = bad
        with pytest.raises(ValueError, match="y contains non-finite"):
            est.fit(X, y)
        assert not steps and est.predict(X).tobytes() == predicted
        assert est._net().theta.data.tobytes() == theta.tobytes()
        assert {k: v for k, v in vars(est).items() if k.endswith("_")} == fitted

    def test_edge_settings_accepted(self):
        EnergyEstimator(input_dim=1, width=1, num_blocks=1, val_fraction=0.0)
        EnergyEstimator(input_dim=np.int64(8), width=np.int32(2), num_blocks=np.int64(1),
                        val_fraction=np.float64(0.99))

    def test_too_few_pairs_rejected(self):
        X, y = measured_corpus(19, seed=5)
        with pytest.raises(ValueError):
            EnergyEstimator(epochs=1).fit(X, y)

    def test_normalization_roundtrip(self):
        X, y = measured_corpus(25, seed=6)
        est = EnergyEstimator(epochs=1, seed=0).fit(X, y)
        normalized = (y - est.energy_mean_) / est.energy_scale_
        assert np.all(np.abs(normalized * est.energy_scale_ + est.energy_mean_ - y)
                      < 1e-12)

    def test_black_box_contract(self):
        # the only target-model artifact consumed is the measured joule list
        X, y = measured_corpus(25, seed=7)
        est = EnergyEstimator(epochs=1, seed=0)
        est.fit(X, list(y))
        assert not hasattr(est, "adnn") and not hasattr(est, "target_model")


class TestPrediction:
    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            EnergyEstimator().predict(np.zeros(64))

    def test_predict_energy_scalar(self):
        X, y = measured_corpus(25, seed=8)
        est = EnergyEstimator(epochs=2, seed=0).fit(X, y)
        value = float(est.predict(X[0])[0])
        assert isinstance(value, float)

    def test_gradient_matches_finite_differences(self):
        X, y = measured_corpus(40, seed=9)
        est = EnergyEstimator(epochs=20, seed=0).fit(X, y)
        x0 = probe_inputs(1, seed=10)[0]
        pred, vjp = est.predict_terms(x0)
        grad = vjp(np.ones(pred.shape)).reshape(-1)
        fd = finite_difference(lambda arrs: float(est.predict(arrs[0])[0]), [x0])[0]
        assert max_relative_error([grad], [fd]) < 1e-5

    def test_terms_of_no_rows_give_a_product_of_no_rows(self):
        X, y = measured_corpus(25, seed=8)
        est = EnergyEstimator(epochs=2, seed=0).fit(X, y)
        pred, vjp = est.predict_terms(np.zeros((0, 64)))
        assert pred.shape == (0, 1)
        assert vjp(np.zeros((0, 1))).shape == (0, 64)

    def test_deterministic_predictions(self):
        X, y = measured_corpus(25, seed=11)
        est = EnergyEstimator(epochs=2, seed=0).fit(X, y)
        assert np.array_equal(est.predict(X), est.predict(X))


class TestScore:
    def test_r_squared_equals_its_fsum_definition(self):
        X, y = measured_corpus(30, seed=13)
        est = EnergyEstimator(epochs=3, seed=0).fit(X, y)
        pred = est.predict(X)
        mean = math.fsum(y) / len(y)
        ss_res = math.fsum((float(t) - float(p)) ** 2 for t, p in zip(y, pred))
        ss_tot = math.fsum((float(t) - mean) ** 2 for t in y)
        assert est.score(X, y) == pytest.approx(1.0 - ss_res / ss_tot, rel=1e-12, abs=1e-12)
        # its own predictions explain every target's variance
        assert est.score(X, pred) == 1.0

    def test_rejects_constant_targets_and_empty_or_mismatched_sets(self):
        X, y = measured_corpus(25, seed=8)
        est = EnergyEstimator(epochs=2, seed=0).fit(X, y)
        with pytest.raises(ValueError, match="constant"):
            est.score(X, np.full(len(X), 2.5))
        with pytest.raises(ValueError, match="empty"):
            est.score(np.zeros((0, 64)), np.zeros(0))
        with pytest.raises(ValueError, match="same length"):
            est.score(X, y[:-1])


class TestSerialization:
    def test_payload_roundtrip_bitwise(self):
        X, y = measured_corpus(25, seed=12)
        est = EnergyEstimator(epochs=2, seed=0, target_id="scripted-8").fit(X, y)
        clone = EnergyEstimator.from_payload(est.to_payload())
        assert np.array_equal(est.predict(X), clone.predict(X))
        assert clone.target_id == "scripted-8"
        assert clone.energy_mean_ == est.energy_mean_
        assert clone.energy_scale_ == est.energy_scale_

    @pytest.fixture
    def payload(self):
        X, y = measured_corpus(25, seed=12)
        return EnergyEstimator(epochs=1, seed=0).fit(X, y).to_payload()

    def test_missing_config_rejected(self, payload):
        with pytest.raises(DataFormatError):
            EnergyEstimator.from_payload({"kind": "estimator"})
        config = dict(payload["config"])
        del config["energy_scale"]
        with pytest.raises(DataFormatError):
            EnergyEstimator.from_payload(dict(payload, config=config))

    def test_missing_parameter_rejected(self, payload):
        params = dict(payload["params"])
        del params["block2.lin1.bias"]
        with pytest.raises(DataFormatError):
            EnergyEstimator.from_payload(dict(payload, params=params))

    @pytest.mark.parametrize("shape", [(64, 65), (63, 64)])
    def test_stem_shape_disagreeing_with_config_rejected(self, payload, shape):
        params = dict(payload["params"], **{"stem.weight": {
            "shape": list(shape), "data": [0.0] * (shape[0] * shape[1])}})
        with pytest.raises(DataFormatError):
            EnergyEstimator.from_payload(dict(payload, params=params))

    def test_unfitted_payload_rejected(self):
        with pytest.raises(NotFittedError):
            EnergyEstimator().to_payload()
