"""Gradient-feature defense: guarded-inference bookkeeping and the batched
evaluation report against its input-by-input form."""

import numpy as np
import pytest

from adnn_energy_lab import defense
from adnn_energy_lab.defense import (
    LinearSvm,
    detector_cost_joules,
    evaluate_defense,
    gradient_feature,
    guarded_inference,
    train_svm,
)
from adnn_energy_lab.energy import EnergyModel

from oracles import (evaluate_defense_sequential_reference, unfused_exit_forward,
                     unfused_skip_forward)

ENERGY = EnergyModel(base_joules=1.0, per_block_joules=0.5, noise_sigma=0.0)


def pools(dataset, n=12):
    """Benign rows with labels, and a brightened copy as the adversarial pool;
    brighter inputs open more gates and run deeper."""
    benign = dataset.inputs[:n]
    return benign, dataset.labels[:n], np.clip(benign + 0.35, 0.0, 1.0)


def fitted_svm(adnn, benign, adv):
    feats = [gradient_feature(adnn, x) for x in np.concatenate([benign, adv])]
    labels = np.r_[np.zeros(len(benign)), np.ones(len(adv))]
    return train_svm(feats, labels, epochs=20, seed=0)


def constant_svm(adnn, bias):
    """A detector whose score is `bias` for every input."""
    return LinearSvm(weights=np.zeros(adnn.input_dim * adnn.width), bias=bias,
                     lam=1e-4)


@pytest.fixture(params=["skip", "exit"])
def model_and_data(request, trained_skip, skip_dataset, trained_exit,
                   exit_dataset):
    if request.param == "skip":
        return trained_skip, skip_dataset
    return trained_exit, exit_dataset


class TestGuardedInference:
    def test_adversarial_verdict_costs_the_overhead_alone(self, model_and_data):
        adnn, data = model_and_data
        result = guarded_inference(adnn, constant_svm(adnn, 1.0),
                                   data.inputs[0], ENERGY)
        assert result.verdict == "adversarial"
        assert result.logits is None
        assert result.energy == detector_cost_joules(adnn, ENERGY)

    def test_benign_verdict_adds_the_noiseless_energy(self, model_and_data):
        adnn, data = model_and_data
        x = data.inputs[0]
        result = guarded_inference(adnn, constant_svm(adnn, -1.0), x, ENERGY)
        trace = adnn.infer(x)
        assert result.verdict == "benign"
        assert np.array_equal(result.logits, trace.logits)
        assert result.energy == (detector_cost_joules(adnn, ENERGY)
                                 + ENERGY.noiseless_energy(trace))

    def test_zero_score_fails_open(self, model_and_data):
        adnn, data = model_and_data
        result = guarded_inference(adnn, constant_svm(adnn, 0.0),
                                   data.inputs[0], ENERGY)
        assert result.verdict == "benign"


class TestEvaluateDefense:
    def test_equals_sequential_reference(self, model_and_data):
        adnn, data = model_and_data
        benign, labels, adv = pools(data)
        svm = fitted_svm(adnn, benign[:6], adv[:6])
        report = evaluate_defense(adnn, svm, ENERGY, benign, labels, adv)
        assert report == evaluate_defense_sequential_reference(
            adnn, svm, ENERGY, benign, labels, adv)

    @pytest.mark.parametrize("bias", [-1.0, 0.0, 1.0])
    def test_constant_verdicts_equal_sequential_reference(self, model_and_data,
                                                          bias):
        adnn, data = model_and_data
        benign, labels, adv = pools(data, n=5)
        svm = constant_svm(adnn, bias)
        report = evaluate_defense(adnn, svm, ENERGY, benign, labels, adv)
        assert report == evaluate_defense_sequential_reference(
            adnn, svm, ENERGY, benign, labels, adv)
        if bias > 0:
            assert report["detection_pct"] == 100.0
            assert report["acc_drop_pct"] == 100.0 * float(
                np.mean(adnn.predict(benign) == labels))
        else:
            assert report["detection_pct"] == 0.0
            assert report["acc_drop_pct"] == 0.0
            assert report["adv_energy_dec_pct"] < 0.0

    def test_perfect_detector(self, model_and_data):
        adnn, data = model_and_data
        benign, labels, adv = pools(data)
        phi_b = np.array([gradient_feature(adnn, x) for x in benign])
        phi_a = np.array([gradient_feature(adnn, x) for x in adv])
        # an input whose feature vanishes scores the bias whatever the
        # weights, so only inputs with a nonzero feature take part
        live_b, live_a = phi_b.any(axis=1), phi_a.any(axis=1)
        benign, labels, phi_b = benign[live_b], labels[live_b], phi_b[live_b]
        adv, phi_a = adv[live_a], phi_a[live_a]
        assert len(benign) >= 8 and len(adv) >= 8
        # far fewer inputs than feature entries: the least-squares weights
        # score every benign input -1 and every adversarial one +1
        targets = np.r_[-np.ones(len(benign)), np.ones(len(adv))]
        weights = np.linalg.lstsq(np.vstack([phi_b, phi_a]), targets,
                                  rcond=None)[0]
        svm = LinearSvm(weights=weights, bias=0.0, lam=1e-4)
        report = evaluate_defense(adnn, svm, ENERGY, benign, labels, adv)
        assert report["detection_pct"] == 100.0
        assert report["auc"] == 1.0
        assert report["acc_drop_pct"] == 0.0

    def test_one_feature_per_input(self, trained_skip, skip_dataset,
                                   monkeypatch):
        benign, labels, adv = pools(skip_dataset, n=4)
        svm = constant_svm(trained_skip, -1.0)
        calls = []

        def counted(adnn, x):
            calls.append(1)
            return gradient_feature(adnn, x)

        monkeypatch.setattr(defense, "gradient_feature", counted)
        evaluate_defense(trained_skip, svm, ENERGY, benign, labels, adv[:3])
        assert len(calls) == 4 + 3

    def test_needs_both_pools(self, trained_skip, skip_dataset):
        benign, labels, _ = pools(skip_dataset, n=3)
        with pytest.raises(ValueError):
            evaluate_defense(trained_skip, constant_svm(trained_skip, 0.0),
                             ENERGY, benign, labels, np.empty((0, 64)))


def test_gradient_feature_equals_unfused_oracle_graph(trained_skip, skip_dataset,
                                                      trained_exit, exit_dataset):
    from adnn_energy_lab.autodiff import Tensor, gradients
    from adnn_energy_lab.nn import uniform_cross_entropy

    for model, data in ((trained_skip, skip_dataset), (trained_exit, exit_dataset)):
        for x in data.inputs[:4]:
            xt = Tensor(x.reshape(1, -1))
            if model is trained_skip:
                logits = unfused_skip_forward(model, xt)[0]
            else:
                logits = unfused_exit_forward(model, xt)[0]
            (expected,) = gradients(uniform_cross_entropy(logits), [model.stem_.weight])
            assert defense.gradient_feature(model, x).tobytes() == expected.reshape(-1).tobytes()
