"""Gradient-feature defense: guarded-inference bookkeeping and the batched
evaluation report against its input-by-input form."""

import copy
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adnn_energy_lab import defense
from adnn_energy_lab.autodiff import NonFiniteError, Tensor, gradients
from adnn_energy_lab.defense import (
    FilterModel,
    LinearSvm,
    detector_cost_joules,
    evaluate_defense,
    gradient_feature,
    guarded_inference,
    svm_score,
    train_filter,
    train_svm,
)
from adnn_energy_lab.data import generate_dataset
from adnn_energy_lab.energy import EnergyModel
from adnn_energy_lab.models import model_from_payload
from adnn_energy_lab.serialize import DataFormatError, dump_json, load_json

from oracles import (evaluate_defense_sequential_reference, finite_difference,
                     max_relative_error, pegasos_objective_reference, pegasos_primal_reference,
                     svm_subgradient_reference, unfused_exit_forward, unfused_skip_forward,
                     unfused_uniform_cross_entropy)

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

    def test_one_feature_call_per_pool(self, trained_skip, skip_dataset,
                                       monkeypatch):
        benign, labels, adv = pools(skip_dataset, n=4)
        svm = constant_svm(trained_skip, -1.0)
        calls = []

        def counted(adnn, x):
            calls.append(len(x))
            return gradient_feature(adnn, x)

        monkeypatch.setattr(defense, "gradient_feature", counted)
        evaluate_defense(trained_skip, svm, ENERGY, benign, labels, adv[:3])
        assert calls == [4, 3]

    def test_needs_both_pools(self, trained_skip, skip_dataset):
        benign, labels, _ = pools(skip_dataset, n=3)
        with pytest.raises(ValueError):
            evaluate_defense(trained_skip, constant_svm(trained_skip, 0.0),
                             ENERGY, benign, labels, np.empty((0, 64)))


def test_gradient_feature_equals_unfused_oracle_graph(trained_skip, skip_dataset,
                                                      trained_exit, exit_dataset):
    for model, data in ((trained_skip, skip_dataset), (trained_exit, exit_dataset)):
        for x in data.inputs[:4]:
            xt = Tensor(x.reshape(1, -1))
            if model is trained_skip:
                logits = unfused_skip_forward(model, xt)[0]
            else:
                logits = unfused_exit_forward(model, xt)[0]
            (expected,) = gradients(unfused_uniform_cross_entropy(logits), [model.stem_.weight])
            assert defense.gradient_feature(model, x).tobytes() == expected.reshape(-1).tobytes()


# a batched feature row may differ from the one-input feature by the rounding
# of the network's batched matrix products, relative to the pool's largest entry
BATCH_TOLERANCE = 1e-12


class TestGradientFeature:
    def test_matches_central_finite_differences(self, model_and_data):
        adnn, data = model_and_data
        model = copy.deepcopy(adnn)

        def loss(arrays):
            # the first head's cross-entropy against uniform, soft forward
            model.stem_.weight.data = arrays[0]
            logits = model._net().run(x.reshape(1, -1))[0][0]
            return float(np.mean(-np.log(np.exp(logits) / np.exp(logits).sum())))

        for x in data.inputs[:2]:
            fd = finite_difference(loss, [model.stem_.weight.data.copy()])
            phi = gradient_feature(adnn, x)
            assert phi.any()
            assert max_relative_error([phi], [fd[0].reshape(-1)]) < 1e-6

    def test_batched_rows_equal_one_input_features(self, model_and_data):
        adnn, data = model_and_data
        X = data.inputs[:200]
        batch = gradient_feature(adnn, X)
        rows = np.array([gradient_feature(adnn, x) for x in X])
        assert batch.shape == rows.shape == (200, adnn.input_dim * adnn.width)
        assert np.abs(batch - rows).max() <= BATCH_TOLERANCE * max(1.0, np.abs(rows).max())
        # a one-row matrix gives one row, the vector's feature exactly
        one = gradient_feature(adnn, X[:1])
        assert one.shape == (1, batch.shape[1])
        assert one[0].tobytes() == rows[0].tobytes()

    def test_dead_stem_inputs_have_all_zero_features(self, trained_exit, exit_dataset):
        # a known limitation: no gradient passes a stem whose relu units are
        # all dead, so a linear detector scores such an input at its bias
        X = exit_dataset.inputs[:200]
        zero = ~gradient_feature(trained_exit, X).any(axis=1)
        z0 = X @ trained_exit.stem_.weight.data + trained_exit.stem_.bias.data
        assert zero.sum() == 18
        assert np.array_equal(zero, (z0 <= 0.0).all(axis=1))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_exit_features_run_the_first_segment_alone(self, trained_exit, exit_dataset):
        # the loss reads the first exit only, so the later segments never run
        X = exit_dataset.inputs[:20]
        want = gradient_feature(trained_exit, X).tobytes()
        net = copy.deepcopy(trained_exit)
        big = np.finfo(np.float64).max
        lin1 = net.segments_[1].lin1
        lin1.weight.data, lin1.bias.data = np.full((net.width, net.width), big), np.zeros(net.width)
        with pytest.raises(NonFiniteError):
            net.forward_terms(X)
        assert gradient_feature(net, X).tobytes() == want

    def test_rejects_a_model_without_gradients(self):
        with pytest.raises(TypeError):
            gradient_feature(FilterModel(), np.zeros(64))

    def test_a_batch_of_no_rows_gives_no_feature_rows(self, model_and_data):
        # infer and predict take such a batch; the reverse walk takes it too
        adnn, _ = model_and_data
        features = gradient_feature(adnn, np.zeros((0, adnn.input_dim)))
        assert features.shape == (0, adnn.input_dim * adnn.width)


@pytest.mark.parametrize("field, value", [
    ("lam", 0.0), ("lam", -1e-4), ("lam", math.nan), ("lam", math.inf), ("lam", True),
    ("lam", "1e-4"), ("epochs", 0), ("epochs", 2.5), ("epochs", True), ("epochs", None),
])
def test_train_svm_rejects_a_bad_setting(field, value):
    features = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match=field):
        train_svm(features, [0, 1], **{field: value})


class TestTrainSvm:
    """train_svm against a full-batch subgradient solver of the same
    objective. The objective is lam-strongly convex, so an objective gap
    `d` bounds the distance to the minimizer by sqrt(2 d / lam): at
    lam = 0.1, the 1e-3 objective tolerance allows 0.14 and the test asks
    for 0.05. At 200 epochs the observed gaps are about 2e-4 and the
    distances about 0.02."""

    LAM = 0.1

    @staticmethod
    def blobs(separation, seed):
        rng = np.random.default_rng(seed)
        X = np.vstack([rng.normal(size=(30, 2)) + separation,
                       rng.normal(size=(30, 2)) - separation])
        return X, np.r_[np.ones(30), np.zeros(30)]

    @pytest.mark.parametrize("separation, seed", [(3.0, 0), (0.6, 1)],
                             ids=["separable", "overlapping"])
    def test_reaches_the_reference_minimum(self, separation, seed):
        X, labels = self.blobs(separation, seed)
        svm = train_svm(X, labels, lam=self.LAM, epochs=200, seed=0)
        signs = np.where(labels == 1, 1.0, -1.0)
        margins = signs * np.array([svm_score(svm, x) for x in X])
        # the separable blobs are split by the classifier; the others are not
        assert (margins > 0).all() == (separation == 3.0)
        w_ref, b_ref = svm_subgradient_reference(X, labels, self.LAM)
        ours = pegasos_objective_reference(svm.weights, svm.bias, X, labels, self.LAM)
        best = pegasos_objective_reference(w_ref, b_ref, X, labels, self.LAM)
        assert abs(ours - best) <= 1e-3
        assert np.linalg.norm(np.r_[svm.weights - w_ref, svm.bias - b_ref]) <= 0.05
        # the recorded history scores the returned (averaged) classifier
        assert svm.objective_history_[-1] == pytest.approx(ours, rel=1e-12)


class TestTrainSvmAgainstPrimalLoop:
    """train_svm runs the primal loop's Pegasos iterates in coefficient
    form: the same draws and the same iterates in exact arithmetic, so the
    classifier and each epoch's objective agree up to rounding."""

    @staticmethod
    def assert_matches_primal(features, labels, lam, epochs, seed):
        ours = train_svm(features, labels, lam=lam, epochs=epochs, seed=seed)
        ref = pegasos_primal_reference(features, labels, lam=lam, epochs=epochs, seed=seed)
        got, want = np.r_[ours.weights, ours.bias], np.r_[ref.weights, ref.bias]
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
        assert len(ours.objective_history_) == epochs
        for a, b in zip(ours.objective_history_, ref.objective_history_):
            assert abs(a - b) <= 1e-8 * abs(b)

    @staticmethod
    def problem(seed, n, d, scale):
        """n rows of d normal features times `scale`, both classes present."""
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 2, n)
        labels[:2] = 0, 1
        return rng.normal(size=(n, d)) * scale, labels

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 40), st.integers(1, 30),
           st.floats(-6.0, 0.0), st.floats(-2.0, 3.0), st.integers(1, 30))
    @example(0, 2, 3, -4.0, 0.0, 5)       # two rows
    @example(1, 17, 5, -2.0, 0.0, 1)      # one epoch
    @example(2, 9, 4, -6.0, 1.0, 7)       # the least lam
    @example(3, 9, 4, 0.0, 1.0, 7)        # the greatest lam
    def test_matches_the_primal_loop(self, seed, n, d, log_lam, log_scale, epochs):
        features, labels = self.problem(seed, n, d, 10.0 ** log_scale)
        self.assert_matches_primal(features, labels, 10.0 ** log_lam, epochs, seed)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 30), st.floats(-6.0, 0.0))
    def test_matches_the_primal_loop_past_a_fold(self, seed, n, log_lam):
        # without a fold the scale is at most 1 / t, so a run of more than
        # 1 / _SVM_FOLD steps folds at its next violating step; a row that
        # appears with both labels keeps some margin violated
        features, labels = self.problem(seed, n, 3, 1.0)
        features = np.vstack([features, features[:1]])
        labels = np.r_[labels, 1 - labels[0]]
        epochs = math.ceil((1.0 / defense._SVM_FOLD + 1.0) / len(labels))
        self.assert_matches_primal(features, labels, 10.0 ** log_lam, epochs, seed)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(-6.0, 0.0), st.floats(1.0, 3.0),
           st.integers(1, 5))
    @example(133, 0.0, 2.5, 1)    # the average nearly cancels: 6e-8 and 2e-5 from unit iterates
    def test_matches_the_primal_loop_when_every_step_projects(self, seed, log_lam, log_norm, d):
        # two rows x and x' with x . x' > 0 and both labels, so the signed
        # rows u and v have u . v < 0, over one epoch of two steps: w = 0
        # violates and steps to u / lam, past the 1 / sqrt(lam) ball since
        # |u| > 1; then v's margin is negative, and the step leaves |w| at
        # least (|v| / lam - 1 / sqrt(lam)) / 2, past the ball again since
        # |v| > 3 sqrt(lam)
        rng = np.random.default_rng(seed)
        row = rng.normal(size=d)
        row *= 10.0 ** log_norm / np.linalg.norm(row)
        other = row + 0.5 * np.linalg.norm(row) * rng.uniform(-1.0, 1.0, d) / math.sqrt(d)
        self.assert_matches_primal(np.vstack([row, other]), [1, 0], 10.0 ** log_lam, 1, seed)

    def test_overflowing_inner_products_are_rejected_before_a_step(self):
        features = np.array([[1e200, 0.0], [0.0, 1e200], [1e200, 1e200]])
        with pytest.raises(ValueError, match="overflow"):
            train_svm(features, [0, 1, 1], epochs=3)

    def test_defense_report_equals_the_primal_trained_detector(self, trained_skip,
                                                               skip_dataset):
        benign, labels, adv = pools(skip_dataset, n=24)
        features = gradient_feature(trained_skip, np.concatenate([benign[:12], adv[:12]]))
        svm_labels = np.r_[np.zeros(12), np.ones(12)]
        ours = train_svm(features, svm_labels, epochs=100, seed=0)
        ref = pegasos_primal_reference(features, svm_labels, epochs=100, seed=0)
        evaluate = [evaluate_defense(trained_skip, svm, ENERGY, benign[12:], labels[12:],
                                     adv[12:]) for svm in (ours, ref)]
        assert evaluate[0] == evaluate[1]


class TestTrainFilter:
    def test_scores_exactly_the_held_out_rows(self, monkeypatch):
        rng = np.random.default_rng(5)
        normal = rng.uniform(0.0, 0.6, size=(30, 64))
        noisy = rng.uniform(0.4, 1.0, size=(21, 64))
        label_of = {row.tobytes(): label for pool, label in ((normal, 0), (noisy, 1))
                    for row in pool}
        calls = {}
        fit, score = FilterModel.fit, FilterModel.score

        def recording_fit(model, X, y):
            calls["fit"] = (X.copy(), np.asarray(y).copy())
            return fit(model, X, y)

        def recording_score(model, X, y):
            calls["score"] = (X.copy(), np.asarray(y).copy())
            calls["accuracy"] = score(model, X, y)
            return calls["accuracy"]

        monkeypatch.setattr(FilterModel, "fit", recording_fit)
        monkeypatch.setattr(FilterModel, "score", recording_score)
        model, accuracy = train_filter(normal, noisy, epochs=3, seed=4)

        def rows(X, y):
            keys = [row.tobytes() for row in X]
            assert [label_of[k] for k in keys] == list(y)
            assert len(set(keys)) == len(keys)
            return set(keys)

        trained, held = rows(*calls["fit"]), rows(*calls["score"])
        assert not trained & held
        assert trained | held == set(label_of)
        assert len(held) == max(1, len(label_of) // 5)
        assert accuracy == calls["accuracy"]
        X_held, y_held = calls["score"]
        assert accuracy == np.mean(model.predict(X_held) == y_held)


def test_filter_payload_round_trip_is_bitwise(tmp_path):
    data = generate_dataset(40, seed=5)
    model = FilterModel(epochs=2, seed=2).fit(data.inputs, data.labels % 2)
    path = tmp_path / "filter.json"
    dump_json(model.to_payload(), path)
    loaded = FilterModel.from_payload(load_json(path))
    sizes = ("input_dim", "width", "num_blocks", "num_classes")
    assert [getattr(loaded, k) for k in sizes] == [getattr(model, k) for k in sizes]
    assert loaded._net().theta.data.tobytes() == model._net().theta.data.tobytes()
    (want,), _ = model._net().run(data.inputs)
    (got,), _ = loaded._net().run(data.inputs)
    assert got.tobytes() == want.tobytes()
    again = tmp_path / "again.json"
    dump_json(loaded.to_payload(), again)
    assert again.read_bytes() == path.read_bytes()
    # the target loader reads only the adaptive models' kinds
    with pytest.raises(DataFormatError, match="filter"):
        model_from_payload(load_json(path))
