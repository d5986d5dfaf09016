"""Step-model energy sampling and the repeat/reject measurement protocol."""

import numpy as np
import pytest

from adnn_energy_lab.energy import (
    EnergyMeasurement,
    EnergyModel,
    MeasurementProtocol,
    energy_of_trace,
    filter_outliers,
    measure_energy,
    measure_many,
)
from adnn_energy_lab.models import ExecutionTrace, make_scripted
from adnn_energy_lab.seeding import array_fingerprint, derive_rng

from oracles import filter_outliers_reference, measure_sequential_reference

SCRIPTED = make_scripted(4, [0.2, 0.4, 0.6, 0.8], 100, 256)


def skip_trace(active, total=4):
    decisions = tuple(i < active for i in range(total))
    return ExecutionTrace(
        kind="skip", flops=0, logits=np.zeros(4), signature=("test",),
        gate_values=tuple(float(d) for d in decisions), gate_decisions=decisions,
    )


def exit_trace(index):
    return ExecutionTrace(
        kind="exit", flops=0, logits=np.zeros(4), signature=("test",),
        exit_index=index, exit_entropies=(0.0,) * (index + 1),
    )


class TestEnergyOfTrace:
    def test_two_active_blocks(self):
        model = EnergyModel(base_joules=1.0, per_block_joules=0.5, noise_sigma=0.0)
        assert energy_of_trace(model, skip_trace(2)) == 2.0

    def test_zero_active_is_base_exactly(self):
        model = EnergyModel(base_joules=1.0, per_block_joules=0.5, noise_sigma=0.0)
        assert energy_of_trace(model, skip_trace(0)) == 1.0

    def test_exit_prefix_sum(self):
        model = EnergyModel(base_joules=1.0, per_block_joules=[1, 1, 1, 1],
                            noise_sigma=0.0)
        assert energy_of_trace(model, exit_trace(3)) == 5.0

    def test_exit_with_scalar_steps(self):
        model = EnergyModel(base_joules=1.0, per_block_joules=0.5, noise_sigma=0.0)
        assert energy_of_trace(model, exit_trace(1)) == 2.0

    def test_strict_monotone_ladder_gap(self):
        model = EnergyModel(base_joules=1.0, per_block_joules=0.5, noise_sigma=0.0)
        ladder = model.step_values(8)
        gaps = np.diff(ladder)
        assert np.all(gaps > 0)
        assert np.allclose(gaps, 0.5)

    def test_noise_perturbs_reading(self):
        model = EnergyModel(base_joules=1.0, per_block_joules=0.5, noise_sigma=0.3,
                            seed=1)
        rng = derive_rng(1, "energy")
        values = {energy_of_trace(model, skip_trace(2), rng) for _ in range(8)}
        assert len(values) > 1

    def test_never_negative(self):
        model = EnergyModel(base_joules=0.01, per_block_joules=0.01,
                            noise_sigma=50.0, seed=3)
        rng = derive_rng(3, "energy")
        samples = [energy_of_trace(model, skip_trace(0), rng) for _ in range(200)]
        assert min(samples) == 0.0

    def test_noisy_model_needs_rng(self):
        model = EnergyModel(base_joules=1.0, per_block_joules=0.5, noise_sigma=0.1)
        with pytest.raises(ValueError):
            energy_of_trace(model, skip_trace(2))

    def test_block_trace_needs_scalar_steps(self):
        model = EnergyModel(base_joules=1.0, per_block_joules=[1, 1], noise_sigma=0.0)
        with pytest.raises(ValueError):
            energy_of_trace(model, skip_trace(1))

    def test_exit_beyond_priced_segments(self):
        model = EnergyModel(base_joules=1.0, per_block_joules=[1, 1], noise_sigma=0.0)
        with pytest.raises(ValueError):
            energy_of_trace(model, exit_trace(3))


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"base_joules": 0.0},
        {"base_joules": -1.0},
        {"per_block_joules": 0.0},
        {"per_block_joules": [0.5, -0.1]},
        {"per_block_joules": []},
        {"noise_sigma": -0.1},
    ])
    def test_bad_model_params(self, kwargs):
        with pytest.raises(ValueError):
            EnergyModel(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"repetitions": 0},
        {"rejection_factor": 1.0},
        {"rejection_factor": 0.5},
    ])
    def test_bad_protocol(self, kwargs):
        with pytest.raises(ValueError):
            MeasurementProtocol(**kwargs)


class TestFilterOutliers:
    def test_high_sample_dropped(self):
        assert filter_outliers([10, 10, 10, 16]) == [10, 10, 10]

    def test_uniform_all_kept(self):
        assert filter_outliers([5, 5, 5, 5]) == [5, 5, 5, 5]

    def test_boundary_inclusive(self):
        assert filter_outliers([1, 2, 3]) == [1, 2, 3]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            filter_outliers([])

    def test_matches_bruteforce_reference(self):
        rng = np.random.default_rng(42)
        protocol = MeasurementProtocol()
        for _ in range(1000):
            n = int(rng.integers(1, 25))
            samples = rng.uniform(0.0, 10.0, size=n).tolist()
            assert filter_outliers(samples, protocol) == filter_outliers_reference(
                samples, protocol.rejection_factor
            )


class TestMeasureEnergy:
    def test_noiseless_scripted_step(self):
        em = EnergyModel(base_joules=1.0, per_block_joules=0.5, noise_sigma=0.0)
        meas = measure_energy(SCRIPTED, em, np.full(64, 0.5))
        assert meas.mean == 2.0
        assert meas.raw_samples == (2.0,) * 20
        assert meas.retained == meas.raw_samples

    def test_single_repetition_is_that_sample(self):
        em = EnergyModel(base_joules=1.0, per_block_joules=0.5, noise_sigma=0.05,
                         seed=5)
        meas = measure_energy(SCRIPTED, em, np.full(64, 0.9),
                              MeasurementProtocol(repetitions=1))
        assert len(meas.raw_samples) == 1
        assert meas.mean == meas.raw_samples[0]

    def test_mean_converges_with_many_repetitions(self):
        em = EnergyModel(base_joules=10.0, per_block_joules=0.5, noise_sigma=0.1,
                         seed=0)
        x = np.full(64, 0.5)
        meas = measure_energy(SCRIPTED, em, x, MeasurementProtocol(repetitions=1000))
        assert abs(meas.mean - em.noiseless_energy(SCRIPTED.infer(x))) < 0.02

    def test_noiseless_is_pure_function_of_trace_class(self):
        em = EnergyModel(base_joules=1.0, per_block_joules=0.5, noise_sigma=0.0)
        # both inputs fire 2 of 4 gates, so F(x) must agree exactly
        a = measure_energy(SCRIPTED, em, np.full(64, 0.45))
        b = measure_energy(SCRIPTED, em, np.full(64, 0.55))
        assert a.mean == b.mean == 2.0

    def test_same_input_reproducible(self):
        em = EnergyModel(base_joules=1.0, per_block_joules=0.5, noise_sigma=0.05,
                         seed=9)
        x = np.full(64, 0.7)
        assert measure_energy(SCRIPTED, em, x) == measure_energy(SCRIPTED, em, x)

    def test_streams_independent_of_order(self):
        em = EnergyModel(base_joules=1.0, per_block_joules=0.5, noise_sigma=0.05,
                         seed=9)
        x1, x2 = np.full(64, 0.3), np.full(64, 0.7)
        first = measure_energy(SCRIPTED, em, x1)
        assert measure_energy(SCRIPTED, em, x1) == first  # after measuring x2 too
        measure_energy(SCRIPTED, em, x2)
        assert measure_energy(SCRIPTED, em, x1) == first

    def test_retained_subset_and_mean_consistent(self):
        em = EnergyModel(base_joules=1.0, per_block_joules=0.5, noise_sigma=0.4,
                         seed=11)
        meas = measure_energy(SCRIPTED, em, np.full(64, 0.5))
        raw = list(meas.raw_samples)
        for v in meas.retained:
            raw.remove(v)  # multiset containment
        assert meas.mean == pytest.approx(np.mean(meas.retained))

    def test_measure_many_rows(self):
        em = EnergyModel(base_joules=1.0, per_block_joules=0.5, noise_sigma=0.0)
        X = np.stack([np.full(64, 0.1), np.full(64, 0.9)])
        means = [m.mean for m in measure_many(SCRIPTED, em, X)]
        assert means == [1.0, 3.0]

    def test_json_row_shape(self):
        row = EnergyMeasurement((1.0, 2.0), (1.0,), 1.0).to_json_row("x07")
        assert row == {"input_id": "x07", "raw": [1.0, 2.0], "retained": [1.0],
                       "mean": 1.0}


class TestMeasureMatchesSequentialReference:
    """One inference per batch must equal one inference per repetition."""

    @pytest.fixture(params=["trained_skip", "trained_exit", "scripted"])
    def case(self, request):
        if request.param == "scripted":
            return SCRIPTED, derive_rng(2, "scripted-inputs").uniform(0, 1, size=(24, 64))
        dataset = "skip_dataset" if request.param == "trained_skip" else "exit_dataset"
        X = request.getfixturevalue(dataset).inputs[:16]
        noise = derive_rng(3, "off-distribution").uniform(0, 1, size=(8, 64))
        return request.getfixturevalue(request.param), np.concatenate([X, noise])

    @staticmethod
    def reference(adnn, em, x):
        rng = derive_rng(em.seed, "measure", array_fingerprint(x))
        raw, retained, mean = measure_sequential_reference(
            adnn, x, rng, em.base_joules, em.per_block_joules, em.noise_sigma)
        return EnergyMeasurement(raw, retained, mean)

    @pytest.mark.parametrize("sigma", [0.0, 0.05, 0.6])
    def test_batch_and_single_match_reference(self, case, sigma):
        adnn, X = case
        em = EnergyModel(base_joules=1.0, per_block_joules=0.5, noise_sigma=sigma,
                         seed=4)
        expected = [self.reference(adnn, em, x) for x in X]
        assert measure_many(adnn, em, X) == expected
        assert [measure_energy(adnn, em, x) for x in X[:4]] == expected[:4]
        assert measure_many(adnn, em, X[0]) == expected[:1]
        if sigma > 0:
            assert len({m.mean for m in expected}) > 1

    def test_empty_batch(self, case):
        adnn, _ = case
        em = EnergyModel(noise_sigma=0.05)
        assert measure_many(adnn, em, np.empty((0, 64))) == []
