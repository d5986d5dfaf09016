"""Step-model energy sampling and the repeat/reject measurement protocol."""

import math
import statistics

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adnn_energy_lab.energy import (
    EnergyMeasurement,
    EnergyModel,
    MeasurementBatch,
    MeasurementProtocol,
    measure_energy,
    measure_many,
    reject_and_average,
)
from adnn_energy_lab.models import ExecutionTrace, ScriptedAdnn
from adnn_energy_lab.seeding import derive_rng

from oracles import array_fingerprint, filter_outliers_reference, measure_sequential_reference

SCRIPTED = ScriptedAdnn([0.2, 0.4, 0.6, 0.8], base_flops=100, block_flops=256)


def skip_trace(active, total=4):
    decisions = tuple(i < active for i in range(total))
    return ExecutionTrace(
        kind="skip", flops=0, logits=np.zeros(4), signature=("test",),
        gate_values=tuple(float(d) for d in decisions), gate_decisions=decisions,
    )


def retained(samples, factor=1.5):
    """The readings one row of `samples` keeps, as a list."""
    return list(reject_and_average([samples], factor)[0].retained)


def exit_trace(index):
    return ExecutionTrace(
        kind="exit", flops=0, logits=np.zeros(4), signature=("test",),
        exit_index=index, exit_entropies=(0.0,) * (index + 1),
    )


class TestNoiselessEnergy:
    def test_two_active_blocks(self):
        model = EnergyModel(base_joules=1.0, per_block_joules=0.5, noise_sigma=0.0)
        assert model.noiseless_energy(skip_trace(2)) == 2.0

    def test_zero_active_is_base_exactly(self):
        model = EnergyModel(base_joules=1.0, per_block_joules=0.5, noise_sigma=0.0)
        assert model.noiseless_energy(skip_trace(0)) == 1.0

    def test_exit_prefix_sum(self):
        model = EnergyModel(base_joules=1.0, per_block_joules=[1, 1, 1, 1],
                            noise_sigma=0.0)
        assert model.noiseless_energy(exit_trace(3)) == 5.0

    def test_exit_with_scalar_steps(self):
        model = EnergyModel(base_joules=1.0, per_block_joules=0.5, noise_sigma=0.0)
        assert model.noiseless_energy(exit_trace(1)) == 2.0

    def test_strict_monotone_ladder_gap(self):
        model = EnergyModel(base_joules=1.0, per_block_joules=0.5, noise_sigma=0.0)
        ladder = [model.noiseless_energy(skip_trace(k, total=8)) for k in range(9)]
        gaps = np.diff(ladder)
        assert np.all(gaps > 0)
        assert np.allclose(gaps, 0.5)

    def test_block_trace_needs_scalar_steps(self):
        model = EnergyModel(base_joules=1.0, per_block_joules=[1, 1], noise_sigma=0.0)
        with pytest.raises(ValueError):
            model.noiseless_energy(skip_trace(1))

    def test_exit_beyond_priced_segments(self):
        model = EnergyModel(base_joules=1.0, per_block_joules=[1, 1], noise_sigma=0.0)
        with pytest.raises(ValueError):
            model.noiseless_energy(exit_trace(3))


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
        {"base_joules": math.nan}, {"base_joules": math.inf}, {"base_joules": -math.inf},
        {"base_joules": True}, {"base_joules": "1.0"},
        {"per_block_joules": math.nan}, {"per_block_joules": math.inf},
        {"per_block_joules": True}, {"per_block_joules": "0.5"},
        {"per_block_joules": [0.5, math.nan]}, {"per_block_joules": [math.inf, 0.5]},
        {"per_block_joules": [0.5, -math.inf]}, {"per_block_joules": [True, 0.5]},
        {"per_block_joules": [0.5, "0.5"]},
        {"noise_sigma": math.nan}, {"noise_sigma": math.inf}, {"noise_sigma": -math.inf},
        {"noise_sigma": True},
        {"seed": 2.5}, {"seed": "1"}, {"seed": None}, {"seed": True}, {"seed": np.float64(2)},
        {"seed": math.nan}, {"base_joules": 0}, {"per_block_joules": ()},
        {"per_block_joules": np.array([[0.5]])}, {"per_block_joules": np.array(0.5)},
        {"per_block_joules": None}, {"noise_sigma": -1},
    ], ids=repr)
    def test_non_finite_bool_and_non_integer_model_params(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs)).replace("per_block_", "")):
            EnergyModel(**kwargs)
        model = EnergyModel()
        with pytest.raises(ValueError, match=next(iter(kwargs)).replace("per_block_", "")):
            model.set_params(**kwargs)
        assert model.get_params() == EnergyModel().get_params()

    def test_negative_zero_noise_measures_as_zero_noise(self):
        X = np.full((2, 3), 0.5)
        adnn = ScriptedAdnn([0.2, 0.4, 0.6, 0.8])
        assert math.copysign(1.0, EnergyModel(noise_sigma=-0.0).noise_sigma) == 1.0
        got = measure_many(adnn, EnergyModel(noise_sigma=-0.0), X)
        want = measure_many(adnn, EnergyModel(noise_sigma=0.0), X)
        for field in ("raw", "kept", "means"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes()

    def test_numpy_numbers_and_negative_seeds_accepted(self):
        em = EnergyModel(base_joules=np.float64(1.0), per_block_joules=np.array([1, 2]),
                         noise_sigma=np.float32(0.5), seed=np.int64(-3))
        assert em.per_block_joules == [1.0, 2.0] and em.noise_sigma == 0.5
        for seed in (-1, np.uint64(2**64 - 1), 2**70):
            assert EnergyModel(seed=seed).seed == seed

    @pytest.mark.parametrize("kwargs", [
        {"repetitions": 0},
        {"rejection_factor": 1.0},
        {"rejection_factor": 0.5},
    ])
    def test_bad_protocol(self, kwargs):
        with pytest.raises(ValueError):
            MeasurementProtocol(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"repetitions": True}, {"repetitions": 2.5}, {"repetitions": np.float64(3)},
        {"repetitions": "20"},
        {"rejection_factor": math.nan}, {"rejection_factor": "2"},
        {"rejection_factor": -math.inf},
        {"repetitions": -1}, {"repetitions": math.inf}, {"repetitions": None},
        {"rejection_factor": True}, {"rejection_factor": 1}, {"rejection_factor": None},
    ], ids=repr)
    def test_non_integer_repetitions_and_nan_factor(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            MeasurementProtocol(**kwargs)

    def test_numpy_repetitions_accepted(self):
        meas = measure_energy(SCRIPTED, EnergyModel(seed=1), np.full(64, 0.5),
                              MeasurementProtocol(repetitions=np.int64(3)))
        assert len(meas.raw_samples) == 3

    def test_numpy_and_infinite_factors_accepted(self):
        for factor in (np.float64(2.0), np.int64(3), np.float32(math.inf), math.inf):
            assert MeasurementProtocol(rejection_factor=factor).rejection_factor == factor
        em = EnergyModel(per_block_joules=(0.5, np.float64(1.0), 2))
        assert em.per_block_joules == [0.5, 1.0, 2.0]

    def test_infinite_rejection_factor_keeps_every_reading(self):
        keep_all = MeasurementProtocol(rejection_factor=math.inf)
        assert retained([10, 10, 10, 16], math.inf) == [10, 10, 10, 16]
        # a zero median makes inf * median NaN; nothing may be dropped for it
        assert retained([0.0, 0.0, 0.0, 5.0], math.inf) == [0.0, 0.0, 0.0, 5.0]
        em = EnergyModel(base_joules=1.0, per_block_joules=0.5, noise_sigma=0.6, seed=4)
        X = derive_rng(2, "scripted-inputs").uniform(0, 1, size=(24, 64))
        default, kept = measure_many(SCRIPTED, em, X), measure_many(SCRIPTED, em, X, keep_all)
        assert any(m.retained != m.raw_samples for m in default)
        for a, b in zip(default, kept):
            assert b.raw_samples == b.retained == a.raw_samples
            assert b.mean == np.mean(b.raw_samples)
        tiny = EnergyModel(base_joules=0.01, per_block_joules=0.01, noise_sigma=5.0, seed=3)
        zero_median = measure_many(SCRIPTED, tiny, X[:8], keep_all)
        assert any(np.median(m.raw_samples) == 0.0 for m in zero_median)
        for m in zero_median:
            assert m.retained == m.raw_samples and m.mean == np.mean(m.raw_samples)


class TestOneRowRejection:
    """`reject_and_average` on a matrix of one row of readings."""

    def test_high_sample_dropped(self):
        assert retained([10, 10, 10, 16]) == [10, 10, 10]

    def test_uniform_all_kept(self):
        assert retained([5, 5, 5, 5]) == [5, 5, 5, 5]

    def test_boundary_inclusive(self):
        assert retained([1, 2, 3]) == [1, 2, 3]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            retained([])

    def test_matches_bruteforce_reference(self):
        rng = np.random.default_rng(42)
        factor = MeasurementProtocol().rejection_factor
        for _ in range(1000):
            n = int(rng.integers(1, 25))
            samples = rng.uniform(0.0, 10.0, size=n).tolist()
            assert retained(samples, factor) == filter_outliers_reference(samples, factor)


# dyadic readings make ties at the cutoff (1.5 * 1.0, 2.0 * 1.5) likely
READING = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0]),
                    st.floats(0.0, 8.0))
FACTOR = st.one_of(st.sampled_from([1.0, 1.5, 2.0, math.inf]), st.floats(1.0, 4.0))


@st.composite
def reading_matrices(draw):
    """Rows of readings, each with some clamped at 0: when most are, the
    row's median is 0."""
    reps = draw(st.sampled_from([1, 2, 3, 20, 21]))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        row = draw(st.lists(READING, min_size=reps, max_size=reps))
        zeros = draw(st.integers(0, reps))
        rows.append(draw(st.permutations([0.0] * zeros + row[zeros:])))
    return reps, rows


class TestRejectAndAverage:
    """The whole-matrix rule against the one-row reference, row by row."""

    @settings(max_examples=300, deadline=None)
    @given(reading_matrices(), FACTOR)
    @example((3, [[1.0, 1.0, 1.5], [1.0, 1.5, 2.0], [0.0, 0.0, 4.0]]), 1.5)
    @example((2, [[1.5, 3.0], [0.0, 2.0]]), 2.0)
    @example((21, [[0.0] * 11 + [2.0] * 10, [1.0] * 21]), 1.0)
    @example((20, [[0.0] * 10 + [2.0] * 10, [0.0] * 11 + [5.0] * 9]), math.inf)
    @example((1, [[0.0], [3.0]]), 1.0)
    def test_rows_match_one_row_reference(self, matrix, factor):
        reps, rows = matrix
        readings = np.array(rows, dtype=np.float64).reshape(len(rows), reps)
        result = reject_and_average(readings, factor)
        assert isinstance(result, MeasurementBatch)
        assert len(result) == len(list(result)) == len(rows)
        assert result.raw.shape == result.kept.shape == (len(rows), reps)
        assert result.kept.dtype == bool and result.means.shape == (len(rows),)
        assert result.raw.tobytes() == readings.tobytes()
        for i, (row, m) in enumerate(zip(rows, result)):
            # an infinite factor keeps every reading, a zero median's too
            kept = list(row) if factor == math.inf else filter_outliers_reference(row, factor)
            if factor == math.inf:
                mask = [True] * reps
            else:
                mask = [v <= factor * statistics.median(row) for v in row]
            assert result.kept[i].tolist() == mask
            assert result.means[i].tobytes() == np.mean(kept).tobytes()
            assert m.raw_samples == tuple(row)
            assert m.retained == tuple(kept)
            assert all(type(v) is float for v in m.raw_samples + m.retained)
            assert type(m.mean) is float and repr(m.mean) == repr(float(np.mean(kept)))
            indexed = result[i - len(rows)]
            assert indexed == m and type(indexed.mean) is float
            assert retained(row, factor) == kept
        for i in (len(rows), -len(rows) - 1):
            with pytest.raises(IndexError):
                result[i]

    @pytest.mark.parametrize("factor", [1.5, math.inf])
    @pytest.mark.parametrize("reps", [8, 9, 20])
    def test_any_memory_layout_averages_as_a_row_does(self, factor, reps):
        # rows that keep every reading are summed straight from a C-ordered
        # matrix; a Fortran-ordered or strided one gives the same bytes
        readings = np.random.default_rng(reps).uniform(1.0, 1.2, size=(5, reps))
        readings[0, 0] = 9.0
        expected = [np.mean(row[row <= factor * np.median(row)]) for row in readings]
        for layout in (readings, np.asfortranarray(readings),
                       np.repeat(readings, 2, axis=1)[:, ::2]):
            result = reject_and_average(layout, factor)
            assert result.means.tobytes() == np.array(expected).tobytes()
            assert result.kept.all() == (factor == math.inf)

    def test_empty_matrix_gives_an_empty_batch(self):
        result = reject_and_average(np.empty((0, 20)))
        assert len(result) == 0 and list(result) == []
        assert result.raw.shape == result.kept.shape == (0, 20) and result.means.shape == (0,)

    @pytest.mark.parametrize("index", [slice(0, 1), slice(0, 2), np.array([0]), [0], 1.0, None],
                             ids=repr)
    def test_only_an_integer_indexes_a_row(self, index):
        result = reject_and_average([[1.0, 1.0, 4.0], [2.0, 2.0, 2.0]])
        with pytest.raises(TypeError):
            result[index]

    def test_numpy_integer_indexes_a_row(self):
        result = reject_and_average([[1.0, 1.0, 4.0], [2.0, 2.0, 2.0]])
        assert result[np.int64(0)] == result[-2] == EnergyMeasurement((1.0, 1.0, 4.0),
                                                                      (1.0, 1.0), 1.0)

    @pytest.mark.parametrize("readings", [np.zeros(3), np.zeros((2, 2, 2)), np.zeros((2, 0)),
                                          [[1.0, math.nan]], [[1.0, math.inf]]], ids=repr)
    def test_bad_readings_rejected(self, readings):
        with pytest.raises(ValueError, match="readings"):
            reject_and_average(readings)

    @pytest.mark.parametrize("factor", [0.5, 1 - 1e-12, math.nan, -math.inf, True, "2", None],
                             ids=repr)
    def test_bad_factor_rejected(self, factor):
        with pytest.raises(ValueError, match="rejection_factor"):
            reject_and_average(np.ones((2, 3)), factor)


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

    def test_noise_perturbs_reading(self):
        em = EnergyModel(base_joules=1.0, per_block_joules=0.5, noise_sigma=0.3, seed=1)
        raw = measure_many(SCRIPTED, em, np.full((1, 64), 0.5), MeasurementProtocol(8)).raw
        assert len(set(raw[0].tolist())) > 1

    def test_never_negative(self):
        # the noise dwarfs the 0.01 J of a run with no block, and a reading
        # below zero is clamped to it
        em = EnergyModel(base_joules=0.01, per_block_joules=0.01, noise_sigma=50.0, seed=3)
        raw = measure_many(SCRIPTED, em, np.full((1, 64), 0.01),
                           MeasurementProtocol(repetitions=200)).raw
        assert raw.min() == 0.0 and np.all(raw >= 0.0)

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

    def test_one_input_only(self):
        em = EnergyModel(seed=2)
        x = np.full(64, 0.5)
        assert measure_energy(SCRIPTED, em, x[None, :]) == measure_energy(SCRIPTED, em, x)
        # the scripted model has no feature count, so nothing downstream
        # would notice a batch read as one long input
        for bad in (np.full((2, 64), 0.5), np.full((1, 1, 64), 0.5), 0.5, np.empty((0, 64))):
            with pytest.raises(ValueError, match="one input"):
                measure_energy(SCRIPTED, em, bad)

    @pytest.mark.parametrize("inputs", [[], [[]], np.empty((3, 0))], ids=repr)
    def test_rows_without_features_rejected(self, inputs):
        em = EnergyModel(seed=2)
        with pytest.raises(ValueError, match="no features"):
            measure_many(SCRIPTED, em, inputs)
        if np.ndim(inputs) == 1:
            with pytest.raises(ValueError, match="no features"):
                measure_energy(SCRIPTED, em, inputs)

    def test_rows_are_built_only_when_read(self, monkeypatch):
        built = []
        init = EnergyMeasurement.__init__

        def counted(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(EnergyMeasurement, "__init__", counted)
        em = EnergyModel(noise_sigma=0.05, seed=3)
        X = derive_rng(5, "scripted-inputs").uniform(0, 1, size=(100, 64))
        batch = measure_many(SCRIPTED, em, X)
        assert len(batch) == 100 and built == []
        assert batch.means.tolist() == [m.mean for m in batch]
        assert len(built) == 100

    def test_scripted_model_measures_a_matrix_of_no_rows_and_no_columns(self):
        # a (0, 0) matrix has no row to average, and numpy warns on the mean
        # of one, which the test configuration turns into an error
        adnn = ScriptedAdnn([0.2, 0.4, 0.6, 0.8])
        traces = adnn.infer(np.empty((0, 0)))
        assert len(traces) == 0 and traces.flops.shape == (0,)
        assert traces.logits.shape == (0, 4) and traces.gate_decisions.shape == (0, 4)
        batch = measure_many(adnn, EnergyModel(), np.empty((0, 0)))
        assert len(batch) == 0 and list(batch) == []


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
        assert list(measure_many(adnn, em, X)) == expected
        assert [measure_energy(adnn, em, x) for x in X[:4]] == expected[:4]
        assert list(measure_many(adnn, em, X[0])) == expected[:1]
        if sigma > 0:
            assert len({m.mean for m in expected}) > 1

    def test_empty_batch(self, case):
        adnn, _ = case
        em = EnergyModel(noise_sigma=0.05)
        assert list(measure_many(adnn, em, np.empty((0, 64)))) == []
