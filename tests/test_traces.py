"""`infer`'s columnar TraceBatch against traces built row by row, and the
step ladder that prices a batch and a single trace alike."""

import numpy as np
import pytest

from adnn_energy_lab.energy import EnergyModel
from adnn_energy_lab.models import ExecutionTrace, ScriptedAdnn, TraceBatch
from adnn_energy_lab.seeding import derive_rng

from oracles import infer_reference

SCRIPTED = ScriptedAdnn([0.2, 0.4, 0.6, 0.8], base_flops=100, block_flops=256)
FIELDS = ("kind", "flops", "logits", "signature", "gate_values", "gate_decisions",
          "exit_index", "exit_entropies")


def assert_same_trace(trace, ref):
    """Equal field by field and by type; floats by repr, arrays by bytes."""
    assert type(trace) is ExecutionTrace
    for name in FIELDS:
        got, want = getattr(trace, name), ref[name]
        assert type(got) is type(want), name
        if isinstance(want, np.ndarray):
            assert (got.dtype, got.shape) == (want.dtype, want.shape), name
            assert got.tobytes() == want.tobytes(), name
        else:
            assert repr(got) == repr(want), name
            if isinstance(want, tuple):
                assert [type(v) for v in got] == [type(v) for v in want], name


@pytest.fixture(params=["trained_skip", "trained_exit", "scripted"])
def case(request):
    """A model and a batch of its own inputs, then off-distribution rows."""
    noise = derive_rng(3, "off-distribution").uniform(0, 1, size=(8, 64))
    if request.param == "scripted":
        # row means below 0 and above 1 reach the label's truncation and cap
        levels = np.array([-0.2, -0.01, 0.0, 0.2, 0.45, 0.8, 0.999, 1.3])
        return SCRIPTED, np.concatenate([noise, np.repeat(levels[:, None], 64, axis=1)])
    dataset = "skip_dataset" if request.param == "trained_skip" else "exit_dataset"
    X = request.getfixturevalue(dataset).inputs[:40]
    return request.getfixturevalue(request.param), np.concatenate([X, noise])


class TestTraceBatchRows:
    def test_rows_equal_reference(self, case):
        model, X = case
        batch = model.infer(X)
        assert type(batch) is TraceBatch and len(batch) == len(X)
        expected = infer_reference(model, X)
        for i, ref in enumerate(expected):
            assert_same_trace(batch[i], ref)
        rows = list(batch)
        assert len(rows) == len(X)
        for trace, ref in zip(rows, expected):
            assert_same_trace(trace, ref)
        # each row owns its logits
        assert not np.shares_memory(rows[0].logits, batch.logits)

    def test_columns_equal_rows(self, case):
        model, X = case
        batch, expected = model.infer(X), infer_reference(model, X)
        assert batch.flops.tolist() == [r["flops"] for r in expected]
        assert batch.active_units.tolist() == [t.active_units for t in batch]
        assert batch.labels.tolist() == [int(np.argmax(r["logits"])) for r in expected]
        assert np.array_equal(model.predict(X), batch.labels)
        if batch.kind == "exit":
            assert batch.exit_indices.tolist() == [r["exit_index"] for r in expected]
        else:
            assert batch.gate_decisions.tolist() == [list(r["gate_decisions"]) for r in expected]

    def test_vector_input_gives_one_trace(self, case):
        model, X = case
        for x in X[[0, -1]]:
            assert_same_trace(model.infer(x), infer_reference(model, x))

    def test_empty_batch(self, case):
        model, X = case
        batch = model.infer(X[:0])
        assert type(batch) is TraceBatch and len(batch) == 0
        assert list(batch) == infer_reference(model, X[:0]) == []
        assert batch.labels.shape == batch.active_units.shape == (0,)
        assert EnergyModel().noiseless_energies(batch).shape == (0,)

    def test_the_models_signature_and_kind(self, case):
        model, X = case
        batch = model.infer(X[:3])
        assert batch.signature == model.signature
        assert batch.kind == ("exit" if hasattr(model, "entropy_threshold") else "skip")


def test_scripted_rejects_a_row_whose_mean_overflows():
    with np.errstate(over="ignore"):
        for level in (1e308, -1e308):
            with pytest.raises(ValueError, match="overflows"):
                SCRIPTED.infer(np.full((2, 64), level))


class TestNoiselessEnergies:
    @pytest.mark.parametrize("per_block", [0.5, 0.1, 3, [0.3, 0.7, 1.1, 0.2]])
    def test_batch_equals_each_trace(self, case, per_block):
        model, X = case
        batch = model.infer(X)
        em = EnergyModel(base_joules=0.7, per_block_joules=per_block)
        if batch.kind == "skip" and not np.isscalar(per_block):
            with pytest.raises(ValueError, match="scalar"):
                em.noiseless_energies(batch)
            return
        energies = em.noiseless_energies(batch)
        expected = [em.noiseless_energy(t) for t in batch]
        assert energies.dtype == np.float64 and energies.tolist() == expected
        assert all(type(e) is float for e in expected)

    def test_ladder_is_base_plus_steps(self):
        em = EnergyModel(base_joules=1.0, per_block_joules=0.5)
        batch = SCRIPTED.infer(np.repeat(np.linspace(0, 1, 9)[:, None], 64, axis=1))
        assert em.noiseless_energies(batch).tolist() == [1.0 + 0.5 * k
                                                         for k in batch.active_units]


def exit_batch(indices, segments=4):
    """A hand-made exit TraceBatch with the given exit indices."""
    indices = np.asarray(indices, dtype=np.int64)
    n = len(indices)
    return TraceBatch("exit", ("test",), np.zeros(n, dtype=np.int64), np.zeros((n, 4)),
                      exit_indices=indices, exit_entropies=np.zeros((n, segments)))


class TestShortSegmentList:
    """A per-segment list shorter than the net's segments prices every row
    that exits within it, and raises only for a row that exits past it."""

    def test_rows_within_the_list_are_priced(self):
        em = EnergyModel(base_joules=1.0, per_block_joules=[1.0, 2.0])
        assert em.noiseless_energies(exit_batch([0, 1, 0])).tolist() == [2.0, 4.0, 2.0]

    @pytest.mark.parametrize("indices", [[2], [0, 1, 3], [3, 0]])
    def test_a_row_past_the_list_raises(self, indices):
        em = EnergyModel(base_joules=1.0, per_block_joules=[1.0, 2.0])
        with pytest.raises(ValueError, match="prices only 2"):
            em.noiseless_energies(exit_batch(indices))
        with pytest.raises(ValueError, match="prices only 2"):
            em.noiseless_energy(exit_batch(indices)[indices.index(max(indices))])

    def test_empty_batch_does_not_raise(self):
        em = EnergyModel(per_block_joules=[1.0])
        assert em.noiseless_energies(exit_batch([])).shape == (0,)
        skip_only = EnergyModel(per_block_joules=[1.0, 2.0])
        assert skip_only.noiseless_energies(SCRIPTED.infer(np.empty((0, 64)))).shape == (0,)

    def test_trained_exit_raises_only_past_the_list(self, trained_exit, exit_dataset):
        batch = trained_exit.infer(exit_dataset.inputs)
        units = batch.active_units
        assert units.min() < units.max()  # the inputs exit at several depths
        short = EnergyModel(per_block_joules=[0.5] * int(units.max() - 1))
        with pytest.raises(ValueError, match="prices only"):
            short.noiseless_energies(batch)
        shallow = trained_exit.infer(exit_dataset.inputs[units < units.max()])
        assert short.noiseless_energies(shallow).tolist() == [
            short.noiseless_energy(t) for t in shallow]
