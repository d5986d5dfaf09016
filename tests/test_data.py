"""Synthetic dataset generation, probe corpora, and serialization."""

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adnn_energy_lab.data import (
    LabeledDataset,
    class_prototypes,
    estimator_corpus,
    generate_dataset,
    probe_inputs,
)
from adnn_energy_lab.metrics import pearson
from adnn_energy_lab.serialize import DataFormatError


class TestPrototypes:
    def test_band_values_and_disjointness(self):
        protos = class_prototypes(4, contrast=0.8)
        assert protos.shape == (4, 64)
        lo, hi = 0.5 - 0.8 / 2, 0.5 + 0.8 / 2
        assert set(np.unique(protos)) == {lo, hi}
        bright = protos == hi
        assert np.array_equal(bright.sum(axis=0), np.ones(64))
        assert np.array_equal(bright.sum(axis=1), np.full(4, 16))

    def test_low_contrast_stays_off_the_rails(self):
        protos = class_prototypes(4, contrast=0.1)
        assert protos.min() == pytest.approx(0.45)
        assert protos.max() == pytest.approx(0.55)

    def test_contrast_validation(self):
        with pytest.raises(ValueError):
            class_prototypes(4, contrast=0.0)
        with pytest.raises(ValueError):
            class_prototypes(4, contrast=1.2)

    def test_class_count_validation(self):
        with pytest.raises(ValueError):
            class_prototypes(1)
        with pytest.raises(ValueError):
            class_prototypes(100, input_dim=64)


class TestGeneration:
    def test_zero_noise_reproduces_prototypes(self):
        ds = generate_dataset(12, noise_span=0.0, seed=0)
        protos = class_prototypes(4)
        for x, label in zip(ds.inputs, ds.labels):
            assert np.array_equal(x, protos[label])

    def test_same_seed_is_bitwise_identical(self):
        a = generate_dataset(50, seed=11)
        b = generate_dataset(50, seed=11)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.difficulty, b.difficulty)

    def test_different_seeds_differ(self):
        a = generate_dataset(50, seed=1)
        b = generate_dataset(50, seed=2)
        assert not np.array_equal(a.inputs, b.inputs)

    def test_ranges_and_balance(self):
        for seed in range(4):
            ds = generate_dataset(101, num_classes=4, noise_span=0.9, seed=seed)
            assert ds.inputs.min() >= 0.0 and ds.inputs.max() <= 1.0
            assert ds.labels.min() >= 0 and ds.labels.max() < 4
            assert ds.difficulty.min() >= 0.0 and ds.difficulty.max() <= 1.0
            assert np.array_equal(ds.labels, np.arange(101) % 4)

    def test_dataset_length_and_properties(self):
        ds = generate_dataset(30, num_classes=3)
        assert len(ds) == 30
        assert ds.input_dim == 64
        assert ds.num_classes == 3

    def test_num_examples_validation(self):
        with pytest.raises(ValueError):
            generate_dataset(0)

    def test_difficulty_tracks_block_usage(self, trained_skip, skip_dataset):
        active = [t.active_units for t in trained_skip.infer(skip_dataset.inputs)]
        r, _ = pearson(skip_dataset.difficulty, active, n_perm=200)
        assert r > 0.0


class TestProbes:
    def test_shape_and_range(self):
        X = probe_inputs(32)
        assert X.shape == (32, 64)
        assert X.min() >= 0.0 and X.max() <= 1.0

    def test_levels_override(self):
        X = probe_inputs(3, jitter=0.0, levels=[0.1, 0.5, 0.9])
        assert np.allclose(X.mean(axis=1), [0.1, 0.5, 0.9])

    def test_deterministic(self):
        assert np.array_equal(probe_inputs(16, seed=4), probe_inputs(16, seed=4))

    def test_count_validation(self):
        with pytest.raises(ValueError):
            probe_inputs(0)
        with pytest.raises(ValueError):
            probe_inputs(4, levels=[0.5])

    def test_corpus_composition(self):
        X = estimator_corpus(500, seed=0)
        assert X.shape == (500, 64)
        assert X.min() >= 0.0 and X.max() <= 1.0
        masks = X[150:300]
        assert set(np.unique(masks)) <= {0.0, 1.0}

    def test_corpus_deterministic(self):
        assert np.array_equal(estimator_corpus(100, seed=3), estimator_corpus(100, seed=3))

    def test_corpus_minimum_size(self):
        with pytest.raises(ValueError):
            estimator_corpus(5)


class TestRoundTrip:
    def test_save_load_equality(self, tmp_path):
        ds = generate_dataset(10, seed=5)
        path = tmp_path / "ds.json"
        ds.save(path)
        loaded = LabeledDataset.load(path)
        assert np.array_equal(loaded.inputs, ds.inputs)
        assert np.array_equal(loaded.labels, ds.labels)
        assert np.array_equal(loaded.difficulty, ds.difficulty)

    def test_empty_dataset_roundtrips(self, tmp_path):
        ds = LabeledDataset(np.empty((0, 64)), np.empty(0, dtype=int), np.empty(0))
        path = tmp_path / "empty.json"
        ds.save(path)
        loaded = LabeledDataset.load(path)
        assert len(loaded) == 0

    def test_truncated_file_is_structured_error(self, tmp_path):
        path = tmp_path / "trunc.json"
        path.write_text('{"inputs": [[0.1')
        with pytest.raises(DataFormatError):
            LabeledDataset.load(path)

    def test_missing_key_is_structured_error(self, tmp_path):
        path = tmp_path / "missing.json"
        path.write_text('{"inputs": [], "labels": []}')
        with pytest.raises(DataFormatError):
            LabeledDataset.load(path)

    def test_out_of_range_pixels_rejected(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.full((2, 64), 1.5), np.array([0, 1]), np.zeros(2))


def _paths(node, prefix=()):
    """Every key path into a JSON tree, the root's children first."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)

SMALL = {"inputs": [[0.25, 0.5, 0.75], [0.0, 1.0, 0.5]], "labels": [0, 1],
         "difficulty": [0.1, 0.9]}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("dataset-fuzz")


class TestLoaderFuzz:
    def test_valid_small_file_loads(self, fuzz_dir):
        path = fuzz_dir / "valid.json"
        path.write_text(json.dumps(SMALL))
        assert len(LabeledDataset.load(path)) == 2

    @pytest.mark.parametrize("text", [
        "3", "[1, 2]", '"inputs"', "null",
        '{"inputs": [[0.5], [0.5, 0.5]], "labels": [0, 1], "difficulty": [0, 0]}',
        '{"inputs": [[0.5]], "labels": ["a"], "difficulty": [0]}',
        '{"inputs": [[1.5]], "labels": [0], "difficulty": [0]}',
        '{"inputs": [[0.5]], "labels": [0, 1], "difficulty": [0]}',
        '{"inputs": [[0.5]], "labels": [1e30], "difficulty": [0]}',
        '{"inputs": [[0.5]], "labels": [Infinity], "difficulty": [0]}',
        '{"inputs": [[1e400]], "labels": [0], "difficulty": [0]}',
    ])
    def test_malformed_file_raises_data_format_error(self, fuzz_dir, text):
        path = fuzz_dir / "bad.json"
        path.write_text(text)
        with pytest.raises(DataFormatError):
            LabeledDataset.load(path)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_mutated_payload_raises_only_data_format_error(self, fuzz_dir, data):
        payload = copy.deepcopy(SMALL)
        for _ in range(data.draw(st.integers(1, 3))):
            path = data.draw(st.sampled_from([()] + list(_paths(payload))))
            if not path:
                payload = data.draw(json_values)
                continue
            parent = payload
            for key in path[:-1]:
                parent = parent[key]
            if isinstance(parent, dict) and data.draw(st.booleans()):
                del parent[path[-1]]
            else:
                parent[path[-1]] = data.draw(json_values)
        file = fuzz_dir / "mutated.json"
        file.write_text(json.dumps(payload))
        try:
            LabeledDataset.load(file)
        except DataFormatError:
            pass
