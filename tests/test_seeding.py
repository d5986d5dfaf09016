"""Stream derivation: the draws each (seed, labels) pair stands for."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adnn_energy_lab.seeding import array_fingerprints, derive_rng, normal_rows

from oracles import array_fingerprint

# draws of derive_rng(7, *labels).integers(0, 2**32, size=3), pinned: the
# per-input measurement and test-generation streams depend on them
PINNED = [
    ((3,), [3126384070, 4187737225, 2311545377]),
    (("measure",), [3586415797, 2599322626, 2401140848]),
    ((b"abc",), [3888327462, 83491998, 2413694051]),
    (("measure", 12345678901234567890), [4276390017, 932261875, 1381760342]),
    (("testgen", "universal", "2"), [3983991250, 774616527, 46144265]),
    ((b"", -5), [1166069365, 3133594318, 3826893724]),
]


def reference_rng(seed, *labels):
    """The stream from its definition: SeedSequence over the seed and each
    label's entropy (an int masked to 64 bits, else the first 8 bytes of the
    SHA-256 of the bytes or of the text's UTF-8), through default_rng."""
    entropy = [seed & 0xFFFFFFFFFFFFFFFF]
    for label in labels:
        if isinstance(label, int):
            entropy.append(label & 0xFFFFFFFFFFFFFFFF)
        else:
            data = label if isinstance(label, bytes) else str(label).encode("utf-8")
            entropy.append(int.from_bytes(hashlib.sha256(data).digest()[:8], "big"))
    return np.random.default_rng(np.random.SeedSequence(entropy))


@pytest.mark.parametrize("labels, draws", PINNED)
def test_draws_are_pinned(labels, draws):
    assert derive_rng(7, *labels).integers(0, 2**32, size=3).tolist() == draws
    # a second derivation, served from the label cache, draws the same
    assert derive_rng(7, *labels).integers(0, 2**32, size=3).tolist() == draws


@pytest.mark.parametrize("seed", range(50))
def test_draws_equal_the_defining_construction(seed):
    labels = ("measure", seed * 7919, b"\x00\xff", 2.5)
    assert derive_rng(seed, *labels).normal(size=5).tobytes() == \
        reference_rng(seed, *labels).normal(size=5).tobytes()


def test_a_text_label_and_its_utf8_bytes_share_a_stream():
    a = derive_rng(0, "abc").integers(0, 2**32, size=4)
    assert derive_rng(0, b"abc").integers(0, 2**32, size=4).tolist() == a.tolist()
    assert derive_rng(0, "abd").integers(0, 2**32, size=4).tolist() != a.tolist()


# keys at the edges of numpy's entropy coercion: one uint32 word, two words
EDGE_KEYS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 7, 2**32 + 1, 2**63 + 99]


def reference_rows(seed, labels, keys, scale, size):
    return np.array([reference_rng(seed, *labels, k).normal(0.0, scale, size)
                     for k in keys]).reshape(len(keys), size)


def assert_rows_match(seed, labels, keys, scale=0.3, size=6):
    rows = normal_rows(seed, labels, keys, scale, size)
    assert rows.shape == (len(keys), size)
    assert rows.tobytes() == reference_rows(seed, labels, keys, scale, size).tobytes()
    for row, key in zip(rows, keys):
        assert row.tobytes() == derive_rng(seed, *labels, key).normal(0.0, scale, size).tobytes()


class TestNormalRows:
    """Every row of the batch path equals its own SeedSequence stream."""

    @pytest.mark.parametrize("seed", [0, 3, 2**32 - 1, 2**32, -1, -5, -2**70,
                                      2**64, 2**64 + 7, 2**80 + 3])
    def test_edge_keys_in_one_batch(self, seed):
        assert_rows_match(seed, ("measure",), EDGE_KEYS)
        assert_rows_match(seed, ("measure",), EDGE_KEYS[::-1])

    @pytest.mark.parametrize("labels", [
        (), ("measure",), (b"abc",), (b"",), (5,), (2**40,), (-3,),
        ("testgen", "input_based"), ("a", 2**33, b"\x00\xff", 0, "z"),
        (1, 2, 3, 4, 5, 6),
    ])
    def test_int_str_and_bytes_labels(self, labels):
        assert_rows_match(11, labels, EDGE_KEYS)

    def test_text_keys_hash_as_labels_do(self):
        assert_rows_match(2, ("measure",), ["a", b"a", "", 4])

    @pytest.mark.parametrize("size", [0, 6])
    def test_no_keys_give_no_rows(self, size):
        rows = normal_rows(4, ("measure",), [], 0.05, size)
        assert rows.shape == (0, size) and rows.dtype == np.float64

    def test_zero_scale_draws_as_the_stream_does(self):
        assert_rows_match(4, ("measure",), EDGE_KEYS, scale=0.0)

    def test_subnormal_scale_draws_as_the_stream_does(self):
        # a draw below 0.5 in size times the least subnormal rounds to a
        # zero, -0.0 for a negative draw, which `normal` returns as +0.0
        rows = normal_rows(4, ("measure",), EDGE_KEYS, 5e-324, 20)
        zeros = rows[rows == 0.0]
        assert len(zeros) and not np.signbit(zeros).any()
        assert_rows_match(4, ("measure",), EDGE_KEYS, scale=5e-324, size=20)

    @pytest.mark.parametrize("scale", [-0.0, -1e-300, -1.0])
    def test_negative_scale_rejected_as_normal_does(self, scale):
        with pytest.raises(ValueError, match="scale < 0"):
            derive_rng(0, "measure", 1).normal(0.0, scale, 3)
        with pytest.raises(ValueError, match="scale < 0"):
            normal_rows(0, ("measure",), [1], scale, 3)

    def test_numpy_integer_seed_and_keys(self):
        keys = np.array([0, 2**32, 2**63], dtype=np.uint64)
        rows = normal_rows(np.int64(-2), ("measure",), list(keys), 0.1, 4)
        assert rows.tobytes() == reference_rows(-2, ("measure",), [0, 2**32, 2**63],
                                                0.1, 4).tobytes()

    @pytest.mark.parametrize("keys", [EDGE_KEYS, [0, 1, 7, 2**32 - 1],
                                      [2**63, 2**64 - 1, 2**63 + 99]],
                             ids=["mixed", "below 2**32", "from 2**63"])
    def test_uint64_key_array_equals_the_int_list(self, keys):
        array = np.array(keys, dtype=np.uint64)
        rows = normal_rows(5, ("measure",), array, 0.2, 7)
        assert rows.tobytes() == normal_rows(5, ("measure",), keys, 0.2, 7).tobytes()
        assert rows.tobytes() == reference_rows(5, ("measure",), keys, 0.2, 7).tobytes()

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint32, np.int8])
    def test_other_integer_key_arrays_equal_the_int_list(self, dtype):
        keys = [0, 1, 100, np.iinfo(dtype).max] + ([-1, -2**7, np.iinfo(dtype).min]
                                                   if np.iinfo(dtype).min else [])
        rows = normal_rows(5, ("measure",), np.array(keys, dtype=dtype), 0.2, 7)
        assert rows.tobytes() == reference_rows(5, ("measure",), [int(k) for k in keys],
                                                0.2, 7).tobytes()

    def test_empty_key_array(self):
        assert normal_rows(4, ("measure",), np.zeros(0, dtype=np.uint64), 0.05, 3).shape == (0, 3)

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(-2**70, 2**70),
        labels=st.lists(st.one_of(st.integers(-2**66, 2**66), st.text(max_size=4),
                                  st.binary(max_size=4)), max_size=5),
        keys=st.lists(st.one_of(st.integers(0, 2**64 - 1), st.integers(0, 2**32)),
                      max_size=8),
        scale=st.floats(0.0, 10.0),
        size=st.integers(0, 5),
    )
    def test_rows_equal_their_streams(self, seed, labels, keys, scale, size):
        assert_rows_match(seed, tuple(labels), keys, scale, size)


class TestArrayFingerprints:
    """The batch fingerprint of each row is that row's own fingerprint, as
    `oracles.array_fingerprint` writes it from its definition."""

    @staticmethod
    def assert_rows_match(X):
        fingerprints = array_fingerprints(X)
        assert fingerprints.dtype == np.uint64 and fingerprints.shape == (len(X),)
        assert fingerprints.tolist() == [array_fingerprint(x) for x in X]

    def test_float64_rows(self):
        X = np.random.default_rng(0).uniform(0, 1, size=(9, 64))
        self.assert_rows_match(X)
        self.assert_rows_match(X.tolist())

    def test_float32_and_integer_rows_hash_as_float64(self):
        X = np.random.default_rng(1).uniform(0, 1, size=(5, 7))
        self.assert_rows_match(X.astype(np.float32))
        self.assert_rows_match(np.arange(12).reshape(4, 3))

    def test_fortran_order_and_slices(self):
        X = np.random.default_rng(2).uniform(0, 1, size=(6, 10))
        self.assert_rows_match(np.asfortranarray(X))
        self.assert_rows_match(X[::2, 1::3])
        self.assert_rows_match(X.T)
        assert array_fingerprints(np.asfortranarray(X)).tolist() == array_fingerprints(X).tolist()

    def test_negative_zero_differs_from_zero(self):
        X = np.array([[0.0, 1.0], [-0.0, 1.0]])
        self.assert_rows_match(X)
        assert len(set(array_fingerprints(X).tolist())) == 2

    def test_no_rows_and_rows_of_no_values(self):
        self.assert_rows_match(np.empty((0, 64)))
        self.assert_rows_match(np.empty((3, 0)))
        self.assert_rows_match(np.empty((0, 0)))

    def test_vector_entries_and_higher_rank_rows(self):
        self.assert_rows_match(np.array([0.5, -0.0, 2.0]))
        self.assert_rows_match(np.arange(10.0)[::3])
        self.assert_rows_match(np.arange(24.0).reshape(2, 3, 4))

    def test_a_scalar_has_no_rows(self):
        with pytest.raises(ValueError, match="rows"):
            array_fingerprints(np.float64(1.0))
