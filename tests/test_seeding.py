"""Stream derivation: the draws each (seed, labels) pair stands for."""

import hashlib

import numpy as np
import pytest

from adnn_energy_lab.seeding import derive_rng

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
