"""Deterministic random-stream derivation.

Every random draw in the package comes from a generator derived here. A root
seed plus a list of string/int labels maps to an independent stream, so stages
can be re-run in any order without perturbing each other's randomness.
"""

import functools
import hashlib

import numpy as np


def _label_entropy(label):
    if isinstance(label, (int, np.integer)):
        return int(label) & 0xFFFFFFFFFFFFFFFF
    return _text_entropy(label if isinstance(label, bytes) else str(label))


@functools.lru_cache(maxsize=4096)
def _text_entropy(label):
    """The first 8 bytes of the SHA-256 of a bytes label, or of a text
    label's UTF-8; cached, since a few stage labels recur for every input."""
    data = label if isinstance(label, bytes) else label.encode("utf-8")
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "big")


def derive_rng(seed, *labels):
    """Generator for the stream identified by (seed, labels).

    The SeedSequence of the seed and the labels' entropy defines the stream;
    the Generator is built on it directly, as `default_rng` would.
    """
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF] + [_label_entropy(l) for l in labels]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def array_fingerprint(arr):
    """Stable content hash of an array, used to key per-input noise streams."""
    a = np.ascontiguousarray(np.asarray(arr, dtype=np.float64))
    digest = hashlib.sha256(a.tobytes()).digest()
    return int.from_bytes(digest[:8], "big")
