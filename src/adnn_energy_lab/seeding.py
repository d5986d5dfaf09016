"""Deterministic random-stream derivation.

Every random draw in the package comes from a generator derived here. A root
seed plus a list of string/int labels maps to an independent stream, so stages
can be re-run in any order without perturbing each other's randomness.

`derive_rng` defines one stream. `normal_rows` derives the streams of a whole
batch of keys together and draws the same normals from each, byte for byte:
it runs numpy's `SeedSequence` hash-mix over all keys at once in `uint32`
arrays and seeds `PCG64` from the result as `PCG64(SeedSequence(...))` does.
Each row draws its standard normals in place, into its row of the output,
and one pass over the whole output scales them as `Generator.normal` does.
A batch's keys may travel as one uint64 array: `array_fingerprints` hashes
every row of a matrix into one, each entry the SHA-256 fingerprint of the
row's bytes.
That this mapping stays fixed across numpy releases is numpy's own promise
(NEP 19, "Random number generator policy"); the tests check it against
`SeedSequence` itself.
"""

import functools
import hashlib
import math

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1
# numpy's SeedSequence constants (numpy/random/bit_generator.pyx) and the
# PCG64 state multiplier (PCG_DEFAULT_MULTIPLIER_128)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
# 0-d uint32 arrays keep every product in uint32 under numpy's value-based
# and NEP 50 promotion alike, and a ufunc converts them faster than scalars
_MIX_MULT_L = np.array(0xCA01F9DD, dtype=np.uint32)
_MIX_MULT_R = np.array(0x4973F715, dtype=np.uint32)
_XSHIFT = np.array(16, dtype=np.uint32)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# seeds the PCG64 that a `normal_rows` call reuses, before each row sets its
# state; built once, so that a call does not pay for a fresh SeedSequence
_PLACEHOLDER_SEED = np.random.SeedSequence(0)


def _label_entropy(label):
    if isinstance(label, (int, np.integer)):
        return int(label) & _MASK64
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
    entropy = [int(seed) & _MASK64] + [_label_entropy(l) for l in labels]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def _words(value):
    """A nonnegative int's little-endian uint32 words, as SeedSequence
    coerces an entropy value: [0] for 0, else no leading zero word."""
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


@functools.lru_cache(maxsize=64)
def _hash_run(init, mult, start, count):
    """The xor and multiply constants of `count` consecutive hashmix calls,
    from call `start` of a hash whose constant starts at `init` and is
    multiplied by `mult` at each call; two (count, 1) uint32 columns."""
    consts = [init * pow(mult, k, 1 << 32) & _MASK32 for k in range(start, start + count + 1)]
    column = np.array(consts, dtype=np.uint32)[:, None]
    column.setflags(write=False)
    return column[:-1], column[1:]


def _hashmix(values, run):
    """SeedSequence's hashmix of `values` under each constant pair of `run`;
    a new array, broadcast over the run's rows."""
    xor, mul = run
    out = values ^ xor
    out *= mul
    out ^= out >> _XSHIFT
    return out


def _mix(x, hashed):
    """SeedSequence's mix of pool words `x` with `hashed`, which it overwrites."""
    out = _MIX_MULT_L * x
    hashed *= _MIX_MULT_R
    out -= hashed
    out ^= out >> _XSHIFT
    return out


def _pool_mix_runs():
    """Per source word, the constants of hashing it into the other pool
    words; a zero row stands at the source's own place."""
    runs = []
    for src in range(_POOL_SIZE):
        xor, mul = _hash_run(_INIT_A, _MULT_A, _POOL_SIZE + src * (_POOL_SIZE - 1),
                             _POOL_SIZE - 1)
        runs.append((np.insert(xor, src, 0, axis=0), np.insert(mul, src, 0, axis=0)))
    return runs


_POOL_MIX_RUNS = _pool_mix_runs()


def _pcg64_seeds(words, last_present):
    """`SeedSequence(entropy).generate_state(4, np.uint64)` for n entropies
    at once, as an (n, 4) little-endian uint64 array.

    `words` lists the entropies' uint32 words by position, each a scalar
    shared by all n or an (n,) array. The last word is part of an entropy
    only where `last_present` holds; elsewhere that entropy is one word
    shorter. Inside the pool a missing word and a zero word hash alike.
    """
    pool = np.zeros((_POOL_SIZE, len(last_present)), dtype=np.uint32)
    for i, word in enumerate(words[:_POOL_SIZE]):
        pool[i] = word
    pool = _hashmix(pool, _hash_run(_INIT_A, _MULT_A, 0, _POOL_SIZE))
    for src, run in enumerate(_POOL_MIX_RUNS):
        mixed = _mix(pool, _hashmix(pool[src], run))
        mixed[src] = pool[src]
        pool = mixed
    call = _POOL_SIZE ** 2
    for i in range(_POOL_SIZE, len(words)):
        mixed = _mix(pool, _hashmix(words[i], _hash_run(_INIT_A, _MULT_A, call, _POOL_SIZE)))
        pool = mixed if i < len(words) - 1 else np.where(last_present, mixed, pool)
        call += _POOL_SIZE
    state = _hashmix(np.concatenate([pool, pool]), _hash_run(_INIT_B, _MULT_B, 0, 8))
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8")


def normal_rows(seed, labels, keys, scale, size):
    """A (len(keys), size) array whose row i is, byte for byte,
    `derive_rng(seed, *labels, keys[i]).normal(0.0, scale, size)`.

    `keys` is a list of int, str or bytes keys, or an integer array, such
    as the uint64 one `array_fingerprints` gives, which takes no per-key
    Python step. The streams' seeds are derived for all keys together, by
    `_pcg64_seeds`; a key's entropy is one uint32 word below 2**32 and two
    from there on. Each row then sets one reused PCG64 to the state that
    `PCG64(SeedSequence(...))` starts from and draws its standard normals
    in place, straight into its row of the output. One pass over the whole
    output then scales it as `normal` does each draw, `0.0 + scale * z`.
    """
    # `normal`'s own check: a scale with its sign bit set, -0.0 too, is
    # negative; NaN passes
    if math.copysign(1.0, scale) < 0 and not math.isnan(scale):
        raise ValueError("scale < 0")
    prefix = []
    for value in [int(seed) & _MASK64] + [_label_entropy(l) for l in labels]:
        prefix += [np.uint32(w) for w in _words(value)]
    if isinstance(keys, np.ndarray) and keys.dtype.kind in "iu":
        # the cast wraps a negative key as `int(key) & _MASK64` does
        key_entropy = keys.astype(np.uint64)
    else:
        key_entropy = np.array([_label_entropy(k) for k in keys], dtype=np.uint64)
    low = (key_entropy & np.uint64(_MASK32)).astype(np.uint32)
    high = (key_entropy >> np.uint64(32)).astype(np.uint32)
    seeds = _pcg64_seeds(prefix + [low, high], high != 0)
    bit_generator = np.random.PCG64(_PLACEHOLDER_SEED)
    draw = np.random.Generator(bit_generator).standard_normal
    # one state dict, its entries rebound per row; the setter copies them
    inner = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": inner, "has_uint32": 0, "uinteger": 0}
    out = np.empty((len(seeds), size))
    for row, (state_high, state_low, seq_high, seq_low) in zip(out, seeds.tolist()):
        # pcg_setseq_128_srandom_r: inc = initseq << 1 | 1, then two steps
        # of state = state * MULT + inc, adding initstate after the first
        inc = inner["inc"] = (seq_high << 65 | seq_low << 1 | 1) & _MASK128
        inner["state"] = ((inc + (state_high << 64 | state_low)) * _PCG_MULT + inc) & _MASK128
        bit_generator.state = state
        draw(out=row)
    # `normal` draws the same standard normal z per entry and returns
    # loc + scale * z with loc = 0.0; adding 0.0 turns the -0.0 of a
    # negative z times a zero or subnormal scale into its +0.0
    out *= float(scale)
    out += 0.0
    return out


def array_fingerprints(X):
    """A stable content hash of every row i of X, used to key per-input
    streams, as an (n,) uint64 array: the first 8 bytes, big-endian, of the
    SHA-256 of the row's float64 bytes in C order.

    Each row's bytes are hashed from one C-contiguous float64 buffer of the
    whole of X, at byte offsets laid out before the loop; the digests' first
    8 bytes are read as big-endian integers.
    """
    a = np.asarray(X, dtype=np.float64)
    if a.ndim == 0:
        raise ValueError("array_fingerprints needs an array of rows, got a scalar")
    a = np.ascontiguousarray(a)
    width = a.itemsize * math.prod(a.shape[1:])
    data = memoryview(a.reshape(-1)).cast("B")
    # a row of no values starts at 0 and hashes the empty bytes
    starts = range(0, a.nbytes, width) if width else [0] * len(a)
    digests = b"".join([hashlib.sha256(data[start:start + width]).digest()[:8]
                        for start in starts])
    return np.frombuffer(digests, dtype=">u8").astype(np.uint64)
