"""Seeded random streams.

All randomness in the package flows through Philox counter-based generators
keyed by a 64-bit master seed plus an integer spawn key.  Distinct spawn keys
give statistically independent streams, so replicas, geometry estimates and
initial-condition scatter never share draws with the trajectory itself.

Stream ``(seed, *key)`` is the Philox that numpy seeds from
``SeedSequence(seed, spawn_key=key)``: its key is that sequence's
``generate_state(2, np.uint64)``.  Building a ``SeedSequence`` per stream
costs about 20 us, so ``substream`` takes the key from a cached block
instead.  A block holds the keys of _BLOCK consecutive last keys under one
(seed, key prefix).  It starts from the pool of ``SeedSequence(seed,
spawn_key=prefix)``, also cached, mixes in each last key's 32-bit words and
hashes the four pool words out, by the rules of numpy's ``bit_generator``
written out below, on uint32 arrays.  The Philox takes its key from a
``_Key``, which stands in for the sequence.
"""

import functools

import numpy as np

from .model import _seed

# Spawn tags for auxiliary streams hanging off a run seed.  The bare seed
# (no tag) always drives the trajectory.
INIT_STREAM = 1
GEOMETRY_STREAM = 2

# last keys keyed in one pass; a power of two, so a block lies on one side
# of 2**32 and its keys have one 32-bit word each or two
_BLOCK = 128
# (seed, key prefix) pools kept: one per ensemble grid point or stream tag;
# blocks kept, which a run of replicas or tags uses one after another
_PREFIXES = 1024
_BLOCKS = 16

# numpy's SeedSequence constants.  Its arithmetic is mod 2**32, as uint32
# arrays do it.
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43b0d7e5, 0x931e8875
_INIT_B, _MULT_B = 0x8b51f9dd, 0x58f38ded
_MIX_L, _MIX_R = np.uint32(0xca01f9dd), np.uint32(0x4973f715)


def _hashes(h, mult, n):
    # hashmix(v) is v ^= h; h *= mult; v *= h; v ^= v >> 16, with h carried
    # from call to call: the xors and multipliers of n calls from h, as a
    # (2, n, 1) array of columns
    xors = []
    for _ in range(n):
        xors.append(h)
        h = h * mult & _M32
    return np.array([xors, xors[1:] + [h]], dtype=np.uint32)[..., None]


# generate_state hashes the pool's 4 words in turn from a fresh constant
_OUT = _hashes(_INIT_B, _MULT_B, 4)


class _Key:
    """The seed sequence of a ``substream`` Philox: it hands over the key.

    numpy pickles it with the generator's state, so it lives at module
    level.  It is a virtual ``ISeedSequence`` from ``_prefix``'s first call
    on, which every stream passes through before its Philox is built.
    """

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        # Philox asks for (2, np.uint64); anything else would need the pool
        if (n_words, dtype) != (2, np.uint64):
            raise ValueError(f"a substream key answers generate_state(2, np.uint64) only, "
                             f"not ({n_words!r}, {dtype!r})")
        return self.key


@functools.lru_cache(maxsize=_PREFIXES)
def _prefix(seed, prefix):
    # the pool of SeedSequence(seed, spawn_key=prefix) as a (4, 1) column,
    # and the hashmix (xors, multipliers) of each of the next key's words.
    # The seed, padded to the pool's 4 words, and the 12 cross-mixes take 16
    # hashmix calls, each word of the prefix 4 more.
    if not _prefix.cache_info().currsize:
        from numpy.random.bit_generator import ISeedSequence
        ISeedSequence.register(_Key)
    pool = np.random.SeedSequence(seed, spawn_key=prefix).pool[:, None]
    words = sum(1 if k <= _M32 else 2 for k in prefix)
    hashes = _hashes(_INIT_A * pow(_MULT_A, 16 + 4 * words, 2**32) & _M32, _MULT_A, 8)
    return pool, (hashes[:, :4], hashes[:, 4:])


def _keys(pool):
    # generate_state(2, np.uint64) of each column of a (4, n) pool
    v = (pool ^ _OUT[0]) * _OUT[1]
    v = (v ^ v >> 16).astype(np.uint64)
    return list(zip((v[0] | v[1] << 32).tolist(), (v[2] | v[3] << 32).tolist()))


@functools.lru_cache(maxsize=_BLOCKS)
def _block(seed, prefix, first):
    # the keys of the streams (seed, *prefix, last) for the _BLOCK lasts from
    # first on.  Each of last's little-endian words w, one below 2**32 (0
    # too), takes pool[d] = mix(pool[d], hashmix(w)), where mix(x, y) is
    # r ^ r >> 16 with r = MIX_L * x - MIX_R * y.
    pool, hashes = _prefix(seed, prefix)
    last = np.arange(_BLOCK, dtype=np.uint64) + np.uint64(first)
    words = [last & _M32, last >> 32][:1 if first <= _M32 else 2]
    for w, (xors, mults) in zip(words, hashes):
        v = (w.astype(np.uint32) ^ xors) * mults
        r = _MIX_L * pool - _MIX_R * (v ^ v >> 16)
        pool = r ^ r >> 16
    return _keys(pool)


def substream(seed, *key):
    """Generator for stream ``key`` of master ``seed``.

    ``substream(seed)`` is the main trajectory stream; ``substream(seed, i,
    r)`` is replica ``r`` of grid point ``i`` of the ensemble under ``seed``.
    The seed and every key must be whole numbers that fit in 64 bits.  The
    stream is numpy's ``Philox(SeedSequence(seed, spawn_key=key))``, bit for
    bit; ``substream(seed, *key, j)`` is that sequence's child ``j``.
    """
    seed = _seed(seed, "seed")
    key = [_seed(k, "stream key") for k in key]
    if key:
        last = key.pop()
        philox_key = _block(seed, tuple(key), last - last % _BLOCK)[last % _BLOCK]
    else:
        philox_key = _keys(_prefix(seed, ())[0])[0]
    return np.random.Generator(np.random.Philox(_Key(philox_key)))
