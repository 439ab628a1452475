"""A canary on the numpy Generator methods that every pinned CSV rests on.

NEP 19 (numpy.org/neps/nep-0019-rng-policy.html) guarantees that a bit
generator's raw stream stays the same across numpy releases, but not the
values that ``Generator.random``, ``standard_normal`` and ``normal`` make of
it.  The trajectories draw with ``random``, ``simulate_ar1`` with
``standard_normal`` and the fig1 scatter with ``normal``.  A numpy release
that changed one of them fails here, under the method's name, rather than as
an unexplained digest mismatch of a benchmark CSV.

The streams themselves are numpy's ``Philox(SeedSequence(seed,
spawn_key=key))``, keyed without building the sequence; numpy's
``SeedSequence`` is the oracle they are held to.
"""

import copy
import hashlib
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exdyn import substream

KEY = (2017, 3, 5)

DRAWS = {
    "random": (lambda g: g.random(64),
               "79fd1f69d02ab85231a9bb15f2a2af827cfa506ba491167531948e1f42caa2f7"),
    "standard_normal": (lambda g: g.standard_normal(64),
                        "d2a047619be283d51afeeaf942d76082f3778e67633cac098b5dd6198fef713d"),
    # the scatter's form: a mean per coordinate, one scale, rows of points
    "normal": (lambda g: g.normal(loc=[25.0, 75.0], scale=1.5, size=(32, 2)),
               "958aa96d1c8b4e0a416fb3d8274d4bfae8dc6b83c5f206aaa043c6bab231cb31"),
}


@pytest.mark.parametrize("method", DRAWS)
def test_generator_methods_draw_what_they_drew(method):
    draw, digest = DRAWS[method]
    values = np.ascontiguousarray(draw(substream(*KEY)), dtype="<f8")
    assert hashlib.sha256(values.tobytes()).hexdigest() == digest, (
        f"Generator.{method} no longer draws the pinned values from substream{KEY}; "
        "every CSV drawn with it changes")


def test_whole_float_and_numpy_keys_make_the_int_keys_stream():
    # the key rule, which tests/test_contract.py holds to bad keys, converts
    # a whole float or numpy integer to the int that keys the same stream
    want = substream(7, 2, 3).random(4)
    for seed, key in ((7.0, (2.0, 3)), (np.uint64(7), (np.int64(2), np.uint8(3)))):
        assert np.array_equal(substream(seed, *key).random(4), want)


# keys at the edges of one and two 32-bit words, and random ones of any width
_KEYS = st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]) | st.integers(0, 2**64 - 1)


@settings(max_examples=300, deadline=None)
@given(seed=_KEYS, key=st.lists(_KEYS, max_size=6))
def test_every_stream_is_numpys_seed_sequence_philox(seed, key):
    # substream keys its Philox without a SeedSequence per stream; numpy's
    # own SeedSequence is the oracle, down to the bit generator's state
    want = np.random.Philox(np.random.SeedSequence(seed, spawn_key=tuple(key)))
    assert repr(substream(seed, *key).bit_generator.state) == repr(want.state)


def test_a_substream_child_is_the_seed_sequences_spawned_child():
    child = np.random.SeedSequence(7, spawn_key=(3,)).spawn(3)[2]
    assert np.array_equal(substream(7, 3, 2).random(8),
                          np.random.Generator(np.random.Philox(child)).random(8))


def test_the_key_refuses_any_request_but_philoxs():
    # a numpy whose Philox asked its seed sequence for other words would need
    # the pool, which the key does not hold: that must fail, not mis-seed
    seq = substream(7, 3).bit_generator.seed_seq
    assert tuple(int(w) for w in seq.generate_state(2, np.uint64)) == tuple(
        np.random.SeedSequence(7, spawn_key=(3,)).generate_state(2, np.uint64))
    for request in ((4,), (4, np.uint32), (2, np.uint32), (1, np.uint64), (4, np.uint64)):
        with pytest.raises(ValueError):
            seq.generate_state(*request)


@pytest.mark.parametrize("copy_of", [lambda g: pickle.loads(pickle.dumps(g)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_a_copied_stream_continues_the_same_draws(copy_of):
    # numpy pickles the seed sequence with the state, here the key object
    g = substream(2017, 3, 2**40)
    g.random(5)
    twin = copy_of(g)
    assert np.array_equal(twin.random(16), g.random(16))

