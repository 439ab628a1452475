"""Seeded random streams.

All randomness in the package flows through Philox counter-based generators
keyed by a 64-bit master seed plus an integer spawn key.  Distinct spawn keys
give statistically independent streams, so replicas, geometry estimates and
initial-condition scatter never share draws with the trajectory itself.
"""

import numpy as np

# Spawn tags for auxiliary streams hanging off a run seed.  The bare seed
# (no tag) always drives the trajectory.
INIT_STREAM = 1
GEOMETRY_STREAM = 2


def substream(seed, *key):
    """Generator for stream ``key`` of master ``seed``.

    ``substream(seed)`` is the main trajectory stream; ``substream(seed, i,
    r)`` is replica ``r`` of grid point ``i`` of the ensemble under ``seed``.
    """
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))

