"""A canary on the numpy Generator methods that every pinned CSV rests on.

NEP 19 (numpy.org/neps/nep-0019-rng-policy.html) guarantees that a bit
generator's raw stream stays the same across numpy releases, but not the
values that ``Generator.random``, ``standard_normal`` and ``normal`` make of
it.  The trajectories draw with ``random``, ``simulate_ar1`` with
``standard_normal`` and the fig1 scatter with ``normal``.  A numpy release
that changed one of them fails here, under the method's name, rather than as
an unexplained digest mismatch of a benchmark CSV.
"""

import hashlib

import numpy as np
import pytest

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
