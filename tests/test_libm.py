"""A canary on the libm values that every pinned CSV rests on.

The engines decay each weight by e = math.exp(-lambda) per step, and the
runs that start at the limit weight take 1 / -math.expm1(-lambda).  C's
libm does not promise correctly rounded exp or expm1, so another libm may
round one of them apart, and every trajectory at that rate moves by an ulp
that grows over the run.  The values pinned here are the ones this libm
gives at every rate the presets and fig4's grid use; at each rate the exp
is the correctly rounded one.  A libm that rounds otherwise fails here, by
function and rate, rather than as an unexplained digest mismatch of a
benchmark CSV.
"""

import math

import pytest

from exdyn import limit_total_weight

# rate: (float.hex of exp(-rate), float.hex of limit_total_weight(rate))
_PINNED = {
    0.005: ("0x1.fd7246927d28bp-1", "0x1.9100369d01ec0p+7"),
    0.01: ("0x1.fae7cfd2b9cfep-1", "0x1.9200da73f5cadp+6"),
    0.02: ("0x1.f5dc99badec5bp-1", "0x1.940369ceb8d79p+5"),
    0.05: ("0x1.e7078b0a726a6p-1", "0x1.481110e2774fep+4"),
    0.1: ("0x1.cf46d99d52b3ap-1", "0x1.5044415aca44fp+3"),
    0.2: ("0x1.a330ad6166159p-1", "0x1.6110e281f3f4ap+2"),
}


@pytest.mark.parametrize("rate", _PINNED)
def test_decay_factors_are_what_they_were(rate):
    assert math.exp(-rate).hex() == _PINNED[rate][0], (
        f"math.exp(-{rate}) is no longer the pinned double; every run at "
        f"rate {rate} decays by another factor")


@pytest.mark.parametrize("rate", _PINNED)
def test_limit_weights_are_what_they_were(rate):
    assert limit_total_weight(rate).hex() == _PINNED[rate][1], (
        f"limit_total_weight({rate}), 1 / -math.expm1(-{rate}), is no longer "
        "the pinned double; every run started at it moves")
