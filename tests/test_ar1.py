"""Closed-form tests.  The frozen numbers are hand evaluations at
decay_rate = ln 2, where e^-L = 1/2 makes every coefficient rational:

    K = 2.5/3, sigma = 1/(12 sqrt(3)), W = 2,
    J11 = 0.75, J12 = 1/12, stationary variance = 1/132.
"""

import math

import numpy as np
import pytest

from exdyn import (
    Domain,
    ModelConfig,
    ParameterError,
    boundary_params,
    equilibrium_steps,
    fixed_point,
    linearization,
    longest_starvation,
    mean_map,
    property_non_collapse,
    property_non_convergence,
    second_order_variance_of_Y,
    simulate_ar1,
    stationary_autocovariance,
    substream,
    variance_of_Y,
)
from exdyn.ar1 import INFINITE

LN2 = math.log(2.0)
UNIT = Domain(np.array([0.0]), np.array([1.0]))


def unit_pair(decay_rate, seed=1):
    return ModelConfig(k=2, decay_rate=decay_rate, domain=UNIT,
                       init_means=np.array([[0.25], [0.75]]),
                       init_weights=np.array([1.0, 1.0]), seed=seed)


# ---------------------------------------------------------------------------
# frozen oracles at half decay

def test_boundary_params_half_decay():
    K, sigma = boundary_params(LN2)
    assert K == pytest.approx(2.5 / 3.0, abs=1e-15)
    assert sigma == pytest.approx(1.0 / (12.0 * math.sqrt(3.0)), abs=1e-15)


def test_boundary_params_limits():
    # decay -> 0: K -> 1 from below, sigma -> 0
    K, sigma = boundary_params(1e-6)
    assert 1.0 - 1e-6 < K < 1.0
    assert 0.0 < sigma < 1e-6
    # decay -> inf: K -> 3/4, sigma -> 1/(8 sqrt(3))
    K, sigma = boundary_params(50.0)
    assert K == pytest.approx(0.75, abs=1e-10)
    assert sigma == pytest.approx(1.0 / (8.0 * math.sqrt(3.0)), abs=1e-10)


def test_linearization_half_decay_entries():
    J, H, Hsqrt = linearization(LN2)
    assert J[0, 0] == pytest.approx(0.75, abs=1e-15)
    assert J[0, 1] == pytest.approx(1.0 / 12.0, abs=1e-15)
    assert J[2, 0] == 0.5 and J[3, 0] == -0.5
    assert J[2, 2] == pytest.approx(0.5, abs=1e-15)
    assert H[2, 2] == 0.25 and H[2, 3] == -0.25
    assert H[0, 0] == pytest.approx((0.5) ** 2 / (24.0 * 1.5**2), abs=1e-15)


def test_stationary_variance_half_decay():
    assert variance_of_Y(LN2, INFINITE) == pytest.approx(1.0 / 132.0, abs=1e-15)
    c1 = stationary_autocovariance(LN2, 1)
    assert c1 == pytest.approx((2.5 / 3.0) / 132.0, abs=1e-15)


# ---------------------------------------------------------------------------
# algebraic identities across the decay range

@pytest.mark.parametrize("lam", np.geomspace(1e-3, 3.0, 12).tolist())
def test_reduction_identities(lam):
    K, sigma = boundary_params(lam)
    J, H, Hsqrt = linearization(lam)
    assert K == pytest.approx(J[0, 0] + J[0, 1], abs=1e-12)
    assert sigma == pytest.approx(math.sqrt(H[0, 0] / 2.0), abs=1e-12)
    assert np.max(np.abs(Hsqrt @ Hsqrt - H)) < 1e-12
    assert np.array_equal(H, H.T)
    assert np.linalg.eigvalsh(H).min() > -1e-15
    assert np.max(np.abs(np.linalg.eigvals(J))) < 1.0
    assert 0.0 < K < 1.0


def test_closed_forms_reject_nonpositive_decay():
    # and rates whose factor exp(-lam) rounds to 1.0: K = 1 there, and the
    # closed forms would divide by 1 - K = 0; 400 / 1e-320 would overflow
    # the equilibrium horizon
    for fn in (boundary_params, linearization, fixed_point,
               second_order_variance_of_Y,
               lambda lam: variance_of_Y(lam, 1),
               lambda lam: variance_of_Y(lam, math.inf),
               lambda lam: stationary_autocovariance(lam, 1),
               lambda lam: simulate_ar1(lam, 1, substream(0)),
               equilibrium_steps):
        for lam in (0.0, -0.5):
            with pytest.raises(ParameterError):
                fn(lam)
        for lam in (1e-17, 1e-320):
            with pytest.raises(ParameterError, match=r"exp\(-decay_rate\) < 1"):
                fn(lam)


@pytest.mark.parametrize("call,message", [
    pytest.param(lambda: variance_of_Y(0.1, 2.5), "whole number", id="variance-fractional-n"),
    pytest.param(lambda: variance_of_Y(0.1, -0.5), "whole number",
                 id="variance-negative-fraction"),
    pytest.param(lambda: variance_of_Y(0.1, -1), "nonnegative", id="variance-negative-n"),
    pytest.param(lambda: variance_of_Y(0.1, math.nan), "whole number", id="variance-nan-n"),
    pytest.param(lambda: variance_of_Y(0.1, -math.inf), "whole number",
                 id="variance-minus-inf-n"),
    pytest.param(lambda: stationary_autocovariance(0.1, 2.5), "whole number",
                 id="autocovariance-fractional-lag"),
    pytest.param(lambda: stationary_autocovariance(0.1, math.inf), "whole number",
                 id="autocovariance-inf-lag"),
    pytest.param(lambda: simulate_ar1(0.1, 2.5, substream(0)), "whole number",
                 id="simulate-fractional-steps"),
    pytest.param(lambda: simulate_ar1(0.1, math.nan, substream(0)), "whole number",
                 id="simulate-nan-steps"),
    pytest.param(lambda: longest_starvation(np.zeros(5, np.uint8), 2.5), "whole number",
                 id="starvation-fractional-k"),
    pytest.param(lambda: longest_starvation(np.zeros(5, np.uint8), 0), "k must be at least 1",
                 id="starvation-zero-k"),
    pytest.param(lambda: longest_starvation(np.zeros(5, np.uint8), -1), "k must be at least 1",
                 id="starvation-negative-k"),
    pytest.param(lambda: longest_starvation([0, 1, 2, 2, 2, 2], 2), "winners must be",
                 id="starvation-winner-past-k"),
    pytest.param(lambda: longest_starvation([0, -1, 1], 2), "winners must be",
                 id="starvation-negative-winner"),
    pytest.param(lambda: longest_starvation([0.5, 1.5], 2), "winners must be",
                 id="starvation-fractional-winners"),
    pytest.param(lambda: longest_starvation([0.0, math.nan], 2), "winners must be",
                 id="starvation-nan-winner"),
    pytest.param(lambda: longest_starvation([[0, 1], [1, 0]], 2), "winners must be",
                 id="starvation-2d-winners"),
    pytest.param(lambda: longest_starvation(["0", "1"], 2), "winners must be",
                 id="starvation-text-winners"),
    pytest.param(lambda: mean_map((0.25, 0.75, 5, 5), 0.1, 2.5), "whole number",
                 id="mean-map-fractional-nodes"),
    pytest.param(lambda: mean_map((0.25, 0.75, 5, 5), 0.1, 0), "n_nodes must be at least 1",
                 id="mean-map-zero-nodes"),
    pytest.param(lambda: mean_map((0.25, 0.75, 5, 5), 0.1, -5), "n_nodes must be at least 1",
                 id="mean-map-negative-nodes"),
    pytest.param(lambda: mean_map((0.25, 0.75, 5, 5), 0.1, math.nan), "whole number",
                 id="mean-map-nan-nodes"),
    pytest.param(lambda: mean_map((0.25, 0.75, 5, 5), 0.1, math.inf), "whole number",
                 id="mean-map-inf-nodes"),
    pytest.param(lambda: property_non_collapse(unit_pair(0.1), 100, volume_floor=math.nan),
                 "volume_floor", id="collapse-nan-floor"),
    pytest.param(lambda: property_non_collapse(unit_pair(0.1), 100, volume_floor=-1.0),
                 "volume_floor", id="collapse-negative-floor"),
])
def test_closed_forms_and_checks_reject_bad_counts(no_run, call, message):
    # int() used to read 2.5 as 2 and -0.5 as 0, and NaN raised numpy's or
    # Python's own errors; mean_map ran 2 nodes for 0 or -5 and a wrong map
    # for 2.5.  A bad volume floor failed the check quietly, and only after
    # the run
    with pytest.raises(ParameterError, match=message):
        call()


def test_closed_forms_accept_whole_floats_and_numpy_integers():
    assert variance_of_Y(0.1, 3.0) == variance_of_Y(0.1, np.int64(3)) == variance_of_Y(0.1, 3)
    assert stationary_autocovariance(0.1, -2.0) == stationary_autocovariance(0.1, 2)
    assert np.array_equal(simulate_ar1(0.1, 5.0, substream(1)),
                          simulate_ar1(0.1, np.int64(5), substream(1)))
    assert longest_starvation(np.array([0, 1, 0], np.uint8), 2.0) == 1
    assert longest_starvation([0.0, 1.0, 0.0], 2) == 1
    assert longest_starvation([], 2) == 0


# ---------------------------------------------------------------------------
# fixed point and the expected one-step map

def test_fixed_point_half_decay():
    z = fixed_point(LN2)
    assert np.array_equal(z, [0.25, 0.75, 1.0, 1.0])


def test_fixed_point_verifies_at_extreme_rates():
    z = fixed_point(0.01)
    assert z[2] == pytest.approx(1.0 / (2.0 * -math.expm1(-0.01)), rel=1e-12)
    z = fixed_point(50.0)
    assert z[2] == pytest.approx(0.5, abs=1e-9)


def _expected_map(x1, x2, w1, w2, lam):
    # exact integral of the piecewise-linear update against z ~ U[0,1]:
    # category 1 wins on [0, b), category 2 on (b, 1], b = (x1+x2)/2
    e = math.exp(-lam)
    b = (x1 + x2) / 2.0
    ex1 = b * (x1 * w1 * e + b / 2.0) / (w1 * e + 1.0) + (1.0 - b) * x1
    ex2 = (1.0 - b) * (x2 * w2 * e + (1.0 + b) / 2.0) / (w2 * e + 1.0) + b * x2
    return np.array([ex1, ex2, w1 * e + b, w2 * e + 1.0 - b])


@pytest.mark.parametrize("state,lam", [
    ((0.2, 0.9, 3.0, 1.5), 0.3),
    ((0.25, 0.75, 2.0, 2.0), LN2),
    ((0.05, 0.5, 10.0, 0.1), 0.01),
    ((0.0, 1.0, 1.0, 1.0), 1.0),
])
def test_mean_map_matches_exact_integral(state, lam):
    got = mean_map(np.array(state), lam)
    want = _expected_map(*state, lam)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


def test_mean_map_node_count_is_immaterial():
    # the integrand is piecewise linear, so midpoint panels are exact and
    # refining the mesh only reshuffles rounding
    s = np.array([0.3, 0.8, 5.0, 2.0])
    a = mean_map(s, 0.2, n_nodes=999)
    b = mean_map(s, 0.2, n_nodes=16384)
    np.testing.assert_allclose(a, b, rtol=1e-12)


def test_mean_map_requires_a_nonnegative_rate():
    # unchecked, a NaN rate gives four NaNs and a negative one grows the weights
    z = np.array([0.25, 0.75, 1.0, 1.0])
    for bad in (math.nan, -1.0, -math.inf):
        with pytest.raises(ParameterError, match="decay_rate"):
            mean_map(z, bad)
    # no decay keeps the total weight growing by one; infinite decay forgets it
    assert mean_map(z, 0.0)[2:].sum() == pytest.approx(3.0, rel=1e-12)
    assert mean_map(z, math.inf)[2:].sum() == pytest.approx(1.0, rel=1e-12)


def test_mean_map_input_validation():
    with pytest.raises(ParameterError):
        mean_map(np.array([0.5, 0.25, 1.0, 1.0]), 0.1)   # x1 >= x2
    with pytest.raises(ParameterError):
        mean_map(np.array([0.2, 1.3, 1.0, 1.0]), 0.1)    # outside [0, 1]
    with pytest.raises(ParameterError):
        mean_map(np.array([0.2, 0.8, 1.0]), 0.1)         # wrong shape


# ---------------------------------------------------------------------------
# variance formulas

def test_variance_of_Y_small_n():
    K, sigma = boundary_params(0.3)
    assert variance_of_Y(0.3, 0) == 0.0
    assert variance_of_Y(0.3, 1) == sigma**2
    with pytest.raises(ParameterError):
        variance_of_Y(0.3, -1)


def test_variance_of_Y_monotone_to_limit():
    ns = [0, 1, 2, 5, 10, 100, 1000, INFINITE]
    vals = [variance_of_Y(0.1, n) for n in ns]
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    assert variance_of_Y(0.1, 10**6) == pytest.approx(vals[-1], rel=1e-15)


def test_second_order_variance_extends_the_linear_value():
    # (L/48)(1 - 7L/60) over sigma^2/(1 - K^2) = 1 + (17/15) L - L^2/16 + ...
    for lam in (1e-3, 1e-4, 1e-5):
        ratio = second_order_variance_of_Y(lam) / variance_of_Y(lam, INFINITE)
        assert abs((ratio - 1.0) / lam - 17.0 / 15.0) < lam
    # hand evaluation: (0.6/48)(1 - 4.2/60) = 0.0125 * 0.93
    assert second_order_variance_of_Y(0.6) == pytest.approx(0.011625, rel=1e-14)


def test_autocovariance_identities():
    assert stationary_autocovariance(0.4, 0) == variance_of_Y(0.4, INFINITE)
    K, _ = boundary_params(0.4)
    ratio = stationary_autocovariance(0.4, 3) / stationary_autocovariance(0.4, 0)
    assert ratio == pytest.approx(K**3, rel=1e-12)
    assert stationary_autocovariance(0.4, -4) == stationary_autocovariance(0.4, 4)


# ---------------------------------------------------------------------------
# AR(1) simulation

def test_simulate_ar1_equals_naive_recursion():
    # one draw of all the normals, against simulate_ar1's blocks of 1 << 16:
    # two full blocks plus a partial one
    n = 2 * (1 << 16) + 3
    K, sigma = boundary_params(0.3)
    eta = substream(55).standard_normal(n)
    ref = np.empty(n + 1)
    ref[0] = 0.0
    for i, e in enumerate(eta):
        ref[i + 1] = K * ref[i] + sigma * e
    got = simulate_ar1(0.3, n, substream(55))
    assert np.array_equal(got, ref)


def test_simulate_ar1_determinism_and_shape():
    a = simulate_ar1(0.1, 500, substream(56))
    b = simulate_ar1(0.1, 500, substream(56))
    c = simulate_ar1(0.1, 500, substream(57))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.shape == (501,)
    assert a[0] == 0.0
    assert np.array_equal(simulate_ar1(0.1, 0, substream(58)), [0.0])
    with pytest.raises(ParameterError):
        simulate_ar1(0.1, -1, substream(58))


def test_simulate_ar1_vanishing_noise_stays_at_zero():
    # sigma scales like decay/(4 sqrt(3)) near zero, so the series is pinned
    y = simulate_ar1(1e-12, 100, substream(59))
    assert np.max(np.abs(y)) < 1e-10


# ---------------------------------------------------------------------------
# the models the closed forms describe

def test_ar1_params_for_config_rejects_other_models():
    # property_non_convergence is calibrated to the AR(1) variance, so it
    # refuses every model but the two-category uniform one on [0, 1]
    k3 = ModelConfig(k=3, decay_rate=0.5, domain=UNIT,
                     init_means=np.array([[0.2], [0.5], [0.8]]),
                     init_weights=np.ones(3), seed=1)
    wide = ModelConfig(k=2, decay_rate=0.5,
                       domain=Domain(np.array([0.0]), np.array([2.0])),
                       init_means=np.array([[0.5], [1.5]]),
                       init_weights=np.ones(2), seed=1)
    for bad in (k3, wide):
        with pytest.raises(ParameterError, match="calibrated to the 2-category"):
            property_non_convergence(bad, 100)
