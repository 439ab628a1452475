"""Closed-form tests.  The frozen numbers are hand evaluations at
decay_rate = ln 2, where e^-L = 1/2 makes every coefficient rational:

    K = 2.5/3, sigma = 1/(12 sqrt(3)), W = 2,
    J11 = 0.75, J12 = 1/12, stationary variance = 1/132.
"""

import math

import numpy as np
import pytest

from exdyn import (
    Ar1Params,
    DistributionSpec,
    Domain,
    ModelConfig,
    ParameterError,
    boundary_params,
    fixed_point,
    linearization,
    mean_map,
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
                       dist=DistributionSpec.uniform(),
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
    for fn in (boundary_params, linearization, fixed_point,
               second_order_variance_of_Y,
               lambda lam: variance_of_Y(lam, 1),
               lambda lam: simulate_ar1(lam, 1, substream(0))):
        with pytest.raises(ParameterError):
            fn(0.0)
        with pytest.raises(ParameterError):
            fn(-0.5)


# ---------------------------------------------------------------------------
# fixed point and the expected one-step map

def test_fixed_point_half_decay():
    z = fixed_point(LN2, check=True)
    assert np.array_equal(z, [0.25, 0.75, 1.0, 1.0])


def test_fixed_point_verifies_at_extreme_rates():
    z = fixed_point(0.01, check=True)
    assert z[2] == pytest.approx(1.0 / (2.0 * -math.expm1(-0.01)), rel=1e-12)
    z = fixed_point(50.0, check=True)
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
    K, sigma = boundary_params(0.3)
    eta = substream(55).standard_normal(200)
    ref = np.empty(201)
    ref[0] = 0.0
    for i, e in enumerate(eta):
        ref[i + 1] = K * ref[i] + sigma * e
    got = simulate_ar1(0.3, 200, substream(55))
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
# parameter bundle

def test_ar1_params_bundle_is_consistent():
    p = Ar1Params.from_decay_rate(0.25, check=True)
    K, sigma = boundary_params(0.25)
    J, H, Hsqrt = linearization(0.25)
    assert (p.K, p.sigma) == (K, sigma)
    assert np.array_equal(p.J, J) and np.array_equal(p.H, H)
    assert np.array_equal(p.Hsqrt, Hsqrt)
    assert p.W == pytest.approx(1.0 / -math.expm1(-0.25), rel=1e-15)
    assert np.array_equal(p.fixed_state, [0.25, 0.75, p.W / 2.0, p.W / 2.0])


def test_ar1_params_for_config_accepts_canonical_pair():
    p = Ar1Params.for_config(unit_pair(0.5))
    assert p.decay_rate == 0.5


def test_ar1_params_for_config_rejects_other_models():
    cfg = unit_pair(0.5)
    k3 = ModelConfig(k=3, decay_rate=0.5, domain=UNIT,
                     dist=DistributionSpec.uniform(),
                     init_means=np.array([[0.2], [0.5], [0.8]]),
                     init_weights=np.ones(3), seed=1)
    wide = ModelConfig(k=2, decay_rate=0.5,
                       domain=Domain(np.array([0.0]), np.array([2.0])),
                       dist=DistributionSpec.uniform(),
                       init_means=np.array([[0.5], [1.5]]),
                       init_weights=np.ones(2), seed=1)
    flat = ModelConfig(k=2, decay_rate=0.5, domain=UNIT,
                       dist=DistributionSpec.from_density(lambda z: 1.0, 1.0),
                       init_means=cfg.init_means, init_weights=np.ones(2),
                       seed=1)
    for bad in (k3, wide, flat):
        with pytest.raises(ParameterError):
            Ar1Params.for_config(bad)
