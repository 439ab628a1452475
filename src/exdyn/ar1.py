"""Closed forms for the two-category uniform 1-D case.

Writing e = exp(-decay_rate), the state (x1, x2, w1, w2) linearized about its
noise-averaged fixed point (1/4, 3/4, W/2, W/2) with W = 1/(1-e) yields an
AR(1) recursion for the boundary deviation Y = b - 1/2:

    Y' = K Y + sigma * eta,   eta ~ N(0, 1)

    K     = (3 - e) / (2 (2 - e))
    sigma = (1 - e) / (4 sqrt(3) (2 - e))

All functions here require decay_rate > 0, large enough that
exp(-decay_rate) < 1 in floating point, and are only valid for the
two-category uniform system on [0, 1]; everything is pure and cheap except
simulate_ar1, a plain-Python loop that is linear in the number of steps.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError
from .model import Domain, ModelConfig, _advance, _whole, limit_total_weight

INFINITE = math.inf
_FIXED_POINT_TOL = 1e-10
_NORMAL_BLOCK = 1 << 16


def _is_unit_pair(config: ModelConfig) -> bool:
    """True for the two-category uniform system on [0, 1], the only model
    the closed forms describe."""
    return config.k == 2 and config.domain == Domain(np.array([0.0]), np.array([1.0]))


def _check_rate(decay_rate):
    # a rate whose factor exp(-decay_rate) rounds to 1.0 gives K = 1, and
    # the closed forms divide by 1 - K
    if not decay_rate > 0:
        raise ParameterError("closed forms require decay_rate > 0")
    if math.exp(-decay_rate) == 1.0:
        raise ParameterError(f"closed forms require exp(-decay_rate) < 1, "
                             f"got decay_rate {decay_rate}")
    return float(decay_rate)


def boundary_params(decay_rate: float):
    """(K, sigma) of the boundary AR(1) recursion."""
    _check_rate(decay_rate)
    e = math.exp(-decay_rate)
    K = (3.0 - e) / (2.0 * (2.0 - e))
    sigma = (1.0 - e) / (4.0 * math.sqrt(3.0) * (2.0 - e))
    return K, sigma


def fixed_point(decay_rate: float) -> np.ndarray:
    """The state (1/4, 3/4, W/2, W/2) left fixed by the expected update.

    The returned vector is verified against a quadrature of the expected
    one-step map (mean_map at its default node count); the relative
    residual must not exceed 1e-10.
    """
    _check_rate(decay_rate)
    W = limit_total_weight(decay_rate)
    z = np.array([0.25, 0.75, W / 2.0, W / 2.0])
    # residual is relative on the weight entries, which scale like 1/decay_rate
    err = np.max(np.abs(mean_map(z, decay_rate) - z) / np.maximum(1.0, np.abs(z)))
    if err > _FIXED_POINT_TOL:
        raise ParameterError(
            f"fixed-point residual {err:.3e} exceeds {_FIXED_POINT_TOL} "
            f"at decay_rate={decay_rate}"
        )
    return z


def mean_map(state4, decay_rate: float, n_nodes: int = 2048) -> np.ndarray:
    """Expected one-step map E_z[step(state, z)] for z uniform on [0, 1].

    Composite midpoint quadrature applied to the exact update, with the
    node panels split at the cell boundary b = (x1 + x2)/2 where the map
    has its kink.  The update is piecewise linear in z, so the midpoint
    rule is exact up to rounding and the node count only moves the result
    at machine precision.
    """
    if not decay_rate >= 0:
        raise ParameterError("mean_map requires decay_rate >= 0")
    state4 = np.asarray(state4, dtype=np.float64)
    if state4.shape != (4,):
        raise ParameterError("state must be the 4-vector (x1, x2, w1, w2)")
    x1, x2, w1, w2 = state4
    if not 0.0 <= x1 < x2 <= 1.0:
        raise ParameterError("mean_map requires 0 <= x1 < x2 <= 1")
    b = (x1 + x2) / 2.0
    decay = math.exp(-decay_rate)

    m_left = max(1, round(n_nodes * b))
    m_right = max(1, n_nodes - m_left)
    panels = []
    if b > 0.0:
        h = b / m_left
        panels.append(((np.arange(m_left) + 0.5) * h, h))
    if b < 1.0:
        h = (1.0 - b) / m_right
        panels.append((b + (np.arange(m_right) + 0.5) * h, h))

    means = np.empty((2, 1))
    weights = np.empty(2)
    zbuf = np.empty(1)
    acc = np.zeros(4)
    for nodes, h in panels:
        terms = np.empty((len(nodes), 4))
        for row, z in enumerate(nodes):
            means[0, 0] = x1
            means[1, 0] = x2
            weights[0] = w1
            weights[1] = w2
            zbuf[0] = z
            _advance(means, weights, zbuf, decay)
            terms[row, 0] = means[0, 0]
            terms[row, 1] = means[1, 0]
            terms[row, 2] = weights[0]
            terms[row, 3] = weights[1]
        # pairwise summation keeps rounding flat even when weights ~ 1/decay_rate
        acc += h * terms.sum(axis=0)
    return acc


def linearization(decay_rate: float):
    """(J, H, Hsqrt): Jacobian of the expected map at the fixed point, the
    one-step noise covariance there, and its matrix square root."""
    _check_rate(decay_rate)
    e = math.exp(-decay_rate)
    a = (5.0 - e) / (4.0 * (2.0 - e))
    c = (1.0 - e) / (4.0 * (2.0 - e))
    J = np.array([
        [a, c, 0.0, 0.0],
        [c, a, 0.0, 0.0],
        [0.5, 0.5, e, 0.0],
        [-0.5, -0.5, 0.0, e],
    ])
    hx = (1.0 - e) ** 2 / (24.0 * (2.0 - e) ** 2)
    H = np.array([
        [hx, 0.0, 0.0, 0.0],
        [0.0, hx, 0.0, 0.0],
        [0.0, 0.0, 0.25, -0.25],
        [0.0, 0.0, -0.25, 0.25],
    ])
    s = (1.0 - e) / (math.sqrt(3.0) * (2.0 - e))
    Hsqrt = (1.0 / (2.0 * math.sqrt(2.0))) * np.array([
        [s, 0.0, 0.0, 0.0],
        [0.0, s, 0.0, 0.0],
        [0.0, 0.0, 1.0, -1.0],
        [0.0, 0.0, -1.0, 1.0],
    ])
    return J, H, Hsqrt


def variance_of_Y(decay_rate: float, n) -> float:
    """Var[Y^n] of the boundary AR(1) started at Y^0 = 0.

    Equals sigma^2 (1 - K^(2n)) / (1 - K^2) for finite n; pass math.inf
    for the stationary limit sigma^2 / (1 - K^2).
    """
    K, sigma = boundary_params(decay_rate)
    if n == INFINITE:
        return sigma**2 / (1.0 - K**2)
    n = _whole(n, "n must be a whole number or math.inf")
    if n < 0:
        raise ParameterError("n must be nonnegative or math.inf")
    return sigma**2 * (1.0 - K ** (2 * n)) / (1.0 - K**2)


def second_order_variance_of_Y(decay_rate: float) -> float:
    """Equilibrium Var[Y] of the exact system to second order in decay_rate:

        Var[Y] = (L / 48) (1 - 7 L / 60) + O(L^3),   L = decay_rate.

    variance_of_Y(L, inf) is only the leading term of this expansion; its
    own series is (L / 48)(1 - 5 L / 4 + ...), so it runs low by a relative
    (17/15) L, which is the O(step) bias of constant-step stochastic
    approximation.

    Derivation: in the scaled state y = Y / sqrt(L), d = D / sqrt(L) and
    u = sqrt(L) (w1 - W/2), with D = ((x1 - 1/4) - (x2 - 3/4)) / 2 and
    w1 + w2 = W exactly, expand the exact one-step generator
    (E[f(next)] - f) / L in powers of sqrt(L) as G0 + sqrt(L) G1 + L G2,
    where G0 is an Ornstein-Uhlenbeck generator.  Solving the stationary
    moment hierarchy on monomials up to degree 4 gives
    E[y^2] = 1/48 + 0 sqrt(L) - (7/2880) L.  Every odd power of sqrt(L)
    vanishes, because (sqrt(L), y, d, u) -> (-sqrt(L), -y, -d, -u) leaves
    the physical state unchanged, so the next term is O(L^2) in E[y^2] and
    O(L^3) in Var[Y] = L E[y^2].
    """
    lam = _check_rate(decay_rate)
    return lam / 48.0 * (1.0 - 7.0 * lam / 60.0)


def stationary_autocovariance(decay_rate: float, r: int) -> float:
    """Equilibrium autocovariance sigma^2 K^|r| / (1 - K^2) at lag r."""
    K, sigma = boundary_params(decay_rate)
    r = _whole(r, "lag r must be a whole number")
    return sigma**2 * K ** abs(r) / (1.0 - K**2)


def simulate_ar1(decay_rate: float, n_steps: int, rng) -> np.ndarray:
    """Simulate Y^0 .. Y^n_steps of the boundary AR(1) from Y^0 = 0.

    Bit-deterministic for a given generator state: Y^(t+1) = K Y^t +
    sigma eta^t is iterated in Python floats.  The normals are drawn, and
    the result written, in blocks of _NORMAL_BLOCK steps: the split draws
    give the same stream as one draw of n_steps, and the memory beside the
    result stays bounded.
    """
    K, sigma = boundary_params(decay_rate)
    n_steps = _whole(n_steps, "n_steps must be a whole number")
    if n_steps < 0:
        raise ParameterError("n_steps must be nonnegative")
    y = np.zeros(n_steps + 1)
    prev = 0.0
    for start in range(1, n_steps + 1, _NORMAL_BLOCK):
        block = []
        for eta in rng.standard_normal(min(_NORMAL_BLOCK, n_steps + 1 - start)).tolist():
            prev = K * prev + sigma * eta
            block.append(prev)
        y[start:start + len(block)] = block
    return y
