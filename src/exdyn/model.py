"""Exact exemplar dynamics with decaying category weights.

A system holds k category means and k positive weights over a bounded
axis-aligned box.  Each incoming point is assigned to the nearest mean
(ties to the lower index), every weight decays by exp(-decay_rate), and the
winning category absorbs the point:

    x_i <- (x_i * w_i * e^-L + z) / (w_i * e^-L + 1)
    w_i <- w_i * e^-L + 1

With decay_rate = 0 this is MacQueen's online k-means running mean.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import DomainError, ParameterError


def _as_points(arr, dim=None):
    """Coerce to a float64 (k, N) array of row points."""
    a = np.asarray(arr, dtype=np.float64)
    if a.ndim == 1:
        a = a[:, None] if dim in (None, 1) else a[None, :]
    if a.ndim != 2:
        raise ParameterError(f"expected a 2-d array of points, got shape {a.shape}")
    return a


def _as_point(z, dim):
    z = np.atleast_1d(np.asarray(z, dtype=np.float64))
    if z.shape != (dim,):
        raise ParameterError(f"point has shape {z.shape}, expected ({dim},)")
    return z


def _whole(value, message) -> int:
    # int() alone would truncate 2.7 to 2 and raise its own errors on NaN and
    # inf; integers pass as they are, since float() overflows past 1e308
    if isinstance(value, numbers.Integral):
        return int(value)
    if not float(value).is_integer():
        raise ParameterError(message)
    return int(value)


def _seed(value, name) -> int:
    # a seed keys SeedSequence, which takes any nonnegative integer; every
    # seed of the package is a whole number that fits in 64 bits
    seed = _whole(value, f"{name} must be a whole number")
    if not 0 <= seed < 2**64:
        raise ParameterError(f"{name} must fit in 64 bits")
    return seed


@dataclass(frozen=True)
class Domain:
    """Axis-aligned box in R^N with non-empty interior."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=np.float64))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=np.float64))
        if lo.shape != hi.shape or lo.ndim != 1 or lo.size == 0:
            raise ParameterError("domain bounds must be non-empty 1-d arrays of equal length")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ParameterError("domain bounds must be finite")
        if not np.all(lo < hi):
            raise ParameterError("domain requires lower < upper in every coordinate")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    @property
    def volume(self) -> float:
        return float(np.prod(self.upper - self.lower))

    @property
    def diameter(self) -> float:
        return float(np.linalg.norm(self.upper - self.lower))

    def contains(self, z) -> bool:
        z = np.atleast_1d(np.asarray(z, dtype=np.float64))
        return bool(np.all(z >= self.lower) and np.all(z <= self.upper))

    def clip(self, points):
        """Clamp points (shape (..., N)) into the box."""
        return np.clip(points, self.lower, self.upper)

    def uniform_points(self, rng, n):
        """n i.i.d. uniform points, shape (n, N)."""
        u = rng.random((n, self.dim))
        # in place, with the roundings of lower + (upper - lower) * u
        u *= self.upper - self.lower
        u += self.lower
        return u

    def __eq__(self, other):
        if not isinstance(other, Domain):
            return NotImplemented
        return np.array_equal(self.lower, other.lower) and np.array_equal(
            self.upper, other.upper
        )


def sample(domain: Domain, rng) -> np.ndarray:
    """One uniform draw on ``domain``: lower + (upper - lower) u for one
    rng.random(dim).  Batched draws (Domain.uniform_points) consume the
    stream in the same order and round the same way."""
    u = rng.random(domain.dim)
    return domain.lower + (domain.upper - domain.lower) * u


@dataclass
class SystemState:
    """Category means (k, N), weights (k,) and a step counter.

    A weight may be 0.0: the dynamics reach it in floating point when a
    category keeps losing under a large decay rate (at decay_rate 1000 the
    decay factor itself is 0.0).
    """

    means: np.ndarray
    weights: np.ndarray
    step: int = 0

    def __post_init__(self):
        self.means = _as_points(self.means)
        self.weights = np.atleast_1d(np.asarray(self.weights, dtype=np.float64))
        if self.weights.shape[0] != self.means.shape[0]:
            raise ParameterError("means and weights must have matching category counts")
        if not np.all((self.weights >= 0) & (self.weights < np.inf)):
            raise ParameterError("all weights must be finite and nonnegative")

    @property
    def k(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def copy(self) -> "SystemState":
        return SystemState(self.means.copy(), self.weights.copy(), self.step)


@dataclass(frozen=True)
class ModelConfig:
    """Everything that defines one exemplar system run.

    Parameters
    ----------
    k : number of categories (>= 1)
    decay_rate : per-step exponential forgetting rate (>= 0; 0 = MacQueen)
    domain : the box that every incoming point is drawn from, uniformly
    init_means : k pairwise-distinct points inside the domain
    init_weights : k strictly positive reals
    seed : 64-bit master seed; all randomness of a run derives from it
    """

    k: int
    decay_rate: float
    domain: Domain
    init_means: np.ndarray
    init_weights: np.ndarray
    seed: int

    # not a field: bench/tracer.py reads config.dist.kind to tell the
    # uniform 1-D pair from other shapes
    dist = SimpleNamespace(kind="uniform")

    def __post_init__(self):
        object.__setattr__(self, "init_means", _as_points(self.init_means, self.domain.dim))
        w = np.atleast_1d(np.asarray(self.init_weights, dtype=np.float64))
        object.__setattr__(self, "init_weights", w)
        if self.k < 1:
            raise ParameterError("k must be at least 1")
        if not 0 <= self.decay_rate < math.inf:
            raise ParameterError("decay_rate must be finite and nonnegative")
        if self.init_means.shape != (self.k, self.domain.dim):
            raise ParameterError(
                f"init_means must have shape ({self.k}, {self.domain.dim})"
            )
        if w.shape != (self.k,):
            raise ParameterError(f"init_weights must have shape ({self.k},)")
        if not np.all((w > 0) & (w < np.inf)):
            raise ParameterError("init_weights must all be finite and strictly positive")
        m = self.init_means
        inside = np.all((m >= self.domain.lower) & (m <= self.domain.upper), axis=1)
        outside = np.flatnonzero(~inside)
        pair = _coincident_pair(m)
        # mean i's domain check comes before its coincidence check
        if outside.size and (pair is None or outside[0] <= pair[0]):
            raise DomainError(f"init_means[{outside[0]}] lies outside the domain")
        if pair is not None:
            raise ParameterError(f"init_means {pair[0]} and {pair[1]} coincide")
        _seed(self.seed, "seed")


def _coincident_pair(points):
    """The first pair (i, j), i < j, of equal rows that a double loop over
    i, then j > i, would meet; None when the rows are distinct.

    i is the lowest index that a later row equals and j the lowest such
    later row.  A stable lexicographic sort puts equal rows next to each
    other in index order, so this is O(k log k).  Rows compare with ``==``:
    -0.0 equals 0.0 and a row holding a NaN equals no row.
    """
    order = np.lexsort(points.T)
    rows = points[order]
    same = np.flatnonzero(np.all(rows[1:] == rows[:-1], axis=1))
    if same.size == 0:
        return None
    t = same[np.argmin(order[same])]
    return int(order[t]), int(order[t + 1])


def _squared_norms(diff) -> np.ndarray:
    """Sum of squares over the last axis, adding the coordinates in order.

    This is the order of the single-run step loop's ``e_0 * e_0 + e_1 *
    e_1 + ...``.  numpy's ``sum`` adds in the same order below 8 coordinates
    but pairwise from 8 on, which can flip a near-tie between two distances.
    """
    sq = diff * diff
    d2 = sq[..., 0].copy()
    for c in range(1, sq.shape[-1]):
        d2 += sq[..., c]
    return d2


def classify(z, means, domain: Domain = None) -> int:
    """Index of the nearest mean to z (Euclidean), ties to the lower index."""
    means = _as_points(means)
    z = _as_point(z, means.shape[1])
    if domain is not None and not domain.contains(z):
        raise DomainError(f"point {z} lies outside the domain")
    return int(np.argmin(_squared_norms(means - z)))


def _advance(means, weights, z, decay) -> int:
    """In-place one-step update; returns the winning category index.

    This is the reference arithmetic.  model.step and ar1.mean_map run it;
    harness's single-run step loop repeats it in Python floats and its
    lockstep engine over a replica axis, and the step-reference and replay
    tests in tests/test_harness.py check that their states equal iterating
    model.step bit for bit.
    """
    i = int(np.argmin(_squared_norms(means - z)))
    weights *= decay
    wi = weights[i]
    means[i] = (means[i] * wi + z) / (wi + 1.0)
    weights[i] = wi + 1.0
    return i


def step(state: SystemState, z, decay_rate: float, domain: Domain = None) -> SystemState:
    """One update of the dynamics for incoming point z; returns a new state."""
    z = _as_point(z, state.dim)
    if domain is not None and not domain.contains(z):
        raise DomainError(f"point {z} lies outside the domain")
    new = state.copy()
    _advance(new.means, new.weights, z, math.exp(-decay_rate))
    new.step = state.step + 1
    return new


def total_weight(state: SystemState) -> float:
    """Sum of the category weights; follows W' = W e^-L + 1 across steps."""
    return float(state.weights.sum())


def limit_total_weight(decay_rate: float) -> float:
    """The limit 1 / (1 - e^-L) of the total weight; requires decay_rate > 0
    and a finite limit."""
    if not decay_rate > 0:
        raise ParameterError("limit total weight requires decay_rate > 0")
    limit = 1.0 / -math.expm1(-decay_rate)
    # below about 5.6e-309, 1 / decay_rate overflows: a run started at
    # weight inf divides inf by inf
    if limit == math.inf:
        raise ParameterError(f"limit total weight is not finite at decay_rate {decay_rate}")
    return limit


def weight_bound(init_weights, decay_rate: float) -> float:
    """Uniform bound max(sum w0, 1/(1-e^-L)) on the total weight of a run."""
    if not decay_rate > 0:
        raise ParameterError("weight_bound requires decay_rate > 0")
    w0 = float(np.sum(np.asarray(init_weights, dtype=np.float64)))
    return max(w0, limit_total_weight(decay_rate))


class ExemplarCloud:
    """Optional bookkeeping of every stored exemplar.

    The dynamics never read the cloud; it only exists so that snapshots can
    plot the individual points.  Each exemplar carries its birth step, so the
    current weight v * e^{-L (now - birth)} is computed lazily instead of
    being decayed in place on every step.
    """

    def __init__(self, k: int, dim: int):
        self.k = k
        self.dim = dim
        self._locations = [[] for _ in range(k)]
        self._weights0 = [[] for _ in range(k)]
        self._births = [[] for _ in range(k)]

    def seed_category(self, category: int, locations, weights, birth_step: int = 0):
        """Register pre-existing exemplars for one category."""
        locations = _as_points(locations, self.dim)
        if locations.shape[1] != self.dim:
            raise ParameterError(
                f"locations have {locations.shape[1]} coordinates, expected {self.dim}")
        weights = np.atleast_1d(np.asarray(weights, dtype=np.float64))
        if weights.shape != (locations.shape[0],):
            raise ParameterError(
                f"{locations.shape[0]} locations need as many weights, got {weights.size}")
        for loc, w in zip(locations, weights):
            self._locations[category].append(tuple(loc.tolist()))
            self._weights0[category].append(float(w))
            self._births[category].append(int(birth_step))

    def add(self, category: int, location, birth_step: int):
        """Record the exemplar absorbed at ``birth_step`` (weight 1 at birth).

        Stores an immutable copy, so later changes to ``location`` do not
        reach the cloud.
        """
        location = tuple(location)
        if len(location) != self.dim:
            raise ParameterError(
                f"location has {len(location)} coordinates, expected {self.dim}")
        self._locations[category].append(location)
        self._weights0[category].append(1.0)
        self._births[category].append(int(birth_step))

    def category_arrays(self, category: int, now: int, decay_rate: float):
        """(locations, current weights) for one category at step ``now``."""
        locs = np.array(self._locations[category], dtype=np.float64).reshape(-1, self.dim)
        w0 = np.array(self._weights0[category], dtype=np.float64)
        births = np.array(self._births[category], dtype=np.int64)
        ages = now - births
        return locs, w0 * np.exp(-decay_rate * ages)

    def pruned(self, now: int, decay_rate: float, threshold: float):
        """Per-category (locations, weights) with current weight > threshold."""
        out = []
        for j in range(self.k):
            locs, w = self.category_arrays(j, now, decay_rate)
            keep = w > threshold
            out.append((locs[keep], w[keep]))
        return out
