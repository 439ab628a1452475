"""Seeded Monte Carlo experiments on the exemplar dynamics.

Provides trajectory recording with thinning, replica ensembles for the
boundary-variance experiment, long-run property checks (non-extinction,
non-collapse, non-convergence, and the zero-decay centroidal limit), and a
2-D snapshot of the surviving exemplar cloud with cell boundaries.

Everything is deterministic given its seed.  A trajectory consumes the bare
stream of its config seed; replica r of an ensemble keyed by (master_seed,
grid index i) consumes substream(master_seed, i, r); geometry estimates use
tagged substreams so they never disturb trajectory draws.  The 1-D
two-category uniform case runs through a specialized scalar loop, and
ensembles through a vectorized one; both reproduce the generic step
bit for bit.  The step-reference test in tests/test_harness.py proves it
for single runs: across k, dim and decay rates on both sides of the engine
choice, every recorded state equals iterating model.step on the same draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .ar1 import _is_unit_pair, variance_of_Y
from .errors import ParameterError
from .geometry import assign_cells, centroidal_deviation, min_cell_volume
from .model import (
    ExemplarCloud,
    ModelConfig,
    SystemState,
    _advance,
    limit_total_weight,
    sample,
)
from .rng import GEOMETRY_STREAM, substream

_CHUNK = 1 << 16
_ENSEMBLE_CHUNK = 512

MOVEMENT_EPSILON = 1e-4
_FRACTION_FLOOR = 0.5
_CVT_SAMPLES = 1 << 18


@dataclass(frozen=True)
class TrajectoryRecord:
    """States of one run sampled every ``stride`` steps (step 0 included)."""

    config: ModelConfig
    stride: int
    means: np.ndarray    # (m, k, dim)
    weights: np.ndarray  # (m, k)
    winners: np.ndarray = None  # (n_steps,) winning category per step, if kept

    @property
    def steps(self) -> np.ndarray:
        """Step index of each record: 0, stride, 2 stride, ..."""
        return np.arange(len(self.means), dtype=np.int64) * self.stride

    @property
    def boundaries(self) -> np.ndarray:
        """Midpoint between the two means at each record; 1-D k=2 only."""
        if self.means.shape[1:] != (2, 1):
            raise ParameterError("boundary series requires a 1-D two-category record")
        return (self.means[:, 0, 0] + self.means[:, 1, 0]) / 2.0

    def final_state(self) -> SystemState:
        return SystemState(self.means[-1].copy(), self.weights[-1].copy(),
                           int(self.steps[-1]))


def _trajectory_general(config, n_steps, stride, rng, record_winners, cloud):
    state = config.initial_state()
    means, weights = state.means, state.weights
    decay = math.exp(-config.decay_rate)
    uniform = config.dist.kind == "uniform"
    n_rec = n_steps // stride + 1
    rec_means = np.empty((n_rec, config.k, config.domain.dim))
    rec_weights = np.empty((n_rec, config.k))
    rec_means[0] = means
    rec_weights[0] = weights
    winners = np.empty(n_steps, dtype=np.int64) if record_winners else None

    t = 0
    r = 1
    while t < n_steps:
        m = min(_CHUNK, n_steps - t)
        zs = config.domain.uniform_points(rng, m) if uniform else None
        for j in range(m):
            z = zs[j] if uniform else sample(config.dist, config.domain, rng)
            i = _advance(means, weights, z, decay)
            if cloud is not None:
                cloud.add(i, z, t + 1)
            if record_winners:
                winners[t] = i
            t += 1
            if t % stride == 0:
                rec_means[r] = means
                rec_weights[r] = weights
                r += 1
    return rec_means, rec_weights, winners


def _trajectory_pair(config, n_steps, stride, rng, record_winners):
    # scalar loop for the 1-D k=2 uniform case; arithmetic mirrors _advance
    x1 = float(config.init_means[0, 0])
    x2 = float(config.init_means[1, 0])
    w1 = float(config.init_weights[0])
    w2 = float(config.init_weights[1])
    decay = math.exp(-config.decay_rate)
    lo = float(config.domain.lower[0])
    span = float(config.domain.upper[0] - config.domain.lower[0])

    n_rec = n_steps // stride + 1
    rec_means = np.empty((n_rec, 2, 1))
    rec_weights = np.empty((n_rec, 2))
    rec_means[0, 0, 0] = x1
    rec_means[0, 1, 0] = x2
    rec_weights[0, 0] = w1
    rec_weights[0, 1] = w2
    winners = np.empty(n_steps, dtype=np.int64) if record_winners else None

    t = 0
    r = 1
    while t < n_steps:
        m = min(_CHUNK, n_steps - t)
        for u in rng.random(m).tolist():
            z = lo + span * u
            d1 = x1 - z
            d2 = x2 - z
            w1 *= decay
            w2 *= decay
            if d1 * d1 <= d2 * d2:
                x1 = (x1 * w1 + z) / (w1 + 1.0)
                w1 += 1.0
                win = 0
            else:
                x2 = (x2 * w2 + z) / (w2 + 1.0)
                w2 += 1.0
                win = 1
            if record_winners:
                winners[t] = win
            t += 1
            if t % stride == 0:
                rec_means[r, 0, 0] = x1
                rec_means[r, 1, 0] = x2
                rec_weights[r, 0] = w1
                rec_weights[r, 1] = w2
                r += 1
    return rec_means, rec_weights, winners


def run_trajectory(config: ModelConfig, n_steps: int, stride: int = 1,
                   rng=None, record_winners: bool = False,
                   cloud: ExemplarCloud = None) -> TrajectoryRecord:
    """Run the dynamics for n_steps, recording every stride-th state.

    The record always contains the initial state.  With the default rng the
    run is a pure function of config (draws come from the config seed's main
    stream); pass an explicit generator to replay e.g. one ensemble replica.
    If ``cloud`` is given, every absorbed point is appended to it.
    """
    n_steps = int(n_steps)
    stride = int(stride)
    if n_steps < 0:
        raise ParameterError("n_steps must be nonnegative")
    if stride < 1:
        raise ParameterError("stride must be a positive integer")
    if rng is None:
        rng = substream(config.seed)

    fast = (config.k == 2 and config.domain.dim == 1
            and config.dist.kind == "uniform" and cloud is None)
    if fast:
        rec_means, rec_weights, winners = _trajectory_pair(
            config, n_steps, stride, rng, record_winners)
    else:
        rec_means, rec_weights, winners = _trajectory_general(
            config, n_steps, stride, rng, record_winners, cloud)

    return TrajectoryRecord(config=config, stride=stride, means=rec_means,
                            weights=rec_weights, winners=winners)


# ---------------------------------------------------------------------------
# replica ensembles for the boundary-variance experiment

@dataclass(frozen=True)
class EnsembleEstimate:
    """Monte Carlo estimate of one quantity at one (decay_rate, n) point.

    ``n`` keeps the requested horizon (math.inf for the equilibrium column);
    ``n_steps`` is the horizon actually simulated.  ``stderr`` is the
    standard error of the mean; ``var_stderr`` the standard error of the
    variance estimate, from the sample's fourth central moment.
    """

    quantity: str
    decay_rate: float
    n: float
    n_steps: int
    mean: float
    variance: float
    stderr: float
    var_stderr: float
    n_replicas: int


def equilibrium_steps(decay_rate: float) -> int:
    """ceil(400 / decay_rate), the horizon treated as 'effectively infinite'."""
    if not 0 < decay_rate < math.inf:
        raise ParameterError("equilibrium horizon requires a finite decay_rate > 0")
    return math.ceil(400.0 / decay_rate)


def replica_stream(master_seed, index, r):
    """The generator driving replica ``r`` of ensemble grid point ``index``."""
    return substream(master_seed, index, r)


def boundary_samples(decay_rate: float, n_targets, replicas: int,
                     master_seed, index: int = 0):
    """Boundary positions across an ensemble of 1-D two-category runs.

    All replicas start from the symmetric state x=(1/4, 3/4), w=(W/2, W/2)
    on the unit interval and advance in lockstep; returns {n: array of
    replica boundaries after n steps} for each requested n.  Replica r
    draws from replica_stream(master_seed, index, r), so any single row can
    be reproduced with run_trajectory on that stream.
    """
    if decay_rate <= 0:
        raise ParameterError("boundary ensembles require decay_rate > 0")
    if replicas < 1:
        raise ParameterError("need at least one replica")
    targets = sorted({int(n) for n in n_targets})
    if targets and targets[0] < 0:
        raise ParameterError("step targets must be nonnegative")
    R = int(replicas)
    decay = math.exp(-decay_rate)
    half_w = limit_total_weight(decay_rate) / 2.0

    x1 = np.full(R, 0.25)
    x2 = np.full(R, 0.75)
    w1 = np.full(R, half_w)
    w2 = np.full(R, half_w)
    gens = [replica_stream(master_seed, index, r) for r in range(R)]

    out = {}
    want = set(targets)
    if 0 in want:
        out[0] = (x1 + x2) / 2.0
    n_max = targets[-1] if targets else 0
    t = 0
    while t < n_max:
        m = min(_ENSEMBLE_CHUNK, n_max - t)
        Z = np.empty((m, R))
        for r, g in enumerate(gens):
            Z[:, r] = g.random(m)
        for j in range(m):
            z = Z[j]
            d1 = x1 - z
            d1 *= d1
            d2 = x2 - z
            d2 *= d2
            win1 = d1 <= d2
            w1 *= decay
            w2 *= decay
            np.copyto(x1, (x1 * w1 + z) / (w1 + 1.0), where=win1)
            np.copyto(x2, (x2 * w2 + z) / (w2 + 1.0), where=~win1)
            w1 += win1
            w2 += ~win1
            t += 1
            if t in want:
                out[t] = (x1 + x2) / 2.0
    return out


def _estimate(quantity, decay_rate, n, n_eff, values) -> EnsembleEstimate:
    values = np.asarray(values, dtype=np.float64)
    R = values.shape[0]
    if R < 2:
        raise ParameterError("ensemble statistics require at least 2 replicas")
    mean = float(values.mean())
    var = float(values.var(ddof=1))
    stderr = math.sqrt(var / R)
    dev = values - mean
    m4 = float(np.mean(dev**4))
    # large-sample variance of the sample variance, via the 4th moment
    var_of_var = (m4 - var**2 * (R - 3) / (R - 1)) / R
    return EnsembleEstimate(
        quantity=quantity,
        decay_rate=float(decay_rate),
        n=n,
        n_steps=int(n_eff),
        mean=mean,
        variance=var,
        stderr=stderr,
        var_stderr=math.sqrt(max(var_of_var, 0.0)),
        n_replicas=R,
    )


def boundary_variance_curve(lambda_grid, n_list, replicas, master_seed):
    """Ensemble variance of the boundary for every (decay_rate, n) pair.

    ``n_list`` entries may be math.inf, meaning the equilibrium horizon
    ceil(400 / decay_rate).  Grid point i uses replica streams keyed by
    (master_seed, i, r); results are a flat list ordered by grid point then
    by n_list position.
    """
    grid = [float(lam) for lam in lambda_grid]
    if not grid:
        raise ParameterError("lambda_grid must be non-empty")
    if int(replicas) < 2:
        raise ParameterError("replica count must be at least 2")
    horizons = []
    for n in n_list:
        if n != math.inf:
            n = int(n)
            if n < 0:
                raise ParameterError("entries of n_list must be >= 0 or math.inf")
        horizons.append(n)
    if not horizons:
        raise ParameterError("n_list must be non-empty")

    estimates = []
    for i, lam in enumerate(grid):
        eff = {n: (equilibrium_steps(lam) if n == math.inf else n) for n in horizons}
        samples = boundary_samples(lam, set(eff.values()), replicas, master_seed, index=i)
        for n in horizons:
            estimates.append(_estimate("boundary", lam, n, eff[n], samples[eff[n]]))
    return estimates


# ---------------------------------------------------------------------------
# long-run property checks

@dataclass(frozen=True)
class PropertyReport:
    """Outcome of one long-run check; identical config+seed, identical report."""

    name: str
    passed: bool
    stats: dict
    thresholds: dict
    seed: int


def longest_starvation(winners, k: int, burn_in: int = 0) -> int:
    """Longest run of consecutive post-burn-in steps leaving some category
    without a single win.  winners[t] is the winner of update t+1."""
    w = np.asarray(winners)
    n = w.shape[0]
    burn_in = min(int(burn_in), n)
    worst = 0
    for j in range(k):
        times = np.flatnonzero(w[burn_in:] == j) + burn_in + 1
        edges = np.concatenate(([burn_in], times, [n + 1]))
        worst = max(worst, int(np.diff(edges).max()) - 1)
    return worst


def property_non_extinction(config: ModelConfig, n_steps: int,
                            window: int = 10_000) -> PropertyReport:
    """Pass iff every category keeps winning: after a burn-in of
    10*ceil(1/decay_rate) steps, no stretch of ``window`` consecutive steps
    leaves any category empty-handed."""
    if config.decay_rate <= 0:
        raise ParameterError("non-extinction check requires decay_rate > 0")
    if window < 1:
        raise ParameterError("window must be positive")
    burn_in = 10 * math.ceil(1.0 / config.decay_rate)
    rec = run_trajectory(config, n_steps, stride=max(1, int(n_steps)),
                         record_winners=True)
    worst = longest_starvation(rec.winners, config.k, burn_in)
    return PropertyReport(
        name="non-extinction",
        passed=worst < window,
        stats={"max_starvation": float(worst), "burn_in": float(burn_in),
               "n_steps": float(n_steps)},
        thresholds={"window": float(window)},
        seed=config.seed,
    )


def _min_pairwise_distance(means_batch) -> np.ndarray:
    m, k, _ = means_batch.shape
    if k == 1:
        return np.full(m, np.inf)
    diff = means_batch[:, :, None, :] - means_batch[:, None, :, :]
    d2 = (diff**2).sum(axis=3)
    d2[:, np.arange(k), np.arange(k)] = np.inf
    return np.sqrt(d2.min(axis=(1, 2)))


def property_non_collapse(config: ModelConfig, n_steps: int,
                          check_stride: int = 1000, n_samples: int = 4096,
                          volume_floor: float = None) -> PropertyReport:
    """Pass iff cells keep bulk: the fraction of checked states whose
    smallest cell volume exceeds the floor (default 0.05 |E| / k) stays
    above one half.  Also tracks the smallest pairwise distance
    between means over the checked states."""
    if volume_floor is None:
        volume_floor = 0.05 * config.domain.volume / config.k
    rec = run_trajectory(config, n_steps, stride=check_stride)
    checked = rec.means[1:] if rec.means.shape[0] > 1 else rec.means
    vols = np.empty(checked.shape[0])
    for i, means in enumerate(checked):
        g = substream(config.seed, GEOMETRY_STREAM, i)
        vols[i] = min_cell_volume(means, config.domain, n_samples, g)
    fraction = float(np.mean(vols > volume_floor))
    min_dist = float(_min_pairwise_distance(checked).min())
    return PropertyReport(
        name="non-collapse",
        passed=fraction > _FRACTION_FLOOR,
        stats={"min_volume": float(vols.min()), "volume_fraction": fraction,
               "min_pair_distance": min_dist, "n_steps": float(n_steps),
               "checks": float(checked.shape[0])},
        thresholds={"volume_floor": float(volume_floor),
                    "fraction_floor": _FRACTION_FLOOR},
        seed=config.seed,
    )


def variance_floor(decay_rate: float) -> float:
    """Late-window variance each mean must beat: a tenth of the stationary
    boundary variance, extended by continuity to 0 at decay_rate = 0."""
    if decay_rate == 0:
        return 0.0
    return 0.1 * variance_of_Y(decay_rate, math.inf)


def property_non_convergence(config: ModelConfig, n_steps: int) -> PropertyReport:
    """Pass iff the means keep moving: over the last quarter of the run,
    each mean's variance beats a decay-rate-dependent floor and each mean
    still takes visible steps (|change| > 1e-4 at least once).

    Accepts decay_rate = 0 so the converging case can serve as a negative
    control (it must come out failed)."""
    if not _is_unit_pair(config):
        raise ParameterError(
            "this check is calibrated to the 2-category uniform model on [0, 1]"
        )
    if n_steps < 8:
        raise ParameterError("n_steps too small for a late-window estimate")
    rec = run_trajectory(config, n_steps, stride=1)
    xs = rec.means[:, :, 0]              # (n_steps+1, 2)
    late = xs[-(n_steps // 4 + 1):]
    late_var = late.var(axis=0)
    moves = np.abs(np.diff(late, axis=0))
    move_freq = (moves > MOVEMENT_EPSILON).mean(axis=0)
    floor = variance_floor(config.decay_rate)
    passed = bool(np.all(late_var > floor) and np.all(move_freq > 0.0))
    return PropertyReport(
        name="non-convergence",
        passed=passed,
        stats={"late_variance_min": float(late_var.min()),
               "late_variance_max": float(late_var.max()),
               "movement_frequency_min": float(move_freq.min()),
               "decay_rate": float(config.decay_rate),
               "n_steps": float(n_steps)},
        thresholds={"variance_floor": float(floor),
                    "movement_epsilon": MOVEMENT_EPSILON},
        seed=config.seed,
    )


def property_macqueen_cvt(config: ModelConfig, n_steps: int) -> PropertyReport:
    """Pass iff the zero-decay run settles toward a centroidal configuration:
    deviation at n_steps under a quarter of its value at n_steps/10, and the
    final deviation under 5% of the domain diameter.

    The quarter-per-decade rule only fits bias-dominated runs, such as one
    heavily weighted mean drifting toward the domain centroid.  A run that
    already sits near a centroidal configuration is fluctuation-dominated
    and settles no faster than its slowest linear mode allows: for the 2x2
    configuration on a square (fig1 at zero decay) that mode decays like
    n^(-1/3), about 2.15x per decade, so such runs fail this check while
    converging normally."""
    if config.decay_rate != 0:
        raise ParameterError("the centroidal-limit check requires decay_rate = 0")
    if n_steps < 10 or n_steps % 10:
        raise ParameterError("n_steps must be a positive multiple of 10")
    rec = run_trajectory(config, n_steps, stride=n_steps // 10)
    dev_mid = centroidal_deviation(rec.means[1], config.domain, _CVT_SAMPLES,
                                   substream(config.seed, GEOMETRY_STREAM, 0))
    dev_final = centroidal_deviation(rec.means[-1], config.domain, _CVT_SAMPLES,
                                     substream(config.seed, GEOMETRY_STREAM, 1))
    final_cap = 0.05 * config.domain.diameter
    passed = bool(dev_final < 0.25 * dev_mid and dev_final < final_cap)
    return PropertyReport(
        name="macqueen-cvt",
        passed=passed,
        stats={"deviation_mid": float(dev_mid), "deviation_final": float(dev_final),
               "mid_step": float(n_steps // 10), "n_steps": float(n_steps)},
        thresholds={"ratio": 0.25, "final_deviation": final_cap},
        seed=config.seed,
    )


def theorem_suite(config: ModelConfig, n_steps: int = 1_000_000,
                  window: int = 10_000, check_stride: int = 1000,
                  negative_control: bool = True):
    """The three long-run checks on one config, each with its expected
    outcome, plus (optionally) a zero-decay rerun of the movement check that
    is expected to fail.  Returns [(report, expected_pass), ...]."""
    out = [
        (property_non_extinction(config, n_steps, window), True),
        (property_non_collapse(config, n_steps, check_stride), True),
        (property_non_convergence(config, n_steps), True),
    ]
    if negative_control:
        control = replace(config, decay_rate=0.0)
        out.append((property_non_convergence(control, n_steps), False))
    return out


# ---------------------------------------------------------------------------
# 2-D snapshot

@dataclass(frozen=True)
class SnapshotResult:
    """Surviving exemplars, category means and cell boundaries after a run."""

    step: int
    positions: np.ndarray       # (m, 2) exemplars still above the weight cutoff
    weights: np.ndarray         # (m,)
    categories: np.ndarray      # (m,) int
    means: np.ndarray           # (k, 2)
    category_weights: np.ndarray  # (k,)
    boundary_segments: np.ndarray  # (s, 2, 2) endpoints of grid-edge pieces
    prune_threshold: float


def _grid_boundary_segments(means, domain, resolution: int) -> np.ndarray:
    lo = domain.lower
    span = domain.upper - domain.lower
    dx = span[0] / resolution
    dy = span[1] / resolution
    cx = lo[0] + (np.arange(resolution) + 0.5) * dx
    cy = lo[1] + (np.arange(resolution) + 0.5) * dy
    X, Y = np.meshgrid(cx, cy, indexing="ij")
    labels = assign_cells(np.column_stack([X.ravel(), Y.ravel()]), means)
    labels = labels.reshape(resolution, resolution)

    pieces = []
    ii, jj = np.nonzero(labels[1:, :] != labels[:-1, :])
    if ii.size:
        x = lo[0] + (ii + 1.0) * dx
        y0 = lo[1] + jj * dy
        pieces.append(np.stack([np.stack([x, y0], axis=1),
                                np.stack([x, y0 + dy], axis=1)], axis=1))
    ii, jj = np.nonzero(labels[:, 1:] != labels[:, :-1])
    if ii.size:
        y = lo[1] + (jj + 1.0) * dy
        x0 = lo[0] + ii * dx
        pieces.append(np.stack([np.stack([x0, y], axis=1),
                                np.stack([x0 + dx, y], axis=1)], axis=1))
    if not pieces:
        return np.zeros((0, 2, 2))
    return np.concatenate(pieces)


def figure1_snapshot(config: ModelConfig, n_steps: int,
                     prune_threshold: float = 0.01,
                     cloud: ExemplarCloud = None,
                     grid_resolution: int = 512) -> SnapshotResult:
    """Run a 2-D config and report what a scatter plot needs: every exemplar
    whose decayed weight still exceeds the cutoff, the category means, and
    the cell boundaries traced on a classification grid.

    If no cloud is supplied the initial mass of each category is represented
    as a single lumped exemplar at its starting mean, which decays exactly
    like the individual points it stands for.
    """
    if config.domain.dim != 2:
        raise ParameterError("snapshots are defined for 2-D configs")
    if prune_threshold < 0:
        raise ParameterError("prune_threshold must be nonnegative")
    if cloud is None:
        cloud = ExemplarCloud(config.k, 2)
        for j in range(config.k):
            cloud.seed_category(j, config.init_means[j][None, :],
                                [config.init_weights[j]], birth_step=0)
    rec = run_trajectory(config, n_steps, stride=max(1, int(n_steps)),
                         cloud=cloud)
    kept = cloud.pruned(int(n_steps), config.decay_rate, prune_threshold)
    positions = np.concatenate([locs for locs, _ in kept]) if kept else np.zeros((0, 2))
    weights = np.concatenate([w for _, w in kept]) if kept else np.zeros(0)
    categories = np.concatenate(
        [np.full(locs.shape[0], j, dtype=np.int64) for j, (locs, _) in enumerate(kept)]
    ) if kept else np.zeros(0, dtype=np.int64)
    means = rec.means[-1]
    return SnapshotResult(
        step=int(n_steps),
        positions=positions,
        weights=weights,
        categories=categories,
        means=means,
        category_weights=rec.weights[-1],
        boundary_segments=_grid_boundary_segments(means, config.domain,
                                                  int(grid_resolution)),
        prune_threshold=float(prune_threshold),
    )
