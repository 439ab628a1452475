"""Seeded Monte Carlo experiments on the exemplar dynamics.

Provides trajectory recording with thinning, replica ensembles for the
boundary-variance experiment, long-run property checks (non-extinction,
non-collapse, non-convergence, and the zero-decay centroidal limit), and a
2-D snapshot of the surviving exemplar cloud with cell boundaries.

Everything is deterministic given its seed.  A trajectory consumes the bare
stream of its config seed; replica r of an ensemble keyed by (master_seed,
grid index i) consumes substream(master_seed, i, r); geometry estimates use
tagged substreams so they never disturb trajectory draws.

Every single run goes through one engine: a step loop over Python floats
whose source is generated for the run's shape (k, dim, whether it keeps
winners, records every step, feeds an exemplar cloud, and maps draws onto
the box) and compiled once per shape.  The generated loop keeps every mean
coordinate and weight in a local variable, which runs 3.5 to 8 times as
many steps per second as one loop over indexed lists for every shape;
numba and Cython, which could compile such a loop from one source, are
not dependencies.  Ensembles of uniform-draw
runs of any shape (k, dim) go through one lockstep engine, which advances
every replica one step per round of numpy calls over the replica axis.
Both repeat model._advance's arithmetic operation for operation.  The
step-reference tests in tests/test_harness.py prove it for single runs:
across k, dim, decay rates, both distribution kinds, runs with a cloud and
exact ties, every recorded state equals iterating model.step on the same
draws.  The replay tests prove it for the lockstep engine: every row of an
ensemble equals run_trajectory on that row's stream.

run_trajectory draws in chunks of _CHUNK points and hands each chunk to the
loop as Python floats.  The loop collects the states it records, and the
winners, in Python lists, and each chunk's are stored into the record with
one slice assignment per array, so recording every step costs list appends
rather than numpy item stores.

A run can be continued from a record's last state on the generator that
made it, and the continued states equal those of one uninterrupted run.
theorem_suite uses this to run its config once: one run's head keeps the
winners and every check_stride-th state, its last quarter continues at
stride 1, and the non-extinction, non-collapse and non-convergence reports
are built from that run by the same code as the standalone checks, which
each run the trajectory themselves.  figure1_snapshot runs its head without
an exemplar cloud and feeds the cloud only from a tail as long as the
survivor horizon, the age past which an absorbed point weighs no more than
the cutoff, so the cloud grows with that horizon, not with n_steps.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .ar1 import _is_unit_pair, variance_of_Y
from .errors import ParameterError
from .geometry import _ASSIGN_CHUNK, assign_cells, centroidal_deviation, min_cell_volume
from .model import (
    Domain,
    ExemplarCloud,
    ModelConfig,
    limit_total_weight,
    sample,
)
from .rng import GEOMETRY_STREAM, substream

# draws per block; the engines hold each block as Python floats
_CHUNK = 1 << 12
_ENSEMBLE_CHUNK = 512

MOVEMENT_EPSILON = 1e-4
_FRACTION_FLOOR = 0.5
_COLLAPSE_SAMPLES = 4096
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


@functools.lru_cache(maxsize=64)
def _step_loop(k, dim, record_winners, every_step, with_cloud, transform):
    """Compile the step loop of one run shape from generated source.

    loop(zs, t, stride, decay, box, state, recs, wins, cloud_add) runs the
    draws zs from ``state``, the flat tuple (*means.ravel(), *weights), t
    steps into the run.  It extends recs by the state at every stride-th
    step, appends each winner to wins and returns the new state.  Mean j's
    coordinate c is the local m{j}_{c} and its weight w{j}.  The arithmetic
    is _advance's: z_c = lo_c + span_c u_c from box = (*lo, *span) unless
    the draws are the points already, squared distances summed over the
    coordinates in order, a running minimum with strict < so ties go to the
    lower index, every weight decayed, and the winner absorbing the point.
    Dropping _advance's 0.0 + before the first e * e is exact, as e * e is
    never -0.0.
    """
    cats, coords = range(k), range(dim)
    z = ", ".join(f"z_{c}" for c in coords)
    state = ", ".join([f"m{j}_{c}" for j in cats for c in coords]
                      + [f"w{j}" for j in cats]) + ","

    def indent(lines):
        return ["    " + line for line in lines]

    def distance(j, d):
        if dim == 1:
            return [f"{d} = m{j}_0 - z_0", f"{d} *= {d}"]
        return ([f"e_{c} = m{j}_{c} - z_{c}" for c in coords]
                + [f"{d} = " + " + ".join(f"e_{c} * e_{c}" for c in coords)])

    def absorb(j):
        return ([f"v = w{j} + 1.0"]
                + [f"m{j}_{c} = (m{j}_{c} * w{j} + z_{c}) / v" for c in coords]
                + [f"w{j} = v"] + [f"add_win({j})"] * record_winners
                + [f"cloud_add({j}, ({z},), t)"] * with_cloud)

    def dispatch(lo, hi):
        # a balanced tree of tests on i: log2(k) tests per step, nested as deep
        if hi - lo == 1:
            return absorb(lo)
        mid = (lo + hi) // 2
        return [f"if i < {mid}:", *indent(dispatch(lo, mid)),
                "else:", *indent(dispatch(mid, hi))]

    body = [f"z_{c} = lo_{c} + span_{c} * u_{c}" for c in coords] if transform else []
    if k == 2:
        body += distance(0, "d0") + distance(1, "d1")
    elif k > 2:
        body += distance(0, "best") + ["i = 0"]
        for j in range(1, k):
            body += distance(j, "d") + ["if d < best:", f"    i = {j}", "    best = d"]
    body += [f"w{j} *= decay" for j in cats] + ["t += 1"] * with_cloud
    if k == 2:
        body += ["if d1 < d0:", *indent(absorb(1)), "else:", *indent(absorb(0))]
    else:
        body += dispatch(0, k)
    record = [f"add_rec(({state}))"]
    if not every_step:
        record = ["left -= 1", "if not left:", "    left = stride", *indent(record)]

    lines = ["def loop(zs, t, stride, decay, box, state, recs, wins, cloud_add):",
             f"    {state} = state",
             "    add_rec, add_win = recs.extend, wins.append",
             "    left = stride - t % stride"]
    draws = z
    if transform:
        lines.append("    " + "".join(f"lo_{c}, " for c in coords)
                     + "".join(f"span_{c}, " for c in coords) + "= box")
        draws = ", ".join(f"u_{c}" for c in coords)
    lines += [f"    for {draws} in zs:", *indent(indent(body + record)),
              f"    return {state}"]
    namespace = {}
    exec("\n".join(lines), namespace)
    return namespace["loop"]


def _whole(value, message) -> int:
    # int() alone would truncate 2.7 to 2 and raise its own errors on NaN and inf
    if not float(value).is_integer():
        raise ParameterError(message)
    return int(value)


def _run_length(n_steps, stride):
    # run_trajectory's argument checks, in its order
    n_steps = _whole(n_steps, "n_steps must be a whole number")
    stride = _whole(stride, "stride must be a whole number")
    if n_steps < 0:
        raise ParameterError("n_steps must be nonnegative")
    if stride < 1:
        raise ParameterError("stride must be a positive integer")
    return n_steps, stride


def run_trajectory(config: ModelConfig, n_steps: int, stride: int = 1,
                   rng=None, record_winners: bool = False,
                   cloud: ExemplarCloud = None) -> TrajectoryRecord:
    """Run the dynamics for n_steps, recording every stride-th state.

    The record always contains the initial state.  With the default rng the
    run is a pure function of config (draws come from the config seed's main
    stream); pass an explicit generator to replay e.g. one ensemble replica.
    If ``cloud`` is given, every absorbed point is appended to it with the
    run's own step count as its birth step: the point absorbed by the t-th
    step of this run is born at step t, whatever state the run started
    from.  figure1_snapshot relies on this to feed the cloud from a run
    continued partway through.
    """
    n_steps, stride = _run_length(n_steps, stride)
    if rng is None:
        rng = substream(config.seed)
    k, dim = config.init_means.shape  # plain ints, as they go into source
    uniform = config.dist.kind == "uniform"
    box = config.domain.lower.tolist() + (config.domain.upper - config.domain.lower).tolist()
    # on the unit box lo + span u = 0.0 + 1.0 u = u, bit for bit
    transform = uniform and box != [0.0] * dim + [1.0] * dim
    loop = _step_loop(k, dim, record_winners, stride == 1, cloud is not None, transform)
    decay = math.exp(-config.decay_rate)
    cloud_add = None if cloud is None else cloud.add

    n_rec = n_steps // stride + 1
    rec_means = np.empty((n_rec, k, dim))
    rec_weights = np.empty((n_rec, k))
    rec_means[0] = config.init_means
    rec_weights[0] = config.init_weights
    # a winner is a category index below k: one byte per step up to k = 256
    winners = (np.empty(n_steps, dtype=np.min_scalar_type(k - 1))
               if record_winners else None)
    state = (*config.init_means.ravel().tolist(), *config.init_weights.tolist())

    t = 0
    r = 1  # where the next recorded state goes
    while t < n_steps:
        m = min(_CHUNK, n_steps - t)
        if uniform:
            zs = rng.random((m, dim))
        else:
            zs = np.array([sample(config.dist, config.domain, rng) for _ in range(m)])
        recs, wins = [], []
        # a 1-D loop takes each draw as a float
        state = loop((zs[:, 0] if dim == 1 else zs).tolist(), t, stride, decay, box,
                     state, recs, wins, cloud_add)
        block = np.fromiter(recs, float, len(recs)).reshape(-1, len(state))
        rec_means.reshape(n_rec, -1)[r:r + len(block)] = block[:, :k * dim]
        rec_weights[r:r + len(block)] = block[:, k * dim:]
        r += len(block)
        if record_winners:
            winners[t:t + m] = wins
        t += m

    return TrajectoryRecord(config=config, stride=stride, means=rec_means,
                            weights=rec_weights, winners=winners)


def _continue_run(record: TrajectoryRecord, n_steps: int, stride: int, rng,
                  record_winners: bool = False,
                  cloud: ExemplarCloud = None) -> TrajectoryRecord:
    """Run n_steps more from the record's last state, drawing from ``rng``.

    Passing the generator the record was made with continues the same
    stream, so the states equal those of one uninterrupted run.  The
    continuation's config is a copy with the state set directly, because
    ModelConfig's input checks refuse a state the dynamics reach: a weight
    that decayed to 0.0.
    """
    cont = copy.copy(record.config)
    object.__setattr__(cont, "init_means", record.means[-1])
    object.__setattr__(cont, "init_weights", record.weights[-1])
    return run_trajectory(cont, n_steps, stride=stride, rng=rng,
                          record_winners=record_winners, cloud=cloud)


# ---------------------------------------------------------------------------
# replica ensembles for the boundary-variance experiment

@dataclass(frozen=True)
class EnsembleEstimate:
    """Monte Carlo estimate of the boundary at one (decay_rate, n) point.

    ``n`` keeps the requested horizon (math.inf for the equilibrium column);
    ``n_steps`` is the horizon actually simulated.  ``stderr`` is the
    standard error of the mean; ``var_stderr`` the standard error of the
    variance estimate, from the sample's fourth central moment.
    """

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


def _lockstep_states(means, weights, decay_rate, domain, gens, targets):
    """States of R independent uniform-draw runs advanced in lockstep.

    Run r starts from means[r] (k, dim) and weights[r] (k,), or from the
    shared means and weights if they have no replica axis, and draws from
    gens[r] exactly as run_trajectory draws on ``domain``.  Returns {n:
    (means (R, k, dim), weights (R, k))} for every n in ``targets``.

    Each step repeats model._advance's arithmetic on all runs at once:
    squared distances summed over the coordinates in order, a running
    minimum with strict < so ties go to the lower index, every weight
    decayed, and the winner's coordinates and weight gathered through flat
    indices, updated and scattered back.  Every buffer is allocated once;
    the draws of each chunk are mapped onto the box in place.
    """
    R = len(gens)
    k, dim = np.shape(means)[-2:]
    decay = math.exp(-decay_rate)
    # means (dim, k, R) and weights (k, R): category i of replica r has its
    # weight at flat index i R + r and its coordinate c at c k R + i R + r,
    # so one gather index plus a fixed offset per coordinate reaches both
    M = np.empty((dim, k, R))
    M[...] = np.broadcast_to(means, (R, k, dim)).T
    W = np.empty((k, R))
    W[...] = np.broadcast_to(weights, (R, k)).T
    Mf = M.reshape(-1)
    Wf = W.reshape(-1)
    diff = np.empty((dim, k, R))
    dist = diff[0] if dim == 1 else np.empty((k, R))
    sq = list(diff)  # views bound once: indexing an array makes a new view
    d = list(dist)
    mask = np.empty(R, dtype=bool)
    best = np.empty(R)
    idx = np.empty(R, dtype=np.intp)
    replica = np.arange(R)
    widx = replica.copy()
    midx = widx[None] if dim == 1 else np.empty((dim, R), dtype=np.intp)
    coords = (np.arange(dim) * (k * R))[:, None]
    if dim > 1:
        np.add(widx, coords, midx)
    wi = np.empty(R)
    w1 = np.empty(R)
    x = np.empty((dim, R))
    lo = domain.lower.tolist()
    span = (domain.upper - domain.lower).tolist()
    # on the unit box lo + span u = 0.0 + 1.0 u = u, bit for bit
    unit = all(a == 0.0 for a in lo) and all(b == 1.0 for b in span)

    out = {}
    want = set(targets)
    if 0 in want:
        out[0] = (M.T.copy(), W.T.copy())
    n_max = max(want, default=0)
    buf = np.empty((min(_ENSEMBLE_CHUNK, n_max), dim, R))
    zs = buf[:, :, None, :]
    t = 0
    while t < n_max:
        m = min(_ENSEMBLE_CHUNK, n_max - t)
        for r, g in enumerate(gens):
            buf[:m, :, r] = g.random((m, dim))
        if not unit:
            for c in range(dim):
                u = buf[:m, c]
                u *= span[c]
                u += lo[c]
        for j in range(m):
            np.subtract(M, zs[j], diff)
            np.multiply(diff, diff, diff)
            if dim > 1:
                np.add(sq[0], sq[1], dist)
                for c in range(2, dim):
                    np.add(dist, sq[c], dist)
            if k > 1:
                np.less(d[1], d[0], mask)
                if k == 2:
                    np.multiply(mask, R, widx)
                else:
                    np.copyto(idx, mask)
                    np.minimum(d[0], d[1], out=best)
                    for i in range(2, k):
                        np.less(d[i], best, mask)
                        np.minimum(best, d[i], out=best)
                        np.copyto(idx, i, where=mask)
                    np.multiply(idx, R, widx)
                np.add(widx, replica, widx)
                if dim > 1:
                    np.add(widx, coords, midx)
            np.multiply(W, decay, W)
            Wf.take(widx, None, wi, "clip")
            np.add(wi, 1.0, w1)
            Mf.take(midx, None, x, "clip")
            np.multiply(x, wi, x)
            np.add(x, buf[j], x)
            np.divide(x, w1, x)
            Mf[midx] = x
            Wf[widx] = w1
            t += 1
            if t in want:
                out[t] = (M.T.copy(), W.T.copy())
    return out


_UNIT_INTERVAL = Domain(np.array([0.0]), np.array([1.0]))


def boundary_samples(decay_rate: float, n_targets, replicas: int,
                     master_seed, index: int = 0):
    """Boundary positions across an ensemble of 1-D two-category runs.

    All replicas start from the symmetric state x=(1/4, 3/4), w=(W/2, W/2)
    on the unit interval and advance in lockstep on the ensemble engine;
    returns {n: array of replica boundaries after n steps} for each
    requested n.  Replica r draws from replica_stream(master_seed, index,
    r), so any single row can be reproduced with run_trajectory on that
    stream.
    """
    if not decay_rate > 0:
        raise ParameterError("boundary ensembles require decay_rate > 0")
    replicas = _whole(replicas, "replica count must be a whole number")
    if replicas < 1:
        raise ParameterError("need at least one replica")
    targets = sorted({_whole(n, "step targets must be whole numbers") for n in n_targets})
    if targets and targets[0] < 0:
        raise ParameterError("step targets must be nonnegative")
    half_w = limit_total_weight(decay_rate) / 2.0
    gens = [replica_stream(master_seed, index, r) for r in range(replicas)]
    states = _lockstep_states(np.array([[0.25], [0.75]]), np.array([half_w, half_w]),
                              decay_rate, _UNIT_INTERVAL, gens, targets)
    return {n: (means[:, 0, 0] + means[:, 1, 0]) / 2.0
            for n, (means, _) in states.items()}


def _estimate(decay_rate, n, n_eff, values) -> EnsembleEstimate:
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
    if _whole(replicas, "replica count must be a whole number") < 2:
        raise ParameterError("replica count must be at least 2")
    horizons = []
    for n in n_list:
        if n != math.inf:
            n = _whole(n, "entries of n_list must be whole numbers or math.inf")
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
            estimates.append(_estimate(lam, n, eff[n], samples[eff[n]]))
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
    if not burn_in >= 0:
        raise ParameterError("burn_in must be nonnegative")
    burn_in = _whole(burn_in, "burn_in must be a whole number")
    w = np.asarray(winners)
    n = w.shape[0]
    burn_in = min(burn_in, n)
    worst = 0
    for j in range(k):
        times = np.flatnonzero(w[burn_in:] == j) + burn_in + 1
        edges = np.concatenate(([burn_in], times, [n + 1]))
        worst = max(worst, int(np.diff(edges).max()) - 1)
    return worst


def _check_starvation_input(config, window):
    if config.decay_rate <= 0:
        raise ParameterError("non-extinction check requires decay_rate > 0")
    if not window >= 1:
        raise ParameterError("window must be positive")


def _extinction_report(config, n_steps, window, winners) -> PropertyReport:
    burn_in = 10 * math.ceil(1.0 / config.decay_rate)
    worst = longest_starvation(winners, config.k, burn_in)
    return PropertyReport(
        name="non-extinction",
        passed=worst < window,
        stats={"max_starvation": float(worst), "burn_in": float(burn_in),
               "n_steps": float(n_steps)},
        thresholds={"window": float(window)},
        seed=config.seed,
    )


def property_non_extinction(config: ModelConfig, n_steps: int,
                            window: int = 10_000) -> PropertyReport:
    """Pass iff every category keeps winning: after a burn-in of
    10*ceil(1/decay_rate) steps, no stretch of ``window`` consecutive steps
    leaves any category empty-handed."""
    _check_starvation_input(config, window)
    n, _ = _run_length(n_steps, 1)
    rec = run_trajectory(config, n, stride=max(1, n), record_winners=True)
    return _extinction_report(config, n_steps, window, rec.winners)


def _min_pairwise_distance(means_batch) -> np.ndarray:
    m, k, _ = means_batch.shape
    if k == 1:
        return np.full(m, np.inf)
    diff = means_batch[:, :, None, :] - means_batch[:, None, :, :]
    d2 = (diff**2).sum(axis=3)
    d2[:, np.arange(k), np.arange(k)] = np.inf
    return np.sqrt(d2.min(axis=(1, 2)))


def _collapse_report(config, n_steps, states, n_samples=_COLLAPSE_SAMPLES,
                     volume_floor=None) -> PropertyReport:
    # states: the run's states at steps 0, check_stride, 2 check_stride, ...;
    # the initial state is checked only when it is the only one
    if volume_floor is None:
        volume_floor = 0.05 * config.domain.volume / config.k
    checked = states[1:] if states.shape[0] > 1 else states
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


def property_non_collapse(config: ModelConfig, n_steps: int,
                          check_stride: int = 1000,
                          n_samples: int = _COLLAPSE_SAMPLES,
                          volume_floor: float = None) -> PropertyReport:
    """Pass iff cells keep bulk: the fraction of checked states whose
    smallest cell volume exceeds the floor (default 0.05 |E| / k) stays
    above one half.  Also tracks the smallest pairwise distance
    between means over the checked states."""
    rec = run_trajectory(config, n_steps, stride=check_stride)
    return _collapse_report(config, n_steps, rec.means, n_samples, volume_floor)


def variance_floor(decay_rate: float) -> float:
    """Late-window variance each mean must beat: a tenth of the stationary
    boundary variance, extended by continuity to 0 at decay_rate = 0."""
    if decay_rate == 0:
        return 0.0
    return 0.1 * variance_of_Y(decay_rate, math.inf)


def _late_window_problem(config, n_steps):
    # (field, message) if property_non_convergence cannot run; config files
    # have only the uniform distribution, so with k = 2 the domain is at fault
    if not _is_unit_pair(config):
        return ("k" if config.k != 2 else "domain",
                "this check is calibrated to the 2-category uniform model on [0, 1]")
    if n_steps < 8:
        return "n_steps", "n_steps too small for a late-window estimate"


def _cvt_problem(n_steps):
    # (field, message) if property_macqueen_cvt cannot run
    if n_steps < 10 or n_steps % 10:
        return "n_steps", "n_steps must be a positive multiple of 10"


def _convergence_report(config, n_steps, late_means) -> PropertyReport:
    # late_means: the states of the last n_steps // 4 steps, at stride 1
    late = late_means[:, :, 0]
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


def property_non_convergence(config: ModelConfig, n_steps: int) -> PropertyReport:
    """Pass iff the means keep moving: over the last quarter of the run,
    each mean's variance beats a decay-rate-dependent floor and each mean
    still takes visible steps (|change| > 1e-4 at least once).

    Accepts decay_rate = 0 so the converging case can serve as a negative
    control (it must come out failed).  Only the last quarter is recorded:
    the run's head goes unrecorded, and its tail continues on the same
    stream, so the states equal those of one stride-1 run."""
    problem = _late_window_problem(config, n_steps)
    if problem:
        raise ParameterError(problem[1])
    tail = n_steps // 4
    rng = substream(config.seed)
    head = run_trajectory(config, n_steps - tail, stride=n_steps - tail, rng=rng)
    late = _continue_run(head, tail, 1, rng)
    return _convergence_report(config, n_steps, late.means)


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
    problem = _cvt_problem(n_steps)
    if problem:
        raise ParameterError(problem[1])
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
    is expected to fail.  Returns [(report, expected_pass), ...], equal to
    what property_non_extinction, property_non_collapse and
    property_non_convergence give on their own.

    The three checks share one run of the config on its seed's stream.  Its
    head, steps 0 to n_steps - n_steps // 4, keeps the winners and the
    states every check_stride steps (if check_stride does not divide the
    head, a second short run finishes it).  Its tail, the last quarter,
    continues on the same stream and keeps every state and winner.  The
    non-collapse states are the head's plus the tail's at multiples of
    check_stride.  Every argument is checked before the run starts."""
    _check_starvation_input(config, window)
    n, stride = _run_length(n_steps, check_stride)
    problem = _late_window_problem(config, n)
    if problem:
        raise ParameterError(problem[1])

    tail = n // 4
    head_len = n - tail
    whole = head_len - head_len % stride
    rng = substream(config.seed)
    heads = [run_trajectory(config, whole, stride=stride, rng=rng,
                            record_winners=True)]
    if whole < head_len:
        rest = head_len - whole
        heads.append(_continue_run(heads[0], rest, rest, rng, record_winners=True))
    late = _continue_run(heads[-1], tail, 1, rng, record_winners=True)

    # the tail's first state is the head's last, so its states at multiples
    # of check_stride start after it.  Records and winner pieces are freed
    # before longest_starvation scans the joined winners: at 5e5 steps,
    # holding the pieces through the scan raised the traced peak from
    # 12.8 MB to 16.8 MB
    first = -head_len % stride or stride
    states = np.concatenate([heads[0].means, late.means[first::stride]])
    convergence = _convergence_report(config, n_steps, late.means)
    winners = [rec.winners for rec in heads] + [late.winners]
    del heads, late
    winners = np.concatenate(winners)
    extinction = _extinction_report(config, n_steps, window, winners)
    del winners
    out = [
        (extinction, True),
        (_collapse_report(config, n_steps, states), True),
        (convergence, True),
    ]
    if negative_control:
        control = replace(config, decay_rate=0.0)
        out.append((property_non_convergence(control, n_steps), False))
    return out


def suite_input_problem(config: ModelConfig, n_steps: int):
    """The (field, message) that the checks ``exdyn properties`` runs would
    raise ParameterError with for ``config`` and ``n_steps``, else None.
    Those checks are property_macqueen_cvt at decay_rate 0 and theorem_suite
    otherwise."""
    if config.decay_rate == 0:
        return _cvt_problem(n_steps)
    return _late_window_problem(config, n_steps)


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
    # grid row i holds the points (cx[i], cy[j]); whole rows, at most
    # _ASSIGN_CHUNK points, are classified at a time from one reused buffer
    rows = max(1, _ASSIGN_CHUNK // resolution)
    block = np.empty((min(rows, resolution), resolution, 2))
    block[:, :, 1] = cy
    labels = np.empty((resolution, resolution), dtype=np.intp)
    for start in range(0, resolution, rows):
        x = cx[start:start + rows]
        block[:len(x), :, 0] = x[:, None]
        labels[start:start + len(x)] = assign_cells(
            block[:len(x)].reshape(-1, 2), means).reshape(len(x), resolution)

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


def _survivor_horizon(n_steps, decay_rate, threshold) -> int:
    # how many of a run's last steps can absorb a point that still weighs
    # more than threshold at its end.  A point absorbed a steps before the
    # end weighs exp(-decay_rate a), so ages above log(1/threshold) /
    # decay_rate fall to the cut.  Ages 0 .. floor(reach) + 1 are kept: one
    # step beyond the last age that can pass, far more than rounding moves
    # it.  Counting more steps than needed costs only time, as the cut
    # itself still decides
    if threshold >= 1.0:
        return 0
    if decay_rate == 0 or threshold == 0:
        return n_steps
    reach = -math.log(threshold) / decay_rate
    if not reach < n_steps:  # also catches reach = inf for a tiny decay_rate
        return n_steps
    return min(int(reach) + 2, n_steps)


def figure1_snapshot(config: ModelConfig, n_steps: int,
                     prune_threshold: float = 0.01,
                     scatter_points: np.ndarray = None,
                     grid_resolution: int = 512) -> SnapshotResult:
    """Run a 2-D config and report what a scatter plot needs: every exemplar
    whose decayed weight still exceeds the cutoff, the category means, and
    the cell boundaries traced on a classification grid.

    ``scatter_points`` (k, count, 2) are the exemplars a scatter-initialized
    config starts from, each of weight 1.  Without them the initial mass of
    each category is a single lumped exemplar at its starting mean, which
    decays exactly like the individual points it stands for.

    Only the exemplars absorbed in the run's last steps can survive the
    cutoff, so only those are kept: the run's head goes unrecorded and
    without a cloud, and its tail continues on the same stream and feeds
    the cloud.  The tail counts its births from its own first step, so the
    initial exemplars are born at -(length of the head) and the cloud is
    read at the tail's length: every age, and so every weight and every
    row, equals that of one run feeding the cloud from step 0.
    """
    if config.domain.dim != 2:
        raise ParameterError("snapshots are defined for 2-D configs")
    if not prune_threshold >= 0:
        raise ParameterError("prune_threshold must be nonnegative")
    grid_resolution = _whole(grid_resolution, "grid_resolution must be a whole number")
    if grid_resolution < 2:
        raise ParameterError("grid_resolution must be at least 2")
    n_steps, _ = _run_length(n_steps, 1)
    tail = _survivor_horizon(n_steps, config.decay_rate, prune_threshold)
    head_len = n_steps - tail
    if scatter_points is None:
        points, weights = config.init_means[:, None, :], config.init_weights[:, None]
    else:
        points, weights = scatter_points, np.ones(scatter_points.shape[:2])
    cloud = ExemplarCloud(config.k, 2)
    for j in range(config.k):
        cloud.seed_category(j, points[j], weights[j], birth_step=-head_len)
    rng = substream(config.seed)
    head = run_trajectory(config, head_len, stride=max(1, head_len), rng=rng)
    rec = _continue_run(head, tail, max(1, tail), rng, cloud=cloud)
    kept = cloud.pruned(tail, config.decay_rate, prune_threshold)
    means = rec.means[-1]
    return SnapshotResult(
        step=n_steps,
        positions=np.concatenate([locs for locs, _ in kept]),
        weights=np.concatenate([w for _, w in kept]),
        categories=np.concatenate(
            [np.full(locs.shape[0], j, dtype=np.int64) for j, (locs, _) in enumerate(kept)]),
        means=means,
        category_weights=rec.weights[-1],
        boundary_segments=_grid_boundary_segments(means, config.domain, grid_resolution),
        prune_threshold=float(prune_threshold),
    )
