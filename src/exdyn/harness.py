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
winners, records every step, and decays the weights at all) and compiled
once per shape.  The generated loop keeps every mean coordinate and weight
in a local variable, which runs 3.5 to 8 times as many steps per second as
one loop over indexed lists for every shape; numba and Cython, which could
compile such a loop from one source, are not dependencies.  Ensembles of
runs of any shape (k, dim) go through one lockstep engine, which advances
every replica one step per round of numpy calls over the replica axis.
Both repeat model._advance's arithmetic operation for operation.  The
step-reference tests in tests/test_harness.py prove it for single runs:
across k, dim, boxes, decay rates, runs with a cloud and exact ties, every
recorded state equals iterating model.step on the same draws.  The replay
tests prove it for the lockstep engine: every row of an ensemble equals
run_trajectory on that row's stream.

_trajectory_blocks draws in chunks of _CHUNK uniform points, mapped onto
the box by Domain.uniform_points, and hands each chunk to the loop as one
flat list of Python floats, with no list per point.  The loop collects the
states it records, and the winners, in Python lists, so recording every
step costs list appends rather than numpy item stores; each chunk's states
are yielded as one array, after the chunk's lists are released.
run_trajectory stores them into the record with one slice assignment per
array, and the trajectory CSV writer (rowtext.csv_rows) turns them into
bytes as they come, so it never holds the record.

_trajectory_blocks is the one way to start or continue a single run: it
starts from a flat state (*means.ravel(), *weights), by default the
config's initial one.  Started from a run's last state on the generator
that made it, it continues that run, and the continued states equal those
of one uninterrupted run.
theorem_suite uses this to run its config once, without building a record:
it reads the blocks of the run's head, every check_stride-th state, and of
its last quarter, continued at stride 1, as they come.  A tracker keeps
each category's last winning step and the longest gap, so no winner is
stored; the late window keeps the last quarter's means, 4 B per step of the
run, and counts their moves per chunk.  The non-extinction, non-collapse
and non-convergence reports are built by the same readers and report code
as the standalone checks, which each run the trajectory themselves.
figure1_snapshot reads its run the same way, in a head without an
exemplar cloud and a tail as long as the survivor horizon, the age past
which an absorbed point weighs no more than the cutoff.  Only the tail
feeds the cloud, so the cloud grows with that horizon, not with n_steps.
Its cell boundaries are traced on a grid classified a few rows at a time,
keeping only where the labels change, so no grid-sized array is held.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .ar1 import _is_unit_pair, variance_of_Y
from .errors import DomainError, ParameterError
from .geometry import (_ASSIGN_CHUNK, _check_input, assign_cells, centroidal_deviation,
                       min_cell_volume)
from .model import (
    Domain,
    ExemplarCloud,
    ModelConfig,
    _seed,
    _whole,
    limit_total_weight,
)
from .rng import GEOMETRY_STREAM, substream

# draws per block; the engines hold each block as Python floats
_CHUNK = 1 << 12
# lockstep steps buffered, 2 KB per replica and dim; a call's ~245 draws hide its 0.4 us
_ENSEMBLE_CHUNK = 256
# replicas whose draws the lockstep engine stores into its buffer at once
_DRAW_TILE = 128

MOVEMENT_EPSILON = 1e-4
_FRACTION_FLOOR = 0.5
_COLLAPSE_SAMPLES = 4096
_CVT_SAMPLES = 1 << 18
# rows of squared deviations _column_variance makes at a time
_VAR_SLICE = 1 << 12


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
def _step_loop(k, dim, record_winners, every_step, decays):
    """Compile the step loop of one run shape from generated source.

    loop(zs, t, stride, decay, state, recs, wins) runs the points whose
    coordinates zs lists flat, dim floats each, from ``state``, the flat
    tuple (*means.ravel(), *weights), t steps into the run.  It extends
    recs by the state at every stride-th step, appends each winner to wins
    if record_winners, and returns the new state.
    Mean j's coordinate c is the local m{j}_{c} and its weight w{j}.  The
    arithmetic is _advance's: squared distances summed over the coordinates
    in order, a running minimum with strict < so ties go to the lower
    index, every weight decayed, and the winner absorbing the point.
    Dropping _advance's 0.0 + before the first e * e is exact, as e * e is
    never -0.0, and so is dropping the decay when ``decays`` is false: the
    decay factor is then 1.0 (decay_rate 0, or up to about 5.6e-17), and
    x * 1.0 == x for every float x.
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
                + [f"w{j} = v"] + [f"add_win({j})"] * record_winners)

    def dispatch(lo, hi):
        # a balanced tree of tests on i: log2(k) tests per step, nested as deep
        if hi - lo == 1:
            return absorb(lo)
        mid = (lo + hi) // 2
        return [f"if i < {mid}:", *indent(dispatch(lo, mid)),
                "else:", *indent(dispatch(mid, hi))]

    body = []
    if k == 2:
        body += distance(0, "d0") + distance(1, "d1")
    elif k > 2:
        body += distance(0, "best") + ["i = 0"]
        for j in range(1, k):
            body += distance(j, "d") + ["if d < best:", f"    i = {j}", "    best = d"]
    body += [f"w{j} *= decay" for j in cats if decays]
    if k == 2:
        body += ["if d1 < d0:", *indent(absorb(1)), "else:", *indent(absorb(0))]
    else:
        body += dispatch(0, k)
    record = [f"add_rec(({state}))"]
    if not every_step:
        record = ["left -= 1", "if not left:", "    left = stride", *indent(record)]

    lines = ["def loop(zs, t, stride, decay, state, recs, wins):",
             f"    {state} = state",
             "    add_rec, add_win = recs.extend, wins.append",
             "    left = stride - t % stride",
             *[f"    zs = zip(*[iter(zs)] * {dim})"] * (dim > 1),
             f"    for {z} in zs:", *indent(indent(body + record)),
             f"    return {state}"]
    namespace = {}
    exec("\n".join(lines), namespace)
    return namespace["loop"]


def _run_length(n_steps, stride):
    # run_trajectory's argument checks, in its order
    n_steps = _whole(n_steps, "n_steps must be a whole number")
    stride = _whole(stride, "stride must be a whole number")
    if n_steps < 0:
        raise ParameterError("n_steps must be nonnegative")
    if stride < 1:
        raise ParameterError("stride must be a positive integer")
    return n_steps, stride


def _trajectory_blocks(config: ModelConfig, n_steps: int, stride: int, rng=None,
                       record_winners: bool = False, cloud: ExemplarCloud = None,
                       start=None):
    """Run the dynamics, yielding (states, winners) once per chunk of draws.

    n_steps and stride are as _run_length returns them.  The run starts
    from ``start``, a flat state (*means.ravel(), *weights), by default the
    config's initial state; a state the dynamics reach may hold a weight
    that decayed to 0.0, which ModelConfig refuses as an initial weight.
    states is a (rows, k dim + k) float array of the flat states recorded
    in the chunk; winners is the chunk's array of winning categories,
    empty unless record_winners or a cloud is given, as uint8 up to k =
    256.  The first yield is the starting state with no winners.  A chunk
    records no state when the stride is longer than the chunk and no
    multiple of it falls there.  rng and cloud are run_trajectory's: each
    chunk's draws go to the cloud after the loop has run them, in draw
    order, the point absorbed by this run's t-th step born at step t.
    """
    if rng is None:
        rng = substream(config.seed)
    k, dim = config.init_means.shape  # plain ints, as they go into source
    decay = math.exp(-config.decay_rate)
    loop = _step_loop(k, dim, record_winners or cloud is not None, stride == 1,
                      decay != 1.0)
    if start is None:
        start = np.append(config.init_means, config.init_weights)
    state = tuple(start.tolist())
    yield np.array([state]), np.array([], np.uint8)

    t = 0
    while t < n_steps:
        m = min(_CHUNK, n_steps - t)
        zs = config.domain.uniform_points(rng, m)
        recs, wins, zs = [], [], zs.ravel().tolist()
        state = loop(zs, t, stride, decay, state, recs, wins)
        if cloud is not None:
            for birth, (j, z) in enumerate(zip(wins, zip(*[iter(zs)] * dim)), t + 1):
                cloud.add(j, z, birth)
        states = np.fromiter(recs, float, len(recs)).reshape(-1, len(state))
        # bytes() packs small ints about 3x as fast as numpy converts a list
        winners = (np.frombuffer(bytes(wins), np.uint8) if k <= 256
                   else np.array(wins, np.intp))
        # the consumer formats this chunk while the frame is suspended, and
        # the next chunk runs after that: hold neither this chunk's lists
        # through either, nor its arrays through the next
        del recs, wins, zs
        yield states, winners
        del states, winners
        t += m


def run_trajectory(config: ModelConfig, n_steps: int, stride: int = 1,
                   rng=None, record_winners: bool = False,
                   cloud: ExemplarCloud = None) -> TrajectoryRecord:
    """Run the dynamics for n_steps, recording every stride-th state.

    The record always contains the initial state.  With the default rng the
    run is a pure function of config (draws come from the config seed's main
    stream); pass an explicit generator to replay e.g. one ensemble replica.
    If ``cloud`` is given, every absorbed point is appended to it, the point
    absorbed by the t-th step born at step t.
    """
    n_steps, stride = _run_length(n_steps, stride)
    k, dim = config.init_means.shape
    n_rec = n_steps // stride + 1
    rec_means = np.empty((n_rec, k, dim))
    rec_weights = np.empty((n_rec, k))
    # a winner is a category index below k: one byte per step up to k = 256
    winners = (np.empty(n_steps, dtype=np.min_scalar_type(k - 1))
               if record_winners else None)

    r = t = 0  # where the next recorded state and winner go
    for block, wins in _trajectory_blocks(config, n_steps, stride, rng, record_winners,
                                          cloud):
        rec_means.reshape(n_rec, -1)[r:r + len(block)] = block[:, :k * dim]
        rec_weights[r:r + len(block)] = block[:, k * dim:]
        r += len(block)
        if record_winners:
            winners[t:t + len(wins)] = wins
            t += len(wins)

    return TrajectoryRecord(config=config, stride=stride, means=rec_means,
                            weights=rec_weights, winners=winners)


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
    # such a rate decays nothing, and 400 / decay_rate may overflow to inf
    if math.exp(-decay_rate) == 1.0:
        raise ParameterError(f"equilibrium horizon requires exp(-decay_rate) < 1, "
                             f"got decay_rate {decay_rate}")
    return math.ceil(400.0 / decay_rate)


def replica_stream(master_seed, index, r):
    """The generator driving replica ``r`` of ensemble grid point ``index``."""
    return substream(master_seed, index, r)


def _lockstep_states(means, weights, decay_rate, domain, gens, targets):
    """States of R >= 1 independent uniform-draw runs advanced in lockstep.

    Run r starts from means[r] (k, dim) and weights[r] (k,), or from the
    shared means and weights if they have no replica axis, and draws from
    gens[r] exactly as run_trajectory draws on ``domain``.  Returns {n:
    (means (R, k, dim), weights (R, k))} for every n in ``targets``.

    Each step repeats model._advance's arithmetic on all runs at once:
    squared distances summed over the coordinates in order, a running
    minimum with strict < so ties go to the lower index, every weight
    decayed (skipped for a decay factor of 1.0, as x * 1.0 == x), and the
    winner's coordinates and weight gathered through flat indices, updated
    and scattered back.  Every buffer is allocated once; the draws of each
    chunk are mapped onto the box in place.

    The draws come in chunks of steps, stored step-major in a (chunk, dim,
    R) buffer where one replica's draws lie R * 8 bytes apart.  So that no
    generator writes there value by value, _DRAW_TILE replicas at a time
    each fill a contiguous row of a (tile, chunk, dim) tile, which is
    stored with one transposing assignment.  Every replica still draws its
    values in order, so no state depends on the tile.  The chunk is sized
    so that the buffer and the tile together hold at most _ENSEMBLE_CHUNK *
    dim * 8 bytes per replica (2 KB in 1-D), whatever the number of steps.
    """
    R = len(gens)
    k, dim = np.shape(means)[-2:]
    decay = math.exp(-decay_rate)
    decays = decay != 1.0
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
    tile = min(_DRAW_TILE, R)
    chunk = min(_ENSEMBLE_CHUNK * R // (R + tile), n_max)
    buf = np.empty((chunk, dim, R))
    rows = np.empty((tile, chunk, dim))
    zs = buf[:, :, None, :]
    t = 0
    while t < n_max:
        m = min(chunk, n_max - t)
        tops = list(rows[:, :m])
        for r0 in range(0, R, tile):
            block = gens[r0:r0 + tile]
            for row, g in zip(tops, block):
                g.random(out=row)
            n = len(block)
            buf[:m, :, r0:r0 + n] = rows[:n, :m].transpose(1, 2, 0)
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
            if decays:
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
    if not 0 < decay_rate < math.inf:
        raise ParameterError("boundary ensembles require a finite decay_rate > 0")
    replicas = _whole(replicas, "replica count must be a whole number")
    if replicas < 1:
        raise ParameterError("need at least one replica")
    targets = sorted({_whole(n, "step targets must be whole numbers") for n in n_targets})
    if targets and targets[0] < 0:
        raise ParameterError("step targets must be nonnegative")
    master_seed = _seed(master_seed, "master_seed")
    if _whole(index, "index must be a whole number") < 0:
        raise ParameterError("index must be nonnegative")
    half_w = limit_total_weight(decay_rate) / 2.0  # checked before any stream is made
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
    if not all(0 < lam < math.inf for lam in grid):
        raise ParameterError("boundary ensembles require a finite decay_rate > 0")
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
    master_seed = _seed(master_seed, "master_seed")
    # every grid point's horizons and starting weight are checked before any runs
    effs = [{n: (equilibrium_steps(lam) if n == math.inf else n) for n in horizons}
            for lam in grid]
    for lam in grid:
        limit_total_weight(lam)

    estimates = []
    for i, (lam, eff) in enumerate(zip(grid, effs)):
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


class _StarvationTracker:
    """The longest run of post-burn-in steps that leaves some category
    without a win, fed the winners of consecutive steps chunk by chunk.

    Steps count from 1: the i-th winner fed is that of step i.  The tracker
    keeps, per category, the step of its last win after burn-in (burn_in
    itself before the first one), and the longest gap between such wins, so
    it holds k + 1 integers whatever the run's length.
    """

    def __init__(self, k, burn_in):
        self.burn_in = burn_in
        self.last = [burn_in] * k
        self.longest = 0
        self.steps = 0

    def feed(self, winners):
        """Take the winners, a 1-D integer array, of the next len(winners) steps."""
        t = self.steps
        self.steps += len(winners)
        skip = max(self.burn_in - t, 0)
        if skip >= len(winners):
            return
        after = winners[skip:]
        for j, last in enumerate(self.last):
            won = np.flatnonzero(after == j)
            if won.size:
                won += t + skip + 1
                self.longest = max(self.longest, int(np.diff(won, prepend=last).max()) - 1)
                self.last[j] = int(won[-1])

    def result(self) -> int:
        """The longest starvation over the steps fed so far."""
        # a category's last gap runs from its last win to the last step
        return max([self.longest, *(self.steps - last for last in self.last)])


def longest_starvation(winners, k: int, burn_in: int = 0) -> int:
    """Longest run of consecutive post-burn-in steps leaving some category
    without a single win.  winners[t] is the winner of update t+1."""
    k = _whole(k, "k must be a whole number")
    if k < 1:
        raise ParameterError("k must be at least 1")
    if not burn_in >= 0:
        raise ParameterError("burn_in must be nonnegative")
    burn_in = _whole(burn_in, "burn_in must be a whole number")
    # the tracker counts only the values 0..k-1: any other winner would be
    # taken for a step that no category won
    w = np.asarray(winners)
    if w.ndim != 1 or w.dtype.kind not in "iuf" or not np.all(
            (w >= 0) & (w < k) & (w == np.floor(w))):
        raise ParameterError(f"winners must be a 1-D array of whole numbers in [0, {k})")
    gaps = _StarvationTracker(k, burn_in)
    gaps.feed(w)
    return gaps.result()


def _extinction_tracker(config, window):
    # checks the non-extinction input, and returns the tracker of its
    # burn-in of 10 ceil(1 / decay_rate) steps
    if config.decay_rate <= 0:
        raise ParameterError("non-extinction check requires decay_rate > 0")
    # such a rate decays nothing: the burn-in would pass the run, or
    # overflow below about 5.6e-309
    if math.exp(-config.decay_rate) == 1.0:
        raise ParameterError(f"non-extinction check requires exp(-decay_rate) < 1, "
                             f"got decay_rate {config.decay_rate}")
    if not window >= 1:
        raise ParameterError("window must be positive")
    _whole(window, "window must be a whole number")
    return _StarvationTracker(config.k, 10 * math.ceil(1.0 / config.decay_rate))


def _extinction_report(config, n_steps, window, gaps) -> PropertyReport:
    worst = gaps.result()
    return PropertyReport(
        name="non-extinction",
        passed=worst < window,
        stats={"max_starvation": float(worst), "burn_in": float(gaps.burn_in),
               "n_steps": float(n_steps)},
        thresholds={"window": float(window)},
        seed=config.seed,
    )


def property_non_extinction(config: ModelConfig, n_steps: int,
                            window: int = 10_000) -> PropertyReport:
    """Pass iff every category keeps winning: after a burn-in of
    10*ceil(1/decay_rate) steps, no stretch of ``window`` consecutive steps
    leaves any category empty-handed."""
    gaps = _extinction_tracker(config, window)
    n, _ = _run_length(n_steps, 1)
    for _, winners in _trajectory_blocks(config, n, max(1, n), record_winners=True):
        gaps.feed(winners)
    return _extinction_report(config, n_steps, window, gaps)


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
    if volume_floor is not None and not 0 <= volume_floor < math.inf:
        raise ParameterError("volume_floor must be finite and nonnegative")
    # the config's means are finite and distinct, so this checks n_samples
    _check_input(config.init_means, n_samples)
    rec = run_trajectory(config, n_steps, stride=check_stride)
    return _collapse_report(config, n_steps, rec.means, n_samples, volume_floor)


def variance_floor(decay_rate: float) -> float:
    """Late-window variance each mean must beat: a tenth of the stationary
    boundary variance, extended by continuity to 0 at decay_rate = 0."""
    if decay_rate == 0:
        return 0.0
    return 0.1 * variance_of_Y(decay_rate, math.inf)


def _late_window_problem(config, n_steps):
    # (field, message) if property_non_convergence cannot run; every model
    # draws uniformly, so with k = 2 the domain is at fault
    if not _is_unit_pair(config):
        return ("k" if config.k != 2 else "domain",
                "this check is calibrated to the 2-category uniform model on [0, 1]")
    if config.decay_rate and math.exp(-config.decay_rate) == 1.0:
        # variance_floor's closed form needs exp(-decay_rate) < 1
        return "lambda", "decay_rate must be 0 or have exp(-decay_rate) < 1"
    if n_steps < 8:
        return "n_steps", "n_steps too small for a late-window estimate"


def _cvt_problem(n_steps):
    # (field, message) if property_macqueen_cvt cannot run
    if n_steps < 10 or n_steps % 10:
        return "n_steps", "n_steps must be a positive multiple of 10"


class _LateWindow:
    """The unit pair's means over a run's last steps, fed chunk by chunk.

    np.var rounds in two passes, so it cannot be streamed bit for bit: the
    window holds its states' means, (tail + 1, k) floats, for one
    _column_variance call.
    The steps that moved each mean by more than MOVEMENT_EPSILON are counted
    per chunk as exact integers, each chunk from the last state before it.
    """

    def __init__(self, tail, k):
        self.means = np.empty((tail + 1, k))
        self.moves = np.zeros(k, dtype=np.int64)
        self.rows = 0

    def feed(self, states):
        """Take the next stride-1 states, flat as _trajectory_blocks yields them."""
        r = self.rows
        self.rows += len(states)
        # in 1-D the means are a state's first k values
        self.means[r:self.rows] = states[:, :self.means.shape[1]]
        steps = np.diff(self.means[max(r - 1, 0):self.rows], axis=0)
        self.moves += (np.abs(steps) > MOVEMENT_EPSILON).sum(axis=0)


def _column_variance(a) -> np.ndarray:
    """a.var(axis=0) of a C-contiguous (n, k) float array, k >= 2, bit for
    bit, without the (n, k) temporary of deviations np.var makes.

    np.var takes the mean as np.add.reduce(a, axis=0) / n, then adds the
    squared deviations with an axis-0 reduce.  With k >= 2 columns numpy
    adds such a reduce row after row, so the squares can be made
    _VAR_SLICE rows at a time into one buffer whose row 0 carries the
    running total, and each slice reduced together with it.  (A single
    column would be summed pairwise, in another order.)
    """
    n = len(a)
    mean = np.add.reduce(a, axis=0) / n
    buf = np.zeros((min(n, _VAR_SLICE) + 1, a.shape[1]))
    for start in range(0, n, _VAR_SLICE):
        rows = a[start:start + _VAR_SLICE]
        sq = buf[1:1 + len(rows)]
        np.subtract(rows, mean, out=sq)
        np.multiply(sq, sq, out=sq)
        buf[0] = np.add.reduce(buf[:1 + len(rows)], axis=0)
    return buf[0] / n


def _convergence_report(config, n_steps, late) -> PropertyReport:
    # late: the _LateWindow of the last n_steps // 4 steps
    late_var = _column_variance(late.means)
    move_freq = late.moves / (len(late.means) - 1)
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
    n, _ = _run_length(n_steps, 1)
    tail = n // 4
    rng = substream(config.seed)
    for states, _ in _trajectory_blocks(config, n - tail, n - tail, rng):
        pass
    late = _LateWindow(tail, config.k)
    for states, _ in _trajectory_blocks(config, tail, 1, rng, start=states[-1]):
        late.feed(states)
    return _convergence_report(config, n_steps, late)


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

    The three checks share one run of the config on its seed's stream, read
    chunk by chunk as _trajectory_blocks yields it: every winner goes to the
    non-extinction check's tracker and is dropped.  The run's head, steps 0
    to n_steps - n_steps // 4, yields the states every check_stride steps
    (if check_stride does not divide the head, a second short run finishes
    it).  Its tail, the last quarter, continues on the same stream at stride
    1, and only its means are kept.  The non-collapse states are the head's
    plus the tail's at multiples of check_stride.  Every argument is checked
    before the run starts."""
    gaps = _extinction_tracker(config, window)
    n, stride = _run_length(n_steps, check_stride)
    problem = _late_window_problem(config, n)
    if problem:
        raise ParameterError(problem[1])

    tail = n // 4
    head_len = n - tail
    whole = head_len - head_len % stride
    rng = substream(config.seed)
    checked = []  # the means of the head's states, in 1-D its first k values
    for states, winners in _trajectory_blocks(config, whole, stride, rng,
                                              record_winners=True):
        checked.append(states[:, :config.k])
        gaps.feed(winners)
    if whole < head_len:
        rest = head_len - whole
        for states, winners in _trajectory_blocks(config, rest, rest, rng,
                                                  record_winners=True, start=states[-1]):
            gaps.feed(winners)
    late = _LateWindow(tail, config.k)
    for states, winners in _trajectory_blocks(config, tail, 1, rng, record_winners=True,
                                              start=states[-1]):
        late.feed(states)
        gaps.feed(winners)

    # the tail's first state is the head's last, so its states at multiples
    # of check_stride start after it
    first = -head_len % stride or stride
    checked.append(late.means[first::stride])
    out = [
        (_extinction_report(config, n_steps, window, gaps), True),
        (_collapse_report(config, n_steps, np.concatenate(checked)[:, :, None]), True),
        (_convergence_report(config, n_steps, late), True),
    ]
    del late, checked  # the control's own window is as large
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
    # _ASSIGN_CHUNK points, are classified at a time from one reused buffer.
    # Only the (i, j) of label changes are kept, between rows i and i + 1
    # (across) and between j and j + 1 within row i (along), in row-major
    # order; the last label row of the block before is kept for the pair
    # that spans the block edge, so the label grid is never held whole
    rows = max(1, _ASSIGN_CHUNK // resolution)
    block = np.empty((min(rows, resolution), resolution, 2))
    block[:, :, 1] = cy
    across, along = [], []
    for start in range(0, resolution, rows):
        x = cx[start:start + rows]
        block[:len(x), :, 0] = x[:, None]
        labels = assign_cells(block[:len(x)].reshape(-1, 2), means).reshape(len(x), resolution)
        if start:
            across.append(_label_changes(last, labels[:1], start - 1))
        across.append(_label_changes(labels[:-1], labels[1:], start))
        along.append(_label_changes(labels[:, :-1], labels[:, 1:], start))
        last = labels[-1:].copy()

    pieces = []
    ii, jj = map(np.concatenate, zip(*across))
    if ii.size:
        x = lo[0] + (ii + 1.0) * dx
        y0 = lo[1] + jj * dy
        pieces.append(np.stack([np.stack([x, y0], axis=1),
                                np.stack([x, y0 + dy], axis=1)], axis=1))
    ii, jj = map(np.concatenate, zip(*along))
    if ii.size:
        y = lo[1] + (jj + 1.0) * dy
        x0 = lo[0] + ii * dx
        pieces.append(np.stack([np.stack([x0, y], axis=1),
                                np.stack([x0 + dx, y], axis=1)], axis=1))
    if not pieces:
        return np.zeros((0, 2, 2))
    return np.concatenate(pieces)


def _label_changes(a, b, first_row):
    # (i, j) where a[i, j] != b[i, j], with i counted from first_row
    ii, jj = np.nonzero(a != b)
    return ii + first_row, jj


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
    config starts from, each of weight 1; they must be finite and inside
    the domain.  Without them the initial mass of each category is a single
    lumped exemplar at its starting mean, which decays exactly like the
    individual points it stands for.

    Only the exemplars absorbed in the run's last steps can survive the
    cutoff, so only those are kept: the run's head goes unrecorded and
    without a cloud, and its tail continues from the head's last state on
    the same stream and feeds the cloud.  The means and weights are the
    tail's last state.  The tail counts its births from its own first step,
    so the initial exemplars are born at -(length of the head) and the
    cloud is read at the tail's length: every age, and so every weight and
    every row, equals that of one run feeding the cloud from step 0.
    """
    if config.domain.dim != 2:
        raise ParameterError("snapshots are defined for 2-D configs")
    if not prune_threshold >= 0:
        raise ParameterError("prune_threshold must be nonnegative")
    grid_resolution = _whole(grid_resolution, "grid_resolution must be a whole number")
    if grid_resolution < 2:
        raise ParameterError("grid_resolution must be at least 2")
    n_steps, _ = _run_length(n_steps, 1)
    k = config.k
    if scatter_points is not None:
        if np.ndim(scatter_points) != 3 or np.shape(scatter_points)[::2] != (k, 2):
            raise ParameterError(f"scatter_points must have shape ({k}, count, 2)")
        if not np.isfinite(scatter_points).all():
            raise ParameterError("scatter_points must be finite")
        if not config.domain.contains(scatter_points):
            raise DomainError("scatter_points must lie inside the domain")
    tail = _survivor_horizon(n_steps, config.decay_rate, prune_threshold)
    head_len = n_steps - tail
    if scatter_points is None:
        points, weights = config.init_means[:, None, :], config.init_weights[:, None]
    else:
        points, weights = scatter_points, np.ones(scatter_points.shape[:2])
    cloud = ExemplarCloud(k, 2)
    for j in range(k):
        cloud.seed_category(j, points[j], weights[j], birth_step=-head_len)
    rng = substream(config.seed)
    for head, _ in _trajectory_blocks(config, head_len, max(1, head_len), rng):
        pass
    for states, _ in _trajectory_blocks(config, tail, max(1, tail), rng, cloud=cloud,
                                        start=head[-1]):
        pass
    kept = cloud.pruned(tail, config.decay_rate, prune_threshold)
    means = states[-1, :2 * k].reshape(k, 2)
    return SnapshotResult(
        step=n_steps,
        positions=np.concatenate([locs for locs, _ in kept]),
        weights=np.concatenate([w for _, w in kept]),
        categories=np.concatenate(
            [np.full(locs.shape[0], j, dtype=np.int64) for j, (locs, _) in enumerate(kept)]),
        means=means,
        category_weights=states[-1, 2 * k:],
        boundary_segments=_grid_boundary_segments(means, config.domain, grid_resolution),
        prune_threshold=float(prune_threshold),
    )
