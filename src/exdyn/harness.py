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
whose source is generated for the run's shape and compiled once per shape.
The shape is k, dim, whether the loop keeps winners, whether it decays the
weights at all, and what it records after each step: the state, its means
alone, or nothing.  A stretch looks its loop up once, and a shape is
compiled when a stretch first needs it.  Above stride 1 the loop records
nothing and runs to each record point, whose record is the state it
returns.  The generated loop keeps every mean coordinate and weight in a
local variable, which runs 3.5 to 8 times as many steps per second as one
loop over indexed lists for every shape; numba and Cython, which could
compile such a loop from one source, are not dependencies.  Up to _TREE_K
categories it picks the winner by the running minimum's decision tree,
unrolled.  Each loop is compiled under a file name that names its shape,
with its source in linecache, so profiles and tracebacks show it.
Ensembles of runs of any shape (k, dim) go through one lockstep engine,
which advances every replica one step per round of numpy calls over the
replica axis.
Both repeat model._advance's arithmetic operation for operation.  The
step-reference tests in tests/test_harness.py prove it for single runs:
across k, dim, boxes, decay rates, runs with a cloud and exact ties, every
recorded state equals iterating model.step on the same draws.  The replay
tests prove it for the lockstep engine: every row of an ensemble equals
run_trajectory on that row's stream.

A single run is a _Run: its generator, its flat state (*means.ravel(),
*weights) and the step it has reached.  _Run.blocks advances it a stretch
at a time, drawing in chunks of _CHUNK uniform points, mapped onto the box
by Domain.uniform_points, and handing each chunk to the loop as one flat
list of Python floats, with no list per point.  The loop collects the
states it records, and the winners, in Python lists, so recording every
step costs list appends rather than numpy item stores; each chunk's states
are yielded as one array, after the chunk's lists are released.
run_trajectory stores them into the record with one slice assignment per
array, and the trajectory CSV writer (rowtext.csv_rows) turns them into
bytes as they come, so it never holds the record.

Records fall at the multiples of a stretch's stride counted from the run's
start, and a stretch without a stride records nothing, so the readers that
need a run's head and tail read them as two stretches of one run.  A reader
that needs no weights records the means alone.  theorem_suite runs its
config once, without building a record: it reads the means of the head's
every check_stride-th state and of the last quarter's every state, as they
come.  A tracker keeps each category's last winning step and the longest
gap, so no winner is stored; the late window holds 4 B per step of the run.
Its zero-decay control, on the same stream, runs the head's draws as the
run draws them, then its own last quarter.  The reports come from the same
code as the standalone checks, which each run their own trajectory.
figure1_snapshot runs a head without an exemplar cloud and a tail as long
as the survivor horizon, the age past which an absorbed point weighs no
more than the cutoff.  Only the tail feeds the cloud, so the cloud grows
with that horizon, not with n_steps.
Its cell boundaries are traced on a grid labelled a few rows at a time,
keeping only where the labels change, so no grid-sized array is held.  A
grid centre's squared distance to a mean is a row square plus a column
square, both computed once per category, so a block's distances take one
broadcast add per category; the running minimum is geometry's, so every
label, ties included, is the one assign_cells gives.
"""

from __future__ import annotations

import functools
import linecache
import math
from dataclasses import dataclass, replace

import numpy as np

from .ar1 import _is_unit_pair, variance_of_Y
from .errors import DomainError, ParameterError
from .geometry import (_ASSIGN_CHUNK, _check_input, _finite_means, _nearest,
                       centroidal_deviation, min_cell_volume)
from .model import (
    Domain,
    ExemplarCloud,
    ModelConfig,
    _count,
    _decay_factor,
    _real,
    _seed,
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


# categories up to which the step loop picks each winner by a decision tree
# of 2^(k-1) leaves rather than a running minimum.  The tree saves about 8 %
# of a step, and its compile time doubles with each k: up to k = 6 it pays
# that back within 22 000 steps, at k = 7 within 29 000 to 59 000, and at
# k = 8 only after 80 000 or more (BENCH_24.json)
_TREE_K = 6


@functools.lru_cache(maxsize=64)
def _step_loop(k, dim, record_winners, records, decays):
    """Compile the step loop of one run shape from generated source.

    loop(zs, decay, state, recs, wins) runs the points whose coordinates zs
    lists flat, dim floats each, from ``state``, the flat tuple
    (*means.ravel(), *weights).  It appends each winner to wins if
    record_winners, and returns the new state.  ``records`` says what it
    appends to recs after each step, one recs.append per value: the whole
    state ("states"), the state's k dim means ("means"), or nothing
    ("none").  The appends name the lists, not prebound methods, as
    CPython specialises a list's append only when called that way.
    Mean j's coordinate c is the local m{j}_{c} and its weight w{j}.  The
    arithmetic is _advance's: squared distances summed over the coordinates
    in order, a running minimum with strict < so ties go to the lower
    index, every weight decayed, and the winner absorbing the point.
    Up to _TREE_K categories the running minimum is unrolled into its
    decision tree: node (j, lead) tests d{j} < d{lead}, lead being the
    running minimum's index before step j, and each leaf absorbs into its
    lead.  The tests are the running minimum's on the same values, so the
    winner is the same for ties and NaN too.  At k = 2 the tree's one test
    writes both squared distances as expressions of the differences
    e{j}_{c}, each the same products summed in the same order, with no
    local to store them in.  Above _TREE_K the tree's 2^(k-1) leaves take
    longer to compile than a run of a few chunks saves, so the loop keeps
    the running minimum and dispatches on its index.
    Dropping _advance's 0.0 + before the first e * e is exact, as e * e is
    never -0.0, and so is dropping the decay when ``decays`` is false: the
    decay factor is then 1.0 (decay_rate 0, or up to about 5.6e-17), and
    x * 1.0 == x for every float x.
    """
    cats, coords = range(k), range(dim)
    z = ", ".join(f"z_{c}" for c in coords)
    means = [f"m{j}_{c}" for j in cats for c in coords]
    state = ", ".join(means + [f"w{j}" for j in cats]) + ","

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
                + [f"w{j} = v"] + [f"wins.append({j})"] * record_winners)

    def tree(j, lead):
        # the running minimum from category j on, lead holding it so far
        if j == k:
            return absorb(lead)
        return [f"if {dist[j]} < {dist[lead]}:", *indent(tree(j + 1, j)),
                "else:", *indent(tree(j + 1, lead))]

    def dispatch(lo, hi):
        # a balanced tree of tests on i: log2(k) tests per step, nested as deep
        if hi - lo == 1:
            return absorb(lo)
        mid = (lo + hi) // 2
        return [f"if i < {mid}:", *indent(dispatch(lo, mid)),
                "else:", *indent(dispatch(mid, hi))]

    decay_all = [f"w{j} *= decay" for j in cats if decays]
    if k == 2 <= _TREE_K:
        # the tree's one test holds both squared distances as expressions
        body = [f"e{j}_{c} = m{j}_{c} - z_{c}" for j in cats for c in coords]
        dist = [" + ".join(f"e{j}_{c} * e{j}_{c}" for c in coords) for j in cats]
    elif k <= _TREE_K:
        # k = 1 needs no distance
        body = [line for j in cats if k > 1 for line in distance(j, f"d{j}")]
        dist = [f"d{j}" for j in cats]
    else:
        body = distance(0, "best") + ["i = 0"]
        for j in range(1, k):
            body += distance(j, "d") + ["if d < best:", f"    i = {j}", "    best = d"]
    body += decay_all + (tree(1, 0) if k <= _TREE_K else dispatch(0, k))
    preamble = [f"{state} = state"]
    if records != "none":
        rec = means + [f"w{j}" for j in cats] * (records == "states")
        body += [f"recs.append({x})" for x in rec]
    if dim > 1:
        preamble += [f"zs = zip(*[iter(zs)] * {dim})"]

    source = "\n".join(["def loop(zs, decay, state, recs, wins):",
                        *indent(preamble),
                        f"    for {z} in zs:", *indent(indent(body)),
                        f"    return {state}", ""])
    # a file name that names the shape, with the source in linecache, so
    # profiles, tracebacks and inspect.getsource show the generated code
    name = (f"<exdyn loop k={k} dim={dim} records={records}"
            f"{' winners' * record_winners}{' decays' * decays}>")
    linecache.cache[name] = (len(source), None, source.splitlines(True), name)
    namespace = {}
    exec(compile(source, name, "exec"), namespace)
    return namespace["loop"]


def _run_length(n_steps, stride):
    # run_trajectory's argument checks, in its order
    return _count(n_steps, "n_steps"), _count(stride, "stride", 1)


class _Run:
    """One run of a config on its generator, advanced a stretch at a time.

    It holds the generator (by default the config seed's stream), the flat
    state (*means.ravel(), *weights), starting at the config's initial
    state, and t, the step reached.  A stretch continues from where the last
    one stopped, so a run read in stretches has the states of one run read
    whole.
    """

    def __init__(self, config: ModelConfig, rng=None):
        self.config = config
        self.rng = substream(config.seed) if rng is None else rng
        self.state = tuple(np.append(config.init_means, config.init_weights).tolist())
        self.t = 0

    def _draws(self):
        # where the run stands on its draws: its step, its stream's state and box
        box = self.config.domain
        return repr((self.t, self.rng.bit_generator.state,
                     box.lower.tolist(), box.upper.tolist()))

    def blocks(self, n_steps: int, stride: int = None, record_winners: bool = False,
               cloud: ExemplarCloud = None, means_only: bool = False, follower=None):
        """Advance the run n_steps steps, yielding (states, winners) per chunk.

        n_steps and stride are as _run_length returns them.  states is a
        (rows, k dim + k) float array of the flat states, or with
        means_only a (rows, k dim) array of their means, at the run's steps
        that are multiples of ``stride``, counted from the run's start;
        stride None records none.  The stretch's own start is recorded,
        when it is such a step, as a first yield with no winners.  Above
        stride 1 a chunk runs the loop to each of its record points and
        records the state it returns there.  winners is the chunk's array of
        winning categories, empty unless record_winners or a cloud is given,
        as uint8 up to k = 256.  Each chunk's draws go to the cloud after
        the loop has run them, in draw order, the point absorbed by the
        run's t-th step born at step t.  A follower, a _Run standing where
        this one does on the same draws, runs them too and ends the stretch
        where a run of its own would, generator included.
        """
        config = self.config
        k, dim = config.init_means.shape  # plain ints, as they go into source
        width = k * dim if means_only else k * dim + k
        decay = math.exp(-config.decay_rate)
        keep_winners, decays = record_winners or cloud is not None, decay != 1.0
        records = "none" if stride != 1 else "means" if means_only else "states"
        loop = _step_loop(k, dim, keep_winners, records, decays)
        stops = records == "none" and stride is not None
        if follower is not None:
            if follower._draws() != self._draws():
                raise ParameterError("a follower must stand where the run does on its draws")
            fdecay = math.exp(-follower.config.decay_rate)
            follow = _step_loop(follower.config.k, dim, False, "none", fdecay != 1.0)
        if stride is not None and self.t % stride == 0:
            yield np.array([self.state[:width]]), np.array([], np.uint8)

        t, end = self.t, self.t + n_steps
        while t < end:
            m = min(_CHUNK, end - t)
            zs = config.domain.uniform_points(self.rng, m)
            recs, wins, zs = [], [], zs.ravel().tolist()
            state, at = self.state, 0
            for point in range(stride - t % stride, m + 1, stride) if stops else ():
                state = loop(zs[at * dim:point * dim], decay, state, recs, wins)
                recs.extend(state[:width])
                at = point
            state = self.state = loop(zs[at * dim:] if at else zs, decay, state, recs, wins)
            if follower is not None:
                follower.state = follow(zs, fdecay, follower.state, None, None)
            if cloud is not None:
                for birth, (j, z) in enumerate(zip(wins, zip(*[iter(zs)] * dim)), t + 1):
                    cloud.add(j, z, birth)
            t = self.t = t + m
            states = np.fromiter(recs, float, len(recs)).reshape(-1, width)
            # bytes() packs small ints about 3x as fast as numpy converts a list
            winners = (np.frombuffer(bytes(wins), np.uint8) if k <= 256
                       else np.array(wins, np.intp))
            # the consumer formats this chunk while the frame is suspended, and
            # the next chunk runs after that: hold neither this chunk's lists
            # through either, nor its arrays through the next
            del recs, wins, zs
            yield states, winners
            del states, winners
        if follower is not None:
            follower.t, follower.rng.bit_generator.state = self.t, self.rng.bit_generator.state


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
    for block, wins in _Run(config, rng).blocks(n_steps, stride, record_winners, cloud):
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
    _decay_factor(decay_rate, "equilibrium horizons")
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
    _decay_factor(decay_rate, "boundary ensembles")
    replicas = _count(replicas, "replica count", 1)
    targets = sorted({_count(n, "each step target") for n in n_targets})
    master_seed = _seed(master_seed, "master_seed")
    _count(index, "index")
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
    sq = dev * dev  # not dev**4: np.power rounds differently on AVX-512 CPUs
    m4 = float(np.mean(sq * sq))
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
    grid = [float(_real(lam, "each lambda_grid entry")) for lam in lambda_grid]
    if not grid:
        raise ParameterError("lambda_grid must be non-empty")
    for lam in grid:
        _decay_factor(lam, "boundary ensembles")
    _count(replicas, "replica count", 2)
    horizons = [n if n == math.inf else _count(n, "each entry of n_list other than math.inf")
                for n in n_list]
    if not horizons:
        raise ParameterError("n_list must be non-empty")
    master_seed = _seed(master_seed, "master_seed")
    effs = [{n: (equilibrium_steps(lam) if n == math.inf else n) for n in horizons}
            for lam in grid]

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
    k = _count(k, "k", 1)
    burn_in = _count(burn_in, "burn_in")
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
    _decay_factor(config.decay_rate, "non-extinction checks")
    _count(window, "window", 1)
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
    for _, winners in _Run(config).blocks(n, record_winners=True):
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
    if volume_floor is not None and not 0 <= _real(volume_floor, "volume_floor") < math.inf:
        raise ParameterError("volume_floor must be finite and nonnegative")
    # the config's means are finite and distinct, so this checks n_samples
    _check_input(config.init_means, n_samples)
    n, stride = _run_length(n_steps, check_stride)
    rec = run_trajectory(config, n, stride=stride)
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
    if config.decay_rate:
        # variance_floor's closed form needs a rate that decays
        try:
            _decay_factor(config.decay_rate, "non-convergence checks with forgetting")
        except ParameterError as err:
            return "lambda", str(err)
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

    def feed(self, means):
        """Take the next stride-1 states' means, as _Run.blocks yields them."""
        r = self.rows
        self.rows += len(means)
        self.means[r:self.rows] = means
        steps = np.diff(self.means[max(r - 1, 0):self.rows], axis=0)
        self.moves += np.count_nonzero(np.abs(steps) > MOVEMENT_EPSILON, axis=0)


def _column_variance(a) -> np.ndarray:
    """a.var(axis=0) of a C-contiguous (n, k) float array, k >= 2, bit for
    bit, without the (n, k) temporary of deviations np.var makes.

    np.var takes the mean as np.add.reduce(a, axis=0) / n, then adds the
    squared deviations with an axis-0 reduce.  With k >= 2 columns numpy
    adds such a reduce row after row.  (A single column would be summed
    pairwise, in another order.)  Here the deviations are squared
    _VAR_SLICE rows at a time into a (k, _VAR_SLICE + 1) buffer, column c
    of a into row c of it, behind the running total in the row's first
    cell, and np.add.accumulate adds along each row: by its definition,
    one value after another, which is the reduce's order.
    """
    n, k = a.shape
    mean = np.add.reduce(a, axis=0) / n
    buf = np.zeros((k, min(n, _VAR_SLICE) + 1))
    for start in range(0, n, _VAR_SLICE):
        rows = a[start:start + _VAR_SLICE].T
        m = rows.shape[1]
        sq, acc = buf[:, 1:1 + m], buf[:, :1 + m]
        np.subtract(rows, mean[:, None], out=sq)
        np.multiply(sq, sq, out=sq)
        np.add.accumulate(acc, axis=1, out=acc)
        buf[:, 0] = buf[:, m]
    return buf[:, 0] / n


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
    the run's head is a stretch that records nothing."""
    n, _ = _run_length(n_steps, 1)
    problem = _late_window_problem(config, n)
    if problem:
        raise ParameterError(problem[1])
    run = _Run(config)
    for _ in run.blocks(n - n // 4):
        pass
    return _tail_report(run, n)


def _tail_report(run, n_steps) -> PropertyReport:
    # non-convergence of a run of n_steps, a whole number, from its last quarter
    late = _LateWindow(n_steps // 4, run.config.k)
    for means, _ in run.blocks(n_steps // 4, 1, means_only=True):
        late.feed(means)
    return _convergence_report(run.config, n_steps, late)


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
    n_steps = _count(n_steps, "n_steps")
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
    chunk by chunk in two stretches: every winner goes to the non-extinction
    check's tracker and is dropped.  The run's head, steps 0 to n_steps -
    n_steps // 4, records the means at multiples of check_stride.  Its
    tail, the last quarter, records the means of every state, from the
    head's last one on.  The non-collapse states are the head's plus the
    tail's at multiples of check_stride.  The control draws what the run
    draws: it follows the run through the head, then takes its own tail.
    Every argument is checked before the run starts."""
    gaps = _extinction_tracker(config, window)
    n, stride = _run_length(n_steps, check_stride)
    problem = _late_window_problem(config, n)
    if problem:
        raise ParameterError(problem[1])

    tail = n // 4
    head_len = n - tail
    run = _Run(config)
    # the zero-decay control follows the run's head on its draws
    control = _Run(replace(config, decay_rate=0.0)) if negative_control else None
    checked = []  # the means of the head's states
    for means, winners in run.blocks(head_len, stride, record_winners=True,
                                     means_only=True, follower=control):
        checked.append(means)
        gaps.feed(winners)
    late = _LateWindow(tail, config.k)
    for means, winners in run.blocks(tail, 1, record_winners=True, means_only=True):
        late.feed(means)
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
    if control is not None:
        out.append((_tail_report(control, n), False))
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
    # grid row i holds the centres (cx[i], cy[j]), whose squared distance to
    # mean c is sx[c, i] + sy[c, j]: the rounded squares assign_cells sums
    # in coordinate order, so every label is the one assign_cells gives.
    # Whole rows, at most _ASSIGN_CHUNK centres, are labelled at a time in
    # reused buffers, one broadcast add per category.  Only the (i, j) of
    # label changes are kept, between rows i and i + 1 (across) and between
    # j and j + 1 within row i (along), in row-major order; the last label
    # row of the block before is kept for the pair that spans the block
    # edge, so the label grid is never held whole
    means = _finite_means(means)
    sx = cx - means[:, :1]
    sx *= sx
    sy = cy - means[:, 1:]
    sy *= sy
    rows = max(1, _ASSIGN_CHUNK // resolution)
    size = min(rows, resolution) * resolution
    best, dist = np.empty((2, size))
    less = np.empty(size, dtype=bool)
    flat = np.zeros(size, dtype=np.intp)
    across, along = [], []
    for start in range(0, resolution, rows):
        m = min(rows, resolution - start)
        n = m * resolution

        def fill(i, out):
            np.add(sx[i, start:start + m, None], sy[i], out=out.reshape(m, resolution))

        labels = flat[:n]
        _nearest(len(means), fill, labels, best[:n], dist[:n], less[:n])
        if start:
            across.append(_label_changes(last, labels[:resolution], start - 1, resolution))
        across.append(_label_changes(labels[:-resolution], labels[resolution:], start,
                                     resolution))
        # the flat pairs also join each row's last label to the next row's first
        ii, jj = _label_changes(labels[:-1], labels[1:], start, resolution)
        keep = jj < resolution - 1
        along.append((ii[keep], jj[keep]))
        last = labels[-resolution:].copy()

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


def _label_changes(a, b, first_row, width):
    # (i, j) of the flat positions i * width + j where a and b differ, with
    # i counted from first_row
    ii, jj = np.divmod(np.flatnonzero(a != b), width)
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
    cutoff, so only those are kept: the run's head is a stretch without a
    cloud, and only its tail feeds the cloud.
    """
    if config.domain.dim != 2:
        raise ParameterError("snapshots are defined for 2-D configs")
    if not _real(prune_threshold, "prune_threshold") >= 0:
        raise ParameterError("prune_threshold must be nonnegative")
    grid_resolution = _count(grid_resolution, "grid_resolution", 2)
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
    if scatter_points is None:
        points, weights = config.init_means[:, None, :], config.init_weights[:, None]
    else:
        points, weights = scatter_points, np.ones(scatter_points.shape[:2])
    cloud = ExemplarCloud(k, 2)
    for j in range(k):
        cloud.seed_category(j, points[j], weights[j])
    run = _Run(config)
    for _ in run.blocks(n_steps - tail):
        pass
    for _ in run.blocks(tail, cloud=cloud):
        pass
    kept = cloud.pruned(n_steps, config.decay_rate, prune_threshold)
    state = np.array(run.state)
    means = state[:2 * k].reshape(k, 2)
    return SnapshotResult(
        step=n_steps,
        positions=np.concatenate([locs for locs, _ in kept]),
        weights=np.concatenate([w for _, w in kept]),
        categories=np.concatenate(
            [np.full(locs.shape[0], j, dtype=np.int64) for j, (locs, _) in enumerate(kept)]),
        means=means,
        category_weights=state[2 * k:],
        boundary_segments=_grid_boundary_segments(means, config.domain, grid_resolution),
        prune_threshold=float(prune_threshold),
    )
