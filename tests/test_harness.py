import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exdyn import harness
from exdyn import (
    Domain,
    DomainError,
    EnsembleEstimate,
    ExemplarCloud,
    GeometryError,
    ModelConfig,
    ParameterError,
    SystemState,
    assign_cells,
    boundary_samples,
    boundary_variance_curve,
    classify,
    equilibrium_steps,
    figure1_snapshot,
    limit_total_weight,
    longest_starvation,
    parse_config,
    property_macqueen_cvt,
    property_non_collapse,
    property_non_convergence,
    property_non_extinction,
    replica_stream,
    run_trajectory,
    sample,
    step,
    substream,
    theorem_suite,
    variance_of_Y,
)
from exdyn.harness import (
    _CHUNK,
    _VAR_SLICE,
    MOVEMENT_EPSILON,
    _estimate,
    _grid_boundary_segments,
    variance_floor,
)

UNIT = Domain(np.array([0.0]), np.array([1.0]))
SQUARE = Domain(np.array([0.0, 0.0]), np.array([1.0, 1.0]))


def pair_config(decay_rate, seed, means=(0.25, 0.75), weights=(1.0, 1.0)):
    return ModelConfig(k=2, decay_rate=decay_rate, domain=UNIT,
                       init_means=np.array([[means[0]], [means[1]]]),
                       init_weights=np.array(weights, dtype=float), seed=seed)


# ---------------------------------------------------------------------------
# trajectory records

def test_record_steps_and_shapes():
    cfg = pair_config(0.1, seed=3)
    rec = run_trajectory(cfg, 10, stride=3)
    assert np.array_equal(rec.steps, [0, 3, 6, 9])
    assert rec.means.shape == (4, 2, 1)
    assert rec.weights.shape == (4, 2)
    assert rec.winners is None
    assert np.array_equal(rec.means[0], cfg.init_means)


def test_record_boundaries():
    cfg = pair_config(0.1, seed=3)
    rec = run_trajectory(cfg, 100, stride=10)
    b = rec.boundaries
    assert b.shape == (11,)
    assert b[0] == 0.5


def test_state_accepts_a_weight_decayed_to_zero():
    # at decay 1000 the decay factor is 0.0, so every losing weight is 0.0
    cfg = pair_config(1000.0, seed=3)
    rec = run_trajectory(cfg, 300, stride=300)
    assert sorted(rec.weights[-1]) == [0.0, 1.0]
    s = SystemState(rec.means[-1], rec.weights[-1], 300)
    after = step(s, [0.5], 1000.0)
    assert after.step == 301 and sorted(after.weights) == [0.0, 1.0]


def test_boundaries_require_1d_pair():
    cfg = ModelConfig(k=3, decay_rate=0.1, domain=UNIT,
                      init_means=np.array([[0.2], [0.5], [0.8]]),
                      init_weights=np.ones(3), seed=4)
    rec = run_trajectory(cfg, 10)
    with pytest.raises(ParameterError):
        rec.boundaries


def test_run_trajectory_input_validation():
    cfg = pair_config(0.1, seed=3)
    with pytest.raises(ParameterError):
        run_trajectory(cfg, -1)
    with pytest.raises(ParameterError):
        run_trajectory(cfg, 10, stride=0)


@pytest.mark.parametrize("call", [
    pytest.param(lambda cfg: run_trajectory(cfg, 10.7, stride=2.5), id="fractional-both"),
    pytest.param(lambda cfg: run_trajectory(cfg, 10, stride=2.5), id="fractional-stride"),
    pytest.param(lambda cfg: run_trajectory(cfg, math.nan), id="nan-steps"),
    pytest.param(lambda cfg: run_trajectory(cfg, math.inf), id="inf-steps"),
    pytest.param(lambda cfg: run_trajectory(cfg, 10, stride=math.inf), id="inf-stride"),
    pytest.param(lambda cfg: property_non_collapse(cfg, 2000, check_stride=2.5),
                 id="collapse-fractional-stride"),
    pytest.param(lambda cfg: property_non_extinction(cfg, math.nan), id="extinction-nan-steps"),
    pytest.param(lambda cfg: property_non_convergence(cfg, 2000.5),
                 id="convergence-fractional-steps"),
    pytest.param(lambda cfg: theorem_suite(cfg, 2000, check_stride=2.5),
                 id="suite-fractional-stride"),
    pytest.param(lambda cfg: figure1_snapshot(snapshot_config(0.1), math.inf),
                 id="snapshot-inf-steps"),
])
def test_run_lengths_must_be_whole_numbers(call):
    # int() alone records steps [0 2 4 6 8 10] for 10.7 steps at stride
    # 2.5, runs 1000 checks at stride 2 for check_stride 2.5, and raises
    # its own ValueError or OverflowError on NaN and infinities
    with pytest.raises(ParameterError, match="whole number"):
        call(pair_config(0.1, seed=3))


def test_run_lengths_accept_whole_floats_and_numpy_integers():
    cfg = pair_config(0.1, seed=3)
    want = run_trajectory(cfg, 10, stride=2)
    got = run_trajectory(cfg, np.int64(10), stride=2.0)
    assert got.stride == 2 and np.array_equal(got.steps, want.steps)
    assert np.array_equal(got.means, want.means)


@pytest.mark.parametrize("k,dim", [(k, dim) for k in range(1, 6)
                                   for dim in range(1, 4)])
@settings(max_examples=4, deadline=None)
@given(decay_rate=st.floats(1e-3, 1.0) | st.just(0.0),
       lower=st.floats(-5.0, 5.0), span=st.floats(0.5, 20.0),
       seed=st.integers(0, 2**64 - 1), n_steps=st.integers(0, 500))
@example(decay_rate=0.0, lower=0.0, span=1.0, seed=11, n_steps=500)
@example(decay_rate=0.05, lower=0.0, span=1.0, seed=11, n_steps=500)
def test_run_trajectory_matches_step_reference(k, dim, decay_rate, lower, span,
                                               seed, n_steps):
    # every shape runs its own generated loop, which must replay model.step
    # on the same draws bit for bit
    domain = Domain(np.full(dim, lower), np.full(dim, lower + span))
    init = substream(seed, 99)
    cfg = ModelConfig(k=k, decay_rate=decay_rate, domain=domain,
                      init_means=domain.uniform_points(init, k),
                      init_weights=init.uniform(0.5, 50.0, k), seed=seed)
    rec = run_trajectory(cfg, n_steps, stride=1, record_winners=True)
    assert_replays_step(cfg, rec, n_steps)


def assert_replays_step(cfg, rec, n_steps, rng=None, start=None):
    """rec holds every rec.stride-th state, and every winner if it kept
    them, of iterating model.step from ``start`` (by default the config's
    state) on sample(...) draws from ``rng`` (by default the config's
    stream); returns the draws."""
    stride = rec.stride
    assert np.array_equal(rec.steps, np.arange(0, n_steps + 1, stride))
    g = substream(cfg.seed) if rng is None else rng
    state = (SystemState(cfg.init_means.copy(), cfg.init_weights.copy())
             if start is None else start)
    draws = []
    for t in range(n_steps + 1):
        if t:
            z = sample(cfg.domain, g)
            draws.append(z)
            if rec.winners is not None:
                assert rec.winners[t - 1] == classify(z, state.means)
            state = step(state, z, cfg.decay_rate)
        if t % stride == 0:
            assert np.array_equal(rec.means[t // stride], state.means)
            assert np.array_equal(rec.weights[t // stride], state.weights)
    return draws


def box_config(k, dim, decay_rate, seed, init_key):
    domain = Domain(np.full(dim, -1.0), np.full(dim, 2.0))
    init = substream(k, dim, init_key)
    return ModelConfig(k=k, decay_rate=decay_rate, domain=domain,
                       init_means=domain.uniform_points(init, k),
                       init_weights=init.uniform(0.5, 50.0, k), seed=seed)


@pytest.mark.parametrize("stride", [1, 7])
@pytest.mark.parametrize("k,dim,record_winners", [
    pytest.param(2, 1, True, id="2-1"),
    pytest.param(4, 2, True, id="4-2"),
    pytest.param(1, 1, True, id="1-1"),
    pytest.param(3, 3, True, id="3-3"),
    pytest.param(12, 1, True, id="12-1"),
    pytest.param(2, 4, True, id="2-4"),
    pytest.param(5, 4, True, id="5-4"),
    pytest.param(2, 1, False, id="2-1-no-winners"),
    pytest.param(4, 2, False, id="4-2-no-winners"),
])
def test_run_trajectory_matches_step_reference_across_chunks(k, dim, record_winners,
                                                             stride):
    # the engine stores a chunk's recorded states and winners when the
    # chunk ends: 2 chunks and 3 draws cross that edge twice, and stride 7
    # does not divide the chunk, so the records fall at a different offset
    # in each chunk.  The shapes cover each form of generated loop: k = 1
    # with no comparison, k = 2 with one, and running minima that pick the
    # winner through dispatch trees 1, 2 and 4 tests deep.  The loop reads
    # each chunk's coordinates as one flat list, dim at a time: dims 1 to 4
    # check that no point takes a coordinate of its neighbour
    n_steps = 2 * harness._CHUNK + 3
    cfg = box_config(k, dim, 0.01, seed=10 * k + stride, init_key=stride)
    rec = run_trajectory(cfg, n_steps, stride=stride, record_winners=record_winners)
    assert len(rec.means) == n_steps // stride + 1
    assert (rec.winners is not None) == record_winners
    assert_replays_step(cfg, rec, n_steps)


@pytest.mark.parametrize("k,dim", [(2, 1), (3, 2)])
def test_continued_run_from_a_weight_decayed_to_zero_matches_step_reference(k, dim):
    # at decay 1000 the decay factor is 0.0, so every losing weight is 0.0;
    # a continued run starts from that state, which ModelConfig refuses
    cfg = box_config(k, dim, 1000.0, seed=5, init_key=0)
    g = substream(cfg.seed)
    *_, (head, _) = harness._trajectory_blocks(cfg, 40, 40, g)
    start = head[-1]
    assert 0.0 in start[k * dim:]
    blocks = list(harness._trajectory_blocks(cfg, 300, 7, g, record_winners=True,
                                             start=start))
    states = np.concatenate([block for block, _ in blocks])
    rec = harness.TrajectoryRecord(cfg, 7, states[:, :k * dim].reshape(-1, k, dim),
                                   states[:, k * dim:],
                                   np.concatenate([wins for _, wins in blocks]))
    rest = substream(cfg.seed)
    rest.random((40, dim))  # the head's draws
    assert_replays_step(cfg, rec, 300, rng=rest,
                        start=SystemState(start[:k * dim].reshape(k, dim), start[k * dim:]))


def test_each_run_shape_builds_its_loop_once():
    harness._step_loop.cache_clear()
    cfg = box_config(3, 2, 0.01, seed=4, init_key=0)
    for _ in range(2):
        run_trajectory(cfg, 2 * harness._CHUNK + 3, stride=7)
    info = harness._step_loop.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_identity_decay_builds_its_own_loop():
    # a decay factor of 1.0 drops the weight decay from the generated loop:
    # decay_rate 0 and 1e-17, whose factor rounds to 1.0, share that loop,
    # and a decaying run of the same shape builds the other
    harness._step_loop.cache_clear()
    for decay_rate in (0.0, 1e-17, 0.01):
        run_trajectory(box_config(3, 2, decay_rate, seed=4, init_key=0), 10)
    info = harness._step_loop.cache_info()
    assert (info.misses, info.hits) == (2, 1)


@pytest.mark.parametrize("k,dim", [(1, 1), (2, 1), (3, 2), (5, 3)])
def test_identity_decay_matches_step_reference(k, dim):
    # at decay_rate 1e-17, exp(-decay_rate) rounds to 1.0: both engines skip
    # the decay, while model.step multiplies every weight by 1.0, and every
    # state must still agree bit for bit.  Three replicas of the lockstep
    # engine replay three single runs, each checked against model.step
    decay_rate = 1e-17
    assert math.exp(-decay_rate) == 1.0
    cfg = box_config(k, dim, decay_rate, seed=3 * k + dim, init_key=1)
    n_steps = 600
    gens = [replica_stream(cfg.seed, k, r) for r in range(3)]
    states = harness._lockstep_states(cfg.init_means, cfg.init_weights, decay_rate,
                                      cfg.domain, gens, [1, n_steps])
    for r in range(3):
        rec = run_trajectory(cfg, n_steps, stride=1, record_winners=True,
                             rng=replica_stream(cfg.seed, k, r))
        assert_replays_step(cfg, rec, n_steps, rng=replica_stream(cfg.seed, k, r))
        for n in (1, n_steps):
            assert states[n][0][r].tobytes() == rec.means[n].tobytes()
            assert states[n][1][r].tobytes() == rec.weights[n].tobytes()
    # nothing decays: the weights gain one unit per step, up to rounding
    total = cfg.init_weights.sum() + n_steps
    assert states[n_steps][1].sum(axis=1) == pytest.approx([total] * 3, rel=1e-12)


@pytest.mark.parametrize("k,dim", [(2, 1), (4, 2)])
def test_cloud_run_matches_step_reference(k, dim):
    # with a cloud every draw goes to its winner's category with birth step
    # t for the t-th update; 2 chunks and 3 draws cross the chunk edge twice,
    # where a wrong per-chunk birth offset would show
    cfg = box_config(k, dim, 0.05, seed=13, init_key=k)
    cloud = ExemplarCloud(k, dim)
    n = 2 * _CHUNK + 3
    rec = run_trajectory(cfg, n, stride=1, record_winners=True, cloud=cloud)
    draws = np.array(assert_replays_step(cfg, rec, n))
    for j in range(k):
        won = np.flatnonzero(rec.winners == j)
        assert won[0] < _CHUNK <= won[-1]
        locs, _ = cloud.category_arrays(j, n, cfg.decay_rate)
        assert np.array_equal(locs, draws[won])
        assert cloud._births[j] == (won + 1).tolist()


class _FixedDraws:
    """Stands in for a generator whose uniform draws are given; hands them
    out in order, in whatever shape each call asks for, or into ``out`` in
    place as Generator.random(out=...) fills it."""

    def __init__(self, u):
        self.u = np.ravel(u)
        self.used = 0

    def random(self, shape=None, out=None):
        if out is not None:
            out[...] = self.random(out.shape)
            return out
        n = math.prod(np.atleast_1d(shape))
        assert self.used + n <= self.u.size
        self.used += n
        return self.u[self.used - n:self.used].reshape(shape)


@pytest.mark.parametrize("means,ties", [
    pytest.param([[0.25], [0.75]], [(0, 1)] * 5, id="pair"),
    pytest.param([[0.25, 0.25], [0.75, 0.25], [0.5, 0.75]],
                 [(0, 1), (1, 2), (0, 2), (1, 2)], id="three-in-2d"),
])
def test_ties_go_to_the_lower_index(means, ties):
    # each draw is the midpoint of two means, exactly as far from both and
    # nearer than any other: random draws almost never tie like this
    means = np.array(means)
    k, dim = means.shape
    cfg = ModelConfig(k=k, decay_rate=0.0, domain=Domain(np.zeros(dim), np.ones(dim)),
                      init_means=means,
                      init_weights=np.ones(k), seed=0)
    state = SystemState(cfg.init_means.copy(), cfg.init_weights.copy())
    draws = []
    for a, b in ties:
        z = (state.means[a] + state.means[b]) / 2.0
        d = ((state.means - z) ** 2).sum(axis=1)
        assert d[a] == d[b] == d.min() and np.count_nonzero(d == d.min()) == 2
        draws.append(z)
        state = step(state, z, cfg.decay_rate)
    n = len(ties)
    rec = run_trajectory(cfg, n, record_winners=True, rng=_FixedDraws(draws))
    assert rec.winners.tolist() == [min(a, b) for a, b in ties]
    assert_replays_step(cfg, rec, n, rng=_FixedDraws(draws))


def test_distances_add_coordinates_in_order():
    # In 8 coordinates numpy's sum adds pairwise.  These two means are
    # equally far from z when the squared coordinates are added in order, so
    # the tie goes to category 0, while a pairwise sum puts category 1 a
    # rounding error closer.  Every comparison in the package must agree.
    z = [0.4548490008510561, 0.5614363972935716, 0.4536730651949957,
         0.4536125739135259, 0.4141763568460314, 0.4934417627650682,
         0.4528410879880937, 0.5777884076062985]
    means = np.array([
        [0.326639988376625, 0.7256965563126941, 0.4460199818263669,
         0.4344240020742911, 0.6931344818143181, 0.7323781633519949,
         0.20026167824662477, 0.42491097000125794],
        [0.6191091598701786, 0.3088569875521027, 0.21473666460806895,
         0.6064900115185664, 0.28596734437160026, 0.4742531909258334,
         0.4451880046194649, 0.8567465325745852]])
    domain = Domain(np.zeros(8), np.ones(8))
    cfg = ModelConfig(k=2, decay_rate=0.1, domain=domain,
                      init_means=means,
                      init_weights=np.array([1.0, 2.0]), seed=0)
    assert classify(z, means) == 0
    assert assign_cells([z], means)[0] == 0
    state = step(SystemState(cfg.init_means.copy(), cfg.init_weights.copy()), z,
                 cfg.decay_rate)
    assert np.array_equal(state.means[1], means[1])
    rec = run_trajectory(cfg, 1, record_winners=True, rng=_FixedDraws(z))
    assert rec.winners[0] == 0
    assert np.array_equal(rec.means[1], state.means)
    assert np.array_equal(rec.weights[1], state.weights)
    means1, weights1 = harness._lockstep_states(
        means, cfg.init_weights, cfg.decay_rate, domain, [_FixedDraws(z)], [1])[1]
    assert np.array_equal(means1[0], state.means)
    assert np.array_equal(weights1[0], state.weights)


@pytest.mark.parametrize("k", [2, 300])
def test_winners_are_stored_as_small_integers(k):
    cfg = ModelConfig(k=k, decay_rate=0.1, domain=UNIT,
                      init_means=np.linspace(0.0, 1.0, k)[:, None],
                      init_weights=np.ones(k), seed=8)
    rec = run_trajectory(cfg, 2000, stride=2000, record_winners=True)
    assert rec.winners.dtype == (np.uint8 if k == 2 else np.uint16)
    assert rec.winners.max() < k
    if k == 2:
        with_cloud = run_trajectory(cfg, 2000, stride=2000, record_winners=True,
                                    cloud=ExemplarCloud(2, 1))
        assert with_cloud.winners.dtype == np.uint8


@pytest.mark.parametrize("k", [256, 257])
def test_winners_at_the_byte_edge_match_step_reference(k):
    # up to k = 256 the winners are one byte each and are stored from bytes;
    # from k = 257 on they take two bytes and the plain list assignment
    cfg = ModelConfig(k=k, decay_rate=0.1, domain=UNIT,
                      init_means=np.linspace(0.0, 1.0, k)[:, None],
                      init_weights=np.ones(k), seed=9)
    rec = run_trajectory(cfg, 300, stride=100, record_winners=True)
    assert rec.winners.dtype == (np.uint8 if k == 256 else np.uint16)
    assert_replays_step(cfg, rec, 300)
    assert rec.winners.max() > 200


def test_trajectory_deterministic_and_seed_sensitive():
    cfg = pair_config(0.05, seed=11)
    a = run_trajectory(cfg, 1000)
    b = run_trajectory(cfg, 1000)
    c = run_trajectory(pair_config(0.05, seed=12), 1000)
    assert np.array_equal(a.means, b.means)
    assert not np.array_equal(a.means, c.means)


def test_trajectory_cloud_reproduces_state():
    # every draw lands in the cloud, so the cloud's decayed weighted means
    # must reproduce the recursively updated state
    cfg = ModelConfig(k=3, decay_rate=0.05, domain=UNIT,
                      init_means=np.array([[0.2], [0.5], [0.8]]),
                      init_weights=np.array([2.0, 1.0, 3.0]), seed=9)
    cloud = ExemplarCloud(3, 1)
    for j in range(3):
        cloud.seed_category(j, cfg.init_means[j][None, :],
                            [cfg.init_weights[j]], birth_step=0)
    rec = run_trajectory(cfg, 2000, stride=2000, cloud=cloud)
    kept = cloud.pruned(2000, 0.05, 0.0)
    assert sum(len(locs) for locs, _ in kept) == 3 + 2000
    for j, (locs, w) in enumerate(kept):
        np.testing.assert_allclose((locs * w[:, None]).sum(axis=0) / w.sum(),
                                   rec.means[-1, j], rtol=1e-9)
        np.testing.assert_allclose(w.sum(), rec.weights[-1, j], rtol=1e-9)


# ---------------------------------------------------------------------------
# ensembles

def test_equilibrium_steps_values():
    assert equilibrium_steps(0.05) == 8000
    assert equilibrium_steps(0.1) == 4000
    assert equilibrium_steps(0.2) == 2000
    assert equilibrium_steps(0.005) == 80000
    assert equilibrium_steps(math.log(2.0)) == 578
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ParameterError):
            equilibrium_steps(bad)


def test_boundary_samples_step_zero_is_half():
    out = boundary_samples(0.1, [0], replicas=16, master_seed=77)
    assert np.array_equal(out[0], np.full(16, 0.5))


@pytest.mark.parametrize("decay_rate", [0.1, 0.5])
@pytest.mark.parametrize("index", [0, 3])
def test_boundary_samples_row_matches_single_run(decay_rate, index):
    # replica r of grid point i draws from substream(seed, i, r), so every
    # row of the vectorized ensemble is recoverable with run_trajectory; the
    # targets straddle the ensemble's chunk edges (every 256 steps at 8
    # replicas)
    targets = [0, 1, 50, 511, 512, 513, 1200]
    W = limit_total_weight(decay_rate)
    out = boundary_samples(decay_rate, targets, replicas=8, master_seed=77,
                           index=index)
    cfg = pair_config(decay_rate, seed=77, weights=(W / 2.0, W / 2.0))
    for r in range(8):
        rec = run_trajectory(cfg, 1200, stride=1,
                             rng=replica_stream(77, index, r))
        for n in targets:
            assert out[n][r] == rec.boundaries[n]


def test_boundary_samples_validation():
    with pytest.raises(ParameterError):
        boundary_samples(0.0, [10], 4, 1)
    with pytest.raises(ParameterError):
        boundary_samples(0.1, [10], 0, 1)
    with pytest.raises(ParameterError):
        boundary_samples(0.1, [-1, 10], 4, 1)


def test_boundary_samples_rejects_nan_decay():
    # nan <= 0 is false, so a sign test alone let NaN boundaries through
    with pytest.raises(ParameterError, match="require a finite decay_rate > 0"):
        boundary_samples(math.nan, [3], 4, 1)


def test_ensembles_reject_an_infinite_decay():
    # decay_rate = inf is a decay factor of 0.0, which ModelConfig refuses
    # for a single run; the ensembles ran it until they refused it too
    with pytest.raises(ParameterError, match="require a finite decay_rate > 0"):
        boundary_samples(math.inf, [0, 3], 4, 1)
    with pytest.raises(ParameterError, match="finite decay_rate > 0"):
        boundary_variance_curve([math.inf], [3], 4, 1)
    with pytest.raises(ParameterError, match="finite decay_rate > 0"):
        boundary_variance_curve([0.1, math.inf], [3, math.inf], 4, 1)
    with pytest.raises(ParameterError, match="decay_rate must be finite"):
        replace(pair_config(0.1, seed=1), decay_rate=math.inf)


def test_variance_curve_rejects_nan_decay():
    with pytest.raises(ParameterError):
        boundary_variance_curve([math.nan], [100], 4, 1)
    with pytest.raises(ParameterError):
        boundary_variance_curve([0.1, math.nan], [100], 4, 1)


DECAYS_NOTHING = r"exp\(-decay_rate\) < 1"
NOT_FINITE = "limit total weight is not finite"


@pytest.mark.parametrize("call,message", [
    pytest.param(lambda: boundary_variance_curve([0.05, 1e-320], [math.inf], 3, 1),
                 DECAYS_NOTHING, id="curve-equilibrium"),
    pytest.param(lambda: boundary_variance_curve([0.05, 1e-320], [3], 3, 1),
                 NOT_FINITE, id="curve-finite-horizon"),
    pytest.param(lambda: boundary_samples(1e-320, [3], 3, 1), NOT_FINITE, id="samples"),
    pytest.param(lambda: property_non_convergence(pair_config(1e-17, seed=3), 100),
                 DECAYS_NOTHING, id="non-convergence"),
    pytest.param(lambda: property_non_extinction(pair_config(1e-17, seed=3), 100),
                 DECAYS_NOTHING, id="non-extinction"),
    pytest.param(lambda: property_non_extinction(pair_config(1e-320, seed=3), 100),
                 DECAYS_NOTHING, id="non-extinction-subnormal"),
    pytest.param(lambda: theorem_suite(pair_config(1e-17, seed=3), 100), DECAYS_NOTHING,
                 id="suite"),
])
def test_rates_that_decay_nothing_are_refused_before_any_run(monkeypatch, call, message):
    # exp(-1e-17) rounds to 1.0: the variance floor's closed form and the
    # equilibrium horizon have no value there, and the non-extinction
    # burn-in of 1e18 steps would pass any run.  Below about 5.6e-309 the
    # limit total weight overflows, and an ensemble started there returned
    # NaN boundaries.  Grid point 0 of the curve is valid, and its ensemble
    # must not run first
    def no_run(*args, **kwargs):
        raise AssertionError("simulated before checking the input")
    monkeypatch.setattr(harness, "substream", no_run)
    monkeypatch.setattr(harness, "run_trajectory", no_run)
    monkeypatch.setattr(harness, "_trajectory_blocks", no_run)
    monkeypatch.setattr(harness, "_lockstep_states", no_run)
    with pytest.raises(ParameterError, match=message):
        call()


@pytest.mark.parametrize("call", [
    pytest.param(lambda: boundary_samples(0.1, [3], math.nan, 1), id="samples-nan-replicas"),
    pytest.param(lambda: boundary_samples(0.1, [3], 2.7, 1), id="samples-fractional-replicas"),
    pytest.param(lambda: boundary_samples(0.1, [2.5], 3, 1), id="samples-fractional-target"),
    pytest.param(lambda: boundary_samples(0.1, [math.inf], 3, 1), id="samples-inf-target"),
    pytest.param(lambda: boundary_variance_curve([0.1], [3], math.nan, 1),
                 id="curve-nan-replicas"),
    pytest.param(lambda: boundary_variance_curve([0.1], [math.nan], 3, 1), id="curve-nan-n"),
    pytest.param(lambda: boundary_variance_curve([0.1], [-math.inf], 3, 1),
                 id="curve-minus-inf-n"),
    pytest.param(lambda: boundary_variance_curve([0.1], [2.5], 3, 1), id="curve-fractional-n"),
])
def test_ensemble_counts_must_be_whole_numbers(call):
    # int() alone truncates 2.7 replicas to 2 and step 2.5 to 2, and raises
    # its own ValueError or OverflowError on NaN and infinities
    with pytest.raises(ParameterError, match="whole number"):
        call()


@pytest.mark.parametrize("call,match", [
    pytest.param(lambda: boundary_samples(0.1, [2], 2, -1), "64 bits", id="samples-negative-seed"),
    pytest.param(lambda: boundary_samples(0.1, [2], 2, 2**64), "64 bits", id="samples-seed-2**64"),
    pytest.param(lambda: boundary_samples(0.1, [2], 2, 10**400), "64 bits",
                 id="samples-seed-past-float-range"),
    pytest.param(lambda: boundary_samples(0.1, [2], 2, 1.5), "whole number",
                 id="samples-fractional-seed"),
    pytest.param(lambda: boundary_samples(0.1, [2], 2, math.nan), "whole number",
                 id="samples-nan-seed"),
    pytest.param(lambda: boundary_samples(0.1, [2], 2, 1, index=-1), "nonnegative",
                 id="samples-negative-index"),
    pytest.param(lambda: boundary_samples(0.1, [2], 2, 1, index=0.5), "whole number",
                 id="samples-fractional-index"),
    pytest.param(lambda: boundary_samples(0.1, [2], 2, 1, index=math.inf), "whole number",
                 id="samples-inf-index"),
    pytest.param(lambda: boundary_variance_curve([0.1], [2], 2, -1), "64 bits",
                 id="curve-negative-seed"),
    pytest.param(lambda: boundary_variance_curve([0.1], [2], 2, 2**64), "64 bits",
                 id="curve-seed-2**64"),
    pytest.param(lambda: boundary_variance_curve([0.1], [2], 2, math.inf), "whole number",
                 id="curve-inf-seed"),
    pytest.param(lambda: boundary_variance_curve([0.05, math.nan], [math.inf], 3000, 1),
                 "finite decay_rate > 0", id="curve-nan-second-rate"),
    pytest.param(lambda: boundary_variance_curve([0.05, 0.1, math.inf], [10], 3000, 1),
                 "finite decay_rate > 0", id="curve-inf-third-rate"),
])
def test_ensemble_stream_keys_are_checked_first(call, match, monkeypatch):
    # SeedSequence raised numpy's own ValueError on a negative seed or index
    # and keyed streams by seeds past 64 bits, which ModelConfig refuses.
    # The curve checked each decay rate only when its grid point came up,
    # after the ensembles of the points before it
    def no_stream(*key):
        raise AssertionError(f"stream {key} made before the check")
    monkeypatch.setattr(harness, "replica_stream", no_stream)
    with pytest.raises(ParameterError, match=match):
        call()


def test_ensemble_stream_keys_accept_the_full_range():
    top = 2**64 - 1
    want = boundary_samples(0.1, [3], 2, top, index=2)
    got = boundary_samples(0.1, [3], 2, np.uint64(top), index=np.int64(2))
    assert np.array_equal(got[3], want[3])
    rec = run_trajectory(pair_config(0.1, seed=0, weights=[limit_total_weight(0.1) / 2] * 2),
                         3, stride=3, rng=replica_stream(top, 2, 1))
    assert want[3][1] == rec.boundaries[-1]


def test_ensemble_counts_accept_numpy_integers():
    want = boundary_samples(0.1, [3], 4, 1)
    got = boundary_samples(0.1, [np.int64(3)], np.int32(4), 1)
    assert np.array_equal(got[3], want[3])
    curve = boundary_variance_curve([0.1], [np.int64(3), math.inf], np.int64(4), 1)
    assert [e.n_steps for e in curve] == [3, equilibrium_steps(0.1)]


_BOXES = {"unit": (0.0, 1.0), "offset": (-2.0, 0.5)}


@pytest.mark.parametrize("box", sorted(_BOXES))
@pytest.mark.parametrize("decay_rate", [0.0, 0.1, 1000.0])
@pytest.mark.parametrize("dim", [1, 2, 3, 8])
@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_lockstep_rows_replay_single_runs(k, dim, decay_rate, box):
    # every row of the ensemble engine, each from its own initial state and
    # stream, equals run_trajectory on that stream bit for bit, means and
    # weights.  The targets straddle a chunk edge (every 256 steps at 3
    # replicas) and end in a partial chunk; dim 8 adds the coordinates past
    # numpy's pairwise sum, and decay 1000 (a decay factor of 0.0) leaves
    # weights of exactly 0.0
    lower, span = _BOXES[box]
    domain = Domain(np.full(dim, lower), np.full(dim, lower + span))
    targets = [0, 1, 511, 512, 513, 1030]
    configs = []
    for r in range(3):
        init = substream(k, dim, r)
        configs.append(ModelConfig(k=k, decay_rate=decay_rate, domain=domain,
                                   init_means=domain.uniform_points(init, k),
                                   init_weights=init.uniform(0.5, 50.0, k),
                                   seed=100 * k + dim))
    gens = [replica_stream(5, 10 * k + dim, r) for r in range(3)]
    states = harness._lockstep_states(
        np.stack([c.init_means for c in configs]),
        np.stack([c.init_weights for c in configs]),
        decay_rate, domain, gens, targets)
    assert sorted(states) == targets
    for r, cfg in enumerate(configs):
        rec = run_trajectory(cfg, targets[-1], stride=1,
                             rng=replica_stream(5, 10 * k + dim, r))
        for n in targets:
            means, weights = states[n]
            assert means.shape == (3, k, dim) and weights.shape == (3, k)
            assert means[r].tobytes() == rec.means[n].tobytes()
            assert weights[r].tobytes() == rec.weights[n].tobytes()
    if decay_rate == 1000.0 and k > 1:
        assert np.any(states[targets[-1]][1] == 0.0)


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("R", [1, 127, 128, 129, 259])
def test_lockstep_rows_replay_at_tile_and_chunk_edges(R, dim):
    # the engine draws for tiles of 128 replicas: R = 1 and 127 make one
    # partial tile, 128 one full tile, 129 a full tile and one replica, 259
    # two full tiles and a partial one.  Its chunk shrinks as the tile grows
    # relative to R, so the targets come from the same formula: they cross
    # a chunk edge and end in a partial chunk
    lower, span = _BOXES["offset"]
    domain = Domain(np.full(dim, lower), np.full(dim, lower + span))
    chunk = harness._ENSEMBLE_CHUNK * R // (R + min(harness._DRAW_TILE, R))
    targets = [1, chunk - 1, chunk, chunk + 1, 2 * chunk + 7]
    init = substream(R, dim)
    cfg = ModelConfig(k=3, decay_rate=0.1, domain=domain,
                      init_means=domain.uniform_points(init, 3),
                      init_weights=init.uniform(0.5, 50.0, 3), seed=R)
    states = harness._lockstep_states(
        cfg.init_means, cfg.init_weights, cfg.decay_rate, domain,
        [replica_stream(9, dim, r) for r in range(R)], targets)
    for r in range(R):
        rec = run_trajectory(cfg, targets[-1], stride=1, rng=replica_stream(9, dim, r))
        for n in targets:
            assert states[n][0][r].tobytes() == rec.means[n].tobytes()
            assert states[n][1][r].tobytes() == rec.weights[n].tobytes()


def _lockstep_peak(R, n_steps):
    # the generators are made before the trace starts: each holds its own
    # Philox state, which the engine does not own
    gens = [replica_stream(5, 0, r) for r in range(R)]
    tracemalloc.start()
    try:
        harness._lockstep_states(np.array([[0.25], [0.75]]), np.full(2, 5.0), 0.1, UNIT,
                                 gens, [n_steps])
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_lockstep_memory_is_bounded_per_replica():
    # the engine holds a fixed number of steps of draws per replica, 8 B
    # each, plus its state; a buffer 512 steps deep took 4240 B per replica
    # in this test, the 256-step one about 2190 B.  Holding the draws of the whole
    # run would take 64 KB per replica at 8000 steps
    R = 3000
    short = _lockstep_peak(R, 2000)
    long = _lockstep_peak(R, 8000)
    assert long < 2560 * R, long / R
    assert abs(long - short) < (64 << 10), (short, long)


def test_lockstep_ties_go_to_the_lower_index():
    # z = 0.5 lies exactly as far from 0.25 as from 0.75: replica 0 ties
    # categories 1 and 2 after category 0 lost, replica 1 ties 0 and 1
    means = np.array([[[0.0], [0.25], [0.75]], [[0.25], [0.75], [0.0]]])
    weights = np.ones(3)
    out = harness._lockstep_states(means, weights, 0.1, UNIT,
                                   [_FixedDraws([0.5]), _FixedDraws([0.5])], [1])
    for r, winner in enumerate([1, 0]):
        state = step(SystemState(means[r], weights), [0.5], 0.1)
        assert classify([0.5], means[r]) == winner
        assert np.array_equal(out[1][0][r], state.means)
        assert np.array_equal(out[1][1][r], state.weights)


def test_lockstep_single_replica_shares_the_start():
    # one replica, and means and weights without a replica axis
    domain = Domain(np.array([-1.0, 0.0]), np.array([3.0, 2.0]))
    init = substream(3, 2)
    cfg = ModelConfig(k=3, decay_rate=0.05, domain=domain,
                      init_means=domain.uniform_points(init, 3),
                      init_weights=init.uniform(0.5, 5.0, 3), seed=21)
    states = harness._lockstep_states(cfg.init_means, cfg.init_weights, 0.05,
                                      domain, [substream(21)], [512, 700])
    rec = run_trajectory(cfg, 700, stride=1)
    for n in (512, 700):
        assert states[n][0][0].tobytes() == rec.means[n].tobytes()
        assert states[n][1][0].tobytes() == rec.weights[n].tobytes()


def test_estimate_frozen_moments():
    est = _estimate(0.2, math.inf, 2000, [0.0, 1.0, 2.0, 3.0])
    assert est.mean == 1.5
    assert est.variance == pytest.approx(5.0 / 3.0, rel=1e-15)
    assert est.stderr == pytest.approx(math.sqrt(5.0 / 12.0), rel=1e-15)
    assert est.var_stderr == pytest.approx(math.sqrt(707.0 / 1728.0), rel=1e-15)
    assert est.n_replicas == 4
    assert est.n == math.inf and est.n_steps == 2000
    with pytest.raises(ParameterError):
        _estimate(0.2, 1, 1, [0.5])


def test_variance_curve_grid_layout():
    curve = boundary_variance_curve([0.2], [0, 10, math.inf], replicas=64,
                                    master_seed=5)
    assert [e.n for e in curve] == [0, 10, math.inf]
    assert curve[0].variance == 0.0
    assert curve[1].n_steps == 10
    assert curve[2].n_steps == equilibrium_steps(0.2)
    again = boundary_variance_curve([0.2], [0, 10, math.inf], replicas=64,
                                    master_seed=5)
    assert all(a == b for a, b in zip(curve, again))


# ---------------------------------------------------------------------------
# long-run properties

def _starvation_reference(winners, k, burn_in):
    # the whole-history scan that longest_starvation made before it streamed
    w = np.asarray(winners)
    n = w.shape[0]
    burn_in = min(burn_in, n)
    worst = 0
    for j in range(k):
        times = np.flatnonzero(w[burn_in:] == j) + burn_in + 1
        edges = np.concatenate(([burn_in], times, [n + 1]))
        worst = max(worst, int(np.diff(edges).max()) - 1)
    return worst


@pytest.mark.parametrize("k,n,burn_in,p", [
    pytest.param(2, 300, 63, (0.9, 0.1), id="burn-in-before-a-chunk-edge"),
    pytest.param(2, 300, 64, (0.9, 0.1), id="burn-in-on-a-chunk-edge"),
    pytest.param(2, 300, 65, (0.9, 0.1), id="burn-in-after-a-chunk-edge"),
    pytest.param(2, 300, 300, (0.5, 0.5), id="burn-in-at-n"),
    pytest.param(2, 300, 1000, (0.5, 0.5), id="burn-in-past-n"),
    pytest.param(2, 0, 0, (0.5, 0.5), id="no-steps"),
    pytest.param(3, 300, 10, (0.7, 0.0, 0.3), id="a-category-never-wins"),
    pytest.param(3, 300, 0, (0.6, 0.3, 0.1), id="three-categories"),
])
def test_streamed_starvation_equals_the_whole_history_scan(k, n, burn_in, p):
    # fed at once (longest_starvation) and in 32-step chunks, as a run's
    # winners come, the tracker gives the one-shot scan's gap
    rng = np.random.default_rng(burn_in + 1000 * n + 7 * k)
    for _ in range(20):
        winners = rng.choice(k, size=n, p=p).astype(np.uint8)
        want = _starvation_reference(winners, k, burn_in)
        assert longest_starvation(winners, k, burn_in) == want
        gaps = harness._StarvationTracker(k, burn_in)
        for t in range(0, n, 32):
            gaps.feed(winners[t:t + 32])
        assert gaps.result() == want


def test_non_extinction_reads_the_winners_of_one_run():
    # across several chunks of the step loop, the streamed check reports
    # the gap that the whole-history scan finds in the run's stored winners
    cfg = pair_config(0.1, seed=31)
    n_steps = 3 * _CHUNK + 5
    winners = run_trajectory(cfg, n_steps, stride=n_steps, record_winners=True).winners
    rep = property_non_extinction(cfg, n_steps, window=500)
    assert rep.stats["max_starvation"] == _starvation_reference(winners, 2, 100)
    assert rep.stats["burn_in"] == 100.0


def test_longest_starvation_counts_gaps():
    assert longest_starvation(np.array([0, 1] * 5), k=2) == 1
    assert longest_starvation(np.zeros(5, dtype=int), k=2) == 5
    assert longest_starvation(np.array([1, 1, 1, 0, 0, 0]), k=2, burn_in=3) == 3


def test_longest_starvation_rejects_negative_burn_in():
    # w[-5:] slices from the end and reports a gap longer than the run
    winners = np.array([0, 1, 0, 1, 0, 0, 0, 0, 1, 1])
    for bad in (-5, math.nan):
        with pytest.raises(ParameterError, match="burn_in"):
            longest_starvation(winners, 2, bad)


@pytest.mark.parametrize("bad", [
    pytest.param(math.inf, id="inf"),
    pytest.param(2.5, id="fractional"),
])
def test_longest_starvation_rejects_a_burn_in_that_is_not_whole(bad):
    # int() raises OverflowError on inf and silently reads 2.5 as 2
    winners = np.array([0, 1, 0, 1, 0, 0, 0, 0, 1, 1])
    with pytest.raises(ParameterError, match="burn_in must be a whole number"):
        longest_starvation(winners, 2, bad)


def test_longest_starvation_accepts_whole_floats_and_numpy_integers():
    winners = np.array([1, 1, 1, 0, 0, 0])
    assert longest_starvation(winners, 2, 3.0) == longest_starvation(winners, 2, np.int64(3)) == 3


def test_properties_pass_on_active_run():
    cfg = pair_config(0.1, seed=12)
    r1 = property_non_extinction(cfg, 20000, window=2000)
    r2 = property_non_collapse(cfg, 20000, check_stride=1000)
    r3 = property_non_convergence(cfg, 20000)
    assert r1.passed and r2.passed and r3.passed
    assert r1.stats["max_starvation"] < 2000
    assert r2.stats["volume_fraction"] > 0.5
    assert r3.stats["late_variance_min"] > variance_floor(0.1)


def test_non_extinction_rejects_nan_window():
    # nan < 1 is false, so a sign test alone turns a NaN window into a
    # failed check
    with pytest.raises(ParameterError, match="window must be positive"):
        property_non_extinction(pair_config(0.1, seed=12), 2000, window=math.nan)


@pytest.mark.parametrize("window", [math.inf, 2.5])
def test_non_extinction_window_must_be_a_whole_number(window):
    # an infinite window passed every run, and 2.5 was compared as it stood
    with pytest.raises(ParameterError, match="window must be a whole number"):
        property_non_extinction(pair_config(0.1, seed=12), 2000, window=window)


def test_non_extinction_window_accepts_whole_floats_and_numpy_integers():
    cfg = pair_config(0.1, seed=12)
    want = property_non_extinction(cfg, 2000, window=500)
    for window in (500.0, np.int64(500)):
        assert property_non_extinction(cfg, 2000, window=window) == want


def test_non_collapse_sample_count_must_be_a_whole_number():
    with pytest.raises(GeometryError, match="n_samples must be a whole number"):
        property_non_collapse(pair_config(0.1, seed=12), 2000, n_samples=10.5)


@pytest.mark.parametrize("n_samples,message", [
    (0, "at least 1"), (-1, "at least 1"), (2.5, "a whole number"), (math.nan, "a whole number"),
])
def test_non_collapse_checks_its_sample_count_before_running(monkeypatch, n_samples,
                                                              message):
    # a bad sample count was refused only after the whole trajectory had run
    def no_run(*args, **kwargs):
        raise AssertionError("simulated before checking the sample count")

    monkeypatch.setattr(harness, "run_trajectory", no_run)
    with pytest.raises(GeometryError, match=f"n_samples must be {message}"):
        property_non_collapse(pair_config(0.1, seed=12), 2000, n_samples=n_samples)


def test_properties_fail_when_doctored():
    cfg = pair_config(0.1, seed=12)
    assert not property_non_extinction(cfg, 20000, window=2).passed
    assert not property_non_collapse(cfg, 20000, check_stride=1000,
                                     volume_floor=2.0).passed
    frozen = pair_config(0.0, seed=12, means=(0.3, 0.8), weights=(5.0, 5.0))
    assert not property_non_convergence(frozen, 20000).passed


@pytest.mark.parametrize("decay_rate,n_steps", [(0.1, 2001), (0.0, 803), (1000.0, 400)])
def test_non_convergence_reads_the_tail_of_one_run(decay_rate, n_steps):
    # the check records only the last quarter; its stats must equal those
    # of the same window cut from a full stride-1 record.  At decay 1000 a
    # losing weight decays to 0.0, a state ModelConfig would refuse as input
    cfg = pair_config(decay_rate, seed=17)
    late = run_trajectory(cfg, n_steps, stride=1).means[-(n_steps // 4 + 1):, :, 0]
    var = late.var(axis=0)
    freq = (np.abs(np.diff(late, axis=0)) > MOVEMENT_EPSILON).mean(axis=0)
    rep = property_non_convergence(cfg, n_steps)
    assert rep.stats == {"late_variance_min": float(var.min()),
                         "late_variance_max": float(var.max()),
                         "movement_frequency_min": float(freq.min()),
                         "decay_rate": decay_rate, "n_steps": float(n_steps)}


@pytest.mark.parametrize("n", [1, 2, _VAR_SLICE - 1, _VAR_SLICE, _VAR_SLICE + 1, 250_001])
@pytest.mark.parametrize("constant", [False, True], ids=["varying", "constant-column"])
def test_column_variance_is_np_var_bit_for_bit(n, constant):
    # the late window's shape, (n, 2) C-contiguous; 250_001 rows is the
    # window of a 1e6-step run.  Means near 0.25 and 0.75 with small moves,
    # as the unit pair's, and a column of another scale
    rng = np.random.default_rng(n)
    a = np.empty((n, 2))
    a[:, 0] = 0.25 + 1e-3 * rng.standard_normal(n)
    a[:, 1] = 0.75 if constant else 1e4 * rng.random(n)
    assert np.array_equal(harness._column_variance(a), a.var(axis=0))


def test_non_convergence_rejects_other_models():
    cfg = ModelConfig(k=2, decay_rate=0.1,
                      domain=Domain(np.array([0.0]), np.array([2.0])),
                      init_means=np.array([[0.5], [1.5]]),
                      init_weights=np.ones(2), seed=1)
    with pytest.raises(ParameterError):
        property_non_convergence(cfg, 100)


def test_variance_floor_values():
    assert variance_floor(0.0) == 0.0
    assert variance_floor(0.3) == 0.1 * variance_of_Y(0.3, math.inf)
    assert MOVEMENT_EPSILON == 1e-4


def test_macqueen_cvt_settles_with_heavy_anchor():
    # bias-dominated regime: a single heavily weighted mean far from the
    # domain centroid drifts toward it, and the drift dominates sampling
    # noise at this horizon
    cfg = ModelConfig(k=1, decay_rate=0.0, domain=UNIT,
                      init_means=np.array([[0.1]]),
                      init_weights=np.array([1000.0]), seed=21)
    rep = property_macqueen_cvt(cfg, 10000)
    assert rep.passed
    assert rep.stats["deviation_final"] < 0.25 * rep.stats["deviation_mid"]


def test_macqueen_cvt_argument_errors():
    cfg = pair_config(0.1, seed=21)
    with pytest.raises(ParameterError):
        property_macqueen_cvt(cfg, 10000)          # needs decay_rate == 0
    frozen = pair_config(0.0, seed=21)
    with pytest.raises(ParameterError):
        property_macqueen_cvt(frozen, 10001)       # needs a multiple of 10


def test_theorem_suite_reports_expected_outcomes():
    cfg = pair_config(0.1, seed=12)
    results = theorem_suite(cfg, n_steps=20000, window=2000,
                            check_stride=1000)
    assert [expected for _, expected in results] == [True, True, True, False]
    assert all(rep.passed == expected for rep, expected in results)
    names = [rep.name for rep, _ in results]
    assert names == ["non-extinction", "non-collapse", "non-convergence",
                     "non-convergence"]


@pytest.mark.parametrize("decay_rate,n_steps,check_stride,window", [
    pytest.param(0.1, 2000, 100, 500, id="stride-divides-head"),
    pytest.param(0.1, 2050, 100, 500, id="head-remainder"),
    pytest.param(0.2, 400, 1000, 50, id="shorter-than-stride"),
    pytest.param(1000.0, 401, 30, 50, id="zero-weight"),
    pytest.param(0.1, 8, 4, 2, id="eight-steps"),
    pytest.param(0.1, 50_001, 1000, 500, id="many-chunks"),
])
def test_theorem_suite_equals_the_standalone_checks(decay_rate, n_steps,
                                                    check_stride, window):
    cfg = pair_config(decay_rate, seed=23)
    alone = [property_non_extinction(cfg, n_steps, window),
             property_non_collapse(cfg, n_steps, check_stride),
             property_non_convergence(cfg, n_steps),
             property_non_convergence(replace(cfg, decay_rate=0.0), n_steps)]
    suite = theorem_suite(cfg, n_steps, window, check_stride)
    assert [expected for _, expected in suite] == [True, True, True, False]
    assert len(suite) == len(alone)
    for (got, _), want in zip(suite, alone):
        assert got.name == want.name
        assert got.passed == want.passed
        assert list(got.stats.items()) == list(want.stats.items())
        assert list(got.thresholds.items()) == list(want.thresholds.items())


def test_theorem_suite_runs_the_decaying_trajectory_once(monkeypatch):
    runs = []
    real = harness._trajectory_blocks

    def counting(config, n_steps, stride, *args, **kwargs):
        runs.append((config.decay_rate, n_steps, stride))
        return real(config, n_steps, stride, *args, **kwargs)

    monkeypatch.setattr(harness, "_trajectory_blocks", counting)
    n_steps, check_stride = 2050, 100
    theorem_suite(pair_config(0.1, seed=23), n_steps, 500, check_stride)
    decaying = [(n, stride) for lam, n, stride in runs if lam == 0.1]
    assert sum(n for n, _ in decaying) == n_steps
    # every step of the last quarter is kept; the head keeps one state per
    # check_stride steps, plus one for the run that finishes it
    recorded = sum(n // stride for n, stride in decaying)
    assert recorded <= n_steps // 4 + n_steps // check_stride + 1


def _suite_peak(n_steps):
    # without the zero-decay control, a property_non_convergence run: it
    # would double the test's time, as tracemalloc slows the step loop
    # about 20 times
    tracemalloc.start()
    try:
        theorem_suite(pair_config(0.1, seed=29), n_steps, 10_000, 1000,
                      negative_control=False)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_theorem_suite_memory_does_not_grow_with_n_steps():
    # the suite stores no winners and no tail weights: only the tail's
    # means, 4 B per step, grow with n_steps.  The whole histories it kept
    # before took about 19 B per step, 2.0 MB more at 40 chunks than at 4
    # under tracemalloc.  The first call builds the step loops outside the trace
    theorem_suite(pair_config(0.1, seed=29), 8, 4, 4, negative_control=False)
    short = _suite_peak(4 * _CHUNK)
    long = _suite_peak(40 * _CHUNK)
    held = (40 * _CHUNK // 4 + 1) * 2 * 8
    assert long - short < held + (1 << 20), (short, long)


@pytest.mark.parametrize("decay_rate,k,n_steps,window,check_stride,message", [
    pytest.param(0.0, 2, 2000, 500, 100,
                 "non-extinction check requires decay_rate > 0", id="zero-decay"),
    pytest.param(0.1, 3, 2000, 500, 100,
                 "this check is calibrated to the 2-category uniform model on [0, 1]",
                 id="three-categories"),
    pytest.param(0.1, 2, 2000, 0, 100, "window must be positive", id="zero-window"),
    pytest.param(0.1, 2, 2000, math.nan, 100, "window must be positive", id="nan-window"),
    pytest.param(0.1, 2, 2000, math.inf, 100, "window must be a whole number",
                 id="inf-window"),
    pytest.param(0.1, 2, 2000, 2.5, 100, "window must be a whole number",
                 id="fractional-window"),
    pytest.param(0.1, 2, 2000, 500, 0, "stride must be a positive integer",
                 id="zero-stride"),
    pytest.param(0.1, 2, 7, 500, 100, "n_steps too small for a late-window estimate",
                 id="seven-steps"),
    pytest.param(0.1, 2, -1, 500, 100, "n_steps must be nonnegative",
                 id="negative-steps"),
])
def test_theorem_suite_rejects_its_input_before_running(
        monkeypatch, decay_rate, k, n_steps, window, check_stride, message):
    def no_run(*args, **kwargs):
        raise AssertionError("the suite simulated before checking its input")

    monkeypatch.setattr(harness, "substream", no_run)
    monkeypatch.setattr(harness, "_trajectory_blocks", no_run)
    cfg = ModelConfig(k=k, decay_rate=decay_rate, domain=UNIT,
                      init_means=np.linspace(0.2, 0.8, k)[:, None],
                      init_weights=np.ones(k), seed=23)
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        theorem_suite(cfg, n_steps, window, check_stride)


# ---------------------------------------------------------------------------
# 2-D snapshots

def snapshot_config(decay_rate, seed=7):
    return ModelConfig(k=2, decay_rate=decay_rate, domain=SQUARE,
                       init_means=np.array([[0.25, 0.5], [0.75, 0.5]]),
                       init_weights=np.array([5.0, 5.0]), seed=seed)


def test_snapshot_requires_2d():
    with pytest.raises(ParameterError):
        figure1_snapshot(pair_config(0.1, seed=7), 100)


def _scatter(value, at=(1, 2, 0)):
    # scatter points for snapshot_config, all at the box centre but one
    # coordinate
    points = np.full((2, 3, 2), 0.5)
    points[at] = value
    return points


@pytest.mark.parametrize("kwargs,error,message", [
    pytest.param({"prune_threshold": math.nan}, ParameterError, "prune_threshold",
                 id="nan-threshold"),
    pytest.param({"prune_threshold": -0.5}, ParameterError, "prune_threshold",
                 id="negative-threshold"),
    pytest.param({"grid_resolution": 0}, ParameterError, "grid_resolution", id="zero-grid"),
    pytest.param({"grid_resolution": -3}, ParameterError, "grid_resolution",
                 id="negative-grid"),
    pytest.param({"grid_resolution": 1}, ParameterError, "grid_resolution",
                 id="one-cell-grid"),
    pytest.param({"grid_resolution": math.nan}, ParameterError, "grid_resolution",
                 id="nan-grid"),
    pytest.param({"grid_resolution": math.inf}, ParameterError, "grid_resolution",
                 id="inf-grid"),
    pytest.param({"grid_resolution": 2.5}, ParameterError, "grid_resolution",
                 id="fractional-grid"),
    pytest.param({"scatter_points": np.zeros((1, 3, 2))}, ParameterError,
                 r"scatter_points must have shape \(2, count, 2\)", id="scatter-of-another-k"),
    pytest.param({"scatter_points": _scatter(math.nan)}, ParameterError,
                 "scatter_points must be finite", id="nan-scatter-point"),
    pytest.param({"scatter_points": _scatter(-math.inf, at=(0, 0, 1))}, ParameterError,
                 "scatter_points must be finite", id="infinite-scatter-point"),
    pytest.param({"scatter_points": _scatter(1.5)}, DomainError,
                 "scatter_points must lie inside the domain", id="scatter-point-above-the-box"),
    pytest.param({"scatter_points": _scatter(-1e-9, at=(0, 1, 1))}, DomainError,
                 "scatter_points must lie inside the domain", id="scatter-point-below-the-box"),
])
def test_snapshot_rejects_bad_threshold_and_grid(monkeypatch, kwargs, error, message):
    # int() read 2.5 as 2 and raised OverflowError on inf, after the run,
    # scatter points of another shape raised IndexError, and a NaN or an
    # outside scatter point was run and reported among the exemplars
    def no_run(*args, **kwargs):
        raise AssertionError("the snapshot simulated before checking its input")

    monkeypatch.setattr(harness, "_trajectory_blocks", no_run)
    monkeypatch.setattr(harness, "substream", no_run)
    with pytest.raises(error, match=message):
        figure1_snapshot(snapshot_config(0.1), 10, **kwargs)


def test_snapshot_takes_scatter_points_on_the_box_edge():
    points = _scatter(1.0)
    points[0, 0] = [0.0, 0.0]
    snap = figure1_snapshot(snapshot_config(0.1), 10, prune_threshold=0.0,
                            scatter_points=points, grid_resolution=8)
    assert {(0.0, 0.0), (1.0, 0.5)} <= {tuple(p) for p in snap.positions.tolist()}


def test_snapshot_prunes_decayed_exemplars():
    # weights fall below 0.01 after ln(100)/0.1 ~ 46 steps, so only the
    # recent past survives; the lumped initial mass is long gone by 300
    snap = figure1_snapshot(snapshot_config(0.1), 300)
    assert 40 <= snap.positions.shape[0] <= 60
    assert snap.weights.min() > 0.01
    assert snap.positions.shape == (snap.weights.shape[0], 2)
    assert set(np.unique(snap.categories)) <= {0, 1}
    assert snap.means.shape == (2, 2)
    assert snap.step == 300
    assert snap.boundary_segments.shape[0] > 0


def test_snapshot_without_decay_keeps_everything():
    snap = figure1_snapshot(snapshot_config(0.0), 200, prune_threshold=0.0)
    assert snap.positions.shape[0] == 2 + 200


def full_run_snapshot(config, n_steps, prune_threshold, scatter_points=None,
                      grid_resolution=8):
    # the snapshot as one run feeding the cloud from step 0
    if scatter_points is None:
        points, weights = config.init_means[:, None, :], config.init_weights[:, None]
    else:
        points, weights = scatter_points, np.ones(scatter_points.shape[:2])
    cloud = ExemplarCloud(config.k, 2)
    for j in range(config.k):
        cloud.seed_category(j, points[j], weights[j], birth_step=0)
    rec = run_trajectory(config, n_steps, stride=max(1, n_steps), cloud=cloud)
    kept = cloud.pruned(n_steps, config.decay_rate, prune_threshold)
    means = rec.means[-1]
    return harness.SnapshotResult(
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


SNAPSHOT_SCATTER = np.random.default_rng(5).random((2, 3, 2))


@pytest.mark.parametrize("decay_rate", [0.0, 1e-300, 0.05, 3.0])
@pytest.mark.parametrize("threshold", [0.0, 5e-324, 0.01, 1.0, 1e308, math.inf])
def test_snapshot_equals_one_run_feeding_the_cloud(decay_rate, threshold):
    cfg = snapshot_config(decay_rate)
    horizon = harness._survivor_horizon(10**6, decay_rate, threshold)
    lengths = {0, 1, 60}
    if horizon < 10**6:
        lengths |= {n for n in (horizon - 1, horizon, horizon + 1) if n >= 0}
    for n_steps in sorted(lengths):
        for scatter in (None, SNAPSHOT_SCATTER):
            got = figure1_snapshot(cfg, n_steps, threshold, scatter_points=scatter,
                                   grid_resolution=8)
            want = full_run_snapshot(cfg, n_steps, threshold, scatter)
            for field in harness.SnapshotResult.__dataclass_fields__:
                a, b = getattr(got, field), getattr(want, field)
                assert np.array_equal(a, b), (n_steps, scatter is not None, field)
                assert np.asarray(a).dtype == np.asarray(b).dtype


@pytest.mark.parametrize("n_steps,decay_rate,threshold,expected", [
    pytest.param(10**6, 0.05, 0.01, 94, id="fig1"),
    pytest.param(50, 0.05, 0.01, 50, id="short-run"),
    pytest.param(0, 0.05, 0.01, 0, id="no-steps"),
    pytest.param(10**6, 0.0, 0.01, 10**6, id="no-decay"),
    pytest.param(10**6, 0.05, 0.0, 10**6, id="zero-threshold"),
    pytest.param(10**6, 0.05, 1.0, 0, id="unit-threshold"),
    pytest.param(10**6, 0.05, math.inf, 0, id="inf-threshold"),
    pytest.param(10**6, 0.05, 5e-324, 14890, id="subnormal-threshold"),
    pytest.param(10**6, 1e-300, 0.01, 10**6, id="tiny-decay"),
    pytest.param(10**6, 5e-324, 5e-324, 10**6, id="subnormal-both"),
])
def test_survivor_horizon(n_steps, decay_rate, threshold, expected):
    assert harness._survivor_horizon(n_steps, decay_rate, threshold) == expected


def test_snapshot_adds_only_the_exemplars_that_can_survive(monkeypatch):
    adds = []
    real = ExemplarCloud.add

    def counting(self, category, location, birth_step):
        adds.append(birth_step)
        return real(self, category, location, birth_step)

    monkeypatch.setattr(ExemplarCloud, "add", counting)
    spec = parse_config("preset = fig1\nn_steps = 3000\n")
    snap = figure1_snapshot(spec.model, spec.n_steps, spec.prune_threshold,
                            scatter_points=spec.scatter_points, grid_resolution=8)
    # fig1 keeps weights above 0.01 at decay 0.05: ages up to 92 survive
    assert (spec.model.decay_rate, spec.prune_threshold) == (0.05, 0.01)
    assert adds == list(range(1, 95))
    assert snap.step == 3000 and snap.positions.shape[0] == 93


def _reference_grid_segments(means, domain, resolution):
    # the whole-grid version _grid_boundary_segments replaced: all res^2
    # centres built by meshgrid + column_stack, labelled by the broadcast
    # argmin in blocks of 1 << 16 rows, as assign_cells then did
    lo = domain.lower
    span = domain.upper - domain.lower
    dx = span[0] / resolution
    dy = span[1] / resolution
    cx = lo[0] + (np.arange(resolution) + 0.5) * dx
    cy = lo[1] + (np.arange(resolution) + 0.5) * dy
    X, Y = np.meshgrid(cx, cy, indexing="ij")
    pts = np.column_stack([X.ravel(), Y.ravel()])
    labels = np.empty(len(pts), dtype=np.intp)
    for start in range(0, len(pts), 1 << 16):
        diff = pts[start:start + (1 << 16), None, :] - means[None, :, :]
        sq = diff * diff
        labels[start:start + len(diff)] = np.argmin(sq[..., 0] + sq[..., 1], axis=1)
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


# a non-unit square box has the same centres on both axes, so every
# diagonal centre (c, c) is exactly as far from (a, b) as from (b, a): the
# bisector of means 0 and 1 runs through grid centres at every resolution,
# and those ties go to mean 0
TIE_BOX = Domain(np.array([-1.5, -1.5]), np.array([2.5, 2.5]))
TIE_MEANS = np.array([[0.3, 1.9], [1.9, 0.3], [-1.0, -1.2]])


@pytest.mark.parametrize("resolution", [2, 3, 255, 512, 700, 1000])
def test_grid_boundary_segments_match_the_whole_grid(resolution):
    # 700 takes 11 rows per block and leaves a 7-row tail
    segs = _grid_boundary_segments(TIE_MEANS, TIE_BOX, resolution)
    assert segs.dtype == np.float64
    assert np.array_equal(segs, _reference_grid_segments(TIE_MEANS, TIE_BOX, resolution))


@pytest.mark.parametrize("resolution", [64, 65, 255])
def test_grid_boundary_segments_in_one_row_blocks(monkeypatch, resolution):
    # 64 points a block hold one grid row from resolution 64 on, so every
    # pair of neighbouring rows spans a block edge
    monkeypatch.setattr(harness, "_ASSIGN_CHUNK", 64)
    segs = _grid_boundary_segments(TIE_MEANS, TIE_BOX, resolution)
    assert np.array_equal(segs, _reference_grid_segments(TIE_MEANS, TIE_BOX, resolution))


def test_grid_boundary_segments_memory_does_not_grow_with_the_grid():
    # the label grid alone is 32 MB at 2048; held whole, the trace peaked
    # at 37 MB.  Block by block it is about 1 MB, mostly the segments
    means = np.array([[0.3, 0.3], [0.7, 0.3], [0.3, 0.7], [0.68, 0.71]])
    tracemalloc.start()
    try:
        segs = _grid_boundary_segments(means, SQUARE, 2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(segs) > 2048
    assert peak < 4 << 20, peak


def test_grid_boundary_segments_split_pair():
    segs = _grid_boundary_segments(np.array([[0.25, 0.5], [0.75, 0.5]]),
                                   SQUARE, resolution=8)
    assert segs.shape == (8, 2, 2)
    assert np.all(segs[:, :, 0] == 0.5)
    lengths = np.abs(segs[:, 1, 1] - segs[:, 0, 1])
    assert lengths.sum() == pytest.approx(1.0, abs=1e-12)
