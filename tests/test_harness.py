import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exdyn import (
    Domain,
    DistributionSpec,
    EnsembleEstimate,
    ExemplarCloud,
    ModelConfig,
    ParameterError,
    boundary_samples,
    boundary_variance_curve,
    classify,
    equilibrium_steps,
    figure1_snapshot,
    limit_total_weight,
    longest_starvation,
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
from exdyn.harness import MOVEMENT_EPSILON, _estimate, _grid_boundary_segments, variance_floor

UNIT = Domain(np.array([0.0]), np.array([1.0]))
SQUARE = Domain(np.array([0.0, 0.0]), np.array([1.0, 1.0]))


def pair_config(decay_rate, seed, means=(0.25, 0.75), weights=(1.0, 1.0)):
    return ModelConfig(k=2, decay_rate=decay_rate, domain=UNIT,
                       dist=DistributionSpec.uniform(),
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


def test_record_final_state_and_boundaries():
    cfg = pair_config(0.1, seed=3)
    rec = run_trajectory(cfg, 100, stride=10)
    s = rec.final_state()
    assert s.step == 100
    assert np.array_equal(s.means, rec.means[-1])
    b = rec.boundaries
    assert b.shape == (11,)
    assert b[0] == 0.5


def test_boundaries_require_1d_pair():
    cfg = ModelConfig(k=3, decay_rate=0.1, domain=UNIT,
                      dist=DistributionSpec.uniform(),
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
    # k=2 in 1-D runs the pair engine, every other shape the generic one;
    # both must replay model.step on the same draws bit for bit
    domain = Domain(np.full(dim, lower), np.full(dim, lower + span))
    init = substream(seed, 99)
    cfg = ModelConfig(k=k, decay_rate=decay_rate, domain=domain,
                      dist=DistributionSpec.uniform(),
                      init_means=domain.uniform_points(init, k),
                      init_weights=init.uniform(0.5, 50.0, k), seed=seed)
    rec = run_trajectory(cfg, n_steps, stride=1, record_winners=True)
    assert np.array_equal(rec.steps, np.arange(n_steps + 1))
    g = substream(cfg.seed)
    state = cfg.initial_state()
    for t in range(n_steps + 1):
        if t:
            z = sample(cfg.dist, cfg.domain, g)
            assert rec.winners[t - 1] == classify(z, state.means)
            state = step(state, z, cfg.decay_rate)
        assert np.array_equal(rec.means[t], state.means)
        assert np.array_equal(rec.weights[t], state.weights)


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
                      dist=DistributionSpec.uniform(),
                      init_means=np.array([[0.2], [0.5], [0.8]]),
                      init_weights=np.array([2.0, 1.0, 3.0]), seed=9)
    cloud = ExemplarCloud(3, 1)
    for j in range(3):
        cloud.seed_category(j, cfg.init_means[j][None, :],
                            [cfg.init_weights[j]], birth_step=0)
    rec = run_trajectory(cfg, 2000, stride=2000, cloud=cloud)
    means, totals = cloud.weighted_means(2000, 0.05)
    np.testing.assert_allclose(means, rec.means[-1], rtol=1e-9)
    np.testing.assert_allclose(totals, rec.weights[-1], rtol=1e-9)
    assert cloud.size() == 3 + 2000


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


def test_boundary_samples_row_matches_single_run():
    # replica r of grid point i draws from substream(seed, i, r), so one
    # row of the vectorized ensemble is recoverable with run_trajectory
    W = limit_total_weight(0.1)
    out = boundary_samples(0.1, [0, 50, 200], replicas=8, master_seed=77,
                           index=3)
    cfg = pair_config(0.1, seed=77, weights=(W / 2.0, W / 2.0))
    rec = run_trajectory(cfg, 200, stride=50, rng=replica_stream(77, 3, 5))
    assert out[0][5] == rec.boundaries[0]
    assert out[50][5] == rec.boundaries[1]
    assert out[200][5] == rec.boundaries[4]


def test_boundary_samples_validation():
    with pytest.raises(ParameterError):
        boundary_samples(0.0, [10], 4, 1)
    with pytest.raises(ParameterError):
        boundary_samples(0.1, [10], 0, 1)
    with pytest.raises(ParameterError):
        boundary_samples(0.1, [-1, 10], 4, 1)


def test_estimate_frozen_moments():
    est = _estimate("b", 0.2, math.inf, 2000, [0.0, 1.0, 2.0, 3.0])
    assert est.mean == 1.5
    assert est.variance == pytest.approx(5.0 / 3.0, rel=1e-15)
    assert est.stderr == pytest.approx(math.sqrt(5.0 / 12.0), rel=1e-15)
    assert est.var_stderr == pytest.approx(math.sqrt(707.0 / 1728.0), rel=1e-15)
    assert est.n_replicas == 4
    assert est.n == math.inf and est.n_steps == 2000
    with pytest.raises(ParameterError):
        _estimate("b", 0.2, 1, 1, [0.5])


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

def test_longest_starvation_counts_gaps():
    assert longest_starvation(np.array([0, 1] * 5), k=2) == 1
    assert longest_starvation(np.zeros(5, dtype=int), k=2) == 5
    assert longest_starvation(np.array([1, 1, 1, 0, 0, 0]), k=2, burn_in=3) == 3


def test_properties_pass_on_active_run():
    cfg = pair_config(0.1, seed=12)
    r1 = property_non_extinction(cfg, 20000, window=2000)
    r2 = property_non_collapse(cfg, 20000, check_stride=1000)
    r3 = property_non_convergence(cfg, 20000)
    assert r1.passed and r2.passed and r3.passed
    assert r1.stats["max_starvation"] < 2000
    assert r2.stats["volume_fraction"] > 0.5
    assert r3.stats["late_variance_min"] > variance_floor(0.1)


def test_properties_fail_when_doctored():
    cfg = pair_config(0.1, seed=12)
    assert not property_non_extinction(cfg, 20000, window=2).passed
    assert not property_non_collapse(cfg, 20000, check_stride=1000,
                                     volume_floor=2.0).passed
    frozen = pair_config(0.0, seed=12, means=(0.3, 0.8), weights=(5.0, 5.0))
    assert not property_non_convergence(frozen, 20000).passed


def test_non_convergence_rejects_other_models():
    cfg = ModelConfig(k=2, decay_rate=0.1,
                      domain=Domain(np.array([0.0]), np.array([2.0])),
                      dist=DistributionSpec.uniform(),
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
                      dist=DistributionSpec.uniform(),
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


# ---------------------------------------------------------------------------
# 2-D snapshots

def snapshot_config(decay_rate, seed=7):
    return ModelConfig(k=2, decay_rate=decay_rate, domain=SQUARE,
                       dist=DistributionSpec.uniform(),
                       init_means=np.array([[0.25, 0.5], [0.75, 0.5]]),
                       init_weights=np.array([5.0, 5.0]), seed=seed)


def test_snapshot_requires_2d():
    with pytest.raises(ParameterError):
        figure1_snapshot(pair_config(0.1, seed=7), 100)


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


def test_grid_boundary_segments_split_pair():
    segs = _grid_boundary_segments(np.array([[0.25, 0.5], [0.75, 0.5]]),
                                   SQUARE, resolution=8)
    assert segs.shape == (8, 2, 2)
    assert np.all(segs[:, :, 0] == 0.5)
    lengths = np.abs(segs[:, 1, 1] - segs[:, 0, 1])
    assert lengths.sum() == pytest.approx(1.0, abs=1e-12)
