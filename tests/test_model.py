"""Unit tests for the exact dynamics: hand-computed step oracles, weight
identities, and the samplers."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exdyn import (
    Domain,
    DomainError,
    ExemplarCloud,
    ModelConfig,
    ParameterError,
    SystemState,
    classify,
    limit_total_weight,
    sample,
    step,
    substream,
    total_weight,
    weight_bound,
)

LN2 = math.log(2.0)
UNIT = Domain(np.array([0.0]), np.array([1.0]))


def pair_state(means, weights):
    return SystemState(np.asarray(means, dtype=float).reshape(-1, 1),
                       np.asarray(weights, dtype=float))


# ---------------------------------------------------------------------------
# Domain

def test_domain_rejects_empty_interior():
    with pytest.raises(ParameterError):
        Domain(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(ParameterError):
        Domain(np.array([2.0]), np.array([1.0]))
    with pytest.raises(ParameterError):
        Domain(np.array([0.0]), np.array([math.inf]))
    with pytest.raises(ParameterError):
        Domain(np.array([-math.inf, 0.0]), np.array([0.0, 1.0]))
    with pytest.raises(ParameterError):
        Domain(np.array([0.0]), np.array([math.nan]))
    with pytest.raises(ParameterError):
        Domain(np.array([]), np.array([]))


def test_domain_geometry():
    box = Domain(np.array([0.0, -1.0]), np.array([2.0, 2.0]))
    assert box.dim == 2
    assert box.volume == pytest.approx(6.0)
    assert box.diameter == pytest.approx(math.sqrt(4.0 + 9.0))
    assert box.contains([1.0, 0.0])
    assert not box.contains([1.0, 2.5])
    clipped = box.clip(np.array([[3.0, -5.0]]))
    assert np.array_equal(clipped, [[2.0, -1.0]])


def test_domain_uniform_points_stay_inside():
    box = Domain(np.array([-1.0, 5.0]), np.array([1.0, 6.0]))
    pts = box.uniform_points(substream(3), 1000)
    assert pts.shape == (1000, 2)
    assert np.all(pts >= box.lower) and np.all(pts <= box.upper)


# ---------------------------------------------------------------------------
# classify

def test_classify_tie_goes_to_lower_index():
    assert classify(0.5, [0.25, 0.75]) == 0


def test_classify_unique_nearest():
    assert classify(0.1, [0.25, 0.75]) == 0
    assert classify([0.9, 0.9], [[0.2, 0.2], [0.8, 0.8]]) == 1


def test_classify_rejects_point_outside_domain():
    with pytest.raises(DomainError):
        classify(1.5, [0.25, 0.75], UNIT)


def test_classify_permutation_covariant():
    rng = substream(17)
    means = rng.random((5, 2))
    perm = np.array([3, 0, 4, 1, 2])
    for z in rng.random((50, 2)):
        i = classify(z, means)
        j = classify(z, means[perm])
        assert perm[j] == i


# ---------------------------------------------------------------------------
# step oracles (hand evaluations of the update rule)

def test_step_single_category_half_decay():
    # e^-L = 1/2: x' = (0.5*0.5 + 1)/(0.5 + 1) = 5/6, w' = 1.5
    state = pair_state([0.5], [1.0])
    new = step(state, [1.0], LN2)
    assert new.means[0, 0] == pytest.approx(5.0 / 6.0, abs=1e-15)
    assert new.weights[0] == pytest.approx(1.5, abs=1e-15)
    assert new.step == 1


def test_step_zero_decay_is_running_mean():
    # x' = (0.5*3 + 0.9)/4 = 0.6, w' = 4
    state = pair_state([0.5], [3.0])
    new = step(state, [0.9], 0.0)
    assert new.means[0, 0] == pytest.approx(0.6, abs=1e-15)
    assert new.weights[0] == 4.0


def test_step_loser_is_untouched():
    # z = 1 lands on category 2; both means stay put bit for bit
    # (x2' = (1*0.5 + 1)/1.5 = 1 exactly), weights become (0.5, 1.5)
    state = pair_state([0.0, 1.0], [1.0, 1.0])
    new = step(state, [1.0], LN2)
    assert np.array_equal(new.means, state.means)
    assert np.array_equal(new.weights, [0.5, 1.5])


def test_step_does_not_mutate_input():
    state = pair_state([0.2, 0.8], [1.0, 1.0])
    before = state.copy()
    step(state, [0.3], 0.5)
    assert np.array_equal(state.means, before.means)
    assert np.array_equal(state.weights, before.weights)
    assert state.step == 0


def test_step_rejects_point_outside_domain():
    with pytest.raises(DomainError):
        step(pair_state([0.5], [1.0]), [1.5], 0.1, UNIT)


def test_step_exact_hit_only_bumps_weight():
    state = pair_state([0.25, 0.75], [2.0, 2.0])
    new = step(state, [0.25], LN2)
    assert new.means[0, 0] == 0.25
    assert new.weights[0] == 2.0 * 0.5 + 1.0


# ---------------------------------------------------------------------------
# weight bookkeeping

def test_total_weight_fixed_point_of_recursion():
    # W = 1/(1 - 1/2) = 2; starting there the total stays there
    state = pair_state([0.25, 0.75], [1.0, 1.0])
    assert total_weight(state) == 2.0
    new = step(state, [0.1], LN2)
    assert total_weight(new) == 2.0


def test_total_weight_iterates_toward_limit():
    state = pair_state([0.5], [10.0])
    s1 = step(state, [0.5], LN2)
    s2 = step(s1, [0.5], LN2)
    assert total_weight(s1) == 6.0
    assert total_weight(s2) == 4.0


def test_total_weight_no_decay_grows_linearly():
    state = pair_state([0.3, 0.7], [1.5, 2.5])
    for _ in range(7):
        state = step(state, [0.4], 0.0)
    assert total_weight(state) == pytest.approx(4.0 + 7.0, abs=1e-12)


def test_limit_total_weight():
    assert limit_total_weight(LN2) == pytest.approx(2.0, abs=1e-15)
    with pytest.raises(ParameterError):
        limit_total_weight(0.0)
    # 1 / decay_rate overflows below about 5.6e-309
    assert limit_total_weight(5.6e-309) < math.inf
    with pytest.raises(ParameterError, match="not finite"):
        limit_total_weight(1e-320)


def test_weight_bound_branches():
    assert weight_bound([0.5, 0.5], LN2) == 2.0
    assert weight_bound([5.0, 5.0], LN2) == 10.0
    # equality case: sum w0 = W
    assert weight_bound([1.0, 1.0], LN2) == 2.0
    with pytest.raises(ParameterError):
        weight_bound([1.0], 0.0)


def test_limit_total_weight_rejects_nan():
    # nan <= 0 is false, so a sign test alone let NaN through as a NaN limit
    with pytest.raises(ParameterError, match="requires decay_rate > 0"):
        limit_total_weight(math.nan)
    assert limit_total_weight(math.inf) == 1.0


def test_weight_bound_rejects_nan():
    with pytest.raises(ParameterError, match="requires decay_rate > 0"):
        weight_bound([1.0, 1.0], math.nan)
    assert weight_bound([0.25, 0.25], math.inf) == 1.0


# ---------------------------------------------------------------------------
# sampling

def test_sample_uniform_matches_batch_draws():
    # single draws consume the stream exactly like a batched fill, so the
    # batched path can stand in for sample() in the long statistics below
    singles = np.array([sample(UNIT, substream(7))[0] for _ in range(1)])
    g1 = substream(7)
    xs = np.array([sample(UNIT, g1)[0] for _ in range(1000)])
    g2 = substream(7)
    batch = UNIT.uniform_points(g2, 1000)[:, 0]
    assert np.array_equal(xs, batch)
    assert singles[0] == batch[0]


def test_sample_uniform_mean_clt_bound():
    xs = UNIT.uniform_points(substream(11), 1_000_000)[:, 0]
    # 3 sigma / sqrt(n) with sigma^2 = 1/12 gives 0.00087; 0.002 is generous
    assert abs(xs.mean() - 0.5) < 0.002
    assert xs.min() >= 0.0 and xs.max() <= 1.0


# ---------------------------------------------------------------------------
# config and state validation

def test_model_config_validation():
    def build(**kw):
        base = dict(k=2, decay_rate=0.1, domain=UNIT,
                    init_means=np.array([[0.25], [0.75]]),
                    init_weights=np.array([1.0, 1.0]), seed=1)
        base.update(kw)
        return ModelConfig(**base)

    build()  # valid
    with pytest.raises(ParameterError, match="init_means"):
        build(init_means=np.array([[0.5], [0.5]]))
    with pytest.raises(ParameterError):
        build(init_weights=np.array([1.0, 0.0]))
    with pytest.raises(DomainError):
        build(init_means=np.array([[0.25], [1.75]]))
    with pytest.raises(ParameterError):
        build(k=0, init_means=np.zeros((0, 1)), init_weights=np.zeros(0))
    with pytest.raises(ParameterError):
        build(decay_rate=-0.1)
    for bad in (math.nan, math.inf):
        with pytest.raises(ParameterError, match="decay_rate"):
            build(decay_rate=bad)
        with pytest.raises(ParameterError, match="init_weights"):
            build(init_weights=np.array([1.0, bad]))
    with pytest.raises(ParameterError):
        build(seed=2**64)


@pytest.mark.parametrize("seed,match", [
    (1.5, "whole number"),
    (-0.5, "whole number"),
    (math.nan, "whole number"),
    (math.inf, "whole number"),
    (-math.inf, "whole number"),
    (-1, "64 bits"),
    (2**64, "64 bits"),
])
def test_model_config_seed_is_a_whole_64_bit_number(seed, match):
    # int(seed) truncated 1.5 and -0.5 to seeds that ran, and raised
    # ValueError on NaN
    with pytest.raises(ParameterError, match=f"seed must .*{match}"):
        ModelConfig(k=2, decay_rate=0.1, domain=UNIT,
                    init_means=np.array([[0.25], [0.75]]),
                    init_weights=np.array([1.0, 1.0]), seed=seed)


def _loop_config_error(means, domain):
    # the per-mean loop ModelConfig ran before its distinct-means check
    # sorted the rows, kept as the reference for which error comes first
    for i in range(len(means)):
        if not domain.contains(means[i]):
            return DomainError, f"init_means[{i}] lies outside the domain"
        for j in range(i + 1, len(means)):
            if np.array_equal(means[i], means[j]):
                return ParameterError, f"init_means {i} and {j} coincide"
    return None


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(1, 3).flatmap(lambda dim: st.lists(
    st.lists(st.sampled_from([-1.0, -0.0, 0.0, 1.0, 2.0, math.nan]),
             min_size=dim, max_size=dim),
    min_size=1, max_size=12)))
def test_config_mean_checks_match_the_double_loop(rows):
    # small integers make many coincident rows; -0.0 equals 0.0 and a NaN
    # row equals nothing, as with np.array_equal; 2.0 and NaN lie outside
    means = np.array(rows)
    k, dim = means.shape
    box = Domain(-np.ones(dim), np.ones(dim))
    expected = _loop_config_error(means, box)
    try:
        ModelConfig(k=k, decay_rate=0.1, domain=box,
                    init_means=means, init_weights=np.ones(k), seed=1)
        got = None
    except (DomainError, ParameterError) as exc:
        got = type(exc), str(exc)
    assert got == expected


def test_distinct_means_check_is_fast_at_large_k():
    k = 1000
    box = Domain(np.array([0.0]), np.array([1.0]))
    means = np.linspace(0.0, 1.0, k)[:, None]

    def build(m):
        return ModelConfig(k=k, decay_rate=0.1, domain=box,
                           init_means=m, init_weights=np.ones(k), seed=1)

    t0 = time.perf_counter()
    build(means)
    dup = means.copy()
    dup[999] = dup[500]
    dup[700] = dup[600]
    with pytest.raises(ParameterError, match="init_means 500 and 999 coincide"):
        build(dup)
    assert time.perf_counter() - t0 < 0.1


def test_system_state_validation():
    with pytest.raises(ParameterError):
        SystemState(np.array([[0.5]]), np.array([1.0, 2.0]))
    for bad in (-1.0, math.inf, math.nan):
        with pytest.raises(ParameterError):
            SystemState(np.array([[0.5]]), np.array([bad]))
    # a weight the dynamics decay to 0.0 is still a state
    assert SystemState(np.array([[0.5]]), np.array([0.0])).weights[0] == 0.0


# ---------------------------------------------------------------------------
# property tests

@settings(max_examples=200, deadline=None)
@given(
    x1=st.floats(0.0, 1.0), x2=st.floats(0.0, 1.0),
    w1=st.floats(0.01, 50.0), w2=st.floats(0.01, 50.0),
    z=st.floats(0.0, 1.0), lam=st.floats(0.0, 3.0),
)
def test_step_bookkeeping_invariant(x1, x2, w1, w2, z, lam):
    if x1 == x2:
        return
    state = pair_state([x1, x2], [w1, w2])
    new = step(state, [z], lam)
    decay = math.exp(-lam)
    i = classify(z, state.means)
    for j in range(2):
        if j == i:
            assert new.weights[j] == state.weights[j] * decay + 1.0
        else:
            assert new.weights[j] == state.weights[j] * decay
            assert new.means[j, 0] == state.means[j, 0]
    # winner's mean is a convex combination, so it stays inside the domain
    assert -1e-12 <= new.means[i, 0] <= 1.0 + 1e-12


@settings(max_examples=100, deadline=None)
@given(zs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30))
def test_zero_decay_reduces_to_running_mean(zs):
    # after m assignments to a category, its mean is the weighted average of
    # the initial mean (at its initial weight) and the m assigned samples
    x0 = np.array([0.2, 0.9])
    w0 = np.array([2.0, 1.0])
    state = pair_state(x0, w0)
    sums = x0 * w0
    counts = w0.copy()
    for z in zs:
        i = classify(z, state.means)
        state = step(state, [z], 0.0)
        sums[i] += z
        counts[i] += 1.0
    np.testing.assert_allclose(state.means[:, 0], sums / counts, rtol=1e-12)
    np.testing.assert_allclose(state.weights, counts, rtol=0, atol=0)


# ---------------------------------------------------------------------------
# exemplar cloud

def test_cloud_decays_weights_lazily():
    cloud = ExemplarCloud(k=1, dim=1)
    cloud.seed_category(0, np.array([[0.2]]), [3.0])
    cloud.add(0, [0.6], birth_step=1)
    locs, w = cloud.category_arrays(0, now=3, decay_rate=0.5)
    assert np.array_equal(locs, [[0.2], [0.6]])
    assert np.array_equal(w, [3.0 * np.exp(-0.5 * 3), 1.0 * np.exp(-0.5 * 2)])


def test_cloud_add_keeps_a_copy():
    cloud = ExemplarCloud(k=2, dim=2)
    z = np.array([0.25, 0.5])
    cloud.add(0, z, birth_step=1)
    z[0] = 0.75
    y = [0.125, 0.375]
    cloud.add(1, y, birth_step=2)
    y[1] = 1.0
    assert np.array_equal(cloud.category_arrays(0, 2, 0.0)[0], [[0.25, 0.5]])
    assert np.array_equal(cloud.category_arrays(1, 2, 0.0)[0], [[0.125, 0.375]])


def test_cloud_add_rejects_a_location_of_another_length():
    cloud = ExemplarCloud(k=1, dim=2)
    for location in ([0.1, 0.2, 0.3, 0.4], [0.1]):
        with pytest.raises(ParameterError, match="expected 2"):
            cloud.add(0, location, birth_step=1)
    with pytest.raises(ParameterError, match="expected 2"):
        cloud.seed_category(0, np.ones((2, 3)), [1.0, 1.0])
    assert cloud.category_arrays(0, 1, 0.0)[0].shape == (0, 2)


@pytest.mark.parametrize("category", [-1, 2, 1.5, math.nan, math.inf])
def test_cloud_rejects_a_category_outside_its_range(category):
    # a negative list index filed the point under the last category, and 2
    # raised IndexError
    cloud = ExemplarCloud(k=2, dim=1)
    with pytest.raises(ParameterError, match="category"):
        cloud.add(category, [0.1], birth_step=1)
    with pytest.raises(ParameterError, match="category"):
        cloud.seed_category(category, np.array([[0.2]]), [1.0])
    for j in range(2):
        assert cloud.category_arrays(j, 1, 0.0)[0].shape == (0, 1)


def test_cloud_takes_whole_number_categories():
    cloud = ExemplarCloud(k=2, dim=1)
    cloud.add(np.int64(1), [0.1], birth_step=1)
    cloud.seed_category(1.0, np.array([[0.2]]), [2.0])
    assert np.array_equal(cloud.category_arrays(1, 1, 0.0)[0], [[0.1], [0.2]])


def test_cloud_seed_rejects_a_count_mismatch():
    cloud = ExemplarCloud(k=1, dim=2)
    for weights in ([1.0], [1.0] * 4):
        with pytest.raises(ParameterError,
                           match=f"3 locations need as many weights, got {len(weights)}"):
            cloud.seed_category(0, np.ones((3, 2)), weights)
    assert cloud.category_arrays(0, 0, 0.0)[0].shape == (0, 2)


def test_cloud_pruning_drops_light_exemplars():
    cloud = ExemplarCloud(k=2, dim=1)
    cloud.add(0, [0.1], birth_step=0)
    cloud.add(0, [0.3], birth_step=90)
    cloud.add(1, [0.8], birth_step=100)
    kept = cloud.pruned(now=100, decay_rate=0.1, threshold=0.01)
    # e^-10 < 0.01 prunes the oldest; e^-1 and e^0 survive
    assert np.array_equal(kept[0][0], [[0.3]])
    assert np.array_equal(kept[1][0], [[0.8]])


def test_cloud_refuses_a_now_before_a_birth():
    # at now = 0 the exemplar born at step 10 weighed e^1 = 2.718 > 1
    cloud = ExemplarCloud(k=2, dim=1)
    cloud.add(0, (0.5,), 10)
    with pytest.raises(ParameterError, match="latest birth, 10, got 0"):
        cloud.category_arrays(0, 0, 0.1)
    with pytest.raises(ParameterError, match="latest birth, 10, got 9"):
        cloud.pruned(9, 0.1, 0.0)
    assert cloud.category_arrays(0, 10, 0.1)[1].tolist() == [1.0]
    # category 1 has no births
    assert cloud.category_arrays(1, 0, 0.1)[0].shape == (0, 1)


def test_cloud_empty_category_reads_as_empty_arrays():
    cloud = ExemplarCloud(k=2, dim=1)
    cloud.add(0, [0.4], birth_step=0)
    locs, w = cloud.category_arrays(1, now=0, decay_rate=0.1)
    assert locs.shape == (0, 1) and w.shape == (0,)
    kept = cloud.pruned(now=0, decay_rate=0.1, threshold=0.0)
    assert np.array_equal(kept[0][0], [[0.4]]) and np.array_equal(kept[0][1], [1.0])
    assert kept[1][0].shape == (0, 1) and kept[1][1].shape == (0,)


def test_model_config_stores_k_as_an_int_checked_first():
    # k = 2.0 was stored as a float, which the property checks then refused
    # with a TypeError, and k = 2.5 was reported as a shape (2.5, 1)
    cfg = ModelConfig(k=2.0, decay_rate=0.1, domain=UNIT, init_means=np.array([[0.25], [0.75]]),
                      init_weights=np.array([1.0, 1.0]), seed=1)
    assert type(cfg.k) is int and cfg.k == 2
    for bad in (2.5, math.nan, math.inf):
        with pytest.raises(ParameterError, match="^k must be a whole number$"):
            ModelConfig(k=bad, decay_rate=0.1, domain=UNIT,
                        init_means=np.array([[0.25], [0.75]]),
                        init_weights=np.array([1.0, 1.0]), seed=1)


def test_cloud_takes_whole_float_sizes_and_birth_steps():
    cloud = ExemplarCloud(k=2.0, dim=np.int64(1))
    assert (type(cloud.k), type(cloud.dim)) == (int, int)
    cloud.add(0, [0.1], birth_step=3.0)
    cloud.add(0, [0.2], birth_step=np.uint8(4))
    assert np.array_equal(cloud.category_arrays(0, 4.0, math.log(2.0))[1], [0.5, 1.0])

