"""Cell-statistics tests against exact 1-D and half-square oracles, and
bit-for-bit checks of the classifier and the sums against the broadcast
argmin and np.add.at they replace."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exdyn import (
    Domain,
    GeometryError,
    assign_cells,
    cell_stats,
    centroidal_deviation,
    classify,
    min_cell_volume,
    substream,
)
from exdyn import geometry

UNIT = Domain(np.array([0.0]), np.array([1.0]))
SQUARE = Domain(np.array([0.0, 0.0]), np.array([1.0, 1.0]))

# Monte Carlo tolerance: all estimates below use at least 2e5 samples, so
# counting errors sit near 3 * 0.5 / sqrt(2e5) ~ 0.003; 0.01 is comfortable.
N = 200_000
TOL = 0.01
BLOCK = geometry._ASSIGN_CHUNK


def reference_labels(points, means):
    # the broadcast classifier assign_cells used before its category loop:
    # squared coordinate differences added in coordinate order, then argmin
    diff = np.asarray(points, dtype=float)[:, None, :] - np.asarray(means, dtype=float)[None]
    sq = diff * diff
    d2 = sq[..., 0].copy()
    for c in range(1, sq.shape[-1]):
        d2 += sq[..., c]
    return np.argmin(d2, axis=1)


def reference_stats(points, means):
    # counts and centroids as cell_stats made them with np.add.at over all
    # points at once; an empty cell gets a NaN centroid
    k = len(means)
    labels = reference_labels(points, means)
    counts = np.bincount(labels, minlength=k)
    sums = np.zeros((k, points.shape[1]))
    np.add.at(sums, labels, points)
    centroids = np.full_like(sums, np.nan)
    centroids[counts > 0] = sums[counts > 0] / counts[counts > 0, None]
    return counts, centroids


def test_assign_cells_agrees_with_classify():
    rng = substream(41)
    means = rng.random((5, 2))
    # two full blocks of assign_cells' 1 << 16 rows plus a partial one
    pts = SQUARE.uniform_points(rng, 2 * (1 << 16) + 7)
    labels = assign_cells(pts, means)
    for p, lab in zip(pts[:2000], labels[:2000]):
        assert classify(p, means) == lab
    # the remaining points get the cheap vectorized cross-check
    d2 = ((pts[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    assert np.array_equal(labels, np.argmin(d2, axis=1))


def test_cell_stats_blocks_match_single_batch():
    # cell_stats draws and accumulates in blocks of 1 << 16 rows; this
    # n_samples crosses two block edges, and the reference draws, classifies
    # and sums every point at once
    n = 2 * (1 << 16) + 11
    means = substream(42).random((4, 2))
    stats = cell_stats(means, SQUARE, n, substream(43))
    pts = SQUARE.uniform_points(substream(43), n)
    d2 = ((pts[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    labels = np.argmin(d2, axis=1)
    counts = np.bincount(labels, minlength=4)
    sums = np.zeros((4, 2))
    np.add.at(sums, labels, pts)
    assert np.array_equal(stats.counts, counts)
    assert np.array_equal(stats.volumes, counts * (SQUARE.volume / n))
    assert np.array_equal(stats.centroids, sums / counts[:, None])
    assert stats.samples_used == n


def test_assign_cells_ties_go_to_the_lower_index():
    # points on the bisector of two means, and at the point equidistant from
    # three and from four means, are exact ties in floating point: every
    # order of the means labels them with the lowest index, as argmin does
    pts = np.array([[0.5, 0.0], [0.5, 0.3], [0.5, 1.0], [0.5, 0.5]])
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    for k in (2, 3, 4):
        for perm in itertools.permutations(corners[:k]):
            means = np.array(perm)
            labels = assign_cells(pts, means)
            assert np.array_equal(labels, reference_labels(pts, means))
    # (0.5, y) is equidistant from (0, y') and (1, y'): label 0 of the pair
    assert np.array_equal(assign_cells(pts, [[0.0, 0.4], [1.0, 0.4]]), [0, 0, 0, 0])
    assert np.array_equal(assign_cells(pts, [[1.0, 0.4], [0.0, 0.4]]), [0, 0, 0, 0])
    # the centre is equidistant from the three and the four corners
    assert assign_cells([[0.5, 0.5]], corners[[2, 1, 0]])[0] == 0
    assert assign_cells([[0.5, 0.5]], corners[::-1])[0] == 0


@pytest.mark.parametrize("k, dim", [(1, 1), (4, 2), (3, 3), (12, 1)])
@pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1,
                               8 * BLOCK - 1, 8 * BLOCK, 8 * BLOCK + 1])
def test_assign_cells_matches_the_broadcast_argmin(k, dim, n):
    # block edges, after one block and after eight.  The means are distinct points of the 1/16 lattice and
    # half the points lie on the 1/32 lattice, so many sit on bisectors
    rng = substream(60, k, dim, n)
    cells = rng.choice(17**dim, size=k, replace=False)
    means = np.array(np.unravel_index(cells, (17,) * dim)).T / 16
    pts = rng.random((n, dim))
    pts[: n // 2] = np.round(pts[: n // 2] * 32) / 32
    labels = assign_cells(pts, means)
    assert labels.shape == (n,)
    assert np.array_equal(labels, reference_labels(pts, means))


@pytest.mark.parametrize("k, dim", [(1, 1), (4, 2), (3, 3), (12, 1)])
def test_assign_cells_at_huge_magnitudes(k, dim):
    # coordinates near 1e200 overflow the squared distances to inf; a row of
    # infinite distances goes to the lowest index, as with argmin
    rng = substream(61, k, dim)
    means = rng.random((k, dim)) * 1e200
    pts = np.concatenate([rng.random((BLOCK + 3, dim)) * 1e200,
                          rng.random((5, dim)), -rng.random((5, dim)) * 1e200])
    with np.errstate(over="ignore"):
        assert np.array_equal(assign_cells(pts, means), reference_labels(pts, means))
        assert np.array_equal(assign_cells(pts / 1e200, means / 1e200),
                              reference_labels(pts / 1e200, means / 1e200))


def test_assign_cells_bad_input():
    # non-finite means, no means and points of the wrong width are refused;
    # a NaN or infinite point is labelled as argmin labels it
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(GeometryError, match="finite"):
            assign_cells([[0.1]], [[0.5], [bad]])
        with pytest.raises(GeometryError, match="finite"):
            cell_stats([[0.5], [bad]], UNIT, 10, substream(1))
    pts = np.array([[math.nan, 0.5], [0.5, math.inf], [-math.inf, 0.2], [0.9, 0.9]])
    means = np.array([[0.8, 0.8], [0.2, 0.2], [0.5, 0.5]])
    with np.errstate(invalid="ignore"):
        assert np.array_equal(assign_cells(pts, means), reference_labels(pts, means))
    with pytest.raises(GeometryError, match="rows of 2"):
        assign_cells(np.zeros((4, 3)), means)
    with pytest.raises(GeometryError, match="at least one"):
        assign_cells(np.zeros((4, 1)), np.zeros((0, 1)))


@pytest.mark.parametrize("means", [
    [[0.2, 0.3], [0.7, 0.6], [0.45, 0.9], [0.5, 0.5]],
    [[0.5, 0.5], [0.6, 0.5], [5.0, 5.0]],  # the far mean's cell stays empty
    [[0.3], [0.5], [0.9], [0.1], [0.75]],
    [[0.1, 0.2, 0.3], [0.9, 0.8, 0.7], [0.5, 0.5, 0.5]],
])
def test_cell_stats_sums_match_add_at(means):
    # three blocks and a partial one, drawn as one batch for the reference
    means = np.array(means)
    dim = means.shape[1]
    box = Domain(np.zeros(dim), np.ones(dim))
    n = 3 * BLOCK + 123
    stats = cell_stats(means, box, n, substream(62))
    counts, centroids = reference_stats(box.uniform_points(substream(62), n), means)
    assert np.array_equal(stats.counts, counts)
    assert np.array_equal(stats.centroids, centroids, equal_nan=True)
    assert stats.empty.any() == (means.max() > 1)


def test_cell_stats_symmetric_split_1d():
    stats = cell_stats([0.25, 0.75], UNIT, N, substream(5))
    np.testing.assert_allclose(stats.volumes, [0.5, 0.5], atol=TOL)
    np.testing.assert_allclose(stats.centroids[:, 0], [0.25, 0.75], atol=TOL)
    assert stats.samples_used == N
    assert not stats.empty.any()


def test_cell_stats_half_squares_2d():
    means = [[0.25, 0.5], [0.75, 0.5]]
    stats = cell_stats(means, SQUARE, N, substream(6))
    np.testing.assert_allclose(stats.volumes, [0.5, 0.5], atol=TOL)
    np.testing.assert_allclose(stats.centroids, means, atol=TOL)


def test_cell_volumes_partition_the_domain():
    box = Domain(np.array([0.0, 0.0]), np.array([2.0, 3.0]))
    rng = substream(7)
    stats = cell_stats(rng.random((4, 2)) * [2.0, 3.0], box, 10_000, rng)
    assert stats.counts.sum() == 10_000
    assert stats.volumes.sum() == pytest.approx(box.volume, rel=1e-12)


def test_cell_stats_deterministic():
    a = cell_stats([0.2, 0.9], UNIT, 5000, substream(8))
    b = cell_stats([0.2, 0.9], UNIT, 5000, substream(8))
    assert np.array_equal(a.volumes, b.volumes)
    assert np.array_equal(a.centroids, b.centroids)


def test_empty_cell_is_flagged():
    # a single sample cannot land in both cells
    stats = cell_stats([0.0001, 0.9999], UNIT, 1, substream(9))
    assert stats.empty.sum() == 1
    empty = int(np.flatnonzero(stats.empty)[0])
    assert stats.volumes[empty] == 0.0
    assert np.isnan(stats.centroids[empty, 0])
    assert min_cell_volume([0.0001, 0.9999], UNIT, 1, substream(9)) == 0.0


def test_duplicate_means_rejected():
    with pytest.raises(GeometryError, match="generator means 0 and 1 coincide"):
        cell_stats([0.5, 0.5], UNIT, 100, substream(1))
    # -0.0 equals 0.0; the lowest index with a duplicate, then its partner
    with pytest.raises(GeometryError, match="generator means 1 and 3 coincide"):
        centroidal_deviation([[0.5, 0.1], [0.2, 0.0], [0.7, 0.0], [0.2, -0.0], [0.2, 0.0]],
                             SQUARE, 100, substream(1))
    means = np.linspace(0.0, 1.0, 1000)[:, None]
    means[999] = means[400]
    with pytest.raises(GeometryError, match="generator means 400 and 999 coincide"):
        min_cell_volume(means, UNIT, 100, substream(1))
    with pytest.raises(GeometryError):
        cell_stats([0.5], UNIT, 0, substream(1))


@pytest.mark.parametrize("estimate", [cell_stats, centroidal_deviation, min_cell_volume])
@pytest.mark.parametrize("n_samples", [2.5, math.inf, -math.inf, math.nan])
def test_sample_counts_must_be_whole_numbers(estimate, n_samples):
    # before this check, range() raised numpy's bare TypeError on 2.5, inf
    # and NaN, which no caller catches as an exdyn error
    with pytest.raises(GeometryError, match="n_samples must be a whole number"):
        estimate([[0.25], [0.75]], UNIT, n_samples, substream(1))


def test_sample_counts_accept_whole_floats_and_numpy_integers():
    means = [[0.2, 0.3], [0.7, 0.6], [0.45, 0.9]]
    want = cell_stats(means, SQUARE, 1000, substream(2))
    for n in (1000.0, np.int64(1000), np.float64(1000.0)):
        got = cell_stats(means, SQUARE, n, substream(2))
        assert type(got.samples_used) is int and got.samples_used == 1000
        assert np.array_equal(got.counts, want.counts)
        assert np.array_equal(got.volumes, want.volumes)
        assert np.array_equal(got.centroids, want.centroids)
        assert (min_cell_volume(means, SQUARE, n, substream(2))
                == min_cell_volume(means, SQUARE, 1000, substream(2)))
        assert (centroidal_deviation(means, SQUARE, n, substream(2))
                == centroidal_deviation(means, SQUARE, 1000, substream(2)))


def test_centroidal_deviation_oracles():
    # (0.25, 0.75) is the two-cell centroidal configuration of U[0,1]
    assert centroidal_deviation([0.25, 0.75], UNIT, N, substream(10)) < TOL
    # cells are [0,0.5] and [0.5,1] regardless, so centroids are 0.25/0.75
    dev = centroidal_deviation([0.1, 0.9], UNIT, N, substream(11))
    assert dev == pytest.approx(0.15, abs=TOL)
    # one cell: centroid is the domain midpoint
    dev = centroidal_deviation([0.3], UNIT, N, substream(12))
    assert dev == pytest.approx(0.2, abs=TOL)


def test_centroidal_deviation_empty_cell_reads_as_diameter():
    dev = centroidal_deviation([0.0001, 0.9999], UNIT, 1, substream(13))
    assert dev == UNIT.diameter


def test_centroidal_deviation_relabel_invariant():
    rng = substream(14)
    means = rng.random((4, 2))
    a = centroidal_deviation(means, SQUARE, 20_000, substream(15))
    b = centroidal_deviation(means[::-1], SQUARE, 20_000, substream(15))
    assert a == b


def test_min_cell_volume_oracles():
    assert min_cell_volume([0.25, 0.75], UNIT, N, substream(16)) == pytest.approx(0.5, abs=TOL)
    assert min_cell_volume([0.01, 0.99], UNIT, N, substream(17)) == pytest.approx(0.5, abs=TOL)
    # cells [0, 0.15] and [0.15, 1]: the smaller has volume 0.15
    assert min_cell_volume([0.1, 0.2], UNIT, N, substream(18)) == pytest.approx(0.15, abs=TOL)


@pytest.mark.parametrize("n", [1, 4096, (1 << 16) + 5])
def test_min_cell_volume_equals_cell_stats(n):
    # min_cell_volume counts the labels of the same draws that cell_stats
    # also sums; n = 2^16 + 5 spans two classification blocks
    means = substream(20).random((3, 2))
    box = Domain(np.array([0.0, -1.0]), np.array([2.0, 1.5]))
    vol = min_cell_volume(means, box, n, substream(21))
    assert vol == cell_stats(means, box, n, substream(21)).volumes.min()


def test_estimated_split_converges_to_boundary():
    # the first cell's estimated volume is a counting estimate of the
    # boundary b = (0.3 + 0.9) / 2
    b = 0.6
    vol = cell_stats([0.3, 0.9], UNIT, N, substream(19)).volumes[0]
    assert vol == pytest.approx(b, abs=TOL)


@settings(max_examples=100, deadline=None)
@given(x1=st.floats(0.01, 0.98), gap=st.floats(0.01, 0.5))
def test_assign_cells_1d_threshold_rule(x1, gap):
    x2 = min(x1 + gap, 0.99)
    if x1 == x2:
        return
    pts = np.linspace(0.0, 1.0, 257)[:, None]
    labels = assign_cells(pts, [x1, x2])
    z = pts[:, 0]
    # squared-distance comparison with ties to the lower index
    expected = ((z - x1) ** 2 > (z - x2) ** 2).astype(int)
    assert np.array_equal(labels, expected)
