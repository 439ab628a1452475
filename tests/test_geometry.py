"""Cell-statistics tests against exact 1-D and half-square oracles."""

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

UNIT = Domain(np.array([0.0]), np.array([1.0]))
SQUARE = Domain(np.array([0.0, 0.0]), np.array([1.0, 1.0]))

# Monte Carlo tolerance: all estimates below use at least 2e5 samples, so
# counting errors sit near 3 * 0.5 / sqrt(2e5) ~ 0.003; 0.01 is comfortable.
N = 200_000
TOL = 0.01


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
    with pytest.raises(GeometryError):
        cell_stats([0.5, 0.5], UNIT, 100, substream(1))
    with pytest.raises(GeometryError):
        cell_stats([0.5], UNIT, 0, substream(1))


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
