"""Monte Carlo statistics of the nearest-mean cells.

Cell volumes and centroids are estimated by classifying uniform points, so
they work in any dimension; exact 1-D formulas live in the tests as oracles.

The kernel works on blocks of _ASSIGN_CHUNK points and never builds a
(points, k, dim) array.  ``assign_cells`` loops over the categories and
keeps a running minimum of the squared distances, and ``cell_stats`` adds
each cell's points one after another.  Both are written so that every label
and every sum is the same, bit for bit, as a broadcast ``argmin`` and an
``np.add.at`` over all points at once (tests/test_geometry.py keeps those
as the reference).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GeometryError
from .model import Domain, _as_points, _coincident_pair

_ASSIGN_CHUNK = 1 << 16


@dataclass
class CellStats:
    """Estimated cell volumes and centroids for one set of generator means.

    A cell that received no samples has volume 0 and a NaN centroid; the
    ``empty`` mask flags those cells.
    """

    volumes: np.ndarray
    centroids: np.ndarray
    counts: np.ndarray
    samples_used: int

    @property
    def empty(self) -> np.ndarray:
        return self.counts == 0


def assign_cells(points, means) -> np.ndarray:
    """Nearest-mean label for each row of ``points``, ties to the lower index.

    Same squared-distance comparison as model.classify.  Each block of
    _ASSIGN_CHUNK rows goes through a loop over the categories: category i's
    squared distances are summed coordinate by coordinate, in _squared_norms'
    order, into one (rows,) buffer, and a row moves to i only when that sum
    is strictly below its running minimum, so a tie stays with the lower
    index, as with argmin.  The move is branch-free: labels = max(labels,
    i * less), which is exact as every label is below i when category i is
    tried.  The buffers are allocated once per call, so the memory is
    O(_ASSIGN_CHUNK) whatever k, dim and the number of points.

    The means must be finite (GeometryError otherwise).  A row's distances
    are then all NaN (a NaN coordinate, label 0) or free of NaN, and the
    running minimum picks what argmin picks, infinite distances included.
    """
    points = np.asarray(points, dtype=np.float64)
    means = _finite_means(means)
    if points.ndim != 2 or points.shape[1] != means.shape[1]:
        raise GeometryError(f"points must be rows of {means.shape[1]} coordinates")
    labels = np.zeros(len(points), dtype=np.intp)
    rows = min(len(points), _ASSIGN_CHUNK)
    best, dist, tmp = np.empty((3, rows))
    # tmp's storage, free once the distances are summed, holds i * less;
    # less is copied in first, as multiply(less, i) would cast it through a
    # 64 KB buffer on every call
    moved = tmp.view(np.intp)
    less = np.empty(rows, dtype=bool)
    for start in range(0, len(points), _ASSIGN_CHUNK):
        block = points[start:start + _ASSIGN_CHUNK]
        m = len(block)
        lab, b, d, t, lt = labels[start:start + m], best[:m], dist[:m], tmp[:m], less[:m]
        mv = moved[:m]
        _squared_distances(block, means[0], b, t)
        for i in range(1, len(means)):
            _squared_distances(block, means[i], d, t)
            np.less(d, b, out=lt)
            np.copyto(mv, lt)
            np.multiply(mv, i, out=mv)
            np.maximum(lab, mv, out=lab)
            np.minimum(b, d, out=b)
    return labels


def _squared_distances(block, mean, out, tmp) -> None:
    # out = (x_0 - m_0)^2 + (x_1 - m_1)^2 + ..., added in coordinate order
    np.subtract(block[:, 0], mean[0], out=out)
    np.multiply(out, out, out=out)
    for c in range(1, len(mean)):
        np.subtract(block[:, c], mean[c], out=tmp)
        np.multiply(tmp, tmp, out=tmp)
        np.add(out, tmp, out=out)


def _finite_means(means) -> np.ndarray:
    means = _as_points(means)
    if len(means) == 0:
        raise GeometryError("need at least one generator mean")
    if not np.isfinite(means).all():
        raise GeometryError("generator means must be finite")
    return means


def _check_input(means, n_samples):
    # (means, n_samples as an int); a whole float such as 4096.0 is accepted
    means = _finite_means(means)
    pair = _coincident_pair(means)
    if pair is not None:
        raise GeometryError(f"generator means {pair[0]} and {pair[1]} coincide")
    if not float(n_samples).is_integer():
        raise GeometryError("n_samples must be a whole number")
    if n_samples < 1:
        raise GeometryError("n_samples must be at least 1")
    return means, int(n_samples)


def _labelled_blocks(means, domain: Domain, n_samples: int, rng):
    # n_samples uniform points drawn and classified in blocks of
    # _ASSIGN_CHUNK rows, taking the same draws as a single batch would
    for start in range(0, n_samples, _ASSIGN_CHUNK):
        pts = domain.uniform_points(rng, min(_ASSIGN_CHUNK, n_samples - start))
        yield pts, assign_cells(pts, means)


def cell_stats(means, domain: Domain, n_samples: int, rng) -> CellStats:
    """Estimate cell volumes and centroids from n uniform sample points.

    The points are drawn, classified and summed in blocks of _ASSIGN_CHUNK
    rows, so memory stays bounded whatever n_samples is.  Floating-point
    addition is not associative, so the sums are made in one fixed order:
    each cell's points are added to its running sum one at a time, in draw
    order, by a cumsum seeded with that sum.  This is the order of
    ``np.add.at`` over all points at once, and much faster.  A per-block
    ``bincount(weights=)`` or ``sum`` adds in another order and rounds
    differently.
    """
    means, n_samples = _check_input(means, n_samples)
    k = means.shape[0]
    counts = np.zeros(k, dtype=np.intp)
    sums = np.zeros((k, domain.dim))
    for pts, labels in _labelled_blocks(means, domain, n_samples, rng):
        counts += np.bincount(labels, minlength=k)
        for i in range(k):
            sel = np.compress(labels == i, pts, axis=0)  # a copy, like pts[mask] but faster
            if len(sel):
                sel[0] += sums[i]
                sums[i] = np.cumsum(sel, axis=0)[-1]
    volumes = counts * (domain.volume / n_samples)
    centroids = np.full((k, domain.dim), np.nan)
    nonempty = counts > 0
    centroids[nonempty] = sums[nonempty] / counts[nonempty, None]
    return CellStats(volumes=volumes, centroids=centroids, counts=counts,
                     samples_used=n_samples)


def centroidal_deviation(means, domain: Domain, n_samples: int, rng) -> float:
    """max_i |mean_i - centroid(cell_i)|; 0 for a centroidal configuration.

    An empty estimated cell counts as a deviation of diam(domain), which
    downstream tests read as a collapse signal.
    """
    means, n_samples = _check_input(means, n_samples)
    stats = cell_stats(means, domain, n_samples, rng)
    dev = np.where(
        stats.empty,
        domain.diameter,
        np.linalg.norm(means - np.nan_to_num(stats.centroids), axis=1),
    )
    return float(dev.max())


def min_cell_volume(means, domain: Domain, n_samples: int, rng) -> float:
    """Smallest estimated cell volume; 0 when some cell caught no samples.

    Same draws, labels and volumes as cell_stats, which also sums the
    points for the centroids; this only counts the labels."""
    means, n_samples = _check_input(means, n_samples)
    k = means.shape[0]
    counts = np.zeros(k, dtype=np.intp)
    for _, labels in _labelled_blocks(means, domain, n_samples, rng):
        counts += np.bincount(labels, minlength=k)
    return float((counts * (domain.volume / n_samples)).min())

