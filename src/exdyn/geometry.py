"""Monte Carlo statistics of the nearest-mean cells.

Cell volumes and centroids are estimated by classifying uniform points, so
they work in any dimension; exact 1-D formulas live in the tests as oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GeometryError
from .model import Domain, _as_points, _squared_norms

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

    Same squared-distance comparison as model.classify, vectorized over
    blocks of _ASSIGN_CHUNK rows so the (rows, k, dim) temporary stays
    bounded whatever the number of points.
    """
    points = np.asarray(points, dtype=np.float64)
    means = _as_points(means)
    labels = np.empty(len(points), dtype=np.intp)
    for start in range(0, len(points), _ASSIGN_CHUNK):
        block = points[start:start + _ASSIGN_CHUNK]
        d2 = _squared_norms(block[:, None, :] - means[None, :, :])
        labels[start:start + len(block)] = np.argmin(d2, axis=1)
    return labels


def _check_input(means, n_samples) -> np.ndarray:
    means = _as_points(means)
    k = means.shape[0]
    for i in range(k):
        for j in range(i + 1, k):
            if np.array_equal(means[i], means[j]):
                raise GeometryError(f"generator means {i} and {j} coincide")
    if n_samples < 1:
        raise GeometryError("n_samples must be at least 1")
    return means


def _labelled_blocks(means, domain: Domain, n_samples: int, rng):
    # n_samples uniform points drawn and classified in blocks of
    # _ASSIGN_CHUNK rows, taking the same draws as a single batch would
    for start in range(0, n_samples, _ASSIGN_CHUNK):
        pts = domain.uniform_points(rng, min(_ASSIGN_CHUNK, n_samples - start))
        yield pts, assign_cells(pts, means)


def cell_stats(means, domain: Domain, n_samples: int, rng) -> CellStats:
    """Estimate cell volumes and centroids from n uniform sample points.

    The points are drawn, classified and summed in blocks of _ASSIGN_CHUNK
    rows, so memory stays bounded whatever n_samples is; the blocks add the
    points in the same order as a single batch would.
    """
    means = _check_input(means, n_samples)
    k = means.shape[0]
    counts = np.zeros(k, dtype=np.intp)
    sums = np.zeros((k, domain.dim))
    for pts, labels in _labelled_blocks(means, domain, n_samples, rng):
        counts += np.bincount(labels, minlength=k)
        np.add.at(sums, labels, pts)
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
    means = _check_input(means, n_samples)
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
    means = _check_input(means, n_samples)
    k = means.shape[0]
    counts = np.zeros(k, dtype=np.intp)
    for _, labels in _labelled_blocks(means, domain, n_samples, rng):
        counts += np.bincount(labels, minlength=k)
    return float((counts * (domain.volume / n_samples)).min())

