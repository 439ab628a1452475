"""Canned experiment configurations.

Each preset expands to a flat key=value dictionary in the same vocabulary
the config parser accepts, so a file containing just ``preset = <name>``
behaves exactly like a fully written-out config, and the expansion echoed
into output headers re-parses to the identical run.

Available presets:

* ``fig1``          2-D snapshot: four categories seeded by Gaussian scatter
                    on a 100 by 100 square, decay 0.05, weight cutoff 0.01.
* ``fig3-left``     1-D boundary trajectory at decay 0.01 from the symmetric
                    start x=(1/4, 3/4), w=(W/2, W/2).
* ``fig3-right``    the same run with decay 0 and unit-scale weights; the
                    means converge instead of fluctuating.
* ``fig4``          boundary-variance ensemble over a decay grid, including
                    the equilibrium horizon (n = inf).
* ``theorem-suite`` long-run property checks at decay 0.05 with a decay-0
                    negative control.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .floattext import fmt
from .model import Domain, limit_total_weight
from .rng import INIT_STREAM, substream


def _fig1():
    return {
        "experiment": "snapshot",
        "seed": "101",
        "k": "4",
        "lambda": "0.05",
        "dim": "2",
        "domain": "0 100 0 100",
        "distribution": "uniform",
        "init": "scatter",
        "scatter_centers": "25 25 75 25 25 75 75 75",
        "scatter_count": "100",
        "scatter_sigma": "3",
        "n_steps": "2000",
        "prune_threshold": "0.01",
        "grid_resolution": "512",
    }


def _fig3(decay_rate, half_weight, seed):
    return {
        "experiment": "trajectory",
        "seed": seed,
        "k": "2",
        "lambda": fmt(decay_rate),
        "dim": "1",
        "domain": "0 1",
        "distribution": "uniform",
        "init": "explicit",
        "init_means": "0.25 0.75",
        "init_weights": f"{fmt(half_weight)} {fmt(half_weight)}",
        "n_steps": "100000",
        "stride": "10",
    }


def _fig3_left():
    return _fig3(0.01, limit_total_weight(0.01) / 2.0, "31")


def _fig3_right():
    return _fig3(0.0, 10.0, "32")


def _fig4():
    return {
        "experiment": "variance-curve",
        "seed": "41",
        "lambda_grid": "0.005 0.01 0.02 0.05 0.1 0.2",
        "n_list": "100 1000 10000 inf",
        "replicas": "10000",
    }


def _theorem_suite():
    half_weight = limit_total_weight(0.05) / 2.0
    return {
        "experiment": "properties",
        "seed": "51",
        "k": "2",
        "lambda": "0.05",
        "dim": "1",
        "domain": "0 1",
        "distribution": "uniform",
        "init": "explicit",
        "init_means": "0.25 0.75",
        "init_weights": f"{fmt(half_weight)} {fmt(half_weight)}",
        "n_steps": "1000000",
        "window": "10000",
        "check_stride": "1000",
        "negative_control": "true",
    }


_PRESETS = {
    "fig1": _fig1,
    "fig3-left": _fig3_left,
    "fig3-right": _fig3_right,
    "fig4": _fig4,
    "theorem-suite": _theorem_suite,
}

PRESET_NAMES = tuple(sorted(_PRESETS))


def preset_keys(name: str) -> dict:
    """The expanded key=value map of one preset (a fresh copy)."""
    try:
        builder = _PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}",
            field="preset",
        ) from None
    return builder()


def scatter_for_seed(centers, count: int, sigma: float, domain: Domain, seed):
    """Gaussian exemplar scatter around per-category centers, drawn from the
    dedicated initialization stream of ``seed``.

    Draws ``count`` points per category (clamped into the domain), each with
    weight 1, and returns (initial means, initial weights, points) where the
    means are the per-category averages and each weight equals ``count``.
    """
    centers = np.asarray(centers, dtype=np.float64).reshape(-1, domain.dim)
    k = centers.shape[0]
    if count < 1:
        raise ConfigError("scatter_count must be at least 1", field="scatter_count")
    if sigma < 0:
        raise ConfigError("scatter_sigma must be nonnegative", field="scatter_sigma")
    rng = substream(seed, INIT_STREAM)
    points = np.empty((k, count, domain.dim))
    for j in range(k):
        draws = rng.normal(loc=centers[j], scale=sigma, size=(count, domain.dim))
        points[j] = domain.clip(draws)
    means = points.mean(axis=1)
    weights = np.full(k, float(count))
    return means, weights, points
