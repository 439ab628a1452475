"""Decaying-weight exemplar dynamics: model, closed forms, experiments.

The package simulates an online clustering process in which each incoming
point joins the category of its nearest mean, every category weight decays
exponentially, and the winner absorbs the point into its running mean.  At
zero decay this is MacQueen's online k-means; at positive decay the cell
structure fluctuates forever instead of converging.

Layout: :mod:`exdyn.model` holds the exact dynamics, :mod:`exdyn.geometry`
Monte Carlo cell statistics, :mod:`exdyn.ar1` the closed-form linearized
boundary process for the two-category uniform 1-D case, :mod:`exdyn.harness`
seeded experiments and long-run property checks, and :mod:`exdyn.config` /
:mod:`exdyn.cli` the text-config and command-line surface.
"""

from .ar1 import (
    boundary_params,
    fixed_point,
    linearization,
    mean_map,
    second_order_variance_of_Y,
    simulate_ar1,
    stationary_autocovariance,
    variance_of_Y,
)
from .config import RunSpecFile, header_text, parse_config
from .errors import (
    ConfigError,
    DomainError,
    ExdynError,
    GeometryError,
    ParameterError,
)
from .geometry import (
    CellStats,
    assign_cells,
    cell_stats,
    centroidal_deviation,
    min_cell_volume,
)
from .harness import (
    EnsembleEstimate,
    PropertyReport,
    SnapshotResult,
    TrajectoryRecord,
    boundary_samples,
    boundary_variance_curve,
    equilibrium_steps,
    figure1_snapshot,
    longest_starvation,
    property_macqueen_cvt,
    property_non_collapse,
    property_non_convergence,
    property_non_extinction,
    replica_stream,
    run_trajectory,
    theorem_suite,
)
from .model import (
    Domain,
    ExemplarCloud,
    ModelConfig,
    SystemState,
    classify,
    limit_total_weight,
    sample,
    step,
    total_weight,
    weight_bound,
)
from .presets import (
    PRESET_NAMES,
    preset_keys,
    scatter_for_seed,
)
from .rng import substream

__version__ = "0.1.0"

__all__ = [
    "CellStats",
    "ConfigError",
    "Domain",
    "DomainError",
    "EnsembleEstimate",
    "ExdynError",
    "ExemplarCloud",
    "GeometryError",
    "ModelConfig",
    "PRESET_NAMES",
    "ParameterError",
    "PropertyReport",
    "RunSpecFile",
    "SnapshotResult",
    "SystemState",
    "TrajectoryRecord",
    "assign_cells",
    "boundary_params",
    "boundary_samples",
    "boundary_variance_curve",
    "cell_stats",
    "centroidal_deviation",
    "classify",
    "equilibrium_steps",
    "figure1_snapshot",
    "fixed_point",
    "header_text",
    "limit_total_weight",
    "linearization",
    "longest_starvation",
    "mean_map",
    "min_cell_volume",
    "parse_config",
    "preset_keys",
    "property_macqueen_cvt",
    "property_non_collapse",
    "property_non_convergence",
    "property_non_extinction",
    "replica_stream",
    "run_trajectory",
    "sample",
    "scatter_for_seed",
    "second_order_variance_of_Y",
    "simulate_ar1",
    "stationary_autocovariance",
    "step",
    "substream",
    "theorem_suite",
    "total_weight",
    "variance_of_Y",
    "weight_bound",
]
