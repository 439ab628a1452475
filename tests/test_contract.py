"""One input contract for every public entry point.

Each row of _ROWS names a callable of exdyn.__all__ (or a public method
of one of its classes), one of its numeric parameters, the rule that parameter
follows, the error class the rule raises, and a call that passes a value
as that parameter with every other argument valid.  Each rule lists the
classes of bad value it refuses: NaN, +-inf, 2.5 where a whole number is
due, non-numbers such as text where any number is due, values below its
range, seeds and stream keys from 2**64 on, and decay rates whose factor
exp(-rate) rounds to 1.0.
Every row is fed every bad value of its rule, and must raise the row's
error class with the no_run fixture in place, so nothing was simulated and
no stream was made first.  A callable that takes a number, or a public
method of a class in exdyn.__all__ that does, must appear in the table, or
with its reason in _EXEMPT.
"""

import inspect
import math
from dataclasses import dataclass

import numpy as np
import pytest

import exdyn
from exdyn import (
    ConfigError,
    Domain,
    ExemplarCloud,
    GeometryError,
    ModelConfig,
    ParameterError,
    SystemState,
    boundary_params,
    boundary_samples,
    boundary_variance_curve,
    cell_stats,
    centroidal_deviation,
    equilibrium_steps,
    figure1_snapshot,
    fixed_point,
    limit_total_weight,
    linearization,
    longest_starvation,
    mean_map,
    min_cell_volume,
    property_macqueen_cvt,
    property_non_collapse,
    property_non_convergence,
    property_non_extinction,
    replica_stream,
    run_trajectory,
    scatter_for_seed,
    second_order_variance_of_Y,
    simulate_ar1,
    stationary_autocovariance,
    step,
    substream,
    theorem_suite,
    variance_of_Y,
    weight_bound,
)

NAN, INF = math.nan, math.inf
# the largest rate whose factor exp(-rate) rounds to 1.0 (tests/test_libm.py)
TINY = 2.0**-54
# not numbers, even where int() would parse them
NOT_NUMBERS = ("3", b"3", None, [3], 3j)
NOT_WHOLE = (NAN, INF, -INF, 2.5) + NOT_NUMBERS

# rule -> the bad values it refuses
_BAD = {
    "count": NOT_WHOLE + (-1,),
    "count >= 1": NOT_WHOLE + (0, -1),
    "count >= 2": NOT_WHOLE + (1, 0),
    "whole number": NOT_WHOLE,
    "count or math.inf": (NAN, -INF, 2.5, -1) + NOT_NUMBERS,
    "category of 2": NOT_WHOLE + (-1, 2),
    "seed": NOT_WHOLE + (-1, 2**64),
    # closed forms, ensembles, the equilibrium horizon and non-extinction
    "rate that decays": (NAN, INF, -INF, -1.0, 0.0, TINY, 1e-320) + NOT_NUMBERS,
    # single runs, step and mean_map: rate >= 0
    "rate >= 0": (NAN, -INF, -1.0) + NOT_NUMBERS,
    "finite rate >= 0": (NAN, INF, -INF, -1.0) + NOT_NUMBERS,
    # limit_total_weight: rate > 0 with a finite limit 1 / (1 - e^-rate)
    "rate with a finite limit": (NAN, -INF, -1.0, 0.0, 1e-320) + NOT_NUMBERS,
    # a model rate, which ModelConfig has checked, that the check refuses
    "model rate that decays": (0.0, TINY, 1e-320),
    "model rate 0 or one that decays": (TINY, 1e-320),
    "model rate 0": (0.1, TINY),
    "threshold >= 0": (NAN, -INF, -1.0) + NOT_NUMBERS,
    "finite value >= 0": (NAN, INF, -INF, -1.0) + NOT_NUMBERS,
    # property_non_collapse's volume_floor, where None picks the default floor
    "finite value >= 0 or None": (NAN, INF, -INF, -1.0) + tuple(
        v for v in NOT_NUMBERS if v is not None),
    "late-window length": NOT_WHOLE + (7, -1),
    "multiple of 10": NOT_WHOLE + (0, 15, -10),
}

UNIT = Domain(np.array([0.0]), np.array([1.0]))
SQUARE = Domain(np.zeros(2), np.ones(2))


def pair(decay_rate=0.1):
    return ModelConfig(k=2, decay_rate=decay_rate, domain=UNIT,
                       init_means=np.array([[0.25], [0.75]]),
                       init_weights=np.array([5.0, 5.0]), seed=1)


def plane():
    return ModelConfig(k=2, decay_rate=0.1, domain=SQUARE,
                       init_means=np.array([[0.25, 0.5], [0.75, 0.5]]),
                       init_weights=np.array([5.0, 5.0]), seed=1)


def model(**fields):
    kwargs = dict(k=2, decay_rate=0.1, domain=UNIT, init_means=np.array([[0.25], [0.75]]),
                  init_weights=np.array([5.0, 5.0]), seed=1)
    return ModelConfig(**{**kwargs, **fields})


def cloud():
    return ExemplarCloud(2, 1)


def rng():
    return np.random.default_rng(0)


@dataclass(frozen=True)
class Row:
    name: str        # the callable as exdyn exports it, or <class>.<method>
    param: str       # its parameter; config.decay_rate is the model's rate
    rule: str
    call: object     # value -> the call with that value as param
    error: type = ParameterError


_CURVE, _SAMPLES = boundary_variance_curve, boundary_samples
_ROWS = [
    # closed forms
    Row("boundary_params", "decay_rate", "rate that decays", boundary_params),
    Row("fixed_point", "decay_rate", "rate that decays", fixed_point),
    Row("linearization", "decay_rate", "rate that decays", linearization),
    Row("second_order_variance_of_Y", "decay_rate", "rate that decays",
        second_order_variance_of_Y),
    Row("variance_of_Y", "decay_rate", "rate that decays", lambda v: variance_of_Y(v, 10)),
    Row("variance_of_Y", "n", "count or math.inf", lambda v: variance_of_Y(0.1, v)),
    Row("stationary_autocovariance", "decay_rate", "rate that decays",
        lambda v: stationary_autocovariance(v, 1)),
    Row("stationary_autocovariance", "r", "whole number",
        lambda v: stationary_autocovariance(0.1, v)),
    Row("simulate_ar1", "decay_rate", "rate that decays", lambda v: simulate_ar1(v, 3, rng())),
    Row("simulate_ar1", "n_steps", "count", lambda v: simulate_ar1(0.1, v, rng())),
    Row("mean_map", "decay_rate", "rate >= 0", lambda v: mean_map((0.25, 0.75, 5, 5), v)),
    Row("mean_map", "n_nodes", "count >= 1", lambda v: mean_map((0.25, 0.75, 5, 5), 0.1, v)),
    Row("equilibrium_steps", "decay_rate", "rate that decays", equilibrium_steps),
    # the model
    Row("limit_total_weight", "decay_rate", "rate with a finite limit", limit_total_weight),
    Row("weight_bound", "decay_rate", "rate with a finite limit",
        lambda v: weight_bound([1.0, 1.0], v)),
    Row("step", "decay_rate", "rate >= 0",
        lambda v: step(SystemState(np.array([[0.25], [0.75]]), np.ones(2)), [0.5], v)),
    Row("Domain.uniform_points", "n", "count", lambda v: UNIT.uniform_points(rng(), v)),
    Row("SystemState", "step", "count",
        lambda v: SystemState(np.array([[0.25], [0.75]]), np.ones(2), v)),
    Row("ModelConfig", "k", "count >= 1", lambda v: model(k=v)),
    Row("ModelConfig", "decay_rate", "finite rate >= 0", lambda v: model(decay_rate=v)),
    Row("ModelConfig", "seed", "seed", lambda v: model(seed=v)),
    Row("ExemplarCloud", "k", "count >= 1", lambda v: ExemplarCloud(v, 1)),
    Row("ExemplarCloud", "dim", "count >= 1", lambda v: ExemplarCloud(2, v)),
    Row("ExemplarCloud.seed_category", "category", "category of 2",
        lambda v: cloud().seed_category(v, [[0.5]], [1.0])),
    Row("ExemplarCloud.add", "category", "category of 2", lambda v: cloud().add(v, (0.5,), 1)),
    Row("ExemplarCloud.add", "birth_step", "count", lambda v: cloud().add(0, (0.5,), v)),
    Row("ExemplarCloud.category_arrays", "category", "category of 2",
        lambda v: cloud().category_arrays(v, 3, 0.1)),
    Row("ExemplarCloud.category_arrays", "now", "count",
        lambda v: cloud().category_arrays(0, v, 0.1)),
    Row("ExemplarCloud.category_arrays", "decay_rate", "finite rate >= 0",
        lambda v: cloud().category_arrays(0, 3, v)),
    Row("ExemplarCloud.pruned", "now", "count", lambda v: cloud().pruned(v, 0.1, 0.01)),
    Row("ExemplarCloud.pruned", "decay_rate", "finite rate >= 0",
        lambda v: cloud().pruned(3, v, 0.01)),
    Row("ExemplarCloud.pruned", "threshold", "threshold >= 0",
        lambda v: cloud().pruned(3, 0.1, v)),
    # streams and initial scatter
    Row("substream", "seed", "seed", lambda v: substream(v, 1)),
    Row("substream", "key", "seed", lambda v: substream(1, 2, v)),
    Row("replica_stream", "master_seed", "seed", lambda v: replica_stream(v, 0, 0)),
    Row("replica_stream", "index", "seed", lambda v: replica_stream(1, v, 0)),
    Row("replica_stream", "r", "seed", lambda v: replica_stream(1, 0, v)),
    Row("scatter_for_seed", "count", "count >= 1",
        lambda v: scatter_for_seed([[0.5]], v, 0.1, UNIT, 1), ConfigError),
    Row("scatter_for_seed", "sigma", "finite value >= 0",
        lambda v: scatter_for_seed([[0.5]], 3, v, UNIT, 1), ConfigError),
    Row("scatter_for_seed", "seed", "seed",
        lambda v: scatter_for_seed([[0.5]], 3, 0.1, UNIT, v), ConfigError),
    # cell statistics
    Row("cell_stats", "n_samples", "count >= 1",
        lambda v: cell_stats([[0.25], [0.75]], UNIT, v, rng()), GeometryError),
    Row("centroidal_deviation", "n_samples", "count >= 1",
        lambda v: centroidal_deviation([[0.25], [0.75]], UNIT, v, rng()), GeometryError),
    Row("min_cell_volume", "n_samples", "count >= 1",
        lambda v: min_cell_volume([[0.25], [0.75]], UNIT, v, rng()), GeometryError),
    # runs and checks
    Row("run_trajectory", "n_steps", "count", lambda v: run_trajectory(pair(), v)),
    Row("run_trajectory", "stride", "count >= 1", lambda v: run_trajectory(pair(), 10, v)),
    Row("figure1_snapshot", "n_steps", "count", lambda v: figure1_snapshot(plane(), v)),
    Row("figure1_snapshot", "prune_threshold", "threshold >= 0",
        lambda v: figure1_snapshot(plane(), 10, v)),
    Row("figure1_snapshot", "grid_resolution", "count >= 2",
        lambda v: figure1_snapshot(plane(), 10, grid_resolution=v)),
    Row("longest_starvation", "k", "count >= 1", lambda v: longest_starvation([0, 0], v)),
    Row("longest_starvation", "burn_in", "count", lambda v: longest_starvation([0, 1], 2, v)),
    Row("property_non_collapse", "n_steps", "count",
        lambda v: property_non_collapse(pair(), v)),
    Row("property_non_collapse", "check_stride", "count >= 1",
        lambda v: property_non_collapse(pair(), 100, v)),
    Row("property_non_collapse", "n_samples", "count >= 1",
        lambda v: property_non_collapse(pair(), 100, n_samples=v), GeometryError),
    Row("property_non_collapse", "volume_floor", "finite value >= 0 or None",
        lambda v: property_non_collapse(pair(), 100, volume_floor=v)),
    Row("property_non_convergence", "n_steps", "late-window length",
        lambda v: property_non_convergence(pair(), v)),
    Row("property_non_convergence", "config.decay_rate", "model rate 0 or one that decays",
        lambda v: property_non_convergence(pair(v), 100)),
    Row("property_non_extinction", "n_steps", "count",
        lambda v: property_non_extinction(pair(), v)),
    Row("property_non_extinction", "window", "count >= 1",
        lambda v: property_non_extinction(pair(), 100, v)),
    Row("property_non_extinction", "config.decay_rate", "model rate that decays",
        lambda v: property_non_extinction(pair(v), 100)),
    Row("property_macqueen_cvt", "n_steps", "multiple of 10",
        lambda v: property_macqueen_cvt(pair(0.0), v)),
    Row("property_macqueen_cvt", "config.decay_rate", "model rate 0",
        lambda v: property_macqueen_cvt(pair(v), 100)),
    Row("theorem_suite", "n_steps", "late-window length", lambda v: theorem_suite(pair(), v)),
    Row("theorem_suite", "window", "count >= 1", lambda v: theorem_suite(pair(), 100, v)),
    Row("theorem_suite", "check_stride", "count >= 1",
        lambda v: theorem_suite(pair(), 100, 50, v)),
    Row("theorem_suite", "config.decay_rate", "model rate that decays",
        lambda v: theorem_suite(pair(v), 100)),
    # ensembles
    Row("boundary_samples", "decay_rate", "rate that decays",
        lambda v: _SAMPLES(v, [3], 2, 1)),
    Row("boundary_samples", "n_targets", "count", lambda v: _SAMPLES(0.1, [3, v], 2, 1)),
    Row("boundary_samples", "replicas", "count >= 1", lambda v: _SAMPLES(0.1, [3], v, 1)),
    Row("boundary_samples", "master_seed", "seed", lambda v: _SAMPLES(0.1, [3], 2, v)),
    Row("boundary_samples", "index", "count", lambda v: _SAMPLES(0.1, [3], 2, 1, v)),
    Row("boundary_variance_curve", "lambda_grid", "rate that decays",
        lambda v: _CURVE([0.1, v], [3], 2, 1)),
    Row("boundary_variance_curve", "n_list", "count or math.inf",
        lambda v: _CURVE([0.1], [3, v], 2, 1)),
    Row("boundary_variance_curve", "replicas", "count >= 2", lambda v: _CURVE([0.1], [3], v, 1)),
    Row("boundary_variance_curve", "master_seed", "seed", lambda v: _CURVE([0.1], [3], 2, v)),
]

# classes whose callables take numbers outside the table, with the reason
_EXEMPT = {
    "CellStats": "a result record, filled in by cell_stats",
    "EnsembleEstimate": "a result record, filled in by boundary_variance_curve",
    "PropertyReport": "a result record, filled in by the property checks",
    "RunSpecFile": "a result record, filled in by parse_config",
    "SnapshotResult": "a result record, filled in by figure1_snapshot",
    "TrajectoryRecord": "a result record, filled in by run_trajectory",
}

# parameters that take numbers but carry no numeric annotation or default
_NUMERIC_NAMES = {"decay_rate", "n", "r", "k", "dim", "key", "seed", "master_seed", "index",
                  "replicas", "lambda_grid", "n_list", "n_targets", "count", "sigma",
                  "category", "now", "threshold", "birth_step"}

# replica_stream makes the stream that no_run refuses, so its rows run without it
_UNGUARDED = {"replica_stream"}


def _callables():
    # every callable of exdyn.__all__ but the error classes, and the public
    # methods of its classes
    for name in exdyn.__all__:
        obj = getattr(exdyn, name)
        if not callable(obj) or isinstance(obj, type) and issubclass(obj, Exception):
            continue
        yield name, obj
        if isinstance(obj, type):
            for attr, method in vars(obj).items():
                if inspect.isfunction(method) and not attr.startswith("_"):
                    yield f"{name}.{attr}", method


def _numeric(parameter) -> bool:
    default = parameter.default
    return (parameter.annotation in ("int", "float")
            or (type(default) in (int, float))
            or parameter.name in _NUMERIC_NAMES)


def _cases():
    for row in _ROWS:
        for value in _BAD[row.rule]:
            yield pytest.param(row, value, id=f"{row.name}-{row.param}-{value!r}")


@pytest.mark.parametrize("row,value", _cases())
def test_bad_values_raise_the_documented_error_before_anything_runs(request, row, value):
    if row.name not in _UNGUARDED:
        request.getfixturevalue("no_run")
    with pytest.raises(row.error):
        row.call(value)


def test_every_numeric_parameter_has_a_row_or_an_exemption():
    rows = {(row.name, row.param.split(".")[0]) for row in _ROWS}
    missing = []
    for name, obj in _callables():
        if name.split(".")[0] in _EXEMPT:
            continue
        missing += [(name, p) for p, parameter in inspect.signature(obj).parameters.items()
                    if p != "self" and _numeric(parameter) and (name, p) not in rows]
    assert not missing, f"numeric parameters with neither a row nor an exemption: {missing}"


def test_every_row_names_a_real_parameter_and_rule():
    callables = dict(_callables())
    for row in _ROWS:
        assert row.rule in _BAD, row
        params = inspect.signature(callables[row.name]).parameters
        assert row.param.split(".")[0] in params, row
    assert set(_EXEMPT) <= set(callables)

