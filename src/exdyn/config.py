"""Plain-text run configuration.

A config file is a sequence of ``key = value`` lines; blank lines and lines
starting with ``#`` are ignored.  A ``preset`` key expands to a full set of
keys that explicit keys in the same file (and CLI overrides) may replace.
Parsing produces a RunSpecFile whose ``expanded`` mapping is the canonical,
fully explicit form: echoing it back through ``# key = value`` header lines
and re-parsing yields the same run.

Keys are checked twice: unknown or ill-formed keys are rejected with their
line number, and value-level violations are reported with the field name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError, ParameterError
from .model import DistributionSpec, Domain, ExemplarCloud, ModelConfig
from .presets import preset_keys, scatter_for_seed

EXPERIMENTS = ("trajectory", "variance-curve", "snapshot", "properties", "ar1-table")

_MODEL_KEYS = frozenset({
    "k", "lambda", "dim", "domain", "distribution",
    "init", "init_means", "init_weights",
    "scatter_centers", "scatter_count", "scatter_sigma",
})

_GLOBAL_KEYS = frozenset({"experiment", "seed", "out"})

_EXPERIMENT_KEYS = {
    "trajectory": _MODEL_KEYS | {"n_steps", "stride"},
    "snapshot": _MODEL_KEYS | {"n_steps", "prune_threshold", "grid_resolution"},
    "properties": _MODEL_KEYS | {"n_steps", "window", "check_stride", "negative_control"},
    "variance-curve": frozenset({"lambda_grid", "n_list", "replicas"}),
    "ar1-table": frozenset({"lambda_grid"}),
}

_ALL_KEYS = _GLOBAL_KEYS | {"preset"} | frozenset().union(*_EXPERIMENT_KEYS.values())

# echo order of the expanded config; also the only keys that may be echoed
_KEY_ORDER = (
    "experiment", "seed",
    "k", "lambda", "dim", "domain", "distribution",
    "init", "init_means", "init_weights",
    "scatter_centers", "scatter_count", "scatter_sigma",
    "n_steps", "stride", "replicas", "lambda_grid", "n_list",
    "window", "check_stride", "negative_control",
    "prune_threshold", "grid_resolution", "out",
)


@dataclass(frozen=True, eq=False)
class RunSpecFile:
    """One fully resolved run: what to do, on which model, from which seed.

    ``expanded`` is the canonical key=value form (strings, fixed order) that
    output headers echo; fields not applicable to the experiment are None.
    """

    experiment: str
    seed: int
    out: str = None
    expanded: dict = field(default_factory=dict)
    model: ModelConfig = None
    scatter_points: np.ndarray = None
    n_steps: int = None
    stride: int = None
    replicas: int = None
    lambda_grid: tuple = None
    n_list: tuple = None
    window: int = None
    check_stride: int = None
    negative_control: bool = None
    prune_threshold: float = None
    grid_resolution: int = None

    def build_cloud(self):
        """Exemplar cloud for scatter-initialized runs, else None: every
        scatter point at birth step 0 with weight 1."""
        if self.scatter_points is None:
            return None
        k, count, dim = self.scatter_points.shape
        cloud = ExemplarCloud(k, dim)
        for j in range(k):
            cloud.seed_category(j, self.scatter_points[j], np.ones(count), birth_step=0)
        return cloud

    def echo_lines(self):
        return [f"# {k} = {v}" for k, v in self.expanded.items()]


def _tokenize(text):
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw.strip()!r}", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError("missing key before '='", line=lineno)
        if key not in _ALL_KEYS:
            raise ConfigError(f"unknown key {key!r}", line=lineno)
        if not value:
            raise ConfigError(f"empty value for key {key!r}", line=lineno)
        entries.append((lineno, key, value))
    return entries


def _merge(entries, overrides):
    seen = {}
    for lineno, key, value in entries:
        if key in seen:
            raise ConfigError(f"duplicate key {key!r}", line=lineno)
        seen[key] = (value, lineno)

    if "preset" in seen:
        value, lineno = seen.pop("preset")
        try:
            base = preset_keys(value)
        except ConfigError as err:
            raise ConfigError(str(err), line=lineno) from None
        for key, val in base.items():
            seen.setdefault(key, (val, None))

    for key, value in (overrides or {}).items():
        if key not in _ALL_KEYS or key == "preset":
            raise ConfigError(f"unknown override key {key!r}")
        seen[key] = (str(value), None)
    return seen


def _take(seen, key):
    value, lineno = seen.get(key, (None, None))
    return value, lineno


def _require(seen, key):
    if key not in seen:
        raise ConfigError(f"missing required key: {key}", field=key)
    return seen[key]


def _int_value(key, raw, lineno, minimum=None):
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {raw!r}",
                          line=lineno, field=key) from None
    if minimum is not None and value < minimum:
        raise ConfigError(f"{key} must be >= {minimum}, got {value}",
                          line=lineno, field=key)
    return value


def _float_value(key, raw, lineno, minimum=None, strict=False):
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {raw!r}",
                          line=lineno, field=key) from None
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {raw!r}", line=lineno, field=key)
    if minimum is not None:
        if strict and not value > minimum:
            raise ConfigError(f"{key} must be > {minimum}, got {value}",
                              line=lineno, field=key)
        if not strict and value < minimum:
            raise ConfigError(f"{key} must be >= {minimum}, got {value}",
                              line=lineno, field=key)
    return value


def _float_list(key, raw, lineno):
    tokens = raw.replace(",", " ").split()
    if not tokens:
        raise ConfigError(f"{key} must list at least one number", line=lineno, field=key)
    return [_float_value(key, tok, lineno) for tok in tokens]


def _bool_value(key, raw, lineno):
    if raw == "true":
        return True
    if raw == "false":
        return False
    raise ConfigError(f"{key} must be 'true' or 'false', got {raw!r}",
                      line=lineno, field=key)


def _format_float(value) -> str:
    return repr(float(value))


def _format_floats(values) -> str:
    return " ".join(repr(float(v)) for v in values)


def _parse_model(seen, seed, experiment):
    k = _int_value("k", *_require(seen, "k"), minimum=1)
    decay = _float_value("lambda", *_require(seen, "lambda"), minimum=0.0)

    domain_vals = _float_list("domain", *_require(seen, "domain"))
    if len(domain_vals) % 2:
        raise ConfigError(
            "domain must list lower and upper per axis (an even count of numbers)",
            line=seen["domain"][1], field="domain")
    dim = len(domain_vals) // 2
    if "dim" in seen:
        declared = _int_value("dim", *seen["dim"], minimum=1)
        if declared != dim:
            raise ConfigError(
                f"dim = {declared} conflicts with a {dim}-axis domain",
                line=seen["dim"][1], field="dim")
    lower = np.array(domain_vals[0::2])
    upper = np.array(domain_vals[1::2])
    try:
        domain = Domain(lower, upper)
    except ParameterError as err:
        raise ConfigError(str(err), line=seen["domain"][1], field="domain") from None

    dist_raw, dist_line = _take(seen, "distribution")
    if dist_raw is None:
        dist_raw = "uniform"
    if dist_raw != "uniform":
        raise ConfigError(
            "only the 'uniform' distribution is supported in config files "
            "(custom densities are library-level)",
            line=dist_line, field="distribution")

    init_raw, init_line = _take(seen, "init")
    init = init_raw or "explicit"
    if init not in ("explicit", "scatter"):
        raise ConfigError(f"init must be 'explicit' or 'scatter', got {init!r}",
                          line=init_line, field="init")

    scatter_points = None
    if init == "explicit":
        for key in ("scatter_centers", "scatter_count", "scatter_sigma"):
            if key in seen:
                raise ConfigError(f"{key} does not apply when init = explicit",
                                  line=seen[key][1], field=key)
        means = _float_list("init_means", *_require(seen, "init_means"))
        if len(means) != k * dim:
            raise ConfigError(
                f"init_means must list k*dim = {k * dim} numbers, got {len(means)}",
                line=seen["init_means"][1], field="init_means")
        weights = _float_list("init_weights", *_require(seen, "init_weights"))
        if len(weights) != k:
            raise ConfigError(
                f"init_weights must list k = {k} numbers, got {len(weights)}",
                line=seen["init_weights"][1], field="init_weights")
        init_means = np.array(means).reshape(k, dim)
        init_weights = np.array(weights)
        scatter = None
    else:
        for key in ("init_means", "init_weights"):
            if key in seen:
                raise ConfigError(f"{key} does not apply when init = scatter",
                                  line=seen[key][1], field=key)
        centers = _float_list("scatter_centers", *_require(seen, "scatter_centers"))
        if len(centers) != k * dim:
            raise ConfigError(
                f"scatter_centers must list k*dim = {k * dim} numbers, got {len(centers)}",
                line=seen["scatter_centers"][1], field="scatter_centers")
        count_raw, count_line = _take(seen, "scatter_count")
        count = _int_value("scatter_count", count_raw, count_line, minimum=1) \
            if count_raw is not None else 100
        sigma_raw, sigma_line = _take(seen, "scatter_sigma")
        sigma = _float_value("scatter_sigma", sigma_raw, sigma_line, minimum=0.0) \
            if sigma_raw is not None else 3.0
        scatter = (centers, count, sigma)
        init_means, init_weights, scatter_points = scatter_for_seed(
            np.array(centers).reshape(k, dim), count, sigma, domain, seed)

    try:
        model = ModelConfig(k=k, decay_rate=decay, domain=domain,
                            dist=DistributionSpec.uniform(),
                            init_means=init_means, init_weights=init_weights,
                            seed=seed)
    except (ParameterError, DomainError) as err:
        raise ConfigError(str(err)) from None

    if experiment == "snapshot" and dim != 2:
        raise ConfigError("snapshot requires a 2-axis domain", field="dim")

    echo = {
        "k": str(k),
        "lambda": _format_float(decay),
        "dim": str(dim),
        "domain": _format_floats(domain_vals),
        "distribution": "uniform",
        "init": init,
    }
    if init == "explicit":
        echo["init_means"] = _format_floats(init_means.ravel())
        echo["init_weights"] = _format_floats(init_weights)
    else:
        centers, count, sigma = scatter
        echo["scatter_centers"] = _format_floats(centers)
        echo["scatter_count"] = str(count)
        echo["scatter_sigma"] = _format_float(sigma)
    return model, scatter_points, echo


def parse_config(text: str, overrides: dict = None,
                 default_experiment: str = None) -> RunSpecFile:
    """Parse config text (after preset expansion and ``overrides``, which
    win over everything) into a validated RunSpecFile.

    ``default_experiment`` fills in the experiment when the text does not
    set one (the CLI passes its subcommand here)."""
    seen = _merge(_tokenize(text), overrides)

    if "experiment" in seen:
        exp_raw, exp_line = seen["experiment"]
    elif default_experiment is not None:
        exp_raw, exp_line = default_experiment, None
    else:
        raise ConfigError("missing required key: experiment", field="experiment")
    if exp_raw not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {exp_raw!r}; expected one of {', '.join(EXPERIMENTS)}",
            line=exp_line, field="experiment")
    experiment = exp_raw

    allowed = _EXPERIMENT_KEYS[experiment] | _GLOBAL_KEYS
    for key, (_, lineno) in seen.items():
        if key not in allowed:
            raise ConfigError(
                f"key {key!r} does not apply to experiment {experiment!r}",
                line=lineno, field=key)

    seed = _int_value("seed", *_require(seen, "seed"))
    if not 0 <= seed < 2**64:
        raise ConfigError("seed must fit in 64 bits", line=seen["seed"][1], field="seed")
    out, _ = _take(seen, "out")

    echo = {"experiment": experiment, "seed": str(seed)}
    fields = {}

    if experiment in ("trajectory", "snapshot", "properties"):
        model, scatter_points, model_echo = _parse_model(seen, seed, experiment)
        echo.update(model_echo)
        fields["model"] = model
        fields["scatter_points"] = scatter_points
        n_steps = _int_value("n_steps", *_require(seen, "n_steps"), minimum=0)
        fields["n_steps"] = n_steps
        echo["n_steps"] = str(n_steps)

    if experiment == "trajectory":
        raw, line = _take(seen, "stride")
        stride = _int_value("stride", raw, line, minimum=1) if raw is not None else 1
        fields["stride"] = stride
        echo["stride"] = str(stride)
    elif experiment == "snapshot":
        raw, line = _take(seen, "prune_threshold")
        thr = _float_value("prune_threshold", raw, line, minimum=0.0) \
            if raw is not None else 0.01
        raw, line = _take(seen, "grid_resolution")
        res = _int_value("grid_resolution", raw, line, minimum=2) \
            if raw is not None else 512
        fields["prune_threshold"] = thr
        fields["grid_resolution"] = res
        echo["prune_threshold"] = _format_float(thr)
        echo["grid_resolution"] = str(res)
    elif experiment == "properties":
        raw, line = _take(seen, "window")
        window = _int_value("window", raw, line, minimum=1) if raw is not None else 10_000
        raw, line = _take(seen, "check_stride")
        check = _int_value("check_stride", raw, line, minimum=1) if raw is not None else 1000
        raw, line = _take(seen, "negative_control")
        control = _bool_value("negative_control", raw, line) if raw is not None else True
        fields.update(window=window, check_stride=check, negative_control=control)
        echo["window"] = str(window)
        echo["check_stride"] = str(check)
        echo["negative_control"] = "true" if control else "false"
    elif experiment in ("variance-curve", "ar1-table"):
        raw, line = _require(seen, "lambda_grid")
        grid = _float_list("lambda_grid", raw, line)
        for lam in grid:
            if lam <= 0:
                raise ConfigError(f"lambda_grid entries must be > 0, got {lam}",
                                  line=line, field="lambda_grid")
        fields["lambda_grid"] = tuple(grid)
        echo["lambda_grid"] = _format_floats(grid)
        if experiment == "variance-curve":
            raw, line = _require(seen, "n_list")
            n_list = []
            for tok in raw.replace(",", " ").split():
                if tok == "inf":
                    n_list.append(math.inf)
                else:
                    n_list.append(_int_value("n_list", tok, line, minimum=0))
            if not n_list:
                raise ConfigError("n_list must list at least one horizon",
                                  line=line, field="n_list")
            fields["n_list"] = tuple(n_list)
            echo["n_list"] = " ".join(
                "inf" if n == math.inf else str(n) for n in n_list)
            raw, line = _take(seen, "replicas")
            replicas = _int_value("replicas", raw, line, minimum=2) \
                if raw is not None else 10_000
            fields["replicas"] = replicas
            echo["replicas"] = str(replicas)

    # out is accepted but never echoed: headers stay byte-identical no
    # matter where the files land.
    ordered = {key: echo[key] for key in _KEY_ORDER if key in echo}
    return RunSpecFile(experiment=experiment, seed=seed, out=out,
                       expanded=ordered, **fields)


def header_text(csv_text: str) -> str:
    """Recover config text from the ``# key = value`` header of a CSV."""
    lines = []
    for line in csv_text.splitlines():
        if line.startswith("#"):
            lines.append(line[1:].strip())
        else:
            break
    return "\n".join(lines) + "\n"
