"""Plain-text run configuration.

A config file is a sequence of ``key = value`` lines; blank lines and lines
starting with ``#`` are ignored.  A ``preset`` key expands to a full set of
keys that explicit keys in the same file (and CLI overrides) may replace.
Parsing produces a RunSpecFile whose ``expanded`` mapping is the canonical,
fully explicit form: echoing it back through ``# key = value`` header lines
and re-parsing yields the same run.

The key vocabulary is declared once: ``_GLOBAL_KEYS`` and the model keys
that ``_parse_model`` reads, then ``_RUN_KEYS``, the single table of every
other key.  Each of its entries gives the experiments a key applies to, its
parser and its default, so the allowed keys of each experiment and the echo
order (global keys, model keys, then the table's order) follow from it.

Keys are checked twice: unknown or ill-formed keys are rejected with their
line number, and value-level violations are reported with the field name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError, ParameterError
from .floattext import fmt
from .model import Domain, ModelConfig, _decay_factor
from .presets import preset_keys, scatter_for_seed

EXPERIMENTS = ("trajectory", "variance-curve", "snapshot", "properties", "ar1-table")

_GLOBAL_KEYS = ("experiment", "seed", "out")

# experiments that simulate one model, and the keys _parse_model reads for it
_MODEL_EXPERIMENTS = ("trajectory", "snapshot", "properties")
_MODEL_KEYS = (
    "k", "lambda", "dim", "domain", "distribution",
    "init", "init_means", "init_weights",
    "scatter_centers", "scatter_count", "scatter_sigma",
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


def _raw(seen, key, default=None):
    """(text, line) of ``key``; a missing key reads as ``default`` (config
    text, line None), and None makes the key required."""
    if key in seen:
        return seen[key]
    if default is None:
        raise ConfigError(f"missing required key: {key}", field=key)
    return default, None


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


def _float_value(key, raw, lineno, minimum=None):
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {raw!r}",
                          line=lineno, field=key) from None
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {raw!r}", line=lineno, field=key)
    if minimum is not None and value < minimum:
        raise ConfigError(f"{key} must be >= {minimum}, got {value}",
                          line=lineno, field=key)
    return value


def _float_list(key, raw, lineno):
    tokens = raw.replace(",", " ").split()
    if not tokens:
        raise ConfigError(f"{key} must list at least one number", line=lineno, field=key)
    return [_float_value(key, tok, lineno) for tok in tokens]


def _format_floats(values) -> str:
    return " ".join(map(fmt, values))


# parsers of the run-key table: (key, raw text, line) -> (value, echo text)

def _integer(minimum):
    def parse(key, raw, lineno):
        value = _int_value(key, raw, lineno, minimum)
        return value, str(value)
    return parse


def _nonnegative_float(key, raw, lineno):
    value = _float_value(key, raw, lineno, minimum=0.0)
    return value, fmt(value)


def _flag(key, raw, lineno):
    if raw not in ("true", "false"):
        raise ConfigError(f"{key} must be 'true' or 'false', got {raw!r}",
                          line=lineno, field=key)
    return raw == "true", raw


def _decaying(key, lam, lineno, needs):
    # the closed forms' rate rule, model._decay_factor, as a ConfigError
    try:
        _decay_factor(lam, needs)
    except ParameterError as err:
        raise ConfigError(str(err), line=lineno, field=key) from None


def _decay_grid(key, raw, lineno):
    grid = _float_list(key, raw, lineno)
    for lam in grid:
        _decaying(key, lam, lineno, "lambda_grid entries")
    return tuple(grid), _format_floats(grid)


def _horizons(key, raw, lineno):
    n_list = tuple(math.inf if tok == "inf" else _int_value(key, tok, lineno, minimum=0)
                   for tok in raw.replace(",", " ").split())
    if not n_list:
        raise ConfigError("n_list must list at least one horizon", line=lineno, field=key)
    return n_list, " ".join("inf" if n == math.inf else str(n) for n in n_list)


# Every key besides the global and model keys, in echo order:
# (key, experiments it applies to, parser, default as config text).
# A default of None makes the key required.  A default goes through the
# key's parser like written text, so a header reads the same whether the
# key was written out or left to its default.
_RUN_KEYS = (
    ("n_steps", _MODEL_EXPERIMENTS, _integer(0), None),
    ("stride", ("trajectory",), _integer(1), "1"),
    ("replicas", ("variance-curve",), _integer(2), "10000"),
    ("lambda_grid", ("variance-curve", "ar1-table"), _decay_grid, None),
    ("n_list", ("variance-curve",), _horizons, None),
    ("window", ("properties",), _integer(1), "10000"),
    ("check_stride", ("properties",), _integer(1), "1000"),
    ("negative_control", ("properties",), _flag, "true"),
    ("prune_threshold", ("snapshot",), _nonnegative_float, "0.01"),
    ("grid_resolution", ("snapshot",), _integer(2), "512"),
)

_ALL_KEYS = frozenset(_GLOBAL_KEYS + _MODEL_KEYS + ("preset",)
                      + tuple(entry[0] for entry in _RUN_KEYS))


def _allowed_keys(experiment):
    keys = set(_GLOBAL_KEYS)
    if experiment in _MODEL_EXPERIMENTS:
        keys.update(_MODEL_KEYS)
    keys.update(key for key, experiments, _, _ in _RUN_KEYS if experiment in experiments)
    return keys


def _counted_floats(seen, key, name, count):
    # the numbers of a required key that must list ``name`` = ``count`` of them
    values = _float_list(key, *_raw(seen, key))
    if len(values) != count:
        raise ConfigError(f"{key} must list {name} = {count} numbers, got {len(values)}",
                          line=seen[key][1], field=key)
    return values


def _parse_model(seen, seed, experiment):
    k = _int_value("k", *_raw(seen, "k"), minimum=1)
    decay = _float_value("lambda", *_raw(seen, "lambda"), minimum=0.0)
    # the property checks' variance floor needs a closed form, which a
    # decay whose factor exp(-lambda) rounds to 1.0 does not have
    if experiment == "properties" and decay:
        _decaying("lambda", decay, seen["lambda"][1], "property checks with forgetting")

    domain_vals = _float_list("domain", *_raw(seen, "domain"))
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

    dist, dist_line = _raw(seen, "distribution", "uniform")
    if dist != "uniform":
        raise ConfigError(
            f"distribution must be 'uniform', got {dist!r}",
            line=dist_line, field="distribution")

    init, init_line = _raw(seen, "init", "explicit")
    if init not in ("explicit", "scatter"):
        raise ConfigError(f"init must be 'explicit' or 'scatter', got {init!r}",
                          line=init_line, field="init")

    echo = {
        "k": str(k),
        "lambda": fmt(decay),
        "dim": str(dim),
        "domain": _format_floats(domain_vals),
        "distribution": dist,
        "init": init,
    }
    unused = (("scatter_centers", "scatter_count", "scatter_sigma") if init == "explicit"
              else ("init_means", "init_weights"))
    for key in unused:
        if key in seen:
            raise ConfigError(f"{key} does not apply when init = {init}",
                              line=seen[key][1], field=key)
    scatter_points = None
    if init == "explicit":
        means = _counted_floats(seen, "init_means", "k*dim", k * dim)
        weights = _counted_floats(seen, "init_weights", "k", k)
        init_means = np.array(means).reshape(k, dim)
        init_weights = np.array(weights)
        echo["init_means"] = _format_floats(means)
        echo["init_weights"] = _format_floats(weights)
    else:
        centers = _counted_floats(seen, "scatter_centers", "k*dim", k * dim)
        count = _int_value("scatter_count", *_raw(seen, "scatter_count", "100"),
                           minimum=1)
        sigma = _float_value("scatter_sigma", *_raw(seen, "scatter_sigma", "3.0"),
                             minimum=0.0)
        init_means, init_weights, scatter_points = scatter_for_seed(
            np.array(centers).reshape(k, dim), count, sigma, domain, seed)
        echo["scatter_centers"] = _format_floats(centers)
        echo["scatter_count"] = str(count)
        echo["scatter_sigma"] = fmt(sigma)

    try:
        model = ModelConfig(k=k, decay_rate=decay, domain=domain, init_means=init_means,
                            init_weights=init_weights, seed=seed)
    except (ParameterError, DomainError) as err:
        raise ConfigError(str(err)) from None

    if experiment == "snapshot" and dim != 2:
        raise ConfigError("snapshot requires a 2-axis domain", field="dim")
    return model, scatter_points, echo


def parse_config(text: str, overrides: dict = None,
                 default_experiment: str = None) -> RunSpecFile:
    """Parse config text (after preset expansion and ``overrides``, which
    win over everything) into a validated RunSpecFile.

    ``default_experiment`` fills in the experiment when the text does not
    set one (the CLI passes its subcommand here)."""
    seen = _merge(_tokenize(text), overrides)

    if "experiment" in seen:
        experiment, exp_line = seen["experiment"]
    elif default_experiment is not None:
        experiment, exp_line = default_experiment, None
    else:
        raise ConfigError("missing required key: experiment", field="experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {experiment!r}; expected one of {', '.join(EXPERIMENTS)}",
            line=exp_line, field="experiment")

    allowed = _allowed_keys(experiment)
    for key, (_, lineno) in seen.items():
        if key not in allowed:
            raise ConfigError(
                f"key {key!r} does not apply to experiment {experiment!r}",
                line=lineno, field=key)

    seed = _int_value("seed", *_raw(seen, "seed"))
    if not 0 <= seed < 2**64:
        raise ConfigError("seed must fit in 64 bits", line=seen["seed"][1], field="seed")

    # the echo's insertion order is the header's line order; out is accepted
    # but never echoed, so headers stay byte-identical wherever files land
    echo = {"experiment": experiment, "seed": str(seed)}
    fields = {}
    if experiment in _MODEL_EXPERIMENTS:
        fields["model"], fields["scatter_points"], model_echo = _parse_model(
            seen, seed, experiment)
        echo.update(model_echo)
    for key, experiments, parse, default in _RUN_KEYS:
        if experiment in experiments:
            fields[key], echo[key] = parse(key, *_raw(seen, key, default))
    out, _ = seen.get("out", (None, None))
    return RunSpecFile(experiment=experiment, seed=seed, out=out, expanded=echo, **fields)


def header_text(csv_text: str) -> str:
    """Recover config text from the ``# key = value`` header of a CSV."""
    lines = []
    for line in csv_text.splitlines():
        if line.startswith("#"):
            lines.append(line[1:].strip())
        else:
            break
    return "\n".join(lines) + "\n"
