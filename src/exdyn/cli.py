"""Command-line interface.

    exdyn <subcommand> --config <path> [--seed S] [--out DIR]

Subcommands: trajectory, variance-curve, snapshot, properties, ar1-table.
Each writes CSV files into the output directory, prefixed by a header of
``# key = value`` lines echoing the fully expanded configuration (so any
output is reproducible from its own header).  Numeric cells use shortest
round-trip formatting; identical command + config + seed gives
byte-identical files.

The trajectory writer never holds the run's record: it formats and writes
the states of each chunk of draws as the engine yields them, so its memory
does not grow with n_steps.  It calls repr once per run of values in a
column that equal the one above bit for bit; the repeats reuse its text.  A
mean that did not win a step keeps its value, so repeats are common: a
third of the cells of a 1-D two-category run at stride 1.  A chunk's rows
are joined into one text block by str.join and written with one write.

Exit codes: 0 success, 1 usage or configuration error, 2 runtime error,
3 property-suite mismatch.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .ar1 import boundary_params, variance_of_Y
from .config import EXPERIMENTS, parse_config
from .errors import ConfigError, ExdynError
from .harness import (
    _run_length,
    _trajectory_blocks,
    boundary_variance_curve,
    figure1_snapshot,
    property_macqueen_cvt,
    suite_input_problem,
    theorem_suite,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_PROPERTY = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the contract here is 1
    def error(self, message):
        raise _UsageError(message)


def _fmt(value) -> str:
    return repr(float(value))


def _float_texts(column) -> list:
    """_fmt of every value in a 1-D float array.

    repr runs once per run of values that equal the one above bit for bit;
    the rest reuse its text.  Bits, not ==, decide, so a -0.0 under a 0.0
    still prints as -0.0.
    """
    bits = column.view(np.uint64)
    new = np.empty(len(column), dtype=bool)
    new[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=new[1:])
    texts = np.array([repr(v) for v in column[new].tolist()], dtype=object)
    return texts[np.cumsum(new) - 1].tolist()


def _csv_block(rows) -> str:
    """The rows, each a sequence of cell texts, as CSV lines of one text."""
    return "\n".join([*map(",".join, rows), ""])


def _write_csv(path: Path, spec, columns, blocks):
    # blocks may be a generator of _csv_block texts: each is written as it comes
    with path.open("w") as fh:
        fh.writelines(line + "\n" for line in spec.echo_lines())
        fh.write(",".join(columns) + "\n")
        for block in blocks:
            fh.write(block)
    print(f"wrote {path}")


def _trajectory_text(blocks, stride, pair):
    """The rows of trajectory.csv, one text block per block of the engine's
    states: step, then x1, x2, b for the 1-D pair, or every mean coordinate
    and then every weight, the order of the states, otherwise."""
    step = 0
    for states, _ in blocks:
        if not len(states):
            continue
        if pair:
            x1, x2 = states[:, 0], states[:, 1]
            columns = x1, x2, (x1 + x2) / 2.0  # TrajectoryRecord.boundaries, bit for bit
        else:
            columns = states.T
        steps = map(str, range(step, step + len(states) * stride, stride))
        step += len(states) * stride
        yield _csv_block(zip(steps, *map(_float_texts, columns)))


def _run_trajectory(spec, outdir):
    n_steps, stride = _run_length(spec.n_steps, spec.stride)
    k, dim = spec.model.k, spec.model.domain.dim
    pair = k == 2 and dim == 1
    if pair:
        columns = ["n", "x1", "x2", "b"]
    else:
        columns = ["n"]
        for j in range(k):
            columns.extend(f"x{j + 1}_{d + 1}" for d in range(dim))
        columns.extend(f"w{j + 1}" for j in range(k))
    blocks = _trajectory_blocks(spec.model, n_steps, stride)
    _write_csv(outdir / "trajectory.csv", spec, columns,
               _trajectory_text(blocks, stride, pair))
    return EXIT_OK, None


def _run_variance_curve(spec, outdir):
    estimates = boundary_variance_curve(spec.lambda_grid, spec.n_list,
                                        spec.replicas, spec.seed)
    columns = ["lambda", "n", "var_b", "stderr", "var_Y_pred"]
    rows = []
    for est in estimates:
        rows.append([
            _fmt(est.decay_rate),
            str(est.n_steps),
            _fmt(est.variance),
            _fmt(est.var_stderr),
            _fmt(variance_of_Y(est.decay_rate, est.n)),
        ])
    _write_csv(outdir / "variance_curve.csv", spec, columns, [_csv_block(rows)])
    return EXIT_OK, None


def _run_snapshot(spec, outdir):
    snap = figure1_snapshot(spec.model, spec.n_steps, spec.prune_threshold,
                            scatter_points=spec.scatter_points,
                            grid_resolution=spec.grid_resolution)
    rows = ([_fmt(p[0]), _fmt(p[1]), _fmt(w), str(int(c))]
            for p, w, c in zip(snap.positions, snap.weights, snap.categories))
    _write_csv(outdir / "exemplars.csv", spec,
               ["x", "y", "weight", "category"], [_csv_block(rows)])
    rows = ([str(j), _fmt(m[0]), _fmt(m[1]), _fmt(w)]
            for j, (m, w) in enumerate(zip(snap.means, snap.category_weights)))
    _write_csv(outdir / "means.csv", spec,
               ["category", "x", "y", "weight"], [_csv_block(rows)])
    rows = ([_fmt(s[0, 0]), _fmt(s[0, 1]), _fmt(s[1, 0]), _fmt(s[1, 1])]
            for s in snap.boundary_segments)
    _write_csv(outdir / "boundaries.csv", spec,
               ["x0", "y0", "x1", "y1"], [_csv_block(rows)])
    return EXIT_OK, None


def _run_properties(spec, outdir):
    problem = suite_input_problem(spec.model, spec.n_steps)
    if problem:
        raise ConfigError(problem[1], field=problem[0])
    if spec.model.decay_rate == 0:
        results = [(property_macqueen_cvt(spec.model, spec.n_steps), True)]
    else:
        results = theorem_suite(spec.model, spec.n_steps, spec.window,
                                spec.check_stride, spec.negative_control)
    columns = ["property", "passed", "expected_pass", "kind", "name", "value"]
    rows = []
    for report, expected in results:
        base = [report.name, "true" if report.passed else "false",
                "true" if expected else "false"]
        for name, value in report.stats.items():
            rows.append(base + ["stat", name, _fmt(value)])
        for name, value in report.thresholds.items():
            rows.append(base + ["threshold", name, _fmt(value)])
    _write_csv(outdir / "properties.csv", spec, columns, [_csv_block(rows)])
    mismatches = [
        f"{report.name} {'failed' if expected else 'unexpectedly passed'}"
        for report, expected in results if report.passed != expected
    ]
    if mismatches:
        return EXIT_PROPERTY, "property suite mismatch: " + "; ".join(mismatches)
    return EXIT_OK, None


def _run_ar1_table(spec, outdir):
    columns = ["lambda", "K", "sigma", "stationary_variance"]
    rows = []
    for lam in spec.lambda_grid:
        K, sigma = boundary_params(lam)
        rows.append([_fmt(lam), _fmt(K), _fmt(sigma),
                     _fmt(variance_of_Y(lam, math.inf))])
    _write_csv(outdir / "ar1_table.csv", spec, columns, [_csv_block(rows)])
    return EXIT_OK, None


_HANDLERS = {
    "trajectory": _run_trajectory,
    "variance-curve": _run_variance_curve,
    "snapshot": _run_snapshot,
    "properties": _run_properties,
    "ar1-table": _run_ar1_table,
}

def run(subcommand: str, spec, outdir="."):
    """Execute one subcommand on a parsed RunSpecFile; returns
    (exit_code, message) and writes the subcommand's CSV files."""
    if subcommand not in _HANDLERS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    if spec.experiment != subcommand:
        raise ConfigError(
            f"config declares experiment {spec.experiment!r} but the "
            f"subcommand is {subcommand!r}", field="experiment")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    return _HANDLERS[subcommand](spec, outdir)


_HELP = {
    "trajectory": "record a single run of the dynamics",
    "variance-curve": "ensemble variance of the boundary over a decay grid",
    "snapshot": "2-D exemplar cloud, means and cell boundaries after a run",
    "properties": "long-run property checks (non-extinction, non-collapse, "
                  "non-convergence, centroidal limit)",
    "ar1-table": "closed-form boundary coefficients over a decay grid",
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="exdyn",
                     description="Experiments on decaying-weight exemplar dynamics.")
    sub = parser.add_subparsers(dest="command", metavar="subcommand")
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=_HELP[name])
        p.add_argument("--config", required=True, help="path to a key=value config file")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="output directory (default: config 'out' key or '.')")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE

    try:
        text = Path(args.config).read_text()
    except OSError as err:
        print(f"error: cannot read config {args.config}: {err}", file=sys.stderr)
        return EXIT_USAGE

    overrides = {}
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    if args.out is not None:
        overrides["out"] = args.out
    try:
        spec = parse_config(text, overrides=overrides,
                            default_experiment=args.command)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE

    outdir = spec.out or "."
    try:
        code, message = run(args.command, spec, outdir=outdir)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except ExdynError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as err:
        print(f"error: {getattr(err, 'filename', None) or outdir}: {err}",
              file=sys.stderr)
        return EXIT_RUNTIME
    if message:
        print(message, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
