"""Command-line interface.

    exdyn <subcommand> --config <path> [--seed S] [--out DIR]

Subcommands: trajectory, variance-curve, snapshot, properties, ar1-table.
Each writes CSV files into the output directory, prefixed by a header of
``# key = value`` lines echoing the fully expanded configuration (so any
output is reproducible from its own header).  Float cells are
floattext.fmt's shortest round-trip text; identical command + config + seed
gives byte-identical files, written in binary.

The trajectory writer never holds the run's record: it formats and writes
the states of each chunk of draws as the engine yields them, so its memory
does not grow with n_steps.  rowtext.csv_rows makes the chunk's rows in
numpy, a sub-block at a time: it formats only the cells whose bits differ
from the cell above, copies the text of the rest, and leaves to repr the
few values its digit arithmetic does not cover.  Each sub-block comes as
one bytes object, its cells' NUL padding dropped by bytes.translate, and
is written as soon as it is made.  A mean that did not win a step keeps
its value, so repeats are common: a third of the cells of a 1-D
two-category run at stride 1.

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
from .floattext import fmt
from .harness import (
    _Run,
    _run_length,
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


def _csv_block(rows) -> bytes:
    """The rows, each a sequence of cell texts, as CSV lines of one block."""
    return "\n".join([*map(",".join, rows), ""]).encode()


def _write_csv(path: Path, spec, columns, blocks):
    # blocks may be a generator of bytes: each is written as it comes
    with path.open("wb") as fh:
        fh.write("".join(line + "\n" for line in
                         [*spec.echo_lines(), ",".join(columns)]).encode())
        for block in blocks:
            fh.write(block)
    print(f"wrote {path}")


def _trajectory_columns(blocks, pair):
    """The float columns of trajectory.csv for each block of the engine's
    states: x1, x2, b for the 1-D pair, whose blocks hold only the means,
    or every mean coordinate and then every weight, the order of the
    states, otherwise."""
    for states, _ in blocks:
        if pair:
            x1, x2 = states[:, 0], states[:, 1]
            # TrajectoryRecord.boundaries, bit for bit
            yield np.column_stack((x1, x2, (x1 + x2) / 2.0))
        else:
            yield states


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
    # imported here, so the runs that write no trajectory do not compile it
    from .rowtext import csv_rows

    blocks = _Run(spec.model).blocks(n_steps, stride, means_only=pair)
    _write_csv(outdir / "trajectory.csv", spec, columns,
               csv_rows(_trajectory_columns(blocks, pair), stride))
    return EXIT_OK, None


def _run_variance_curve(spec, outdir):
    estimates = boundary_variance_curve(spec.lambda_grid, spec.n_list,
                                        spec.replicas, spec.seed)
    columns = ["lambda", "n", "var_b", "stderr", "var_Y_pred"]
    rows = []
    for est in estimates:
        rows.append([
            fmt(est.decay_rate),
            str(est.n_steps),
            fmt(est.variance),
            fmt(est.var_stderr),
            fmt(variance_of_Y(est.decay_rate, est.n)),
        ])
    _write_csv(outdir / "variance_curve.csv", spec, columns, [_csv_block(rows)])
    return EXIT_OK, None


def _run_snapshot(spec, outdir):
    snap = figure1_snapshot(spec.model, spec.n_steps, spec.prune_threshold,
                            scatter_points=spec.scatter_points,
                            grid_resolution=spec.grid_resolution)
    rows = ([fmt(p[0]), fmt(p[1]), fmt(w), str(int(c))]
            for p, w, c in zip(snap.positions, snap.weights, snap.categories))
    _write_csv(outdir / "exemplars.csv", spec,
               ["x", "y", "weight", "category"], [_csv_block(rows)])
    rows = ([str(j), fmt(m[0]), fmt(m[1]), fmt(w)]
            for j, (m, w) in enumerate(zip(snap.means, snap.category_weights)))
    _write_csv(outdir / "means.csv", spec,
               ["category", "x", "y", "weight"], [_csv_block(rows)])
    rows = ([fmt(s[0, 0]), fmt(s[0, 1]), fmt(s[1, 0]), fmt(s[1, 1])]
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
            rows.append(base + ["stat", name, fmt(value)])
        for name, value in report.thresholds.items():
            rows.append(base + ["threshold", name, fmt(value)])
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
        rows.append([fmt(lam), fmt(K), fmt(sigma),
                     fmt(variance_of_Y(lam, math.inf))])
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
