"""Correctness checks on one run's CSV outputs, and its exact update count.

Imported by the measured child only after its clocks stop, because it
imports ``exdyn``.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

from exdyn.config import header_text, parse_config
from exdyn.errors import ExdynError
from exdyn.harness import equilibrium_steps


def count_updates(spec) -> int:
    """Model updates the run performs: one step of one trajectory, or one
    step of one ensemble replica."""
    if spec.experiment in ("trajectory", "snapshot"):
        return spec.n_steps
    if spec.experiment == "properties":
        if spec.model.decay_rate == 0:
            return spec.n_steps
        return spec.n_steps * (4 if spec.negative_control else 3)
    if spec.experiment == "variance-curve":
        total = 0
        for lam in spec.lambda_grid:
            horizon = max(equilibrium_steps(lam) if n == math.inf else n
                          for n in spec.n_list)
            total += spec.replicas * horizon
        return total
    return 0


def _finite(cell: str) -> bool:
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return True  # a label, not a number


def check_outputs(job: dict, spec, outdir) -> tuple[list, dict]:
    """Check every expected CSV of ``job`` in ``outdir``.

    Returns (problems, files): ``problems`` is empty when the outputs are
    correct; ``files`` maps each CSV found to its sha256, data rows and
    bytes.  A CSV is correct when its header re-parses to the run's own
    expanded spec, every row has one cell per column and no number is
    NaN or infinite, the row count matches the workload's seed-independent
    count, and, at the workload's default seed, its sha256 matches the
    recorded digest.
    """
    problems = []
    files = {}
    at_default_seed = job["seed"] == job["default_seed"]
    for name, want_rows in job["rows"].items():
        path = Path(outdir) / name
        try:
            data = path.read_bytes()
        except OSError:
            problems.append(f"{name}: missing")
            continue
        digest = hashlib.sha256(data).hexdigest()
        text = data.decode("utf-8", errors="replace")
        lines = text.splitlines()
        body = [line for line in lines if not line.startswith("#")]
        rows = len(body) - 1
        files[name] = {"sha256": digest, "rows": rows, "bytes": len(data)}

        try:
            echoed = parse_config(header_text(text),
                                  default_experiment=job["subcommand"])
        except ExdynError as err:
            problems.append(f"{name}: header does not parse ({err})")
        else:
            if echoed.expanded != spec.expanded:
                problems.append(f"{name}: header differs from the run's spec")
        if rows < 0:
            problems.append(f"{name}: no column line")
            continue
        width = len(body[0].split(","))
        for lineno, line in enumerate(body[1:], start=1):
            cells = line.split(",")
            if len(cells) != width or not all(map(_finite, cells)):
                problems.append(f"{name}: malformed data row {lineno}")
                break
        if want_rows is not None and rows != want_rows:
            problems.append(f"{name}: {rows} data rows, expected {want_rows}")
        if at_default_seed and job["digests"].get(name) != digest:
            problems.append(f"{name}: sha256 {digest} differs from the "
                            f"recorded digest at seed {job['seed']}")
    return problems, files
