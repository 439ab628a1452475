"""Benchmark of the exdyn command-line experiments.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --workload all  [--seconds S]

Run from the repository root.  Each sample is one fresh, single-process
Python interpreter (``child.py``) that imports ``exdyn`` from ``src``,
parses the workload's config and runs ``exdyn.cli.run`` once.  Samples run
one at a time (a closed loop with one client) until ``--seconds`` is used
up, and every sample's outputs are checked.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics (medians over the
samples) with ``--trace 0``, the per-layer metrics of traced samples with
``--trace 1``.  The line before it records the environment and every
sample.  See NOTES.md for what each workload and metric is for.

End-to-end times are in reference seconds.  The speed of a shared machine
drifts by up to a factor of two over minutes, which no median over a run
removes, so each sample also times a fixed kernel right before and right
after its run.  A measured time is scaled by ``REFERENCE_S`` over that
kernel's time: on a machine where the kernel takes ``REFERENCE_S``, a
reference second is a second.  The measured seconds are in the record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from workloads import WORKLOADS  # noqa: E402

CHILD_TIMEOUT_S = 150
REFERENCE_S = 0.2
MIN_SAMPLES = 3
MIN_TRACED = 2

END_TO_END_UNITS = {
    "wall_s": "s",
    "updates_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "config.parse_s": "s",
    "presets.scatter_s": "s",
    "ar1.import_s": "s",
    "ar1.calls": "count",
    "ar1.self_s": "s",
    "harness.trajectory_runs": "count",
    "harness.trajectory_self_s": "s",
    "harness.pair_steps_per_s": "steps/s",
    "harness.general_steps_per_s": "steps/s",
    "harness.ensemble_replica_steps_per_s": "steps/s",
    "harness.ensemble_self_s": "s",
    "harness.snapshot_self_s": "s",
    "harness.record_bytes": "B",
    "model.cloud_add_calls": "count",
    "model.cloud_add_s": "s",
    "geometry.samples_classified": "count",
    "geometry.samples_per_s": "samples/s",
    "geometry.self_s": "s",
    "geometry.temp_bytes_max": "B",
    "rng.streams_created": "count",
    "rng.substream_s": "s",
    "rng.streams_per_s": "streams/s",
    "cli.self_s": "s",
    "cli.csv_rows": "count",
    "cli.csv_bytes": "B",
    "cli.bytes_per_s": "B/s",
    "process.cpu_s": "s",
    "process.wall_s": "s",
    "process.reference_s": "s",
    "trace.overhead_s": "s",
    "trace.unspanned_s": "s",
}
# layer metrics that must repeat exactly across traced samples of one seed
EXACT_LAYER_METRICS = (
    "ar1.calls", "harness.trajectory_runs", "harness.record_bytes",
    "model.cloud_add_calls", "geometry.samples_classified",
    "geometry.temp_bytes_max", "rng.streams_created", "cli.csv_rows",
    "cli.csv_bytes",
)


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


def _source_dir(root: Path) -> Path:
    src = root / "src"
    if not (src / "exdyn" / "__init__.py").is_file():
        raise SetupError(f"no exdyn package under {src}")
    return src


def _child_env(src: Path) -> dict:
    env = dict(os.environ)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(src) + (os.pathsep + rest if rest else "")
    return env


def run_child(workload, seed, trace, root: Path, workdir: Path) -> dict:
    """One sample in a fresh interpreter.  Returns its result with
    ``failed`` set, or a stub naming why it produced none."""
    env = _child_env(_source_dir(root))
    outdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=workdir))
    job = workload.job(seed, outdir, trace)
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(job)],
            cwd=root, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"failed": True, "problems": ["timed out"],
                "elapsed_s": time.perf_counter() - start}
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    elapsed = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"failed": True, "returncode": proc.returncode,
                "problems": [f"exit {proc.returncode}: {tail[0]}"],
                "elapsed_s": elapsed}
    result["returncode"] = proc.returncode
    result["elapsed_s"] = elapsed
    result["failed"] = proc.returncode != 0 or bool(result["problems"])
    return result


def import_time_s(root: Path, module="exdyn.ar1") -> float:
    """Cumulative import time of ``module`` in a fresh interpreter, from
    ``python -X importtime``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", f"import {module}"],
        cwd=root, env=_child_env(_source_dir(root)), capture_output=True,
        text=True, timeout=CHILD_TIMEOUT_S, check=True)
    for line in proc.stderr.splitlines():
        fields = line.split("|")
        # the first line naming the module is its own import; a later
        # one is the tail of the ``import`` statement itself
        if len(fields) == 3 and fields[2].strip() == module:
            return int(fields[1]) / 1e6
    raise SetupError(f"no import time reported for {module}")


def summarize(values):
    """Median and quartiles of a list of samples."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def reference_wall_s(sample) -> float:
    return sample["wall_s"] * REFERENCE_S / sample["reference_s"]


def end_to_end(ok) -> dict:
    """End-to-end metrics, times in reference seconds."""
    return {
        "wall_s": summarize([reference_wall_s(s) for s in ok]),
        "updates_per_s": summarize([s["updates"] / reference_wall_s(s) for s in ok]),
        "setup_s": summarize([s["setup_s"] * REFERENCE_S / s["reference_s"] for s in ok]),
        "peak_rss_mb": summarize([s["peak_rss_mb"] for s in ok]),
    }


def measured(ok) -> dict:
    """The same times in measured seconds, and the reference kernel's."""
    return {name: summarize([s[name] for s in ok])
            for name in ("wall_s", "setup_s", "reference_s")}


def traced_layers(traced, untraced) -> tuple[dict, list]:
    """Median per-layer metrics over the traced samples, and any exact
    count that did not repeat."""
    per_sample = []
    for s in traced:
        layers = dict(s["layers"])
        csv_bytes = sum(f["bytes"] for f in s["files"].values())
        layers["cli.csv_rows"] = sum(f["rows"] for f in s["files"].values())
        layers["cli.csv_bytes"] = csv_bytes
        layers["cli.bytes_per_s"] = (csv_bytes / layers["cli.self_s"]
                                     if layers["cli.self_s"] > 0 else 0.0)
        layers["process.cpu_s"] = s["cpu_s"]
        layers["trace.unspanned_s"] = s["unspanned_s"]
        per_sample.append(layers)
    medians = {name: statistics.median(p[name] for p in per_sample)
               for name in per_sample[0]}
    medians["process.wall_s"] = statistics.median(s["wall_s"] for s in untraced)
    medians["process.reference_s"] = statistics.median(
        s["reference_s"] for s in untraced)
    medians["trace.overhead_s"] = (
        statistics.median(reference_wall_s(s) for s in traced)
        - statistics.median(reference_wall_s(s) for s in untraced))
    drifted = [name for name in EXACT_LAYER_METRICS
               if len({p[name] for p in per_sample}) > 1]
    return medians, drifted


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha(root: Path):
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_sha": _git_sha(root),
        "loadavg_at_start": os.getloadavg(),
        "setup_s_measured_in": "each fresh child interpreter, before its run; "
                               "the reported value is the median over samples",
    }


def measure(workload, seed, seconds, trace, root: Path) -> dict:
    """Samples of one workload for ``seconds``; alternating untraced and
    traced samples when ``trace`` is set."""
    env = environment(root)
    workdir = root / ".bench_work"
    workdir.mkdir(exist_ok=True)
    start = time.perf_counter()
    deadline = start + seconds
    untraced, traced = [], []
    try:
        if trace:
            ar1_import_s = import_time_s(root)
        while True:
            want_traced = trace and len(traced) < len(untraced)
            durations = [s["elapsed_s"] for s in untraced + traced]
            enough = (len(untraced) >= MIN_SAMPLES
                      and (not trace or len(traced) >= MIN_TRACED))
            if enough and time.perf_counter() + max(durations) > deadline:
                break
            sample = run_child(workload, seed, want_traced, root, workdir)
            (traced if want_traced else untraced).append(sample)
            print(f"{workload.name}: {'traced ' if want_traced else ''}sample "
                  f"{len(untraced) + len(traced)} "
                  f"{'FAILED ' + '; '.join(sample['problems']) if sample['failed'] else 'ok'}"
                  f" ({sample['elapsed_s']:.2f} s)", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    samples = untraced + traced
    failed = sum(s["failed"] for s in samples)
    report = {"workload": workload.name, "seed": seed, "trace": bool(trace),
              "elapsed_s": time.perf_counter() - start, "environment": env,
              "attempted": len(samples), "failed": failed, "samples": samples}
    ok_untraced = [s for s in untraced if not s["failed"]]
    ok_traced = [s for s in traced if not s["failed"]]
    if not ok_untraced or (trace and not ok_traced):
        return report
    env.update(ok_untraced[0]["versions"])
    report["end_to_end"] = end_to_end(ok_untraced)
    report["measured"] = measured(ok_untraced)
    if trace:
        layers, drifted = traced_layers(ok_traced, ok_untraced)
        layers["ar1.import_s"] = ar1_import_s
        report["layers"] = layers
        report["drifted_counts"] = drifted
    return report


def result_line(report, trace) -> dict:
    """The contract line: correctness, counts and the chosen metric set."""
    if trace:
        metrics = {name: {"value": report["layers"][name], "unit": unit}
                   for name, unit in LAYER_UNITS.items()}
    else:
        metrics = {name: {"value": report["end_to_end"][name]["median"], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    failed = report["failed"]
    correct = failed == 0 and not report.get("drifted_counts")
    return {"correct": correct, "attempted": report["attempted"],
            "failed": failed, "metrics": metrics}


def print_table(report):
    print(f"{report['workload']}  seed {report['seed']}  "
          f"{report['attempted']} samples, {report['failed']} failed; "
          f"times in reference seconds")
    for name, unit in END_TO_END_UNITS.items():
        s = report["end_to_end"][name]
        print(f"  {name:<14} {s['median']:>14.6g} {unit:<4} "
              f"(median of {s['n']}; quartiles {s['q1']:.6g} .. {s['q3']:.6g})")
    for name, s in report["measured"].items():
        print(f"  measured {name:<14} {s['median']:.6g} s "
              f"(quartiles {s['q1']:.6g} .. {s['q3']:.6g})")
    print(f"  {'error_rate':<14} {report['failed'] / report['attempted']:>14.6g}"
          f" ({report['failed']} of {report['attempted']} samples failed)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int,
                        help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    lines = {}
    for name in names:
        workload = WORKLOADS[name]
        seed = workload.default_seed if args.seed is None else args.seed
        try:
            report = measure(workload, seed, args.seconds, args.trace, root)
        except (SetupError, subprocess.SubprocessError) as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        if "end_to_end" not in report:
            print(json.dumps(report), file=sys.stderr)
            print(f"error: {name}: no sample succeeded", file=sys.stderr)
            return 1
        print_table(report)
        print(json.dumps(report))
        lines[name] = result_line(report, args.trace)
    print(json.dumps(lines[names[0]] if len(names) == 1 else lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
