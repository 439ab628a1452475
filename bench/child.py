"""One measured run of one workload, in a fresh interpreter.

    python3 bench/child.py '<job JSON>'

The job comes from ``Workload.job``.  The child times ``import exdyn`` plus
``parse_config`` (set-up), then ``cli.run`` (the run), takes the process's
peak RSS, and only then checks the CSVs, so checking costs nothing that is
measured.  Right before and right after the run it times a fixed reference
kernel, which gives the machine's speed at that moment (see ``run.py``).
With ``trace`` set it patches every layer first (see ``tracer.py``) and
also reports the per-layer numbers.  It prints one JSON line and exits with
``cli.run``'s exit code.
"""

import contextlib
import gc
import io
import json
import resource
import sys
import time


def _cpu_s():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def reference_s():
    """Seconds of a fixed kernel that mixes what the workloads do: a Python
    float loop, float formatting and small numpy array updates.  It runs
    with the garbage collector off, so objects the run left alive do not
    slow it."""
    import numpy as np
    x = np.linspace(0.0, 1.0, 3000)
    y = x[::-1].copy()
    gc.disable()
    start = time.perf_counter()
    acc = 0.0
    for i in range(200_000):
        acc += (i * 0.5) % 7.0
    text = [repr(acc * i / 3.0) for i in range(60_000)]
    for _ in range(5000):
        d = x - y
        d *= d
        np.copyto(y, (y * x + 1.0) / (x + 1.0), where=d <= 0.5)
    elapsed = time.perf_counter() - start
    gc.enable()
    del text
    return elapsed


def main(job):
    t0 = time.perf_counter()
    import exdyn.cli
    import exdyn.config
    t_import = time.perf_counter()

    tracer = None
    if job["trace"]:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.record("bench.import", t0, t_import)
        untrace = tracing.install(tracer)

    spec = exdyn.config.parse_config(
        job["config"], overrides={"seed": str(job["seed"])},
        default_experiment=job["subcommand"])
    t_setup = time.perf_counter()

    reference_before = reference_s()
    cpu0 = _cpu_s()
    t_run = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code, message = exdyn.cli.run(job["subcommand"], spec, job["outdir"])
    t_end = time.perf_counter()
    cpu_s = _cpu_s() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        untrace()  # the checks below call into exdyn too
    reference_after = reference_s()

    import numpy
    import scipy
    import checks
    problems, files = checks.check_outputs(job, spec, job["outdir"])
    if code != 0:
        problems.append(f"exit code {code}: {message}")
    result = {
        "setup_s": t_setup - t0,
        "wall_s": t_end - t_run,
        "updates": checks.count_updates(spec),
        "peak_rss_mb": peak_rss_mb,
        "cpu_s": cpu_s,
        "reference_s": (reference_before + reference_after) / 2,
        "problems": problems,
        "files": files,
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if tracer is not None:
        tracer.record("bench.reference", t_setup, t_run)
        result["layers"] = tracing.layer_metrics(tracer)
        result["unspanned_s"] = (t_end - t0) - tracer.top_level_s
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
