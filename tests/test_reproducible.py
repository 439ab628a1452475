"""Outputs that must be the same bytes on every run and on every CPU.

numpy picks its SIMD kernels at import by CPU feature, and
NPY_DISABLE_CPU_FEATURES switches dispatch levels off, so a subprocess can
stand in for a CPU without them.
"""

import contextlib
import hashlib
import importlib.util
import inspect
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import exdyn
from exdyn.cli import run
from exdyn.config import parse_config
from exdyn.harness import _estimate

try:
    from numpy._core import _multiarray_umath as _umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath as _umath

ROOT = Path(__file__).resolve().parents[1]
# the dispatch levels above the build's baseline that this CPU has
LEVELS = [level for level in _umath.__cpu_dispatch__ if _umath.__cpu_features__.get(level)]


def _workloads():
    # bench/workloads.py, read as it is: it imports only the standard library
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _workloads()
# np.exp weighs the snapshot's exemplars, and only its AVX-512 kernel
# rounds apart from math.exp, on about 4 % of arguments; the recorded digest
# is the AVX-512 one (ROADMAP: "The same CSV bytes on every CPU, checked in
# Tier-1").  The kernel in use is probed, as no single CPU feature flag
# tells it: switching X86_V3 off leaves every AVX-512 flag true
_PROBE = np.linspace(-5.0, 0.0, 1001)
_AVX512_EXP = np.exp(_PROBE).tolist() != [math.exp(x) for x in _PROBE.tolist()]
_EXP_DIGEST = pytest.mark.xfail(not _AVX512_EXP, strict=True,
                                reason="exemplars.csv is recorded with numpy's AVX-512 exp")


@pytest.fixture(scope="module")
def workload_outputs(tmp_path_factory):
    """Each workload run once in-process at its default seed: {name: outdir}."""
    outdirs = {}
    for name, workload in WORKLOADS.items():
        spec = parse_config(workload.config,
                            overrides={"seed": str(workload.default_seed)},
                            default_experiment=workload.subcommand)
        outdirs[name] = tmp_path_factory.mktemp(name)
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(workload.subcommand, spec, outdirs[name]) == (0, None)
    return outdirs


@pytest.mark.parametrize("name,csv", [
    pytest.param(name, csv, id=f"{name}/{csv}",
                 marks=[_EXP_DIGEST] if csv == "exemplars.csv" else [])
    for name, workload in WORKLOADS.items() for csv in workload.digests])
def test_benchmark_outputs_match_their_recorded_digests(workload_outputs, name, csv):
    data = (workload_outputs[name] / csv).read_bytes()
    assert hashlib.sha256(data).hexdigest() == WORKLOADS[name].digests[csv]


_ESTIMATE_FIELDS = """
import numpy as np
from exdyn.harness import _estimate
est = _estimate(0.1, 100, 100, np.random.default_rng(111).standard_normal(10**6))
print(*(float(v).hex() for v in (est.mean, est.variance, est.stderr, est.var_stderr)))
"""


@pytest.mark.skipif(not LEVELS, reason="this CPU has no dispatch level to switch off")
def test_ensemble_estimates_are_the_same_on_every_dispatch_level():
    # np.power took dev**4 for the fourth moment: under the AVX-512 kernel
    # var_stderr came out one bit apart for these normals (seed 111 is one
    # of the 2 to 3 % of seeds where the mean of 1e6 powers shows it)
    est = _estimate(0.1, 100, 100, np.random.default_rng(111).standard_normal(10**6))
    want = " ".join(float(v).hex() for v in
                    (est.mean, est.variance, est.stderr, est.var_stderr))
    env = dict(os.environ, PYTHONPATH=str(Path(exdyn.__file__).resolve().parents[1]))
    for level in LEVELS:
        proc = subprocess.run([sys.executable, "-c", _ESTIMATE_FIELDS],
                              env=dict(env, NPY_DISABLE_CPU_FEATURES=level),
                              capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == want, level


# the five presets, scaled down where the full size takes seconds
_PRESET_RUNS = {
    "fig1": "preset = fig1\n",
    "fig3-left": "preset = fig3-left\nn_steps = 20000\n",
    "fig3-right": "preset = fig3-right\nn_steps = 20000\n",
    "fig4": "preset = fig4\nreplicas = 200\nn_list = 100 1000\n",
    "theorem-suite": "preset = theorem-suite\nn_steps = 20000\n",
}


def _preset_digests(runs, probe):
    """{"name/file.csv": sha256} of every CSV of each run, and np.exp's
    bits on probe under "np.exp".  A subprocess runs its source too, so it
    imports what it uses."""
    import contextlib
    import hashlib
    import io
    import tempfile
    from pathlib import Path

    import numpy as np

    from exdyn.cli import run
    from exdyn.config import parse_config

    digests = {"np.exp": np.exp(np.array(probe)).tobytes().hex()}
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in runs.items():
            spec = parse_config(text)
            outdir = Path(tmp, name)
            with contextlib.redirect_stdout(io.StringIO()):
                assert run(spec.experiment, spec, outdir) == (0, None)
            for path in sorted(outdir.iterdir()):
                digests[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


@pytest.mark.skipif(not LEVELS, reason="this CPU has no dispatch level to switch off")
def test_presets_are_the_same_on_every_dispatch_level():
    want = _preset_digests(_PRESET_RUNS, _PROBE.tolist())
    assert len(want) == 1 + 3 + 1 + 1 + 1 + 1  # np.exp, fig1's 3 CSVs, one each
    script = (inspect.getsource(_preset_digests) + "import json, sys\n"
              "print(json.dumps(_preset_digests(*json.loads(sys.argv[1]))))\n")
    argv = [sys.executable, "-c", script, json.dumps([_PRESET_RUNS, _PROBE.tolist()])]
    env = dict(os.environ, PYTHONPATH=str(Path(exdyn.__file__).resolve().parents[1]))
    for level in LEVELS:
        proc = subprocess.run(argv, env=dict(env, NPY_DISABLE_CPU_FEATURES=level),
                              capture_output=True, text=True, check=True)
        got = json.loads(proc.stdout)
        differ = {name for name in want.keys() | got.keys() if got.get(name) != want.get(name)}
        if "np.exp" in differ:
            # np.exp weighs fig1's exemplars, and its kernels round apart:
            # the open np.exp item of the ROADMAP's "same CSV bytes on every
            # CPU", which moves the weights to math.exp
            differ -= {"np.exp", "fig1/exemplars.csv"}
        assert differ == set(), level
