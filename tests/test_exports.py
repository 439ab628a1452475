"""The package's export list matches what the package binds, and importing
the package, its CLI and its config parser loads numpy alone, not scipy, and
not numpy.random until a stream is made."""

import os
import subprocess
import sys
import types
from pathlib import Path

import exdyn


def test_all_lists_exactly_the_public_names():
    bound = {name for name, obj in vars(exdyn).items()
             if not name.startswith("_") and not isinstance(obj, types.ModuleType)}
    assert len(set(exdyn.__all__)) == len(exdyn.__all__)
    assert set(exdyn.__all__) == bound
    namespace = {}
    exec("from exdyn import *", namespace)
    assert set(exdyn.__all__) <= set(namespace)


def _loaded_after_import(package):
    # a fresh interpreter, because this test process has imported far more
    src = Path(exdyn.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys, exdyn, exdyn.cli, exdyn.config; "
            f"print(sorted(m for m in sys.modules "
            f"if m == {package!r} or m.startswith({package + '.'!r})))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.strip()


def test_package_imports_without_scipy():
    assert _loaded_after_import("scipy") == "[]"


def test_package_import_leaves_numpy_random_unloaded():
    # numpy loads numpy.random on first use, about 20 ms; a module-level
    # reference to it, such as rng importing numpy.random.bit_generator to
    # register its key class, would move that cost and about 0.7 MB into
    # every command's set-up
    assert _loaded_after_import("numpy.random") == "[]"
