"""The package's export list matches what the package binds, and importing
the package and its CLI loads numpy alone, not scipy."""

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


def test_package_imports_without_scipy():
    # a fresh interpreter, because this test process imports scipy itself
    src = Path(exdyn.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys, exdyn, exdyn.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
