"""The package's export list matches what the package binds."""

import types

import exdyn


def test_all_lists_exactly_the_public_names():
    bound = {name for name, obj in vars(exdyn).items()
             if not name.startswith("_") and not isinstance(obj, types.ModuleType)}
    assert len(set(exdyn.__all__)) == len(exdyn.__all__)
    assert set(exdyn.__all__) == bound
    namespace = {}
    exec("from exdyn import *", namespace)
    assert set(exdyn.__all__) <= set(namespace)
