"""Every exported name of the public modules resolves."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["supercalc", "supercalc.integration",
                                    "supercalc.pseudoforms"])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
