"""Every exported name resolves, so a deletion cannot leave a dangling export."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["dperm", "dperm.config", "dperm.problems", "dperm.spaces"])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
