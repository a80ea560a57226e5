"""Every name in the __all__ of bonnet and of each bonnet module resolves,
so `from bonnet.<module> import *` never meets a stale export."""
import importlib
import pkgutil

import pytest

import bonnet

MODULES = ["bonnet"] + [f"bonnet.{m.name}" for m in pkgutil.iter_modules(bonnet.__path__)
                        if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__")
    assert len(set(exported)) == len(exported), "a name is exported twice"
    assert [n for n in exported if not hasattr(module, n)] == []
