"""Every name that cyglue or one of its modules lists in __all__ exists."""

import importlib
import pkgutil

import pytest

import cyglue


def _exported():
    modules = [cyglue] + [
        importlib.import_module(f"cyglue.{info.name}")
        for info in pkgutil.iter_modules(cyglue.__path__)]
    return [(module.__name__, name) for module in modules
            for name in getattr(module, "__all__", ())]


EXPORTED = _exported()


@pytest.mark.parametrize("module,name", EXPORTED,
                         ids=[f"{m}.{n}" for m, n in EXPORTED])
def test_exported_name_resolves(module, name):
    assert hasattr(importlib.import_module(module), name)
