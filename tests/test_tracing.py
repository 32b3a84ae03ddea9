"""perfbench's span tracer names package functions by string; every name
must still resolve, or ``perfbench/run.py --trace 1`` stops at install."""

import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACED = load_tracing().TRACED


@pytest.mark.parametrize("module,path", [(m, p) for m, p, _ in TRACED],
                         ids=[f"{m}.{p}" for m, p, _ in TRACED])
def test_traced_name_resolves(module, path):
    owner = importlib.import_module(f"cyglue.{module}")
    for part in path.split("."):
        assert hasattr(owner, part), f"cyglue.{module} has no {path}"
        owner = getattr(owner, part)
    assert callable(owner)
