"""Every package attribute that perfbench's run and check code reads
must resolve, or the benchmark stops at setup or at its first check.

The bench binds cyglue modules to local names in three ways: ``from
cyglue import ...``, ``name = mods["module"]`` (also unpacked from a
tuple), and the ``gl`` parameter of ``checks.check_scan``, which is
``cyglue.gluing``. Each ``alias.attr`` and ``mods["module"].attr`` is
collected from the source with ``ast``, so the bench itself is not run.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = ("run.py", "checks.py")
# parameters that carry a module in; checks.check_scan documents gl
PARAMETER_ALIASES = {"gl": "gluing"}


def _mods_key(node):
    """"module" for a node mods["module"], else None."""
    if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id == "mods"
            and isinstance(node.slice, ast.Constant)):
        return node.slice.value
    return None


def _aliases(tree) -> dict:
    aliases = dict(PARAMETER_ALIASES)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "cyglue":
            for name in node.names:
                aliases[name.asname or name.name] = name.name
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = [(target, node.value)]
                if (isinstance(target, ast.Tuple)
                        and isinstance(node.value, ast.Tuple)):
                    pairs = zip(target.elts, node.value.elts)
                for name, value in pairs:
                    key = _mods_key(value)
                    if isinstance(name, ast.Name) and key is not None:
                        aliases[name.id] = key
    return aliases


def bench_surface() -> list:
    """Sorted (module, attribute) pairs that the bench reads."""
    found = set()
    for fname in BENCH_FILES:
        tree = ast.parse((ROOT / "perfbench" / fname).read_text())
        aliases = _aliases(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            module = _mods_key(node.value)
            if module is None and isinstance(node.value, ast.Name):
                module = aliases.get(node.value.id)
            if module is not None:
                found.add((module, node.attr))
    return sorted(found)


SURFACE = bench_surface()


def test_surface_covers_the_setup_and_the_checks():
    # the collector sees through every kind of binding the bench uses
    assert {("gluing", "nearly_cy_on_neck"), ("gluing", "thm52_check"),
            ("cones", "link_quadrature"),
            ("cli", "RunConfig")} <= set(SURFACE)


@pytest.mark.parametrize("module,attr", SURFACE,
                         ids=[f"{m}.{a}" for m, a in SURFACE])
def test_bench_attribute_resolves(module, attr):
    assert hasattr(importlib.import_module(f"cyglue.{module}"), attr), \
        f"perfbench reads cyglue.{module}.{attr}"
