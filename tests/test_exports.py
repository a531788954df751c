"""Public names: every `__all__` entry resolves, and the package exports
exactly the union of its library modules' lists."""

import importlib

import pytest

import wavetomo

LIBRARY = ["errors", "grid", "tomography", "reconstruct", "analytic"]
MODULES = ["wavetomo"] + [f"wavetomo.{m}" for m in LIBRARY + ["fileio", "oracles", "cli"]]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_exports_the_library_lists():
    union = {"__version__"}
    for m in LIBRARY:
        union |= set(importlib.import_module(f"wavetomo.{m}").__all__)
    assert set(wavetomo.__all__) == union
