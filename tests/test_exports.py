"""Every module's ``__all__`` names only what the module defines.

A stale entry left behind when a name is deleted breaks
``from axistune.<module> import *`` with an AttributeError.
"""

import importlib
import pkgutil

import pytest

import axistune

MODULES = sorted(m.name for m in pkgutil.iter_modules(axistune.__path__))


def test_every_module_is_checked():
    assert {"bench", "cli", "gpr", "metrics", "plant", "presets", "refgen",
            "simloop", "tuner"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"axistune.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), "duplicate __all__ entries"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"axistune.{name}.__all__ names undefined {missing}"
