"""Every public cxkit module declares ``__all__``, and every name in it
resolves.

A deleted class or function whose name stays in ``__all__`` breaks
``from cxkit.<module> import *`` only when someone runs it; this finds the
dangling name at once.
"""

import importlib
import pkgutil

import pytest

import cxkit

MODULES = ["cxkit"] + [f"cxkit.{m.name}" for m in pkgutil.iter_modules(cxkit.__path__)]


def test_modules_found():
    assert {"cxkit.blockops", "cxkit.complexes", "cxkit.symbols"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", ())
    assert len(set(exported)) == len(exported), "repeated name in __all__"
    missing = [n for n in exported if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ names {missing}"


@pytest.mark.parametrize("name", [m for m in MODULES if not m.rpartition(".")[2].startswith("_")])
def test_public_modules_declare_all(name):
    assert isinstance(getattr(importlib.import_module(name), "__all__", None), list), name
