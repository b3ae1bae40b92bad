"""Every public cxkit module declares ``__all__``, every name in it
resolves, and every other definition has a caller.

A deleted class or function whose name stays in ``__all__`` breaks
``from cxkit.<module> import *`` only when someone runs it; this finds the
dangling name at once.  The census of definitions finds code that no path
uses: a function, method or class of ``src/cxkit`` that nothing there names
outside its own body, unless its module exports it or it is a CLI command.
"""

import ast
import importlib
import pkgutil
from collections import Counter
from pathlib import Path

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


SRC = Path(cxkit.__file__).parent

# Definitions the census finds that stay, each with its reason.  A name
# leaves this table when it gains a caller or is deleted.
UNCALLED = {
    "poly.Poly.exact_div": "perfbench traces it, and a sympy oracle tests it",
    "poly.Poly.evaluate": "perfbench's self-test evaluates a polynomial with it",
    "poly.Poly.homogeneous_part": "the tests use it as a reference implementation",
    "poly.Poly.leading_term": "the tests read leading coefficients with it",
}


def _definitions(tree: ast.Module):
    """(qualname, node, is_method) of every function, method and class."""
    found = []

    def walk(node, prefix: str, in_class: bool):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found.append((prefix + child.name, child, in_class))
                walk(child, f"{prefix}{child.name}.", isinstance(child, ast.ClassDef))
            else:
                walk(child, prefix, in_class)

    walk(tree, "", False)
    return found


def _reads(node: ast.AST) -> Counter:
    """How often ``node`` reads each name: ``("attr", name)`` through an
    attribute, ``("name", name)`` bare."""
    return Counter(("attr", n.attr) if isinstance(n, ast.Attribute) else ("name", n.id)
                   for n in ast.walk(node) if isinstance(n, (ast.Attribute, ast.Name)))


def _census() -> set:
    """Each definition no code in ``src/cxkit`` names outside its own body
    (a method through an attribute, anything else by name or attribute),
    dunder methods, ``__all__`` names and ``cli.cmd_*`` commands aside.
    Each tree's reads are counted once; a definition's own body's reads are
    taken off."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    reads = sum(map(_reads, trees.values()), Counter())
    uncalled = set()
    for module, tree in trees.items():
        package = "cxkit" if module == "__init__" else f"cxkit.{module}"
        exported = set(getattr(importlib.import_module(package), "__all__", ()))
        for qualname, node, is_method in _definitions(tree):
            name = node.name
            if (name.startswith("__") and name.endswith("__") or qualname in exported
                    or module == "cli" and name.startswith("cmd_")):
                continue
            own = _reads(node)
            kinds = ("attr",) if is_method else ("attr", "name")
            if not any(reads[kind, name] > own[kind, name] for kind in kinds):
                uncalled.add(f"{module}.{qualname}")
    return uncalled


def test_every_definition_has_a_caller():
    """The census finds exactly ``UNCALLED``: a new definition without a
    caller fails, and so does a listed one that gained a caller or is gone,
    so the table can only shrink."""
    assert _census() == set(UNCALLED)
