"""Every module-level import in ``src/sparse_ou`` is used, or marked ``# noqa: F401``
because the module never reads it."""

import ast
from pathlib import Path

import pytest

import sparse_ou

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sparse_ou"


def module_imports(source):
    """``(bound, used)`` of ``source``: each name bound by a module-level import, mapped
    to whether its line holds ``# noqa: F401``, and the names the module reads or
    ``__all__`` lists."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                exempt = "# noqa: F401" in lines[alias.lineno - 1]
                bound[alias.asname or alias.name.split(".")[0]] = exempt
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        targets = [getattr(target, "id", None) for target in getattr(node, "targets", [])]
        if "__all__" in targets:
            used.update(ast.literal_eval(node.value))
    return bound, used


def unused_imports(source):
    """Imported names that ``source`` never reads, on lines without ``# noqa: F401``."""
    bound, used = module_imports(source)
    return sorted(name for name, exempt in bound.items() if not exempt and name not in used)


def stale_exemptions(source):
    """Imported names that ``source`` reads, on lines marked ``# noqa: F401``."""
    bound, used = module_imports(source)
    return sorted(name for name, exempt in bound.items() if exempt and name in used)


SAMPLE = ("import os\nimport sys, json as j  # noqa: F401\n"
          "from typing import (\n    Any,\n    List,  # noqa: F401\n)\n"
          "import numpy.linalg\n__all__ = ['Any']\nprint(sys)\n")


def test_the_scan_finds_an_unused_import():
    assert unused_imports(SAMPLE) == ["numpy", "os"]


def test_the_scan_finds_a_stale_exemption():
    assert stale_exemptions(SAMPLE) == ["sys"]


@pytest.mark.parametrize("module", sorted(path.name for path in PACKAGE.glob("*.py")))
def test_no_unused_module_level_import(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


@pytest.mark.parametrize("module", sorted(path.name for path in PACKAGE.glob("*.py")))
def test_no_exemption_on_a_read_import(module):
    assert stale_exemptions((PACKAGE / module).read_text()) == []


def test_every_public_name_resolves():
    # ``import *`` raises AttributeError on an ``__all__`` entry the package does not bind.
    namespace = {}
    exec("from sparse_ou import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(sparse_ou.__all__)
