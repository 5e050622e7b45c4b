"""Every module-level import in ``src/sparse_ou`` is used, or marked ``# noqa: F401``."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sparse_ou"


def unused_imports(source):
    """Names bound by the module-level imports of ``source`` that the module never
    reads and ``__all__`` does not list; an import line holding ``# noqa: F401`` is exempt."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    bound[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        targets = [getattr(target, "id", None) for target in getattr(node, "targets", [])]
        if "__all__" in targets:
            used.update(ast.literal_eval(node.value))
    return sorted(name for name in bound if name not in used)


def test_the_scan_finds_an_unused_import():
    source = ("import os\nimport sys, json as j  # noqa: F401\n"
              "from typing import (\n    Any,\n    List,  # noqa: F401\n)\n"
              "import numpy.linalg\n__all__ = ['Any']\nprint(sys)\n")
    assert unused_imports(source) == ["numpy", "os"]


@pytest.mark.parametrize("module", sorted(path.name for path in PACKAGE.glob("*.py")))
def test_no_unused_module_level_import(module):
    assert unused_imports((PACKAGE / module).read_text()) == []
