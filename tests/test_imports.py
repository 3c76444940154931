"""Every module of the package reads each name it imports, and each private name it
defines is read somewhere in the package (stdlib ``ast`` only)."""

import ast
from pathlib import Path

import pytest

import algwatch

_PACKAGE = Path(algwatch.__file__).parent
_MODULES = sorted(p.name for p in _PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unread_imports(source: str) -> list[str]:
    """The names source's imports bind that nothing in source reads, sorted."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(bound - read)


def _unread_private_names(sources: dict[str, str]) -> dict[str, list[str]]:
    """The module-level private names (functions, classes, constants) that each module of
    sources (module name -> source) defines and no module reads, sorted; modules with
    none are left out.

    A module's name counts as read where that module loads it, where a module imports
    it from that module (``from .module import name``), or as any attribute.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read, attributes = {module: set() for module in trees}, set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read[module].add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in read:
                read[node.module].update(alias.name for alias in node.names)
    unread = {}
    for module, tree in trees.items():
        defined = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = (name for target in targets for name in ast.walk(target))
                defined.update(name.id for name in names if isinstance(name, ast.Name))
        left = sorted(name for name in defined - read[module] - attributes
                      if name.startswith("_") and not name.startswith("__"))
        if left:
            unread[module] = left
    return unread


def test_package_reads_every_private_name_it_defines():
    sources = {path.stem: path.read_text() for path in _PACKAGE.glob("*.py")}
    assert _unread_private_names(sources) == {}


def test_a_leftover_private_name_is_found():
    sources = {
        "a": (
            "_PADDED_WIDTH = 7\n"
            "_SHARED, _USED = 1, 2\n"
            "_HELPER: int = 3\n"
            "def _reduce():\n"
            "    return _USED\n"
            "class _Hidden:\n"
            "    _slot = 0\n"
            "__all__ = []\n"
        ),
        "b": "from .a import _reduce\nimport a\n_SHARED = a._HELPER\n_reduce()\n",
    }
    # b's own _SHARED is not read, nor is a's: a same name read elsewhere does not count
    assert _unread_private_names(sources) == {
        "a": ["_Hidden", "_PADDED_WIDTH", "_SHARED"], "b": ["_SHARED"],
    }


@pytest.mark.parametrize("module", _MODULES)
def test_modules_read_every_name_they_import(module):
    assert _unread_imports((_PACKAGE / module).read_text()) == []


def test_a_leftover_import_is_found():
    source = (
        "from __future__ import annotations\n"
        "import numpy.random\n"
        "from typing import NamedTuple\n"
        "import numpy as np\n"
        "from .hashing import _Hashes as H\n"
        "def f(h: H):\n"
        "    return np.zeros(1), numpy.random\n"
    )
    assert _unread_imports(source) == ["NamedTuple"]
    assert _unread_imports("import os.path\n") == ["os"]
