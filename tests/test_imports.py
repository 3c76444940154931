"""Every module of the package reads each name it imports (stdlib ``ast`` only)."""

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
