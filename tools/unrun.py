"""List the statements of ``src/algwatch`` that the Tier-1 suite never runs.

Run from the root of an algwatch checkout:

    python3 tools/unrun.py              # the whole suite
    python3 tools/unrun.py tests/test_gfield.py -k mul

It runs pytest in this process (``-q --continue-on-collection-errors``,
then the given arguments, else ``tests``) under the standard library's
``trace.Trace``, which counts the lines each thread runs; no coverage
package is needed. This script only groups those lines into statements: it
prints each statement of ``src/algwatch/*.py`` none of whose lines ran, one
a line as ``file:line`` and the statement's first line of source, and the
count. A simple statement is run when any of its lines ran; a compound one
(``if``, ``def``, ``for``, ...) when a line of its header, before its body,
did. Docstrings are not counted.

The stdlib alone lists lines, not statements:

    python3 -m trace --count --missing -C <dir> --ignore-dir <site-packages> \
        --ignore-dir <stdlib> --module pytest -q tests

marks each line it found no run of with ``>>>>>>`` in ``<dir>/algwatch.*.cover``,
each line of a multi-line statement on its own. It writes no cover of
``src/algwatch/__init__.py``: trace remembers an ignored file by its base
name, so a library's ``__init__.py`` ignored first ignores the package's
own too. Here every file outside the package is left untraced by path.

Pool workers are not traced: ``multiprocessing`` starts them in processes
of their own, so a statement that only a worker runs (``--workers`` above 1)
is listed. So is one that only a subprocess runs. The package is imported
only after tracing starts, so module-level statements count. The exit code
is pytest's.
"""

from __future__ import annotations

import ast
import sys
import trace
from pathlib import Path

import pytest

PACKAGE = Path.cwd() / "src" / "algwatch"


class _OutsidePackage:
    """trace's ignore test, by path: every file but the package's is left untraced."""

    def names(self, filename: str, modulename: str) -> bool:
        return not filename.startswith(str(PACKAGE))


def _is_docstring(node: ast.AST) -> bool:
    return isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(
        node.value.value, str
    )


def statements(path: Path) -> dict[int, range]:
    """Each statement of the module at path: its first line -> the lines that count as run."""
    tree = ast.parse(path.read_text())
    docstrings = {
        id(node.body[0]) for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body and _is_docstring(node.body[0])
    }
    found = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or id(node) in docstrings:
            continue
        body = getattr(node, "body", None)
        last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        first = min([d.lineno for d in getattr(node, "decorator_list", [])], default=node.lineno)
        found[node.lineno] = range(first, last + 1)
    return found


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    tracer = trace.Trace(count=1, trace=0)
    tracer.ignore = _OutsidePackage()
    ran = {"args": ["-q", "--continue-on-collection-errors", *(argv or ["tests"])]}
    tracer.runctx("code = pytest.main(args)", {"pytest": pytest}, ran)  # sys and threading
    hits = tracer.results().counts  # (filename, line) -> times run
    unrun = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = path.read_text().splitlines()
        for lineno, span in sorted(statements(path).items()):
            if not any((str(path), line) in hits for line in span):
                print(f"{path.name}:{lineno}: {lines[lineno - 1].strip()}")
                unrun += 1
    print(f"{unrun} statements never ran")
    return int(ran["code"])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
