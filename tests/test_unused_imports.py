"""No module under ``src/``, ``tests/``, ``benchmarks/`` or ``examples/``
imports a name it never uses.

No linter is installed, so this is a standard-library ``ast`` pass: a name
an import binds is used when the module reads it anywhere -- as a name,
the base of an attribute, inside an annotation (a string one included) or
in its ``__all__``.  ``from __future__`` imports bind nothing, and an
``__init__.py`` imports to re-export, so both are skipped.  An import kept
for its side effect says so with ``# noqa: F401`` on its line.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def annotation_names(node: ast.AST, out: set[str]) -> None:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                annotation_names(ast.parse(sub.value, mode="eval"), out)
            except SyntaxError:
                pass


def unused_imports(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` of every name an import binds and nothing reads."""
    lines = source.splitlines()
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if (
                isinstance(node, ast.ImportFrom)
                and node.module == "__future__"
            ) or "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                if alias.name != "*":
                    name = alias.asname or alias.name.split(".")[0]
                    imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotation_names(node.annotation, used)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                annotation_names(node.returns, used)
        elif isinstance(node, ast.AnnAssign):
            annotation_names(node.annotation, used)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used.update(
                elt.value for elt in getattr(node.value, "elts", ())
                if isinstance(elt, ast.Constant)
            )
    return sorted(
        (line, name) for name, line in imported.items() if name not in used
    )


@pytest.mark.parametrize(
    "tree", ["src", "tests", "benchmarks", "examples"]
)
def test_no_module_imports_a_name_it_never_uses(tree):
    found = [
        f"{path.relative_to(ROOT).as_posix()}:{line}: {name}"
        for path in sorted((ROOT / tree).rglob("*.py"))
        if path.name != "__init__.py"
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_the_pass_tells_a_read_name_from_an_unread_one():
    source = "\n".join([
        "from __future__ import annotations",
        "import os, os.path",
        "import numpy as np",
        "from typing import TYPE_CHECKING, Optional",
        "from collections import deque",
        "import json  # noqa: F401",
        "if TYPE_CHECKING:",
        "    from repro.imcs import IMCU",
        "from repro.rowstore import Table",
        "from repro.common import SCN",
        "__all__ = ['Table']",
        "def f(x: 'IMCU') -> Optional[int]:",
        "    return np.zeros(1)",
        "y: SCN = 0",
    ])
    assert unused_imports(source) == [(2, "os"), (5, "deque")]
