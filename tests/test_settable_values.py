"""The committed list of settable values in ``src/repro``.

A settable value is a knob a caller may turn without editing the code: a
defaulted parameter (positional or keyword-only) of any function, method
or nested function, and a field with a default of a ``@dataclass``.
Each is one line ``module:qualname.name``, in file order, and the list is
committed as ``tests/settable_values.txt``, so a change that adds or
removes a knob shows it in that file's diff.

To rewrite the list after a deliberate change::

    PYTHONPATH=src python -m tests.test_settable_values > tests/settable_values.txt
"""

from __future__ import annotations

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
COMMITTED = ROOT / "tests" / "settable_values.txt"


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Call):
            decorator = decorator.func
        if isinstance(decorator, ast.Name) and decorator.id == "dataclass":
            return True
    return False


def _walk(node: ast.AST, module: str, prefix: str, out: list[str]) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = prefix + child.name
            args = child.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [
                arg for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None
            ]
            out += [f"{module}:{name}.{arg.arg}" for arg in defaulted]
            _walk(child, module, name + ".", out)
        elif isinstance(child, ast.ClassDef):
            name = prefix + child.name
            if _is_dataclass(child):
                out += [
                    f"{module}:{name}.{statement.target.id}"
                    for statement in child.body
                    if isinstance(statement, ast.AnnAssign)
                    and statement.value is not None
                    and isinstance(statement.target, ast.Name)
                ]
            _walk(child, module, name + ".", out)


def settable_values() -> list[str]:
    out: list[str] = []
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        _walk(ast.parse(path.read_text(encoding="utf-8")), module, "", out)
    return out


def test_settable_values_match_the_committed_list():
    committed = COMMITTED.read_text(encoding="utf-8").splitlines()
    found = settable_values()
    added = sorted(set(found) - set(committed))
    removed = sorted(set(committed) - set(found))
    assert found == committed, (
        "settable values changed; rewrite tests/settable_values.txt "
        f"(see this module's docstring)\nadded: {added}\nremoved: {removed}"
    )


if __name__ == "__main__":
    print("\n".join(settable_values()))
