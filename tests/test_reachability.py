"""The package holds only what the command line reaches.

A top-level definition in ``src/diqrng`` that no CLI path uses is code
that only tests, benchmarks or library callers would run; such reference
code belongs in ``tests/oracles.py``.  Reachability is by name: starting
from every definition in ``cli.py``, each name or attribute a reached
definition mentions reaches every top-level definition of that name, in
any module.  Imports do not count, so a re-export reaches nothing.
Methods are not checked, only module-level functions, classes and
assignments.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "diqrng"


def _defined_names(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def _mentioned_names(node: ast.AST) -> set[str]:
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
    return names


def unreached_definitions(package: Path = PACKAGE) -> list[str]:
    """`module.name` of each top-level definition the CLI does not reach."""
    definitions: dict[str, list[tuple[str, ast.stmt]]] = {}
    reached: set[str] = set()
    for path in sorted(package.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            for name in _defined_names(stmt):
                definitions.setdefault(name, []).append((path.stem, stmt))
            if path.stem == "cli" and not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                reached |= set(_defined_names(stmt)) | _mentioned_names(stmt)
    todo = list(reached)
    while todo:
        for _, stmt in definitions.get(todo.pop(), ()):
            new = _mentioned_names(stmt) - reached
            reached |= new
            todo.extend(new)
    return sorted(f"{module}.{name}" for name, defs in definitions.items()
                  if name not in reached for module, _ in defs)


def test_every_top_level_definition_is_reached_from_the_cli():
    assert unreached_definitions() == []


def test_the_scan_sees_an_unreached_definition(tmp_path):
    (tmp_path / "cli.py").write_text("from .lib import used\n\ndef main():\n    used()\n")
    (tmp_path / "lib.py").write_text(
        "LIMIT = 3\n\ndef used():\n    return helper()\n\n"
        "def helper():\n    return LIMIT\n\ndef spare():\n    return used()\n")
    (tmp_path / "__init__.py").write_text("from .lib import spare\n")
    assert unreached_definitions(tmp_path) == ["lib.spare"]
