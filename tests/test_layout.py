"""Source-layout rules for the package: imports sit at module level, and
the package depends on the Python standard library alone."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).parent.parent / "src" / "adaptorsig").glob("*.py"))


def _trees():
    assert SOURCES, "package sources not found"
    for path in SOURCES:
        yield path.name, ast.parse(path.read_text(), filename=str(path))


def test_no_function_local_imports():
    local = [
        f"{name}:{node.lineno}"
        for name, tree in _trees()
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert local == []


def test_absolute_imports_are_stdlib():
    foreign = []
    for name, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            foreign += [
                f"{name}:{node.lineno} {m}"
                for m in modules
                if m.split(".")[0] not in sys.stdlib_module_names
            ]
    assert foreign == []
