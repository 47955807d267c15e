"""Checks on the package source itself."""

import ast
import sys
from pathlib import Path

import opencob

SOURCE = Path(opencob.__file__).parent


def test_no_assert_statements():
    # `python -O` strips assert statements, so no check may rely on one
    paths = sorted(SOURCE.glob("*.py"))
    assert any(path.name == "snf.py" for path in paths)
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in the package: {found}"


def outside_imports(tree: ast.AST) -> list:
    """The top-level modules that ``tree`` imports from neither the standard
    library nor the package itself, with their line numbers."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue          # relative imports stay inside the package
        for name in names:
            top = name.partition(".")[0]
            if top not in sys.stdlib_module_names and top != "opencob":
                found.append((top, node.lineno))
    return found


def test_outside_imports_are_found():
    tree = ast.parse("import os.path\nfrom . import snf\nfrom opencob import gluing\n"
                     "def f():\n    import numpy.linalg\n    from sympy import Matrix\n")
    assert outside_imports(tree) == [("numpy", 5), ("sympy", 6)]


def test_package_is_stdlib_only():
    # pyproject.toml declares no runtime dependencies
    paths = sorted(SOURCE.glob("*.py"))
    assert any(path.name == "snf.py" for path in paths)
    found = [f"{path.name}:{line} imports {top}"
             for path in paths
             for top, line in outside_imports(ast.parse(path.read_text(encoding="utf-8")))]
    assert not found, f"imports outside the standard library: {found}"
