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


# Kept in snf.py only as the tests' independent oracle and as spans that the
# benchmark wraps; the package itself decides everything through ``smith``.
ORACLE_ONLY = {"det_bareiss", "solve_int"}


def references(tree: ast.AST, names) -> list:
    """The uses of ``names`` in ``tree`` (as a name, an attribute or an
    import), with their line numbers."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name.rpartition(".")[2]
        else:
            continue
        if name in names:
            found.append((name, node.lineno))
    return sorted(found, key=lambda item: item[1])


def test_references_are_found():
    tree = ast.parse("from .snf import det_bareiss as d\nimport opencob.snf as s\n"
                     "x = s.solve_int(m, v)\n\"det_bareiss\"\n")
    assert references(tree, ORACLE_ONLY) == [("det_bareiss", 1), ("solve_int", 3)]


def test_oracle_only_names_stay_in_snf():
    paths = sorted(SOURCE.glob("*.py"))
    assert any(path.name == "homology.py" for path in paths)
    found = [f"{path.name}:{line} references {name}"
             for path in paths if path.name != "snf.py"
             for name, line in references(ast.parse(path.read_text(encoding="utf-8")),
                                          ORACLE_ONLY)]
    assert not found, f"oracle-only names used in the package: {found}"
