"""Checks on the package source itself."""

import ast
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

