"""Package-wide source rules."""

import ast
from pathlib import Path

import trisched

SOURCES = sorted(Path(trisched.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # `python -O` strips asserts, so runtime checks must raise instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and found == []
