"""Package-wide source rules."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import trisched

SOURCES = sorted(Path(trisched.__file__).parent.glob("*.py"))
SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


def test_no_assert_statements():
    # `python -O` strips asserts, so runtime checks in the library and the
    # scripts must raise or exit instead
    found = [
        f"{path.parent.name}/{path.name}:{node.lineno}"
        for path in SOURCES + SCRIPTS
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and SCRIPTS and found == []


def test_cli_import_loads_no_heavy_stdlib_module():
    # Each of these cost the CLI's cold start several milliseconds; the
    # package needs none of them.  -S keeps site packages from importing
    # them first.
    src = str(Path(trisched.__file__).parent.parent)
    code = "import sys, trisched.cli; print(*sorted(set(sys.modules) & {'dataclasses', 'typing', 'pathlib', 'inspect'}))"
    result = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    )
    assert result.stdout == "\n"


def test_only_the_cli_touches_the_collector():
    # `cli_main` pauses the cyclic collector around a command; a library
    # function that switched it would change its callers' process
    users = {
        path.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Name) and node.id == "gc")
        or (isinstance(node, ast.Import) and any(alias.name == "gc" for alias in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "gc")
    }
    assert users == {"cli.py"}
