"""A guard that every Python file of the project parses with the oldest grammar it supports.

pyproject.toml declares the oldest supported Python (requires-python), and the guard
parses every .py file under src/, tests/, tools/ and scripts/ with
ast.parse(..., feature_version=...) set to it, which rejects newer syntax such as
3.11's except*. It checks grammar only: a newer standard-library API (tomllib,
math.cbrt, enum.StrEnum, typing.Self, ...) parses and is not caught here.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def oldest_python() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.M).groups()
    return int(major), int(minor)


def test_every_source_file_parses_with_the_oldest_grammar():
    version = oldest_python()
    paths = sorted(path for folder in ("src", "tests", "tools", "scripts")
                   for path in (ROOT / folder).rglob("*.py"))
    assert paths
    failures = []
    for path in paths:
        try:
            ast.parse(path.read_text(), filename=str(path), feature_version=version)
        except SyntaxError as error:
            failures.append(f"{path.relative_to(ROOT)}:{error.lineno}: {error.msg}")
    assert failures == []


def test_the_guard_rejects_newer_grammar():
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(source, feature_version=(3, 11))
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=oldest_python())
