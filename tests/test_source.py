"""Checks on the package source itself."""

import ast
from pathlib import Path

import majorityrank

SOURCES = sorted(Path(majorityrank.__file__).parent.glob("*.py"))


def test_package_source_has_no_assert_statements():
    # python -O strips asserts, so every exactness guarantee must be a check that raises
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(SOURCES) > 10
    assert found == []
