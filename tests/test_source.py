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


def test_only_io_constructs_a_csv_writer():
    # io owns the CSV boundary: every command's table goes through io.write_table
    writers = [path.name for path in SOURCES if "csv.writer(" in path.read_text(encoding="utf-8")]
    assert writers == ["io.py"]
