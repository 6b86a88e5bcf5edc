"""Checks on the package source itself."""

import ast
import dataclasses
import subprocess
import sys
from pathlib import Path

import majorityrank
from majorityrank import cli
from conftest import in_tree_env

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


def test_no_open_mesh_gather_in_the_package():
    # MajorityStructure.restrict is the one sub-tournament restriction, by two plain gathers; np.ix_
    # took about five times as long at every size measured
    users = [path.name for path in SOURCES if "np.ix_" in path.read_text(encoding="utf-8")]
    assert users == []


def test_metarank_keys_are_not_fractions():
    # the exact tau-b keys are Python ints (metarank's module docstring): Fraction keys made ranking
    # them about ten times slower
    tree = ast.parse((Path(majorityrank.__file__).parent / "metarank.py").read_text(encoding="utf-8"))
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    modules |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "math" in modules and "fractions" not in modules


def test_majority_structure_holds_only_the_beats_matrix():
    # a tie is a pair neither side beats, so the tie matrix is derived, never stored or validated apart
    fields = [field.name for field in dataclasses.fields(majorityrank.MajorityStructure)]
    assert fields == ["alternatives", "beats"]


def test_ranking_holds_only_its_rank_vector():
    # the name mapping is derived from the int64 rank vector, and built only when read
    fields = [field.name for field in dataclasses.fields(majorityrank.Ranking)]
    assert "ranks" not in fields
    ranking = majorityrank.from_scores(majorityrank.AlternativeSet(("a", "b")), {"a": 1.0, "b": 2.0})
    assert "ranks" not in vars(ranking)
    assert ranking.ranks == {"a": 2, "b": 1}
    assert "ranks" in vars(ranking)


def test_meta_comparison_holds_only_its_wins_matrix():
    # the majority digraph is derived from the wins, never stored or validated apart
    fields = [field.name for field in dataclasses.fields(majorityrank.MetaComparison)]
    assert fields == ["candidates", "wins", "measure"]


def test_cli_rederives_no_census_precondition():
    # the census decides which rankings it refuses and names the one at fault; the CLI only words its error
    tree = ast.parse((Path(majorityrank.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    calls = {node.func.attr for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)}
    assert "distinct_positions" not in calls
    assert not hasattr(cli, "_check_census")


def test_import_loads_only_the_standard_library_and_numpy():
    # a fresh interpreter's set-up pays for every module the import pulls in; scipy or hypothesis there would
    # cost every command its load time
    probe = ("import sys; before = set(sys.modules); import majorityrank; "
             "print(*sorted({name.partition('.')[0] for name in set(sys.modules) - before}))")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=in_tree_env(),
                            timeout=60, check=True)
    added = set(result.stdout.split())
    assert "majorityrank" in added
    assert added - sys.stdlib_module_names <= {"numpy", "majorityrank"}


def test_importing_the_cli_builds_no_parser():
    # the parser is built on the first main call; one built at import would cost every process its set-up
    probe = ("import argparse; built = []; init = argparse.ArgumentParser.__init__; "
             "argparse.ArgumentParser.__init__ = lambda self, *a, **k: built.append(1) or init(self, *a, **k); "
             "import majorityrank.cli; print(len(built))")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=in_tree_env(),
                            timeout=60, check=True)
    assert result.stdout.split() == ["0"]
