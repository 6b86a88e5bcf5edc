import argparse
import csv
import hashlib
import io as stdio
import random
import shutil
import subprocess
import sys
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings

from majorityrank import COMPETITION, DENSE, AlternativeSet, Ranking, build_majority, bundled_fixtures_dir
from majorityrank import io as mio
from majorityrank import cli, correlation, majority, solutions
from majorityrank.cli import METHODS, main
from majorityrank.core import SCHEMES, from_ranks
from majorityrank.errors import DegenerateRankingError, SingletonLeagueError, SizeLimitError
from conftest import in_tree_env, profiles
from oracles import random_ranking

CRITERIA_CSV = str(bundled_fixtures_dir() / "table6_criteria.csv")


def run_main(*argv):
    buffer = stdio.StringIO()
    with redirect_stdout(buffer):
        code = main(list(argv))
    return code, buffer.getvalue()


def write_toy_table(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text(
        "country,c1,c2,c3\n"
        "a,1,3,2\n"
        "b,2,1,3\n"
        "c,3,2,1\n",
        encoding="utf-8",
    )
    weights = tmp_path / "w.cfg"
    weights.write_text("c1 = 1\nc2 = 1\nc3 = 1\n", encoding="utf-8")
    return path, weights


def test_rank_single_criterion_echoes_order(tmp_path):
    table = tmp_path / "one.csv"
    table.write_text("country,c1\na,1\nb,2\nc,3\n", encoding="utf-8")
    weights = tmp_path / "w.cfg"
    weights.write_text("c1 = 1\n", encoding="utf-8")
    for method in ("copeland1", "copeland2", "copeland3", "uc-sort", "mes-sort", "wtc-sort", "markovian"):
        code, out = run_main("rank", str(table), "--weights", str(weights), "--method", method)
        assert code == 0
        rows = list(csv.reader(stdio.StringIO(out)))
        assert rows == [["country", "rank"], ["a", "1"], ["b", "2"], ["c", "3"]], method


def test_rank_weights_a_criterion_named_with_hash(tmp_path):
    table = tmp_path / "h.csv"
    table.write_text("country,a#b\na,2\nb,1\n", encoding="utf-8")
    weights = tmp_path / "h.cfg"
    weights.write_text("# weights\n  # indented comment\na#b = 1  # one vote\n", encoding="utf-8")
    code, out = run_main("rank", str(table), "--weights", str(weights), "--method", "copeland1")
    assert code == 0
    assert list(csv.reader(stdio.StringIO(out))) == [["country", "rank"], ["a", "2"], ["b", "1"]]


def test_rank_bundled_copeland2_positions(tmp_path):
    out_path = tmp_path / "ranking.csv"
    code, _ = run_main("rank", CRITERIA_CSV, "--method", "copeland2", "--output", str(out_path))
    assert code == 0
    with out_path.open(encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 135
    assert len({row["rank"] for row in rows}) == 89
    japan = next(row for row in rows if row["country"] == "Japan")
    assert japan["rank"] == "1"


def test_rank_bundled_markovian_japan_first(tmp_path):
    out_path = tmp_path / "markovian.csv"
    code, _ = run_main("rank", CRITERIA_CSV, "--method", "markovian", "--output", str(out_path))
    assert code == 0
    with out_path.open(encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    japan = next(row for row in rows if row["country"] == "Japan")
    assert japan["rank"] == "1"
    assert len({row["rank"] for row in rows}) == 135


def test_rank_unknown_method_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["rank", CRITERIA_CSV, "--method", "borda"])
    assert excinfo.value.code == 2


def test_rank_missing_file_is_input_error(tmp_path):
    code, _ = run_main("rank", str(tmp_path / "nope.csv"), "--method", "copeland1")
    assert code == 2


@pytest.mark.parametrize("argv, broken", [
    (lambda table, weights: ["correlate", str(table)], "table"),
    (lambda table, weights: ["rank", str(table), "--weights", str(weights), "--method", "copeland1"], "weights"),
], ids=["latin1-table", "latin1-weights"])
def test_non_utf8_input_is_input_error(tmp_path, capsys, argv, broken):
    table, weights = write_toy_table(tmp_path)
    target = {"table": table, "weights": weights}[broken]
    target.write_bytes(target.read_bytes().replace(b"c1", b"c\xe91", 1))  # Latin-1 'e' with an acute accent
    code, out = run_main(*argv(table, weights))
    assert code == 2
    assert out == ""
    error = capsys.readouterr().err
    assert error.startswith(f"error: {target}: line 1 is not UTF-8 text")
    assert "Traceback" not in error


@pytest.mark.parametrize("command", [["correlate"], ["rank", "--method", "copeland1"], ["cip"]])
def test_directory_as_input_is_input_error(tmp_path, capsys, command):
    code, out = run_main(command[0], str(tmp_path), *command[1:])
    assert code == 2
    assert out == ""
    error = capsys.readouterr().err
    assert error.startswith("error: ") and str(tmp_path) in error
    assert "Traceback" not in error


def test_correlate_rank_beyond_int64_is_input_error(tmp_path, capsys):
    table = tmp_path / "big.csv"
    table.write_text("country,c1,c2\na,1,2\nb,2,99999999999999999999\n", encoding="utf-8")
    code, out = run_main("correlate", str(table))
    assert code == 2
    assert out == ""
    error = capsys.readouterr().err
    assert error == f"error: {table}: rank 99999999999999999999 is above {2 ** 63 - 1} (row 3, col c2)\n"


@pytest.mark.parametrize("weights, line", [
    (f"c1 = {2 ** 62}\nc2 = {2 ** 62}\nc3 = 1\n", 2),
    ("c1 = 1\nc2 = 1\nc3 = 100000000000000000000000\n", 3),
], ids=["sum-past-int64", "one-weight-past-int64"])
def test_rank_total_weight_past_int64_is_input_error(tmp_path, capsys, weights, line):
    table, config = write_toy_table(tmp_path)
    config.write_text(weights, encoding="utf-8")
    code, out = run_main("rank", str(table), "--weights", str(config), "--method", "copeland1")
    assert code == 2
    assert out == ""
    error = capsys.readouterr().err
    assert error.startswith(f"error: {config}: line {line}: total weight ") and f"exceeds {2 ** 63 - 1}" in error


def test_rank_weights_reject_underscore_digits(tmp_path, capsys):
    table, config = write_toy_table(tmp_path)
    config.write_text("c1 = 1\nc2 = 1_0\nc3 = 1\n", encoding="utf-8")
    code, out = run_main("rank", str(table), "--weights", str(config), "--method", "copeland1")
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == f"error: {config}: line 2: weight '1_0' is not an integer\n"


@pytest.mark.parametrize("command", ["rank", "analyze", "metarank"])
def test_missing_weight_names_the_weights_file_and_the_table_column(tmp_path, capsys, command):
    table, config = write_toy_table(tmp_path)
    config.write_text("c1 = 1\nc3 = 1\n", encoding="utf-8")
    argv = {"rank": ["--method", "copeland1"], "analyze": ["--output", str(tmp_path / "out")], "metarank": []}[command]
    code, out = run_main(command, str(table), "--weights", str(config), *argv)
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == (
        f"error: {config}: no weight configured for criterion 'c2' of {table} (row 1, col c2)\n"
    )


def test_analyze_size_error_writes_no_file(tmp_path, monkeypatch, capsys):
    # every size bound is checked before any output: a k = 5 bound below m = 3 leaves the directory empty
    table, weights = write_toy_table(tmp_path)
    bound = majority._max_exact_size
    monkeypatch.setattr(majority, "_max_exact_size", lambda k: 2 if k == 5 else bound(k))
    outdir = tmp_path / "analysis"
    code, _ = run_main("analyze", str(table), "--weights", str(weights), "--output", str(outdir))
    assert code == 2
    assert capsys.readouterr().err == f"error: {table}: counting 5-cycles supports at most 2 alternatives, got 3\n"
    assert not outdir.exists()


@pytest.mark.parametrize("error", [SizeLimitError, DegenerateRankingError, SingletonLeagueError])
def test_every_input_error_subclass_exits_two(tmp_path, monkeypatch, capsys, error):
    # main catches InputError alone, so each specialised input error must derive from it
    def refuse(structure):
        raise error("refused")

    table, weights = write_toy_table(tmp_path)
    monkeypatch.setattr(cli, "cycle_counts", refuse)
    code, _ = run_main("analyze", str(table), "--weights", str(weights), "--output", str(tmp_path / "out"))
    assert code == 2 and capsys.readouterr().err == f"error: {table}: refused\n"


def test_rank_reports_an_empty_solution_as_a_numerical_failure(tmp_path, monkeypatch, capsys):
    table, weights = write_toy_table(tmp_path)
    monkeypatch.setitem(solutions._SOLVERS, "UC", lambda ms, subset: solutions.SolutionSet("UC", frozenset()))
    code, out = run_main("rank", str(table), "--weights", str(weights), "--method", "uc-sort")
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == "numerical failure: UC selected nothing from 3 alternatives\n"


def test_analyze_outputs(tmp_path):
    table, weights = write_toy_table(tmp_path)
    outdir = tmp_path / "analysis"
    code, _ = run_main("analyze", str(table), "--weights", str(weights), "--output", str(outdir))
    assert code == 0
    cycles = {int(row["k"]): int(row["cycles"]) for row in csv.DictReader((outdir / "cycles.csv").open())}
    assert cycles == {3: 1, 4: 0, 5: 0}  # the toy votes form one 3-cycle
    matrix_rows = list(csv.reader((outdir / "M.csv").open()))
    assert matrix_rows[0] == ["", "a", "b", "c"]
    assert (outdir / "T.csv").is_file()


def test_analyze_five_alternative_election(tmp_path):
    # three voters over five alternatives produce exactly four 3-cycles
    table = tmp_path / "five.csv"
    table.write_text(
        "country,v1,v2,v3\n"
        "x1,1,5,3\nx2,2,3,4\nx3,3,4,2\nx4,4,1,5\nx5,5,2,1\n",
        encoding="utf-8",
    )
    weights = tmp_path / "w.cfg"
    weights.write_text("v1 = 1\nv2 = 1\nv3 = 1\n", encoding="utf-8")
    outdir = tmp_path / "analysis"
    code, _ = run_main("analyze", str(table), "--weights", str(weights), "--output", str(outdir))
    assert code == 0
    cycles = {int(row["k"]): int(row["cycles"]) for row in csv.DictReader((outdir / "cycles.csv").open())}
    assert cycles[3] == 4


def test_analyze_transitive_input_has_no_cycles(tmp_path):
    table = tmp_path / "chain.csv"
    table.write_text("country,c1,c2\na,1,1\nb,2,2\nc,3,3\n", encoding="utf-8")
    weights = tmp_path / "w.cfg"
    weights.write_text("c1 = 1\nc2 = 2\n", encoding="utf-8")
    outdir = tmp_path / "analysis"
    code, _ = run_main("analyze", str(table), "--weights", str(weights), "--output", str(outdir))
    assert code == 0
    cycles = {int(row["k"]): int(row["cycles"]) for row in csv.DictReader((outdir / "cycles.csv").open())}
    assert cycles == {3: 0, 4: 0, 5: 0}


def test_correlate_matrix_formatting(tmp_path):
    table, _ = write_toy_table(tmp_path)
    code, out = run_main("correlate", str(table), "--measure", "coinciding")
    assert code == 0
    rows = list(csv.reader(stdio.StringIO(out)))
    assert rows[0] == ["", "c1", "c2", "c3"]
    assert rows[1][1] == "100.00"  # two decimals for shares


def test_metarank_emits_ranking_and_dot(tmp_path):
    dot_path = tmp_path / "meta.dot"
    code, out = run_main(
        "metarank", CRITERIA_CSV, "--measure", "tau-b", "--emit-dot", str(dot_path),
    )
    assert code == 0
    rows = list(csv.reader(stdio.StringIO(out)))
    assert rows[0][:2] == ["candidate", "rank"]
    ranks = {row[0]: int(row[1]) for row in rows[1:]}
    assert ranks["ImWMT"] < ranks["MVAsh"]  # world-impact column represents the set better
    dot = dot_path.read_text(encoding="utf-8")
    assert dot.startswith("digraph") and "->" in dot


def test_metarank_dot_escapes_quotes_in_names(tmp_path):
    # the criterion a"b and its twin c3 both stand closer to a"b than to c2
    table = tmp_path / "quoted.csv"
    table.write_text('country,"a""b",c2,c3\nx,1,2,1\ny,2,1,2\nz,3,3,3\n', encoding="utf-8")
    weights = tmp_path / "w.cfg"
    weights.write_text('a"b = 1\nc2 = 1\nc3 = 1\n', encoding="utf-8")
    dot_path = tmp_path / "meta.dot"
    code, _ = run_main("metarank", str(table), "--weights", str(weights), "--emit-dot", str(dot_path))
    assert code == 0
    lines = dot_path.read_text(encoding="utf-8").splitlines()
    assert '  "a\\"b";' in lines
    assert '  "a\\"b" -> "c2" [label="2"];' in lines


def test_metarank_rejects_duplicate_candidates(tmp_path, capsys):
    code, _ = run_main("metarank", CRITERIA_CSV, "--candidates", CRITERIA_CSV)
    assert code == 2
    assert f"error: {CRITERIA_CSV}: duplicate candidate column 'MVApc' (row 1, col MVApc)" in capsys.readouterr().err


@pytest.mark.parametrize("edit, problem", [
    (lambda rows: [rows[0], rows[2], rows[1], *rows[3:]], "countries are listed in a different order from"),
    (lambda rows: [rows[0], rows[1].replace("Japan,", "Nippon,"), *rows[2:]],
     "countries differ from {criteria}: missing ['Japan'], extra ['Nippon']"),
], ids=["reordered", "renamed"])
def test_metarank_candidates_must_list_the_criteria_countries_in_order(tmp_path, capsys, edit, problem):
    aggregates = (bundled_fixtures_dir() / "table6_aggregates.csv").read_text(encoding="utf-8")
    table = tmp_path / "candidates.csv"
    table.write_text("".join(edit(aggregates.splitlines(keepends=True))), encoding="utf-8")
    code, out = run_main("metarank", CRITERIA_CSV, "--candidates", str(table))
    assert code == 2
    assert out == ""
    assert capsys.readouterr().err.startswith(f"error: {table}: {problem.format(criteria=CRITERIA_CSV)}")


def test_metarank_full_study_heads(tmp_path):
    # criteria plus the published aggregate columns: fifteen candidates
    aggregates = str(bundled_fixtures_dir() / "table6_aggregates.csv")
    code, out = run_main("metarank", CRITERIA_CSV, "--candidates", aggregates, "--measure", "tau-b")
    assert code == 0
    ranks = {row[0]: int(row[1]) for row in list(csv.reader(stdio.StringIO(out)))[1:]}
    assert ranks["UC"] == 1  # the uncovered-set sorting leads under tau-b

    code, out = run_main("metarank", CRITERIA_CSV, "--candidates", aggregates, "--measure", "coinciding")
    assert code == 0
    ranks = {row[0]: int(row[1]) for row in list(csv.reader(stdio.StringIO(out)))[1:]}
    assert ranks["Copeland1"] == 1  # wins-minus-losses leads under the share
    assert ranks["CIP"] == ranks["Copeland2"] == ranks["Copeland3"] == 3
    assert ranks["Markovian"] == 2


def test_cip_command(tmp_path):
    table = tmp_path / "indicators.csv"
    table.write_text(
        "country,MVApc,MXpc,MHVAsh,MVAsh,MHXsh,MXsh,ImWMVA,ImWMT\n"
        "big,2,3,0.4,0.2,0.5,0.7,0.01,0.02\n"
        "small,1,1,0.1,0.1,0.1,0.1,0.001,0.001\n",
        encoding="utf-8",
    )
    code, out = run_main("cip", str(table))
    assert code == 0
    rows = list(csv.reader(stdio.StringIO(out)))
    assert rows[0] == ["country", "index", "rank"]
    assert rows[1] == ["big", "0.000216", "1"]
    assert rows[2][0] == "small" and rows[2][2] == "2"


def test_outputs_are_byte_identical_across_runs(tmp_path):
    table, weights = write_toy_table(tmp_path)
    first = run_main("rank", str(table), "--weights", str(weights), "--method", "markovian")
    second = run_main("rank", str(table), "--weights", str(weights), "--method", "markovian")
    assert first == second
    one = run_main("correlate", str(table), "--measure", "tau-b")
    two = run_main("correlate", str(table), "--measure", "tau-b")
    assert one == two


def test_reproduce_exit_codes(tmp_path):
    code, out = run_main("reproduce")
    assert code == 0
    assert "overall: PASS" in out

    code, _ = run_main("reproduce", str(tmp_path / "missing"))
    assert code == 2


def test_reproduce_perturbed_fixture_names_failing_check(tmp_path):
    fixtures = tmp_path / "fixtures"
    shutil.copytree(bundled_fixtures_dir(), fixtures)
    path = fixtures / "table1_cycles.csv"
    path.write_text("k,cycles\n3,639\n4,5928\n5,52754\n", encoding="utf-8")
    code, out = run_main("reproduce", str(fixtures))
    assert code == 1
    assert "FAIL  cycle count k=3" in out


@pytest.mark.parametrize("row, data_column, problem", [
    (2, "MHVApc", "is not a ranking of this table"),
    (3, "MHVAsh", "already names row 2"),  # row 2 maps to MHVAsh too
], ids=["unknown", "duplicate"])
def test_reproduce_rejects_bad_meta_data_column(tmp_path, capsys, row, data_column, problem):
    fixtures = tmp_path / "fixtures"
    shutil.copytree(bundled_fixtures_dir(), fixtures)
    path = fixtures / "table5_meta.csv"
    with path.open(encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    rows[row - 1][rows[0].index("data_column")] = data_column
    with path.open("w", encoding="utf-8", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)
    code, out = run_main("reproduce", str(fixtures))
    assert code == 2
    assert out == ""
    error = capsys.readouterr().err
    assert "table5_meta.csv" in error and problem in error
    assert f"(row {row}, col data_column)" in error
    assert "Traceback" not in error


@pytest.mark.parametrize("filename, old, new, problem", [
    ("table3_r.csv", "CIP", "CIPX", "labels do not match the candidate set: missing ['CIP'], extra ['CIPX']"),
    ("table3_taub.csv", "Markovian", "Markov", "missing ['Markovian'], extra ['Markov']"),
    ("table5_meta.csv", "CIP", "CIPX", "rankings do not match the candidate set: missing ['CIP'], extra ['CIPX']"),
    ("table6_aggregates.csv", "Japan,", "Nippon,", "countries differ from"),
    # MXpc's row and column both renamed MVApc: the label sets still match
    ("table3_r.csv", "MXpc", "MVApc", "duplicate ranking 'MVApc' (row 3, col ranking)"),
    ("table1_cycles.csv", "4,5928\n5,52754\n", "", "no count for cycle lengths [4, 5]"),
], ids=["coinciding-labels", "taub-labels", "meta-rankings", "aggregate-countries", "duplicate-coinciding-row",
        "missing-cycle-lengths"])
def test_reproduce_checks_label_sets_before_computing(tmp_path, capsys, monkeypatch, filename, old, new, problem):
    def refuse(profile):
        raise AssertionError("the majority structure was built before the label sets were checked")

    monkeypatch.setattr("majorityrank.io.build_majority", refuse)
    fixtures = tmp_path / "fixtures"
    shutil.copytree(bundled_fixtures_dir(), fixtures)
    path = fixtures / filename
    path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
    code, out = run_main("reproduce", str(fixtures))
    assert code == 2
    assert out == ""
    error = capsys.readouterr().err
    assert error.startswith(f"error: {path}: ") and problem in error


@pytest.mark.parametrize("filename, edit, problem, where", [
    ("table1_cycles.csv", lambda text: "", "empty file", "(row 1)"),
    ("table1_cycles.csv", lambda text: text.replace("5,", "6,", 1), "cycle length 6 is not one of", "(row 4, col k)"),
    ("table3_taub.csv", lambda text: text.replace("0.767", "0.7x67", 1), "'0.7x67' is not a finite number",
     "(row 2, col MXpc)"),
    ("table1_cycles.csv", lambda text: text.replace("5928", "5_928", 1), "'5_928' is not an integer",
     "(row 3, col cycles)"),
    ("table5_meta.csv", lambda text: text.replace("MVApc,10,", "MVApc,\u0661\u0660,", 1),
     "'\u0661\u0660' is not an integer", "(row 2, col tau_b_rank)"),
    ("table6_aggregates.csv", lambda text: text.replace(",UC,", ",UCx,", 1), "no UC column", "(row 1)"),
    ("table1_cycles.csv", lambda text: text.replace("4,", "3,", 1), "cycle length 3 is given twice", "(row 3, col k)"),
], ids=["empty-cycles", "bad-cycle-length", "non-numeric-taub", "underscore-count", "non-ascii-meta-rank",
        "missing-aggregate", "repeated-cycle-length"])
def test_reproduce_rejects_malformed_reference(tmp_path, capsys, filename, edit, problem, where):
    fixtures = tmp_path / "fixtures"
    shutil.copytree(bundled_fixtures_dir(), fixtures)
    path = fixtures / filename
    path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
    code, out = run_main("reproduce", str(fixtures))
    assert code == 2
    assert out == ""
    error = capsys.readouterr().err
    assert filename in error and problem in error and where in error
    assert "Traceback" not in error


@pytest.mark.parametrize("method", METHODS)
def test_rank_output_conforms_to_every_scheme(tmp_path, method):
    # two stacked Condorcet 3-cycles above a last place: every method ties within each cycle
    table = tmp_path / "cycles.csv"
    table.write_text(
        "country,c1,c2,c3\n"
        "a,1,3,2\nb,2,1,3\nc,3,2,1\n"
        "d,4,6,5\ne,5,4,6\nf,6,5,4\n"
        "g,7,7,7\n",
        encoding="utf-8",
    )
    weights = tmp_path / "w.cfg"
    weights.write_text("c1 = 1\nc2 = 1\nc3 = 1\n", encoding="utf-8")
    expected = {DENSE: [1, 1, 1, 2, 2, 2, 3], COMPETITION: [1, 1, 1, 4, 4, 4, 7]}
    for scheme in SCHEMES:
        code, out = run_main("rank", str(table), "--weights", str(weights), "--method", method, "--scheme", scheme)
        assert code == 0
        rows = list(csv.reader(stdio.StringIO(out)))[1:]
        ranking = Ranking(AlternativeSet([name for name, _ in rows]), {name: int(r) for name, r in rows}, scheme=scheme)
        assert ranking.conforms_to_scheme(), (method, scheme)
        assert [int(r) for _, r in rows] == expected[scheme], (method, scheme)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(profiles())
def test_every_rank_method_conforms_to_every_scheme_on_tied_profiles(profile):
    structure = build_majority(profile)
    for method, (_, aggregate) in mio.AGGREGATES.items():
        rankings = {scheme: aggregate(structure, scheme) for scheme in SCHEMES}
        for scheme, ranking in rankings.items():
            assert ranking.scheme == scheme and ranking.conforms_to_scheme(), (method, scheme)
        # both numberings describe one weak order
        competition = rankings[COMPETITION]
        assert from_ranks(competition.alternatives, competition.rank_vector(), DENSE) == rankings[DENSE], method


def test_rank_methods_and_published_columns_come_from_one_table():
    assert METHODS == tuple(mio.AGGREGATES)
    assert mio.AGGREGATE_METHODS == ("Copeland1", "Copeland2", "Copeland3", "UC", "MES", "Markovian")


def test_console_entry_point_runs_in_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "majorityrank", "reproduce"],
        capture_output=True, text=True, env=in_tree_env(), timeout=120,
    )
    assert result.returncode == 0
    assert "overall: PASS" in result.stdout


def test_two_main_calls_build_one_parser_tree(tmp_path, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    table, _ = write_toy_table(tmp_path)
    cli.build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run_main("correlate", str(table)) == run_main("correlate", str(table))
    # the program parser and one parser per subcommand, built by the first call alone
    assert len(built) == 7 and built[0] == "majorityrank"


def test_main_reaches_a_handler_rebound_after_its_first_call(tmp_path, monkeypatch):
    # the benchmark tracer wraps cli.cmd_* in place, after the first main call has built the parser
    table, _ = write_toy_table(tmp_path)
    assert run_main("correlate", str(table))[0] == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_cip", lambda args: seen.append(args) or 0)
    assert run_main("cip", "indicators.csv", "--scheme", "competition") == (0, "")
    assert [(args.indicators_csv, args.scheme) for args in seen] == [("indicators.csv", COMPETITION)]
    assert not any(callable(value) for value in vars(seen[0]).values())


# sha256 of the stdout of every study run; a rank output's labels, not only its weak order, are pinned
STUDY_DIGESTS = {
    ("rank", "--method", "copeland1", "--scheme", "dense"):
        "9e24fdae9bac31a96d60518065738d806c6e6c18b2470744cf9ebb48f5e7bdfb",
    ("rank", "--method", "copeland1", "--scheme", "competition"):
        "41fe4c92ac59e7863df97e4fd282e151965ebc6229c34502b6e9037fb3246122",
    ("rank", "--method", "copeland2", "--scheme", "dense"):
        "c69aa22850bf8bb15f0cb6f5bb564400e3f7d3d21c7c5a7e0560619b478fe229",
    ("rank", "--method", "copeland2", "--scheme", "competition"):
        "e9386a1277a4f4537ac2efd83022ff2b1c1edef51dff17cb170d79d2215b3d35",
    ("rank", "--method", "copeland3", "--scheme", "dense"):
        "ca05f772fe28f5e4b288d90d09f6b06d871e7dc468fb317c9222718f6bf72963",
    ("rank", "--method", "copeland3", "--scheme", "competition"):
        "bf1db74f98563a5bf5ca672e90eba43bb98198ad09ad717e624a297a95977b15",
    ("rank", "--method", "uc-sort", "--scheme", "dense"):
        "0bfcbf72a17dfcbdc350cd11a0e2577884d032722565925c9acb684046109534",
    ("rank", "--method", "uc-sort", "--scheme", "competition"):
        "b2824517661331cd5a9fa4c98e084a1d0d0a698074cf2795ae7721f9cc5dff11",
    ("rank", "--method", "mes-sort", "--scheme", "dense"):
        "952b853e1e3e778125b337024beb849974e57f68d809097ba63dbe1fa21bbc42",
    ("rank", "--method", "mes-sort", "--scheme", "competition"):
        "6f3f205dfbb2547f7ac09809248387546614d55e72ffb0bce86152fcd5db2bbd",
    ("rank", "--method", "wtc-sort", "--scheme", "dense"):
        "c16f7017a307e8ea4e83ff9412809b565079681a099ea685b3dd031713754ea4",
    ("rank", "--method", "wtc-sort", "--scheme", "competition"):
        "c16f7017a307e8ea4e83ff9412809b565079681a099ea685b3dd031713754ea4",
    ("rank", "--method", "markovian", "--scheme", "dense"):
        "fd073157e70928fdd8d31906a2c856118eb659a5dd8c5a100fbfcaa476c4d3e9",
    ("rank", "--method", "markovian", "--scheme", "competition"):
        "fd073157e70928fdd8d31906a2c856118eb659a5dd8c5a100fbfcaa476c4d3e9",
    ("correlate", "--measure", "tau-b"):
        "cb9ece8c0dc48493678819691f76b8d8c4a3b304d743e351d33e98734bf4fc33",
    ("correlate", "--measure", "coinciding"):
        "005fb756774fd9f5061c91eadc1ec6d20fb877d9aa3161515aef2036264c442c",
    ("metarank", "--measure", "tau-b"):
        "eedfa7af95af5f5226c6bae0a820fb267d662ef589deac906e023f5365bde068",
    ("metarank", "--measure", "coinciding"):
        "f87e8eb5ff5df96b52c7d3d447b32aea467cdaeca20c2f2b188be96169925658",
}


def test_study_outputs_keep_their_digests():
    assert {argv[0] for argv in STUDY_DIGESTS} == {"rank", "correlate", "metarank"}
    assert len(STUDY_DIGESTS) == len(METHODS) * len(SCHEMES) + 4
    for argv, digest in STUDY_DIGESTS.items():
        code, out = run_main(argv[0], CRITERIA_CSV, *argv[1:])
        assert code == 0, argv
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, argv


# cip's inline table ties twin with mid above small, so that the two schemes differ
INDICATORS_TABLE = (
    "country,MVApc,MXpc,MHVAsh,MVAsh,MHXsh,MXsh,ImWMVA,ImWMT\n"
    "big,2,3,0.4,0.2,0.5,0.7,0.01,0.02\n"
    "small,1,1,0.1,0.1,0.1,0.1,0.001,0.001\n"
    "twin,1.5,2,0.3,0.1,0.2,0.4,0.005,0.003\n"
    "mid,1.5,2,0.3,0.1,0.2,0.4,0.005,0.003\n"
)
# sha256 of every file the study's analyze and metarank --emit-dot runs write, and of cip's stdout
FILE_DIGESTS = {
    "analyze/M.csv": "7b7d2e1f63a5aad7860d20d5557e07a11f1f25120ce2779151d2a42978861ea4",
    "analyze/T.csv": "df7c35c7c6c7089419a53678c4acdd62141ccad8120755161b21528784dd2c56",
    "analyze/cycles.csv": "36900494aefb7b266449fe94dba963540867f7af357a29b465369607487e153a",
    "tau-b.dot": "9a5ebc9d5851857a1a6b512cab0dbbbb440d12784aaec64cecc59bf27c3e3a4d",
    "coinciding.dot": "1cd0b47276ba4252d29fdb17acdc2885f570ddcc2bebfb83c731a91513a8d5f4",
    "cip-dense": "b0e39b0dd929fce18b0b5672d638ac491e4ac694d6b0ca7b3b8c921ea8a659c1",
    "cip-competition": "5d79cb92cf25cc4550ad374a1e91aa28793eb8d152af0874e673a1f585436f7d",
}


def test_study_files_and_cip_output_keep_their_digests(tmp_path):
    def digest(data):
        return hashlib.sha256(data).hexdigest()

    found = {}
    assert run_main("analyze", CRITERIA_CSV, "--output", str(tmp_path / "analyze"))[0] == 0
    for name in ("M.csv", "T.csv", "cycles.csv"):
        found[f"analyze/{name}"] = digest((tmp_path / "analyze" / name).read_bytes())
    for measure in ("tau-b", "coinciding"):
        dot = tmp_path / f"{measure}.dot"
        assert run_main("metarank", CRITERIA_CSV, "--measure", measure, "--emit-dot", str(dot))[0] == 0
        found[dot.name] = digest(dot.read_bytes())
    indicators = tmp_path / "indicators.csv"
    indicators.write_text(INDICATORS_TABLE, encoding="utf-8")
    for scheme in SCHEMES:
        code, out = run_main("cip", str(indicators), "--scheme", scheme)
        assert code == 0
        found[f"cip-{scheme}"] = digest(out.encode("utf-8"))
    assert found == FILE_DIGESTS


def test_cip_rejects_a_repeated_indicator_column(tmp_path, capsys):
    # ranked by the second MVApc column, country a would come first
    table = tmp_path / "indicators.csv"
    table.write_text(
        "country,MVApc,MXpc,MHVAsh,MVAsh,MHXsh,MXsh,ImWMVA,ImWMT,MVApc\n"
        "a,1,1,0.1,0.1,0.1,0.1,0.1,0.1,5\n"
        "b,2,1,0.1,0.1,0.1,0.1,0.1,0.1,0.5\n",
        encoding="utf-8",
    )
    assert run_main("cip", str(table)) == (2, "")
    assert capsys.readouterr().err == f"error: {table}: duplicate column 'MVApc' (row 1, col MVApc)\n"


def test_reproduce_rejects_a_repeated_cycles_column(tmp_path, capsys):
    # read by position, "k,k" once passed 28/28 and named the count column k
    fixtures = tmp_path / "fixtures"
    shutil.copytree(bundled_fixtures_dir(), fixtures)
    path = fixtures / "table1_cycles.csv"
    path.write_text(path.read_text(encoding="utf-8").replace("k,cycles", "k,k", 1), encoding="utf-8")
    assert run_main("reproduce", str(fixtures)) == (2, "")
    assert capsys.readouterr().err == f"error: {path}: duplicate column 'k' (row 1, col k)\n"


def test_cip_names_row_1_and_the_first_missing_column(tmp_path, capsys):
    table = tmp_path / "indicators.csv"
    table.write_text(INDICATORS_TABLE.replace(",MXsh,", ",MXshare,", 1), encoding="utf-8")
    assert run_main("cip", str(table)) == (2, "")
    error = capsys.readouterr().err
    assert error.startswith(f"error: {table}: ") and "(row 1, col MXsh)" in error
    assert "Traceback" not in error


TWO_CRITERIA = "country,A,B\na,1,2\nb,2,1\nc,3,3\n"


@pytest.mark.parametrize("argv, tables, at_fault, problem", [
    (["correlate", "t.csv"], {"t.csv": f"country,A,B\na,1,2\nb,2,1{'0' * 400}\n"}, "t.csv",
     f"rank 1{'0' * 400} is above {2 ** 63 - 1} (row 3, col B)"),
    (["correlate", "t.csv"], {"t.csv": "country,A\na,1\nb,2\n"}, "t.csv",
     "a correlation matrix needs at least two rankings, got 1 (row 1)"),
    (["correlate", "t.csv"], {"t.csv": "country,A,B\na,1,1\n"}, "t.csv",
     "correlation needs at least two alternatives, got 1 data row"),
    (["metarank", "t.csv", "--weights", "w.cfg"], {"t.csv": "country,A,B\na,1,1\n"}, "t.csv",
     "correlation needs at least two alternatives, got 1 data row"),
    (["correlate", "t.csv"], {"t.csv": "country,A,B\na,1,1\nb,2,1\nc,3,1\n"}, "t.csv",
     "tau-b is undefined: column 'B' ties every row (col B)"),
    (["metarank", "t.csv", "--weights", "w.cfg", "--candidates", "c.csv"],
     {"t.csv": TWO_CRITERIA, "c.csv": "country,X\na,1\nb,1\nc,1\n"}, "c.csv",
     "tau-b is undefined: column 'X' ties every row (col X)"),
    (["metarank", "t.csv", "--weights", "w.cfg", "--candidates", "c.csv"],
     {"t.csv": "country,A,B\na,1,1\nb,2,1\nc,3,1\n", "c.csv": "country,X\na,2\nb,1\nc,3\n"}, "t.csv",
     "tau-b is undefined: column 'B' ties every row (col B)"),
    (["cip", "i.csv"], {"i.csv": INDICATORS_TABLE.replace("small,1,1,", "small,1e300,1e300,")}, "i.csv",
     "the CIP index of 'small' is not finite: inf (row 3)"),
    (["correlate", "t.csv"], {"t.csv": TWO_CRITERIA + "d,4,4\n"}, "t.csv",
     "the pair census supports at most 3 alternatives, got 4 in ranking 'A'"),
    (["metarank", "t.csv", "--weights", "w.cfg", "--candidates", "c.csv"],
     {"t.csv": TWO_CRITERIA + "d,4,4\n", "c.csv": "country,X\na,1\nb,2\nc,3\nd,4\n"}, "t.csv",
     "the pair census supports at most 3 alternatives, got 4 in ranking 'A'"),
    (["rank", "t.csv", "--weights", "w.cfg", "--method", "markovian"],
     {"t.csv": "country,A,B\n" + "".join(f"c{i},1,1\n" for i in range(2049))}, "t.csv",
     "the exact stationary solve is capped at 2048 league members, got 2049"),
], ids=["rank-past-float-range", "one-ranking", "one-row-correlate", "one-row-metarank", "tied-column-correlate",
        "tied-candidate-column", "tied-criterion-column", "cip-index-overflow", "census-cap-correlate",
        "census-cap-metarank", "markov-league-cap"])
def test_errors_the_library_finds_name_the_file_and_column(tmp_path, capsys, monkeypatch, argv, tables, at_fault,
                                                           problem):
    # a census cap of 3 alternatives, which only the census-cap rows' four-row tables exceed
    monkeypatch.setattr(correlation, "_CENSUS_MAX_SIZE", 3)
    for name, text in {"w.cfg": "A = 1\nB = 1\n", **tables}.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    argv = [str(tmp_path / arg) if "." in arg else arg for arg in argv]
    assert run_main(*argv) == (2, "")
    assert capsys.readouterr().err == f"error: {tmp_path / at_fault}: {problem}\n"


FUZZ_CASES = 30  # seeded mutations per command
FUZZ_BYTES = (b"", b",", b"\n", b'"', b"\xff", b"9", b"-")
FUZZ_CELLS = (b"", b"0", b"-1", b"1.5", b"x", b"nan", b"1e999", b"1_0", b"99999999999999999999", b'"')


def mutate(rng: random.Random, data: bytes, row: int | None = None) -> bytes:
    """One seeded byte, row or cell mutation of a table or weights file; ``row`` makes it a cell of that row."""
    lines = data.split(b"\n")
    kind = "cell" if row is not None else rng.choice(("byte", "row", "cell"))
    if kind == "byte":
        at = rng.randrange(len(data))
        return data[:at] + rng.choice(FUZZ_BYTES) + data[at + 1:]
    if kind == "row":  # drop a row (a blank line is skipped), repeat one, or swap two
        i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
        lines[i], lines[j] = rng.choice(((b"", lines[j]), (lines[j], lines[j]), (lines[j], lines[i])))
        return b"\n".join(lines)
    i = rng.randrange(len(lines)) if row is None else row
    cells = lines[i].split(b",")
    k = rng.randrange(len(cells))
    cells[k] = rng.choice(FUZZ_CELLS + tuple(cells))  # a bad value, or a repeat of one in the row
    lines[i] = b",".join(cells)
    return b"\n".join(lines)


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("seed, command", enumerate(("reproduce", "rank", "metarank", "correlate", "analyze", "cip")))
def test_fuzzed_inputs_exit_cleanly_and_name_the_mutated_file(tmp_path, capsys, seed, command):
    fixtures = tmp_path / "fixtures"
    shutil.copytree(bundled_fixtures_dir(), fixtures)
    names = ("table6_criteria.csv", "table6_aggregates.csv", "weights.cfg", "indicators.csv")
    criteria, aggregates, weights, indicators = (fixtures / name for name in names)
    indicators.write_text(INDICATORS_TABLE, encoding="utf-8")
    targets, argv = {
        "reproduce": (mio.FIXTURE_FILES, ["reproduce", fixtures]),
        "rank": ((criteria, weights), ["rank", criteria, "--weights", weights, "--method", "copeland1"]),
        "metarank": ((criteria, aggregates), ["metarank", criteria, "--candidates", aggregates]),
        "correlate": ((criteria,), ["correlate", criteria]),
        "analyze": ((criteria, weights), ["analyze", criteria, "--weights", weights, "--output", tmp_path / "out"]),
        "cip": ((indicators,), ["cip", indicators]),
    }[command]
    rng = random.Random(seed)
    codes = []
    for case in range(FUZZ_CASES):
        path = fixtures / rng.choice(targets)
        original = path.read_bytes()
        header = 0 if command == "cip" and rng.random() < 0.5 else None
        path.write_bytes(mutate(rng, original, header))
        code, _ = run_main(*map(str, argv))
        error = capsys.readouterr().err
        path.write_bytes(original)
        assert code in (0, 1, 2) and "Traceback" not in error, (case, error)
        assert code != 2 or str(path) in error, (case, error)
        codes.append(code)
    assert 0 in codes and 2 in codes, codes  # the mutations both spare and break the inputs


def write_rows(path, rows) -> str:
    with path.open("w", encoding="utf-8", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)
    return str(path)


def permute(rows, row_order=None, column_order=None):
    """A ranks table (header first, country column first) with its data rows or criterion columns reordered."""
    header, *data = rows
    row_order = range(len(data)) if row_order is None else row_order
    columns = [0, *(1 + c for c in (range(len(header) - 1) if column_order is None else column_order))]
    return [[row[c] for c in columns] for row in (header, *(data[r] for r in row_order))]


def assert_cli_is_neutral(tmp_path, rows, rng, weights=(), candidates=None):
    """Permuting a ranks table's data rows permutes every ``rank`` output, compared by country, and leaves
    ``correlate``, ``metarank`` and ``analyze``'s cycles.csv byte-identical; permuting its criterion
    columns changes no ``rank`` output."""
    order = rng.sample(range(len(rows) - 1), len(rows) - 1)
    columns = rng.sample(range(len(rows[0]) - 1), len(rows[0]) - 1)
    tables = {
        "given": write_rows(tmp_path / "given.csv", rows),
        "rows": write_rows(tmp_path / "rows.csv", permute(rows, order)),
        "columns": write_rows(tmp_path / "columns.csv", permute(rows, column_order=columns)),
    }
    extra = {"given": [], "rows": []}
    if candidates is not None:
        extra = {"given": ["--candidates", write_rows(tmp_path / "candidates.csv", candidates)],
                 "rows": ["--candidates", write_rows(tmp_path / "candidates-rows.csv", permute(candidates, order))]}
    for method in METHODS:
        for scheme in SCHEMES:
            outputs = {}
            for name, table in tables.items():
                code, out = run_main("rank", table, *weights, "--method", method, "--scheme", scheme)
                assert code == 0, (method, scheme, name)
                outputs[name] = list(csv.reader(stdio.StringIO(out)))
            header, *given = outputs["given"]
            assert outputs["rows"] == [header, *(given[r] for r in order)], (method, scheme)
            assert outputs["columns"] == outputs["given"], (method, scheme)
    for measure in cli.MEASURE_FLAGS:
        correlated = [run_main("correlate", tables[name], "--measure", measure) for name in ("given", "rows")]
        assert correlated[0][0] == 0 and correlated[1] == correlated[0], measure
        ranked = [run_main("metarank", tables[name], *weights, *extra[name], "--measure", measure)
                  for name in ("given", "rows")]
        assert ranked[0][0] == 0 and ranked[1] == ranked[0], measure
    cycles = []
    for name in ("given", "rows"):
        assert run_main("analyze", tables[name], *weights, "--output", str(tmp_path / name)) == (0, "")
        cycles.append((tmp_path / name / "cycles.csv").read_bytes())
    assert cycles[1] == cycles[0]


@pytest.mark.parametrize("seed", range(8))
def test_cli_is_neutral_on_random_tied_tables(tmp_path, seed):
    rng = random.Random(3100 + seed)
    alternatives, n = AlternativeSet(tuple(f"x{i}" for i in range(rng.randint(4, 14)))), rng.randint(3, 5)
    columns = []
    while len(columns) < n:
        ranking = random_ranking(rng, alternatives, max_positions=5)
        if len(set(ranking.ranks.values())) > 1:  # tau-b is undefined for a criterion that ties every row
            columns.append(ranking.ranks)
    rows = [["country", *(f"c{c}" for c in range(n))], *([name, *(ranks[name] for ranks in columns)]
                                                         for name in alternatives)]
    weights = tmp_path / "w.cfg"
    weights.write_text("".join(f"c{c} = {rng.randint(1, 3)}\n" for c in range(n)), encoding="utf-8")
    assert_cli_is_neutral(tmp_path, rows, rng, weights=("--weights", str(weights)))


def test_cli_is_neutral_on_the_study(tmp_path):
    def read(name):
        with (bundled_fixtures_dir() / name).open(encoding="utf-8", newline="") as handle:
            return list(csv.reader(handle))

    assert_cli_is_neutral(tmp_path, read("table6_criteria.csv"), random.Random(31),
                          candidates=read("table6_aggregates.csv"))
