import csv
import io
import random
import shutil
import warnings

import numpy as np
import pytest

from majorityrank import (
    AlternativeSet,
    InputError,
    Ranking,
    build_profile,
    bundled_fixtures_dir,
    load_indicators,
    load_ranks,
    load_weights,
    run_reproduce,
    save_ranking,
)
from majorityrank import correlation
from majorityrank import io as mio
from majorityrank.cli import _MEASURE_DECIMALS
from majorityrank.io import FIXTURE_FILES
from oracles import naive_load_ranks, naive_load_reference_matrix


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_bundled_fixtures_complete():
    fixtures = bundled_fixtures_dir()
    for filename in FIXTURE_FILES:
        assert (fixtures / filename).is_file(), filename


def test_load_bundled_criteria_table():
    alternatives, rankings = load_ranks(bundled_fixtures_dir() / "table6_criteria.csv")
    assert len(alternatives) == 135
    assert list(rankings) == ["MVApc", "MXpc", "MHVAsh", "MVAsh", "MHXsh", "MXsh", "ImWMVA", "ImWMT"]
    assert rankings["MHVAsh"].distinct_positions() == 132
    assert all(r.conforms_to_scheme() for r in rankings.values())


def test_load_tiny_table(tmp_path):
    path = write(tmp_path, "ranks.csv", "country,c1\na,1\nb,2\n")
    alternatives, rankings = load_ranks(path)
    assert alternatives.items == ("a", "b")
    assert rankings["c1"].ranks == {"a": 1, "b": 2}


def test_loader_error_coordinates(tmp_path):
    path = write(tmp_path, "bad.csv", "country,c1\na,x\n")
    with pytest.raises(InputError, match=r"row 2, col c1"):
        load_ranks(path)


def test_loader_rejects_a_rank_beyond_int64(tmp_path):
    path = write(tmp_path, "big.csv", f"country,c1,c2\na,1,{2 ** 63 - 1}\nb,2,99999999999999999999\n")
    with pytest.raises(InputError, match=rf"{path}: rank 99999999999999999999 is above {2 ** 63 - 1} \(row 3, col c2\)"):
        load_ranks(path)


@pytest.mark.parametrize("cell", ["1_0", "\u0661", "+\u0661", "1 0"])
def test_loader_rejects_non_decimal_integer_cells(tmp_path, cell):
    path = write(tmp_path, "digits.csv", f"country,c1\na,2\nb,{cell}\n")
    with pytest.raises(InputError) as excinfo:
        load_ranks(path)
    assert str(excinfo.value) == f"{path}: {cell!r} is not an integer (row 3, col c1)"


def test_loader_rejects_incomplete_rows(tmp_path):
    path = write(tmp_path, "short.csv", "country,c1,c2\na,1\n")
    with pytest.raises(InputError, match="row 2"):
        load_ranks(path)
    path = write(tmp_path, "empty_cell.csv", "country,c1\na,\n")
    with pytest.raises(InputError, match=r"missing rank \(row 2, col c1\)"):
        load_ranks(path)


def test_loader_rejects_duplicates(tmp_path):
    path = write(tmp_path, "dupe.csv", "country,c1\na,1\na,2\n")
    with pytest.raises(InputError, match="duplicate country"):
        load_ranks(path)
    path = write(tmp_path, "unlabelled.csv", ",c1\na,1\na,2\n")
    with pytest.raises(InputError, match=r"duplicate label 'a' \(row 3, col \)"):
        load_ranks(path)
    path = write(tmp_path, "dupecol.csv", "country,c1,c1\na,1,2\n")
    with pytest.raises(InputError, match="duplicate column"):
        load_ranks(path)


def test_loader_warns_on_non_dense_column(tmp_path):
    path = write(tmp_path, "sparse.csv", "country,c1\na,1\nb,7\n")
    with pytest.warns(UserWarning, match="not densely numbered"):
        _, rankings = load_ranks(path)
    assert rankings["c1"].ranks == {"a": 1, "b": 7}  # kept as published


def test_dense_numbering_warnings_match_the_per_column_check(tmp_path):
    # the whole-table test warns for exactly the columns that fail Ranking.conforms_to_scheme, in column order
    rng = random.Random(26)
    warned_any = conformed_any = False
    for trial in range(300):
        m, k = rng.randint(1, 8), rng.randint(1, 5)
        top = rng.choice((2, m, m + 2, 2 ** 63 - 1))
        columns = [[rng.randint(1, min(top, m + 3)) if rng.random() < 0.9 else top for _ in range(m)]
                   for _ in range(k)]
        path = write_rows(tmp_path / f"t{trial}.csv",
                          [["country", *(f"c{j}" for j in range(k))],
                           *([f"a{i}", *(column[i] for column in columns)] for i in range(m))])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            alternatives, rankings = load_ranks(path)
        expected = [f"{path}: column c{j} is not densely numbered; keeping ranks as published"
                    for j, column in enumerate(columns)
                    if not Ranking(alternatives, np.array(column, dtype=np.int64)).conforms_to_scheme()]
        assert [str(w.message) for w in caught] == expected
        assert [ranking.rank_vector().tolist() for ranking in rankings.values()] == columns
        warned_any |= bool(expected)
        conformed_any |= len(expected) < k
    assert warned_any and conformed_any


def write_rows(path, rows):
    with path.open("w", encoding="utf-8", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)
    return path


def verdict(load, path):
    """What ``load`` returns for ``path``, or the text of the InputError it raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # mutated columns need not be densely numbered
        try:
            return load(path)
        except InputError as exc:
            return str(exc)


RANK_CELLS = ["", "+3", "-0", "0", "007", "1_0", "\u0661\u0660", "\u00b2", "3.0", "1e3",
              str(2 ** 63 - 1), str(2 ** 63), str(-(2 ** 63) - 1)]
FLOAT_CELLS = ["", "+.5", "-0.0", "0", "007", "1_0.5", "\u0661", "\u00b2", "1e3", "1e400", "nan", "-inf", "0x10"]


def mutated_tables(rng, count, corner, cell, mutations, square=False):
    """``count`` random tables: a header, labelled rows of ``cell(m)`` text (m rows, or one per column if
    ``square``), and 0-3 cells replaced from ``mutations``."""
    for _ in range(count):
        m, k = rng.randint(1, 6), rng.randint(1, 4)
        labels = [f"c{j}" for j in range(k)]
        rows = [[f"c{i}", *(cell(m) for _ in range(k))] for i in range(k if square else m)]
        for _ in range(rng.choice((0, 1, 1, 2, 3))):
            rows[rng.randrange(len(rows))][rng.randint(1, k)] = rng.choice(mutations)
        yield [[corner, *labels], *rows]


def test_whole_table_rank_parsing_matches_the_per_cell_oracle(tmp_path):
    rng = random.Random(27)
    path = tmp_path / "ranks.csv"
    verdicts = {"loaded": 0, "refused": 0}
    for table in mutated_tables(rng, 400, "country", lambda m: str(rng.randint(1, m)), RANK_CELLS):
        write_rows(path, table)
        expected, found = verdict(naive_load_ranks, path), verdict(load_ranks, path)
        if isinstance(expected, str):
            assert found == expected
            verdicts["refused"] += 1
            continue
        labels, ranks = expected
        alternatives, rankings = found
        assert alternatives.items == tuple(labels)
        assert list(rankings) == table[0][1:]
        assert np.array_equal(np.column_stack([r.rank_vector() for r in rankings.values()]), ranks)
        verdicts["loaded"] += 1
    assert min(verdicts.values()) >= 100, verdicts


def test_whole_table_reference_parsing_matches_the_per_cell_oracle(tmp_path):
    rng = random.Random(28)
    path = tmp_path / "table3.csv"
    verdicts = {"loaded": 0, "refused": 0}
    for table in mutated_tables(rng, 400, "", lambda m: f"{rng.uniform(-1, 1):.3f}", FLOAT_CELLS, square=True):
        write_rows(path, table)
        expected, found = verdict(naive_load_reference_matrix, path), verdict(mio._load_reference_matrix, path)
        if isinstance(expected, str):
            assert found == expected
            verdicts["refused"] += 1
            continue
        assert found[0] == expected[0]
        assert found[1].tobytes() == np.array(expected[1]).tobytes()  # bit for bit: -0.0 stays -0.0
        verdicts["loaded"] += 1
    assert min(verdicts.values()) >= 100, verdicts


def test_bundled_tables_never_enter_the_per_cell_scan(monkeypatch, tmp_path):
    def scan(*args):
        raise AssertionError("the whole-table test refused a table")

    monkeypatch.setattr(mio, "_first_bad_cell", scan)
    fixtures = bundled_fixtures_dir()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name in ("table6_criteria.csv", "table6_aggregates.csv"):
            load_ranks(fixtures / name)
    for name in ("table3_taub.csv", "table3_r.csv"):
        mio._load_reference_matrix(fixtures / name)
    with pytest.raises(AssertionError, match="whole-table test refused"):  # a bad cell does reach the scan
        load_ranks(write(tmp_path, "bad.csv", "country,c1\na,x\n"))


def per_cell_matrix_csv(labels, values, fmt):
    """A labelled matrix as ``csv.writer`` writes it cell by cell."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(
        [["", *labels], *([label, *map(fmt, row.tolist())] for label, row in zip(labels, values))])
    return buffer.getvalue()


def test_labelled_matrix_writes_the_bytes_of_the_per_cell_writer(tmp_path, capsys):
    labels = ("a,b", 'say "hi"', " lead", "Côte d'Ivoire", "two\nlines", "cr\rin", "plain")
    rng = np.random.default_rng(27)
    beats = rng.integers(0, 2, (7, 7))
    correlations = rng.choice([0.0, -0.0, 0.5, -0.25, 1.0 / 3.0, -1e-9, 0.125], size=(7, 7))
    correlations[0, :2] = 0.0, -0.0
    fmt = lambda v: f"{v:.{_MEASURE_DECIMALS['tau_b']}f}"  # noqa: E731 - correlate's formatter
    written = []
    for values, cell_fmt in ((beats, str), (correlations, fmt), (np.zeros((0, 0)), str)):
        n = len(values)
        expected = per_cell_matrix_csv(labels[:n], values, cell_fmt)
        path = tmp_path / "matrix.csv"
        mio.write_labeled_matrix(path, labels[:n], values, cell_fmt)
        assert path.read_bytes() == expected.encode("utf-8")
        mio.write_labeled_matrix(None, labels[:n], values, cell_fmt)
        assert capsys.readouterr().out == expected
        written.append(expected)
    assert '"a,b","say ""hi""", lead,' in written[0]
    assert '\n"a,b",0.000,-0.000,' in written[1]
    assert written[2] == '""\n'


def test_weights_roundtrip(tmp_path):
    config = load_weights(bundled_fixtures_dir() / "weights.cfg")
    assert config.names == ("MVApc", "MXpc", "MHVAsh", "MVAsh", "MHXsh", "MXsh", "ImWMVA", "ImWMT")
    assert config.total_weight == 12
    assert dict(config.weights) == {"MVApc": 2, "MXpc": 2, "MHVAsh": 1, "MVAsh": 1,
                                    "MHXsh": 1, "MXsh": 1, "ImWMVA": 2, "ImWMT": 2}

    small = write(tmp_path, "w.cfg", "# comment\none = 1\ntwo = 1\nthree = 1\n")
    assert load_weights(small).total_weight == 3


def test_weights_validation(tmp_path):
    with pytest.raises(InputError, match="positive"):
        load_weights(write(tmp_path, "w0.cfg", "a = 0\n"))
    with pytest.raises(InputError, match="integer"):
        load_weights(write(tmp_path, "w1.cfg", "a = 1.5\n"))
    with pytest.raises(InputError, match="duplicate"):
        load_weights(write(tmp_path, "w2.cfg", "a = 1\na = 2\n"))
    with pytest.raises(InputError, match="no weights"):
        load_weights(write(tmp_path, "w3.cfg", "# nothing\n"))
    assert load_weights(write(tmp_path, "w4.cfg", "a = +3\n")).weights == {"a": 3}


@pytest.mark.parametrize("weight", ["1_0", "\u0661", "0x10"])
def test_weights_reject_non_decimal_text(tmp_path, weight):
    path = write(tmp_path, "w.cfg", f"c1 = 1\nc2 = {weight}\n")
    with pytest.raises(InputError) as excinfo:
        load_weights(path)
    assert str(excinfo.value) == f"{path}: line 2: weight {weight!r} is not an integer"


@pytest.mark.parametrize("line, weights", [
    ("a = 2 # w=3", {"a": 2}),
    ("a=b = 2", {"a=b": 2}),
    ("a = b = 3  # a name may hold ' = '", {"a = b": 3}),
], ids=["equals-in-comment", "equals-in-name", "spaced-equals-in-name"])
def test_weights_split_at_the_first_equals_sign_whose_weight_reads(tmp_path, line, weights):
    assert dict(load_weights(write(tmp_path, "w.cfg", f"{line}\n")).weights) == weights


def test_weight_that_no_equals_sign_reads_is_refused_from_the_first(tmp_path):
    path = write(tmp_path, "w.cfg", "c = 1\na=b = 1_0\n")
    with pytest.raises(InputError) as excinfo:
        load_weights(path)
    assert str(excinfo.value) == f"{path}: line 2: weight 'b = 1_0' is not an integer"


def test_weights_total_is_bounded(tmp_path):
    path = write(tmp_path, "w.cfg", f"# huge\na = {2 ** 62}\nb = {2 ** 62 - 1}\nc = 1\n")
    with pytest.raises(InputError) as excinfo:
        load_weights(path)
    assert str(excinfo.value) == f"{path}: line 4: total weight {2 ** 63} exceeds {2 ** 63 - 1}"
    assert load_weights(write(tmp_path, "w1.cfg", f"a = {2 ** 62}\nb = {2 ** 62 - 1}\n")).total_weight == 2 ** 63 - 1


def test_build_profile_requires_weights(tmp_path):
    path = write(tmp_path, "ranks.csv", "country,c1,c2\na,1,2\nb,2,1\n")
    alternatives, rankings = load_ranks(path)
    weights = load_weights(write(tmp_path, "w.cfg", "c1 = 2\n"))
    with pytest.raises(InputError, match="c2"):
        build_profile(alternatives, rankings, weights)
    weights = load_weights(write(tmp_path, "w2.cfg", "c1 = 2\nc2 = 1\nunused = 9\n"))
    profile = build_profile(alternatives, rankings, weights)
    assert profile.total_weight == 3  # unused entries are ignored


def test_ranking_roundtrip(tmp_path):
    names = AlternativeSet(("a", "b", "c"))
    ranking = Ranking(names, {"a": 1, "b": 1, "c": 2})
    path = tmp_path / "out.csv"
    save_ranking(path, ranking)
    _, loaded = load_ranks(path)
    assert loaded["rank"].ranks == dict(ranking.ranks)


def test_reproduce_passes_on_bundled_fixtures():
    report = run_reproduce()
    assert report.passed
    text = report.format_text()
    assert "overall: PASS" in text
    assert "FAIL" not in text.replace("PASS/FAIL", "")


def test_reproduce_takes_one_census(monkeypatch):
    # one census of the 15 candidates and the six published aggregate columns serves every correlation
    # check and both meta-comparisons, whose eight criteria are its first columns
    sizes = []
    census = correlation._census

    def counted(names, rankings):
        sizes.append(len(names))
        return census(names, rankings)

    monkeypatch.setattr(correlation, "_census", counted)
    monkeypatch.setattr(mio, "_census", counted)
    assert run_reproduce().passed
    assert sizes == [21]


def test_reproduce_missing_fixture_dir(tmp_path):
    with pytest.raises(InputError):
        run_reproduce(tmp_path / "nowhere")
    (tmp_path / "partial").mkdir()
    with pytest.raises(InputError, match="missing fixture"):
        run_reproduce(tmp_path / "partial")


def test_reproduce_flags_perturbed_fixture(tmp_path):
    import csv
    import shutil

    fixtures = tmp_path / "fixtures"
    shutil.copytree(bundled_fixtures_dir(), fixtures)
    path = fixtures / "table6_aggregates.csv"
    with path.open(encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    header, data = rows[0], rows[1:]
    cip_column = header.index("CIP")
    data[0][cip_column] = "120"  # push the top CIP country far down
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerows([header, *data])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # perturbation breaks dense numbering
        report = run_reproduce(fixtures)
    assert not report.passed
    failing = [check.name for check in report.checks if not check.passed]
    assert any("full matrix" in name for name in failing)


INDICATOR_HEADER = "country,MVApc,MXpc,MHVAsh,MVAsh,MHXsh,MXsh,ImWMVA,ImWMT\n"


@pytest.mark.parametrize("rows, problem", [
    ("A,1,1,0.1,0.1,0.1,0.1,-0.5,0.1\n", "ImWMVA -0.5 is negative (row 2, col ImWMVA)"),
    ("A,1,1,0.1,0.1,0.1,0.1,nan,0.1\n", "'nan' is not a finite number (row 2, col ImWMVA)"),
    ("A,1,1,0.1,0.1,0.1,0.1,1_0.5,0.1\n", "'1_0.5' is not a finite number (row 2, col ImWMVA)"),
    ("A,1,1,0.1,0.1,0.1,0.1,0.1,\u0661\n", "'\u0661' is not a finite number (row 2, col ImWMT)"),
    ("A,1,1,0.1,0.1,0.1,0.1,0.1,0.1\n,1,1,0.1,0.1,0.1,0.1,0.1,0.1\n", "empty country name (row 3, col country)"),
    ("A,1,1,0.1,0.1,0.1,0.1,0.1,0.1\nA,2,1,0.1,0.1,0.1,0.1,0.1,0.1\n", "duplicate country 'A' (row 3, col country)"),
    ("A,1,1,0.1,0.1,0.1,0.1,0.1\n", "row 2 has 8 cells, expected 9 (row 2, col ImWMT)"),
], ids=["negative", "nan", "underscore", "non-ascii-digit", "empty-country", "duplicate-country", "short-row"])
def test_indicator_errors_name_file_row_and_column(tmp_path, rows, problem):
    path = write(tmp_path, "indicators.csv", INDICATOR_HEADER + rows)
    with pytest.raises(InputError) as excinfo:
        load_indicators(path)
    assert str(excinfo.value) == f"{path}: {problem}"


@pytest.mark.parametrize("name, text, load, problem", [
    ("ranks.csv", "country,c1\n", load_ranks, "no data rows"),
    ("ranks.csv", "country\na\nb\n", load_ranks, "need a country column plus at least one ranking column"),
    ("weights.cfg", " = 1\n", load_weights, "line 1: empty criterion name"),
    ("table1_cycles.csv", "k,cycles,extra\n3,1,1\n", mio._load_reference_cycles,
     "header must have 2 columns (k, cycles), got 3"),
    ("table5_meta.csv", "ranking,tau_b_rank,r_rank\nA,1,1\n", mio._load_reference_meta,
     "header must be ranking,tau_b_rank,r_rank,data_column"),
], ids=["header-only", "country-column-only", "empty-criterion-name", "cycles-header-width", "meta-header"])
def test_loaders_reject_tables_without_the_columns_or_rows_they_need(tmp_path, name, text, load, problem):
    path = write(tmp_path, name, text)
    with pytest.raises(InputError) as excinfo:
        load(path)
    assert str(excinfo.value) == f"{path}: {problem}"


BYTE_ORDER_MARK = "\ufeff".encode()


@pytest.mark.parametrize("load, text", [
    (load_weights, (bundled_fixtures_dir() / "weights.cfg").read_bytes()),
    (load_ranks, (bundled_fixtures_dir() / "table6_criteria.csv").read_bytes()),
    (load_indicators, (INDICATOR_HEADER + "A,1,1,0.1,0.1,0.1,0.1,0.1,0.1\n").encode()),
    (mio._load_reference_meta, (bundled_fixtures_dir() / "table5_meta.csv").read_bytes()),
], ids=["weights", "ranks", "indicators", "meta"])
def test_files_saved_with_a_byte_order_mark_load_as_without_it(tmp_path, load, text):
    # editors save "UTF-8 with BOM" files; the mark is no part of the first name, header or label
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_bytes(text)
    marked.write_bytes(BYTE_ORDER_MARK + text)
    assert load(marked) == load(plain)


def test_reproduce_reads_a_meta_table_saved_with_a_byte_order_mark(tmp_path):
    fixtures = tmp_path / "fixtures"
    shutil.copytree(bundled_fixtures_dir(), fixtures)
    meta = fixtures / "table5_meta.csv"
    meta.write_bytes(BYTE_ORDER_MARK + meta.read_bytes())
    assert run_reproduce(fixtures).checks == run_reproduce().checks


def test_bad_byte_behind_a_byte_order_mark_is_named_on_its_line(tmp_path):
    # the bad byte starts line 2; the error names that line, as without the mark, and the byte's offset in the
    # file, which counts the mark's 3 bytes (decoding with 'utf-8-sig' would name byte 6 on line 1)
    text = b"a = 1\n\xff = 2\n"
    errors = []
    for name, data in (("plain.cfg", text), ("marked.cfg", BYTE_ORDER_MARK + text)):
        path = tmp_path / name
        path.write_bytes(data)
        with pytest.raises(InputError) as excinfo:
            load_weights(path)
        errors.append(str(excinfo.value).removeprefix(f"{path}: "))
    assert errors == ["line 2 is not UTF-8 text (byte 6: invalid start byte)",
                      "line 2 is not UTF-8 text (byte 9: invalid start byte)"]
