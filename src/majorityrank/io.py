"""Data ingestion, bundled case-study fixtures, and the reproduction pipeline.

The bundled dataset is the 2010 Competitive Industrial Performance study:
ranks of 135 countries under eight UNIDO indicators (``table6_criteria``),
the published aggregate rankings (``table6_aggregates``), the published
cycle counts, correlation tables and meta-rankings used as regression
references, and the canonical criterion vote weights.

``AGGREGATES`` is the one table of aggregation methods: the ``rank``
command offers its keys, and ``run_reproduce`` checks the methods that
have a published column against ``table6_aggregates``.

All tabular data is CSV with a header row, UTF-8, and this module owns
that boundary.  Loaders reject incomplete or malformed rows with
row/column coordinates; they never impute.  The numbers of a ranks table
or a reference matrix are parsed and tested as one table (``_cell_table``),
and a labelled matrix is written from one text per distinct value
(``write_labeled_matrix``): neither runs Python per cell, except to name
the first bad cell of a refused table.  No table may repeat a header
cell (``_unique_header``), every labelled table's row labels pass
``_row_labels``, every second ranks table must list the criteria table's
countries in order (``load_aligned_ranks``), and every command writes its
tables through ``write_table``, or ``write_labeled_matrix``, which writes
the bytes ``write_table`` would.
"""

from __future__ import annotations

import csv
import math
import re
import sys
import time
import warnings
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from importlib import resources
from io import StringIO
from pathlib import Path
from types import MappingProxyType, SimpleNamespace
from typing import NoReturn, TextIO

import numpy as np

from .cip import INDICATORS, IndicatorRecord, cip_index
from .copeland import copeland_ranking
from .core import DENSE, MAX_RANK, MAX_TOTAL_WEIGHT, AlternativeSet, Criterion, Profile, Ranking
from .correlation import COINCIDING, TAU_B, _census
from .errors import DegenerateRankingError, InputError
from .majority import _CYCLE_LENGTHS, build_majority, cycle_counts
from .markovian import markovian_ranking
from .metarank import MetaComparison, closest_weak_order, optimal_order_count
from .solutions import MES, UC, WTC, sort_by_solution

FIXTURE_FILES = (
    "table6_criteria.csv",
    "table6_aggregates.csv",
    "table1_cycles.csv",
    "table3_taub.csv",
    "table3_r.csv",
    "table5_meta.csv",
    "weights.cfg",
)

# rank method -> (published column or None, (majority structure, scheme) -> ranking); the
# callables name their functions through this module's globals, so a rebinding reaches them
AGGREGATES = {
    "copeland1": ("Copeland1", lambda structure, scheme: copeland_ranking(structure, 1, scheme=scheme)),
    "copeland2": ("Copeland2", lambda structure, scheme: copeland_ranking(structure, 2, scheme=scheme)),
    "copeland3": ("Copeland3", lambda structure, scheme: copeland_ranking(structure, 3, scheme=scheme)),
    "uc-sort": ("UC", lambda structure, scheme: sort_by_solution(structure, UC).ranking(scheme=scheme)),
    "mes-sort": ("MES", lambda structure, scheme: sort_by_solution(structure, MES).ranking(scheme=scheme)),
    "wtc-sort": (None, lambda structure, scheme: sort_by_solution(structure, WTC).ranking(scheme=scheme)),
    "markovian": ("Markovian", lambda structure, scheme: markovian_ranking(structure, scheme=scheme)),
}
AGGREGATE_METHODS = tuple(column for column, _ in AGGREGATES.values() if column)


def bundled_fixtures_dir() -> Path:
    """Directory holding the packaged case-study tables."""
    return Path(resources.files("majorityrank") / "data")


def _read_text(path: Path) -> str:
    """The whole file decoded as UTF-8, less one leading byte-order mark, or an InputError naming the line that is not."""
    data = path.read_bytes()
    try:
        return data.decode("utf-8").removeprefix("\ufeff")  # 'utf-8-sig' would report a bad byte 3 bytes early
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise InputError(f"{path}: line {line} is not UTF-8 text (byte {exc.start}: {exc.reason})") from None


def load_ranks(path: str | Path) -> tuple[AlternativeSet, dict[str, Ranking]]:
    """Load a ranks table: one row per country, one column per ranking.

    Every cell must be a decimal integer in 1..2**63 - 1; the first column holds the
    country names.  The cells are parsed and tested as one table
    (``_cell_table``); an error names the first bad cell in row order.
    Dense numbering of each column is checked advisorily (a warning, not an
    error), since published tables keep their own rank labels, and for the
    whole table at once: a column is dense iff its sorted ranks start at 1
    and step by 0 or 1.
    """
    path = Path(path)
    header, rows = _read_simple_csv(path)
    if len(header) < 2:
        raise InputError(f"{path}: need a country column plus at least one ranking column")
    columns = header[1:]
    alternatives = AlternativeSet(_row_labels(path, header, rows))
    table = _cell_table(path, columns, rows, int)
    ordered = np.sort(table, axis=0)
    dense = (ordered[0] == 1) & (np.diff(ordered, axis=0) <= 1).all(axis=0)
    rankings: dict[str, Ranking] = {}
    for column, ranks, conforms in zip(columns, table.T, dense):
        rankings[column] = Ranking(alternatives, ranks)
        if not conforms:
            warnings.warn(f"{path}: column {column} is not densely numbered; keeping ranks as published")
    return alternatives, rankings


@dataclass(frozen=True)
class WeightsConfig:
    """Criterion vote weights in canonical order."""

    names: tuple[str, ...]
    weights: Mapping[str, int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", MappingProxyType(dict(self.weights)))

    @property
    def total_weight(self) -> int:
        return sum(self.weights.values())


def load_weights(path: str | Path) -> WeightsConfig:
    """Parse a ``name = weight`` config file.

    A line whose first non-blank character is '#' is a comment, and so is a '#' and what follows it in a
    weight.  A weight is ASCII text without '_' (so an optional sign and digits), and the weights may total at
    most ``MAX_TOTAL_WEIGHT``.  A criterion name may contain '#' and '=': a line splits at the first '=' whose
    right-hand side, cut at its first '#', is a weight, else at its first '=' (and its weight is refused).
    """
    path = Path(path)
    weights: dict[str, int] = {}
    total = 0
    for line_number, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        cuts = [(line[:k].strip(), line[k + 1:].split("#", 1)[0].strip()) for k, c in enumerate(line) if c == "="]
        if not cuts:
            raise InputError(f"{path}: line {line_number}: expected 'name = weight'")
        weighed = [cut for cut in cuts if re.fullmatch("[+-]?[0-9]+", cut[1])]  # int() also reads '1_0' and non-ASCII digits
        name, value = (weighed or cuts)[0]
        if not name:
            raise InputError(f"{path}: line {line_number}: empty criterion name")
        if name in weights:
            raise InputError(f"{path}: line {line_number}: duplicate criterion {name!r}")
        if not weighed:
            raise InputError(f"{path}: line {line_number}: weight {value!r} is not an integer")
        weight = int(value)
        if weight < 1:
            raise InputError(f"{path}: line {line_number}: weight must be positive, got {weight}")
        total += weight
        if total > MAX_TOTAL_WEIGHT:
            raise InputError(f"{path}: line {line_number}: total weight {total} exceeds {MAX_TOTAL_WEIGHT}")
        weights[name] = weight
    if not weights:
        raise InputError(f"{path}: no weights found")
    return WeightsConfig(names=tuple(weights), weights=weights)


def build_profile(
    alternatives: AlternativeSet,
    rankings: Mapping[str, Ranking],
    weights: WeightsConfig,
) -> Profile:
    """Turn loaded ranking columns into a weighted profile (table column order).

    Every column needs a weight; config entries without a matching column
    are ignored, so one weights file can serve several tables.
    """
    criteria = []
    for name, ranking in rankings.items():
        if name not in weights.weights:
            raise InputError(f"no weight configured for criterion {name!r}")
        criteria.append(Criterion(name=name, weight=weights.weights[name], ranking=ranking))
    return Profile(alternatives, criteria)


def load_profile(
    ranks_csv: str | Path, weights_path: str | Path | None = None
) -> tuple[AlternativeSet, dict[str, Ranking], Profile]:
    """A ranks table, its columns and their profile under ``weights_path`` (default: the bundled study weights)."""
    alternatives, rankings = load_ranks(ranks_csv)
    weights_path = weights_path or bundled_fixtures_dir() / "weights.cfg"
    weights = load_weights(weights_path)
    for name in rankings:
        if name not in weights.weights:
            raise InputError(f"{weights_path}: no weight configured for criterion {name!r} of {ranks_csv} (row 1, col {name})")
    return alternatives, rankings, build_profile(alternatives, rankings, weights)


def load_aligned_ranks(path: str | Path, reference: str | Path, alternatives: AlternativeSet) -> dict[str, Ranking]:
    """The columns of a second ranks table, which must list ``reference``'s countries in the same order."""
    path = Path(path)
    found, rankings = load_ranks(path)
    _check_labels(path, f"countries differ from {reference}", found, alternatives)
    if found.items != alternatives.items:
        raise InputError(f"{path}: countries are listed in a different order from {reference}")
    return rankings


def _write_text(destination: str | Path | TextIO | None, text: str) -> None:
    """Write ``text`` to stdout (``None`` or ``-``), an open handle, or a path opened and closed here."""
    if destination is None or destination == "-":
        sys.stdout.write(text)
    elif isinstance(destination, (str, Path)):
        with Path(destination).open("w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        destination.write(text)


def _csv_lines(rows: Iterable[Iterable]) -> list[str]:
    """Each row as one line of ``csv.writer`` text, quoted where the writer quotes, ending in a newline."""
    lines: list[str] = []
    csv.writer(SimpleNamespace(write=lines.append), lineterminator="\n").writerows(rows)  # one write per row
    return lines


def write_table(destination: str | Path | TextIO | None, header: Iterable, rows: Iterable[Iterable]) -> None:
    """Write a header and rows as CSV to stdout (``None`` or ``-``), an open handle, or a path opened and closed here."""
    _write_text(destination, "".join(_csv_lines([header, *rows])))


def save_ranking(destination: str | Path | TextIO | None, ranking: Ranking) -> None:
    """Write a ranking as a ``country,rank`` CSV in alternative-set order."""
    write_table(destination, ["country", "rank"], ranking.ranks.items())


def write_labeled_matrix(destination: str | Path | TextIO | None, labels: tuple[str, ...], values: np.ndarray,
                         fmt=str) -> None:
    """Write a labelled square numpy matrix as CSV (first column and row carry labels).

    The bytes are those ``write_table`` writes for the rows ``[label, *map(fmt, row.tolist())]``,
    without per-cell Python: only the header and the row labels go through ``csv.writer``,
    which quotes them.  ``fmt`` is called once per distinct value, told apart by its bits (so
    0.0 and -0.0 keep their own texts), and must return text CSV leaves unquoted, such as a
    number; each row is one join of those texts.
    """
    bits, cells = np.unique(values.view(f"u{values.itemsize}"), return_inverse=True)
    texts = np.array([fmt(value) for value in bits.view(values.dtype).tolist()], dtype=object)
    header, *labelled = _csv_lines([["", *labels], *([label, ""] for label in labels)])  # "label,\n" each
    body = texts[cells.reshape(values.shape)].tolist()
    _write_text(destination, header + "".join(line[:-1] + ",".join(row) + "\n" for line, row in zip(labelled, body)))


def load_indicators(path: str | Path) -> list[IndicatorRecord]:
    """Load raw indicator values (country column plus the eight finite, non-negative UNIDO variables)."""
    path = Path(path)
    header, rows = _read_simple_csv(path)
    missing = [c for c in ("country", *INDICATORS) if c not in header]
    if missing:
        raise InputError(f"{path}: missing columns {missing} (row 1, col {missing[0]})")
    countries = _row_labels(path, header, rows, header.index("country"))
    records = []
    for (row_number, row), country in zip(rows, countries):
        cells = dict(zip(header, row))
        values = {name: _parse_cell(path, row_number, name, cells[name], float) for name in INDICATORS}
        for name, value in values.items():
            if value < 0:
                raise InputError(f"{path}: {name} {value} is negative (row {row_number}, col {name})")
        records.append(IndicatorRecord(country=country, **values))
        index = cip_index(records[-1])
        if not math.isfinite(index):
            raise InputError(f"{path}: the CIP index of {country!r} is not finite: {index!r} (row {row_number})")
    return records


def _row_labels(path: Path, header: list[str], rows: list[tuple[int, list[str]]], index: int = 0) -> list[str]:
    """Column ``index`` of numbered rows: each label non-empty and unique, each header cell unique, or an InputError."""
    if not rows:
        raise InputError(f"{path}: no data rows")
    column = header[index]
    noun = column or "label"  # a matrix written by write_labeled_matrix leaves its corner cell empty
    seen: set[str] = set()
    for row_number, row in rows:
        label = row[index]
        if not label:
            raise InputError(f"{path}: empty {noun} name (row {row_number}, col {column})")
        if label in seen:
            raise InputError(f"{path}: duplicate {noun} {label!r} (row {row_number}, col {column})")
        seen.add(label)
    _unique_header(path, header)
    return [row[index] for _, row in rows]


def _unique_header(path: Path, header: list[str]) -> None:
    """An InputError at the first header cell that repeats an earlier one."""
    if len(set(header)) < len(header):
        repeated = next(cell for k, cell in enumerate(header) if cell in header[:k])
        raise InputError(f"{path}: duplicate column {repeated!r} (row 1, col {repeated})")


# ---------------------------------------------------------------------------
# reproduction of the bundled case study


@dataclass(frozen=True)
class CheckResult:
    name: str
    expected: str
    computed: str
    deviation: str
    passed: bool


@dataclass(frozen=True)
class ReproReport:
    checks: tuple[CheckResult, ...]
    elapsed_seconds: float = 0.0
    notes: tuple[str, ...] = field(default=())

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def format_text(self) -> str:
        lines = []
        for check in self.checks:
            status = "PASS" if check.passed else "FAIL"
            lines.append(
                f"{status}  {check.name:<44} expected={check.expected:<28} "
                f"computed={check.computed:<28} deviation={check.deviation}"
            )
        for note in self.notes:
            lines.append(f"note: {note}")
        good = sum(1 for check in self.checks if check.passed)
        overall = "PASS" if self.passed else "FAIL"
        lines.append(f"overall: {overall} ({good}/{len(self.checks)} checks, {self.elapsed_seconds:.2f}s)")
        return "\n".join(lines)


def _count_check(name: str, expected: int, computed: int, slack: int = 0) -> CheckResult:
    """An integer within ``slack`` of its reference."""
    deviation = abs(computed - expected)
    return CheckResult(name, str(expected), str(computed), str(deviation), deviation <= slack)


def _bound_check(name: str, computed: float, expected: str) -> CheckResult:
    """A value inside its printed bound ``>=b`` or ``<=b``; the deviation is how far past ``b`` it lies."""
    bound = float(expected[2:])
    excess = bound - computed if expected.startswith(">=") else computed - bound
    return CheckResult(name, expected, f"{computed:.6f}", f"{max(0.0, excess):.6f}", excess <= 0)


def _fixture(fixtures_dir: Path, filename: str) -> Path:
    path = fixtures_dir / filename
    if not path.is_file():
        raise InputError(f"missing fixture {path}")
    return path


def _read_simple_csv(path: Path) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """Stripped header and numbered non-blank rows (the header is row 1), each as wide as the header."""
    stripped = ([cell.strip() for cell in row] for row in csv.reader(StringIO(_read_text(path), newline="")))
    numbered = [(number, row) for number, row in enumerate(stripped, start=1) if any(row)]
    if not numbered:
        raise InputError(f"{path}: empty file, no header (row 1)")
    (_, header), rows = numbered[0], numbered[1:]
    for row_number, row in rows:
        if len(row) != len(header):
            column = header[len(row)] if len(row) < len(header) else f"#{len(header) + 1}"
            raise InputError(f"{path}: row {row_number} has {len(row)} cells, expected {len(header)}"
                             f" (row {row_number}, col {column})")
    return header, rows


def _cell_table(path: Path, columns: list[str], rows: list[tuple[int, list[str]]],
                kind: type[int] | type[float]) -> np.ndarray:
    """The cells right of each row's label as one array: int64 ranks in 1..``MAX_RANK``, or finite float64 numbers.

    One map of ``kind`` over every cell and one test of the whole table decide
    validity: the text is ASCII without '_', every cell converts, and the values
    fit int64 and are at least 1 (int) or are finite (float).  These are the
    per-cell rules of ``_first_bad_cell``, which runs only on a refused table,
    to name the cell at fault.
    """
    cells = [cell for _, row in rows for cell in row[1:]]
    text = "".join(cells)
    if text.isascii() and "_" not in text:  # int() and float() also read '1_0' and non-ASCII digits
        try:
            table = np.array(list(map(kind, cells)), dtype=np.int64 if kind is int else np.float64)
        except (ValueError, OverflowError):  # a cell is not a number, or an integer is outside int64
            pass
        else:
            valid = table.min() >= 1 if kind is int else np.isfinite(table).all()
            if valid:
                return table.reshape(len(rows), len(columns))
    _first_bad_cell(path, columns, rows, kind)


def _first_bad_cell(path: Path, columns: list[str], rows: list[tuple[int, list[str]]],
                    kind: type[int] | type[float]) -> NoReturn:
    """Raise the InputError of the first cell, row by row, that the per-cell rules refuse.

    Only ``_cell_table`` calls this, once its whole-table test has failed; the
    scan locates the error and never decides validity.
    """
    for row_number, row in rows:
        for column, text in zip(columns, row[1:]):
            if kind is float:
                _parse_cell(path, row_number, column, text, float)
                continue
            if not text:
                raise InputError(f"{path}: missing rank (row {row_number}, col {column})")
            value = _parse_cell(path, row_number, column, text, int)
            if value < 1:
                raise InputError(f"{path}: rank {value} is not positive (row {row_number}, col {column})")
            if value > MAX_RANK:
                raise InputError(f"{path}: rank {value} is above {MAX_RANK} (row {row_number}, col {column})")
    raise RuntimeError(f"{path}: the whole-table test refused a table whose every cell passes the per-cell rules")


def _parse_cell(path: Path, row_number: int, column: str, text: str, kind: type[int] | type[float]) -> int | float:
    """One finite integer or float cell, or an InputError naming where it sits.

    Only ASCII text without '_' is read, so neither digit-group underscores
    nor non-ASCII digits, which int() and float() accept, pass as numbers.
    """
    try:
        value = kind(text)
        if text.isascii() and "_" not in text and (kind is int or math.isfinite(value)):
            return value
    except ValueError:
        pass
    noun = "an integer" if kind is int else "a finite number"
    raise InputError(f"{path}: {text!r} is not {noun} (row {row_number}, col {column})")


def _load_reference_cycles(path: Path) -> dict[int, int]:
    """Published cycle counts by length, one row for each of ``_CYCLE_LENGTHS``."""
    header, rows = _read_simple_csv(path)
    if len(header) != 2:
        raise InputError(f"{path}: header must have 2 columns (k, cycles), got {len(header)}")
    _unique_header(path, header)
    cycles: dict[int, int] = {}
    for number, row in rows:
        k, count = (_parse_cell(path, number, column, text, int) for column, text in zip(header, row))
        if k not in _CYCLE_LENGTHS:
            raise InputError(f"{path}: cycle length {k} is not one of {_CYCLE_LENGTHS} (row {number}, col {header[0]})")
        if k in cycles:
            raise InputError(f"{path}: cycle length {k} is given twice (row {number}, col {header[0]})")
        cycles[k] = count
    missing = [k for k in _CYCLE_LENGTHS if k not in cycles]
    if missing:
        raise InputError(f"{path}: no count for cycle lengths {missing}")
    return cycles


def _load_reference_matrix(path: Path) -> tuple[list[str], np.ndarray]:
    """A published correlation table: its labels, and its finite values parsed as one table (``_cell_table``)."""
    header, rows = _read_simple_csv(path)
    labels = header[1:]
    if _row_labels(path, header, rows) != labels:
        raise InputError(f"{path}: row labels must match column labels")
    return labels, _cell_table(path, labels, rows, float)


META_COLUMNS = ("ranking", "tau_b_rank", "r_rank", "data_column")


def _load_reference_meta(path: Path) -> dict[str, tuple[int, int, str]]:
    """Published meta-ranks by row label: (tau-b rank, coinciding rank, data column).

    ``data_column`` names the candidate whose ranks a row actually holds.
    It must be a permutation of the row labels, so that every candidate's
    expectation comes from exactly one row.
    """
    header, rows = _read_simple_csv(path)
    if tuple(header) != META_COLUMNS:
        raise InputError(f"{path}: header must be {','.join(META_COLUMNS)}")
    _row_labels(path, header, rows)
    meta: dict[str, tuple[int, int, str]] = {}
    data_rows: dict[str, int] = {}
    for row_number, row in rows:
        label, tau_text, r_text, data = row
        ranks = [_parse_cell(path, row_number, column, text, int)
                 for column, text in zip(META_COLUMNS[1:3], (tau_text, r_text))]
        if data in data_rows:
            raise InputError(
                f"{path}: data_column {data!r} already names row {data_rows[data]} (row {row_number}, col data_column)"
            )
        data_rows[data] = row_number
        meta[label] = (ranks[0], ranks[1], data)
    for data, row_number in data_rows.items():
        if data not in meta:
            raise InputError(f"{path}: data_column {data!r} is not a ranking of this table (row {row_number}, col data_column)")
    return meta


def _check_labels(path: Path, what: str, found: Iterable[str], expected: Iterable[str]) -> None:
    """InputError naming ``path`` and the labels missing from or extra to ``found``."""
    missing = sorted(set(expected) - set(found))
    extra = sorted(set(found) - set(expected))
    if missing or extra:
        raise InputError(f"{path}: {what}: missing {missing}, extra {extra}")


def run_reproduce(fixtures_dir: str | Path | None = None) -> ReproReport:
    """Recompute the full case study and diff it against the bundled references.

    Pipeline: majority structure -> cycle counts -> six aggregate rankings
    -> full correlation matrices -> meta-rankings, each compared against
    its reference table at the documented tolerance.
    """
    started = time.perf_counter()
    fixtures = Path(fixtures_dir) if fixtures_dir is not None else bundled_fixtures_dir()
    if not fixtures.is_dir():
        raise InputError(f"fixture directory {fixtures} does not exist")

    criteria_path = _fixture(fixtures, "table6_criteria.csv")
    alternatives, criteria_rankings, profile = load_profile(criteria_path, _fixture(fixtures, "weights.cfg"))
    # every reference is read and validated before any computation
    reference_cycles = _load_reference_cycles(_fixture(fixtures, "table1_cycles.csv"))
    aggregates_path = _fixture(fixtures, "table6_aggregates.csv")
    published_aggregates = load_aligned_ranks(aggregates_path, criteria_path, alternatives)
    # refuse, led by its file, a criterion or published column the checks read that is missing or ties every row
    aggregates = {name: published_aggregates.get(name) for name in ("CIP", *AGGREGATE_METHODS)}
    for path, columns in ((criteria_path, criteria_rankings), (aggregates_path, aggregates)):
        for name, ranking in columns.items():
            if ranking is None:
                raise InputError(f"{path}: no {name} column (row 1)")
            if ranking.distinct_positions() == 1 < len(alternatives):
                raise DegenerateRankingError(f"{path}: tau-b is undefined: column {name!r} ties every row (col {name})",
                                             name)
    candidate_names = {*criteria_rankings, "CIP", *AGGREGATE_METHODS}
    reference_matrices = {}
    for measure, filename in ((TAU_B, "table3_taub.csv"), (COINCIDING, "table3_r.csv")):
        path = _fixture(fixtures, filename)
        reference_matrices[measure] = _load_reference_matrix(path)
        _check_labels(path, "labels do not match the candidate set", reference_matrices[measure][0], candidate_names)
    meta_path = _fixture(fixtures, "table5_meta.csv")
    reference_meta = _load_reference_meta(meta_path)
    _check_labels(meta_path, "rankings do not match the candidate set", reference_meta, candidate_names)

    structure = build_majority(profile)

    # cycle counts are exact references
    counts = cycle_counts(structure)
    checks = [_count_check(f"cycle count k={k}", expected, counts[k]) for k, expected in reference_cycles.items()]

    # aggregate rankings against the published columns; one census of the candidates, then the published
    # aggregate columns, serves every correlation check and both meta-comparisons
    computed_aggregates = {column: rank(structure, DENSE) for column, rank in AGGREGATES.values() if column}
    candidates: dict[str, Ranking] = {**criteria_rankings, "CIP": published_aggregates["CIP"], **computed_aggregates}
    names = [*candidates, *AGGREGATE_METHODS]
    census = _census(names, [*candidates.values(), *(published_aggregates[name] for name in AGGREGATE_METHODS)])
    values = {measure: census.values(measure) for measure in (TAU_B, COINCIDING)}
    for column, (name, computed) in enumerate(computed_aggregates.items(), start=len(candidates)):
        published = published_aggregates[name]
        tau = float(values[TAU_B][names.index(name), column])
        checks.append(_bound_check(f"{name} vs published (tau-b >= 0.99)", tau, ">=0.990"))
        checks.append(_count_check(f"{name} distinct positions (+/-2)", published.distinct_positions(),
                                   computed.distinct_positions(), slack=2))
        published_top = {c for c in alternatives if published.ranks[c] == 1}
        computed_top = {c for c in alternatives if computed.ranks[c] == 1}
        checks.append(CheckResult(
            name=f"{name} top-ranked countries",
            expected=",".join(sorted(published_top)), computed=",".join(sorted(computed_top)),
            deviation="0" if computed_top == published_top else "set differs",
            passed=computed_top == published_top,
        ))

    # correlation matrices: criteria block at the tight tolerance, full matrix looser
    n_criteria = len(criteria_rankings)
    for measure, (tight, loose) in ((TAU_B, (0.001, 0.005)), (COINCIDING, (0.01, 0.05))):
        labels, reference = reference_matrices[measure]
        index = [names.index(label) for label in labels]
        deviation = np.abs(values[measure][index][:, index] - reference)
        checks.append(_bound_check(f"{measure} criteria block (+/-{tight})",
                                   float(deviation[:n_criteria, :n_criteria].max()), f"<={tight}"))
        checks.append(_bound_check(f"{measure} full matrix (+/-{loose})", float(deviation.max()), f"<={loose}"))

    # meta-rankings against the published weak orders
    notes = []
    if any(label != data for label, (_, _, data) in reference_meta.items()):
        notes.append(
            "table5_meta.csv: the published comparison listed the six paired single-factor "
            "candidates under rotated labels; data_column records the candidate each row's "
            "ranks actually belong to, and the checks compare through that mapping."
        )
    n, weights = len(candidates), [criterion.weight for criterion in profile.criteria]  # the criteria lead the census
    for measure, pick in ((TAU_B, 0), (COINCIDING, 1)):
        comparison = MetaComparison(census.names[:n], census.wins(n, slice(n_criteria), weights, measure), measure)
        weak_order = closest_weak_order(comparison)
        expected_map = {data_column: ranks[pick] for *ranks, data_column in reference_meta.values()}
        computed_map = {name: weak_order.ranks[name] for name in weak_order.alternatives}
        mismatches = sorted(name for name in expected_map if expected_map[name] != computed_map[name])
        checks.append(CheckResult(
            name=f"meta-ranking {measure} (published, label-corrected)",
            expected="0 mismatches", computed=f"{len(mismatches)} mismatches",
            deviation=",".join(mismatches) if mismatches else "0",
            passed=not mismatches,
        ))
        if measure == COINCIDING:
            checks.append(_count_check("optimal linear orders (coinciding)", 6, optimal_order_count(comparison)))

    return ReproReport(checks=tuple(checks), elapsed_seconds=time.perf_counter() - started, notes=tuple(notes))
