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
row/column coordinates; they never impute.  Every labelled table's row
labels and header cells pass ``_row_labels``, every second ranks table
must list the criteria table's countries in order
(``load_aligned_ranks``), and every command writes its tables through
``write_table``.
"""

from __future__ import annotations

import csv
import math
import sys
import time
import warnings
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from importlib import resources
from io import StringIO
from pathlib import Path
from types import MappingProxyType
from typing import TextIO

import numpy as np

from .cip import INDICATORS, IndicatorRecord
from .copeland import copeland_ranking
from .core import DENSE, MAX_RANK, MAX_TOTAL_WEIGHT, AlternativeSet, Criterion, Profile, Ranking
from .correlation import COINCIDING, TAU_B, correlation_matrix, kendall_tau_b
from .errors import InputError
from .majority import _CYCLE_LENGTHS, build_majority, cycle_counts
from .markovian import markovian_ranking
from .metarank import closest_weak_order, optimal_order_count, rankings_majority
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
    """The whole file decoded as UTF-8, or an InputError naming the line that is not."""
    data = path.read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise InputError(f"{path}: line {line} is not UTF-8 text (byte {exc.start}: {exc.reason})") from None


def load_ranks(path: str | Path) -> tuple[AlternativeSet, dict[str, Ranking]]:
    """Load a ranks table: one row per country, one column per ranking.

    Every cell must be a decimal integer in 1..2**63 - 1; the first column holds the
    country names.  Dense numbering of each column is checked advisorily
    (a warning, not an error), since published tables keep their own rank
    labels.
    """
    path = Path(path)
    header, rows = _read_simple_csv(path)
    if len(header) < 2:
        raise InputError(f"{path}: need a country column plus at least one ranking column")
    columns = header[1:]
    countries = _row_labels(path, header, rows)
    ranks: dict[str, dict[str, int]] = {name: {} for name in columns}
    for (row_number, row), country in zip(rows, countries):
        for column, text in zip(columns, row[1:]):
            if not text:
                raise InputError(f"{path}: missing rank (row {row_number}, col {column})")
            value = _parse_cell(path, row_number, column, text, int)
            if value < 1:
                raise InputError(f"{path}: rank {value} is not positive (row {row_number}, col {column})")
            if value > MAX_RANK:
                raise InputError(f"{path}: rank {value} is above {MAX_RANK} (row {row_number}, col {column})")
            ranks[column][country] = value
    alternatives = AlternativeSet(countries)
    rankings: dict[str, Ranking] = {}
    for column in columns:
        ranking = Ranking(alternatives, ranks[column])
        if not ranking.conforms_to_scheme():
            warnings.warn(f"{path}: column {column} is not densely numbered; keeping ranks as published")
        rankings[column] = ranking
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

    A line whose first non-blank character is '#' is a comment, and so is a
    '#' and what follows it in a weight; a criterion name may contain '#'.
    A weight is ASCII text without '_' (so an optional sign and digits), and
    the weights may total at most ``MAX_TOTAL_WEIGHT``.
    """
    path = Path(path)
    names: list[str] = []
    weights: dict[str, int] = {}
    total = 0
    for line_number, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InputError(f"{path}: line {line_number}: expected 'name = weight'")
        name, _, value = line.partition("=")
        name = name.strip()
        value = value.split("#", 1)[0].strip()
        if not name:
            raise InputError(f"{path}: line {line_number}: empty criterion name")
        if name in weights:
            raise InputError(f"{path}: line {line_number}: duplicate criterion {name!r}")
        try:
            if not value.isascii() or "_" in value:  # int() also reads '1_0' and non-ASCII digits
                raise ValueError(value)
            weight = int(value)
        except ValueError:
            raise InputError(f"{path}: line {line_number}: weight {value!r} is not an integer") from None
        if weight < 1:
            raise InputError(f"{path}: line {line_number}: weight must be positive, got {weight}")
        total += weight
        if total > MAX_TOTAL_WEIGHT:
            raise InputError(f"{path}: line {line_number}: total weight {total} exceeds {MAX_TOTAL_WEIGHT}")
        names.append(name)
        weights[name] = weight
    if not names:
        raise InputError(f"{path}: no weights found")
    return WeightsConfig(names=tuple(names), weights=weights)


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


def write_table(destination: str | Path | TextIO | None, header: Iterable, rows: Iterable[Iterable]) -> None:
    """Write a header and rows as CSV to stdout (``None`` or ``-``), an open handle, or a path opened and closed here."""
    if destination is None or destination == "-":
        destination = sys.stdout
    elif isinstance(destination, (str, Path)):
        with Path(destination).open("w", encoding="utf-8", newline="") as handle:
            return write_table(handle, header, rows)
    writer = csv.writer(destination, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def save_ranking(destination: str | Path | TextIO | None, ranking: Ranking, label: str = "country") -> None:
    """Write a ranking as a two-column CSV in alternative-set order."""
    write_table(destination, [label, "rank"], ranking.ranks.items())


def write_labeled_matrix(destination: str | Path | TextIO | None, labels: tuple[str, ...], values, fmt=str) -> None:
    """Write a labelled square numpy matrix as CSV (first column and row carry labels), one row at a time."""
    write_table(destination, ["", *labels], ([label, *map(fmt, row.tolist())] for label, row in zip(labels, values)))


def load_indicators(path: str | Path) -> list[IndicatorRecord]:
    """Load raw indicator values (country column plus the eight finite, non-negative UNIDO variables)."""
    path = Path(path)
    header, rows = _read_simple_csv(path)
    missing = [c for c in ("country", *INDICATORS) if c not in header]
    if missing:
        raise InputError(f"{path}: missing columns {missing}")
    countries = _row_labels(path, header, rows, header.index("country"))
    records = []
    for (row_number, row), country in zip(rows, countries):
        cells = dict(zip(header, row))
        values = {name: _parse_cell(path, row_number, name, cells[name], float) for name in INDICATORS}
        for name, value in values.items():
            if value < 0:
                raise InputError(f"{path}: {name} {value} is negative (row {row_number}, col {name})")
        records.append(IndicatorRecord(country=country, **values))
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
    if len(set(header)) < len(header):
        repeated = next(cell for k, cell in enumerate(header) if cell in header[:k])
        raise InputError(f"{path}: duplicate column {repeated!r} (row 1, col {repeated})")
    return [row[index] for _, row in rows]


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
    numbered = [(number, [cell.strip() for cell in row])
                for number, row in enumerate(csv.reader(StringIO(_read_text(path), newline="")), start=1)
                if any(cell.strip() for cell in row)]
    if not numbered:
        raise InputError(f"{path}: empty file, no header (row 1)")
    (_, header), rows = numbered[0], numbered[1:]
    for row_number, row in rows:
        if len(row) != len(header):
            column = header[len(row)] if len(row) < len(header) else f"#{len(header) + 1}"
            raise InputError(f"{path}: row {row_number} has {len(row)} cells, expected {len(header)}"
                             f" (row {row_number}, col {column})")
    return header, rows


def _parse_cell(path: Path, row_number: int, column: str, text: str, kind: type[int] | type[float]) -> int | float:
    """One finite integer or float cell, or an InputError naming where it sits.

    Only ASCII text without '_' is read, so neither digit-group underscores
    nor non-ASCII digits, which int() and float() accept, pass as numbers.
    """
    try:
        value = kind(text)
        if text.isascii() and "_" not in text and math.isfinite(value):
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


def _load_reference_matrix(path: Path) -> tuple[list[str], list[list[float]]]:
    header, rows = _read_simple_csv(path)
    labels = header[1:]
    if _row_labels(path, header, rows) != labels:
        raise InputError(f"{path}: row labels must match column labels")
    values = [[_parse_cell(path, number, column, text, float) for column, text in zip(labels, row[1:])]
              for number, row in rows]
    return labels, values


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
    for name in ("CIP", *AGGREGATE_METHODS):
        if name not in published_aggregates:
            raise InputError(f"{aggregates_path}: no {name} column (row 1)")
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

    # aggregate rankings against the published columns
    computed_aggregates = {column: rank(structure, DENSE) for column, rank in AGGREGATES.values() if column}
    for name, computed in computed_aggregates.items():
        published = published_aggregates[name]
        tau = kendall_tau_b(computed, published)
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
    candidates: dict[str, Ranking] = dict(criteria_rankings)
    candidates["CIP"] = published_aggregates["CIP"]
    candidates.update(computed_aggregates)
    tolerance = {TAU_B: (0.001, 0.005), COINCIDING: (0.01, 0.05)}
    for measure in (TAU_B, COINCIDING):
        labels, reference = reference_matrices[measure]
        matrix = correlation_matrix([(name, candidates[name]) for name in labels], measure)
        n_criteria = len(criteria_rankings)
        deviation = np.abs(matrix.values - np.array(reference))
        tight, loose = tolerance[measure]
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
    criteria = list(profile.criteria)
    for measure, pick in ((TAU_B, 0), (COINCIDING, 1)):
        comparison = rankings_majority(candidates, criteria, measure)
        weak_order = closest_weak_order(comparison)
        expected_map = {
            data_column: (tau_rank, r_rank)[pick]
            for label, (tau_rank, r_rank, data_column) in reference_meta.items()
        }
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
