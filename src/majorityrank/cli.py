"""Command-line interface.

Subcommands: ``rank`` (aggregate a ranks table by one method), ``analyze``
(majority matrices and cycle counts), ``correlate`` (pairwise correlation
matrix), ``metarank`` (rank the candidate rankings), ``cip`` (cardinal
index from raw indicators) and ``reproduce`` (recompute the bundled case
study against its reference tables).

Exit codes: 0 success, 1 failed check or numerical failure, 2 usage or
input error.  Output formatting is fixed (tau-b three decimals, shares
two, the CIP index six significant digits) so repeated runs are
byte-identical.

One parser per process, built on the first ``main`` call, not at import.  It
holds no handler: ``main`` looks ``cmd_<subcommand>`` up by name at each call,
so a handler rebound later (a monkeypatch, the benchmark tracer) is reached.
"""

from __future__ import annotations

import argparse
import functools
import sys
from collections.abc import Iterator, Mapping
from contextlib import contextmanager
from pathlib import Path
from typing import TextIO

from . import io as mio
from .cip import cip_index, cip_ranking
from .core import DENSE, SCHEMES
from .correlation import COINCIDING, TAU_B, correlation_matrix
from .errors import DegenerateRankingError, InputError, NumericalError
from .majority import build_majority, cycle_counts
from .metarank import closest_weak_order, rankings_majority

METHODS = tuple(mio.AGGREGATES)
MEASURE_FLAGS = {"tau-b": TAU_B, "coinciding": COINCIDING}
_MEASURE_DECIMALS = {TAU_B: 3, COINCIDING: 2}


@contextmanager
def _in_table(tables: Mapping[str, str], default: str) -> Iterator[None]:
    """Re-raise a library InputError led by the table of the ranking (column) it names, else by ``default``."""
    try:
        yield
    except InputError as exc:
        name, text = exc.ranking, str(exc)
        if isinstance(exc, DegenerateRankingError) and name is not None:
            text = f"tau-b is undefined: column {name!r} ties every row (col {name})"
        elif text.startswith("correlation needs at least two alternatives"):
            text = "correlation needs at least two alternatives, got 1 data row"
        raise type(exc)(f"{tables.get(name, default)}: {text}", name) from None


def cmd_rank(args: argparse.Namespace) -> int:
    _, _, profile = mio.load_profile(args.ranks_csv, args.weights)
    _, aggregate = mio.AGGREGATES[args.method]
    with _in_table({}, args.ranks_csv):
        ranking = aggregate(build_majority(profile), args.scheme)
    mio.save_ranking(args.output, ranking)
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    _, _, profile = mio.load_profile(args.ranks_csv, args.weights)
    structure = build_majority(profile)
    with _in_table({}, args.ranks_csv):
        counts = cycle_counts(structure)  # before any file, so that a size error leaves none half written
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    labels = structure.alternatives.items
    mio.write_labeled_matrix(outdir / "M.csv", labels, structure.beats.astype(int))
    mio.write_labeled_matrix(outdir / "T.csv", labels, structure.ties.astype(int))
    mio.write_table(outdir / "cycles.csv", ["k", "cycles"], counts.items())
    return 0


def cmd_correlate(args: argparse.Namespace) -> int:
    _, rankings = mio.load_ranks(args.ranks_csv)
    measure = MEASURE_FLAGS[args.measure]
    if len(rankings) < 2:
        raise InputError(f"{args.ranks_csv}: a correlation matrix needs at least two rankings, got 1 (row 1)")
    with _in_table({}, args.ranks_csv):
        matrix = correlation_matrix(rankings, measure)
    decimals = _MEASURE_DECIMALS[measure]
    mio.write_labeled_matrix(args.output, matrix.labels, matrix.values, fmt=lambda v: f"{v:.{decimals}f}")
    return 0


def _write_dot(handle: TextIO, comparison) -> None:
    # DOT quoted IDs escape their backslashes and double quotes
    names = ['"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"' for name in comparison.candidates]
    handle.write("digraph meta {\n")
    for name in names:
        handle.write(f"  {name};\n")
    for i, j in zip(*comparison.majority.nonzero()):  # arcs in row-major order
        handle.write(f'  {names[i]} -> {names[j]} [label="{int(comparison.wins[i, j])}"];\n')
    handle.write("}\n")


def cmd_metarank(args: argparse.Namespace) -> int:
    alternatives, rankings, profile = mio.load_profile(args.ranks_csv, args.weights)
    candidates, tables = dict(rankings), dict.fromkeys(rankings, args.ranks_csv)
    for extra in args.candidates or ():
        for name, ranking in mio.load_aligned_ranks(extra, args.ranks_csv, alternatives).items():
            if name in candidates:
                raise InputError(f"{extra}: duplicate candidate column {name!r} (row 1, col {name})")
            candidates[name], tables[name] = ranking, extra
    measure = MEASURE_FLAGS[args.measure]
    with _in_table(tables, args.ranks_csv):
        comparison = rankings_majority(candidates, list(profile.criteria), measure)
    weak_order = closest_weak_order(comparison)
    if args.emit_dot:
        with Path(args.emit_dot).open("w", encoding="utf-8") as handle:
            _write_dot(handle, comparison)
    wins = dict(zip(comparison.candidates, comparison.wins.tolist()))
    order = sorted(comparison.candidates, key=lambda name: (weak_order.ranks[name], name))
    mio.write_table(args.output, ["candidate", "rank", *(f"wins_vs_{name}" for name in comparison.candidates)],
                    ([name, weak_order.ranks[name], *wins[name]] for name in order))
    return 0


def cmd_cip(args: argparse.Namespace) -> int:
    records = mio.load_indicators(args.indicators_csv)
    ranking = cip_ranking(records, scheme=args.scheme)
    mio.write_table(args.output, ["country", "index", "rank"],
                    ([record.country, f"{cip_index(record):.6g}", ranking.ranks[record.country]] for record in records))
    return 0


def cmd_reproduce(args: argparse.Namespace) -> int:
    report = mio.run_reproduce(args.fixtures_dir)
    print(report.format_text())
    return 0 if report.passed else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="majorityrank",
        description="Aggregate criteria rankings with majority-rule methods and analyse the results.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rank = sub.add_parser("rank", help="aggregate a ranks table into a single ranking")
    p_rank.add_argument("ranks_csv")
    p_rank.add_argument("--method", choices=METHODS, required=True)
    p_rank.add_argument("--weights", help="criterion weights config (default: bundled study weights)")
    p_rank.add_argument("--scheme", choices=SCHEMES, default=DENSE)
    p_rank.add_argument("--output", help="output CSV (default: stdout)")

    p_analyze = sub.add_parser("analyze", help="emit majority matrices M.csv/T.csv and cycles.csv")
    p_analyze.add_argument("ranks_csv")
    p_analyze.add_argument("--weights")
    p_analyze.add_argument("--output", required=True, help="output directory")

    p_correlate = sub.add_parser("correlate", help="pairwise correlation matrix of the table's columns")
    p_correlate.add_argument("ranks_csv")
    p_correlate.add_argument("--measure", choices=sorted(MEASURE_FLAGS), default="tau-b")
    p_correlate.add_argument("--output")

    p_meta = sub.add_parser("metarank", help="rank candidate rankings by weighted criterion closeness")
    p_meta.add_argument("ranks_csv", help="criteria table (also the default candidate set)")
    p_meta.add_argument("--candidates", nargs="*", help="extra CSV tables of candidate columns")
    p_meta.add_argument("--weights")
    p_meta.add_argument("--measure", choices=sorted(MEASURE_FLAGS), default="tau-b")
    p_meta.add_argument("--emit-dot", help="write the majority digraph in DOT format")
    p_meta.add_argument("--output")

    p_cip = sub.add_parser("cip", help="cardinal index and ranking from raw indicator values")
    p_cip.add_argument("indicators_csv")
    p_cip.add_argument("--scheme", choices=SCHEMES, default=DENSE)
    p_cip.add_argument("--output")

    p_repro = sub.add_parser("reproduce", help="recompute the bundled case study and diff against references")
    p_repro.add_argument("fixtures_dir", nargs="?", help="fixture directory (default: bundled)")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
