"""Acceptance gate: one test per release criterion, at its stated tolerance.

Each test prints a single ``ACCEPTANCE PASS/FAIL`` line (visible with
``pytest -s`` or in captured output).  Criterion 5 is split in two.  The
substance test checks the meta-ranking's aggregate rows, tied blocks and
optimal-order counts.  The strict test compares every row of the
published meta-ranking table, ``table5_meta.csv``, with the computed
meta-ranks.  That table prints its six paired single-factor rows under
rotated labels, so the strict test reads each row through the table's own
``data_column``, and it shows from the published correlation tables alone
that this correction, and not the labels as printed, fits the published
inputs.
"""

import csv
import random
import subprocess
import sys
import time
from itertools import combinations, permutations

import numpy as np
import pytest

from majorityrank import (
    build_majority,
    build_profile,
    bundled_fixtures_dir,
    closest_weak_order,
    coinciding_share,
    copeland_ranking,
    copeland_scores,
    correlation_matrix,
    count_cycles,
    cycle_counts,
    kendall_tau_b,
    leagues,
    load_ranks,
    load_weights,
    markovian_ranking,
    mes_union,
    optimal_order_count,
    pair_stats,
    rankings_majority,
    sort_by_solution,
    stationary,
    transition_matrix,
    uncovered_set,
    weak_top_cycle,
)
from conftest import TOY_BEATS, in_tree_env
from oracles import (
    brute_cycles,
    brute_mes_union,
    brute_uncovered,
    brute_weak_top_cycle,
    naive_pair_stats,
    random_ranking,
    random_structure,
)

CRITERIA_NAMES = ("MVApc", "MXpc", "MHVAsh", "MVAsh", "MHXsh", "MXsh", "ImWMVA", "ImWMT")
AGGREGATE_NAMES = ("Copeland1", "Copeland2", "Copeland3", "UC", "MES", "Markovian")

PUBLISHED_META_TAU = {
    "UC": 1, "Copeland1": 2, "Copeland3": 3, "Copeland2": 4, "CIP": 5, "MES": 6,
    "Markovian": 7, "ImWMT": 8, "ImWMVA": 9, "MVApc": 10, "MXsh": 11, "MHXsh": 12,
    "MHVAsh": 13, "MVAsh": 14, "MXpc": 15,
}
PUBLISHED_META_R = {
    "Copeland1": 1, "Markovian": 2, "CIP": 3, "Copeland2": 3, "Copeland3": 3,
    "UC": 6, "ImWMT": 7, "MES": 7, "ImWMVA": 9, "MVApc": 10, "MXsh": 11,
    "MHXsh": 12, "MHVAsh": 13, "MVAsh": 14, "MXpc": 15,
}
# Data each published single-factor row actually belongs to (the published
# comparison rotated the three indicator pairs; the aggregate rows are
# unaffected).  Copy of table5_meta.csv's data_column.
PUBLISHED_LABEL_TO_DATA = {
    "MVApc": "MHVAsh", "MXpc": "MVAsh", "MHVAsh": "MHXsh",
    "MVAsh": "MXsh", "MHXsh": "MVApc", "MXsh": "MXpc",
}
PAIRED_NAMES = CRITERIA_NAMES[:6]  # the single-factor indicators that come in pairs
META_RANK_FILES = {"tau_b_rank": "table3_taub.csv", "r_rank": "table3_r.csv"}


def report(criterion: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {status} - {criterion}{suffix}")


@pytest.fixture(scope="module")
def study():
    """The full computed case study, shared across criteria."""
    fixtures = bundled_fixtures_dir()
    alternatives, criteria_rankings = load_ranks(fixtures / "table6_criteria.csv")
    weights = load_weights(fixtures / "weights.cfg")
    profile = build_profile(alternatives, criteria_rankings, weights)
    structure = build_majority(profile)
    _, published = load_ranks(fixtures / "table6_aggregates.csv")
    computed = {
        "Copeland1": copeland_ranking(structure, 1),
        "Copeland2": copeland_ranking(structure, 2),
        "Copeland3": copeland_ranking(structure, 3),
        "UC": sort_by_solution(structure, "UC").ranking(),
        "MES": sort_by_solution(structure, "MES").ranking(),
        "Markovian": markovian_ranking(structure),
    }
    candidates = dict(criteria_rankings)
    candidates["CIP"] = published["CIP"]
    candidates.update(computed)
    return {
        "alternatives": alternatives,
        "criteria_rankings": criteria_rankings,
        "profile": profile,
        "structure": structure,
        "published": published,
        "computed": computed,
        "candidates": candidates,
    }


def test_criterion_1_worked_example(toy_profile):
    """Three unit-weight voters over five alternatives: exact matrix, scores, ranking."""
    structure = build_majority(toy_profile)
    ok = bool(np.array_equal(structure.beats, TOY_BEATS)) and not structure.ties.any()
    scores = copeland_scores(structure, 2).scores
    ok &= scores == {"x1": 2, "x2": 2, "x3": 2, "x4": 1, "x5": 3}
    ranking = copeland_ranking(structure, 2)
    ok &= ranking.ranks == {"x5": 1, "x1": 2, "x2": 2, "x3": 2, "x4": 3}

    best = min(
        _timed(lambda: copeland_ranking(build_majority(toy_profile), 2))
        for _ in range(5)
    )
    ok &= best < 1e-3
    report("1: worked example exact, < 1 ms", ok, f"{best * 1e6:.0f} us")
    assert ok


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_criterion_2_cycle_counts(study):
    start = time.perf_counter()
    counts = cycle_counts(study["structure"])
    elapsed = time.perf_counter() - start
    ok = counts == {3: 638, 4: 5928, 5: 52754} and elapsed < 1.0
    report("2: cycle counts 638/5928/52754, < 1 s", ok, f"{counts}, {elapsed:.3f}s")
    assert ok


def test_criterion_3_correlation_tables(study):
    start = time.perf_counter()
    fixtures = bundled_fixtures_dir()
    references = {}
    for measure, filename in (("tau_b", "table3_taub.csv"), ("coinciding", "table3_r.csv")):
        with (fixtures / filename).open(encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        labels = rows[0][1:]
        references[measure] = (labels, {(row[0], label): float(value)
                                        for row in rows[1:]
                                        for label, value in zip(labels, row[1:])})
    block_tolerance = {"tau_b": 0.001, "coinciding": 0.01}
    full_tolerance = {"tau_b": 0.005, "coinciding": 0.05}
    ok = True
    details = []
    for measure in ("tau_b", "coinciding"):
        labels, reference = references[measure]
        matrix = correlation_matrix([(name, study["candidates"][name]) for name in labels], measure)
        block_dev = full_dev = 0.0
        for i, a in enumerate(labels):
            for j, b in enumerate(labels):
                deviation = abs(matrix.values[i, j] - reference[(a, b)])
                full_dev = max(full_dev, deviation)
                if a in CRITERIA_NAMES and b in CRITERIA_NAMES:
                    block_dev = max(block_dev, deviation)
        ok &= block_dev <= block_tolerance[measure] and full_dev <= full_tolerance[measure]
        details.append(f"{measure}: block {block_dev:.4f}, full {full_dev:.4f}")
    # spot anchors
    anchors = study["criteria_rankings"]
    ok &= abs(kendall_tau_b(anchors["MVApc"], anchors["MXpc"]) - 0.767) <= 0.001
    ok &= abs(kendall_tau_b(anchors["ImWMVA"], anchors["ImWMT"]) - 0.808) <= 0.001
    ok &= abs(coinciding_share(anchors["MVApc"], anchors["MXpc"]) - 88.36) <= 0.01
    from majorityrank import correlation_vector

    cip_row = correlation_vector(study["candidates"]["CIP"], list(study["profile"].criteria), "tau_b")
    published_cip_row = (0.715, 0.704, 0.595, 0.440, 0.529, 0.430, 0.732, 0.833)
    ok &= all(abs(value - expected) <= 0.001
              for value, expected in zip((v for _, v in cip_row.components), published_cip_row))
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    report("3: correlation tables within tolerance, < 5 s", ok, "; ".join(details) + f", {elapsed:.2f}s")
    assert ok


def test_criterion_4_aggregate_rankings(study):
    expected_positions = {"Copeland1": 117, "Copeland2": 89, "Copeland3": 80,
                          "UC": 23, "MES": 23, "Markovian": 135}
    start = time.perf_counter()
    ok = True
    details = []
    for name in AGGREGATE_NAMES:
        computed = study["computed"][name]
        published = study["published"][name]
        tau = kendall_tau_b(computed, published)
        positions = computed.distinct_positions()
        japan_first = computed.ranks["Japan"] == 1
        good = tau >= 0.99 and abs(positions - expected_positions[name]) <= 2 and japan_first
        ok &= good
        details.append(f"{name}: tau={tau:.4f}, positions={positions}")
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    report("4: aggregate rankings vs published columns, < 10 s", ok, "; ".join(details) + f", {elapsed:.2f}s")
    assert ok


def test_criterion_4_aggregates_equal_published_columns_exactly(study):
    mismatched = [name for name in AGGREGATE_NAMES
                  if study["computed"][name].ranks != study["published"][name].ranks]
    ok = not mismatched
    report("4 (exact): every aggregate equals its published column rank for rank", ok,
           f"mismatched: {mismatched}" if mismatched else "")
    assert ok, mismatched


def test_criterion_5_meta_ranking_substance(study):
    """Meta-rankings of the fifteen candidates, compared through the documented mapping."""
    start = time.perf_counter()
    criteria = list(study["profile"].criteria)
    tau_comparison = rankings_majority(study["candidates"], criteria, "tau_b")
    tau_order = closest_weak_order(tau_comparison)
    r_comparison = rankings_majority(study["candidates"], criteria, "coinciding")
    r_order = closest_weak_order(r_comparison)
    r_count = optimal_order_count(r_comparison)
    tau_count = optimal_order_count(tau_comparison)
    elapsed = time.perf_counter() - start

    ok = tau_order.distinct_positions() == 15  # strict order
    ok &= tau_count == 1 and r_count == 6
    # published win-count anchor: wins-minus-losses aggregate beats the
    # cardinal index 8 votes to 4
    i = tau_comparison.candidates.index("Copeland1")
    j = tau_comparison.candidates.index("CIP")
    ok &= int(tau_comparison.wins[i, j]) == 8 and int(tau_comparison.wins[j, i]) == 4
    ok &= bool(tau_comparison.majority[i, j]) and not bool(tau_comparison.majority[j, i])
    # the aggregate part of the published columns carries correct labels
    for name in ("CIP", *AGGREGATE_NAMES, "ImWMVA", "ImWMT"):
        ok &= tau_order.ranks[name] == PUBLISHED_META_TAU[name]
        ok &= r_order.ranks[name] == PUBLISHED_META_R[name]
    # tied blocks of the share-based column
    ok &= r_order.ranks["CIP"] == r_order.ranks["Copeland2"] == r_order.ranks["Copeland3"] == 3
    ok &= r_order.ranks["ImWMT"] == r_order.ranks["MES"] == 7
    # the single-factor rows reproduce through the documented data mapping
    for label, data in PUBLISHED_LABEL_TO_DATA.items():
        ok &= tau_order.ranks[data] == PUBLISHED_META_TAU[label]
        ok &= r_order.ranks[data] == PUBLISHED_META_R[label]
    ok &= elapsed < 1.0
    report("5: meta-ranking substance (aggregates exact, blocks, 6 optima), < 1 s", ok, f"{elapsed:.2f}s")
    assert ok


def test_criterion_5_subset_dp_visits_only_states_of_the_condensation(study):
    """The coinciding digraph's 6 optimal orders come from 18 DP states, not all 2**15 - 1."""
    comparison = rankings_majority(study["candidates"], list(study["profile"].criteria), "coinciding")
    _, count, _, _ = comparison._dp
    assert count[0] == 6 and np.count_nonzero(count) - 1 == 18


def _read_csv_rows(filename):
    with (bundled_fixtures_dir() / filename).open(encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))


def _published_meta_table():
    """``table5_meta.csv`` as printed: row label -> {column: cell}."""
    header, *rows = _read_csv_rows("table5_meta.csv")
    return {row[0]: dict(zip(header, row)) for row in rows}


def _published_correlations(filename):
    """A published correlation table: candidate -> {criterion: value}."""
    header, *rows = _read_csv_rows(filename)
    return {row[0]: dict(zip(header[1:], map(float, row[1:]))) for row in rows}


def _published_majority_agreement(placed, correlations, weights):
    """Count the pairs of ``placed`` whose published majority agrees with their order.

    ``placed`` maps each candidate to its meta-rank.  For every pair, the
    criterion weights are summed on the side whose published correlation
    with that criterion is strictly higher.  Returns (agreeing,
    contradicting) pair counts; an even split counts as neither.
    """
    agree = contradict = 0
    for better, worse in combinations(sorted(placed, key=placed.get), 2):
        for_better = sum(w for c, w in weights.items() if correlations[better][c] > correlations[worse][c])
        for_worse = sum(w for c, w in weights.items() if correlations[worse][c] > correlations[better][c])
        agree += for_better > for_worse
        contradict += for_worse > for_better
    return agree, contradict


def test_criterion_5_meta_ranking_strict_published_labels(study):
    """Every row of the published meta-ranking table, compared strictly.

    ``table5_meta.csv`` holds the published tau-b and coinciding meta-ranks
    of the fifteen candidates as printed, plus a ``data_column`` naming the
    candidate each row's ranks belong to.  The published comparison listed
    its six paired single-factor rows under rotated labels
    (MVApc<-MHVAsh, MXpc<-MVAsh, MHVAsh<-MHXsh, MVAsh<-MXsh, MHXsh<-MVApc,
    MXsh<-MXpc); the aggregate rows need no correction.  This test checks:

    1. the module's copies of the published table (``PUBLISHED_META_TAU``,
       ``PUBLISHED_META_R``, ``PUBLISHED_LABEL_TO_DATA``) equal
       ``table5_meta.csv`` label by label;
    2. ``data_column`` is a permutation of the candidates, and all fifteen
       rows read through it equal the computed meta-ranks under both
       measures exactly;
    3. read as printed, exactly the six paired single-factor rows
       mismatch, and since their computed ranks are pairwise distinct,
       ``data_column`` is the only relabelling of them that matches;
    4. the correction is right from published data alone: under the
       published correlation tables (``table3_taub.csv``,
       ``table3_r.csv``) and the criterion weights, the six rows' order
       read through ``data_column`` agrees with all 15 pairwise weighted
       majorities, while as printed 8 of the 15 contradict it (for
       example, the published tau-b values give MXpc over MVApc 7-5, but
       the printed table ranks MVApc 10th and MXpc 15th).

    So the test fails if the library is ever changed to match the printed
    labels, and if any rank or ``data_column`` entry of the table changes.
    Further evidence for the rotation, that all 450 published pairwise win
    counts reproduce under it and under no other assignment, rests on a
    published table that the repository does not bundle.
    """
    published = _published_meta_table()
    criteria = list(study["profile"].criteria)
    weights = {c.name: c.weight for c in criteria}
    computed = {
        "tau_b_rank": closest_weak_order(rankings_majority(study["candidates"], criteria, "tau_b")).ranks,
        "r_rank": closest_weak_order(rankings_majority(study["candidates"], criteria, "coinciding")).ranks,
    }
    data_of = {label: row["data_column"] for label, row in published.items()}
    problems = []

    # 1. the module constants are the published table itself
    if PUBLISHED_META_TAU != {label: int(row["tau_b_rank"]) for label, row in published.items()}:
        problems.append("PUBLISHED_META_TAU differs from table5_meta.csv tau_b_rank")
    if PUBLISHED_META_R != {label: int(row["r_rank"]) for label, row in published.items()}:
        problems.append("PUBLISHED_META_R differs from table5_meta.csv r_rank")
    if PUBLISHED_LABEL_TO_DATA != {label: data for label, data in data_of.items() if label != data}:
        problems.append("PUBLISHED_LABEL_TO_DATA differs from table5_meta.csv data_column")

    # 2. every row, read through data_column, equals the computed rank
    if sorted(data_of.values()) != sorted(published) or set(published) != set(study["candidates"]):
        problems.append("data_column is not a permutation of the fifteen candidates")
    for column in META_RANK_FILES:
        for label, row in published.items():
            rank = computed[column].get(data_of[label])
            if rank != int(row[column]):
                problems.append(f"{column} row {label} (data {data_of[label]}): published {row[column]}, computed {rank}")

    # 3. as printed, exactly the six paired rows mismatch, and data_column
    #    is the only relabelling of them that matches
    expected_relabelling = [tuple(data_of[label] for label in PAIRED_NAMES)]
    for column in META_RANK_FILES:
        as_printed = {label for label, row in published.items() if computed[column][label] != int(row[column])}
        if as_printed != set(PAIRED_NAMES):
            problems.append(f"{column} as printed mismatches {sorted(as_printed)}, not the six paired rows")
        if len({computed[column][name] for name in PAIRED_NAMES}) != len(PAIRED_NAMES):
            problems.append(f"{column}: computed ranks of the paired rows are not pairwise distinct")
        matching = [
            relabelling for relabelling in permutations(PAIRED_NAMES)
            if all(computed[column][data] == int(published[label][column])
                   for label, data in zip(PAIRED_NAMES, relabelling))
        ]
        if matching != expected_relabelling:
            problems.append(f"{column}: relabellings of the paired rows that match: {matching}")

    # 4. the published correlations agree with the corrected order only
    consistency = []
    for column, filename in META_RANK_FILES.items():
        correlations = _published_correlations(filename)
        through_data = {data_of[label]: int(published[label][column]) for label in PAIRED_NAMES}
        printed = {label: int(published[label][column]) for label in PAIRED_NAMES}
        counts = (_published_majority_agreement(through_data, correlations, weights),
                  _published_majority_agreement(printed, correlations, weights))
        consistency.append(f"{filename}: {counts[0][0]}/15 agree through data_column, "
                           f"{counts[1][1]}/15 contradict as printed")
        if counts != ((15, 0), (7, 8)):
            problems.append(f"{filename}: (agree, contradict) through data_column {counts[0]}, "
                            f"as printed {counts[1]}; expected (15, 0) and (7, 8)")

    ok = not problems
    report(
        "5 (strict): every published meta-ranking row, through data_column",
        ok,
        "; ".join(problems or consistency),
    )
    assert ok, problems


def test_criterion_6_property_battery():
    rng = random.Random(20100201)
    start = time.perf_counter()
    structures = 0
    while structures < 1000:
        m = rng.randint(1, 10)
        ms = random_structure(rng, m, tie_prob=rng.choice([0.0, 0.15, 0.4]))
        structures += 1

        assert uncovered_set(ms).members == brute_uncovered(ms)
        assert mes_union(ms).members == brute_mes_union(ms)
        assert weak_top_cycle(ms).members == brute_weak_top_cycle(ms)

        if m <= 8:
            for k in (3, 4, 5):
                assert count_cycles(ms, k) == brute_cycles(ms, k)

        for kind in ("UC", "MES", "WTC"):
            classes = sort_by_solution(ms, kind).classes
            merged = sorted(name for cls in classes for name in cls)
            assert merged == sorted(ms.alternatives.items)

        ranking = markovian_ranking(ms)
        worst_so_far = 0
        for league in leagues(ms).leagues:
            ranks = [ranking.ranks[name] for name in league]
            assert min(ranks) > worst_so_far
            worst_so_far = max(ranks)
            if len(league) >= 2:
                tm = transition_matrix(ms, league)
                p = stationary(tm).as_floats()
                assert np.abs(tm.matrix @ p - p).max() <= 1e-10
                assert (p > 1e-12).all()

        if m >= 2:
            r1 = random_ranking(rng, ms.alternatives)
            r2 = random_ranking(rng, ms.alternatives)
            census = pair_stats(r1, r2)
            reference = naive_pair_stats(r1, r2)
            assert (census.total, census.concordant, census.discordant,
                    census.ties_first, census.ties_second, census.ties_both) == reference
            assert census.concordant + census.discordant == (
                census.total - census.ties_first - census.ties_second + census.ties_both
            )
            if r1.distinct_positions() > 1 and r2.distinct_positions() > 1:
                total, concordant, discordant, n1, n2, _ = reference
                expected_tau = (concordant - discordant) / ((total - n1) * (total - n2)) ** 0.5
                assert kendall_tau_b(r1, r2) == pytest.approx(expected_tau, abs=1e-12)
            expected_share = 100.0 * (reference[1] + reference[5]) / reference[0]
            assert coinciding_share(r1, r2) == pytest.approx(expected_share, abs=1e-12)

    elapsed = time.perf_counter() - start
    ok = elapsed < 60.0
    report("6: 1000-structure property battery vs brute force, < 60 s", ok, f"{elapsed:.1f}s")
    assert ok


def test_criterion_7_reproduce_end_to_end():
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "majorityrank", "reproduce"],
        capture_output=True, text=True, env=in_tree_env(), timeout=60,
    )
    elapsed = time.perf_counter() - start
    ok = result.returncode == 0 and "overall: PASS" in result.stdout and elapsed < 30.0
    report("7: reproduce exits 0 on bundled fixtures, < 30 s", ok, f"exit={result.returncode}, {elapsed:.1f}s")
    assert ok
