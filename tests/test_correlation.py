import random

import pytest
from scipy import stats

from majorityrank import (
    AlternativeSet,
    DegenerateRankingError,
    InputError,
    Ranking,
    coinciding_share,
    correlation_matrix,
    kendall_tau_b,
    pair_stats,
)
from conftest import order_ranking
from oracles import naive_pair_stats, random_ranking

ABC = AlternativeSet(("a", "b", "c"))


def as_tuple(stats_obj):
    return (stats_obj.total, stats_obj.concordant, stats_obj.discordant,
            stats_obj.ties_first, stats_obj.ties_second, stats_obj.ties_both)


def test_identical_strict_rankings():
    r = order_ranking(ABC, ("a", "b", "c"))
    assert as_tuple(pair_stats(r, r)) == (3, 3, 0, 0, 0, 0)
    assert kendall_tau_b(r, r) == 1.0
    assert coinciding_share(r, r) == 100.0


def test_single_swap():
    r1 = order_ranking(ABC, ("a", "b", "c"))
    r2 = order_ranking(ABC, ("a", "c", "b"))
    assert as_tuple(pair_stats(r1, r2)) == (3, 2, 1, 0, 0, 0)
    assert coinciding_share(r1, r2) == pytest.approx(66.67, abs=0.01)


def test_tied_pair_census():
    ab = AlternativeSet(("a", "b"))
    strict = order_ranking(ab, ("a", "b"))
    tied = Ranking(ab, {"a": 1, "b": 1})
    assert as_tuple(pair_stats(strict, tied)) == (1, 0, 0, 0, 1, 0)


def test_exact_reversal():
    r1 = order_ranking(ABC, ("a", "b", "c"))
    r2 = order_ranking(ABC, ("c", "b", "a"))
    assert kendall_tau_b(r1, r2) == -1.0
    assert coinciding_share(r1, r2) == 0.0


def test_mismatched_sets_rejected():
    r1 = order_ranking(ABC, ("a", "b", "c"))
    r2 = order_ranking(AlternativeSet(("a", "b")), ("a", "b"))
    with pytest.raises(InputError):
        pair_stats(r1, r2)


def test_degenerate_ranking_raises():
    flat = Ranking(ABC, {"a": 1, "b": 1, "c": 1})
    strict = order_ranking(ABC, ("a", "b", "c"))
    with pytest.raises(DegenerateRankingError):
        kendall_tau_b(flat, strict)
    # the share remains defined
    assert coinciding_share(flat, strict) == 0.0


def test_census_matches_naive_loops_and_scipy():
    rng = random.Random(51)
    names = AlternativeSet(tuple(f"c{i}" for i in range(12)))
    for _ in range(120):
        r1 = random_ranking(rng, names)
        r2 = random_ranking(rng, names)
        census = pair_stats(r1, r2)
        assert as_tuple(census) == naive_pair_stats(r1, r2)
        identity = census.concordant + census.discordant
        assert identity == census.total - census.ties_first - census.ties_second + census.ties_both
        # symmetric measures
        if r1.distinct_positions() > 1 and r2.distinct_positions() > 1:
            ours = kendall_tau_b(r1, r2)
            assert ours == pytest.approx(kendall_tau_b(r2, r1))
            reference = stats.kendalltau(r1.rank_vector(), r2.rank_vector(), variant="b").statistic
            assert ours == pytest.approx(reference, abs=1e-12)
            assert -1.0 <= ours <= 1.0
        share = coinciding_share(r1, r2)
        assert share == pytest.approx(coinciding_share(r2, r1))
        assert 0.0 <= share <= 100.0


def test_census_over_several_row_blocks_matches_naive_loops():
    # 300 alternatives take six blocks of rows, the last one short
    rng = random.Random(52)
    names = AlternativeSet(tuple(f"c{i}" for i in range(300)))
    for max_positions in (3, 40, 300):
        r1 = random_ranking(rng, names, max_positions)
        r2 = random_ranking(rng, names, max_positions)
        assert as_tuple(pair_stats(r1, r2)) == naive_pair_stats(r1, r2)


def test_adjacent_swap_strictly_degrades_tau():
    rng = random.Random(53)
    names = AlternativeSet(tuple(f"c{i}" for i in range(9)))
    base = list(names.items)
    fixed = order_ranking(names, tuple(base))
    for position in range(len(base) - 1):
        swapped = list(base)
        swapped[position], swapped[position + 1] = swapped[position + 1], swapped[position]
        assert kendall_tau_b(fixed, order_ranking(names, tuple(swapped))) < kendall_tau_b(fixed, fixed)
    del rng


def test_correlation_matrix_shape_and_diagonal():
    r1 = order_ranking(ABC, ("a", "b", "c"))
    r2 = order_ranking(ABC, ("a", "c", "b"))
    matrix = correlation_matrix({"one": r1, "two": r2}, "tau_b")
    assert matrix.labels == ("one", "two")
    assert matrix.values[0, 0] == matrix.values[1, 1] == 1.0
    assert matrix.values[0, 1] == matrix.values[1, 0] == pytest.approx(kendall_tau_b(r1, r2))
    share = correlation_matrix({"one": r1, "two": r1}, "coinciding")
    assert share.values.tolist() == [[100.0, 100.0], [100.0, 100.0]]
    with pytest.raises(InputError):
        correlation_matrix({"one": r1}, "tau_b")
    with pytest.raises(InputError):
        correlation_matrix({"one": r1, "two": r2}, "pearson")
