import math
import random
import sys
import threading
from itertools import combinations_with_replacement, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from majorityrank import (
    AlternativeSet,
    Criterion,
    DegenerateRankingError,
    InputError,
    Profile,
    Ranking,
    build_majority,
    bundled_fixtures_dir,
    coinciding_share,
    copeland_ranking,
    correlation_matrix,
    correlation_vector,
    from_scores,
    kendall_tau_b,
    pair_stats,
    rankings_majority,
)
from conftest import forget_census, order_ranking
from majorityrank import correlation
from majorityrank import io as mio
from majorityrank.core import COMPETITION, from_ranks
from majorityrank.correlation import _CENSUS_MAX_SIZE, _CENSUS_STEP, COINCIDING, MEASURES, TAU_B, _census, _PairCensus
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


@pytest.mark.parametrize("make, problem", [
    (lambda: correlation.PairStats(3, 2, 2, 0, 0, -1), "pair counts must be non-negative"),
    (lambda: correlation.PairStats(3, 2, 0, 0, 0, 0), "inconsistent pair census"),
    (lambda: correlation_matrix([("r", order_ranking(ABC, ("a", "b", "c")))] * 2),
     "ranking names must be unique: 'r' is repeated"),
    (lambda: pair_stats(Ranking(AlternativeSet(("a",)), {"a": 1}), Ranking(AlternativeSet(("a",)), {"a": 1})),
     "correlation needs at least two alternatives; ranking 'r1' has 1"),
], ids=["negative", "inconsistent", "repeated-name", "one-alternative"])
def test_census_rejects_counts_and_inputs_no_census_has(make, problem):
    with pytest.raises(InputError, match=f"^{problem}$"):
        make()


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


def naive_census(rankings):
    """naive_pair_stats for every ordered pair (r, q), each unordered pair looped over once."""
    counts = {}
    for r, q in combinations_with_replacement(range(len(rankings)), 2):
        total, concordant, discordant, ties_first, ties_second, ties_both = naive_pair_stats(rankings[r], rankings[q])
        counts[r, q] = (total, concordant, discordant, ties_first, ties_second, ties_both)
        counts[q, r] = (total, concordant, discordant, ties_second, ties_first, ties_both)
    return counts


def scalar_measure(counts, measure):
    total, concordant, discordant, ties_first, ties_second, ties_both = counts
    if measure == "tau_b":
        return (concordant - discordant) / math.sqrt((total - ties_first) * (total - ties_second))
    return 100.0 * (concordant + ties_both) / total


def assert_census_matches_naive_loops(rankings):
    """The census equals the pair loops, and every off-diagonal matrix value is the scalar formula on them."""
    expected = naive_census(rankings)
    named = [(f"r{i}", ranking) for i, ranking in enumerate(rankings)]
    census = _census([name for name, _ in named], rankings).counts
    for (r, q), counts in expected.items():
        assert tuple(int(c[r, q]) for c in census) == counts, (r, q)
    if len(rankings) < 2:
        return
    for measure in MEASURES:
        tied = [name for name, ranking in named if ranking.distinct_positions() == 1]
        if measure == "tau_b" and tied:
            with pytest.raises(DegenerateRankingError) as excinfo:
                correlation_matrix(named, measure)
            assert excinfo.value.ranking == tied[0]
            continue
        values = correlation_matrix(named, measure).values
        for (r, q), counts in expected.items():
            if r != q:
                assert values[r, q] == scalar_measure(counts, measure), (measure, r, q)


def test_census_over_several_row_blocks_matches_naive_loops():
    # the census takes its pairs by cyclic offsets, a step of offsets at a time: at m = 300 the census of
    # two takes steps of 109 and a short 41 of the 150 offsets; thirteen orders take ten steps of 16
    # offsets, the last a short 6 that holds the offset m / 2
    rng = random.Random(52)
    names = AlternativeSet(tuple(f"c{i}" for i in range(300)))
    for max_positions in (3, 40, 300):
        r1 = random_ranking(rng, names, max_positions)
        r2 = random_ranking(rng, names, max_positions)
        assert as_tuple(pair_stats(r1, r2)) == naive_pair_stats(r1, r2)
    assert_census_matches_naive_loops([random_ranking(rng, names, (2, 3, 40, 300)[i % 4]) for i in range(13)])


def test_census_blocks_crossing_the_diagonal_match_naive_loops():
    # the offset m / 2 of an even m meets every pair twice, and the census keeps the first half of its row:
    # four distinct orders at m = 150 take all 75 offsets in one step, the last of them m / 2;
    # eight orders at m = 150 take steps of 54 and a short 21 that ends with m / 2, and at the odd
    # m = 151 the same steps, with no offset m / 2
    rng = random.Random(55)
    names = AlternativeSet(tuple(f"c{i}" for i in range(150)))
    rankings = [random_ranking(rng, names, positions) for positions in (2, 5, 150, 150)]
    assert_census_matches_naive_loops([*rankings, rankings[1]])
    for m in (150, 151):
        names = AlternativeSet(tuple(f"c{i}" for i in range(m)))
        assert_census_matches_naive_loops([random_ranking(rng, names, (2, 5, 40, m)[i % 4]) for i in range(8)])


def test_census_step_that_exactly_fills_its_buffer_matches_naive_loops():
    # four orders at m = 256 take two steps of 64 offsets, each filling all 4 * 64 * 256 cells of the buffer
    assert 4 * 64 * 256 == _CENSUS_STEP
    rng = random.Random(58)
    names = AlternativeSet(tuple(f"c{i}" for i in range(256)))
    rankings = [random_ranking(rng, names, positions) for positions in (2, 7, 60, 256)]
    assert_census_matches_naive_loops([*rankings, rankings[2]])


def dense_pair_stats(r1, r2):
    """(N, N+, N-, n1, n2, N0) from the m x m sign matrices of two rankings, over the pairs x < y."""
    upper = np.triu(np.ones((len(r1.alternatives),) * 2, dtype=bool), 1)
    s1, s2 = (np.sign(r.rank_vector()[:, None] - r.rank_vector()[None, :])[upper] for r in (r1, r2))
    return (int(upper.sum()), int((s1 * s2 == 1).sum()), int((s1 * s2 == -1).sum()),
            int((s1 == 0).sum()), int((s2 == 0).sum()), int(((s1 == 0) & (s2 == 0)).sum()))


def test_census_tie_count_over_several_chunks_of_pairs():
    # at m = 700 the joint keys of 46 pairs of orders fit in one chunk; fourteen orders have 105 pairs r <= q
    rng = random.Random(59)
    names = AlternativeSet(tuple(f"c{i}" for i in range(700)))
    rankings = [random_ranking(rng, names, (2, 3, 9, 40, 700)[i % 5]) for i in range(14)]
    census = _census([f"r{i}" for i in range(len(rankings))], rankings).counts
    for r, q in combinations_with_replacement(range(len(rankings)), 2):
        assert tuple(int(c[r, q]) for c in census) == dense_pair_stats(rankings[r], rankings[q]), (r, q)


def test_census_of_repeated_rankings_matches_naive_loops():
    # one ranking passed twice, an equal one built separately and its competition relabelling share one order
    rng = random.Random(56)
    names = AlternativeSet(tuple(f"c{i}" for i in range(9)))
    ranking, other = random_ranking(rng, names, 4), random_ranking(rng, names, 4)
    twin = Ranking(names, dict(ranking.ranks))
    relabelled = from_ranks(names, ranking.rank_vector(), COMPETITION)
    assert_census_matches_naive_loops([ranking, ranking, twin, other, relabelled, other])
    assert_census_matches_naive_loops([ranking, ranking])


def test_census_of_ranks_beyond_float32_matches_naive_loops():
    # float32 merges integers from 2**24 on; the census compares each ranking's dense levels instead
    large = Ranking(ABC, {"a": 2 ** 24, "b": 2 ** 24 + 1, "c": 1})
    assert as_tuple(pair_stats(large, order_ranking(ABC, ("a", "b", "c")))) == (3, 1, 2, 0, 0, 0)
    rng = random.Random(57)
    names = AlternativeSet(tuple(f"c{i}" for i in range(10)))
    values = (1, 2, 3, 2 ** 24, 2 ** 24 + 1, 2 ** 62, 2 ** 63 - 1)
    for _ in range(20):
        rankings = [Ranking(names, {name: rng.choice(values) for name in names}) for _ in range(4)]
        assert_census_matches_naive_loops(rankings)


def test_census_float32_bound():
    # a step's Gram entries count at most max(_CENSUS_STEP, m) cells of one order; float32 holds
    # every integer below 2**24 exactly
    assert max(_CENSUS_STEP, _CENSUS_MAX_SIZE) < 2 ** 24


def test_census_joint_key_bound():
    # a joint key level_r * m + level_q, levels below m, is at most m**2 - 1; int64 holds it
    m = _CENSUS_MAX_SIZE
    assert (m - 1) * m + (m - 1) < m ** 2 < 2 ** 63


@st.composite
def tied_rankings(draw, max_rankings=6, max_m=8):
    """1..max_rankings rankings over 2..max_m alternatives from few distinct scores (fully tied ones included)."""
    m = draw(st.integers(2, max_m))
    names = AlternativeSet(tuple(f"a{i}" for i in range(m)))
    scores = st.lists(st.integers(0, 3), min_size=m, max_size=m)
    return [from_scores(names, dict(zip(names, draw(scores)))) for _ in range(draw(st.integers(1, max_rankings)))]


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(tied_rankings())
def test_census_matches_naive_loops_on_tied_rankings(rankings):
    assert_census_matches_naive_loops(rankings)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.data())
def test_census_matches_naive_loops_at_every_step_size(data):
    # with steps of a few cells, the same rankings span one-offset steps, full and short steps, and
    # chunks of one pair or several
    rankings = data.draw(tied_rankings(max_rankings=5, max_m=11))
    step = data.draw(st.sampled_from((1, 7, 16, 30, 64, 121)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(correlation, "_CENSUS_STEP", step)
        forget_census()  # the kernel runs at this step, not the memo of another example's census
        assert_census_matches_naive_loops(rankings)


def test_census_size_bound():
    # the largest m whose tau-b normaliser, at most N**2, fits in int64
    pairs = _CENSUS_MAX_SIZE * (_CENSUS_MAX_SIZE - 1) // 2
    assert pairs ** 2 < 2 ** 63 <= (pairs + _CENSUS_MAX_SIZE) ** 2
    names = AlternativeSet(tuple(f"c{i}" for i in range(_CENSUS_MAX_SIZE + 1)))
    strict = Ranking(names, {name: i + 1 for i, name in enumerate(names)})
    with pytest.raises(InputError, match=f"at most {_CENSUS_MAX_SIZE} alternatives, got {_CENSUS_MAX_SIZE + 1}"):
        pair_stats(strict, strict)


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


def test_correlation_matrix_reads_an_exact_diagonal_on_random_tied_sets():
    # nothing fills the diagonal: the census reads each ranking's self-correlation as exactly 1.0 and 100.0
    rng = random.Random(3400)
    for _ in range(60):
        alternatives = AlternativeSet(tuple(f"a{i}" for i in range(rng.randint(2, 60))))
        rankings = {f"r{i}": random_ranking(rng, alternatives, rng.randint(1, 8)) for i in range(rng.randint(2, 7))}
        assert correlation_matrix(rankings, COINCIDING).values.diagonal().tolist() == [100.0] * len(rankings)
        untied = {name: ranking for name, ranking in rankings.items() if ranking.distinct_positions() > 1}
        if len(untied) > 1:
            assert correlation_matrix(untied, TAU_B).values.diagonal().tolist() == [1.0] * len(untied)


def test_census_reads_an_exact_diagonal_at_the_census_cap():
    # a self-pair has N+ = N - n1 = x, N- = 0 and N0 = n1; at the cap x**2 passes 2**53, so float64 rounds it,
    # yet its correctly rounded square root is x for every x < 2**32, and 100 N < 2**53 is exact
    total = _CENSUS_MAX_SIZE * (_CENSUS_MAX_SIZE - 1) // 2
    ties = np.random.default_rng(3400).integers(0, total, (100, 100))
    ties[0, 0], ties[1, 1] = 0, total - 1  # x = N and x = 1
    untied = total - ties
    assert (untied ** 2 > 2 ** 53).mean() > 0.9
    census = _PairCensus(tuple(f"r{i}" for i in range(100)),
                         (np.full_like(ties, total), untied, np.zeros_like(ties), ties, ties, ties))
    assert (census.values(TAU_B) == 1.0).all()
    assert (census.values(COINCIDING) == 100.0).all()


ONE = Ranking(AlternativeSet(("a",)), {"a": 1})
STRICT = order_ranking(ABC, ("a", "b", "c"))
OTHER = order_ranking(ABC, ("b", "c", "a"))
FLAT = Ranking(ABC, {"a": 1, "b": 1, "c": 1})
TOO_FEW = "correlation needs at least two alternatives; ranking {!r} has 1"
TIED = "tau-b is undefined: ranking {!r} ties every pair"


def by(*rankings):
    """Criteria c0, c1, ... of weight 1 over ``rankings``."""
    return [Criterion(f"c{k}", 1, ranking) for k, ranking in enumerate(rankings)]


@pytest.mark.parametrize("make, error, problem, ranking", [
    (lambda: correlation_matrix({"x": ONE, "y": ONE}), InputError, TOO_FEW, "x"),
    (lambda: rankings_majority({"x": ONE}, by(ONE)), InputError, TOO_FEW, "x"),
    (lambda: correlation_vector(ONE, by(ONE), name="x"), InputError, TOO_FEW, "x"),
    (lambda: kendall_tau_b(ONE, ONE), InputError, TOO_FEW, "r1"),
    (lambda: pair_stats(ONE, ONE), InputError, TOO_FEW, "r1"),
    (lambda: correlation_matrix({"x": FLAT, "y": STRICT, "z": FLAT}), DegenerateRankingError, TIED, "x"),
    (lambda: rankings_majority({"x": FLAT, "y": STRICT}, by(STRICT)), DegenerateRankingError, TIED, "x"),
    (lambda: correlation_vector(FLAT, by(STRICT), name="x"), DegenerateRankingError, TIED, "x"),
    (lambda: kendall_tau_b(FLAT, STRICT), DegenerateRankingError, TIED, "r1"),
    (lambda: pair_stats(FLAT, STRICT), None, None, None),
    (lambda: correlation_matrix({"x": STRICT, "y": FLAT, "z": FLAT}), DegenerateRankingError, TIED, "y"),
    (lambda: rankings_majority({"x": STRICT, "y": FLAT, "z": OTHER}, by(FLAT)), DegenerateRankingError, TIED, "y"),
    (lambda: kendall_tau_b(STRICT, FLAT), DegenerateRankingError, TIED, "r2"),
    (lambda: pair_stats(STRICT, FLAT), None, None, None),
    (lambda: rankings_majority({"x": STRICT, "y": OTHER}, by(STRICT, FLAT)), DegenerateRankingError, TIED, "c1"),
    (lambda: correlation_vector(STRICT, by(OTHER, FLAT), name="x"), DegenerateRankingError, TIED, "c1"),
    (lambda: rankings_majority({"x": FLAT}, by(FLAT)), None, None, None),
], ids=[
    "one-alternative-matrix", "one-alternative-meta", "one-alternative-vector", "one-alternative-tau",
    "one-alternative-pairs",
    "tied-first-matrix", "tied-first-meta", "tied-first-vector", "tied-first-tau", "tied-first-pairs",
    "tied-middle-matrix", "tied-middle-meta", "tied-middle-tau", "tied-middle-pairs",
    "tied-criterion-meta", "tied-criterion-vector", "lone-tied-candidate-meta",
])
def test_census_errors_name_the_first_ranking_at_fault(make, error, problem, ranking):
    # candidates come before criteria; a lone candidate is compared with none, so tau-b does not hold it
    if error is None:
        make()
        return
    with pytest.raises(error) as excinfo:
        make()
    assert type(excinfo.value) is error
    assert (str(excinfo.value), excinfo.value.ranking) == (problem.format(ranking), ranking)


@pytest.mark.parametrize("make", [
    lambda: correlation_matrix({"x": STRICT, "y": OTHER}, "kendall"),
    lambda: rankings_majority({"x": STRICT, "y": OTHER}, by(STRICT), "kendall"),
    lambda: correlation_vector(STRICT, by(OTHER), "kendall"),
], ids=["matrix", "meta", "vector"])
def test_unknown_measure_is_rejected_before_any_census_work(monkeypatch, make):
    def refuse(*args, **kwargs):
        raise AssertionError("the census ran")

    monkeypatch.setattr(correlation, "_census", refuse)
    with pytest.raises(InputError) as excinfo:
        make()
    assert str(excinfo.value) == "unknown measure 'kendall'; expected one of ('tau_b', 'coinciding')"
    assert excinfo.value.ranking is None


def reversed_ranking(ranking):
    """The ranking read bottom up: every ordered pair inverted, every tie kept."""
    ranks = ranking.rank_vector()
    return Ranking(ranking.alternatives, ranks.max() + 1 - ranks)


def assert_census_relations(names, rankings, weights, rng):
    """The census's metamorphic relations, with the tau-b read's refusal checked on each census it reads."""
    census = _census(names, rankings)
    counts, size, m = np.array(census.counts), len(rankings), len(rankings[0].alternatives)
    flat = [name for name, ranking in zip(names, rankings) if ranking.distinct_positions() == 1]

    def assert_tau_b(census, expected):
        if not flat:
            assert np.array_equal(census.values("tau_b"), expected)
            return
        with pytest.raises(DegenerateRankingError) as excinfo:
            census.values("tau_b")
        assert excinfo.value.ranking == next(name for name in census.names if name in flat)

    tau = None if flat else census.values("tau_b")
    assert_tau_b(census, tau)
    flipped = [reversed_ranking(ranking) for ranking in rankings]
    # reversing every ranking changes no count
    assert np.array_equal(np.array(_census(names, flipped).counts), counts)
    # reversing one ranking swaps N+ and N- with every other ranking and keeps every tie count: tau-b negates
    k = rng.randrange(size)
    one = _census(names, [*rankings[:k], flipped[k], *rankings[k + 1:]])
    swap = np.zeros((size, size), dtype=bool)
    swap[k], swap[:, k], swap[k, k] = True, True, False
    expected = counts.copy()
    expected[1][swap], expected[2][swap] = counts[2][swap], counts[1][swap]
    assert np.array_equal(np.array(one.counts), expected)
    assert_tau_b(one, None if flat else np.where(swap, -tau, tau))
    # one permutation of the alternatives, applied to every ranking, changes no count
    moved = np.array(rng.sample(range(m), m))
    assert np.array_equal(np.array(_census(names, [Ranking(r.alternatives, r.rank_vector()[moved])
                                                   for r in rankings]).counts), counts)
    # permuting the rankings permutes every count array and the names
    order = rng.sample(range(size), size)
    forget_census()  # the kernel counts the permuted set, not the memo's gather
    permuted = _census([names[i] for i in order], [rankings[i] for i in order])
    assert permuted.names == tuple(names[i] for i in order)
    assert np.array_equal(np.array(permuted.counts), counts[:, order][:, :, order])
    assert_tau_b(permuted, None if flat else tau[order][:, order])
    # reversing every criterion transposes the majority's beats
    alternatives = rankings[0].alternatives
    criteria = [Criterion(name, weight, ranking) for name, weight, ranking in zip(names, weights, rankings)]
    reversed_criteria = [Criterion(c.name, c.weight, reversed_ranking(c.ranking)) for c in criteria]
    assert np.array_equal(build_majority(Profile(alternatives, reversed_criteria)).beats,
                          build_majority(Profile(alternatives, criteria)).beats.T)


def test_census_relations_on_random_tied_rankings():
    rng = random.Random(3300)
    refused = 0
    for _ in range(60):
        alternatives = AlternativeSet(tuple(f"a{i}" for i in range(rng.randint(2, 14))))
        size = rng.randint(2, 7)
        rankings = [random_ranking(rng, alternatives, 1 if rng.random() < 0.25 else rng.randint(2, 5))
                    for _ in range(size)]
        names = [f"r{i}" for i in range(size)]
        assert_census_relations(names, rankings, [rng.randint(1, 3) for _ in range(size)], rng)
        refused += sum(ranking.distinct_positions() == 1 for ranking in rankings) > 1
    assert refused > 5  # several sets hold two fully tied rankings, so a refusal must pick the first


def test_census_relations_on_the_study():
    criteria_csv = bundled_fixtures_dir() / "table6_criteria.csv"
    alternatives, rankings, profile = mio.load_profile(criteria_csv)
    rankings |= mio.load_aligned_ranks(bundled_fixtures_dir() / "table6_aggregates.csv", criteria_csv, alternatives)
    weights = [c.weight for c in profile.criteria] + [1] * (len(rankings) - len(profile.criteria))
    assert_census_relations(list(rankings), list(rankings.values()), weights, random.Random(33))


def spy_on_census_kernels(monkeypatch) -> list[str]:
    """Record the name of each census kernel run, ``_sign_gram`` or ``_joint_ties``."""
    calls = []
    for name in ("_sign_gram", "_joint_ties"):
        def counted(levels, kernel=getattr(correlation, name), name=name):
            calls.append(name)
            return kernel(levels)

        monkeypatch.setattr(correlation, name, counted)
    return calls


def study_shaped_criteria(m):
    """Eight criteria correlated through one latent score, with the study's weights and ties from rounding."""
    rng = np.random.default_rng(0)
    alternatives = AlternativeSet(tuple(f"c{i}" for i in range(m)))
    latent = rng.normal(0, 1, m)
    scores = [dict(zip(alternatives, latent + rng.normal(0, 0.5, m))) for _ in range(8)]
    return [Criterion(f"f{i}", weight, from_scores(alternatives, scores[i], decimals=1))
            for i, weight in enumerate((2, 2, 1, 1, 1, 1, 2, 2))]


def test_the_four_questions_of_one_candidate_set_take_one_census(monkeypatch):
    # both correlation matrices, both meta-comparisons and each candidate's correlation vector
    criteria = study_shaped_criteria(300)
    structure = build_majority(Profile(criteria[0].ranking.alternatives, criteria))
    candidates = {c.name: c.ranking for c in criteria} | {f"Copeland{v}": copeland_ranking(structure, v)
                                                         for v in (1, 2, 3)}
    questions = [*(lambda measure=measure: correlation_matrix(candidates, measure).values for measure in MEASURES),
                 *(lambda measure=measure: rankings_majority(candidates, criteria, measure).wins for measure in MEASURES),
                 *(lambda name=name, ranking=ranking: correlation_vector(ranking, criteria, name=name).components
                   for name, ranking in candidates.items())]
    calls = spy_on_census_kernels(monkeypatch)
    answers = [question() for question in questions]
    assert calls == ["_sign_gram", "_joint_ties"]
    fresh = []
    for question in questions:  # each question on its own censuses afresh
        forget_census()
        fresh.append(question())
    assert calls[2:] == ["_sign_gram", "_joint_ties"] * (4 + len(candidates))
    for answer, expected in zip(answers, fresh):
        assert answer == expected if isinstance(answer, tuple) else np.array_equal(answer, expected)


def test_census_hits_match_naive_loops_on_random_tied_sets(monkeypatch):
    # after a census of a set, reordered subsets, repeated objects and a pair of its rankings read it
    rng = random.Random(3500)
    calls = spy_on_census_kernels(monkeypatch)
    for _ in range(40):
        alternatives = AlternativeSet(tuple(f"a{i}" for i in range(rng.randint(2, 14))))
        rankings = [random_ranking(rng, alternatives, 1 if rng.random() < 0.25 else rng.randint(2, 5))
                    for _ in range(rng.randint(2, 7))]
        expected = naive_census(rankings)
        _census([f"r{i}" for i in range(len(rankings))], rankings)
        calls.clear()
        for pick in (rng.sample(range(len(rankings)), rng.randint(1, len(rankings))),
                     [rng.randrange(len(rankings)) for _ in range(rng.randint(2, 9))]):
            names = [f"q{k}" for k in range(len(pick))]
            census = _census(names, [rankings[i] for i in pick])
            assert census.names == tuple(names)
            for a, b in product(range(len(pick)), repeat=2):
                assert tuple(int(c[a, b]) for c in census.counts) == expected[pick[a], pick[b]], (pick, a, b)
        i, j = rng.sample(range(len(rankings)), 2)
        assert as_tuple(pair_stats(rankings[i], rankings[j])) == expected[i, j]
        assert calls == []


def test_an_equal_ranking_built_anew_is_censused_afresh(monkeypatch):
    rng = random.Random(3501)
    alternatives = AlternativeSet(tuple(f"a{i}" for i in range(9)))
    rankings = [random_ranking(rng, alternatives, 4) for _ in range(3)]
    twin = Ranking(alternatives, rankings[0].rank_vector())
    assert twin == rankings[0] and twin is not rankings[0]
    calls = spy_on_census_kernels(monkeypatch)
    given = correlation_matrix({"r0": rankings[0], "r1": rankings[1], "r2": rankings[2]})
    rebuilt = correlation_matrix({"r0": twin, "r1": rankings[1], "r2": rankings[2]})
    assert calls == ["_sign_gram", "_joint_ties"] * 2
    assert np.array_equal(rebuilt.values, given.values)


def test_the_memo_holds_one_set(monkeypatch):
    rng = random.Random(3502)
    alternatives = AlternativeSet(tuple(f"a{i}" for i in range(9)))
    first, second = ([random_ranking(rng, alternatives, 4) for _ in range(2)] for _ in range(2))
    calls = spy_on_census_kernels(monkeypatch)
    stats = [pair_stats(*first), pair_stats(*second), pair_stats(*first), pair_stats(*first)]
    assert calls == ["_sign_gram", "_joint_ties"] * 3  # the last call alone reads the memo
    assert stats[0] == stats[2] == stats[3] == correlation.PairStats(*naive_pair_stats(*first))


def test_census_reads_rankings_over_equal_alternative_sets_alike():
    # the alternative-set check tests identity before it compares names: equal but distinct sets pass it as one
    # set does, and a different set is refused with the same text
    rng = random.Random(3503)
    items = tuple(f"a{i}" for i in range(9))
    rankings = [random_ranking(rng, AlternativeSet(items), 4) for _ in range(3)]
    shared = [Ranking(rankings[0].alternatives, r.rank_vector()) for r in rankings]
    assert len({id(r.alternatives) for r in rankings}) == 3 and len({id(r.alternatives) for r in shared}) == 1
    names = ["r0", "r1", "r2"]
    expected = naive_census(rankings)
    for given in (rankings, shared, [shared[0], rankings[1], shared[2]]):
        forget_census()
        census = _census(names, given)
        for a, b in product(range(3), repeat=2):
            assert tuple(int(c[a, b]) for c in census.counts) == expected[a, b]
    other = Ranking(AlternativeSet(items[:-1] + ("z",)), rankings[1].rank_vector())
    with pytest.raises(InputError) as excinfo:
        _census(["y", "x"], [shared[0], other])
    assert str(excinfo.value) == "rankings are over different alternative sets: 'x' differs from 'y'"


def test_threads_sharing_the_memo_read_whole_entries():
    # more threads than cores census two sets in turn, switching often: an entry read half old, half new
    # would give one set's counts to the other
    rng = random.Random(3503)
    alternatives = AlternativeSet(tuple(f"a{i}" for i in range(9)))
    sets = [[random_ranking(rng, alternatives, 4) for _ in range(3)] for _ in range(2)]
    expected = [naive_census(rankings) for rankings in sets]
    results = []

    def work(k):
        for step in range(100):
            try:
                counts = _census(["x", "y", "z"], sets[(k + step) % 2]).counts
                results.append(all(tuple(int(c[r, q]) for c in counts) == want
                                    for (r, q), want in expected[(k + step) % 2].items()))
            except Exception as error:  # a torn entry may index out of range: record it as a failure
                results.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [True] * 400
