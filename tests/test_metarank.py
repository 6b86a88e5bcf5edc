import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from majorityrank import (
    AlternativeSet,
    Criterion,
    DegenerateRankingError,
    InputError,
    MetaComparison,
    Profile,
    Ranking,
    SizeLimitError,
    build_majority,
    bundled_fixtures_dir,
    closest_weak_order,
    correlation_vector,
    cycle_counts,
    from_scores,
    kendall_tau_b,
    leagues,
    minimum_distance,
    optimal_linear_orders,
    optimal_order_count,
    pair_stats,
    rankings_majority,
    run_reproduce,
)
from conftest import forget_census, order_ranking
from majorityrank.core import SCHEMES
from majorityrank import correlation, metarank
from majorityrank import io as mio
from majorityrank.correlation import MEASURES
from oracles import brute_minimum, naive_meta_wins, random_ranking


def make_comparison(names, edges):
    n = len(names)
    wins = np.zeros((n, n), dtype=np.int64)
    for a, b in edges:
        wins[names.index(a), names.index(b)] = 1
    return MetaComparison(candidates=tuple(names), wins=wins, measure="tau_b")


def nondegenerate_ranking(rng, names):
    while True:
        ranking = random_ranking(rng, names)
        if ranking.distinct_positions() > 1:
            return ranking


def small_criteria(rng, names, count=4):
    return [Criterion(f"p{i}", rng.randint(1, 2), nondegenerate_ranking(rng, names)) for i in range(count)]


def test_correlation_vector_components():
    names = AlternativeSet(("a", "b", "c", "d"))
    rng = random.Random(61)
    criteria = small_criteria(rng, names, count=3)
    candidate = nondegenerate_ranking(rng, names)
    vector = correlation_vector(candidate, criteria, "tau_b", name="probe")
    assert [c for c, _ in vector.components] == ["p0", "p1", "p2"]
    for (criterion, value), spec in zip(vector.components, criteria):
        assert value == pytest.approx(kendall_tau_b(candidate, spec.ranking))
    own = correlation_vector(criteria[0].ranking, criteria, "tau_b").components[0][1]
    assert own == 1.0


def test_single_criterion_collapse():
    names = AlternativeSet(("a", "b", "c"))
    rng = random.Random(62)
    criterion = Criterion("p", 1, order_ranking(names, ("a", "b", "c")))
    candidate = nondegenerate_ranking(rng, names)
    vector = correlation_vector(candidate, [criterion], "tau_b")
    assert len(vector.components) == 1
    assert vector.components[0][1] == pytest.approx(kendall_tau_b(candidate, criterion.ranking))


def test_majority_wins_direction():
    names = AlternativeSet(("a", "b", "c"))
    high = order_ranking(names, ("a", "b", "c"))
    low = order_ranking(names, ("c", "b", "a"))
    criterion = Criterion("p", 1, high)
    comparison = rankings_majority({"close": high, "far": low}, [criterion])
    i, j = comparison.candidates.index("close"), comparison.candidates.index("far")
    assert comparison.wins[i, j] == 1 and comparison.wins[j, i] == 0
    assert comparison.majority[i, j] and not comparison.majority[j, i]
    # the digraph is derived from the wins, read-only, and built once
    assert not comparison.majority.flags.writeable and comparison.majority is comparison.majority


def test_meta_comparison_needs_a_criterion():
    names = AlternativeSet(("a", "b", "c"))
    with pytest.raises(InputError, match="at least one criterion"):
        rankings_majority({"one": order_ranking(names, ("a", "b", "c"))}, [])


def test_meta_comparison_needs_a_candidate(monkeypatch):
    names = AlternativeSet(("a", "b", "c"))
    criterion = Criterion("p", 1, order_ranking(names, ("a", "b", "c")))
    calls = []
    census = correlation._census
    monkeypatch.setattr(correlation, "_census", lambda *args, **kwargs: calls.append(args) or census(*args, **kwargs))
    for measure in MEASURES:
        for empty in ({}, []):
            with pytest.raises(InputError, match="^a meta-comparison needs at least one candidate$"):
                rankings_majority(empty, [criterion], measure)
    assert calls == []  # refused before the census of the criteria
    with pytest.raises(InputError, match="at least one candidate"):
        MetaComparison(candidates=(), wins=np.zeros((0, 0), dtype=np.int64), measure="tau_b")


def meta_of(wins):
    return MetaComparison(candidates=("r1", "r2"), wins=wins, measure="tau_b")


def meta_by(measure, *names):
    abc = AlternativeSet(("a", "b", "c"))
    candidates = [(name, order_ranking(abc, ("a", "b", "c"))) for name in names]
    return rankings_majority(candidates, [Criterion("c", 1, order_ranking(abc, ("c", "b", "a")))], measure)


@pytest.mark.parametrize("make, problem", [
    (lambda: meta_of(np.zeros((3, 3))), "the wins matrix must be 2x2"),
    (lambda: meta_by("tau_b", "r", "r"), "ranking names must be unique: 'r' is repeated"),
    (lambda: meta_by("pearson", "r"), "unknown measure 'pearson'; expected one of ('tau_b', 'coinciding')"),
], ids=["shape", "repeated-name", "unknown-measure"])
def test_meta_comparison_rejects_matrices_names_and_measures_no_comparison_has(make, problem):
    with pytest.raises(InputError) as excinfo:
        make()
    assert str(excinfo.value) == problem


def test_self_comparison_is_zero():
    names = AlternativeSet(("a", "b", "c"))
    rng = random.Random(63)
    criteria = small_criteria(rng, names)
    candidate = nondegenerate_ranking(rng, names)
    comparison = rankings_majority({"one": candidate, "two": candidate}, criteria)
    assert comparison.wins.sum() == 0
    assert not comparison.majority.any()


def test_exact_component_ties_use_integers_not_floats():
    # two different candidates equally far from the criterion tie exactly
    names = AlternativeSet(("a", "b", "c"))
    criterion = Criterion("p", 1, order_ranking(names, ("a", "b", "c")))
    one = order_ranking(names, ("b", "a", "c"))  # one inversion
    two = order_ranking(names, ("a", "c", "b"))  # one inversion elsewhere
    comparison = rankings_majority({"one": one, "two": two}, [criterion])
    assert comparison.wins.sum() == 0


@pytest.mark.parametrize("criterion_ranks, coarse, spread, counts", [
    # tau-b = 2/sqrt(40) and 3/sqrt(90), both 1/sqrt(10)
    ((1, 2, 3, 4, 5), (1, 1, 1, 2, 1), (1, 1, 4, 3, 2), ((2, 40), (3, 90))),
    # tau-b = 4/sqrt(448) and 5/sqrt(700), both 1/sqrt(28), whose float64 quotients differ in the last bit
    ((1, 2, 3, 4, 5, 6, 7, 8), (1, 1, 2, 2, 1, 2, 2, 1), (1, 1, 1, 6, 5, 4, 3, 2), ((4, 448), (5, 700))),
], ids=["equal-floats", "unequal-floats"])
def test_exact_tau_ties_with_different_counts(criterion_ranks, coarse, spread, counts):
    names = AlternativeSet(tuple("abcdefgh"[:len(criterion_ranks)]))
    criterion = Criterion("p", 1, Ranking(names, dict(zip(names, criterion_ranks))))
    candidates = {"coarse": Ranking(names, dict(zip(names, coarse))), "spread": Ranking(names, dict(zip(names, spread)))}
    for ranking, (score, norm) in zip(candidates.values(), counts):
        stats = pair_stats(ranking, criterion.ranking)
        assert stats.concordant - stats.discordant == score
        assert (stats.total - stats.ties_first) * (stats.total - stats.ties_second) == norm
    comparison = rankings_majority(candidates, [criterion])
    assert comparison.wins.tolist() == naive_meta_wins(candidates, [criterion], "tau_b").tolist() == [[0, 0], [0, 0]]


def test_exact_tau_ties_hold_in_every_criterion_column():
    # the "equal-floats" candidates also tie on a criterion with one tied pair, N - n2 = 9:
    # 2/sqrt(4 * 9) = 3/sqrt(9 * 9); the keys a|a| * L/(N - n1), L = lcm(4, 9), are 36 and 36 in both columns
    names = AlternativeSet(tuple("abcde"))
    criteria = [Criterion("strict", 1, Ranking(names, dict(zip(names, (1, 2, 3, 4, 5))))),
                Criterion("tied", 2, Ranking(names, dict(zip(names, (1, 1, 2, 3, 4)))))]
    candidates = {"coarse": Ranking(names, dict(zip(names, (1, 1, 1, 2, 1)))),
                  "spread": Ranking(names, dict(zip(names, (1, 1, 4, 3, 2))))}
    for ranking, (score, untied) in zip(candidates.values(), ((2, 4), (3, 9))):
        stats = pair_stats(ranking, criteria[1].ranking)
        assert (stats.concordant - stats.discordant, stats.total - stats.ties_first, stats.ties_second) == (score, untied, 1)
    comparison = rankings_majority(candidates, criteria)
    assert comparison.wins.tolist() == naive_meta_wins(candidates, criteria, "tau_b").tolist() == [[0, 0], [0, 0]]


def test_tau_keys_with_a_large_common_multiple_match_pair_loops():
    # twenty candidates with twenty different N - n1 at m = 16: their least common multiple L exceeds 2**63,
    # so the exact keys a|a| * L/(N - n1) only fit in Python integers
    rng = random.Random(69)
    names = AlternativeSet(tuple(f"a{i}" for i in range(16)))
    by_untied = {}
    while len(by_untied) < 20:
        ranking = random_ranking(rng, names)
        stats = pair_stats(ranking, ranking)
        if stats.total > stats.ties_first:
            by_untied.setdefault(stats.total - stats.ties_first, ranking)
    assert math.lcm(*by_untied) > 2 ** 63
    candidates = {f"r{untied}": ranking for untied, ranking in by_untied.items()}
    criteria = [Criterion(f"p{k}", k + 1, nondegenerate_ranking(rng, names)) for k in range(4)]
    for measure in MEASURES:
        assert not assert_meta_wins_match_pair_loops(candidates, criteria, measure)


def assert_meta_wins_match_pair_loops(candidates, criteria, measure) -> bool:
    """rankings_majority equals the pair-loop reference, raising where it raises; True if both raised."""
    try:
        expected = naive_meta_wins(candidates, criteria, measure)
    except DegenerateRankingError:
        with pytest.raises(DegenerateRankingError):
            rankings_majority(candidates, criteria, measure)
        return True
    assert rankings_majority(candidates, criteria, measure).wins.tolist() == expected.tolist()
    return False


def test_meta_wins_match_pair_loops_on_random_profiles():
    rng = random.Random(68)
    raised = lone_degenerate = 0
    for _ in range(200):
        names = AlternativeSet(tuple(f"a{i}" for i in range(rng.randint(2, 8))))
        candidates = {f"r{i}": random_ranking(rng, names) for i in range(rng.randint(1, 6))}
        criteria = [Criterion(f"p{k}", rng.randint(1, 3), random_ranking(rng, names)) for k in range(rng.randint(1, 4))]
        lone_degenerate += len(candidates) == 1 and candidates["r0"].distinct_positions() == 1
        for measure in MEASURES:
            raised += assert_meta_wins_match_pair_loops(candidates, criteria, measure)
    assert raised > 10 and lone_degenerate > 0


@st.composite
def meta_profiles(draw, max_m=7):
    """Candidates and weighted criteria over 2..max_m alternatives, from few distinct scores."""
    m = draw(st.integers(2, max_m))
    names = AlternativeSet(tuple(f"a{i}" for i in range(m)))
    scores = st.lists(st.integers(0, 3), min_size=m, max_size=m)
    candidates = {f"r{i}": from_scores(names, dict(zip(names, draw(scores)))) for i in range(draw(st.integers(1, 6)))}
    criteria = [Criterion(f"p{k}", draw(st.integers(1, 3)), from_scores(names, dict(zip(names, draw(scores)))))
                for k in range(draw(st.integers(1, 4)))]
    return candidates, criteria


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(meta_profiles(), st.sampled_from(MEASURES))
def test_meta_wins_match_pair_loops_on_tied_profiles(profile, measure):
    assert_meta_wins_match_pair_loops(*profile, measure)


def test_acyclic_chain_condensation():
    comparison = make_comparison(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    ranking = closest_weak_order(comparison)
    assert ranking.ranks == {"a": 1, "b": 2, "c": 3}
    assert optimal_order_count(comparison) == 1
    assert minimum_distance(comparison) == 0


def test_transitive_gap_is_bridged_by_closure():
    # a beats b, b beats c, a-c unstated: the closure orders a above c
    comparison = make_comparison(["a", "b", "c"], [("a", "b"), ("b", "c")])
    ranking = closest_weak_order(comparison)
    assert ranking.ranks == {"a": 1, "b": 2, "c": 3}
    assert optimal_order_count(comparison) == 1


def test_incomparable_pair_ties_with_competition_numbering():
    comparison = make_comparison(
        ["a", "b", "c", "d"],
        [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")],
    )
    ranking = closest_weak_order(comparison)
    assert ranking.ranks == {"a": 1, "b": 2, "c": 2, "d": 4}
    assert ranking.scheme == "competition"
    assert optimal_order_count(comparison) == 2
    orders = optimal_linear_orders(comparison)
    assert set(orders) == {("a", "b", "c", "d"), ("a", "c", "b", "d")}


def test_cyclic_input_resolved_exactly():
    # one 3-cycle plus a trailing element: three optimal orders, all blocks tied
    comparison = make_comparison(
        ["a", "b", "c", "d"],
        [("a", "b"), ("b", "c"), ("c", "a"), ("a", "d"), ("b", "d"), ("c", "d")],
    )
    assert minimum_distance(comparison) == 1
    ranking = closest_weak_order(comparison)
    assert ranking.ranks == {"a": 1, "b": 1, "c": 1, "d": 4}
    assert optimal_order_count(comparison) == 3


def test_identical_candidates_tie():
    names = AlternativeSet(("a", "b", "c"))
    rng = random.Random(64)
    criteria = small_criteria(rng, names)
    same = nondegenerate_ranking(rng, names)
    other = nondegenerate_ranking(rng, names)
    comparison = rankings_majority({"one": same, "twin": same, "other": other}, criteria)
    ranking = closest_weak_order(comparison)
    assert ranking.ranks["one"] == ranking.ranks["twin"]


def test_acyclic_condensation_has_zero_inversions():
    rng = random.Random(65)
    for _ in range(40):
        n = rng.randint(2, 8)
        names = [f"r{i}" for i in range(n)]
        # random DAG respecting the index order, randomly thinned
        edges = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        comparison = make_comparison(names, edges)
        ranking = closest_weak_order(comparison)
        for a, b in edges:
            i, j = names.index(a), names.index(b)
            assert comparison.majority[i, j]
            assert ranking.ranks[a] <= ranking.ranks[b]  # never inverted


def test_condensation_is_idempotent_on_random_digraphs():
    rng = random.Random(67)
    for _ in range(40):
        n = rng.randint(1, 7)
        names = [f"r{i}" for i in range(n)]
        edges = []
        for i in range(n):
            for j in range(n):
                if i != j and rng.random() < 0.4 and (names[j], names[i]) not in edges:
                    edges.append((names[i], names[j]))
        comparison = make_comparison(names, edges)
        first = closest_weak_order(comparison)
        rebuilt = make_comparison(
            names,
            [(a, b) for a in names for b in names
             if first.ranks[a] < first.ranks[b]],
        )
        second = closest_weak_order(rebuilt)
        assert second.ranks == first.ranks


def incomparability_ranks(names, fixed):
    """Competition ranks of the blocks that incomparability under ``fixed`` connects."""
    block = {name: {name} for name in names}
    for a in names:
        for b in names:
            if a != b and not fixed[a, b] and not fixed[b, a] and block[a] is not block[b]:
                merged = block[a] | block[b]
                for member in merged:
                    block[member] = merged
    return {
        name: 1 + sum(1 for other in names if other not in block[name] and fixed[other, name])
        for name in names
    }


def assert_solver_matches_exhaustive_search(names, edges) -> int:
    """Every DP answer equals exhaustive search over all orders; returns the minimum distance."""
    comparison = make_comparison(names, edges)
    expected_cost, expected_orders = brute_minimum(comparison)
    assert minimum_distance(comparison) == expected_cost
    assert optimal_order_count(comparison) == len(expected_orders)
    assert optimal_linear_orders(comparison) == expected_orders
    realized = {(a, b) for order in expected_orders for k, a in enumerate(order) for b in order[k + 1:]}
    _, _, _, dp_realized = comparison._dp
    assert {(names[i], names[j]) for i, j in zip(*np.nonzero(dp_realized))} == realized
    # the weak order: blocks are the incomparability components of the
    # pairs fixed in every optimal order, ranked by competition numbering
    fixed = {(a, b): (a, b) in realized and (b, a) not in realized for a in names for b in names}
    ranking = closest_weak_order(comparison)
    assert dict(ranking.ranks) == incomparability_ranks(names, fixed)
    assert ranking.conforms_to_scheme()
    return expected_cost


def test_subset_solver_matches_exhaustive_search():
    rng = random.Random(71)
    cyclic = 0
    for _ in range(60):
        n = rng.randint(1, 8)
        names = [f"r{i}" for i in range(n)]
        density = rng.choice((0.3, 0.6, 0.9, 1.0))
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                roll = rng.random()
                if roll < density / 2:
                    edges.append((names[i], names[j]))
                elif roll < density:
                    edges.append((names[j], names[i]))
        cyclic += assert_solver_matches_exhaustive_search(names, edges) > 0
    assert 10 < cyclic < 60  # the battery holds both cyclic and acyclic digraphs


def test_subset_solver_matches_exhaustive_search_on_planted_components():
    # ordered blocks of candidates, random arcs inside each block, most arcs
    # from an earlier block to a later one and the rest missing (ties), plus
    # isolated candidates: the DP visits only states that respect the SCCs
    rng = random.Random(72)
    cyclic = restricted = 0
    for _ in range(120):
        n = rng.randint(4, 8)
        names = [f"r{i}" for i in range(n)]
        shuffled = rng.sample(names, n)
        isolated = set(shuffled[:rng.randint(0, 1)])
        block = {name: rng.randint(0, 2) for name in shuffled}
        edges = []
        for k, a in enumerate(shuffled):
            for b in shuffled[k + 1:]:
                if a in isolated or b in isolated:
                    continue
                if block[a] == block[b]:
                    roll = rng.random()
                    if roll < 0.9:
                        edges.append((a, b) if roll < 0.45 else (b, a))
                elif rng.random() < 0.8:
                    edges.append((a, b) if block[a] < block[b] else (b, a))
        cyclic += assert_solver_matches_exhaustive_search(names, edges) > 0
        visited = np.count_nonzero(make_comparison(names, edges)._dp[1]) - 1  # the filled states but the empty one
        restricted += visited < 2 ** n - 1
    assert cyclic > 15 and restricted > 100


def test_subset_solver_visits_only_states_of_the_condensation():
    # a chain fixes every order: one state per popcount, not 2**20 - 1
    names = [f"r{i}" for i in range(20)]
    chain = make_comparison(names, list(zip(names, names[1:])))
    cost, count, _, _ = chain._dp
    assert np.count_nonzero(count) - 1 == 20
    assert cost[0] == 0 and count[0] == 1


def test_edgeless_twenty_candidates_count_every_order():
    # every one of the 20! orders is optimal: the largest count the int64 DP holds
    comparison = make_comparison([f"r{i}" for i in range(20)], [])
    tracemalloc.start()
    try:
        assert optimal_order_count(comparison) == math.factorial(20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 18 MiB of tables over the 2**20 states, plus one layer and one block's temporaries: unblocked
    # temporaries, or a layer's children sorted and de-duplicated, take more
    assert peak < 23 * 2 ** 20
    assert minimum_distance(comparison) == 0
    assert set(closest_weak_order(comparison).ranks.values()) == {1}


def test_int64_order_counts_are_exact_up_to_the_candidate_cap():
    # count[S] <= (n - |S|)!, so the cap alone keeps every DP count below 2**63
    assert math.factorial(metarank.SUBSET_SOLVER_LIMIT) < 2 ** 63 <= math.factorial(metarank.SUBSET_SOLVER_LIMIT + 1)


def test_order_enumeration_cap_is_checked_up_front():
    comparison = make_comparison([f"r{i}" for i in range(6)], [])
    with pytest.raises(SizeLimitError, match="more than 719 optimal orders"):
        optimal_linear_orders(comparison, cap=719)
    assert len(optimal_linear_orders(comparison, cap=720)) == 720


def test_cyclic_size_limit():
    names = [f"r{i}" for i in range(21)]
    edges = [(names[i], names[(i + 1) % 21]) for i in range(21)]
    comparison = make_comparison(names, edges)
    with pytest.raises(SizeLimitError) as excinfo:
        closest_weak_order(comparison)
    assert " > ".join(names + names[:1]) in str(excinfo.value)  # the reported cycle


def test_long_cycle_is_reported_without_recursion():
    # a cycle r2 > ... > r1497 > r2, longer than the interpreter's recursion
    # limit, with a source r1499 above it and a tail r1 > r0 below it
    n = 1500
    names = [f"r{i}" for i in range(n)]
    edges = [(names[i], names[i + 1]) for i in range(2, n - 2)] + [(names[n - 2], names[2])]
    edges += [(names[n - 1], names[2]), (names[2], names[1]), (names[1], names[0])]
    comparison = make_comparison(names, edges)
    with pytest.raises(SizeLimitError) as excinfo:
        closest_weak_order(comparison)
    cycle = str(excinfo.value).split("(e.g. ")[1].split(");")[0].split(" > ")
    assert cycle[0] == cycle[-1] and len(set(cycle)) == len(cycle) - 1 == n - 3
    for a, b in zip(cycle, cycle[1:]):
        assert comparison.majority[names.index(a), names.index(b)]


def test_cycle_example_closes_where_the_walk_first_repeats():
    # from r0 the lowest successors that reach r0 again run r3 > r4 > r6 and back to r3,
    # a cycle that misses r0: the reported example is that cycle
    names = [f"r{i}" for i in range(25)]
    edges = [("r0", "r3"), ("r3", "r4"), ("r4", "r6"), ("r6", "r3"), ("r4", "r7"), ("r7", "r0")]
    with pytest.raises(SizeLimitError, match=r"\(e\.g\. r3 > r4 > r6 > r3\)"):
        closest_weak_order(make_comparison(names, edges))


def test_acyclic_digraph_above_the_cap():
    # a transitive tournament on 30 candidates without the arc r10 > r11: the
    # closure leaves only that pair unordered, and the DP's cap still holds
    names = [f"r{i}" for i in range(30)]
    edges = [(a, b) for i, a in enumerate(names) for b in names[i + 1:] if (a, b) != ("r10", "r11")]
    comparison = make_comparison(names, edges)
    ranks = closest_weak_order(comparison).ranks
    assert [ranks[name] for name in names] == [*range(1, 11), 11, 11, *range(13, 31)]
    for query in (optimal_order_count, minimum_distance, optimal_linear_orders):
        with pytest.raises(SizeLimitError, match="capped at 20"):
            query(comparison)


def assert_meta_ranking_is_neutral(candidates, criteria, rng) -> int:
    """Permuting the candidates permutes wins, the weak order (compared by name) and the realized pairs, and
    keeps the optimal-order count and the minimum distance; permuting the criteria changes nothing.  Returns
    the number of cyclic comparisons, at most one per measure."""
    names = list(candidates)
    order = rng.sample(range(len(names)), len(names))
    shuffled = {names[i]: candidates[names[i]] for i in order}
    cyclic = 0
    for measure in MEASURES:
        given = rankings_majority(candidates, criteria, measure)
        forget_census()  # each side is censused by the kernel, not read from the memo of the one before
        permuted = rankings_majority(shuffled, criteria, measure)
        forget_census()
        reordered = rankings_majority(candidates, rng.sample(criteria, len(criteria)), measure)
        assert permuted.candidates == tuple(shuffled)
        assert np.array_equal(permuted.wins, given.wins[np.ix_(order, order)])
        assert np.array_equal(reordered.wins, given.wins)
        for comparison in (permuted, reordered):
            assert closest_weak_order(comparison).ranks == closest_weak_order(given).ranks
            assert optimal_order_count(comparison) == optimal_order_count(given)
            assert minimum_distance(comparison) == minimum_distance(given)
        assert np.array_equal(permuted._dp[3], given._dp[3][np.ix_(order, order)])  # the realized pairs
        cyclic += minimum_distance(given) > 0
    return cyclic


def test_meta_ranking_is_neutral_on_random_tied_profiles():
    rng = random.Random(3200)
    cyclic = 0
    for _ in range(40):
        alternatives = AlternativeSet(tuple(f"a{i}" for i in range(rng.randint(4, 14))))
        rankings = [nondegenerate_ranking(rng, alternatives) for _ in range(rng.randint(6, 13))]
        criteria = [Criterion(f"c{i}", rng.randint(1, 3), ranking) for i, ranking in enumerate(rankings[:5])]
        candidates = {c.name: c.ranking for c in criteria} | {f"x{i}": r for i, r in enumerate(rankings[5:])}
        cyclic += assert_meta_ranking_is_neutral(candidates, criteria, rng)
    assert cyclic > 20


def test_meta_ranking_is_neutral_on_the_study():
    criteria_csv = bundled_fixtures_dir() / "table6_criteria.csv"
    alternatives, candidates, profile = mio.load_profile(criteria_csv)
    candidates |= mio.load_aligned_ranks(bundled_fixtures_dir() / "table6_aggregates.csv", criteria_csv, alternatives)
    assert assert_meta_ranking_is_neutral(candidates, list(profile.criteria), random.Random(32)) == 0  # acyclic


def majority_outputs(profile, candidates):
    """The profile's majority-level outputs (beats, cycle counts, leagues, every ``AGGREGATES`` method in both
    schemes, the meta weak order under each measure), and the meta wins of ``candidates`` under each measure."""
    structure = build_majority(profile)
    outputs = {"beats": structure.beats.tolist(), "cycles": cycle_counts(structure), "leagues": leagues(structure)}
    outputs |= {(method, scheme): rank(structure, scheme).ranks
                for method, (_, rank) in mio.AGGREGATES.items() for scheme in SCHEMES}
    wins = {}
    for measure in MEASURES:
        comparison = rankings_majority(candidates, list(profile.criteria), measure)
        outputs[measure], wins[measure] = closest_weak_order(comparison).ranks, comparison.wins
    return outputs, wins


def assert_homogeneous_and_splitting(alternatives, criteria, candidates, rng) -> None:
    """Multiplying every weight by c changes no output and scales the meta wins by c; a criterion of weight w
    split into w unit-weight copies changes no output and no wins."""
    outputs, wins = majority_outputs(Profile(alternatives, criteria), candidates)
    for c in (2, 3):
        scaled = [Criterion(criterion.name, c * criterion.weight, criterion.ranking) for criterion in criteria]
        scaled_outputs, scaled_wins = majority_outputs(Profile(alternatives, scaled), candidates)
        assert scaled_outputs == outputs
        assert all(np.array_equal(scaled_wins[measure], c * wins[measure]) for measure in MEASURES)
    at = max(range(len(criteria)), key=lambda i: (criteria[i].weight, rng.random()))  # a heaviest criterion
    split = criteria[at]
    copies = [Criterion(f"{split.name}#{k}", 1, split.ranking) for k in range(split.weight)]
    split_outputs, split_wins = majority_outputs(Profile(alternatives, [*criteria[:at], *copies, *criteria[at + 1:]]),
                                                 candidates)
    assert split_outputs == outputs
    assert all(np.array_equal(split_wins[measure], wins[measure]) for measure in MEASURES)


def test_majority_outputs_are_homogeneous_and_split_on_random_tied_profiles():
    rng = random.Random(3400)
    for _ in range(40):
        alternatives = AlternativeSet(tuple(f"a{i}" for i in range(rng.randint(4, 14))))
        rankings = [nondegenerate_ranking(rng, alternatives) for _ in range(rng.randint(6, 13))]
        criteria = [Criterion(f"c{i}", rng.randint(1, 3), ranking) for i, ranking in enumerate(rankings[:5])]
        candidates = {c.name: c.ranking for c in criteria} | {f"x{i}": r for i, r in enumerate(rankings[5:])}
        assert_homogeneous_and_splitting(alternatives, criteria, candidates, rng)


def test_majority_outputs_are_homogeneous_and_split_on_the_study():
    criteria_csv = bundled_fixtures_dir() / "table6_criteria.csv"
    alternatives, candidates, profile = mio.load_profile(criteria_csv)
    candidates |= mio.load_aligned_ranks(bundled_fixtures_dir() / "table6_aggregates.csv", criteria_csv, alternatives)
    assert_homogeneous_and_splitting(alternatives, list(profile.criteria), candidates, random.Random(34))


def assert_pipeline_is_neutral(alternatives, criteria, candidates, rng) -> None:
    """Permuting the alternative set permutes beats and changes no output compared by name: the cycle counts,
    every ``AGGREGATES`` method in both schemes, the leagues, both meta weak orders and the meta wins."""
    outputs, wins = majority_outputs(Profile(alternatives, criteria), candidates)
    order = rng.sample(range(len(alternatives)), len(alternatives))
    moved = AlternativeSet([alternatives.items[i] for i in order])
    rebuilt = {id(ranking): Ranking(moved, dict(ranking.ranks), ranking.scheme)  # each name keeps its rank
               for ranking in [*candidates.values(), *(c.ranking for c in criteria)]}
    moved_criteria = [Criterion(c.name, c.weight, rebuilt[id(c.ranking)]) for c in criteria]
    moved_outputs, moved_wins = majority_outputs(Profile(moved, moved_criteria),
                                                 {name: rebuilt[id(ranking)] for name, ranking in candidates.items()})
    assert moved_outputs.pop("beats") == np.array(outputs.pop("beats"))[np.ix_(order, order)].tolist()
    assert moved_outputs == outputs
    assert all(np.array_equal(moved_wins[measure], wins[measure]) for measure in MEASURES)


def test_pipeline_is_neutral_on_random_tied_profiles():
    rng = random.Random(3600)
    for _ in range(40):
        alternatives = AlternativeSet(tuple(f"a{i}" for i in range(rng.randint(4, 14))))
        rankings = [nondegenerate_ranking(rng, alternatives) for _ in range(rng.randint(6, 13))]
        criteria = [Criterion(f"c{i}", rng.randint(1, 3), ranking) for i, ranking in enumerate(rankings[:5])]
        candidates = {c.name: c.ranking for c in criteria} | {f"x{i}": r for i, r in enumerate(rankings[5:])}
        assert_pipeline_is_neutral(alternatives, criteria, candidates, rng)


def test_pipeline_is_neutral_on_the_study():
    criteria_csv = bundled_fixtures_dir() / "table6_criteria.csv"
    alternatives, candidates, profile = mio.load_profile(criteria_csv)
    candidates |= mio.load_aligned_ranks(bundled_fixtures_dir() / "table6_aggregates.csv", criteria_csv, alternatives)
    assert_pipeline_is_neutral(alternatives, list(profile.criteria), candidates, random.Random(36))


def counted_calls(monkeypatch, name) -> list[int]:
    """Replace the function ``metarank.<name>`` by a wrapper that records each call's digraph size."""
    calls = []

    def counted(adj, *args):
        calls.append(len(adj))
        return function(adj, *args)

    function = getattr(metarank, name)
    monkeypatch.setattr(metarank, name, counted)
    return calls


def test_one_subset_dp_per_comparison(monkeypatch):
    # and one transitive closure, which the fixed pairs and the DP share
    calls, closures = counted_calls(monkeypatch, "_order_dp"), counted_calls(monkeypatch, "_transitive_closure")
    comparison = make_comparison(
        ["a", "b", "c", "d"],
        [("a", "b"), ("b", "c"), ("c", "a"), ("a", "d"), ("b", "d"), ("c", "d")],
    )
    for _ in range(2):
        assert closest_weak_order(comparison).ranks == {"a": 1, "b": 1, "c": 1, "d": 4}
        assert optimal_order_count(comparison) == 3
        assert len(optimal_linear_orders(comparison)) == 3
        assert minimum_distance(comparison) == 1
    assert calls == closures == [4]


def test_reproduce_runs_the_subset_dp_once(monkeypatch):
    # both study meta digraphs are acyclic: only the coinciding order count needs the DP
    calls = counted_calls(monkeypatch, "_order_dp")
    assert run_reproduce().passed
    assert calls == [15]


def test_reproduce_computes_one_closure_per_measure(monkeypatch):
    calls = counted_calls(monkeypatch, "_transitive_closure")
    assert run_reproduce().passed
    assert calls == [15, 15]
