import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from majorityrank import (
    AlternativeSet,
    InputError,
    MajorityStructure,
    NumericalError,
    SingletonLeagueError,
    SizeLimitError,
    TransitionMatrix,
    build_majority,
    build_profile,
    bundled_fixtures_dir,
    leagues,
    load_ranks,
    load_weights,
    markovian_ranking,
    sort_by_solution,
    stationary,
    transition_matrix,
)
from majorityrank import markovian
from conftest import structures
from oracles import exact_stationary, random_structure

ABC = AlternativeSet(("a", "b", "c"))
CHAIN = MajorityStructure(ABC, np.triu(np.ones((3, 3), dtype=bool), 1))
CYCLE = MajorityStructure(ABC, np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=bool))


def test_chain_gives_singleton_leagues():
    assert leagues(CHAIN).leagues == ({"a"}, {"b"}, {"c"})
    assert markovian_ranking(CHAIN).ranks == {"a": 1, "b": 2, "c": 3}


def test_cycle_is_one_league_with_uniform_stationary():
    partition = leagues(CYCLE)
    assert partition.leagues == ({"a", "b", "c"},)
    tm = transition_matrix(CYCLE, partition.leagues[0])
    assert np.array_equal(tm.counts, np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]]))
    vector = stationary(tm)
    assert all(p == Fraction(1, 3) for p in vector.probabilities.values())
    assert set(markovian_ranking(CYCLE).ranks.values()) == {1}


def test_toy_structure_stationary(toy_structure):
    partition = leagues(toy_structure)
    assert partition.leagues == (frozenset(toy_structure.alternatives.items),)
    tm = transition_matrix(toy_structure, partition.leagues[0])
    w = tm.matrix
    assert np.allclose(w.sum(axis=0), 1.0)
    assert w[4, 4] == pytest.approx(3 / 4)
    vector = stationary(tm)
    expected = {"x1": Fraction(1, 7), "x2": Fraction(1, 7), "x3": Fraction(1, 7),
                "x4": Fraction(1, 7), "x5": Fraction(3, 7)}
    assert dict(vector.probabilities) == expected
    assert markovian_ranking(toy_structure).ranks == {"x5": 1, "x1": 2, "x2": 2, "x3": 2, "x4": 2}


def test_two_member_league_absorbs():
    ab = AlternativeSet(("a", "b"))
    ms = MajorityStructure(ab, np.array([[0, 1], [0, 0]], dtype=bool))
    # a beats b outright, so the league split separates them
    assert leagues(ms).leagues == ({"a"}, {"b"})
    tm = transition_matrix(ms, {"a", "b"})
    assert np.array_equal(tm.matrix, np.array([[1.0, 1.0], [0.0, 0.0]]))
    vector = stationary(tm)
    assert vector.probabilities["a"] == 1 and vector.probabilities["b"] == 0


def test_tied_pair_league():
    ab = AlternativeSet(("a", "b"))
    ms = MajorityStructure(ab, np.zeros((2, 2), dtype=bool))
    assert leagues(ms).leagues == ({"a", "b"},)
    tm = transition_matrix(ms, {"a", "b"})
    vector = stationary(tm)
    assert vector.probabilities["a"] == vector.probabilities["b"] == Fraction(1, 2)


def test_singleton_league_raises(toy_structure):
    with pytest.raises(SingletonLeagueError):
        transition_matrix(toy_structure, {"x1"})


@pytest.mark.parametrize("counts", [
    [[1.5, 1.0], [0.0, 0.9]],  # fractional counts, once truncated to [[1, 1], [0, 0]]
    [[2, 0, 1], [1, 1, 0], [-1, 1, 1]],  # a negative count with correct column sums
    [[3, 1, 1], [-1, 0, 1], [0, 1, 0]],  # a count above the denominator
])
def test_transition_matrix_rejects_counts_outside_zero_to_denominator(counts):
    members = tuple("abc"[:len(counts)])
    with pytest.raises(InputError, match="integer in"):
        TransitionMatrix(members=members, counts=counts, denominator=len(counts) - 1)


@pytest.mark.parametrize("counts, problem", [
    ([[1, 1, 0], [0, 1, 1], [1, 0, 0]], "every column must sum to the denominator"),
    ([[0, 2, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 0, 1, 0]], "must be 0 or 1, got 2 at ('a', 'b')"),
    ([[1, 1, 0], [1, 0, 0], [0, 1, 2]], "'a' and 'c' neither beat nor tie each other"),
], ids=["column-sum", "off-diagonal-two", "unplayed-pair"])
def test_transition_matrix_rejects_counts_no_league_has(counts, problem):
    members = tuple("abcd"[:len(counts)])
    with pytest.raises(InputError, match=re.escape(problem)):
        TransitionMatrix(members=members, counts=counts, denominator=len(counts) - 1)


@pytest.mark.parametrize("members, counts, denominator, problem", [
    ("ab", [[1, 1, 0], [0, 0, 1], [0, 0, 0]], 1, "counts must be 2x2"),
    ("ab", [[1, 1], [0, 0]], 2, "denominator must equal league size minus one (size >= 2)"),
    ("a", [[0]], 0, "denominator must equal league size minus one (size >= 2)"),
    ("ab", np.array([["1", "1"], ["0", "0"]]), 1, "counts must be integers, got dtype <U1"),
], ids=["shape", "denominator", "one-member", "dtype"])
def test_transition_matrix_rejects_a_shape_denominator_or_dtype_no_league_has(members, counts, denominator, problem):
    with pytest.raises(InputError, match=re.escape(problem)):
        TransitionMatrix(members=tuple(members), counts=counts, denominator=denominator)


def test_lift_rejects_a_row_whose_product_with_n_could_be_inexact():
    # N = [1]: every residual is 0, so only the final max|x| * ||N||_inf < 2**53 check can refuse the rows
    system = np.ones((1, 1))
    assert markovian._lift(system, system, 1, 52, 1) is not None
    assert markovian._lift(system, system, 1, 53, 1) is None


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(structures(), st.randoms(use_true_random=False))
def test_transition_counts_are_beats_plus_ties_plus_wins_on_the_diagonal(ms, rng):
    league = {name for name in ms.alternatives.items if rng.random() < 0.7} | {ms.alternatives.items[0]}
    if len(league) < 2:
        return
    idx = np.array(sorted(ms.alternatives.index(name) for name in league))
    beats, ties = (matrix[np.ix_(idx, idx)].astype(np.int64) for matrix in (ms.beats, ms.ties))
    tm = transition_matrix(ms, league)
    assert tm.members == tuple(ms.alternatives.items[i] for i in idx)
    assert np.array_equal(tm.counts, beats + ties + np.diag(beats.sum(axis=1)))


def test_reducible_chain_is_singular():
    # {a, b} and {c, d} are two closed classes, so the fixed point is not unique; a and c never meet
    counts = [[2, 1, 0, 0], [1, 2, 0, 0], [0, 0, 2, 1], [0, 0, 1, 2]]
    with pytest.raises(InputError, match="'a' and 'c' neither beat nor tie each other"):
        TransitionMatrix(members=("a", "b", "c", "d"), counts=counts, denominator=3)


def test_a_perturbed_inverse_never_changes_the_answer(monkeypatch):
    rng = random.Random(53)
    matrices = [tm for tie_prob in (0.0, 0.2, 0.6, 1.0) for tm in league_matrices(random_structure(rng, 12, tie_prob))]
    inverse = np.linalg.inv
    noise = np.random.default_rng(53)

    def perturbed(a):
        f = inverse(a)
        return f * (1 + 1e-3 * noise.standard_normal(f.shape))

    monkeypatch.setattr(np.linalg, "inv", perturbed)
    for tm in matrices:
        assert dict(stationary(tm).probabilities) == exact_stationary(tm)
    monkeypatch.setattr(np.linalg, "inv", lambda a: np.zeros(a.shape))
    for tm in matrices:
        with pytest.raises(NumericalError, match="every step size"):
            stationary(tm)


def test_step_keeps_every_float64_product_exact():
    assert markovian._MAX_LEAGUE == 2048
    k = markovian._MAX_LEAGUE
    norm = 2 * k - 1  # ||N||_inf of a member that loses to every other
    step = markovian._step(norm)
    assert step >= 20
    residual = 2 * norm  # the bound the lift checks after every product
    x = 2**step * residual + 1  # ||N^-1||_inf <= 1, plus the rounding of rint
    assert x * norm < 2**52  # N x, a factor 2 below 2**53 for the error of the float inverse
    assert 2**step * residual < 2**53  # the scaled residual 2**t r


def test_league_above_the_cap_is_refused_before_elimination(monkeypatch):
    k = markovian._MAX_LEAGUE + 1
    tm = TransitionMatrix(members=tuple(f"t{i}" for i in range(k)),
                          counts=1 - np.eye(k, dtype=np.int64), denominator=k - 1)

    def no_elimination(*args):
        raise AssertionError("elimination started")

    monkeypatch.setattr(np.linalg, "inv", no_elimination)
    with pytest.raises(SizeLimitError, match=str(markovian._MAX_LEAGUE)):
        stationary(tm)


def test_league_of_300_is_an_exact_fixed_point():
    (tm,) = [tm for tm in league_matrices(random_structure(random.Random(59), 300)) if len(tm.members) == 300]
    shares = stationary(tm).probabilities
    denominator = math.lcm(*(p.denominator for p in shares.values()))
    n = [int(shares[name] * denominator) for name in tm.members]
    q = tm.counts.tolist()
    assert all(sum(c * x for c, x in zip(row, n)) == tm.denominator * x for row, x in zip(q, n))
    assert sum(n) == denominator and min(n) > 0


def test_league_partition_matches_wtc_sorting():
    rng = random.Random(41)
    for _ in range(40):
        ms = random_structure(rng, rng.randint(1, 9))
        assert leagues(ms).leagues == sort_by_solution(ms, "WTC").classes


def test_random_league_invariants():
    rng = random.Random(43)
    for _ in range(60):
        ms = random_structure(rng, rng.randint(1, 9))
        ranking = markovian_ranking(ms)
        previous_worst = 0
        for league in leagues(ms).leagues:
            ranks = [ranking.ranks[name] for name in league]
            assert min(ranks) > previous_worst  # strict league dominance
            previous_worst = max(ranks)
            if len(league) == 1:
                continue
            tm = transition_matrix(ms, league)
            assert (tm.counts.sum(axis=0) == tm.denominator).all()
            vector = stationary(tm)
            probabilities = vector.as_floats()
            assert probabilities.sum() == pytest.approx(1.0, abs=1e-12)
            assert (probabilities > 1e-12).all()  # strictly positive within a league
            residual = np.abs(tm.matrix @ probabilities - probabilities).max()
            assert residual <= 1e-10


def stacked_cycles(n: int) -> MajorityStructure:
    """n Condorcet 3-cycles, each beating every later one."""
    names = AlternativeSet(tuple(f"c{i}" for i in range(3 * n)))
    beats = np.zeros((3 * n, 3 * n), dtype=bool)
    for block in range(n):
        a, b, c = 3 * block, 3 * block + 1, 3 * block + 2
        beats[a, b] = beats[b, c] = beats[c, a] = True
        beats[a:c + 1, c + 1:] = True
    return MajorityStructure(names, beats)


def fully_tied(m: int) -> MajorityStructure:
    names = AlternativeSet(tuple(f"t{i}" for i in range(m)))
    return MajorityStructure(names, np.zeros((m, m), dtype=bool))


def league_matrices(ms: MajorityStructure):
    return [transition_matrix(ms, league) for league in leagues(ms).leagues if len(league) > 1]


def test_stationary_equals_fraction_oracle_on_random_leagues():
    rng = random.Random(47)
    structures = [CYCLE, stacked_cycles(4), fully_tied(2), fully_tied(9)]
    for tie_prob in (0.0, 0.2, 0.6, 1.0):
        structures += [random_structure(rng, rng.randint(2, 30), tie_prob) for _ in range(25)]
    matrices = [tm for ms in structures for tm in league_matrices(ms)]
    assert len(matrices) >= 80
    for tm in matrices:
        assert dict(stationary(tm).probabilities) == exact_stationary(tm)
    assert set(stationary(league_matrices(fully_tied(9))[0]).probabilities.values()) == {Fraction(1, 9)}


def test_stationary_equals_fraction_oracle_on_study_league():
    fixtures = bundled_fixtures_dir()
    alternatives, criteria = load_ranks(fixtures / "table6_criteria.csv")
    study = build_majority(build_profile(alternatives, criteria, load_weights(fixtures / "weights.cfg")))
    (tm,) = [tm for tm in league_matrices(study) if len(tm.members) == 135]
    vector = dict(stationary(tm).probabilities)
    assert vector == exact_stationary(tm)
    assert len(set(vector.values())) == 135


def oracle_ranking(ms: MajorityStructure) -> dict[str, int]:
    """Dense ranks from league order, then from the oracle's exact probabilities."""
    ranks: dict[str, int] = {}
    offset = 0
    for league in leagues(ms).leagues:
        if len(league) == 1:
            shares = {next(iter(league)): Fraction(1)}
        else:
            shares = exact_stationary(transition_matrix(ms, league))
        levels = sorted(set(shares.values()), reverse=True)
        ranks.update({name: offset + levels.index(p) + 1 for name, p in shares.items()})
        offset += len(levels)
    return ranks


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(structures())
def test_markovian_ranking_matches_oracle_vectors(ms):
    assert dict(markovian_ranking(ms).ranks) == oracle_ranking(ms)


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(st.integers(2, 40), st.floats(0, 1), st.randoms(use_true_random=False))
def test_stationary_matches_oracle_on_title_passing_chains(k, tie_prob, rng):
    # the whole structure as one chain: reducible ones have exactly one closed class
    ms = random_structure(rng, k, tie_prob)
    tm = transition_matrix(ms, set(ms.alternatives.items))
    assert dict(stationary(tm).probabilities) == exact_stationary(tm)


def test_one_float_inverse_per_league_on_the_study(monkeypatch):
    fixtures = bundled_fixtures_dir()
    alternatives, criteria = load_ranks(fixtures / "table6_criteria.csv")
    study = build_majority(build_profile(alternatives, criteria, load_weights(fixtures / "weights.cfg")))
    inverse, sizes = np.linalg.inv, []

    def counted(a):
        sizes.append(len(a))
        return inverse(a)

    monkeypatch.setattr(np.linalg, "inv", counted)
    markovian_ranking(study)
    assert sorted(sizes) == sorted(len(league) for league in leagues(study).leagues if len(league) > 1)
