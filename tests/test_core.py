import dataclasses
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from majorityrank import (
    AlternativeSet,
    Criterion,
    InputError,
    Profile,
    Ranking,
    build_majority,
    from_scores,
    rankings_majority,
)
from majorityrank.core import COMPETITION, DENSE, MAX_RANK, MAX_TOTAL_WEIGHT, SCHEMES, _labels, from_ranks
from oracles import brute_labels

ABC = AlternativeSet(("a", "b", "c"))


def test_alternative_set_rejects_duplicates_and_empties():
    with pytest.raises(InputError):
        AlternativeSet(("a", "a"))
    with pytest.raises(InputError):
        AlternativeSet(("a", ""))
    with pytest.raises(InputError):
        AlternativeSet(())


def test_from_scores_strict_ordering():
    ranking = from_scores(ABC, {"a": 5.0, "b": 3.0, "c": 1.0})
    assert ranking.ranks == {"a": 1, "b": 2, "c": 3}


def test_from_scores_dense_tie_compaction():
    ranking = from_scores(ABC, {"a": 2.0, "b": 2.0, "c": 1.0})
    assert ranking.ranks == {"a": 1, "b": 1, "c": 2}


def test_from_scores_competition_skips_consumed_positions():
    ranking = from_scores(ABC, {"a": 2.0, "b": 2.0, "c": 1.0}, scheme="competition")
    assert ranking.ranks == {"a": 1, "b": 1, "c": 3}


def test_from_scores_rejects_missing_and_non_finite():
    with pytest.raises(InputError, match="c"):
        from_scores(ABC, {"a": 1.0, "b": 2.0})
    with pytest.raises(InputError, match="b"):
        from_scores(ABC, {"a": 1.0, "b": float("nan"), "c": 0.0})


@pytest.mark.parametrize("values, problem", [
    ({"a": 1.0, "b": 10 ** 400, "c": None}, f"value for alternative 'b' is not a finite number: {10 ** 400}"),
    ({"a": 1.0, "b": None, "c": 10 ** 400}, "value for alternative 'b' is not a finite number: None"),
    ({"a": "one", "b": float("nan"), "c": 0.0}, "value for alternative 'a' is not a finite number: 'one'"),
    ({"a": 1.0, "b": float("-inf")}, "value for alternative 'b' is not a finite number: -inf"),
    ({"b": None, "c": 1.0}, "no value for alternative 'a'"),
], ids=["overflow", "none", "str", "infinite-before-missing", "missing-first"])
def test_from_scores_names_the_first_bad_value_in_set_order(values, problem):
    with pytest.raises(InputError) as excinfo:
        from_scores(ABC, values)
    assert str(excinfo.value) == problem


def test_from_scores_rounds_as_python_does():
    # 2.675 is stored just below itself, so round(2.675, 2) is 2.67; np.round gives 2.68 and would tie the two
    ranking = from_scores(AlternativeSet(("a", "b")), {"a": 2.675, "b": 2.68}, decimals=2)
    assert ranking.ranks == {"a": 2, "b": 1}


def test_from_scores_optional_rounding_controls_ties():
    close = {"a": 0.1231, "b": 0.1232, "c": 0.5}
    assert from_scores(ABC, close).distinct_positions() == 3
    assert from_scores(ABC, close, decimals=3).distinct_positions() == 2


def test_ranking_validation():
    with pytest.raises(InputError):
        Ranking(ABC, {"a": 1, "b": 2})  # missing c
    with pytest.raises(InputError):
        Ranking(ABC, {"a": 0, "b": 1, "c": 2})
    with pytest.raises(InputError, match=f"rank of 'a' must be at most {2 ** 63 - 1}, got {2 ** 63}"):
        Ranking(ABC, {"a": 2 ** 63, "b": 1, "c": 2})
    assert Ranking(ABC, {"a": 2 ** 63 - 1, "b": 1, "c": 2}).rank_vector().tolist() == [2 ** 63 - 1, 1, 2]
    with pytest.raises(InputError):
        Ranking(ABC, {"a": 1, "b": 1, "c": 2, "d": 3})


def test_scheme_invariance_of_comparisons():
    rng = random.Random(7)
    names = AlternativeSet(tuple(f"v{i}" for i in range(8)))
    for _ in range(50):
        values = {name: float(rng.randint(0, 5)) for name in names}
        dense = from_scores(names, values, scheme="dense")
        competition = from_scores(names, values, scheme="competition")
        assert dense.conforms_to_scheme()
        assert competition.conforms_to_scheme()
        # both number one weak order: every pair compares the same way
        signs = [np.sign(r.rank_vector()[:, None] - r.rank_vector()[None, :]) for r in (dense, competition)]
        assert np.array_equal(*signs)


def test_from_scores_order_level_idempotence():
    rng = random.Random(11)
    names = AlternativeSet(tuple(f"v{i}" for i in range(9)))
    for _ in range(50):
        values = {name: float(rng.randint(0, 4)) for name in names}
        first = from_scores(names, values)
        again = from_scores(names, {a: -float(r) for a, r in first.ranks.items()})
        assert again.ranks == first.ranks


def test_relabeling_between_schemes():
    ranking = Ranking(ABC, {"a": 4, "b": 4, "c": 9})  # sparse labels, valid order
    assert from_ranks(ABC, ranking.rank_vector(), DENSE).ranks == {"a": 1, "b": 1, "c": 2}
    assert from_ranks(ABC, ranking.rank_vector(), COMPETITION).ranks == {"a": 1, "b": 1, "c": 3}
    assert not ranking.conforms_to_scheme()


def test_criterion_and_profile_validation():
    ranking = from_scores(ABC, {"a": 3.0, "b": 2.0, "c": 1.0})
    with pytest.raises(InputError):
        Criterion("w", 0, ranking)
    other = from_scores(AlternativeSet(("a", "b")), {"a": 1.0, "b": 2.0})
    with pytest.raises(InputError):
        Profile(ABC, [Criterion("c1", 1, ranking), Criterion("c2", 1, other)])
    profile = Profile(ABC, [Criterion("c1", 2, ranking), Criterion("c2", 1, ranking)])
    assert profile.total_weight == 3


@pytest.mark.parametrize("make, problem", [
    (lambda: Ranking(ABC, {"a": 1, "b": 2, "c": 3}, scheme="olympic"), "unknown ranking scheme 'olympic'"),
    (lambda: Profile(ABC, []), "profile needs at least one criterion"),
    (lambda: Profile(ABC, [Criterion("c", 1, from_ranks(ABC, {"a": 1, "b": 2, "c": 3}))] * 2),
     "duplicate criterion name 'c'"),
], ids=["scheme", "no-criterion", "duplicate-criterion"])
def test_rankings_and_profiles_reject_unknown_schemes_and_criterion_lists(make, problem):
    with pytest.raises(InputError, match=f"^{problem}$"):
        make()


def test_ranks_above_two_to_the_53_stay_distinct():
    names = AlternativeSet(("a", "b", "c", "d"))
    big = {"a": 2 ** 60, "b": 2 ** 60 + 1, "c": 2 ** 53 + 1, "d": 2 ** 63 - 1}
    expected = {"a": 2, "b": 3, "c": 1, "d": 4}  # four distinct ranks: dense and competition agree
    ranking = Ranking(names, big)
    for scheme in SCHEMES:
        assert from_ranks(names, ranking.rank_vector(), scheme).ranks == expected
        assert from_ranks(names, big, scheme=scheme).ranks == expected
        assert not Ranking(names, big, scheme=scheme).conforms_to_scheme()
        assert Ranking(names, expected, scheme=scheme).conforms_to_scheme()


@pytest.mark.parametrize("ranks, problem", [
    ({"a": 1, "b": True, "c": 2}, "rank of 'b' must be a positive integer, got True"),
    ({"a": 1, "b": np.bool_(True), "c": 2}, "rank of 'b' must be a positive integer, got np.True_"),
    ({"a": np.uint64(2 ** 63), "b": 1, "c": 2},
     f"rank of 'a' must be at most {2 ** 63 - 1}, got np.uint64(9223372036854775808)"),
    ({"a": 1, "b": "2", "c": 0}, "rank of 'b' must be a positive integer, got '2'"),  # never reaches min()
], ids=["bool", "numpy-bool", "uint64-past-int64", "str-among-ints"])
def test_ranking_names_the_first_rank_that_is_not_a_positive_int64(ranks, problem):
    with pytest.raises(InputError) as excinfo:
        Ranking(ABC, ranks)
    assert str(excinfo.value) == problem


def test_ranking_accepts_mixed_integer_types():
    ranking = Ranking(ABC, {"a": np.int64(1), "b": 2, "c": np.uint8(3)})
    assert ranking.ranks == {"a": 1, "b": 2, "c": 3}
    assert all(type(rank) is int for rank in ranking.ranks.values())


_INT_KINDS = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)


@st.composite
def rank_vectors(draw) -> np.ndarray:
    """Rank vectors of any numpy integer kind, drawn from a small pool so that most hold ties."""
    kind = draw(st.sampled_from(_INT_KINDS))
    top = min(int(np.iinfo(kind).max), MAX_RANK)
    pool = draw(st.lists(st.one_of(st.just(top), st.integers(1, top)), min_size=1, max_size=4))
    m = draw(st.integers(1, 8))
    return np.array(draw(st.lists(st.sampled_from(pool), min_size=m, max_size=m)), dtype=kind)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(rank_vectors(), st.sampled_from(SCHEMES))
def test_a_mapping_and_its_vector_give_equal_rankings(vector, scheme):
    names = AlternativeSet(f"v{i}" for i in range(len(vector)))
    by_vector = Ranking(names, vector, scheme)
    expected = vector.tolist()
    for mapping in (dict(zip(names, vector)), dict(zip(names, expected))):  # numpy scalars and Python ints
        by_mapping = Ranking(names, mapping, scheme)
        assert by_mapping == by_vector
        assert by_mapping.ranks == by_vector.ranks == dict(zip(names, expected))
        assert by_mapping.rank_vector().tolist() == by_vector.rank_vector().tolist() == expected
        assert by_mapping.conforms_to_scheme() == by_vector.conforms_to_scheme() == \
            (expected == brute_labels(expected, scheme))
    assert by_vector.rank_vector().dtype == np.int64 and not by_vector.rank_vector().flags.writeable
    if vector.flags.writeable:  # the ranking holds a copy, not the caller's array
        vector[0] = 1
    assert by_vector.rank_vector().tolist() == expected
    other = COMPETITION if scheme == DENSE else DENSE
    assert Ranking(names, by_vector.rank_vector(), other) != by_vector


@pytest.mark.parametrize("ranks, scheme, problem", [
    (np.array([1, 2]), DENSE, "ranking needs one rank for each of 3 alternatives, got shape (2,)"),
    (np.array([[1, 2, 3]]), DENSE, "ranking needs one rank for each of 3 alternatives, got shape (1, 3)"),
    (np.array([1.0, 2.0, 3.0]), DENSE, "rank of 'a' must be a positive integer, got np.float64(1.0)"),
    (np.array([True, False, True]), DENSE, "rank of 'a' must be a positive integer, got np.True_"),
    (np.array([1, 0, 2]), DENSE, "rank of 'b' must be a positive integer, got np.int64(0)"),
    (np.array([1, 2 ** 63, 2], dtype=np.uint64), DENSE,
     f"rank of 'b' must be at most {MAX_RANK}, got np.uint64(9223372036854775808)"),
    ({"a": 1, "b": 2}, DENSE, "ranking does not match alternative set (missing ['c'], extra [])"),
    ({"a": 1, "b": 2, "c": 3, "d": 4}, DENSE, "ranking does not match alternative set (missing [], extra ['d'])"),
    (np.array([1, 2, 3]), "olympic", "unknown ranking scheme 'olympic'"),
], ids=["short", "matrix", "float", "bool", "zero", "uint64-past-int64", "missing", "extra", "scheme"])
def test_ranking_and_from_ranks_reject_what_no_rank_vector_holds(ranks, scheme, problem):
    for make in (Ranking, from_ranks):
        with pytest.raises(InputError) as excinfo:
            make(ABC, ranks, scheme)
        assert str(excinfo.value) == problem


def test_ranks_mapping_is_read_only():
    ranking = Ranking(ABC, np.array([2, 1, 2]))
    assert list(ranking.ranks.items()) == [("a", 2), ("b", 1), ("c", 2)]
    with pytest.raises(TypeError):
        ranking.ranks["a"] = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        ranking.ranks = {"a": 1, "b": 1, "c": 1}


def test_positions_reads_names_in_their_order():
    assert ABC.positions(["c", "a", "b"]).tolist() == [2, 0, 1]
    assert ABC.positions(frozenset()).dtype == np.intp
    with pytest.raises(InputError, match="^unknown alternative 'zz'$"):
        ABC.positions(["a", "zz"])


def test_rank_vector_is_read_only():
    vector = Ranking(ABC, {"a": 1, "b": 2, "c": 2}).rank_vector()
    with pytest.raises(ValueError):
        vector[0] = 3


def test_from_ranks_rejects_a_missing_alternative_and_a_non_integer_rank():
    with pytest.raises(InputError, match="'c'"):
        from_ranks(ABC, {"a": 1, "b": 2})
    with pytest.raises(InputError, match="positive integer"):
        from_ranks(ABC, {"a": 1, "b": 2.5, "c": 3})


def _tied_draws(rng, pool, m):
    """m draws from a small pool, so that most vectors hold ties."""
    return [rng.choice(pool) for _ in range(m)]


def test_labels_match_the_definitional_oracle():
    rng = random.Random(5)
    floats = [-0.0, 0.0, 1.5, -2.25, 1e300, -1e-300, 3.0, 2.0 ** 60, 2.0 ** 60 + 2 ** 8]
    near_int64 = [2 ** 63 - 1, 2 ** 63 - 2, 2 ** 62, 2 ** 53 + 1, 2 ** 53, 1, 2, 3]
    big = [2 ** 100, 2 ** 100 + 1, -(2 ** 100), 7, 0, 10 ** 40, Fraction(1, 3), Fraction(2, 6)]
    for _ in range(200):
        m = rng.randint(1, 9)
        names = AlternativeSet(tuple(f"v{i}" for i in range(m)))
        for scheme in SCHEMES:
            scores = _tied_draws(rng, floats, m)
            assert list(from_scores(names, dict(zip(names, scores)), scheme=scheme).ranks.values()) == \
                brute_labels([-v for v in scores], scheme)
            ranks = _tied_draws(rng, near_int64, m)
            assert list(from_ranks(names, dict(zip(names, ranks)), scheme=scheme).ranks.values()) == \
                brute_labels(ranks, scheme)
            for labels in (ranks, brute_labels(ranks, scheme)):  # a draw, and its conforming relabelling
                conforms = Ranking(names, dict(zip(names, labels)), scheme=scheme).conforms_to_scheme()
                assert conforms == (labels == brute_labels(labels, scheme))
            keys = _tied_draws(rng, big, m)
            assert _labels(np.array(keys, dtype=object), scheme).tolist() == brute_labels(keys, scheme)


def _bound_profile(second_weight):
    names = AlternativeSet(("a", "b", "c"))
    return [Criterion("c1", 2 ** 62, Ranking(names, {"a": 1, "b": 2, "c": 3})),
            Criterion("c2", second_weight, Ranking(names, {"a": 3, "b": 1, "c": 2}))]


def test_total_weight_is_bounded_by_the_int64_vote_accumulator():
    criteria = _bound_profile(2 ** 62 - 1)  # total weight exactly MAX_TOTAL_WEIGHT
    profile = Profile(criteria[0].ranking.alternatives, criteria)
    assert profile.total_weight == MAX_TOTAL_WEIGHT
    structure = build_majority(profile)
    assert structure.beats.tolist() == [[False, True, True], [False, False, True], [False, False, False]]
    assert rankings_majority({"x": criteria[0].ranking, "y": criteria[1].ranking}, criteria).wins.tolist() == \
        [[0, 2 ** 62], [2 ** 62 - 1, 0]]
    over = _bound_profile(2 ** 62)
    with pytest.raises(InputError, match=f"total criterion weight {2 ** 63} exceeds {MAX_TOTAL_WEIGHT}"):
        Profile(over[0].ranking.alternatives, over)
    with pytest.raises(InputError, match="exceeds"):
        rankings_majority({"x": over[0].ranking, "y": over[1].ranking}, over)
