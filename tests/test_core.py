import random

import pytest

from majorityrank import (
    AlternativeSet,
    Comparison,
    Criterion,
    InputError,
    Profile,
    Ranking,
    compare,
    from_scores,
)

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


def test_from_scores_optional_rounding_controls_ties():
    close = {"a": 0.1231, "b": 0.1232, "c": 0.5}
    assert from_scores(ABC, close).distinct_positions() == 3
    assert from_scores(ABC, close, decimals=3).distinct_positions() == 2


def test_compare_basic():
    ranking = Ranking(ABC, {"a": 1, "b": 2, "c": 2})
    assert compare(ranking, "a", "b") is Comparison.BETTER
    assert compare(ranking, "b", "c") is Comparison.TIED
    assert compare(ranking, "c", "a") is Comparison.WORSE
    with pytest.raises(InputError):
        compare(ranking, "a", "zz")


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
        for a in names:
            for b in names:
                assert dense.compare(a, b) == competition.compare(a, b)


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
    assert ranking.to_dense().ranks == {"a": 1, "b": 1, "c": 2}
    assert ranking.to_competition().ranks == {"a": 1, "b": 1, "c": 3}
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
