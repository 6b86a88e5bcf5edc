import random

import numpy as np
import pytest
from hypothesis import given, settings

from majorityrank import (
    AlternativeSet,
    InputError,
    MajorityStructure,
    copeland_ranking,
    copeland_scores,
)
from conftest import structures
from oracles import random_structure


def test_toy_scores_version_2(toy_structure):
    assert copeland_scores(toy_structure, 2).scores == {"x1": 2, "x2": 2, "x3": 2, "x4": 1, "x5": 3}


def test_toy_scores_version_1(toy_structure):
    assert copeland_scores(toy_structure, 1).scores == {"x1": 0, "x2": 0, "x3": 0, "x4": -2, "x5": 2}


def test_toy_ranking_version_2(toy_structure):
    ranking = copeland_ranking(toy_structure, 2)
    assert ranking.ranks == {"x5": 1, "x1": 2, "x2": 2, "x3": 2, "x4": 3}


def test_complete_tie_structure_scores_zero():
    names = AlternativeSet(("a", "b", "c"))
    ms = MajorityStructure(names, np.zeros((3, 3), dtype=bool))
    assert set(copeland_scores(ms, 1).scores.values()) == {0}


def test_version_validation(toy_structure):
    with pytest.raises(InputError):
        copeland_scores(toy_structure, 4)


def test_score_identity_and_matrix_form():
    rng = random.Random(21)
    for _ in range(60):
        ms = random_structure(rng, rng.randint(1, 9))
        m = len(ms)
        s1 = copeland_scores(ms, 1).scores
        s2 = copeland_scores(ms, 2).scores
        s3 = copeland_scores(ms, 3).scores
        ones = np.ones(m, dtype=np.int64)
        wins_vector = ms.beats.astype(np.int64) @ ones
        non_loss_vector = (np.ones((m, m), dtype=np.int64) - ms.beats.T.astype(np.int64)) @ ones
        for i, name in enumerate(ms.alternatives):
            assert s1[name] == s2[name] + s3[name] - m
            assert s2[name] == int(wins_vector[i])
            assert s3[name] == int(non_loss_vector[i])


def test_versions_agree_without_ties():
    rng = random.Random(22)
    for _ in range(40):
        ms = random_structure(rng, rng.randint(2, 9), tie_prob=0.0)
        rankings = [copeland_ranking(ms, v).ranks for v in (1, 2, 3)]
        assert rankings[0] == rankings[1] == rankings[2]


def test_undominated_alternative_tops_non_loss_scores():
    # an alternative nobody beats maximises version 3 always, and every
    # version when there are no ties; with ties it may trail in 1 and 2
    # (tying everyone scores 0 wins while an unbeaten winner scores more)
    rng = random.Random(23)
    seen = 0
    while seen < 15:
        tie_prob = rng.choice([0.0, 0.3])
        ms = random_structure(rng, rng.randint(2, 8), tie_prob=tie_prob)
        undominated = [i for i in range(len(ms)) if not ms.beats[:, i].any()]
        if not undominated:
            continue
        seen += 1
        for i in undominated:
            name = ms.alternatives.items[i]
            scores3 = copeland_scores(ms, 3).scores
            assert scores3[name] == max(scores3.values()) == len(ms)
            if tie_prob == 0.0:
                for version in (1, 2):
                    scores = copeland_scores(ms, version).scores
                    assert scores[name] == max(scores.values())


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(structures(max_m=8))
def test_score_identity_holds_for_every_structure(ms):
    s1, s2, s3 = (copeland_scores(ms, v).scores for v in (1, 2, 3))
    assert all(s1[name] == s2[name] + s3[name] - len(ms) for name in ms.alternatives)
