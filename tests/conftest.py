import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from majorityrank import AlternativeSet, Criterion, MajorityStructure, Profile, Ranking, build_majority, from_scores
from majorityrank import correlation

FIVE = ("x1", "x2", "x3", "x4", "x5")

# weighted majority over the three toy voters below
TOY_BEATS = np.array([
    [0, 1, 0, 1, 0],
    [0, 0, 1, 1, 0],
    [1, 0, 0, 1, 0],
    [0, 0, 0, 0, 1],
    [1, 1, 1, 0, 0],
], dtype=bool)


def in_tree_env() -> dict[str, str]:
    """This process's environment with the in-tree ``src`` first on PYTHONPATH, for child interpreters."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def forget_census() -> None:
    """Empty the pair census's one-slot memo, so that the next census runs its kernel."""
    correlation._last_census = ({}, None, None, ())


@pytest.fixture(autouse=True)
def no_census_memo():
    """Every test starts with an empty census memo, whatever ran before it."""
    forget_census()


def order_ranking(alternatives: AlternativeSet, order) -> Ranking:
    return Ranking(alternatives, {name: i + 1 for i, name in enumerate(order)})


@pytest.fixture
def toy_profile() -> Profile:
    alternatives = AlternativeSet(FIVE)
    orders = [
        ("x1", "x2", "x3", "x4", "x5"),
        ("x4", "x5", "x2", "x3", "x1"),
        ("x5", "x3", "x1", "x2", "x4"),
    ]
    criteria = [Criterion(f"f{i + 1}", 1, order_ranking(alternatives, order)) for i, order in enumerate(orders)]
    return Profile(alternatives, criteria)


@pytest.fixture
def toy_structure(toy_profile):
    return build_majority(toy_profile)


@st.composite
def structures(draw, max_m: int = 12) -> MajorityStructure:
    """Majority structures on 1..max_m alternatives, each pair beating either way or tied."""
    m = draw(st.integers(1, max_m))
    outcomes = draw(st.lists(st.sampled_from("<>="), min_size=m * (m - 1) // 2, max_size=m * (m - 1) // 2))
    beats = np.zeros((m, m), dtype=bool)
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    for (i, j), outcome in zip(pairs, outcomes):
        if outcome == ">":
            beats[i, j] = True
        elif outcome == "<":
            beats[j, i] = True
    return MajorityStructure(AlternativeSet(tuple(f"a{i}" for i in range(m))), beats)


@st.composite
def profiles(draw, max_m: int = 8, max_criteria: int = 4) -> Profile:
    """Weighted profiles whose criteria rank 1..max_m alternatives with ties (few distinct scores)."""
    m = draw(st.integers(1, max_m))
    alternatives = AlternativeSet(tuple(f"a{i}" for i in range(m)))
    criteria = [
        Criterion(f"c{c}", draw(st.integers(1, 3)),
                  from_scores(alternatives, dict(zip(alternatives, draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))))))
        for c in range(draw(st.integers(1, max_criteria)))
    ]
    return Profile(alternatives, criteria)
