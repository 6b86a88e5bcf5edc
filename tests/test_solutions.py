import random

import numpy as np
import pytest
from hypothesis import given, settings

from majorityrank import (
    AlternativeSet,
    InputError,
    MajorityStructure,
    SolutionSet,
    is_externally_stable,
    mes_union,
    minimal_stable_set_containing,
    solve,
    sort_by_solution,
    uncovered_set,
    weak_top_cycle,
)
from majorityrank import solutions
from conftest import structures
from oracles import (
    brute_mes_union,
    brute_uncovered,
    brute_weak_top_cycle,
    certificate_mes_union,
    leak_uncovered,
    noisy_profile_structure,
    random_structure,
)

ABC = AlternativeSet(("a", "b", "c"))
CHAIN = MajorityStructure(ABC, np.triu(np.ones((3, 3), dtype=bool), 1))
CYCLE = MajorityStructure(ABC, np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=bool))


def test_chain_solutions():
    assert uncovered_set(CHAIN).members == {"a"}
    assert mes_union(CHAIN).members == {"a"}
    assert weak_top_cycle(CHAIN).members == {"a"}


def test_cycle_solutions():
    assert uncovered_set(CYCLE).members == {"a", "b", "c"}
    assert mes_union(CYCLE).members == {"a", "b", "c"}
    assert weak_top_cycle(CYCLE).members == {"a", "b", "c"}


def test_toy_structure_solutions(toy_structure):
    full = set(toy_structure.alternatives.items)
    # no pair covers another, every alternative sits in some minimal stable
    # set, and no proper dominant subset exists; brute force agrees
    assert uncovered_set(toy_structure).members == full == brute_uncovered(toy_structure)
    assert mes_union(toy_structure).members == full == brute_mes_union(toy_structure)
    assert weak_top_cycle(toy_structure).members == full == brute_weak_top_cycle(toy_structure)


def test_toy_minimal_stable_sets(toy_structure):
    expected = [{"x1", "x5"}, {"x2", "x5"}, {"x3", "x5"}, {"x4", "x5"}, {"x2", "x3", "x4"}]
    for candidate in expected:
        assert is_externally_stable(toy_structure, candidate)
        assert not any(
            is_externally_stable(toy_structure, candidate - {x}) for x in candidate
        )
    for x in toy_structure.alternatives:
        minimal = minimal_stable_set_containing(toy_structure, x)
        assert x in minimal
        assert is_externally_stable(toy_structure, minimal)
        assert not any(is_externally_stable(toy_structure, minimal - {y}) for y in minimal)


def test_empty_subset_rejected(toy_structure):
    for func in (uncovered_set, mes_union, weak_top_cycle):
        with pytest.raises(InputError):
            func(toy_structure, set())


def test_unknown_kind_rejected(toy_structure):
    with pytest.raises(InputError):
        solve(toy_structure, "banks")
    with pytest.raises(InputError):
        sort_by_solution(toy_structure, "banks")


def test_sorting_on_chain_is_the_chain():
    classes = sort_by_solution(CHAIN, "UC").classes
    assert classes == ({"a"}, {"b"}, {"c"})
    assert sort_by_solution(CHAIN, "UC").ranking().ranks == {"a": 1, "b": 2, "c": 3}


def test_sorting_toy_structure_single_class(toy_structure):
    sorted_classes = sort_by_solution(toy_structure, "UC")
    assert sorted_classes.classes == (frozenset(toy_structure.alternatives.items),)
    assert set(sorted_classes.ranking().ranks.values()) == {1}


def test_undominated_alternatives_belong_everywhere():
    rng = random.Random(31)
    found = 0
    while found < 20:
        ms = random_structure(rng, rng.randint(2, 9))
        undominated = [
            name for i, name in enumerate(ms.alternatives) if not ms.beats[:, i].any()
        ]
        if not undominated:
            continue
        found += 1
        for name in undominated:
            assert name in uncovered_set(ms).members
            assert name in mes_union(ms).members
            assert name in weak_top_cycle(ms).members


def test_solutions_match_brute_force_on_random_structures():
    rng = random.Random(33)
    for _ in range(150):
        m = rng.randint(1, 9)
        ms = random_structure(rng, m, tie_prob=rng.choice([0.0, 0.2, 0.5]))
        subset = None
        if m > 1 and rng.random() < 0.5:
            size = rng.randint(1, m)
            subset = set(rng.sample(ms.alternatives.items, size))
        assert uncovered_set(ms, subset).members == brute_uncovered(ms, subset)
        assert mes_union(ms, subset).members == brute_mes_union(ms, subset)
        assert weak_top_cycle(ms, subset).members == brute_weak_top_cycle(ms, subset)


def test_mes_output_is_externally_stable_union():
    rng = random.Random(35)
    for _ in range(60):
        ms = random_structure(rng, rng.randint(1, 9))
        union = mes_union(ms).members
        assert union
        assert is_externally_stable(ms, union)


def test_wtc_dominance_and_minimality():
    rng = random.Random(37)
    for _ in range(60):
        ms = random_structure(rng, rng.randint(1, 9))
        cycle = weak_top_cycle(ms).members
        outside = set(ms.alternatives.items) - cycle
        index = ms.alternatives.index
        assert all(ms.beats[index(y), index(x)] for y in cycle for x in outside)
        for removed in cycle:
            kept = cycle - {removed}
            if not kept:
                continue
            rest = outside | {removed}
            assert not all(ms.beats[index(y), index(x)] for y in kept for x in rest)


def test_sorting_partitions_and_is_deterministic():
    rng = random.Random(39)
    for _ in range(40):
        ms = random_structure(rng, rng.randint(1, 9))
        for kind in ("UC", "MES", "WTC"):
            sorted_classes = sort_by_solution(ms, kind)
            merged = [name for cls in sorted_classes.classes for name in cls]
            assert sorted(merged) == sorted(ms.alternatives.items)
            again = sort_by_solution(ms, kind)
            assert again.classes == sorted_classes.classes
            remaining = set(ms.alternatives.items)
            for cls in sorted_classes.classes:
                assert solve(ms, kind, remaining).members == cls
                remaining -= cls


def test_sort_refuses_an_empty_solution(monkeypatch):
    monkeypatch.setitem(solutions._SOLVERS, "UC", lambda ms, subset: SolutionSet("UC", frozenset()))
    with pytest.raises(RuntimeError, match="UC selected nothing from 3 alternatives"):
        sort_by_solution(CHAIN, "UC")


def test_solution_products_float32_bound():
    # UC's B Bᵀ and MES's Bᵀ U and B·bad count at most n members of the subset.  float32's 24-bit
    # significand holds every integer up to 2**24 and no further, so each product is exact for
    # n < 2**24; the n x n boolean beats matrix of n = 2**24 alternatives would take 2**48 bytes
    assert np.finfo(np.float32).nmant + 1 == 24
    assert np.float32(2 ** 24 - 1) + np.float32(1) == 2 ** 24
    assert np.float32(2 ** 24) + np.float32(1) == 2 ** 24
    assert np.dtype(bool).itemsize * (2 ** 24) ** 2 == 2 ** 48


def iterated(solution, ms) -> tuple[frozenset[str], ...]:
    """Classes of select-and-exclude sorting with a reference solution function."""
    remaining = set(ms.alternatives.items)
    classes = []
    while remaining:
        classes.append(solution(ms, remaining))
        remaining -= classes[-1]
    return tuple(classes)


def stable(ms: MajorityStructure, candidate) -> bool:
    """Every alternative outside ``candidate`` is beaten by one of its members."""
    inside = np.isin(ms.alternatives.items, list(candidate))
    return bool((inside | ms.beats[inside].any(axis=0)).all())


def test_uc_sort_matches_int64_leak_reference_on_a_large_profile():
    ms = noisy_profile_structure(random.Random(7), 300)
    classes = sort_by_solution(ms, "UC").classes
    assert len(classes) > 10  # many rounds, each on a smaller subset
    assert classes == iterated(leak_uncovered, ms)


def test_mes_sort_matches_certificate_reference_on_a_large_profile():
    # 300 alternatives span witness blocks of 128, 128 and 44
    ms = noisy_profile_structure(random.Random(7), 300)
    classes = sort_by_solution(ms, "MES").classes
    assert len(classes) > 1
    assert classes == iterated(certificate_mes_union, ms)
    union = classes[0]
    for x in [*sorted(union)[:3], *sorted(union)[-3:]]:
        minimal = minimal_stable_set_containing(ms, x)
        assert x in minimal and stable(ms, minimal)
        assert not any(stable(ms, minimal - {y}) for y in minimal)
    outside = sorted(set(ms.alternatives.items) - union)
    for x in outside[:2] + outside[-2:]:
        with pytest.raises(InputError, match="no minimal externally stable set contains"):
            minimal_stable_set_containing(ms, x)


def test_mes_sort_matches_certificate_reference_on_random_structures():
    rng = random.Random(43)
    for _ in range(100):
        ms = random_structure(rng, rng.randint(1, 40), tie_prob=rng.choice([0.0, 0.2, 0.6, 1.0]))
        assert sort_by_solution(ms, "MES").classes == iterated(certificate_mes_union, ms)


def test_mes_error_paths_name_the_offending_alternative():
    with pytest.raises(InputError, match="candidate member 'c' lies outside the subset"):
        is_externally_stable(CHAIN, {"a", "c"}, {"a", "b"})
    with pytest.raises(InputError, match="alternative 'c' lies outside the subset"):
        minimal_stable_set_containing(CHAIN, "c", {"a", "b"})
    with pytest.raises(InputError, match="no minimal externally stable set contains 'b'"):
        minimal_stable_set_containing(CHAIN, "b")


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(structures(max_m=8))
def test_sorts_partition_and_uc_classes_match_enumeration(ms):
    for kind in ("UC", "MES", "WTC"):
        classes = sort_by_solution(ms, kind).classes
        assert all(classes)
        assert sorted(name for cls in classes for name in cls) == sorted(ms.alternatives.items)
    assert sort_by_solution(ms, "UC").classes == iterated(brute_uncovered, ms)
    assert sort_by_solution(ms, "MES").classes == iterated(brute_mes_union, ms)
    union = brute_mes_union(ms)
    for x in ms.alternatives:
        if x not in union:
            with pytest.raises(InputError, match="no minimal externally stable set contains"):
                minimal_stable_set_containing(ms, x)
            continue
        minimal = minimal_stable_set_containing(ms, x)
        assert x in minimal and stable(ms, minimal)
        assert not any(stable(ms, minimal - {y}) for y in minimal)
