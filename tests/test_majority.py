import dataclasses
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

from majorityrank import (
    AlternativeSet,
    Criterion,
    InputError,
    MajorityStructure,
    NumericalError,
    Profile,
    SizeLimitError,
    build_majority,
    bundled_fixtures_dir,
    count_cycles,
    cycle_counts,
    from_scores,
    sections,
)
from majorityrank import majority
from majorityrank.core import MAX_TOTAL_WEIGHT
from majorityrank.io import load_profile
from majorityrank.majority import _digit_shifts, _max_exact_size
from conftest import TOY_BEATS, order_ranking, structures
from oracles import brute_cycles, int64_cycles, naive_majority, noisy_profile_structure, random_structure


def test_toy_profile_majority_matrix(toy_structure):
    assert np.array_equal(toy_structure.beats, TOY_BEATS)
    assert not toy_structure.ties.any()


def test_weighted_pair_wins():
    ab = AlternativeSet(("a", "b"))
    better = order_ranking(ab, ("a", "b"))
    worse = order_ranking(ab, ("b", "a"))
    ms = build_majority(Profile(ab, [Criterion("c1", 2, better), Criterion("c2", 1, worse)]))
    assert ms.beats[0, 1] and not ms.beats[1, 0] and not ms.ties[0, 1]


def test_equal_weights_tie():
    ab = AlternativeSet(("a", "b"))
    ms = build_majority(Profile(ab, [
        Criterion("c1", 1, order_ranking(ab, ("a", "b"))),
        Criterion("c2", 1, order_ranking(ab, ("b", "a"))),
    ]))
    assert ms.ties[0, 1] and ms.ties[1, 0] and not ms.beats.any()


def test_structure_validation_rejects_bad_matrices():
    sym = np.array([[0, 1], [1, 0]], dtype=bool)
    with pytest.raises(InputError, match="^majority matrix must be asymmetric$"):
        MajorityStructure(AlternativeSet(("a", "b")), sym)


@pytest.mark.parametrize("beats, problem", [
    (np.zeros((3, 3)), "matrices must be 2x2"),
    ([[1, 0], [0, 0]], "majority matrix must have a zero diagonal"),
], ids=["shape", "diagonal"])
def test_structure_rejects_matrices_of_the_wrong_shape_diagonal_or_symmetry(beats, problem):
    with pytest.raises(InputError, match=f"^{problem}$"):
        MajorityStructure(AlternativeSet(("a", "b")), beats)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(structures())
def test_ties_are_the_read_only_symmetric_complement_of_beats(ms):
    off = ~np.eye(len(ms), dtype=bool)
    assert ms.ties.dtype == bool and not ms.ties.flags.writeable
    assert np.array_equal(ms.ties, ms.ties.T)
    assert not (ms.ties & ms.beats).any() and not (ms.ties & ms.beats.T).any()
    assert np.array_equal(ms.beats | ms.beats.T | ms.ties, off)
    assert ms.ties is ms.ties  # derived once, then cached
    with pytest.raises(dataclasses.FrozenInstanceError):
        ms.ties = ms.beats


def test_restrict_gives_the_whole_structure_uncopied_and_a_subset_gathered():
    rng = random.Random(19)
    ms = random_structure(rng, 9, 0.3)
    names = ms.alternatives.items
    for subset in (None, set(names)):
        idx, beats = ms.restrict(subset)
        assert beats is ms.beats and idx.tolist() == list(range(9))
    subset = {names[7], names[2], names[4]}
    idx, beats = ms.restrict(subset)
    assert idx.tolist() == [2, 4, 7]
    assert np.array_equal(beats, ms.beats[np.ix_(idx, idx)])
    with pytest.raises(InputError, match="subset must not be empty"):
        ms.restrict(set())


@pytest.mark.parametrize("entry", [-1, 0.5, float("nan"), 2], ids=["minus-one", "half", "nan", "two"])
def test_structure_rejects_entries_other_than_zero_or_one(entry):
    with pytest.raises(InputError, match=f"^majority matrix entries must be 0 or 1, got {entry}$"):
        MajorityStructure(AlternativeSet(("a", "b")), [[0, entry], [0, 0]])


def test_structure_accepts_zero_one_ints_and_floats():
    names = AlternativeSet(("a", "b"))
    for beats in ([[0, 1], [0, 0]], [[0.0, 1.0], [0.0, 0.0]], np.array([[0, 1], [0, 0]], dtype=np.uint8)):
        ms = MajorityStructure(names, beats)
        assert ms.beats.dtype == bool and ms.beats.tolist() == [[False, True], [False, False]]


# both sides of every signed and unsigned integer width, up to the largest total weight allowed
@pytest.mark.parametrize("total", [
    127, 128, 255, 256, 32767, 32768, 65535, 65536,
    2 ** 31 - 1, 2 ** 31, 2 ** 32 - 1, 2 ** 32, MAX_TOTAL_WEIGHT,
])
def test_vote_accumulator_holds_the_total_weight_at_every_width_boundary(total):
    names = AlternativeSet(tuple("abcd"))
    up, down = order_ranking(names, "abcd"), order_ranking(names, "dcba")
    flat = from_scores(names, dict.fromkeys(names, 0.0))
    half = total // 2
    rng = random.Random(total)
    profiles = [
        [Criterion("all", total, up)],  # every strict pair carries the whole weight
        [Criterion("up", half, up), Criterion("down", total - half, down)],  # decided by one vote when total is odd
        # exact half-weight ties on every pair; an odd remainder sits on a criterion that ties everything
        [Criterion("up", half, up), Criterion("down", half, down)] + [Criterion("flat", 1, flat)] * (total % 2),
    ]
    for _ in range(10):  # three random tied rankings whose weights sum to the total
        low, high = sorted(rng.sample(range(1, total), 2))
        profiles.append([
            Criterion(f"c{i}", w, from_scores(names, {n: float(rng.randint(0, 2)) for n in names}))
            for i, w in enumerate((low, high - low, total - high))
        ])
    for _ in range(5):  # half the weight against random tied rankings sharing the other half
        profiles.append([Criterion("half", half, up)] + [
            Criterion(f"c{i}", w, from_scores(names, {n: float(rng.randint(0, 1)) for n in names}))
            for i, w in enumerate((half // 2, total - half - half // 2))
        ])
    for criteria in profiles:
        profile = Profile(names, criteria)
        assert profile.total_weight == total
        (beats, ties), ms = naive_majority(profile), build_majority(profile)
        assert np.array_equal(ms.beats, beats) and np.array_equal(ms.ties, ties)


def test_sections_read_off(toy_structure):
    result = sections(toy_structure, "x5")
    assert result.lower == {"x1", "x2", "x3"}
    assert result.upper == {"x4"}
    assert result.horizon == set()
    with pytest.raises(InputError):
        sections(toy_structure, "nope")


def test_sections_on_chain_and_ties():
    abc = AlternativeSet(("a", "b", "c"))
    chain = MajorityStructure(abc, np.triu(np.ones((3, 3), dtype=bool), 1))
    mid = sections(chain, "b")
    assert mid.lower == {"c"} and mid.upper == {"a"} and mid.horizon == set()

    ab = AlternativeSet(("a", "b"))
    tied = MajorityStructure(ab, np.zeros((2, 2), dtype=bool))
    both = sections(tied, "a")
    assert both.lower == set() and both.upper == set() and both.horizon == {"b"}


def test_cycles_on_transitive_chain_are_zero():
    names = AlternativeSet(tuple("abcd"))
    chain = MajorityStructure(names, np.triu(np.ones((4, 4), dtype=bool), 1))
    assert [count_cycles(chain, k) for k in (3, 4, 5)] == [0, 0, 0]


def test_toy_profile_three_cycles(toy_structure):
    # enumeration finds exactly x1x2x3, x1x4x5, x2x4x5, x3x4x5
    assert brute_cycles(toy_structure, 3) == 4
    assert count_cycles(toy_structure, 3) == 4


def test_cycle_length_bounds(toy_structure):
    for bad in (2, 6, 0):
        with pytest.raises(InputError):
            count_cycles(toy_structure, bad)


@pytest.mark.parametrize("k, limit", [(3, 2097153), (4, 55110), (5, 6210)])
def test_cycle_count_size_limit_names_the_per_k_bound(k, limit):
    class Oversized:  # count_cycles checks the size before it reads any matrix
        def __len__(self):
            return limit + 1

    # The int64 trace is at most the m!/(m-k)! ordered k-tuples of distinct
    # vertices and must stay below 2**63; that binds first for every k.  The
    # float64 values (A^3 columns and elementwise products), at most
    # m**(k-2), stay far below 2**53 at the limit.
    assert math.perm(limit, k) < 2 ** 63 <= math.perm(limit + 1, k)
    assert (limit + 1) ** (k - 2) < 2 ** 53
    with pytest.raises(SizeLimitError) as excinfo:
        count_cycles(Oversized(), k)
    assert str(excinfo.value) == f"counting {k}-cycles supports at most {limit} alternatives, got {limit + 1}"


def test_digit_products_stay_exact_at_the_5_cycle_cap():
    m = _max_exact_size(5)
    s, shifts = _digit_shifts(m)
    assert (m, s, shifts.tolist()) == (6210, 11, [0, 11])
    # the digit products' entries and BLAS partial sums are at most m * (2**s - 1): below the float32 limit, and s
    # is the widest digit for which that holds
    assert m * ((1 << s) - 1) < majority._FLOAT32_EXACT <= m * ((1 << (s + 1)) - 1)
    # the digits cover every A^2 entry, at most m - 1
    assert (m - 1).bit_length() <= s * len(shifts)
    # each recombined A^3 entry, at most m * (m - 2) on an asymmetric relation, is exact in float64
    assert m * (m - 2) < 2 ** 53
    # the digit count derives from m alone: one digit up to m = 4,096, two beyond
    assert [len(_digit_shifts(n)[1]) for n in (2, 135, 1000, 4096, 4097, 6210)] == [1, 1, 1, 1, 2, 2]


@pytest.mark.parametrize("limit, sizes, digit_counts", [
    (2 ** 4, (5, 8), {2, 3}),
    (2 ** 7, (9, 60), {2, 3, 6}),
    (2 ** 9, (17, 60), {2}),
], ids=["2**4", "2**7", "2**9"])
def test_cycle_counts_recombine_every_number_of_digit_planes(monkeypatch, limit, sizes, digit_counts):
    # with the float32 limit forced down, A^2 splits into several digit planes; the recombined counts must not move
    monkeypatch.setattr(majority, "_FLOAT32_EXACT", limit)
    rng = random.Random(limit)
    seen = set()
    for tie_prob in (0.0, 0.2, 0.6):
        for _ in range(20):
            ms = random_structure(rng, rng.randint(*sizes), tie_prob)
            seen.add(len(_digit_shifts(len(ms))[1]))
            counts = cycle_counts(ms)
            assert counts == {k: int64_cycles(ms, k) for k in (3, 4, 5)}
            if len(ms) <= 8:
                assert counts == {k: brute_cycles(ms, k) for k in (3, 4, 5)}
    assert seen == digit_counts


def test_cycle_counts_hold_no_float64_copy_of_the_majority_matrix():
    # Bound: float32 A and A^2 (4 m^2 bytes each) plus one m x m float64 array (8 m^2), 16 m^2 bytes in all.
    # A float64 copy of A beside A and A^2 reaches it before any block temporary, so the block's digit planes,
    # A^3 columns and elementwise products must fit in the 8 m^2 bytes left.
    m = 600
    ms = random_structure(random.Random(600), m)
    tracemalloc.start()
    try:
        cycle_counts(ms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * m ** 2


@pytest.mark.parametrize("k", [3, 4, 5])
def test_cycle_count_float32_bound(k):
    # A^2 is a float32 product whose entries and partial sums are integers at most m; float32 holds
    # every integer below 2**24 exactly, so each cap keeps it exact
    assert _max_exact_size(k) < majority._FLOAT32_EXACT == 2 ** 24


def test_cycle_counts_check_every_bound_before_any_product():
    class Oversized:  # within the 3- and 4-cycle bounds, one past the 5-cycle bound, and no matrix to read
        def __len__(self):
            return 6211

    with pytest.raises(InputError, match="counting 5-cycles supports at most 6210 alternatives, got 6211"):
        cycle_counts(Oversized())


def test_cycle_count_rejects_a_trace_that_is_not_a_multiple_of_k():
    class TwoCycle:  # symmetric arcs, which a majority structure never holds: 2 closed 4-walks
        beats = np.array([[0, 1], [1, 0]], dtype=bool)

        def __len__(self):
            return 2

    # the kernel holds the check; the public functions read a structure's cached count, which TwoCycle lacks
    with pytest.raises(NumericalError, match="not a multiple of 4"):
        majority._count_cycles(TwoCycle(), (4,))


def spy_on_cycle_kernel(monkeypatch) -> list:
    """The ``lengths`` of every trace kernel run from here on."""
    calls = []
    kernel = majority._count_cycles

    def counted(ms, lengths):
        calls.append(lengths)
        return kernel(ms, lengths)

    monkeypatch.setattr(majority, "_count_cycles", counted)
    return calls


def test_each_structure_runs_the_cycle_kernel_once(monkeypatch):
    calls = spy_on_cycle_kernel(monkeypatch)
    ms = random_structure(random.Random(21), 8)
    counts = {k: count_cycles(ms, k) for k in (3, 4, 5)}
    assert cycle_counts(ms) == counts == {k: brute_cycles(ms, k) for k in (3, 4, 5)}
    assert calls == [(3, 4, 5)]
    # an equal beats matrix in another structure counts again: the cache lives on the object, not its contents
    twin = MajorityStructure(ms.alternatives, ms.beats.copy())
    assert cycle_counts(twin) == counts
    assert calls == [(3, 4, 5)] * 2


def test_cycle_counts_returns_a_copy_of_the_cached_count():
    ms = random_structure(random.Random(22), 8)
    counts = cycle_counts(ms)
    expected = dict(counts)
    counts[3] += 1
    del counts[5]
    assert cycle_counts(ms) == expected
    assert count_cycles(ms, 3) == expected[3]


def test_cycle_cache_leaves_out_a_length_past_its_cap(monkeypatch):
    calls = spy_on_cycle_kernel(monkeypatch)
    cap = majority._max_exact_size
    monkeypatch.setattr(majority, "_max_exact_size", lambda k: 5 if k == 5 else cap(k))
    ms = random_structure(random.Random(23), 7, tie_prob=0.0)

    def assert_5_cycles_refused():
        for refused in (lambda: cycle_counts(ms), lambda: count_cycles(ms, 5)):
            with pytest.raises(SizeLimitError) as excinfo:
                refused()
            assert str(excinfo.value) == "counting 5-cycles supports at most 5 alternatives, got 7"

    assert_5_cycles_refused()
    assert calls == []  # refused before any product
    assert count_cycles(ms, 3) == brute_cycles(ms, 3) > 0
    assert count_cycles(ms, 4) == brute_cycles(ms, 4)
    assert calls == [(3, 4)]
    assert_5_cycles_refused()
    assert calls == [(3, 4)]


def relabelled(ms: MajorityStructure, order: list[int], reverse: bool) -> MajorityStructure:
    """A new structure on the alternatives in ``order``, with every arc reversed if ``reverse``."""
    beats = ms.beats[order][:, order]
    names = AlternativeSet(tuple(ms.alternatives.items[i] for i in order))
    return MajorityStructure(names, beats.T if reverse else beats)


def equal_structure(ms: MajorityStructure) -> MajorityStructure:
    """A new structure equal to ``ms``, with a cycle count of its own: counts read from the two are independent."""
    return MajorityStructure(ms.alternatives, ms.beats.copy())


def assert_cycle_counts_are_neutral(ms: MajorityStructure, rng: random.Random) -> None:
    """Permuting the alternatives or reversing every arc moves no cycle count; each count comes from a
    fresh structure, so each runs the kernel."""
    expected = cycle_counts(ms)
    identity = list(range(len(ms)))
    shuffled = rng.sample(identity, len(ms))
    for order, reverse in ((shuffled, False), (identity, True), (shuffled, True)):
        assert cycle_counts(relabelled(ms, order, reverse)) == expected
        assert {k: count_cycles(relabelled(ms, order, reverse), k) for k in (3, 4, 5)} == expected


def test_cycle_counts_are_neutral_on_random_tied_structures():
    rng = random.Random(24)
    for tie_prob in (0.0, 0.2, 0.6):
        for _ in range(15):
            assert_cycle_counts_are_neutral(random_structure(rng, rng.randint(1, 14), tie_prob), rng)


def test_cycle_counts_are_neutral_on_the_study():
    _, _, profile = load_profile(bundled_fixtures_dir() / "table6_criteria.csv")
    ms = build_majority(profile)
    assert cycle_counts(ms) == {3: 638, 4: 5928, 5: 52754}
    assert_cycle_counts_are_neutral(ms, random.Random(25))


def test_trichotomy_and_symmetry_on_random_profiles():
    rng = random.Random(3)
    for _ in range(25):
        m = rng.randint(2, 7)
        names = AlternativeSet(tuple(f"a{i}" for i in range(m)))
        criteria = []
        for c in range(rng.randint(1, 5)):
            scores = {name: float(rng.randint(0, 4)) for name in names}
            criteria.append(Criterion(f"c{c}", rng.randint(1, 3), from_scores(names, scores)))
        ms = build_majority(Profile(names, criteria))
        off = ~np.eye(m, dtype=bool)
        assert not (ms.beats & ms.beats.T).any()
        assert np.array_equal(ms.ties, ms.ties.T)
        assert np.array_equal(ms.beats | ms.beats.T | ms.ties, off)


def test_weight_split_equivalence():
    rng = random.Random(5)
    names = AlternativeSet(tuple(f"a{i}" for i in range(6)))
    rankings = [from_scores(names, {n: float(rng.randint(0, 5)) for n in names}) for _ in range(3)]
    weights = [3, 1, 2]
    weighted = Profile(names, [Criterion(f"c{i}", w, r) for i, (w, r) in enumerate(zip(weights, rankings))])
    split = Profile(names, [
        Criterion(f"c{i}_{k}", 1, r)
        for i, (w, r) in enumerate(zip(weights, rankings))
        for k in range(w)
    ])
    a, b = build_majority(weighted), build_majority(split)
    assert np.array_equal(a.beats, b.beats) and np.array_equal(a.ties, b.ties)


def test_scheme_of_criterion_rankings_is_irrelevant():
    rng = random.Random(9)
    names = AlternativeSet(tuple(f"a{i}" for i in range(6)))
    scores = [{n: float(rng.randint(0, 3)) for n in names} for _ in range(4)]
    dense = Profile(names, [Criterion(f"c{i}", 1, from_scores(names, s, scheme="dense")) for i, s in enumerate(scores)])
    comp = Profile(names, [Criterion(f"c{i}", 1, from_scores(names, s, scheme="competition")) for i, s in enumerate(scores)])
    a, b = build_majority(dense), build_majority(comp)
    assert np.array_equal(a.beats, b.beats) and np.array_equal(a.ties, b.ties)


def test_cycle_trace_matches_enumeration_on_random_structures():
    rng = random.Random(13)
    for _ in range(40):
        ms = random_structure(rng, rng.randint(3, 8))
        for k in (3, 4, 5):
            assert count_cycles(ms, k) == brute_cycles(ms, k)


def test_cycle_counts_match_count_cycles_and_enumeration_on_random_structures():
    rng = random.Random(14)
    for tie_prob in (0.0, 0.2, 0.6, 1.0):
        for _ in range(30):
            ms = random_structure(rng, rng.randint(2, 8), tie_prob)
            counts = cycle_counts(ms)
            assert list(counts) == [3, 4, 5]
            assert counts == {k: count_cycles(equal_structure(ms), k) for k in (3, 4, 5)}
            assert counts == {k: brute_cycles(ms, k) for k in (3, 4, 5)}


@pytest.mark.parametrize("maker", [random_structure, noisy_profile_structure], ids=["random", "noisy-profile"])
def test_cycle_trace_matches_int64_powers_over_several_column_blocks(maker):
    # 300 columns make blocks of 128, 128 and a short last one of 44
    ms = maker(random.Random(7), 300)
    for k in (3, 4, 5):
        assert count_cycles(ms, k) == int64_cycles(ms, k)
    assert cycle_counts(equal_structure(ms)) == {k: int64_cycles(ms, k) for k in (3, 4, 5)}


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(structures(max_m=8))
def test_cycle_counts_match_enumeration(ms):
    for k in (3, 4, 5):
        assert count_cycles(ms, k) == brute_cycles(ms, k)
