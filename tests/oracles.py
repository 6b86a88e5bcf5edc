"""Definitional brute-force references used to validate the fast paths."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np

from majorityrank import (
    DENSE,
    AlternativeSet,
    Criterion,
    DegenerateRankingError,
    InputError,
    MajorityStructure,
    MetaComparison,
    Profile,
    Ranking,
    TransitionMatrix,
    build_majority,
    from_scores,
)
from majorityrank import io as mio


def random_structure(rng: random.Random, m: int, tie_prob: float = 0.2) -> MajorityStructure:
    """Random majority structure: each pair beats one way, the other, or ties."""
    names = AlternativeSet(tuple(f"a{i}" for i in range(m)))
    beats = np.zeros((m, m), dtype=bool)
    for i in range(m):
        for j in range(i + 1, m):
            roll = rng.random()
            if roll < tie_prob:
                continue  # the pair stays tied
            if roll < tie_prob + (1.0 - tie_prob) / 2.0:
                beats[i, j] = True
            else:
                beats[j, i] = True
    return MajorityStructure(names, beats)


def noisy_profile_structure(rng: random.Random, m: int, criteria: int = 5) -> MajorityStructure:
    """Majority structure of criteria that are noisy copies of one score.

    Scores are rounded to one decimal so that ties occur; solution sorts on
    such structures take many rounds (19 UC classes at m = 300, seed 7).
    """
    names = AlternativeSet(tuple(f"a{i}" for i in range(m)))
    base = [rng.gauss(0.0, 1.0) for _ in range(m)]
    profile = Profile(names, [
        Criterion(f"c{c}", rng.randint(1, 2),
                  from_scores(names, {name: round(b + rng.gauss(0.0, 1.0), 1) for name, b in zip(names, base)}))
        for c in range(criteria)
    ])
    return build_majority(profile)


def naive_majority(profile: Profile) -> tuple[np.ndarray, np.ndarray]:
    """Beats and tie matrices of the weighted majority, by a loop over ordered pairs summing Python-int
    weights on each side; a tie is read from equal sums, not from the beats matrix."""
    m = len(profile.alternatives)
    weighted = [(c.weight, c.ranking.rank_vector().tolist()) for c in profile.criteria]
    beats = np.zeros((m, m), dtype=bool)
    ties = np.zeros((m, m), dtype=bool)
    for x in range(m):
        for y in range(m):
            if x != y:
                pro = sum(w for w, ranks in weighted if ranks[x] < ranks[y])
                con = sum(w for w, ranks in weighted if ranks[y] < ranks[x])
                beats[x, y], ties[x, y] = pro > con, pro == con
    return beats, ties


def random_ranking(rng: random.Random, alternatives: AlternativeSet, max_positions: int | None = None) -> Ranking:
    """Random dense ranking with ties."""
    m = len(alternatives)
    positions = max_positions or rng.randint(1, m)
    scores = {name: rng.randint(1, positions) for name in alternatives}
    used = sorted(set(scores.values()), reverse=True)
    dense = {v: k + 1 for k, v in enumerate(used)}
    return Ranking(alternatives, {name: dense[v] for name, v in scores.items()})


def _indices(ms: MajorityStructure, subset) -> list[int]:
    if subset is None:
        return list(range(len(ms)))
    return sorted(ms.alternatives.index(name) for name in subset)


def brute_uncovered(ms: MajorityStructure, subset=None) -> frozenset[str]:
    idx = _indices(ms, subset)
    beats = ms.beats
    out = []
    for y in idx:
        covered = False
        for x in idx:
            if x == y or not beats[x, y]:
                continue
            if all(beats[x, z] or not beats[y, z] for z in idx if z not in (x, y)):
                covered = True
                break
        if not covered:
            out.append(ms.alternatives.items[y])
    return frozenset(out)


def _dominator_masks(ms: MajorityStructure, idx: list[int]) -> dict[int, int]:
    return {
        x: sum(1 << y for y in idx if ms.beats[y, x])
        for x in idx
    }


def externally_stable(ms: MajorityStructure, idx: list[int], candidate: set[int]) -> bool:
    masks = _dominator_masks(ms, idx)
    bits = sum(1 << x for x in candidate)
    return all(masks[x] & bits for x in idx if x not in candidate)


def brute_mes_union(ms: MajorityStructure, subset=None) -> frozenset[str]:
    """Union of minimal externally stable sets by full subset enumeration.

    External stability survives taking supersets, so minimality only needs
    single-element removals to be checked.
    """
    idx = _indices(ms, subset)
    masks = _dominator_masks(ms, idx)

    def stable(bits: int) -> bool:
        return all(masks[x] & bits for x in idx if not bits & (1 << x))

    stable_sets = []
    for r in range(1, len(idx) + 1):
        for comb in itertools.combinations(idx, r):
            bits = sum(1 << x for x in comb)
            if stable(bits):
                stable_sets.append(bits)
    union = 0
    for bits in stable_sets:
        if not any(stable(bits & ~(1 << x)) for x in idx if bits & (1 << x)):
            union |= bits
    return frozenset(ms.alternatives.items[i] for i in idx if union & (1 << i))


def _masks(ms: MajorityStructure, idx: np.ndarray) -> tuple[int, list[int], list[int]]:
    """Bitmask views of the restricted relation: member mask, dominators, dominated.

    Bit j of each mask stands for alternative j; rows are packed little-endian
    so that ``int.from_bytes(..., "little")`` puts element j at bit j.
    """
    inside = np.zeros(len(ms.beats), dtype=bool)
    inside[idx] = True
    members = _as_int(np.packbits(inside, bitorder="little"))
    dominated = np.packbits(ms.beats[idx] & inside, axis=1, bitorder="little")
    dominators = np.packbits(ms.beats[:, idx].T & inside, axis=1, bitorder="little")
    upper = [0] * len(inside)
    lower = [0] * len(inside)
    for i, up, low in zip(idx.tolist(), dominators, dominated):
        upper[i] = _as_int(up)
        lower[i] = _as_int(low)
    return members, upper, lower


def _as_int(packed: np.ndarray) -> int:
    return int.from_bytes(packed.tobytes(), "little")


def _is_stable(candidate: int, members: int, upper: list[int]) -> bool:
    outside = members & ~candidate
    while outside:
        bit = outside & -outside
        x = bit.bit_length() - 1
        if not (upper[x] & candidate):
            return False
        outside ^= bit
    return True


def _certificate(i: int, members: int, upper: list[int], lower: list[int]) -> int | None:
    """The first stable reduced set that certifies i, or None.

    Witnesses z are i itself, then its lower section in index order; the
    reduced set is ``members`` minus z and every dominator of z other than i.
    """
    me = 1 << i
    witnesses = [i]
    rest = lower[i]
    while rest:
        bit = rest & -rest
        witnesses.append(bit.bit_length() - 1)
        rest ^= bit
    for z in witnesses:
        reduced = members & ~(((1 << z) | upper[z]) & ~me)
        if _is_stable(reduced, members, upper):
            return reduced
    return None


def certificate_mes_union(ms: MajorityStructure, subset=None) -> frozenset[str]:
    """MES union by testing each member's witness certificates on Python-int bitmasks.

    x lies in some minimal externally stable set iff for some witness z in
    {x} or the lower section of x, the subset minus z and minus every
    dominator of z other than x is still externally stable.
    """
    idx = np.array(_indices(ms, subset), dtype=np.intp)
    members, upper, lower = _masks(ms, idx)
    items = ms.alternatives.items
    return frozenset(items[i] for i in idx.tolist() if _certificate(i, members, upper, lower) is not None)


def brute_weak_top_cycle(ms: MajorityStructure, subset=None) -> frozenset[str]:
    """Smallest dominant set by enumerating subsets in increasing size."""
    idx = _indices(ms, subset)
    masks = _dominator_masks(ms, idx)
    for r in range(1, len(idx) + 1):
        for comb in itertools.combinations(idx, r):
            inside = sum(1 << x for x in comb)
            # dominant: every outsider is beaten by every member
            if all(masks[x] & inside == inside for x in idx if not inside & (1 << x)):
                return frozenset(ms.alternatives.items[i] for i in comb)
    raise AssertionError("the full subset is always dominant")


def leak_uncovered(ms: MajorityStructure, subset=None) -> frozenset[str]:
    """Uncovered set from the int64 "leak" product.

    leak[y, x] counts the z beaten by y but not by x, so x covers y iff x
    beats y and leak[y, x] is 0.
    """
    idx = np.array(_indices(ms, subset), dtype=np.intp)
    sub = ms.beats[np.ix_(idx, idx)]
    leak = sub.astype(np.int64) @ (~sub).astype(np.int64).T
    covers = sub & (leak.T == 0)
    uncovered = ~covers.any(axis=0)
    return frozenset(ms.alternatives.items[i] for i in idx[uncovered])


def int64_cycles(ms: MajorityStructure, k: int) -> int:
    """k-cycles as trace(A**k) / k from an int64 matrix power, for k in {3, 4, 5}."""
    power = np.linalg.matrix_power(ms.beats.astype(np.int64), k)
    return int(np.trace(power)) // k


def brute_cycles(ms: MajorityStructure, k: int) -> int:
    """Count k-cycles by enumerating vertex tuples anchored at their minimum."""
    m = len(ms)
    count = 0
    for tup in itertools.permutations(range(m), k):
        if tup[0] != min(tup):
            continue
        if all(ms.beats[tup[i], tup[(i + 1) % k]] for i in range(k)):
            count += 1
    return count


def naive_pair_stats(r1: Ranking, r2: Ranking) -> tuple[int, int, int, int, int, int]:
    """(N, N+, N-, n1, n2, N0) by direct pair loops."""
    names = list(r1.alternatives)
    total = concordant = discordant = ties1 = ties2 = ties_both = 0
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            a = r1.ranks[names[i]] - r1.ranks[names[j]]
            b = r2.ranks[names[i]] - r2.ranks[names[j]]
            total += 1
            if a == 0 and b == 0:
                ties_both += 1
            if a == 0:
                ties1 += 1
            if b == 0:
                ties2 += 1
            if a != 0 and b != 0:
                if (a > 0) == (b > 0):
                    concordant += 1
                else:
                    discordant += 1
    return total, concordant, discordant, ties1, ties2, ties_both


def _component_sign(first: tuple[int, ...], second: tuple[int, ...], measure: str) -> int:
    """Exact sign of measure(first) - measure(second) for two (N, N+, N-, n1, n2, N0) censuses."""
    total1, concordant1, discordant1, ties_first1, ties_second1, ties_both1 = first
    total2, concordant2, discordant2, ties_first2, ties_second2, ties_both2 = second
    if measure == "coinciding":
        x = concordant1 + ties_both1
        y = concordant2 + ties_both2
        return (x > y) - (x < y)
    a1 = concordant1 - discordant1
    a2 = concordant2 - discordant2
    d1 = (total1 - ties_first1) * (total1 - ties_second1)
    d2 = (total2 - ties_first2) * (total2 - ties_second2)
    if d1 == 0 or d2 == 0:
        raise DegenerateRankingError("tau-b comparison involving a fully tied ranking is undefined")
    if a1 >= 0 and a2 < 0:
        return 1
    if a1 < 0 and a2 >= 0:
        return -1
    lhs = a1 * a1 * d2  # compare a1/sqrt(d1) with a2/sqrt(d2), same sign side
    rhs = a2 * a2 * d1
    if lhs == rhs:
        return 0
    bigger_magnitude = 1 if lhs > rhs else -1
    return bigger_magnitude if a1 >= 0 else -bigger_magnitude


def naive_meta_wins(candidates: dict[str, Ranking], criteria: list[Criterion], measure: str) -> np.ndarray:
    """wins[i, j]: the weight of the criteria on which candidate i strictly beats j, by pair loops."""
    census = [[naive_pair_stats(ranking, c.ranking) for c in criteria] for ranking in candidates.values()]
    n = len(census)
    wins = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            if i != j:
                wins[i, j] = sum(c.weight for k, c in enumerate(criteria)
                                 if _component_sign(census[i][k], census[j][k], measure) > 0)
    return wins


def brute_minimum(comparison: MetaComparison) -> tuple[int, list[tuple[str, ...]]]:
    """Fewest inverted majority arcs over every linear order, and the orders attaining it.

    Orders list the best candidate first and come in lexicographic order of
    candidate indices.
    """
    n = len(comparison.candidates)
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp).reshape(-1, n)
    position = np.argsort(perms, axis=1)
    winners, losers = np.nonzero(comparison.majority)
    costs = (position[:, winners] > position[:, losers]).sum(axis=1)
    best = costs.min()
    orders = [tuple(comparison.candidates[i] for i in perm) for perm in perms[costs == best].tolist()]
    return int(best), orders


def _stationary_system(tm: TransitionMatrix) -> list[list[Fraction]]:
    """Rows 0..k-2 of counts - d*I closed by a row of ones."""
    k = len(tm.members)
    rows = [[Fraction(int(tm.counts[i, j]) - (tm.denominator if i == j else 0)) for j in range(k)]
            for i in range(k - 1)]
    rows.append([Fraction(1)] * k)
    return rows


def exact_stationary(tm: TransitionMatrix) -> dict[str, Fraction]:
    """Stationary distribution by Gaussian elimination over ``Fraction``.

    Rows 0..k-2 of (counts - d*I) p = 0 are closed with the normalisation
    row sum(p) = 1 and solved with a row swap to the first nonzero pivot.
    """
    k = len(tm.members)
    rows = _stationary_system(tm)
    rhs = [Fraction(0)] * (k - 1) + [Fraction(1)]
    for col in range(k):
        pivot = next(r for r in range(col, k) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
        for r in range(col + 1, k):
            factor = rows[r][col] / rows[col][col]
            if factor == 0:
                continue
            rhs[r] -= factor * rhs[col]
            for c in range(col, k):
                rows[r][c] -= factor * rows[col][c]
    values = [Fraction(0)] * k
    for r in range(k - 1, -1, -1):
        acc = rhs[r]
        for c in range(r + 1, k):
            acc -= rows[r][c] * values[c]
        values[r] = acc / rows[r][r]
    return dict(zip(tm.members, values))


def brute_labels(keys: list, scheme: str) -> list[int]:
    """Ranks of keys, a smaller key ranking better: dense is 1 + the number of
    distinct strictly smaller keys, competition 1 + the number of strictly smaller keys."""
    if scheme == DENSE:
        return [1 + len({k for k in keys if k < key}) for key in keys]
    return [1 + sum(k < key for k in keys) for key in keys]


def _naive_number(path: Path, row_number: int, column: str, text: str, kind: type[int] | type[float]) -> int | float:
    """One cell read on its own: ASCII text without '_' that ``kind`` reads, and finite if a float."""
    try:
        value = kind(text)
        if text.isascii() and "_" not in text and (kind is int or math.isfinite(value)):
            return value
    except ValueError:
        pass
    noun = "an integer" if kind is int else "a finite number"
    raise InputError(f"{path}: {text!r} is not {noun} (row {row_number}, col {column})")


def naive_load_ranks(path: Path) -> tuple[list[str], np.ndarray]:
    """Country labels and rank table of a ranks table, each cell parsed and checked on its own, row by row;
    the first cell at fault raises its InputError."""
    header, rows = mio._read_simple_csv(path)
    if len(header) < 2:
        raise InputError(f"{path}: need a country column plus at least one ranking column")
    columns = header[1:]
    countries = mio._row_labels(path, header, rows)
    cells = []
    for row_number, row in rows:
        for column, text in zip(columns, row[1:]):
            if not text:
                raise InputError(f"{path}: missing rank (row {row_number}, col {column})")
            value = _naive_number(path, row_number, column, text, int)
            if value < 1:
                raise InputError(f"{path}: rank {value} is not positive (row {row_number}, col {column})")
            if value > 2 ** 63 - 1:
                raise InputError(f"{path}: rank {value} is above {2 ** 63 - 1} (row {row_number}, col {column})")
            cells.append(value)
    return countries, np.array(cells, dtype=np.int64).reshape(len(rows), len(columns))


def naive_load_reference_matrix(path: Path) -> tuple[list[str], list[list[float]]]:
    """Labels and values of a published correlation table, each cell parsed on its own, row by row."""
    header, rows = mio._read_simple_csv(path)
    labels = header[1:]
    if mio._row_labels(path, header, rows) != labels:
        raise InputError(f"{path}: row labels must match column labels")
    return labels, [[_naive_number(path, number, column, text, float) for column, text in zip(labels, row[1:])]
                    for number, row in rows]
