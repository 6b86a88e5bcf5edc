"""Tie-aware rank correlation: Kendall tau-b and the share of coinciding pairs.

Both measures are built from the same unordered-pair census.  With N the
number of pairs, N+ the pairs ranked the same way in both rankings (ties
excluded), N- the inverted pairs, n1/n2 the pairs tied in the first/second
ranking and N0 the pairs tied in both:

    tau_b = (N+ - N-) / sqrt((N - n1) (N - n2))
    share = 100 (N+ + N0) / N

The census always satisfies N+ + N- = N - n1 - n2 + N0.  The share
penalises heavily tied rankings (a tie never counts as coinciding unless
mirrored); tau-b normalises the tie mass away.  At share = 50 two rankings
are uninformative about each other.

All R**2 censuses of R rankings over m alternatives come from one sign Gram
matrix and one count of joint ties.  Over the N unordered pairs x < y, let
the rows of S be each ranking's s_r = sign(r_x - r_y).  Then
(S S^T)_rq = N+ - N-.  N0, with n1 = N0 on the diagonal, counts the pairs
on which both rankings tie: the runs of equal joint keys
level_r * m + level_q, sorted, give sum C(run, 2).  U = N - n1 - n2 + N0 =
N+ + N- counts the pairs tied in neither ranking, and
N+- = (U +- (S S^T)_rq) / 2.  Each ranking is first relabelled by its dense
levels 0..L-1, which come from the one relabelling in ``core``, and
rankings of one weak order are censused once.  S S^T runs in float32, exact
because every step's Gram entry is an integer below 2**24 (``_sign_gram``),
and the joint keys stay below m**2 in int64 (``_joint_ties``); the census
is exact for m <= 77,936 (``_census``).

A census holds names and counts and no measure; each measure reads it, and
so do the meta-comparison's wins (``_PairCensus.wins``), by exact keys: a
tie is exact equality of the measure values.  The key is N+ + N0 for the
coinciding share and, for tau_b = a/sqrt(d) with a = N+ - N- and
d = (N - n1)(N - n2), the Python integer a|a| * L/(N - n1), with L the least
common multiple of the candidates' N - n1.  Within one criterion's column
N - n2 is constant, so that key is a|a|/d times the positive constant
L (N - n2), and it orders and ties exactly as tau-b does because t -> t|t|
is strictly increasing.  Each criterion's keys are ranked to int levels
once, by ``core``'s relabelling, and the comparisons read those.

What is refused is decided here alone.  ``_named_census`` rejects a repeated
name and an unknown measure before any census work; ``_census`` refuses what
no measure reads, mixed alternative sets or m outside 2..77,936; the tau-b
read refuses a ranking that ties every pair, n1 = N on ``ties_first``'s
diagonal (O(R)).  Each error names the first ranking at fault, candidates
before criteria, in its text and as ``InputError.ranking`` (r1/r2 of a pair).
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .core import Criterion, Ranking, _levels
from .errors import DegenerateRankingError, InputError, SizeLimitError

TAU_B = "tau_b"
COINCIDING = "coinciding"
MEASURES = (TAU_B, COINCIDING)
_CENSUS_STEP = 1 << 16  # float32 cells per step of the census: 256 KiB
# the largest m with (m (m - 1) / 2)**2 < 2**63
_CENSUS_MAX_SIZE = (1 + math.isqrt(1 + 8 * math.isqrt(2 ** 63 - 1))) // 2

NamedRankings = Mapping[str, Ranking] | Sequence[tuple[str, Ranking]]


@dataclass(frozen=True)
class PairStats:
    """Census of the unordered alternative pairs under two rankings."""

    total: int
    concordant: int
    discordant: int
    ties_first: int
    ties_second: int
    ties_both: int

    def __post_init__(self) -> None:
        counts = (self.total, self.concordant, self.discordant, self.ties_first, self.ties_second, self.ties_both)
        if any(c < 0 for c in counts):
            raise InputError("pair counts must be non-negative")
        if self.concordant + self.discordant != self.total - self.ties_first - self.ties_second + self.ties_both:
            raise InputError("inconsistent pair census")


def _sign_gram(levels: np.ndarray) -> np.ndarray:
    """S S^T of U level rows over m alternatives: the U x U int64 sums of s_r s_q over the pairs x < y.

    The pairs are taken by cyclic offsets d = 1..m // 2: offset d pairs
    each x with x + d mod m, so the offsets below m / 2 take every
    unordered pair once, and for even m the offset m / 2 takes the first
    half of its row.  A step fills the offsets of one reused U x k x m
    float32 buffer of at most ``_CENSUS_STEP`` cells (one offset at least)
    with sign(level_x - level_x+d) and adds its Gram matrix, so no m x m
    array is formed.

    Exactness bound: levels are below m, so float32 holds every level and
    every difference; a step's Gram entries are integers of magnitude at
    most its cells per row, max(``_CENSUS_STEP``, m) < 2**24, so every
    float32 partial sum is exact; the float64 totals are integers at most
    N < 2**53.
    """
    size, m = levels.shape
    half = m // 2
    doubled = np.concatenate((levels, levels), axis=1).astype(np.float32)
    # shifted[:, d, x] = level of x + d mod m: a strided view of doubled, no copy
    item = doubled.itemsize
    shifted = np.ndarray((size, half + 1, m), np.float32, buffer=doubled, strides=(doubled.strides[0], item, item))
    offsets = min(half, max(1, _CENSUS_STEP // (size * m)))
    signs = np.empty((size, offsets, m), dtype=np.float32)
    gram = np.zeros((size, size))
    for d in range(1, half + 1, offsets):
        step = signs[:, :half + 1 - d]
        np.subtract(doubled[:, None, :m], shifted[:, d:d + offsets], out=step)
        np.clip(step, -1, 1, out=step)  # the sign of an integer difference
        if 2 * (d + step.shape[1] - 1) == m:
            step[:, -1, half:] = 0  # offset m / 2 meets each pair twice: keep x < m / 2
        flat = step.reshape(size, -1)
        gram += flat @ flat.T
    return gram.astype(np.int64)


def _joint_ties(levels: np.ndarray) -> np.ndarray:
    """N0 of every two of U level rows, n1 on the diagonal: the U x U int64 counts of pairs x < y both tie.

    For two rows r <= q the joint keys level_r * m + level_q are sorted; a
    run of c equal keys holds C(c, 2) tied pairs, the sum over its keys of
    (index - index where the run starts).  At most ``_CENSUS_STEP`` // 2
    keys (one pair of rows at least) are formed at a time: as many bytes as
    a step of ``_sign_gram``.

    Exactness bound: the keys are at most (m - 1) m + m - 1 < m**2 < 2**63.
    """
    size, m = levels.shape
    r, q = np.nonzero(np.arange(size)[:, None] <= np.arange(size))  # every two rows r <= q
    ties = np.empty((size, size), dtype=np.int64)
    pairs = max(1, _CENSUS_STEP // (2 * m))
    for start in range(0, len(r), pairs):
        rs, qs = r[start:start + pairs], q[start:start + pairs]
        joint = levels[rs]
        joint *= m
        joint += levels[qs]
        joint.sort(axis=1)
        # rewritten in place: the index where each key's run of equal keys starts
        np.multiply(joint[:, 1:] != joint[:, :-1], np.arange(1, m), out=joint[:, 1:])
        joint[:, 0] = 0
        np.maximum.accumulate(joint, axis=1, out=joint)
        ties[rs, qs] = ties[qs, rs] = m * (m - 1) // 2 - joint.sum(axis=1)
    return ties


@dataclass(frozen=True)
class _PairCensus:
    """Pair census of every two of R named rankings: their names and six R x R int64 arrays in ``PairStats`` order."""

    names: tuple[str, ...]
    counts: tuple[np.ndarray, ...]

    def values(self, measure: str) -> np.ndarray:
        """The measure's value in every cell.  Under tau-b, DegenerateRankingError names the first flat ranking."""
        total, concordant, discordant, ties_first, ties_second, ties_both = self.counts
        if measure == COINCIDING:
            return 100.0 * (concordant + ties_both) / total
        flat = ties_first.diagonal() == total.diagonal()  # a ranking ties every pair exactly when its n1 is N
        if flat.any():
            name = self.names[int(np.argmax(flat))]
            raise DegenerateRankingError(f"tau-b is undefined: ranking {name!r} ties every pair", name)
        return (concordant - discordant) / np.sqrt(((total - ties_first) * (total - ties_second)).astype(np.float64))

    def wins(self, n: int, criteria: slice, weights: Sequence[int], measure: str) -> np.ndarray:
        """wins[i, j] for i, j < n: the weight of the criteria (columns ``criteria``) that favour ranking i over j."""
        total, concordant, discordant, ties_first, _, ties_both = (counts[:n, criteria] for counts in self.counts)
        if measure == COINCIDING:
            keys = concordant + ties_both
        else:
            # the key a|a| * L/(N - n1); N - n1 = 0 only for a lone candidate, compared with none
            untied = np.maximum(total[:, 0] - ties_first[:, 0], 1).tolist()
            score = (concordant - discordant).astype(object)
            keys = score * abs(score) * (math.lcm(*untied) // np.array(untied, dtype=object))[:, None]
        levels = _levels(keys.T).T  # each criterion's keys as int levels: comparisons of ints, in key order
        return (levels[:, None, :] > levels[None, :, :]).astype(np.int64) @ np.array(weights, dtype=np.int64)


def _census(names: Sequence[str], rankings: Sequence[Ranking]) -> _PairCensus:
    """Pair census of every two of R named rankings, in the order given.

    Each ranking is relabelled by its dense levels 0..L-1, below m however
    large the ranks.  Only the U distinct level rows (one per weak order)
    are censused, by ``_sign_gram`` and ``_joint_ties``, and the counts are
    expanded back to all R rankings.

    Exactness bounds: those of ``_sign_gram`` and ``_joint_ties``; the
    tau-b normaliser is at most N**2, which int64 holds for
    m <= ``_CENSUS_MAX_SIZE`` (77,936), above which SizeLimitError is raised.
    """
    first = rankings[0].alternatives.items
    for name, ranking in zip(names, rankings):
        if ranking.alternatives.items != first:
            raise InputError(f"rankings are over different alternative sets: {name!r} differs from {names[0]!r}", name)
    m, name = len(first), names[0]
    if m < 2:
        raise InputError(f"correlation needs at least two alternatives; ranking {name!r} has {m}", name)
    if m > _CENSUS_MAX_SIZE:
        raise SizeLimitError(f"the pair census supports at most {_CENSUS_MAX_SIZE} alternatives, got {m} in ranking "
                             f"{name!r}", name)
    levels = _levels(np.array([ranking.rank_vector() for ranking in rankings]))
    # rankings of one weak order share their levels and every count: census each order once
    index: dict[bytes, int] = {}
    inverse = np.array([index.setdefault(row.tobytes(), len(index)) for row in levels])
    levels = np.frombuffer(b"".join(index), dtype=np.int64).reshape(len(index), m)
    expand = (inverse[:, None], inverse)
    sign_gram, tie_gram = _sign_gram(levels)[expand], _joint_ties(levels)[expand]
    total = m * (m - 1) // 2
    tied = tie_gram.diagonal()  # pairs each ranking ties
    untied = total - tied[:, None] - tied + tie_gram
    ties_first = tied.repeat(len(tied)).reshape(tie_gram.shape)
    return _PairCensus(tuple(names), (
        np.full(tie_gram.shape, total, dtype=np.int64),
        (untied + sign_gram) // 2,
        (untied - sign_gram) // 2,
        ties_first,
        ties_first.T,
        tie_gram,
    ))


def _named_census(rankings: NamedRankings, measure: str, criteria: Sequence[Criterion] = ()) -> _PairCensus:
    """``_census`` of ``rankings`` then criteria, after the name and measure checks."""
    pairs = list(rankings.items()) if isinstance(rankings, Mapping) else list(rankings)
    names = tuple(name for name, _ in pairs)
    if len(set(names)) != len(names):
        name = next(name for k, name in enumerate(names) if name in names[:k])
        raise InputError(f"ranking names must be unique: {name!r} is repeated", name)
    if measure not in MEASURES:
        raise InputError(f"unknown measure {measure!r}; expected one of {MEASURES}")
    return _census([*names, *(c.name for c in criteria)], [*(r for _, r in pairs), *(c.ranking for c in criteria)])


def pair_stats(r1: Ranking, r2: Ranking) -> PairStats:
    """Count concordant, inverted and tied pairs of two rankings (the census of two)."""
    return PairStats(*(int(counts[0, 1]) for counts in _census(("r1", "r2"), (r1, r2)).counts))


def kendall_tau_b(r1: Ranking, r2: Ranking) -> float:
    """Tie-corrected Kendall rank correlation, in [-1, 1].

    Raises:
        DegenerateRankingError: if either ranking ties every pair, which
            zeroes the normaliser and leaves the value undefined (named r1 or r2).
    """
    return float(_census(("r1", "r2"), (r1, r2)).values(TAU_B)[0, 1])


def coinciding_share(r1: Ranking, r2: Ranking) -> float:
    """Percentage of pairs ordered identically (mirrored ties included)."""
    return float(_census(("r1", "r2"), (r1, r2)).values(COINCIDING)[0, 1])


@dataclass(frozen=True)
class CorrelationMatrix:
    """Symmetric matrix of pairwise correlation values for named rankings."""

    labels: tuple[str, ...]
    values: np.ndarray
    measure: str

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def correlation_matrix(rankings: NamedRankings, measure: str = TAU_B) -> CorrelationMatrix:
    """All pairwise correlations of two or more rankings over one alternative set.

    The census reads the diagonal exactly as each ranking's self-correlation: N+ = N - n1 = x and N- = 0 give
    tau-b x / sqrt(x**2), exactly 1.0 since x < 2**32, and N+ + N0 = N gives the share 100 N / N = 100.0.

    Raises:
        InputError: fewer than two rankings, or what the census or the tau-b read refuses, naming the
            ranking at fault (module docstring): under tau-b, a ranking that ties every pair.
    """
    if len(rankings) < 2:
        raise InputError("a correlation matrix needs at least two rankings")
    census = _named_census(rankings, measure)
    return CorrelationMatrix(labels=census.names, values=census.values(measure), measure=measure)
