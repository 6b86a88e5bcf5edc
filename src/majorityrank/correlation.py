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

All R**2 censuses of R rankings over m alternatives come from two Gram
matrices.  Over the N unordered pairs x < y, let the rows of S and T be each
ranking's s_r = sign(r_x - r_y) and t_r = [r_x = r_y].  Then
(S S^T)_rq = N+ - N-, (T T^T)_rq = N0 and (T T^T)_rr = n1, so
U = N - n1 - n2 + N0 = N+ + N- counts the pairs tied in neither ranking and
N+- = (U +- (S S^T)_rq) / 2.  Each ranking is first relabelled by its dense
levels 0..L-1, which come from the one relabelling in ``core``, and
rankings of one weak order are censused once.  Both
products run in float32, exact because every block's Gram entry is an
integer below 2**24; the census is exact for m <= 77,936 (``_census``).
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .core import Ranking, _levels
from .errors import DegenerateRankingError, InputError

TAU_B = "tau_b"
COINCIDING = "coinciding"
MEASURES = (TAU_B, COINCIDING)
_CENSUS_BLOCK = 1 << 14  # cells of all rankings per step of the census: 64 KiB per float32 temporary
# the largest m with (m (m - 1) / 2)**2 < 2**63
_CENSUS_MAX_SIZE = (1 + math.isqrt(1 + 8 * math.isqrt(2 ** 63 - 1))) // 2
# _KEEP[i, j] = [j >= i]: in a block's square, where row x = start + i meets column y = start + 1 + j,
# it keeps the pairs y > x; a block of two rows or more has rows**2 <= rows * width <= _CENSUS_BLOCK
_KEEP = np.triu(np.ones((math.isqrt(_CENSUS_BLOCK), math.isqrt(_CENSUS_BLOCK) - 1), dtype=np.float32))


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


def _census(rankings: Sequence[Ranking]) -> tuple[np.ndarray, ...]:
    """Pair census of every two of R rankings: six R x R int64 arrays in ``PairStats`` field order.

    Each ranking is relabelled by its dense levels 0..L-1: below m, so
    float32 holds every level and every difference exactly, however large
    the ranks.  Only the U distinct level rows (one per weak order) are
    censused, and the counts are expanded back to all R rankings.  S S^T
    and T T^T are summed over the pairs x < y in blocks of rows x, each
    taking the columns y > x and holding at most ``_CENSUS_BLOCK`` cells of
    all U rankings (one row at least), so no m x m array is formed.

    Exactness bound: a block's float32 Gram entries are integers of
    magnitude at most its cells per ranking, max(``_CENSUS_BLOCK``, m)
    < 2**24, so every float32 partial sum is exact; the float64 totals are
    integers at most N < 2**53.  The tau-b normaliser is at most N**2,
    which int64 holds for m <= ``_CENSUS_MAX_SIZE`` (77,936); a larger m
    raises InputError.
    """
    first = rankings[0].alternatives.items
    if any(ranking.alternatives.items != first for ranking in rankings):
        raise InputError("rankings are over different alternative sets")
    m = len(first)
    if m < 2:
        raise InputError("correlation needs at least two alternatives")
    if m > _CENSUS_MAX_SIZE:
        raise InputError(f"the pair census supports at most {_CENSUS_MAX_SIZE} alternatives, got {m}")
    levels = _levels(np.stack([ranking.rank_vector() for ranking in rankings])).astype(np.float32)
    # rankings of one weak order share their levels and every count: census each order once
    index: dict[bytes, int] = {}
    inverse = np.array([index.setdefault(row.tobytes(), len(index)) for row in levels])
    levels = levels[np.unique(inverse, return_index=True)[1]]
    size = len(levels)
    sign_gram = np.zeros((size, size))
    tie_gram = np.zeros((size, size))
    start = 0
    while start < m - 1:
        width = m - start - 1  # columns y = start + 1 .. m - 1
        rows = min(max(1, _CENSUS_BLOCK // (size * width)), width)
        diff = levels[:, start:start + rows, None] - levels[:, None, start + 1:]
        ties = (diff == 0).astype(np.float32)
        signs = np.clip(diff, -1, 1, out=diff)  # the sign of an integer difference
        # the block's square below its diagonal holds the pairs y <= x: zero them
        ties[:, :, :rows - 1] *= _KEEP[:rows, :rows - 1]
        signs[:, :, :rows - 1] *= _KEEP[:rows, :rows - 1]
        signs, ties = signs.reshape(size, -1), ties.reshape(size, -1)
        sign_gram += signs @ signs.T
        tie_gram += ties @ ties.T
        start += rows
    sign_gram, tie_gram = sign_gram.astype(np.int64), tie_gram.astype(np.int64)
    total = m * (m - 1) // 2
    tied = np.diag(tie_gram)[:, None]  # pairs each ranking ties
    untied = total - tied - tied.T + tie_gram
    expand = np.ix_(inverse, inverse)
    shape = (len(rankings), len(rankings))
    return (
        np.full(shape, total, dtype=np.int64),
        ((untied + sign_gram) // 2)[expand],
        ((untied - sign_gram) // 2)[expand],
        np.broadcast_to(tied[inverse], shape),
        np.broadcast_to(tied[inverse].T, shape),
        tie_gram[expand],
    )


def _measure_values(census: Sequence[np.ndarray], measure: str) -> np.ndarray:
    """The measure's value in every cell of census count arrays.

    Raises DegenerateRankingError for tau-b where a ranking ties all pairs.
    """
    total, concordant, discordant, ties_first, ties_second, ties_both = census
    if measure == TAU_B:
        denom = (total - ties_first) * (total - ties_second)
        if not denom.all():
            raise DegenerateRankingError("tau-b is undefined when a ranking ties all pairs")
        return (concordant - discordant) / np.sqrt(denom.astype(np.float64))
    if measure == COINCIDING:
        return 100.0 * (concordant + ties_both) / total
    raise InputError(f"unknown measure {measure!r}; expected one of {MEASURES}")


def pair_stats(r1: Ranking, r2: Ranking) -> PairStats:
    """Count concordant, inverted and tied pairs of two rankings (the census of two)."""
    return PairStats(*(int(counts[0, 1]) for counts in _census([r1, r2])))


def kendall_tau_b(r1: Ranking, r2: Ranking) -> float:
    """Tie-corrected Kendall rank correlation, in [-1, 1].

    Raises:
        DegenerateRankingError: if either ranking ties every pair, which
            zeroes the normaliser and leaves the value undefined.
    """
    return float(_measure_values(_census([r1, r2]), TAU_B)[0, 1])


def coinciding_share(r1: Ranking, r2: Ranking) -> float:
    """Percentage of pairs ordered identically (mirrored ties included)."""
    return float(_measure_values(_census([r1, r2]), COINCIDING)[0, 1])


_MEASURE_DIAGONAL = {TAU_B: 1.0, COINCIDING: 100.0}


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

    def value(self, a: str, b: str) -> float:
        return float(self.values[self.labels.index(a), self.labels.index(b)])


def correlation_matrix(
    rankings: Mapping[str, Ranking] | Sequence[tuple[str, Ranking]],
    measure: str = TAU_B,
) -> CorrelationMatrix:
    """All pairwise correlations of two or more rankings over one alternative set.

    The diagonal is set to the measure's self-correlation (1 for tau-b,
    100 for the coinciding share).  Tau-b fails on a fully tied ranking,
    whose correlation with every other ranking is undefined.
    """
    pairs = list(rankings.items()) if isinstance(rankings, Mapping) else list(rankings)
    if len(pairs) < 2:
        raise InputError("a correlation matrix needs at least two rankings")
    labels = tuple(name for name, _ in pairs)
    if len(set(labels)) != len(labels):
        raise InputError("ranking names must be unique")
    values = _measure_values(_census([ranking for _, ranking in pairs]), measure)
    np.fill_diagonal(values, _MEASURE_DIAGONAL[measure])
    return CorrelationMatrix(labels=labels, values=values, measure=measure)
