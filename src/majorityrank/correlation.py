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
matrices.  Over the m**2 ordered pairs (x, y), let the rows of S and T be
each ranking's s_r = sign(r_x - r_y) and t_r = [r_x = r_y].  Then
(S S^T)_rq = 2 (N+ - N-), (T T^T)_rq = 2 N0 + m, (T T^T)_rr = 2 n1 + m, and
U = m**2 - T_rr - T_qq + (T T^T)_rq = 2 (N+ + N-) counts the ordered pairs
tied in neither ranking.  The census is exact for m <= 77,936 (``_census``).
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .core import Ranking
from .errors import DegenerateRankingError, InputError

TAU_B = "tau_b"
COINCIDING = "coinciding"
MEASURES = (TAU_B, COINCIDING)
_CENSUS_BLOCK = 1 << 14  # cells of all rankings per step of the census: 128 KiB per temporary
# the largest m with (m (m - 1) / 2)**2 < 2**63
_CENSUS_MAX_SIZE = (1 + math.isqrt(1 + 8 * math.isqrt(2 ** 63 - 1))) // 2


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

    S S^T and T T^T are summed over blocks of rows x whose sign and tie rows
    of all R rankings hold at most ``_CENSUS_BLOCK`` cells (one row at
    least), so no m x m array is formed.  A block's float64 Gram entries are
    integers at most max(``_CENSUS_BLOCK``, m) < 2**53, hence exact, and the
    int64 totals are at most m**2.  The tau-b normaliser is at most N**2,
    which int64 holds for m <= ``_CENSUS_MAX_SIZE`` (77,936); a larger m
    raises InputError.
    """
    first = rankings[0].alternatives.items
    if any(ranking.alternatives.items != first for ranking in rankings):
        raise InputError("rankings are over different alternative sets")
    if len(first) < 2:
        raise InputError("correlation needs at least two alternatives")
    ranks = np.stack([ranking.rank_vector() for ranking in rankings])
    size, m = ranks.shape
    if m > _CENSUS_MAX_SIZE:
        raise InputError(f"the pair census supports at most {_CENSUS_MAX_SIZE} alternatives, got {m}")
    sign_gram = np.zeros((size, size), dtype=np.int64)
    tie_gram = np.zeros((size, size), dtype=np.int64)
    step = max(1, _CENSUS_BLOCK // (size * m))
    for start in range(0, m, step):
        diff = (ranks[:, start:start + step, None] - ranks[:, None, :]).reshape(size, -1)
        signs = np.sign(diff).astype(np.float64)
        ties = (diff == 0).astype(np.float64)
        sign_gram += (signs @ signs.T).astype(np.int64)
        tie_gram += (ties @ ties.T).astype(np.int64)
    tied = np.diag(tie_gram)[:, None]  # ordered pairs each ranking ties, x = y included
    untied = m * m - tied - tied.T + tie_gram
    return (
        np.full((size, size), m * (m - 1) // 2, dtype=np.int64),
        (untied + sign_gram) // 4,
        (untied - sign_gram) // 4,
        np.broadcast_to((tied - m) // 2, (size, size)),
        np.broadcast_to((tied.T - m) // 2, (size, size)),
        (tie_gram - m) // 2,
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
