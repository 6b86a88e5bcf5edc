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
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from math import sqrt

import numpy as np

from .core import Ranking
from .errors import DegenerateRankingError, InputError

TAU_B = "tau_b"
COINCIDING = "coinciding"
MEASURES = (TAU_B, COINCIDING)
_CENSUS_BLOCK = 1 << 14  # pair comparisons per step of the census: 128 KiB per int64 temporary


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


def _check_common(r1: Ranking, r2: Ranking) -> None:
    if r1.alternatives.items != r2.alternatives.items:
        raise InputError("rankings are over different alternative sets")
    if len(r1.alternatives) < 2:
        raise InputError("correlation needs at least two alternatives")


def pair_stats(r1: Ranking, r2: Ranking) -> PairStats:
    """Count concordant, inverted and tied pairs of two rankings.

    Every ordered pair is compared, a block of rows at a time, and each
    unordered pair is counted twice (each alternative ties itself once).
    The blocks keep the temporaries at ``_CENSUS_BLOCK`` cells whatever
    the number of alternatives, so a large census neither holds m x m
    arrays nor grows the heap by them.
    """
    _check_common(r1, r2)
    a = r1.rank_vector()
    b = r2.rank_vector()
    m = len(a)
    same = opposite = tied1 = tied2 = tied_both = 0
    step = max(1, _CENSUS_BLOCK // m)
    for start in range(0, m, step):
        sa = np.sign(a[start:start + step, None] - a)
        sb = np.sign(b[start:start + step, None] - b)
        agree = sa * sb
        same += int((agree > 0).sum())
        opposite += int((agree < 0).sum())
        ta, tb = sa == 0, sb == 0
        tied1 += int(ta.sum())
        tied2 += int(tb.sum())
        tied_both += int((ta & tb).sum())
    return PairStats(
        total=m * (m - 1) // 2,
        concordant=same // 2,
        discordant=opposite // 2,
        ties_first=(tied1 - m) // 2,
        ties_second=(tied2 - m) // 2,
        ties_both=(tied_both - m) // 2,
    )


def kendall_tau_b(r1: Ranking, r2: Ranking) -> float:
    """Tie-corrected Kendall rank correlation, in [-1, 1].

    Raises:
        DegenerateRankingError: if either ranking ties every pair, which
            zeroes the normaliser and leaves the value undefined.
    """
    stats = pair_stats(r1, r2)
    denom = (stats.total - stats.ties_first) * (stats.total - stats.ties_second)
    if denom == 0:
        raise DegenerateRankingError("tau-b is undefined when a ranking ties all pairs")
    return (stats.concordant - stats.discordant) / sqrt(denom)


def coinciding_share(r1: Ranking, r2: Ranking) -> float:
    """Percentage of pairs ordered identically (mirrored ties included)."""
    stats = pair_stats(r1, r2)
    return 100.0 * (stats.concordant + stats.ties_both) / stats.total


_MEASURE_FUNCTIONS = {TAU_B: kendall_tau_b, COINCIDING: coinciding_share}
_MEASURE_DIAGONAL = {TAU_B: 1.0, COINCIDING: 100.0}


def measure_function(measure: str):
    try:
        return _MEASURE_FUNCTIONS[measure]
    except KeyError:
        raise InputError(f"unknown measure {measure!r}; expected one of {MEASURES}") from None


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

    The diagonal is fixed to the measure's self-correlation (1 for tau-b,
    100 for the coinciding share) without evaluating it, so fully tied
    rankings only fail where an off-diagonal value is genuinely undefined.
    """
    pairs = list(rankings.items()) if isinstance(rankings, Mapping) else list(rankings)
    if len(pairs) < 2:
        raise InputError("a correlation matrix needs at least two rankings")
    labels = tuple(name for name, _ in pairs)
    if len(set(labels)) != len(labels):
        raise InputError("ranking names must be unique")
    func = measure_function(measure)
    n = len(pairs)
    values = np.full((n, n), _MEASURE_DIAGONAL[measure])
    for i in range(n):
        for j in range(i + 1, n):
            values[i, j] = values[j, i] = func(pairs[i][1], pairs[j][1])
    return CorrelationMatrix(labels=labels, values=values, measure=measure)
