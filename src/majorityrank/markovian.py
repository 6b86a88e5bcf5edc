"""Markov-chain ranking.

Alternatives are first partitioned into leagues by iterated weak-top-cycle
extraction; members of an earlier league rank above every later league.
Within a league, a title-passing chain moves between members: the current
winner keeps the title against anyone it beats, and loses it to any
challenger that beats or ties it, challengers being drawn uniformly.  The
transition matrix is column-stochastic and, thanks to the league pre-sort,
irreducible; members are ordered by decreasing stationary probability.

Stationary vectors are computed exactly by fraction-free (Bareiss)
elimination on the integer counts, which share a common denominator, so
genuinely equal probabilities tie and distinct ones never collapse, no
matter how small their gap.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from types import MappingProxyType

import numpy as np

from .core import DENSE, Ranking, from_ranks
from .errors import InputError, NumericalError, SingletonLeagueError
from .majority import MajorityStructure
from .solutions import WTC, sort_by_solution


@dataclass(frozen=True)
class LeaguePartition:
    """Disjoint leagues in decreasing strength order."""

    leagues: tuple[frozenset[str], ...]

    def __len__(self) -> int:
        return len(self.leagues)


@dataclass(frozen=True)
class TransitionMatrix:
    """Title-passing transition matrix of one league.

    ``counts[i, j]`` over the common ``denominator`` (league size minus
    one) is the probability that the title moves from member j to member
    i: the within-league win count of j on the diagonal, off-diagonal
    ones where i beats or ties j.  Every column sums to one.
    """

    members: tuple[str, ...]
    counts: np.ndarray
    denominator: int

    def __post_init__(self) -> None:
        counts = np.array(self.counts, dtype=np.int64)
        k = len(self.members)
        if counts.shape != (k, k):
            raise InputError(f"counts must be {k}x{k}")
        if self.denominator != k - 1 or k < 2:
            raise InputError("denominator must equal league size minus one (size >= 2)")
        if not (counts.sum(axis=0) == self.denominator).all():
            raise InputError("every column must sum to the denominator")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @property
    def matrix(self) -> np.ndarray:
        """Float view; exact integer counts remain available in ``counts``."""
        return self.counts / self.denominator


@dataclass(frozen=True)
class StationaryVector:
    """Exact stationary distribution of a league chain."""

    members: tuple[str, ...]
    probabilities: Mapping[str, Fraction]

    def __post_init__(self) -> None:
        object.__setattr__(self, "probabilities", MappingProxyType(dict(self.probabilities)))

    def as_floats(self) -> np.ndarray:
        return np.array([float(self.probabilities[name]) for name in self.members])


def leagues(ms: MajorityStructure) -> LeaguePartition:
    """League partition: the classes of weak-top-cycle sorting."""
    return LeaguePartition(leagues=sort_by_solution(ms, WTC).classes)


def transition_matrix(ms: MajorityStructure, league: frozenset[str] | set[str]) -> TransitionMatrix:
    """Build the title-passing matrix of one league.

    Raises:
        SingletonLeagueError: for a one-member league, which has no games;
            its member receives probability 1 directly.
    """
    idx = ms.restrict_indices(league)
    k = len(idx)
    if k < 2:
        raise SingletonLeagueError("a singleton league has no transition matrix")
    beats = ms.beats[np.ix_(idx, idx)].astype(np.int64)
    ties = ms.ties[np.ix_(idx, idx)].astype(np.int64)
    counts = beats + ties + np.diag(beats.sum(axis=1))
    members = tuple(ms.alternatives.items[i] for i in idx.tolist())
    return TransitionMatrix(members=members, counts=counts, denominator=k - 1)


def stationary(tm: TransitionMatrix) -> StationaryVector:
    """Exact fixed point: probabilities p with (counts/denominator) p = p, sum 1.

    Solved by fraction-free (Bareiss) elimination on the integer counts;
    the league pre-sort makes the chain irreducible, so the solution is
    unique and strictly positive.
    """
    k = len(tm.members)
    # rows 0..k-2 of (counts - d*I) p = 0 (the rows are linearly dependent),
    # closed with the normalisation row sum(p) = 1; the last column is the
    # right-hand side
    rows = [[int(tm.counts[i, j]) - (tm.denominator if i == j else 0) for j in range(k)] + [0]
            for i in range(k - 1)]
    rows.append([1] * (k + 1))

    previous = 1
    for col in range(k):
        pivot = next((r for r in range(col, k) if rows[r][col] != 0), None)
        if pivot is None:
            raise NumericalError("transition matrix is singular beyond the stationary degeneracy")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        head = rows[col]
        lead, tail = head[col], head[col + 1:]
        for r in range(col + 1, k):
            row = rows[r]
            factor = row[col]
            if factor:
                row[col + 1:] = [(lead * a - factor * b) // previous for a, b in zip(row[col + 1:], tail)]
            else:
                row[col + 1:] = [lead * a // previous for a in row[col + 1:]]
        previous = lead

    # The last pivot is +-det, and det * A^-1 b is integral by Cramer's rule,
    # so scaled = det * p is an integer vector and every division is exact.
    det = rows[k - 1][k - 1]
    scaled = [0] * k
    for r in range(k - 1, -1, -1):
        row = rows[r]
        acc = det * row[k] - sum(row[c] * scaled[c] for c in range(r + 1, k))
        scaled[r] = acc // row[r]

    probabilities = {name: Fraction(x, det) for name, x in zip(tm.members, scaled)}
    if any(p < 0 for p in probabilities.values()) or sum(probabilities.values()) != 1:
        raise NumericalError("stationary solve produced an invalid distribution")
    return StationaryVector(members=tm.members, probabilities=probabilities)


def markovian_ranking(ms: MajorityStructure, scheme: str = DENSE) -> Ranking:
    """Rank by league order first, then by decreasing stationary probability.

    Exactly equal probabilities within a league share a rank; all members
    of league k rank above all members of league k+1.
    """
    keys: dict[str, tuple[int, Fraction | int]] = {}  # (league number, -probability), exact
    for number, league in enumerate(leagues(ms).leagues):
        if len(league) == 1:
            keys[next(iter(league))] = (number, -1)
            continue
        vector = stationary(transition_matrix(ms, league))
        keys.update((name, (number, -p)) for name, p in vector.probabilities.items())
    order = groupby(sorted(keys, key=keys.__getitem__), key=keys.__getitem__)
    ranks = {name: rank for rank, (_, names) in enumerate(order, start=1) for name in names}
    return from_ranks(ms.alternatives, ranks, scheme=scheme)
