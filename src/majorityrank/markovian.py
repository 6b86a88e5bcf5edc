"""Markov-chain ranking.

Alternatives are first partitioned into leagues by iterated weak-top-cycle
extraction; members of an earlier league rank above every later league.
Within a league, a title-passing chain moves between members: the current
winner keeps the title against anyone it beats, and loses it to any
challenger that beats or ties it, challengers being drawn uniformly.  The
transition matrix is column-stochastic and, thanks to the league pre-sort,
irreducible; members are ordered by decreasing stationary probability.

Stationary vectors are exact: integer numerators over one common
denominator, so genuinely equal probabilities tie and distinct ones never
collapse, no matter how small their gap.  Within a league, ranking by
decreasing probability is ranking by decreasing numerator, so members are
ranked on those integers by ``core``'s relabelling, never on fractions.  The
fixed point solves an integer system, found by Dixon's p-adic lifting
(Numer. Math. 40, 1982) modulo a prime p just below 2**21 and rebuilt by
rational reconstruction (Wang, Guy & Davenport, SIGSAM Bull. 16, 1982)
from L base-p digits, with p**L > 2*H**2 for the Hadamard bound H of the
system.  Every float64 product of the solve is exact while
k * (p - 1)**2 < 2**53, that is for leagues of up to 2,048 members; a
larger league raises ``SizeLimitError``.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

import numpy as np

from .core import DENSE, Ranking, _levels, from_ranks
from .errors import InputError, NumericalError, SingletonLeagueError, SizeLimitError
from .majority import MajorityStructure
from .solutions import WTC, sort_by_solution

# Primes just below 2**21; _MAX_LEAGUE is the largest k with k * (p - 1)**2 < 2**53.
_PRIMES = (2097143, 2097133, 2097131, 2097097)
_MAX_LEAGUE = (2**53 - 1) // (max(_PRIMES) - 1) ** 2
_BLOCK = 64  # Gauss-Jordan panel width


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
        raw = np.asarray(self.counts)
        k = len(self.members)
        if raw.shape != (k, k):
            raise InputError(f"counts must be {k}x{k}")
        if self.denominator != k - 1 or k < 2:
            raise InputError("denominator must equal league size minus one (size >= 2)")
        if raw.dtype.kind not in "biuf":
            raise InputError(f"counts must be integers, got dtype {raw.dtype}")
        with np.errstate(invalid="ignore"):
            counts = raw.astype(np.int64)
        if not (np.array_equal(counts, raw) and ((counts >= 0) & (counts <= self.denominator)).all()):
            raise InputError(f"every count must be an integer in [0, {self.denominator}]")
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
    """Exact stationary distribution of a league chain: member i has probability numerators[i] / denominator."""

    members: tuple[str, ...]
    numerators: tuple[int, ...]
    denominator: int

    @property
    def probabilities(self) -> Mapping[str, Fraction]:
        return MappingProxyType({name: Fraction(n, self.denominator) for name, n in zip(self.members, self.numerators)})

    def as_floats(self) -> np.ndarray:
        return np.array([n / self.denominator for n in self.numerators])


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

    Solves A p = e_(k-1), where A is rows 0..k-2 of counts - d*I closed by a
    row of ones, by Dixon's p-adic lifting: A is inverted once modulo a
    prime p < 2**21 from ``_PRIMES`` (the next one when a pivot vanishes
    mod p), L base-p digits of the solution are lifted with float64
    products, and rational reconstruction turns them into fractions.  By
    Cramer's rule the determinant and every numerator are integers bounded
    by the Hadamard bound H (the product of the row 2-norms of A), so
    p**L > 2*H**2 makes the reconstruction unique.  The league pre-sort
    makes the chain irreducible, so the solution is unique and strictly
    positive.

    Raises:
        SizeLimitError: a league above ``_MAX_LEAGUE`` (2,048) members,
            past which the float64 products of the solve are no longer exact.
        NumericalError: A is singular modulo every prime in ``_PRIMES``
            (as it is when the chain has more than one closed class), or the
            solution is not a distribution.
    """
    k = len(tm.members)
    if k > _MAX_LEAGUE:
        raise SizeLimitError(f"the exact stationary solve is capped at {_MAX_LEAGUE} league members, got {k}")
    a = tm.counts - tm.denominator * np.eye(k, dtype=np.int64)
    a[-1] = 1
    for p in _PRIMES:
        inverse = _inverse_mod(a % p, p)
        if inverse is not None:
            break
    else:
        raise NumericalError(f"the stationary system is singular modulo every prime in {_PRIMES}: the chain "
                             "has more than one closed class, or its determinant is a multiple of all of them")
    bound = math.isqrt(math.prod((a * a).sum(axis=1).tolist()))  # floor of the Hadamard bound
    modulus, digits = p, 1
    while modulus <= 2 * bound * bound:
        modulus, digits = modulus * p, digits + 1

    # D * x_j, with D the running common denominator of the components so
    # far, has numerator at most bound and denominator at most bound // D.
    numerators, denominator = [], 1
    for value in _lift(a, inverse, p, digits):
        numerator, extra = _rational(denominator * value % modulus, modulus, bound, bound // denominator)
        if extra > 1:
            numerators = [n * extra for n in numerators]
            denominator *= extra
        numerators.append(numerator)
    if min(numerators) < 0 or sum(numerators) != denominator:
        raise NumericalError("stationary solve produced an invalid distribution")
    return StationaryVector(members=tm.members, numerators=tuple(numerators), denominator=denominator)


def _inverse_mod(a: np.ndarray, p: int) -> np.ndarray | None:
    """A^-1 mod p by blocked Gauss-Jordan, or None if a pivot vanishes mod p.

    Pivot rows stay in place and column c, once eliminated, stores the
    transform's column for its pivot row; the inverse is read off at the
    end.  Each block of ``_BLOCK`` columns is eliminated on a reduced panel,
    then applied to the whole matrix as one float64 GEMM whose factors are
    reduced mod p.  Entries stay non-negative and only the panel and the
    pivot rows are reduced: an entry is one reduced value plus at most
    k - 1 products of reduced values, or at most k such products, so it
    never exceeds k * (p - 1)**2, below 2**53 under ``_MAX_LEAGUE``.
    """
    k = len(a)
    w = a.astype(np.float64)
    pivots = np.empty(k, dtype=np.intp)
    free = np.ones(k, dtype=bool)
    for start in range(0, k, _BLOCK):
        nb = min(_BLOCK, k - start)
        panel = w[:, start:start + nb] % p
        for t in range(nb):
            column = panel[:, t] % p
            candidates = np.flatnonzero(free & (column != 0))
            if not len(candidates):
                return None
            r = candidates[0]
            free[r] = False
            pivots[start + t] = r
            panel[:, t] = 0
            panel[r, t] = 1  # the transform's column for row r, a unit vector until now
            row = panel[r] % p * pow(int(column[r]), -1, p) % p
            negated = (p - column) % p
            negated[r] = 0
            panel += np.outer(negated, row)
            panel[r] = row
        transform = panel % p
        rows = pivots[start:start + nb]
        head = w[rows] % p
        w[rows] = 0
        w += transform @ head
        w[:, start:start + nb] = transform
    order = np.empty(k, dtype=np.intp)
    order[pivots] = np.arange(k)
    return w[pivots][:, order] % p


def _lift(a: np.ndarray, inverse: np.ndarray, p: int, digits: int) -> list[int]:
    """A^-1 e_(k-1) mod p**digits, one non-negative int per component.

    Each digit x = A^-1 r mod p and the residual update r = (r - A x)/p
    stay exact in float64: inverse @ (r mod p) sums k products below
    (p - 1)**2, A @ x stays below k * max|A| * p, |r| never exceeds
    k * max|A|, and r - A x is a multiple of p.  The digits are assembled
    by a product tree, three per int64 first (p**3 < 2**63).
    """
    k = len(a)
    a = a.astype(np.float64)
    residual = np.zeros(k)
    residual[-1] = 1
    lifted = np.zeros((-(-digits // 3) * 3, k))
    for i in range(digits):
        x = inverse @ (residual % p) % p
        residual = (residual - a @ x) / p
        lifted[i] = x
    lifted = lifted.astype(np.int64).reshape(-1, 3, k)
    level = (lifted[:, 0] + p * lifted[:, 1] + p * p * lifted[:, 2]).astype(object)
    base = p ** 3
    while len(level) > 1:
        if len(level) % 2:
            level = np.vstack([level, np.zeros((1, k), dtype=np.int64)])
        level = level[0::2] + level[1::2] * base
        base *= base
    return level[0].tolist()


def _rational(value: int, modulus: int, num_bound: int, den_bound: int) -> tuple[int, int]:
    """The fraction n/d = value mod modulus with |n| <= num_bound, 0 < d <= den_bound.

    Wang's half extended Euclid; the answer is unique because
    2 * num_bound * den_bound < modulus.
    """
    r0, r1, t0, t1 = modulus, value, 0, 1
    while r1 > num_bound:
        q, rem = divmod(r0, r1)
        r0, r1, t0, t1 = r1, rem, t1, t0 - q * t1
    if t1 == 0 or abs(t1) > den_bound:
        raise NumericalError("rational reconstruction of the stationary vector failed")
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def markovian_ranking(ms: MajorityStructure, scheme: str = DENSE) -> Ranking:
    """Rank by league order first, then by decreasing stationary probability.

    Exactly equal probabilities within a league share a rank; all members
    of league k rank above all members of league k+1.
    """
    ranks: dict[str, int] = {}  # 1 + league number * len(ms) + the level of -numerator in the league
    for number, league in enumerate(leagues(ms).leagues):
        if len(league) == 1:
            ranks[next(iter(league))] = 1 + number * len(ms)
            continue
        vector = stationary(transition_matrix(ms, league))
        levels = _levels(np.array([[-n for n in vector.numerators]], dtype=object))[0]
        ranks.update(zip(vector.members, (1 + number * len(ms) + levels).tolist()))
    return from_ranks(ms.alternatives, ranks, scheme=scheme)
