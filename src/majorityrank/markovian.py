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
ranked on those integers by ``core``'s relabelling, never on fractions.

The fixed point of a league's counts C (columns summing to d = k - 1)
solves N y = 1 with N = d*I - C + J, J all ones: 1^T (d*I - C) = 0 gives
sum(y) = 1 and then C y = d y.  N_ii is 1 plus the number of members that
beat or tie i, and N_ij = 1 exactly where j beats i, so each row's margin
N_ii - sum_(j != i) |N_ij| is 1 plus i's ties.  N is therefore strictly
diagonally dominant: nonsingular, with ||N^-1||_inf <= 1 (Varah, Linear
Algebra Appl. 11, 1975) and condition number at most 2k.  A float64
inverse of N preconditions an exact integer residual recurrence (Wan,
J. Symbolic Comput. 41, 2006), whose last residual r_L certifies the scaled
approximation S / 2**(tL) to within ||r_L||_inf / 2**(tL) whatever the
inverse is.  Every denominator of y divides det N, at most the Hadamard
bound H, so once 2**(tL) > 2 ||r_L||_inf H**2 each component is the last
continued-fraction convergent of its approximation with a denominator of
at most H (Legendre).

Leagues are capped at 2,048 members, above which ``SizeLimitError`` is
raised before any work.  The cap bounds the solve's time and memory, which
grow as k**3 log k and k**2 log k, and it keeps the first lift step at
t >= 27 bits: the float inverse's error grows with k, and a step that it
breaks is retried at half the length.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

import numpy as np

from .core import DENSE, Ranking, _labels, from_ranks
from .errors import InputError, NumericalError, SingletonLeagueError, SizeLimitError
from .majority import MajorityStructure
from .solutions import WTC, sort_by_solution

_MAX_LEAGUE = 2048


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
    ones where i beats or ties j.  Every column sums to one, every
    off-diagonal count is 0 or 1, and of every two members at least one
    beats or ties the other, or an ``InputError`` is raised.  Such a chain
    has exactly one closed class, since two would each have to beat the
    other, so its stationary vector is unique.
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
        bad = (counts > 1) | (counts + counts.T == 0)
        np.fill_diagonal(bad, False)
        if bad.any():
            i, j = np.argwhere(bad)[0].tolist()
            a, b = self.members[i], self.members[j]
            if counts[i, j] > 1:
                raise InputError(f"off-diagonal counts must be 0 or 1, got {counts[i, j]} at ({a!r}, {b!r})")
            raise InputError(f"members {a!r} and {b!r} neither beat nor tie each other: both counts between them are 0")
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
    """Build the title-passing matrix of one league from its one beats restriction, which holds its ties too.

    Raises:
        SingletonLeagueError: for a one-member league, which has no games;
            its member receives probability 1 directly.
    """
    idx, beats = ms.restrict(league)
    k = len(idx)
    if k < 2:
        raise SingletonLeagueError("a singleton league has no transition matrix")
    counts = (~beats.T).astype(np.int64)  # i beats or ties j exactly where j does not beat i
    np.fill_diagonal(counts, beats.sum(axis=1))
    members = tuple(ms.alternatives.items[i] for i in idx.tolist())
    return TransitionMatrix(members=members, counts=counts, denominator=k - 1)


def stationary(tm: TransitionMatrix) -> StationaryVector:
    """Exact fixed point: probabilities p with (counts/denominator) p = p, sum 1.

    Solves N y = 1 (see the module docstring) from one float64 inverse F
    of N.  From r_0 = 1, each step sets x_i = rint(2**t F r_i) and
    r_(i+1) = 2**t r_i - N x_i.  Every x_i and r_i is an integer held
    exactly in float64: max|x_i| * ||N||_inf < 2**53 and
    ||r_(i+1)||_inf <= 2 ||N||_inf are checked.  Then S = sum x_i
    2**(t(L-1-i)) satisfies N S = 2**(tL) 1 - r_L, and with
    ||N^-1||_inf <= 1 each component of y lies within ||r_L||_inf / 2**(tL)
    of S / 2**(tL).  t starts at the largest step that the first check
    allows when F is accurate, and a failed check restarts the lift at
    t // 2: F sets the speed, never the answer.  The lift stops at the
    least L with 2**(tL) > 2 ||r_L||_inf H**2, H bounded by a power of two
    from a float64 sum of log2 row norms.  Components are read with a
    running common denominator D: D * y_j is usually the integer nearest
    D * S_j / 2**(tL), and otherwise a continued-fraction convergent.

    Raises:
        SizeLimitError: a league above ``_MAX_LEAGUE`` (2,048) members.
        NumericalError: the lift fails its checks at every step down to
            t = 1, as it never does with an accurate F, or the solution
            is not a distribution.
    """
    k = len(tm.members)
    if k > _MAX_LEAGUE:
        raise SizeLimitError(f"the exact stationary solve is capped at {_MAX_LEAGUE} league members, got {k}")
    n = tm.denominator * np.eye(k, dtype=np.int64) - tm.counts + 1
    norm = int(np.abs(n).sum(axis=1).max())
    # log2 of the Hadamard bound as a float64 sum, which errs by far less
    # than one bit: 2**bits is above it, and so above |det N|.
    bits = int(np.log2((n * n).sum(axis=1)).sum() / 2) + 2
    system = n.astype(np.float64)
    inverse = np.linalg.inv(system)
    step = _step(norm)
    while (lifted := _lift(system, inverse, norm, step, 2 * bits + 1)) is None:
        step //= 2
        if step < 1:
            raise NumericalError("the stationary lift failed its exactness checks at every step size")
    rows, residual = lifted
    scale = step * len(rows)

    # D * y_j has a denominator of at most 2**bits // D and lies within
    # D * residual / 2**scale of D * S_j / 2**scale.
    numerators, denominator, half = [], 1, 1 << (scale - 1)
    for value in _combine(rows, step):
        value *= denominator
        numerator = (value + half) >> scale
        if abs(value - (numerator << scale)) > denominator * residual:
            numerator, extra = _convergent(value, scale, (1 << bits) // denominator)
            numerators = [x * extra for x in numerators]
            denominator *= extra
        numerators.append(numerator)
    if min(numerators) < 0 or sum(numerators) != denominator:
        raise NumericalError("stationary solve produced an invalid distribution")
    return StationaryVector(members=tm.members, numerators=tuple(numerators), denominator=denominator)


def _step(norm: int) -> int:
    """The first lift step for ||N||_inf = norm.

    With ||r||_inf <= 2 * norm and ||N^-1||_inf <= 1, an accurate F gives
    max|x| * norm <= 2**t * 2 * norm**2 < 2**52, half the float64 bound;
    the other half is room for the rounding of x and the error of F.
    """
    return 51 - 2 * norm.bit_length()


def _lift(system: np.ndarray, inverse: np.ndarray, norm: int, step: int, bits: int) -> tuple[np.ndarray, int] | None:
    """Rows x_0..x_(L-1) and ||r_L||_inf for the least L with step * L >= bits + bitlength(||r_L||_inf),
    so that 2**(step L) > 2**bits ||r_L||_inf, or None when an exactness check fails.

    max|x_i| * norm < 2**53 is checked over every row once the loop ends:
    an inexact product N x_i can only be followed by that rejection.
    """
    scale = 2.0 ** step
    scaled = inverse * scale
    residual = np.ones(len(system))
    rows, top = [], 1
    while step * len(rows) < bits + top.bit_length():
        x = np.rint(scaled @ residual)
        residual = residual * scale - system @ x
        bound = np.abs(residual).max()
        if not bound <= 2 * norm:
            return None
        rows.append(x)
        top = int(bound)
    rows = np.array(rows)
    if not np.abs(rows).max() * norm < 2.0 ** 53:
        return None
    return rows, top


def _combine(rows: np.ndarray, step: int) -> list[int]:
    """S_j = sum_i rows[i, j] * 2**(step (L-1-i)) by a product tree over rows padded with leading zeros."""
    level = np.zeros((1 << (len(rows) - 1).bit_length(), rows.shape[1]), dtype=object)
    level[len(level) - len(rows):] = rows.astype(np.int64)
    while len(level) > 1:
        level = (level[0::2] << step) + level[1::2]
        step *= 2
    return level[0].tolist()


def _convergent(value: int, scale: int, limit: int) -> tuple[int, int]:
    """The last continued-fraction convergent p/q of value / 2**scale with 0 < q <= limit."""
    u, v = value, 1 << scale
    p, q, p_prev, q_prev = 1, 0, 0, 1
    while v:
        a, (u, v) = u // v, (v, u % v)
        if a * q + q_prev > limit:
            break
        p, q, p_prev, q_prev = a * p + p_prev, a * q + q_prev, p, q
    return p, q


def markovian_ranking(ms: MajorityStructure, scheme: str = DENSE) -> Ranking:
    """Rank by league order first, then by decreasing stationary probability.

    Exactly equal probabilities within a league share a rank; all members
    of league k rank above all members of league k+1.
    """
    ranks = np.zeros(len(ms), dtype=np.int64)  # league number * len(ms) + the dense label of -numerator in the league
    for number, league in enumerate(leagues(ms).leagues):
        members, labels = league, 1
        if len(league) > 1:
            vector = stationary(transition_matrix(ms, league))
            members, labels = vector.members, _labels(np.array([-n for n in vector.numerators], dtype=object), DENSE)
        ranks[ms.alternatives.positions(members)] = number * len(ms) + labels
    return from_ranks(ms.alternatives, ranks, scheme=scheme)
