"""Ranking the candidate rankings themselves.

Every candidate ranking is scored against each criterion ranking by a
correlation measure, giving it a correlation vector.  Candidate R1 beats
R2 when the criteria that correlate strictly better with R1 outweigh (by
vote weight) those favouring R2; equal components vote for neither side.
Components are compared by exact keys from one pair census of all
candidates and criteria, so a tie means exact equality of the measure
values, never floating-point coincidence: N+ + N0 for the coinciding
share and, for tau_b = a/sqrt(d) with a = N+ - N- and d = (N - n1)(N - n2),
the Python integer a|a| * L/(N - n1), with L the least common multiple of
the candidates' N - n1.  Within one criterion's column N - n2 is constant,
so that key is a|a|/d times the positive constant L (N - n2), and it orders
and ties exactly as tau-b does because t -> t|t| is strictly increasing.
Each criterion's keys are ranked once to int levels by ``core``'s
relabelling (n log n exact comparisons per criterion), and the pairwise
comparisons use those levels.

The resulting majority digraph is generally only a partial order, and is
condensed into a weak order over the candidates: pairs whose relative
order agrees across all linear orders at minimal Kendall distance from
the digraph stay ordered, pairs that vary are tied.  If the transitive
closure has an empty diagonal, the digraph is acyclic, the optimal orders
are exactly its linear extensions and the fixed pairs are the closure;
otherwise the optimal orders are found exactly by a dynamic program over
the subsets of candidates, which caps cyclic digraphs at 20 candidates.
The program visits only the subsets that respect the digraph's
condensation: no optimal order inverts an arc between two strongly
connected components, because ordering the components topologically,
each one optimally, inverts no such arc and attains every component's own
minimum inside it (proof in ``_order_dp``).  A ``MetaComparison`` caches
its fixed pairs and the program's tables, which every query reads.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import COMPETITION, AlternativeSet, Criterion, Ranking, _levels, _total_weight, from_ranks
from .correlation import COINCIDING, MEASURES, TAU_B, _census, _measure_values
from .errors import DegenerateRankingError, InputError, SizeLimitError

SUBSET_SOLVER_LIMIT = 20
_DP_BLOCK = 1024  # states per step of the subset DP, which bounds its temporaries to about 1 MB

NamedRankings = Mapping[str, Ranking] | Sequence[tuple[str, Ranking]]


@dataclass(frozen=True)
class CorrelationVector:
    """One candidate's correlation with every criterion, in criterion order."""

    ranking_name: str
    components: tuple[tuple[str, float], ...]

    def values(self) -> tuple[float, ...]:
        return tuple(v for _, v in self.components)


@dataclass(frozen=True)
class MetaComparison:
    """Pairwise weighted majority comparison of candidate rankings.

    ``wins[i, j]`` is the total criterion weight favouring candidate i
    over candidate j; ``majority[i, j]`` is True iff that total exceeds
    the reverse one.
    """

    candidates: tuple[str, ...]
    majority: np.ndarray
    wins: np.ndarray
    measure: str

    def __post_init__(self) -> None:
        if not self.candidates:
            raise InputError("a meta-comparison needs at least one candidate")
        majority = np.array(self.majority, dtype=bool)
        wins = np.array(self.wins, dtype=np.int64)
        n = len(self.candidates)
        if majority.shape != (n, n) or wins.shape != (n, n):
            raise InputError(f"matrices must be {n}x{n}")
        if (majority & majority.T).any():
            raise InputError("majority matrix must be asymmetric")
        if not np.array_equal(majority, wins > wins.T):
            raise InputError("majority entries must mirror strict win-total comparisons")
        majority.setflags(write=False)
        wins.setflags(write=False)
        object.__setattr__(self, "majority", majority)
        object.__setattr__(self, "wins", wins)

    @cached_property
    def _dp(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[np.ndarray]]:
        """``_order_dp`` of the read-only majority digraph, run at most once."""
        return _order_dp(self.majority)

    @cached_property
    def _fixed(self) -> np.ndarray:
        """Strict partial order of the pairs ordered identically in every optimal order."""
        adj = self.majority
        closure = _transitive_closure(adj)
        on_cycle = closure.diagonal()
        if not on_cycle.any():
            return closure
        if len(adj) > SUBSET_SOLVER_LIMIT:
            # from the first vertex on a cycle, step to the lowest successor that can reach it again
            start = int(np.argmax(on_cycle))
            walk = [start]
            while walk.count(walk[-1]) == 1:
                walk.append(int(np.argmax(adj[walk[-1]] & closure[:, start])))
            names = [self.candidates[i] for i in walk[walk.index(walk[-1]):]]
            raise SizeLimitError(
                f"majority digraph over {len(adj)} candidates is cyclic (e.g. {' > '.join(names)}); "
                f"exact search handles at most {SUBSET_SOLVER_LIMIT}"
            )
        realized = _realized_pairs(self)
        return realized & ~realized.T


def correlation_vector(
    ranking: Ranking,
    criteria: Sequence[Criterion],
    measure: str = TAU_B,
    name: str = "candidate",
) -> CorrelationVector:
    """Correlate one ranking with every criterion ranking."""
    counts = _census([ranking, *(c.ranking for c in criteria)])
    values = _measure_values([row[0, 1:] for row in counts], measure)
    components = tuple(zip((c.name for c in criteria), values.tolist()))
    return CorrelationVector(ranking_name=name, components=components)


def rankings_majority(
    candidates: NamedRankings,
    criteria: Sequence[Criterion],
    measure: str = TAU_B,
) -> MetaComparison:
    """Weighted majority comparison of candidate rankings by criterion closeness.

    Every pair of candidates is compared component by component; a
    criterion contributes its vote weight to the side it strictly favours.
    """
    pairs = list(candidates.items()) if isinstance(candidates, Mapping) else list(candidates)
    names = tuple(name for name, _ in pairs)
    if len(set(names)) != len(names):
        raise InputError("candidate names must be unique")
    if not criteria:
        raise InputError("a meta-comparison needs at least one criterion")
    _total_weight(criteria)
    n = len(pairs)
    total, concordant, discordant, ties_first, ties_second, ties_both = (
        counts[:n, n:] for counts in _census([*(r for _, r in pairs), *(c.ranking for c in criteria)])
    )
    if measure == COINCIDING:
        keys = concordant + ties_both
    elif measure == TAU_B:
        norm = (total - ties_first) * (total - ties_second)
        if n > 1 and not norm.all():
            raise DegenerateRankingError("tau-b comparison involving a fully tied ranking is undefined")
        # the exact key a|a| * L/(N - n1) (module docstring); N - n1 = 0 only for a lone candidate
        untied = np.maximum(total[:, 0] - ties_first[:, 0], 1).tolist()
        lcm = math.lcm(*untied)
        score = (concordant - discordant).astype(object)
        keys = score * abs(score) * np.array([lcm // u for u in untied], dtype=object)[:, None]
    else:
        raise InputError(f"unknown measure {measure!r}; expected one of {MEASURES}")
    levels = _levels(keys.T).T  # each criterion's keys as int levels: comparisons of ints, in key order
    weights = np.array([c.weight for c in criteria], dtype=np.int64)
    wins = (levels[:, None, :] > levels[None, :, :]).astype(np.int64) @ weights
    majority = wins > wins.T
    return MetaComparison(candidates=names, majority=majority, wins=wins, measure=measure)


# ---------------------------------------------------------------------------
# condensation of the majority digraph into a weak order


def _transitive_closure(adj: np.ndarray) -> np.ndarray:
    closure = adj.copy()
    for k in range(len(adj)):
        closure |= closure[:, k][:, None] & closure[k, :][None, :]
    return closure


def _order_dp(adj: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[np.ndarray]]:
    """Exact minimum-inversion linear orders against a digraph, by subset DP.

    A state is the bitmask S of still-unplaced candidates; placing x first
    costs one inversion per y in S that beats x.  Only the states that an
    optimal order can pass through are visited, by this lemma: no optimal
    order inverts an arc between two strongly connected components (SCCs).
    An order's inversions are those inside each SCC plus those of arcs
    between SCCs.  The first share is at least the sum of each SCC's own
    minimum, the second at least 0, and a topological order of the
    condensation with every SCC ordered optimally meets both bounds, so an
    order that inverts an arc between SCCs is never optimal.  An arc
    between SCCs stays between SCCs in every induced subgraph, so the
    lemma holds in each state too: x may go first in S only if no member
    of S beats x across an SCC boundary.

    The states are enumerated from the full set down, layer by layer, and
    the tables are filled forward in popcount order, a block of states of
    one popcount at a time, each block at once over states x candidates:
    ``cost[S]`` is the fewest inversions of any order of S, ``count[S]``
    the number of orders of S reaching it, and ``choice[S]`` the mask of
    candidates that may go first.  The tables are indexed by state; the
    entries of states never visited stay 0.  Also returns the blocks, in
    the order they were filled.
    """
    n = len(adj)
    if n > SUBSET_SOLVER_LIMIT:
        raise SizeLimitError(f"exact order search is capped at {SUBSET_SOLVER_LIMIT} candidates, got {n}")
    # count[S] <= |S|! and 20! < 2**63 <= 21!, so int64 counts are exact up to the cap
    if math.factorial(n) > np.iinfo(np.int64).max:
        raise SizeLimitError(f"optimal order counts over {n} candidates overflow int64")
    bits = np.int32(1) << np.arange(n, dtype=np.int32)
    closure = _transitive_closure(adj)
    cross = adj & ~(closure & closure.T)  # the arcs between SCCs
    cross_pred = np.bitwise_or.reduce(np.where(cross, bits[:, None], 0), axis=0)  # who beats x across SCCs

    def movable(block: np.ndarray) -> np.ndarray:
        """movable[s, x]: x may go first in state block[s] (by the lemma)."""
        return ((block[:, None] & bits) != 0) & ((block[:, None] & cross_pred) == 0)

    layers = [[np.array([(1 << n) - 1], dtype=np.int32)]]  # blocks of the visited states by popcount, fullest first
    for _ in range(n - 1):
        children = np.concatenate([(b[:, None] ^ bits)[movable(b)] for b in layers[-1]])
        children.sort()  # then drop repeats: numpy 2's hashing np.unique is several times slower here
        layer = children[np.append(True, children[1:] != children[:-1])]
        layers.append(np.array_split(layer, -(-len(layer) // _DP_BLOCK)))
    blocks = [block for layer in reversed(layers) for block in layer]
    beaten_by = adj.astype(np.float32)
    cost = np.zeros(1 << n, dtype=np.int32)
    count = np.zeros(1 << n, dtype=np.int64)
    choice = np.zeros(1 << n, dtype=np.int32)
    count[0] = 1
    for block in blocks:
        inside = (block[:, None] & bits) != 0
        rest = block[:, None] ^ bits
        # inside @ beaten_by counts, per candidate x, the members of S that beat x (small exact integers)
        value = (inside @ beaten_by).astype(np.int32) + cost[rest]
        value[~movable(block)] = np.iinfo(np.int32).max
        best = value.min(axis=1)
        optimal = value == best[:, None]
        cost[block] = best
        count[block] = np.where(optimal, count[rest], 0).sum(axis=1)
        choice[block] = np.where(optimal, bits, 0).sum(axis=1)
    return cost, count, choice, blocks


def _realized_pairs(mc: MetaComparison) -> np.ndarray:
    """realized[u, v] is True iff some optimal order places u before v.

    One backward pass over the comparison's cached DP tables marks the
    states that optimal orders pass through; u precedes v in one of them
    iff u may go first in a marked state that still holds v.
    """
    n = len(mc.candidates)
    _, _, choice, blocks = mc._dp
    bits = np.int32(1) << np.arange(n, dtype=np.int32)
    reached = np.zeros(1 << n, dtype=bool)
    reached[-1] = True
    first_in = np.zeros(n, dtype=np.int32)  # first_in[u]: union of marked states where u may go first
    for block in reversed(blocks):
        marked = block[reached[block]]
        may_go_first = (choice[marked][:, None] & bits) != 0
        reached[(marked[:, None] ^ bits)[may_go_first]] = True
        first_in |= np.bitwise_or.reduce(np.where(may_go_first, marked[:, None], 0), axis=0)
    realized = (first_in[:, None] & bits) != 0
    np.fill_diagonal(realized, False)
    return realized


def closest_weak_order(mc: MetaComparison) -> Ranking:
    """Condense the majority digraph into a weak order over the candidates.

    The tied blocks are the connected components of incomparability under
    the fixed pairs, which the comparison caches.  They form a strict
    partial order (an acyclic digraph's transitive closure, or else the
    intersection of the optimal orders), whose incomparability components
    are totally ordered: each lies wholly above or wholly below each other
    one.  So the blocks are the maximal runs of any linear extension that no
    incomparable pair straddles.

    The output uses competition numbering: each tied block keeps the rank
    one past the number of candidates strictly above it.

    Raises:
        SizeLimitError: cyclic digraph over more than 20 candidates.
    """
    order = mc._fixed
    n = len(order)
    extension = np.argsort(order.sum(axis=0), kind="stable")  # fewer candidates above come first
    comparable = order[np.ix_(extension, extension)]
    comparable |= comparable.T
    # position of the last candidate incomparable with each one (itself at least)
    last_tie = n - 1 - np.argmax(~comparable[:, ::-1], axis=1)
    block_ends = np.maximum.accumulate(last_tie) == np.arange(n)
    block = np.concatenate(([1], 1 + np.cumsum(block_ends[:-1])))
    ranks = {mc.candidates[i]: int(b) for i, b in zip(extension, block)}
    return from_ranks(AlternativeSet(mc.candidates), ranks, scheme=COMPETITION)


def optimal_order_count(mc: MetaComparison) -> int:
    """Number of linear orders at minimal Kendall distance from the majority digraph."""
    _, count, _, _ = mc._dp
    return int(count[-1])


def optimal_linear_orders(mc: MetaComparison, cap: int = 10 ** 6) -> list[tuple[str, ...]]:
    """All minimum-distance linear orders, best candidate first (capped enumeration)."""
    _, count, choice, _ = mc._dp
    if count[-1] > cap:
        raise SizeLimitError(f"more than {cap} optimal orders")
    orders: list[tuple[tuple[int, ...], int]] = [((), len(choice) - 1)]
    for _ in mc.candidates:
        orders = [
            (prefix + (x,), state & ~(1 << x))
            for prefix, state in orders
            for x in range(len(mc.candidates))
            if choice[state] >> x & 1
        ]
    return [tuple(mc.candidates[i] for i in prefix) for prefix, _ in orders]


def minimum_distance(mc: MetaComparison) -> int:
    """Minimal number of majority pairs any candidate linear order must invert."""
    cost, _, _, _ = mc._dp
    return int(cost[-1])
