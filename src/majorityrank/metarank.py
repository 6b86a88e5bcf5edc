"""Ranking the candidate rankings themselves.

Every candidate ranking is scored against each criterion ranking by a
correlation measure, giving it a correlation vector.  Candidate R1 beats
R2 when the criteria that correlate strictly better with R1 outweigh (by
vote weight) those favouring R2; equal components vote for neither side.
The wins are one read of a pair census of the candidates and criteria, by
exact keys (``correlation``'s module docstring).

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
minimum inside it (proof in ``_order_dp``).  It passes down from the full
set to fill each subset's tables, then up from the empty set to keep the
placements on optimal orders.  A ``MetaComparison`` caches the closure,
its fixed pairs and the program's tables, which every query reads.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import COMPETITION, AlternativeSet, Criterion, Ranking, _frozen, _total_weight, from_ranks
from .correlation import TAU_B, NamedRankings, _named_census
from .errors import InputError, SizeLimitError

SUBSET_SOLVER_LIMIT = 20
_DP_BLOCK = 1024  # states per step of the subset DP, which bounds its temporaries to about 1 MB


@dataclass(frozen=True)
class CorrelationVector:
    """One candidate's correlation with every criterion, in criterion order."""

    ranking_name: str
    components: tuple[tuple[str, float], ...]


@dataclass(frozen=True)
class MetaComparison:
    """Pairwise weighted majority comparison of candidate rankings.

    ``wins[i, j]`` is the total criterion weight favouring candidate i
    over candidate j; the majority digraph is derived from it.
    """

    candidates: tuple[str, ...]
    wins: np.ndarray
    measure: str

    def __post_init__(self) -> None:
        if not self.candidates:
            raise InputError("a meta-comparison needs at least one candidate")
        wins = _frozen(np.asarray(self.wins, dtype=np.int64))
        n = len(self.candidates)
        if wins.shape != (n, n):
            raise InputError(f"the wins matrix must be {n}x{n}")
        object.__setattr__(self, "wins", wins)

    @cached_property
    def majority(self) -> np.ndarray:
        """Read-only ``majority[i, j]``: the weight favouring candidate i over j exceeds the reverse one."""
        majority = self.wins > self.wins.T
        majority.setflags(write=False)
        return majority

    @cached_property
    def _closure(self) -> np.ndarray:
        """Read-only transitive closure of the majority digraph."""
        closure = _transitive_closure(self.majority)
        closure.setflags(write=False)
        return closure

    @cached_property
    def _dp(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``_order_dp`` of the majority digraph, run at most once."""
        return _order_dp(self.majority, self._closure)

    @cached_property
    def _fixed(self) -> np.ndarray:
        """Strict partial order of the pairs ordered identically in every optimal order."""
        adj, closure = self.majority, self._closure
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
        realized = self._dp[3]
        return realized & ~realized.T


def correlation_vector(
    ranking: Ranking,
    criteria: Sequence[Criterion],
    measure: str = TAU_B,
    name: str = "candidate",
) -> CorrelationVector:
    """Correlate one ranking, named ``name`` in errors, with every criterion ranking."""
    census = _named_census([(name, ranking)], measure, criteria)
    components = tuple(zip(census.names[1:], census.values(measure)[0, 1:].tolist()))
    return CorrelationVector(ranking_name=name, components=components)


def rankings_majority(
    candidates: NamedRankings,
    criteria: Sequence[Criterion],
    measure: str = TAU_B,
) -> MetaComparison:
    """Weighted majority comparison of candidate rankings by criterion closeness.

    Every pair of candidates is compared component by component; a
    criterion contributes its vote weight to the side it strictly favours.

    Raises:
        InputError: no criterion or no candidate, what the census refuses, or (as DegenerateRankingError) under
            tau-b with two or more candidates a candidate or criterion that ties every pair, naming the first
            ranking at fault, candidates before criteria (``correlation``'s module docstring).
    """
    if not criteria:
        raise InputError("a meta-comparison needs at least one criterion")
    if not candidates:
        raise InputError("a meta-comparison needs at least one candidate")
    _total_weight(criteria)
    census, n = _named_census(candidates, measure, criteria), len(candidates)
    if measure == TAU_B and n > 1:
        census.values(TAU_B)  # the tau-b read's refusal; a lone candidate is compared with none
    return MetaComparison(census.names[:n], census.wins(n, slice(n, None), [c.weight for c in criteria], measure), measure)


# ---------------------------------------------------------------------------
# condensation of the majority digraph into a weak order


def _transitive_closure(adj: np.ndarray) -> np.ndarray:
    closure = adj.copy()
    for k in range(len(adj)):
        closure |= closure[:, k][:, None] & closure[k, :][None, :]
    return closure


def _order_dp(adj: np.ndarray, closure: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
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

    The forward pass fills the states from the full set down, pulling each
    S from its parents S | x: ``cost[S]`` is the fewest inversions of any
    prefix that leaves S unplaced, ``count[S]`` the number of such prefixes
    (at most (n - |S|)! <= 20! < 2**63; 0 at the states never visited), and
    ``entry[S]`` the mask of the x whose placement first in S | x reaches S
    at that cost, so ``cost[0]`` is the minimum distance and ``count[0]``
    the number of optimal orders.  The backward pass climbs from the empty
    state, clears ``entry`` where no optimal order passes, and collects
    ``realized[u, v]``: some optimal order places u before v.  Then x may go
    first in S on an optimal order iff ``entry[S ^ 1 << x]`` holds x, all
    that a table of first choices would say.  Each pass marks a layer's
    states in one boolean table and works them in blocks of at most
    ``_DP_BLOCK`` states, at once over states x candidates.
    """
    n = len(adj)
    if n > SUBSET_SOLVER_LIMIT:
        raise SizeLimitError(f"exact order search is capped at {SUBSET_SOLVER_LIMIT} candidates, got {n}")
    bits = np.int32(1) << np.arange(n, dtype=np.int32)
    cross = adj & ~(closure & closure.T)  # the arcs between SCCs
    cross_pred = np.bitwise_or.reduce(np.where(cross, bits[:, None], 0), axis=0)  # who beats x across SCCs
    beaten_by = adj.astype(np.float32)
    full = (1 << n) - 1
    cost = np.full(1 << n, n * n, dtype=np.int32)  # n * n, above every order's inversions, until filled
    count = np.zeros(1 << n, dtype=np.int64)
    entry = np.zeros(1 << n, dtype=np.int32)
    marked = np.zeros(1 << n, dtype=bool)  # the next layer's states
    reached = np.zeros(1 << n, dtype=bool)  # the states that optimal orders pass through

    def layer_blocks(layers: int) -> Iterator[np.ndarray]:
        """Per layer, yield the marked states in blocks, then unmark them and the marks blocks left on themselves."""
        for _ in range(layers):
            layer = np.flatnonzero(marked)
            yield from np.split(layer, range(_DP_BLOCK, len(layer), _DP_BLOCK))
            marked[layer] = False

    cost[full], count[full] = 0, 1
    marked[full ^ bits[cross_pred == 0]] = True
    for block in layer_blocks(n):
        inside = (block[:, None] & bits) != 0
        blocked = (block[:, None] & cross_pred) != 0  # x may not go first in S | x, by the lemma
        parent = block[:, None] | bits  # S itself for x in S, not filled yet
        # inside @ beaten_by counts, per candidate x, the members of S that beat x (small exact integers)
        value = np.where(blocked, n * n, (inside @ beaten_by).astype(np.int32) + cost[parent])
        cost[block] = best = value.min(axis=1)
        optimal = value == best[:, None]
        count[block] = np.einsum("ij,ij->i", count[parent], optimal)  # the optimal parents' counts, summed
        entry[block] = optimal @ bits
        marked[block[:, None] ^ bits * (inside & ~blocked)] = True  # S itself for a move not made: one scatter
    first_in = np.zeros(n, dtype=np.int32)  # first_in[u]: union of the states u's optimal placements leave
    marked[0] = True
    for block in layer_blocks(n + 1):
        reached[block] = True
        first = entry[block][:, None] & bits  # bit x where x goes first in S | x on an optimal order
        first_in |= np.bitwise_or.reduce(np.where(first != 0, block[:, None], 0), axis=0)
        marked[block[:, None] | first] = True
    entry *= reached
    return cost, count, entry, (first_in[:, None] & bits) != 0


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
    comparable = order[extension][:, extension]
    comparable |= comparable.T
    # position of the last candidate incomparable with each one (itself at least)
    last_tie = n - 1 - np.argmax(~comparable[:, ::-1], axis=1)
    block_ends = np.maximum.accumulate(last_tie) == np.arange(n)
    block = np.concatenate(([1], 1 + np.cumsum(block_ends[:-1])))
    ranks = np.empty(n, dtype=np.int64)
    ranks[extension] = block
    return from_ranks(AlternativeSet(mc.candidates), ranks, scheme=COMPETITION)


def optimal_order_count(mc: MetaComparison) -> int:
    """Number of linear orders at minimal Kendall distance from the majority digraph."""
    _, count, _, _ = mc._dp
    return int(count[0])


def optimal_linear_orders(mc: MetaComparison, cap: int = 10 ** 6) -> list[tuple[str, ...]]:
    """All minimum-distance linear orders, best candidate first (capped enumeration)."""
    _, count, entry, _ = mc._dp
    if count[0] > cap:
        raise SizeLimitError(f"more than {cap} optimal orders")
    orders: list[tuple[tuple[int, ...], int]] = [((), len(entry) - 1)]
    for _ in mc.candidates:
        orders = [
            (prefix + (x,), state ^ 1 << x)
            for prefix, state in orders
            for x in range(len(mc.candidates))
            if state >> x & 1 and entry[state ^ 1 << x] >> x & 1
        ]
    return [tuple(mc.candidates[i] for i in prefix) for prefix, _ in orders]


def minimum_distance(mc: MetaComparison) -> int:
    """Minimal number of majority pairs any candidate linear order must invert."""
    cost, _, _, _ = mc._dp
    return int(cost[0])
