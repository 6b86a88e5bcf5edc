"""Tournament solutions and solution-based sorting.

Three solution concepts, each selecting a non-empty "best" subset of any
given subset of alternatives (all relations restricted to that subset):

* ``UC``  - the uncovered set.  x covers y iff x beats y and beats
  everything y beats; covering is transitive, so some alternative is
  always uncovered.
* ``MES`` - the union of all inclusion-minimal externally stable sets.
  A set is externally stable when every outside alternative is beaten by
  some member.
* ``WTC`` - the weak top cycle: the unique minimal set whose every member
  beats every non-member.

Sorting extracts the solution, removes it, and repeats; the k-th extracted
class receives rank k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DENSE, AlternativeSet, Ranking, from_ranks
from .errors import InputError
from .majority import MajorityStructure

UC = "UC"
MES = "MES"
WTC = "WTC"
KINDS = (UC, MES, WTC)


@dataclass(frozen=True)
class SolutionSet:
    kind: str
    members: frozenset[str]


@dataclass(frozen=True)
class SortedClasses:
    """Ordered partition produced by iterated select-and-exclude sorting."""

    alternatives: AlternativeSet
    kind: str
    classes: tuple[frozenset[str], ...]

    def ranking(self, scheme: str = DENSE) -> Ranking:
        """Ranking that places the k-th class k-th, numbered in ``scheme``."""
        ranks = {name: k for k, cls in enumerate(self.classes, start=1) for name in cls}
        return from_ranks(self.alternatives, ranks, scheme=scheme)


def uncovered_set(ms: MajorityStructure, subset: frozenset[str] | set[str] | None = None) -> SolutionSet:
    """Alternatives of ``subset`` not covered by any other member."""
    idx = ms.restrict_indices(subset)
    sub = ms.beats[np.ix_(idx, idx)]
    f = sub.astype(np.float64)
    # common[x, y] = # of z beaten by both; x covers y iff x beats y and beats all y beats.
    # Entries are at most m, so the float64 BLAS product is exact.
    common = f @ f.T
    covers = sub & (common == sub.sum(axis=1)[None, :])
    uncovered = ~covers.any(axis=0)
    items = ms.alternatives.items
    return SolutionSet(UC, frozenset(items[i] for i in idx[uncovered]))


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


def is_externally_stable(
    ms: MajorityStructure,
    candidate: frozenset[str] | set[str],
    subset: frozenset[str] | set[str] | None = None,
) -> bool:
    """Whether every alternative of ``subset`` outside ``candidate`` is beaten by a member."""
    idx = ms.restrict_indices(subset)
    members, upper, _ = _masks(ms, idx)
    cand = 0
    for name in candidate:
        bit = 1 << ms.alternatives.index(name)
        if not (members & bit):
            raise InputError(f"candidate member {name!r} lies outside the subset")
        cand |= bit
    return _is_stable(cand, members, upper)


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


def mes_union(ms: MajorityStructure, subset: frozenset[str] | set[str] | None = None) -> SolutionSet:
    """Union of all inclusion-minimal externally stable subsets of ``subset``.

    Membership test: x lies in some minimal externally stable set iff for
    some witness z in {x} or the lower section of x, the subset minus z and
    minus every dominator of z other than x is still externally stable.  In
    that case x is the sole member able to cover z, so pruning down to a
    minimal stable set can never drop x.  External stability is preserved
    under supersets, which makes the certificate sound in both directions.
    """
    idx = ms.restrict_indices(subset)
    members, upper, lower = _masks(ms, idx)
    items = ms.alternatives.items
    chosen = [items[i] for i in idx.tolist() if _certificate(i, members, upper, lower) is not None]
    return SolutionSet(MES, frozenset(chosen))


def minimal_stable_set_containing(
    ms: MajorityStructure,
    x: str,
    subset: frozenset[str] | set[str] | None = None,
) -> frozenset[str]:
    """One inclusion-minimal externally stable set containing ``x``.

    Greedy pruning in stable index order, never removing ``x``; the result
    is deterministic.  Raises InputError when no minimal stable set
    contains ``x``.
    """
    idx = ms.restrict_indices(subset)
    members, upper, lower = _masks(ms, idx)
    i = ms.alternatives.index(x)
    me = 1 << i
    if not (members & me):
        raise InputError(f"alternative {x!r} lies outside the subset")
    current = _certificate(i, members, upper, lower)
    if current is None:
        raise InputError(f"no minimal externally stable set contains {x!r}")
    for j in idx.tolist():
        bit = 1 << j
        if bit == me or not (current & bit):
            continue
        if _is_stable(current & ~bit, members, upper):
            current &= ~bit
    items = ms.alternatives.items
    return frozenset(items[j] for j in idx.tolist() if current & (1 << j))


def weak_top_cycle(ms: MajorityStructure, subset: frozenset[str] | set[str] | None = None) -> SolutionSet:
    """The minimal dominant subset of ``subset``.

    Dominant sets form an inclusion chain, and an alternative with maximal
    wins-minus-losses score always belongs to the minimal one; closing that
    seed under "add anything not beaten by every current member" therefore
    yields exactly the weak top cycle.
    """
    idx = ms.restrict_indices(subset)
    sub = ms.beats[np.ix_(idx, idx)]
    score = sub.sum(axis=1) - sub.sum(axis=0)
    inside = np.zeros(len(idx), dtype=bool)
    inside[int(np.argmax(score))] = True
    while True:
        dominated_by_all = sub[inside].all(axis=0)
        grow = ~inside & ~dominated_by_all
        if not grow.any():
            break
        inside |= grow
    items = ms.alternatives.items
    return SolutionSet(WTC, frozenset(items[i] for i in idx[inside]))


_SOLVERS = {UC: uncovered_set, MES: mes_union, WTC: weak_top_cycle}


def solve(ms: MajorityStructure, kind: str, subset: frozenset[str] | set[str] | None = None) -> SolutionSet:
    """Apply one solution concept by name."""
    try:
        solver = _SOLVERS[kind]
    except KeyError:
        raise InputError(f"unknown solution kind {kind!r}; expected one of {KINDS}") from None
    return solver(ms, subset)


def sort_by_solution(ms: MajorityStructure, kind: str) -> SortedClasses:
    """Iterated select-and-exclude sorting by the chosen solution concept."""
    if kind not in _SOLVERS:
        raise InputError(f"unknown solution kind {kind!r}; expected one of {KINDS}")
    remaining = set(ms.alternatives.items)
    classes: list[frozenset[str]] = []
    while remaining:
        best = _SOLVERS[kind](ms, remaining).members
        if not best:  # every concept picks a non-empty subset; guard the loop's progress anyway
            raise RuntimeError(f"{kind} selected nothing from {len(remaining)} alternatives")
        classes.append(best)
        remaining -= best
    return SortedClasses(alternatives=ms.alternatives, kind=kind, classes=tuple(classes))
