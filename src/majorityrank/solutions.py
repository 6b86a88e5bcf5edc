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

All three work on B, the beats matrix of the subset from its one
``MajorityStructure.restrict`` (a tie is a pair B leaves unordered).  UC and
MES are decided by float32 BLAS products of B (UC by B Bᵀ, MES by Bᵀ U and
B·bad per block of witnesses, with U = B | I).  Exactness bound: every
entry, and every partial sum, counts at most n members of the subset, and
float32 holds every integer up to 2**24 exactly, so each product is exact
for n < 2**24.  The bound always holds: the n x n boolean beats matrix of
n = 2**24 alternatives would take 2**48 bytes (256 TiB).

Sorting extracts the solution, removes it, and repeats; the k-th extracted
class receives rank k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DENSE, AlternativeSet, Ranking, from_ranks
from .errors import InputError, NumericalError
from .majority import _TRACE_BLOCK, MajorityStructure

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
        ranks = np.zeros(len(self.alternatives), dtype=np.int64)  # rank 0, which Ranking rejects, marks an unplaced name
        for k, cls in enumerate(self.classes, start=1):
            ranks[self.alternatives.positions(cls)] = k
        return from_ranks(self.alternatives, ranks, scheme=scheme)


def uncovered_set(ms: MajorityStructure, subset: frozenset[str] | set[str] | None = None) -> SolutionSet:
    """Alternatives of ``subset`` not covered by any other member."""
    idx, sub = ms.restrict(subset)
    f = sub.astype(np.float32)
    # common[x, y] = # of z beaten by both; x covers y iff x beats y and beats all y beats.
    # Entries are at most n < 2**24, so the float32 BLAS product is exact (module docstring).
    common = f @ f.T
    covers = sub & (common == sub.sum(axis=1)[None, :])
    uncovered = ~covers.any(axis=0)
    return SolutionSet(UC, _names(ms, idx[uncovered]))


def _certificates(sub: np.ndarray):
    """Yield ``certified`` for consecutive column blocks of witnesses.

    ``sub`` is the restricted beats matrix B, and U = B | I.  Witness z may
    certify member i when U[i, z] holds: z is i itself or a member i beats.
    The reduced set drops z and every dominator of z other than i, that is
    U_z = {z} | upper(z) minus i.  Member y of U_z is "bad" for z when all of
    its dominators lie in U_z, i.e. when (B^T U)[y, z] equals y's in-degree;
    the reduced set is stable iff i beats every bad y other than itself, so
    ``certified[i, k]`` holds iff U[i, z] and
    badcount[z] - (B bad)[i, z] - bad[i, z] = 0 for the block's k-th
    witness z.  Every entry of both float32 products is a count of at most
    n < 2**24 members, so each is exact (module docstring).  Blocks of
    ``_TRACE_BLOCK`` witnesses keep only B (boolean and float32) at full
    size.
    """
    n = len(sub)
    f = sub.astype(np.float32)
    indegree = sub.sum(axis=0)
    for start in range(0, n, _TRACE_BLOCK):
        cols = np.arange(start, min(start + _TRACE_BLOCK, n))
        u = sub[:, cols]
        u[cols, np.arange(len(cols))] = True
        bad = u & (f.T @ u.astype(np.float32) == indegree[:, None])
        badf = bad.astype(np.float32)
        yield u & (badf.sum(axis=0) - f @ badf - badf == 0)


def _names(ms: MajorityStructure, positions: np.ndarray) -> frozenset[str]:
    """The alternatives at ``positions``."""
    items = ms.alternatives.items
    return frozenset(items[i] for i in positions.tolist())


def _subset_mask(ms: MajorityStructure, idx: np.ndarray, names, what: str) -> np.ndarray:
    """Mask over the positions ``idx`` of ``names``; InputError names the first one outside them."""
    names = list(names)
    positions = ms.alternatives.positions(names)
    inside = np.isin(positions, idx)
    if not inside.all():
        raise InputError(f"{what} {names[int(np.argmin(inside))]!r} lies outside the subset")
    return np.isin(idx, positions)


def is_externally_stable(
    ms: MajorityStructure,
    candidate: frozenset[str] | set[str],
    subset: frozenset[str] | set[str] | None = None,
) -> bool:
    """Whether every alternative of ``subset`` outside ``candidate`` is beaten by a member."""
    idx, sub = ms.restrict(subset)
    inside = _subset_mask(ms, idx, candidate, "candidate member")
    return bool((inside | sub[inside].any(axis=0)).all())


def mes_union(ms: MajorityStructure, subset: frozenset[str] | set[str] | None = None) -> SolutionSet:
    """Union of all inclusion-minimal externally stable subsets of ``subset``.

    Membership test: x lies in some minimal externally stable set iff for
    some witness z in {x} or the lower section of x, the subset minus z and
    minus every dominator of z other than x is still externally stable.  In
    that case x is the sole member able to cover z, so pruning down to a
    minimal stable set can never drop x.  External stability is preserved
    under supersets, which makes the certificate sound in both directions.
    ``_certificates`` evaluates the test for every (x, z) pair at once from
    two exact float32 products per block of witnesses.
    """
    idx, sub = ms.restrict(subset)
    chosen = np.zeros(len(idx), dtype=bool)
    for certified in _certificates(sub):
        chosen |= certified.any(axis=1)
    return SolutionSet(MES, _names(ms, idx[chosen]))


def minimal_stable_set_containing(
    ms: MajorityStructure,
    x: str,
    subset: frozenset[str] | set[str] | None = None,
) -> frozenset[str]:
    """One inclusion-minimal externally stable set containing ``x``.

    Starts from the reduced set of x's first certifying witness (x itself,
    then its lower section in index order) and prunes greedily in stable
    index order, never removing ``x``; the result is deterministic.  A
    cover count per alternative tracks how many members beat it: dropping
    j keeps the set stable iff j is still covered and no outsider that j
    beats loses its last cover.  Raises InputError when no minimal stable
    set contains ``x``.
    """
    idx, sub = ms.restrict(subset)
    i = int(np.flatnonzero(_subset_mask(ms, idx, [x], "alternative"))[0])
    row = np.concatenate([certified[i] for certified in _certificates(sub)])
    if not row.any():
        raise InputError(f"no minimal externally stable set contains {x!r}")
    z = i if row[i] else int(np.argmax(row))  # every other certified witness lies in x's lower section
    inside = ~sub[:, z]
    inside[z] = False
    inside[i] = True
    cover = sub[inside].sum(axis=0)
    for j in range(len(idx)):
        if j == i or not inside[j]:
            continue
        if cover[j] and not (~inside & sub[j] & (cover == 1)).any():
            inside[j] = False
            cover -= sub[j]
    return _names(ms, idx[inside])


def weak_top_cycle(ms: MajorityStructure, subset: frozenset[str] | set[str] | None = None) -> SolutionSet:
    """The minimal dominant subset of ``subset``: every member beats every non-member.

    Let s = wins - losses inside the n-member subset.  For any k-set S the
    arcs inside S cancel, so the sum of s over S is the arcs from S to its
    complement minus those into S: at most k(n - k), with equality iff S
    beats every outsider.  A member of a dominant k-set scores at least
    n - 2k + 1 and an outsider at most n - 2k - 1, so a dominant k-set is
    exactly the first k alternatives of the stable descending sort by s.
    Dominant sets form an inclusion chain that ends at the whole subset
    (sum 0), so the weak top cycle is the shortest prefix of that sort whose
    score sum equals k(n - k).
    """
    idx, sub = ms.restrict(subset)
    score = sub.sum(axis=1) - sub.sum(axis=0)
    order = np.argsort(-score, kind="stable")
    k = np.arange(1, len(idx) + 1)
    size = int(np.argmax(np.cumsum(score[order]) == k * (len(idx) - k))) + 1
    return SolutionSet(WTC, _names(ms, idx[order[:size]]))


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
    remaining = set(ms.alternatives.items)
    classes: list[frozenset[str]] = []
    while remaining:
        best = solve(ms, kind, remaining).members
        if not best:  # every concept picks a non-empty subset; guard the loop's progress anyway
            raise NumericalError(f"{kind} selected nothing from {len(remaining)} alternatives")
        classes.append(best)
        remaining -= best
    return SortedClasses(alternatives=ms.alternatives, kind=kind, classes=tuple(classes))
