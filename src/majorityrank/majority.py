"""Weighted majority relation over a profile, sections, and cycle counting.

Every pair of alternatives x, y has exactly one of three outcomes: x beats
y (criteria preferring x outweigh, by votes, those preferring y), y beats
x, or the two sides carry equal weight and the pair is tied.  Criteria
that rank the pair equal contribute to neither side.  A tie is a pair that
neither side beats, so the structure stores only the beats matrix.
Each structure counts its cycles once: the first ``count_cycles`` or
``cycle_counts`` call runs the trace kernel for every length whose size
cap admits the structure, and later calls read that count.  Two bounds
keep the kernel exact (``_max_exact_size``): its float32 partial sums stay
below 2**24, and its float64 row sums of the trace are at most m**(k-1) < 2**53.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import AlternativeSet, Profile, _frozen
from .errors import InputError, NumericalError, SizeLimitError

# Closed k-walks on a loop-free asymmetric digraph cannot revisit a vertex
# for k <= 5 (a revisit would split off a closed walk of length 1 or 2),
# so the trace of the k-th matrix power counts each k-cycle exactly k times.
# For k >= 6 the decomposition 3+3 breaks the argument.
_CYCLE_LENGTHS = (3, 4, 5)

# Columns of the trace per block: a block's float32 A^3 columns, m x 128, are 0.5 MB at m = 1000.
_TRACE_BLOCK = 128

# float32 holds every integer below this exactly; every float32 product of the trace stays below it.
_FLOAT32_EXACT = 2 ** 24


@dataclass(frozen=True)
class MajorityStructure:
    """Boolean majority matrix over an alternative set.

    ``beats[i, j]`` is True iff alternative ``i`` majority-dominates ``j``.
    ``ties`` is derived from it: the pairs that neither side beats.
    """

    alternatives: AlternativeSet
    beats: np.ndarray

    def __post_init__(self) -> None:
        m = len(self.alternatives)
        array = np.asarray(self.beats)
        if array.dtype != bool:
            valid = np.isin(array, (0, 1))  # NaN is neither
            if not valid.all():
                raise InputError(f"majority matrix entries must be 0 or 1, got {array[~valid].tolist()[0]!r}")
        beats = _frozen(np.asarray(array, dtype=bool))
        if beats.shape != (m, m):
            raise InputError(f"matrices must be {m}x{m}")
        if beats.diagonal().any():
            raise InputError("majority matrix must have a zero diagonal")
        if (beats & beats.T).any():
            raise InputError("majority matrix must be asymmetric")
        object.__setattr__(self, "beats", beats)

    @cached_property
    def ties(self) -> np.ndarray:
        """Read-only tie matrix: symmetric, irreflexive, and True exactly where neither side beats."""
        ties = ~(self.beats | self.beats.T | np.eye(len(self), dtype=bool))
        ties.setflags(write=False)
        return ties

    @cached_property
    def wins(self) -> np.ndarray:
        """Read-only count of the alternatives each one beats: the row sums of ``beats``."""
        return _frozen(self.beats.sum(axis=1))

    @cached_property
    def losses(self) -> np.ndarray:
        """Read-only count of the alternatives that beat each one: the column sums of ``beats``."""
        return _frozen(self.beats.sum(axis=0))

    @cached_property
    def _cycles(self) -> dict[int, int]:
        """The k-cycle counts for every k in ``_CYCLE_LENGTHS`` whose cap admits this structure, from one
        kernel run; the public functions check the caps before they read it."""
        return _count_cycles(self, tuple(k for k in _CYCLE_LENGTHS if len(self) <= _max_exact_size(k)))

    def __len__(self) -> int:
        return len(self.alternatives)

    def restrict(self, subset: set[str] | frozenset[str] | None) -> tuple[np.ndarray, np.ndarray]:
        """Positions of ``subset`` in stable order and the beats matrix among them: the one sub-tournament
        restriction, which holds the subset's ties too, as the pairs it leaves unordered.  None, or every
        alternative, gives ``beats`` itself, uncopied; a proper subset takes two plain gathers."""
        if subset is None:
            return np.arange(len(self)), self.beats
        if not subset:
            raise InputError("subset must not be empty")
        idx = np.sort(self.alternatives.positions(subset))
        return idx, self.beats if len(idx) == len(self) else self.beats[idx][:, idx]


@dataclass(frozen=True)
class Sections:
    """The three sections of one alternative: dominated, dominating, tied."""

    lower: frozenset[str]
    upper: frozenset[str]
    horizon: frozenset[str]


def build_majority(profile: Profile) -> MajorityStructure:
    """Aggregate a profile into its weighted majority structure.

    ``beats[x, y]`` holds iff the total weight of criteria ranking x
    strictly better than y exceeds the total weight ranking y better;
    equal totals leave the pair tied.  Votes accumulate in the
    narrowest unsigned integer dtype that holds the profile's total weight:
    no vote total exceeds it, so no sum wraps.
    """
    m = len(profile.alternatives)
    acc = np.min_scalar_type(profile.total_weight)
    votes = np.zeros((m, m), dtype=acc)
    for criterion in profile.criteria:
        ranks = criterion.ranking.rank_vector()
        votes += np.multiply(ranks[:, None] < ranks[None, :], criterion.weight, dtype=acc)
    return MajorityStructure(profile.alternatives, votes > votes.T)


def sections(ms: MajorityStructure, x: str) -> Sections:
    """Lower section (dominated by x), upper section (dominating x), horizon (tied)."""
    i = ms.alternatives.index(x)
    items = ms.alternatives.items
    lower = frozenset(items[j] for j in np.flatnonzero(ms.beats[i]))
    upper = frozenset(items[j] for j in np.flatnonzero(ms.beats[:, i]))
    horizon = frozenset(items[j] for j in np.flatnonzero(ms.ties[i]))
    return Sections(lower=lower, upper=upper, horizon=horizon)


def count_cycles(ms: MajorityStructure, k: int) -> int:
    """Exact number of directed k-cycles in the majority relation, k in {3, 4, 5}.

    trace(A^k) = sum_c sum_j A^2[c, j] (A^(k-2))[j, c] is accumulated over
    column blocks of width ``_TRACE_BLOCK``, as one float64 row sum per
    column c; only those row totals go to int64.  A and A^2 are float32 and
    held at full size.  For k = 5 a block's A^3 columns come from float32
    products of A with A^2 over inner-dimension chunks (``_inner_chunks``),
    whose row sums add in float64.  No m x m or m x block float64 array is
    formed; ``_max_exact_size`` states why every value stays exact.  That
    runs once per structure, for every k its caps admit (``cycle_counts``
    reads the same count); each call checks k's cap and reads it.
    """
    if k not in _CYCLE_LENGTHS:
        raise InputError(f"cycle length must be one of {_CYCLE_LENGTHS}, got {k}")
    _check_sizes(len(ms), (k,))
    return ms._cycles[k]


def cycle_counts(ms: MajorityStructure) -> dict[int, int]:
    """``count_cycles`` for k = 3, 4 and 5, every size bound checked before any product: a new dict of the
    structure's one count, which it shares with ``count_cycles``."""
    _check_sizes(len(ms), _CYCLE_LENGTHS)
    return dict(ms._cycles)


def _check_sizes(m: int, lengths: tuple[int, ...]) -> None:
    """A SizeLimitError for the first of ``lengths`` whose exact-size cap m exceeds."""
    for k in lengths:
        limit = _max_exact_size(k)
        if m > limit:
            raise SizeLimitError(f"counting {k}-cycles supports at most {limit} alternatives, got {m}")


def _count_cycles(ms: MajorityStructure, lengths: tuple[int, ...]) -> dict[int, int]:
    """The trace kernel for ``lengths``, from one A^2; A^3 chunk products only if 5 is among them."""
    m = len(ms)
    a = np.asarray(ms.beats, dtype=np.float32)
    a2 = a @ a
    chunks = _inner_chunks(m)
    traces = dict.fromkeys(lengths, 0)
    for start in range(0, m, _TRACE_BLOCK):
        cols = slice(start, start + _TRACE_BLOCK)
        for k in lengths:
            tails = [a[:, cols]] if k == 3 else [a2[:, cols]] if k == 4 else (a[:, c] @ a2[c, cols] for c in chunks)
            rows = sum(np.einsum("ij,ji->i", a2[cols], tail, dtype=np.float64) for tail in tails)
            traces[k] += int(rows.astype(np.int64).sum())
    for k, trace in traces.items():
        if trace % k:
            raise NumericalError(f"trace of the {k}-th majority power, {trace}, is not a multiple of {k}")
    return {k: trace // k for k, trace in traces.items()}


def _inner_chunks(m: int) -> list[slice]:
    """The inner-dimension chunks of A^3 = A A^2, of width w = (2**24 - 1) // (m - 1), so that a chunk product's
    partial sums, at most w * (m - 2), stay below 2**24: one chunk up to m = 4,096, three at the 5-cycle cap."""
    width = (_FLOAT32_EXACT - 1) // max(m - 1, 1)
    return [slice(start, start + width) for start in range(0, m, width)]


def _max_exact_size(k: int) -> int:
    """Largest m for which the trace kernel counts k-cycles exactly.

    An entry of A^j counts j-walks between two vertices; on a loop-free asymmetric relation an A^2 entry is
    at most m - 2.  Every float32 product holds non-negative integers below 2**24 (``_FLOAT32_EXACT``) in its
    entries and BLAS partial sums, so it is exact: A^2's are at most m - 2, and an A^3 chunk product's at most
    w * (m - 2) with w the chunk width of ``_inner_chunks``, below 2**24 by its choice (w >= 1 while
    m < 2**24).  Each float64 row sum of the trace is a diagonal entry of A^k, the closed k-walks through one
    vertex, at most m**(k-1); every partial sum, over j and over chunks in any order, is a non-negative
    integer no larger, so below 2**53 each is exact.  The trace counts each k-cycle once per ordered start,
    so it is at most the m!/(m-k)! ordered k-tuples of distinct vertices, which int64 holds while below
    2**63.  That last bound binds first for every k, so float32 costs no cap.
    """
    def exact(m: int) -> bool:
        return math.perm(m, k) < 2 ** 63 and m < _FLOAT32_EXACT and m ** (k - 1) < 2 ** 53

    m = int(2 ** (63 / k))  # perm(m, k) < m**k <= 2**63, so this m is exact
    while exact(m + 1):
        m += 1
    return m
