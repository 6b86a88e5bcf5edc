"""Alternatives, rankings, criteria and profiles.

A ranking maps every alternative to a positive integer rank, smaller being
better, with ties allowed.  It is held as one read-only int64 rank vector
in alternative-set order; the name mapping ``Ranking.ranks`` is built from
it only when read.  Two numbering schemes are supported:

* ``dense`` - the ranks in use are exactly ``1..K`` (a tied block is
  followed by the next integer);
* ``competition`` - the rank of an alternative is one plus the number of
  alternatives that are strictly better.

Both schemes encode the same weak order; they differ only in labelling.

Every weak order in the package is labelled here, by one exact relabelling
of a key array: ``_levels`` sorts along the last axis and counts the steps
between neighbours, so int64, float and object keys (Python ints,
Fractions) are compared as they are, with no cast to float anywhere (-0.0
and 0.0 tie).  Dense labels are those levels plus one; competition labels
are one plus the number of strictly smaller keys.  The constructors,
Copeland, ``conforms_to_scheme``, the pair census, the Markov ranking and
the meta-comparison keys all use it; every ranking the package builds
takes its label vector straight, with no name mapping in between.

A profile's total criterion weight is bounded by ``MAX_TOTAL_WEIGHT``.
``build_majority`` sums votes in the narrowest unsigned integer dtype that
holds the total, and the meta-comparison sums weights in int64.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .errors import InputError

DENSE = "dense"
COMPETITION = "competition"
SCHEMES = (DENSE, COMPETITION)
MAX_RANK = 2 ** 63 - 1  # the largest rank an int64 rank vector holds
MAX_TOTAL_WEIGHT = 2 ** 63 - 1  # the largest total weight, which the meta-comparison's int64 sums hold


@dataclass(frozen=True)
class AlternativeSet:
    """Ordered set of unique alternative identifiers.

    Iteration order is stable and defines row/column indexing for every
    matrix built over the set.
    """

    items: tuple[str, ...]

    def __init__(self, items: Iterable[str]):
        object.__setattr__(self, "items", tuple(items))
        if not self.items:
            raise InputError("alternative set must not be empty")
        index: dict[str, int] = {}
        for i, name in enumerate(self.items):
            if not isinstance(name, str) or not name:
                raise InputError(f"alternative identifiers must be non-empty strings, got {name!r}")
            if name in index:
                raise InputError(f"duplicate alternative {name!r}")
            index[name] = i
        object.__setattr__(self, "_index", index)

    def index(self, name: str) -> int:
        try:
            return self._index[name]  # type: ignore[attr-defined]
        except KeyError:
            raise InputError(f"unknown alternative {name!r}") from None

    def positions(self, names: Iterable[str]) -> np.ndarray:
        """The positions of ``names``, in their order, as one intp vector; InputError for an unknown name."""
        try:
            return np.fromiter(map(self._index.__getitem__, names), dtype=np.intp)  # type: ignore[attr-defined]
        except KeyError as exc:
            raise InputError(f"unknown alternative {exc.args[0]!r}") from None

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[str]:
        return iter(self.items)

    def __contains__(self, name: object) -> bool:
        return name in self._index  # type: ignore[attr-defined]


@dataclass(frozen=True, eq=False)
class Ranking:
    """Assignment of one positive integer rank, at most ``MAX_RANK``, to every alternative.

    It holds one read-only int64 vector in set order (:meth:`rank_vector`),
    validated once.  ``ranks`` is that vector (an integer array, not bool),
    or a mapping of every alternative to an int, read into it first; an
    error names the first alternative whose rank is out of 1..``MAX_RANK``.
    The read-only mapping :attr:`ranks` is built only when read.  Equality
    compares alternatives, scheme and vector.

    ``scheme`` declares the intended numbering convention.  Constructors in
    this package always emit conforming numberings; rankings ingested from
    files keep their published ranks as-is, so conformity there is checked
    advisorily (see :meth:`conforms_to_scheme`).
    """

    alternatives: AlternativeSet
    scheme: str
    _vector: np.ndarray

    def __init__(self, alternatives: AlternativeSet, ranks: Mapping[str, int] | np.ndarray, scheme: str = DENSE):
        if scheme not in SCHEMES:
            raise InputError(f"unknown ranking scheme {scheme!r}")
        object.__setattr__(self, "alternatives", alternatives)
        object.__setattr__(self, "scheme", scheme)
        object.__setattr__(self, "_vector", _rank_vector(alternatives, ranks))

    @cached_property
    def ranks(self) -> Mapping[str, int]:
        """Read-only mapping of every alternative, in set order, to its rank."""
        return MappingProxyType(dict(zip(self.alternatives.items, self._vector.tolist())))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.alternatives == other.alternatives and self.scheme == other.scheme  # type: ignore[attr-defined]
                and bool(np.array_equal(self._vector, other._vector)))  # type: ignore[attr-defined]

    def rank_vector(self) -> np.ndarray:
        """Ranks as a read-only int64 vector in alternative-set order."""
        return self._vector

    def distinct_positions(self) -> int:
        return len(set(self._vector.tolist()))

    def conforms_to_scheme(self) -> bool:
        """Whether the stored ranks satisfy the declared numbering scheme: relabelling in it changes none."""
        return bool(np.array_equal(_labels(self._vector, self.scheme), self._vector))


def _rank_vector(alternatives: AlternativeSet, ranks: Mapping[str, int] | np.ndarray) -> np.ndarray:
    """``ranks`` as a new read-only int64 vector in set order, or the InputError ``Ranking`` documents."""
    names = alternatives.items
    if isinstance(ranks, np.ndarray):
        if ranks.shape != (len(names),):
            raise InputError(f"ranking needs one rank for each of {len(names)} alternatives, got shape {ranks.shape}")
        # the dtype types every entry; no signed integer dtype holds one above MAX_RANK
        kind = ranks.dtype.kind
        valid = kind in "iu" and ranks.min() >= 1 and (kind == "i" or ranks.max() <= MAX_RANK)
    else:
        if ranks.keys() != alternatives._index.keys():  # type: ignore[attr-defined]
            missing = set(names) - set(ranks)
            extra = set(ranks) - set(names)
            raise InputError(f"ranking does not match alternative set (missing {sorted(missing)}, extra {sorted(extra)})")
        ranks = [ranks[name] for name in names]
        # a list has no dtype: one check per distinct type, so that a str never reaches min
        valid = (all(issubclass(cls, (int, np.integer)) and not issubclass(cls, (bool, np.bool_))
                     for cls in set(map(type, ranks))) and min(ranks) >= 1 and max(ranks) <= MAX_RANK)
    if not valid:  # the loop only words the error
        for name, rank in zip(names, ranks):
            if not isinstance(rank, (int, np.integer)) or isinstance(rank, bool) or rank < 1:
                raise InputError(f"rank of {name!r} must be a positive integer, got {rank!r}")
            if rank > MAX_RANK:
                raise InputError(f"rank of {name!r} must be at most {MAX_RANK}, got {rank!r}")
    vector = np.array(ranks, dtype=np.int64)
    vector.setflags(write=False)
    return vector


def from_scores(
    alternatives: AlternativeSet,
    values: Mapping[str, float],
    scheme: str = DENSE,
    decimals: int | None = None,
) -> Ranking:
    """Rank alternatives by descending score.

    Higher value means better (smaller) rank; exactly equal values share a
    rank.  ``decimals`` optionally rounds the values first, by Python's
    ``round``, so that scores published with fixed precision reproduce their
    published ties; by default no rounding is applied and ties require
    exact equality.

    Raises:
        InputError: naming the first alternative, in set order, whose value
            is missing or does not convert to a finite float.
    """
    names = alternatives.items
    try:
        scores = np.array([float(values[name]) for name in names])
    except (KeyError, TypeError, ValueError, OverflowError):
        scores = None
    if scores is None or not np.isfinite(scores).all():
        for name in names:
            if name not in values:
                raise InputError(f"no value for alternative {name!r}")
            try:
                finite = math.isfinite(float(values[name]))
            except (TypeError, ValueError, OverflowError):  # None, a non-numeric str, an int past the float range
                finite = False
            if not finite:
                raise InputError(f"value for alternative {name!r} is not a finite number: {values[name]!r}")
    if decimals is not None:
        scores = np.array([round(v, decimals) for v in scores.tolist()])  # np.round(2.675, 2) would give 2.68
    return Ranking(alternatives, _labels(-scores, scheme), scheme=scheme)


def from_ranks(alternatives: AlternativeSet, ranks: Mapping[str, int] | np.ndarray, scheme: str = DENSE) -> Ranking:
    """Relabel a weak order given by any positive integer ranks (smaller is better) in ``scheme``.

    ``ranks`` is read and checked as by ``Ranking``.
    """
    return Ranking(alternatives, _labels(_rank_vector(alternatives, ranks), scheme), scheme=scheme)


def _levels(keys: np.ndarray) -> np.ndarray:
    """Dense levels 0..L-1 along the last axis of a key array (one vector, or each row of a 2-D array): the
    smallest key at 0, equal keys at one level."""
    order = np.argsort(keys, axis=-1) + np.arange(keys.size).reshape(keys.shape)[..., :1]  # into keys.ravel()
    ascending = keys.ravel()[order]
    steps = np.zeros(keys.shape, dtype=np.int64)
    steps[..., 1:] = ascending[..., 1:] != ascending[..., :-1]
    levels = np.empty(keys.size, dtype=np.int64)
    levels[order] = steps.cumsum(axis=-1)
    return levels.reshape(keys.shape)


def _labels(keys: np.ndarray, scheme: str) -> np.ndarray:
    """The ranks in ``scheme`` of a key vector, a smaller key ranking better."""
    return 1 + (_levels(keys) if scheme == DENSE else np.searchsorted(np.sort(keys), keys))


@dataclass(frozen=True)
class Criterion:
    """A named criterion: one ranking plus its vote weight."""

    name: str
    weight: int
    ranking: Ranking

    def __post_init__(self) -> None:
        if not isinstance(self.weight, (int, np.integer)) or isinstance(self.weight, bool) or self.weight < 1:
            raise InputError(f"criterion {self.name!r} must have a positive integer weight, got {self.weight!r}")
        object.__setattr__(self, "weight", int(self.weight))


@dataclass(frozen=True)
class Profile:
    """A weighted set of criteria rankings over one alternative set.

    Each criterion acts as a virtual voter casting ``weight`` identical
    votes; the profile is the electorate handed to the majority rule.
    """

    alternatives: AlternativeSet
    criteria: tuple[Criterion, ...] = field(default=())

    def __init__(self, alternatives: AlternativeSet, criteria: Iterable[Criterion]):
        object.__setattr__(self, "alternatives", alternatives)
        object.__setattr__(self, "criteria", tuple(criteria))
        if not self.criteria:
            raise InputError("profile needs at least one criterion")
        names = set()
        for crit in self.criteria:
            if crit.name in names:
                raise InputError(f"duplicate criterion name {crit.name!r}")
            names.add(crit.name)
            if crit.ranking.alternatives.items != alternatives.items:
                raise InputError(f"criterion {crit.name!r} is ranked over a different alternative set")
        _total_weight(self.criteria)

    @property
    def total_weight(self) -> int:
        return _total_weight(self.criteria)

    def __len__(self) -> int:
        return len(self.criteria)


def _total_weight(criteria: Iterable[Criterion]) -> int:
    """The criteria's summed vote weight, or an InputError past ``MAX_TOTAL_WEIGHT``."""
    total = sum(c.weight for c in criteria)
    if total > MAX_TOTAL_WEIGHT:
        raise InputError(f"total criterion weight {total} exceeds {MAX_TOTAL_WEIGHT}")
    return total
