"""Alternatives, rankings, criteria and profiles.

A ranking maps every alternative to a positive integer rank, smaller being
better, with ties allowed.  Two numbering schemes are supported:

* ``dense`` - the ranks in use are exactly ``1..K`` (a tied block is
  followed by the next integer);
* ``competition`` - the rank of an alternative is one plus the number of
  alternatives that are strictly better.

Both schemes encode the same weak order; they differ only in labelling.

Every weak order in the package is labelled here, by one exact relabelling
of a key array: ``_levels`` sorts each row and counts the steps between
neighbours, so int64, float and object keys (Python ints, Fractions) are
compared as they are, with no cast to float anywhere (-0.0 and 0.0 tie).
Dense labels are those levels plus one; competition labels are one plus
the number of strictly smaller keys.  The constructors,
``conforms_to_scheme``, the pair census, the Markov ranking and the
meta-comparison keys all use it.

A profile's total criterion weight is bounded by ``MAX_TOTAL_WEIGHT``.
``build_majority`` sums votes in the narrowest unsigned integer dtype that
holds the total, and the meta-comparison sums weights in int64.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import InputError

DENSE = "dense"
COMPETITION = "competition"
SCHEMES = (DENSE, COMPETITION)
MAX_RANK = 2 ** 63 - 1  # the largest rank an int64 rank vector holds
MAX_TOTAL_WEIGHT = 2 ** 63 - 1  # the largest total weight, which the meta-comparison's int64 sums hold


class Comparison(enum.Enum):
    """Outcome of comparing two alternatives within one ranking."""

    BETTER = "better"
    WORSE = "worse"
    TIED = "tied"


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

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[str]:
        return iter(self.items)

    def __contains__(self, name: object) -> bool:
        return name in self._index  # type: ignore[attr-defined]


@dataclass(frozen=True)
class Ranking:
    """Assignment of one positive integer rank, at most ``MAX_RANK``, to every alternative.

    ``scheme`` declares the intended numbering convention.  Constructors in
    this package always emit conforming numberings; rankings ingested from
    files keep their published ranks as-is, so conformity there is checked
    advisorily (see :meth:`conforms_to_scheme`).
    """

    alternatives: AlternativeSet
    ranks: Mapping[str, int]
    scheme: str = DENSE

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise InputError(f"unknown ranking scheme {self.scheme!r}")
        ranks = dict(self.ranks)
        if set(ranks) != set(self.alternatives.items):
            missing = set(self.alternatives.items) - set(ranks)
            extra = set(ranks) - set(self.alternatives.items)
            raise InputError(f"ranking does not match alternative set (missing {sorted(missing)}, extra {sorted(extra)})")
        values = [ranks[a] for a in self.alternatives]
        # one type check per distinct type, so that a str never reaches min; the loop only words the error
        integral = all(issubclass(kind, (int, np.integer)) and not issubclass(kind, (bool, np.bool_))
                       for kind in set(map(type, values)))
        if not integral or min(values) < 1 or max(values) > MAX_RANK:
            for name, rank in ranks.items():
                if not isinstance(rank, (int, np.integer)) or isinstance(rank, bool) or rank < 1:
                    raise InputError(f"rank of {name!r} must be a positive integer, got {rank!r}")
                if rank > MAX_RANK:
                    raise InputError(f"rank of {name!r} must be at most {MAX_RANK}, got {rank!r}")
        vector = np.array(values, dtype=np.int64)
        vector.setflags(write=False)
        object.__setattr__(self, "_vector", vector)
        object.__setattr__(self, "ranks", MappingProxyType(dict(zip(self.alternatives.items, vector.tolist()))))

    def rank_of(self, name: str) -> int:
        self.alternatives.index(name)
        return self.ranks[name]

    def compare(self, a: str, b: str) -> Comparison:
        ra, rb = self.rank_of(a), self.rank_of(b)
        if ra < rb:
            return Comparison.BETTER
        if ra > rb:
            return Comparison.WORSE
        return Comparison.TIED

    def rank_vector(self) -> np.ndarray:
        """Ranks as a read-only int64 vector in alternative-set order."""
        return self._vector  # type: ignore[attr-defined]

    def distinct_positions(self) -> int:
        return len(set(self.ranks.values()))

    def conforms_to_scheme(self) -> bool:
        """Whether the stored ranks satisfy the declared numbering scheme: relabelling in it changes none."""
        return bool(np.array_equal(_labels(self.rank_vector(), self.scheme), self.rank_vector()))

    def to_dense(self) -> "Ranking":
        """Relabel to the dense scheme, preserving the order and all ties."""
        return from_ranks(self.alternatives, self.ranks, scheme=DENSE)

    def to_competition(self) -> "Ranking":
        """Relabel to the competition scheme, preserving the order and all ties."""
        return from_ranks(self.alternatives, self.ranks, scheme=COMPETITION)


def from_scores(
    alternatives: AlternativeSet,
    values: Mapping[str, float],
    scheme: str = DENSE,
    decimals: int | None = None,
) -> Ranking:
    """Rank alternatives by descending score.

    Higher value means better (smaller) rank; exactly equal values share a
    rank.  ``decimals`` optionally rounds the values first, so that scores
    published with fixed precision reproduce their published ties; by
    default no rounding is applied and ties require exact equality.

    Raises:
        InputError: if a value is missing or non-finite.
    """
    scored = []
    for name in alternatives:
        if name not in values:
            raise InputError(f"no value for alternative {name!r}")
        v = float(values[name])
        if not math.isfinite(v):
            raise InputError(f"value for alternative {name!r} is not finite: {v!r}")
        scored.append(-(round(v, decimals) if decimals is not None else v))
    labels = _labels(np.array(scored), scheme)
    return Ranking(alternatives, dict(zip(alternatives.items, labels.tolist())), scheme=scheme)


def from_ranks(alternatives: AlternativeSet, ranks: Mapping[str, int], scheme: str = DENSE) -> Ranking:
    """Relabel a weak order given by any positive integer ranks (smaller is better) in ``scheme``."""
    labels = _labels(Ranking(alternatives, ranks).rank_vector(), scheme)
    return Ranking(alternatives, dict(zip(alternatives.items, labels.tolist())), scheme=scheme)


def _levels(keys: np.ndarray) -> np.ndarray:
    """Dense levels 0..L-1 of each row of a 2-D key array: the smallest key at 0, equal keys at one level."""
    order = np.argsort(keys, axis=1) + np.arange(len(keys))[:, None] * keys.shape[1]
    ascending = keys.ravel()[order]
    steps = np.zeros(keys.shape, dtype=np.int64)
    steps[:, 1:] = ascending[:, 1:] != ascending[:, :-1]
    levels = np.empty(keys.size, dtype=np.int64)
    levels[order] = steps.cumsum(axis=1)
    return levels.reshape(keys.shape)


def _labels(keys: np.ndarray, scheme: str) -> np.ndarray:
    """The ranks in ``scheme`` of a key vector, a smaller key ranking better."""
    return 1 + (_levels(keys[None])[0] if scheme == DENSE else np.searchsorted(np.sort(keys), keys))


def compare(ranking: Ranking, a: str, b: str) -> Comparison:
    """Compare two alternatives within a ranking (``Better`` iff rank(a) < rank(b))."""
    return ranking.compare(a, b)


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
