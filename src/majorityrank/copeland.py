"""Copeland scores and the rankings they induce.

Three scoring versions exist; with L(x)/D(x) the lower/upper sections:

* version 1: ``|L(x)| - |D(x)|`` (wins minus losses),
* version 2: ``|L(x)|`` (wins),
* version 3: ``m - |D(x)|`` (non-losses).

They induce identical rankings whenever the majority relation has no ties;
with ties present they may disagree.  Pointwise, ``s1 = s2 + s3 - m``.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .core import DENSE, Ranking, _labels
from .errors import InputError
from .majority import MajorityStructure

VERSIONS = (1, 2, 3)


@dataclass(frozen=True)
class ScoreVector:
    version: int
    scores: Mapping[str, int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "scores", MappingProxyType(dict(self.scores)))


def copeland_scores(ms: MajorityStructure, version: int) -> ScoreVector:
    """Copeland scores of every alternative under the chosen version."""
    return ScoreVector(version=version, scores=dict(zip(ms.alternatives.items, _score_vector(ms, version).tolist())))


def copeland_ranking(ms: MajorityStructure, version: int, scheme: str = DENSE) -> Ranking:
    """Rank alternatives by decreasing Copeland score; equal scores tie."""
    return Ranking(ms.alternatives, _labels(-_score_vector(ms, version), scheme), scheme=scheme)


def _score_vector(ms: MajorityStructure, version: int) -> np.ndarray:
    """The chosen version's integer scores in alternative-set order."""
    if version not in VERSIONS:
        raise InputError(f"Copeland version must be one of {VERSIONS}, got {version!r}")
    if version == 1:
        return ms.wins - ms.losses
    return ms.wins if version == 2 else len(ms) - ms.losses
