"""The cardinal CIP competitiveness index for raw indicator values.

The index multiplies six factors: the two per-capita indicators, the
means of the two industrialization-intensity shares and of the two
export-quality shares, and the two world-impact shares.  Only binary
comparisons of index values are meaningful; the bundled case study works
with the published ranks, so this module mainly serves fresh data.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .core import DENSE, AlternativeSet, Ranking, from_scores
from .errors import InputError

INDICATORS = ("MVApc", "MXpc", "MHVAsh", "MVAsh", "MHXsh", "MXsh", "ImWMVA", "ImWMT")
_SHARE_INDICATORS = INDICATORS[2:]


@dataclass(frozen=True)
class IndicatorRecord:
    """One country's eight raw indicator values (UNIDO variable names)."""

    country: str
    MVApc: float
    MXpc: float
    MHVAsh: float
    MVAsh: float
    MHXsh: float
    MXsh: float
    ImWMVA: float
    ImWMT: float

    def __post_init__(self) -> None:
        if not self.country:
            raise InputError("country name must not be empty")
        for name in INDICATORS:
            value = float(getattr(self, name))
            if not math.isfinite(value) or value < 0:
                raise InputError(f"{name} of {self.country!r} must be a finite non-negative number")
            object.__setattr__(self, name, value)
        for name in _SHARE_INDICATORS:
            value = getattr(self, name)
            if value > 1.0:
                warnings.warn(
                    f"{name} of {self.country!r} is {value}, outside the expected [0, 1] share range",
                    stacklevel=2,
                )


def cip_index(record: IndicatorRecord) -> float:
    """Product of the six aggregated factors."""
    return (
        record.MVApc
        * record.MXpc
        * ((record.MHVAsh + record.MVAsh) / 2.0)
        * ((record.MHXsh + record.MXsh) / 2.0)
        * record.ImWMVA
        * record.ImWMT
    )


def cip_ranking(records: Iterable[IndicatorRecord] | Sequence[IndicatorRecord], scheme: str = DENSE) -> Ranking:
    """Rank countries by decreasing index value; equal products tie."""
    records = list(records)
    alternatives = AlternativeSet(r.country for r in records)
    return from_scores(alternatives, {r.country: cip_index(r) for r in records}, scheme=scheme)
