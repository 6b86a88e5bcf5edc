"""Seeded input generators for the synthetic-m1000 and small-batch workloads.

Generators return plain numbers and strings only; the workloads turn them
into library objects, so the library never sees the random generator.
Everything a workload runs is a function of the seed: the same seed gives
byte-identical inputs (see ``digest``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

import numpy as np

# The eight UNIDO indicators and their study vote weights (bundled weights.cfg).
INDICATORS = ("MVApc", "MXpc", "MHVAsh", "MVAsh", "MHXsh", "MXsh", "ImWMVA", "ImWMT")
STUDY_WEIGHTS = (2, 2, 1, 1, 1, 1, 2, 2)
SCHEMES = ("dense", "competition")
MEASURES = ("tau_b", "coinciding")
AGGREGATE_METHODS = ("copeland1", "copeland2", "copeland3", "uc-sort", "mes-sort", "wtc-sort", "markovian")

SYNTHETIC_M = 1000
SYNTHETIC_BASE_SEED = 0  # fixes the synthetic profile up to relabelling; not chosen by trial

# small-batch: one block holds every size from 5 to 40 once.  Every pass
# runs the whole stream, so it is kept short enough to repeat many times a run.
SMALL_SIZES = tuple(range(5, 41))
SMALL_BLOCKS = 2
SMALL_BASE_SEED = 0  # fixes the stream's studies up to order and schemes; not chosen by trial


@dataclass(frozen=True)
class SyntheticInput:
    """One m x 8 profile plus the scheme requested for each aggregate ranking."""

    names: tuple[str, ...]
    criteria: tuple[str, ...]
    weights: tuple[int, ...]
    scores: tuple[tuple[float, ...], ...]  # one row per criterion
    schemes: dict[str, str]  # aggregate method -> requested scheme


@dataclass(frozen=True)
class SmallProfile:
    """One regional study: raw indicator values, chosen criteria and requests."""

    names: tuple[str, ...]
    values: tuple[tuple[float, ...], ...]  # one row per indicator, in INDICATORS order
    criteria: tuple[int, ...]  # indicator indices used as criteria
    scheme: str
    measure: str


def _balanced_choice(rng: np.random.Generator, options: tuple, count: int) -> list:
    """``count`` picks with every option used equally often (up to rounding), shuffled."""
    picks = [options[i % len(options)] for i in range(count)]
    return [picks[i] for i in rng.permutation(count)]


def synthetic(seed: int) -> SyntheticInput:
    """One fixed profile of N(0, 1) scores rounded to one decimal (so that
    ties occur), relabelled by the seed.

    The scores come from a fixed generator and the seed shuffles which
    alternative gets which column, so every seed does the same work.  On
    independent profiles the MES sort alone took 0.5 to 5.1 s, and that
    set the spread between seeds more than the code did.  Exactly one
    Copeland version and exactly one sort ask for competition numbering;
    the seed decides which.
    """
    base = np.random.default_rng([SYNTHETIC_BASE_SEED, 1])
    scores = np.round(base.standard_normal((len(INDICATORS), SYNTHETIC_M)), 1)
    rng = np.random.default_rng([seed, 1])
    scores = scores[:, rng.permutation(SYNTHETIC_M)]
    schemes = {method: "dense" for method in AGGREGATE_METHODS if method != "markovian"}
    schemes[("copeland1", "copeland2", "copeland3")[rng.integers(3)]] = "competition"
    schemes[("uc-sort", "mes-sort", "wtc-sort")[rng.integers(3)]] = "competition"
    return SyntheticInput(
        names=tuple(f"s{i:04d}" for i in range(SYNTHETIC_M)),
        criteria=INDICATORS,
        weights=STUDY_WEIGHTS,
        scores=tuple(tuple(row) for row in scores.tolist()),
        schemes=schemes,
    )


def study_schemes(seed: int) -> dict[str, str]:
    """Scheme requested from each ``rank`` method on the bundled study.

    One Copeland version and two of the four other methods ask for
    competition numbering; the seed decides which.
    """
    rng = np.random.default_rng([seed, 3])
    schemes = {method: "dense" for method in AGGREGATE_METHODS}
    schemes[AGGREGATE_METHODS[rng.integers(3)]] = "competition"
    for i in rng.choice(4, 2, replace=False):
        schemes[AGGREGATE_METHODS[3 + int(i)]] = "competition"
    return schemes


def _indicator_values(rng: np.random.Generator, m: int) -> np.ndarray:
    """Lognormal raw values rounded coarsely, so that ties occur.

    Per-capita values are rounded to whole numbers and shares to two or
    four decimals; the four intensity and quality shares stay within
    [0, 1] as the CIP index expects.
    """
    values = np.empty((len(INDICATORS), m))
    values[0] = np.round(rng.lognormal(4.0, 1.2, m))  # MVApc
    values[1] = np.round(rng.lognormal(4.5, 1.4, m))  # MXpc
    for row in range(2, 6):  # MHVAsh, MVAsh, MHXsh, MXsh
        values[row] = np.minimum(np.round(rng.lognormal(-1.6, 0.6, m), 2), 1.0)
    for row in (6, 7):  # ImWMVA, ImWMT
        values[row] = np.minimum(np.round(rng.lognormal(-6.0, 1.5, m), 4), 1.0)
    return values


def small_batch(seed: int) -> list[SmallProfile]:
    """A stream of SMALL_BLOCKS x 36 small studies, m from 5 to 40 in every block.

    Each profile takes 3, 4 or 5 of the eight indicators as criteria (with
    their study weights); the meta-ranking measure is balanced within each
    block.  These studies are fixed.  The seed sets the numbering scheme
    requested for each profile (balanced within each block) and the order of
    the profiles within each block, so every seed does the same work: with
    values drawn afresh for each seed, the seed's draw moved a pass by up to
    10 %, as much as the noise the benchmark has to stay within.
    """
    base = np.random.default_rng([SMALL_BASE_SEED, 2])
    rng = np.random.default_rng([seed, 2])
    stream: list[SmallProfile] = []
    per_block = len(SMALL_SIZES)
    for block in range(SMALL_BLOCKS):
        sizes = [SMALL_SIZES[i] for i in base.permutation(per_block)]
        counts = _balanced_choice(base, (3, 4, 5), per_block)
        measures = _balanced_choice(base, MEASURES, per_block)
        studies = []
        for i in range(per_block):
            m = sizes[i]
            chosen = tuple(sorted(int(c) for c in base.choice(len(INDICATORS), counts[i], replace=False)))
            studies.append((
                tuple(f"b{block:02d}p{i:02d}c{j:02d}" for j in range(m)),
                tuple(tuple(row) for row in _indicator_values(base, m).tolist()),
                chosen,
                measures[i],
            ))
        schemes = _balanced_choice(rng, SCHEMES, per_block)
        for i, k in enumerate(rng.permutation(per_block)):
            names, values, chosen, measure = studies[k]
            stream.append(SmallProfile(names=names, values=values, criteria=chosen,
                                       scheme=schemes[i], measure=measure))
    return stream


def digest(inputs) -> str:
    """SHA-256 over a canonical JSON rendering of generated inputs."""
    if isinstance(inputs, list):
        payload = [asdict(item) for item in inputs]
    else:
        payload = asdict(inputs)
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
