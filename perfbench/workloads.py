"""The three benchmark workloads and their correctness gates.

Each workload is set up once from its seed, then runs passes in a closed
loop: one caller, each call starting when the previous one returns.  Every
pass runs the same operations on the same inputs and marks the end of each
on a ``speed.Clock``, which rescales it to a fixed CPU speed.  Library
functions are always looked up on the ``majorityrank`` package at call
time, so a traced pass sees the rebound versions.  Checks run after each
pass, outside its timed region, and are tallied in a ``Ledger``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import re
import shutil
from collections import defaultdict
from pathlib import Path

import numpy as np

import majorityrank as mr
import majorityrank.cli
import generate
from speed import Clock
from tracing import has_cycle

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden_study_cli.json"

# Methods whose competition-scheme output carries dense numbers under a
# competition label (ROADMAP item 4).  Only that exact failure is "known".
MISLABELLED = ("uc-sort", "mes-sort", "wtc-sort", "markovian")
KNOWN_DEFECT = "scheme.competition_mislabel(known)"
ORACLE_MAX_M = 8


class Ledger:
    """Operations attempted and failed, broken down by check.

    An operation whose only fault is the known mislabel goes to
    ``known_ops``, not ``failed_ops``: it is reported beside the result,
    but it neither fails the run nor varies the failure count with the
    number of passes that fit in the time budget.
    """

    def __init__(self) -> None:
        self.ops: set = set()
        self.failed_ops: set = set()
        self.known_ops: set = set()
        self.by_check: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        self.unexpected: list[str] = []

    def check(self, op, name: str, ok: bool, detail: str = "") -> None:
        self.ops.add(op)
        entry = self.by_check[name]
        entry[0] += 1
        if not ok:
            entry[1] += 1
            if name == KNOWN_DEFECT:
                self.known_ops.add(op)
            else:
                self.failed_ops.add(op)
                self.unexpected.append(f"{op}: {name} {detail}".strip())

    def scheme(self, op, values, requested: str, method: str) -> None:
        """Conformance of rank labels to the requested scheme."""
        if conforms(values, requested):
            self.check(op, "scheme", True)
        elif requested == "competition" and method in MISLABELLED and conforms(values, "dense"):
            self.check(op, KNOWN_DEFECT, False)
        else:
            self.check(op, "scheme", False, f"{method} labels do not conform to {requested}")


def conforms(values, scheme: str) -> bool:
    """The benchmark's own reading of the two numbering schemes."""
    values = np.asarray(list(values), dtype=np.int64)
    if scheme == "dense":
        used = np.unique(values)
        return bool(np.array_equal(used, np.arange(1, len(used) + 1)))
    return bool(np.array_equal(values, 1 + (values[:, None] > values[None, :]).sum(axis=1)))


def _ranks(ranking) -> list[int]:
    return [ranking.ranks[a] for a in ranking.alternatives]


def _check_partition(ledger: Ledger, op, classes, universe) -> None:
    members = [x for cls in classes for x in cls]
    ok = all(classes) and len(members) == len(set(members)) and set(members) == set(universe)
    ledger.check(op, "sort.partition", ok)


def _check_copeland(ledger: Ledger, op, ms) -> None:
    m = len(ms)
    s1, s2, s3 = (mr.copeland_scores(ms, v).scores for v in (1, 2, 3))
    ledger.check(op, "copeland.s1=s2+s3-m", all(s1[a] == s2[a] + s3[a] - m for a in ms.alternatives))


def _check_weak_order(ledger: Ledger, op, weak_order, candidates) -> None:
    ranks = dict(weak_order.ranks)
    ok = set(ranks) == set(candidates) and all(r >= 1 for r in ranks.values())
    ledger.check(op, "meta.ranks_every_candidate", ok)


# ---------------------------------------------------------------------------
# study-cli


_ELAPSED = re.compile(r"^(overall: \w+ \(\d+/\d+ checks, )\d+(?:\.\d+)?s\)$", re.MULTILINE)


def mask_elapsed(text: str) -> str:
    """Blank the elapsed-seconds field of ``reproduce``'s last line."""
    return _ELAPSED.sub(r"\1<elapsed>s)", text)


def output_digest(stdout: str, files: dict[str, bytes]) -> str:
    """Digest of a command's masked stdout and the files it wrote."""
    h = hashlib.sha256(mask_elapsed(stdout).encode())
    for name in sorted(files):
        h.update(b"\0" + name.encode() + b"\0" + files[name])
    return h.hexdigest()


def parse_ranking_csv(text: str) -> tuple[list[str], list[int]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["country", "rank"]:
        raise ValueError("not a country,rank table")
    return [r[0] for r in rows[1:]], [int(r[1]) for r in rows[1:]]


def order_digest(names: list[str], values: list[int]) -> str:
    """Digest of the weak order a ranking encodes, independent of its labels."""
    dense = {v: i + 1 for i, v in enumerate(sorted(set(values)))}
    text = "".join(f"{n},{dense[v]}\n" for n, v in zip(names, values))
    return hashlib.sha256(text.encode()).hexdigest()


def study_commands(fixtures: Path, scratch: Path, schemes: dict[str, str]) -> list[tuple[str, list[str]]]:
    criteria = str(fixtures / "table6_criteria.csv")
    aggregates = str(fixtures / "table6_aggregates.csv")
    commands = [("reproduce", ["reproduce"])]
    for method in generate.AGGREGATE_METHODS:
        commands.append((f"rank-{method}", ["rank", criteria, "--method", method, "--scheme", schemes[method]]))
    commands.append(("analyze", ["analyze", criteria, "--output", str(scratch / "analyze")]))
    for measure in ("tau-b", "coinciding"):
        commands.append((f"correlate-{measure}", ["correlate", criteria, "--measure", measure]))
    for measure in ("tau-b", "coinciding"):
        commands.append((f"metarank-{measure}", [
            "metarank", criteria, "--candidates", aggregates, "--measure", measure,
            "--emit-dot", str(scratch / f"metarank-{measure}.dot"),
        ]))
    return commands


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = mr.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def written_files(scratch: Path) -> dict[str, bytes]:
    return {str(p.relative_to(scratch)): p.read_bytes() for p in sorted(scratch.rglob("*")) if p.is_file()}


class StudyCli:
    """``cli.main`` in-process on the bundled fixtures, every command once per pass."""

    name = "study-cli"

    def __init__(self, seed: int, workdir: Path):
        self.fixtures = mr.io.bundled_fixtures_dir()
        mr.io.load_ranks(self.fixtures / "table6_criteria.csv")
        mr.io.load_ranks(self.fixtures / "table6_aggregates.csv")
        mr.io.load_weights(self.fixtures / "weights.cfg")
        self.schemes = generate.study_schemes(seed)
        self.scratch = workdir / "study-cli"
        self.commands = study_commands(self.fixtures, self.scratch, self.schemes)
        self.golden = json.loads(GOLDEN.read_text())["digests"]

    def prepare(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)
        self.scratch.mkdir(parents=True)

    def run_pass(self, clock: Clock) -> dict:
        outputs = {}
        for label, argv in self.commands:
            outputs[label] = run_cli(argv)
            clock.lap(label)
        return outputs

    @staticmethod
    def samples(laps: dict) -> dict[str, list[float]]:
        return {"reproduce_s": [laps["reproduce"]]}

    def check(self, outputs: dict, ledger: Ledger, pass_id: int) -> None:
        files = written_files(self.scratch)
        for label, (code, stdout, stderr) in outputs.items():
            op = (pass_id, label)
            ledger.check(op, "cli.exit_code", code == 0, f"exit {code}: {stderr.strip()[-200:]}")
            if label == "reproduce":
                last = stdout.strip().splitlines()[-1] if stdout.strip() else ""
                ledger.check(op, "reproduce.28_of_28_pass", last.startswith("overall: PASS (28/28 checks"), last)
            try:
                digest = command_digest(label, stdout, files)
            except ValueError as exc:
                ledger.check(op, "output_parse", False, str(exc))
                continue
            ledger.check(op, "output_digest", digest == self.golden[label])
            if label.startswith("rank-"):
                method = label[len("rank-"):]
                ledger.scheme(op, parse_ranking_csv(stdout)[1], self.schemes[method], method)


def command_digest(label: str, stdout: str, files: dict[str, bytes]) -> str:
    """What the gate compares: the weak order of a ``rank`` output, else stdout plus written files."""
    if label.startswith("rank-"):
        return order_digest(*parse_ranking_csv(stdout))
    return output_digest(stdout, {k: v for k, v in files.items() if k.startswith(label)})


def study_digests(workdir: Path) -> dict[str, str]:
    """Digests of every study-cli command at the current tree."""
    fixtures = mr.io.bundled_fixtures_dir()
    scratch = workdir / "golden"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    schemes = {method: "dense" for method in generate.AGGREGATE_METHODS}
    outputs = {label: run_cli(argv) for label, argv in study_commands(fixtures, scratch, schemes)}
    files = written_files(scratch)
    digests = {}
    for label, (code, stdout, stderr) in outputs.items():
        if code != 0:
            raise RuntimeError(f"{label} exited {code}: {stderr}")
        digests[label] = command_digest(label, stdout, files)
    shutil.rmtree(scratch)
    return digests


# ---------------------------------------------------------------------------
# synthetic-m1000


def blas_cycle_counts(beats: np.ndarray) -> dict[str, int]:
    """3/4/5-cycle counts from float64 traces, exact while m**5 < 2**53."""
    a = beats.astype(np.float64)
    a2 = a @ a
    a3 = a2 @ a
    traces = {3: (a2 * a.T).sum(), 4: (a2 * a2.T).sum(), 5: (a2 * a3.T).sum()}
    return {str(k): int(round(t)) // k for k, t in traces.items()}


class SyntheticM1000:
    """The cubic and quartic layers on one m = 1000, 8-criterion profile."""

    name = "synthetic-m1000"

    def __init__(self, seed: int, workdir: Path):
        inputs = generate.synthetic(seed)
        self.schemes = inputs.schemes
        alternatives = mr.AlternativeSet(inputs.names)
        self.criteria = [
            mr.Criterion(name, weight, mr.from_scores(alternatives, dict(zip(inputs.names, row))))
            for name, weight, row in zip(inputs.criteria, inputs.weights, inputs.scores)
        ]
        self.profile = mr.Profile(alternatives, self.criteria)
        self.expected: dict[str, int] = {}

    def reference(self) -> dict[str, int]:
        """Cycle counts the gate expects; the benchmark computes them in a child process."""
        return blas_cycle_counts(mr.build_majority(self.profile).beats)

    def prepare(self) -> None:
        pass

    def run_pass(self, clock: Clock) -> dict:
        s = self.schemes
        lap = clock.lap
        ms = mr.build_majority(self.profile)
        lap("build")
        cycles = {}
        for k in (3, 4, 5):
            cycles[k] = mr.count_cycles(ms, k)
            lap(f"cycles{k}")
        copeland = {v: mr.copeland_ranking(ms, v, scheme=s[f"copeland{v}"]) for v in (1, 2, 3)}
        lap("copeland")
        sorts, sort_rankings = {}, {}
        for kind in ("UC", "MES", "WTC"):
            sorts[kind] = mr.sort_by_solution(ms, kind)
            sort_rankings[kind] = sorts[kind].ranking(s[f"{kind.lower()}-sort"])
            lap(f"{kind}-sort")
        league_partition = mr.leagues(ms)
        lap("leagues")
        candidates = {c.name: c.ranking for c in self.criteria}
        candidates.update({f"Copeland{v}": copeland[v] for v in (1, 2, 3)})
        candidates.update({"UC": sort_rankings["UC"], "MES": sort_rankings["MES"]})
        correlations = {}
        for measure in generate.MEASURES:
            correlations[measure] = mr.correlation_matrix(candidates, measure)
            lap(f"correlation-{measure}")
        meta = {}
        for measure in generate.MEASURES:
            comparison = mr.rankings_majority(candidates, self.criteria, measure)
            meta[measure] = mr.closest_weak_order(comparison)
            lap(f"meta-{measure}")
        outputs = dict(ms=ms, cycles=cycles, copeland=copeland, sorts=sorts, sort_rankings=sort_rankings,
                       leagues=league_partition, candidates=candidates, correlations=correlations, meta=meta)
        return outputs

    @staticmethod
    def samples(laps: dict) -> dict[str, list[float]]:
        return {}

    def check(self, out: dict, ledger: Ledger, pass_id: int) -> None:
        ms = out["ms"]
        for k, count in out["cycles"].items():
            ledger.check((pass_id, f"count_cycles{k}"), "cycles.blas_trace", count == self.expected[str(k)])
        _check_copeland(ledger, (pass_id, "copeland"), ms)
        for v, ranking in out["copeland"].items():
            ledger.scheme((pass_id, f"copeland{v}"), _ranks(ranking), self.schemes[f"copeland{v}"], f"copeland{v}")
        for kind, sorted_classes in out["sorts"].items():
            op = (pass_id, f"{kind}-sort")
            _check_partition(ledger, op, sorted_classes.classes, ms.alternatives)
            method = f"{kind.lower()}-sort"
            ledger.scheme(op, _ranks(out["sort_rankings"][kind]), self.schemes[method], method)
        _check_partition(ledger, (pass_id, "leagues"), out["leagues"].leagues, ms.alternatives)
        for measure, matrix in out["correlations"].items():
            values = matrix.values
            bound = 1.0 if measure == "tau_b" else 100.0
            ok = np.allclose(values, values.T) and np.all(np.abs(values) <= bound + 1e-12)
            ledger.check((pass_id, f"correlation-{measure}"), "correlation.symmetric_in_range", bool(ok))
        for measure, weak_order in out["meta"].items():
            _check_weak_order(ledger, (pass_id, f"meta-{measure}"), weak_order, out["candidates"])


# ---------------------------------------------------------------------------
# small-batch


class SmallBatch:
    """A stream of small regional studies, the full pipeline on each."""

    name = "small-batch"

    def __init__(self, seed: int, workdir: Path):
        self.stream = generate.small_batch(seed)
        import oracles  # tests/oracles.py, the brute-force references

        self.oracles = oracles

    def prepare(self) -> None:
        pass

    def run_pass(self, clock: Clock) -> list:
        """The whole stream, one profile after another."""
        results = []
        for index, spec in enumerate(self.stream):
            results.append((spec, self.pipeline(spec)))
            clock.lap(index)
        return results

    @staticmethod
    def samples(laps: dict) -> dict[str, list[float]]:
        return {"profile_ms": [seconds * 1000.0 for seconds in laps.values()]}

    @staticmethod
    def pipeline(spec: generate.SmallProfile) -> dict:
        alternatives = mr.AlternativeSet(spec.names)
        criteria = [
            mr.Criterion(generate.INDICATORS[i], generate.STUDY_WEIGHTS[i],
                         mr.from_scores(alternatives, dict(zip(spec.names, spec.values[i]))))
            for i in spec.criteria
        ]
        ms = mr.build_majority(mr.Profile(alternatives, criteria))
        cycles = {k: mr.count_cycles(ms, k) for k in (3, 4, 5)}
        aggregates = {f"copeland{v}": mr.copeland_ranking(ms, v, scheme=spec.scheme) for v in (1, 2, 3)}
        sorts = {kind: mr.sort_by_solution(ms, kind) for kind in ("UC", "MES", "WTC")}
        for kind, sorted_classes in sorts.items():
            aggregates[f"{kind.lower()}-sort"] = sorted_classes.ranking(spec.scheme)
        aggregates["markovian"] = mr.markovian_ranking(ms, scheme=spec.scheme)
        records = [mr.IndicatorRecord(name, *(row[j] for row in spec.values)) for j, name in enumerate(spec.names)]
        cip = mr.cip_ranking(records, scheme=spec.scheme)
        # a fully tied ranking has no tau-b, so it cannot stand as a candidate
        candidates = {c.name: c.ranking for c in criteria}
        candidates.update({k: r for k, r in aggregates.items() if r.distinct_positions() > 1})
        candidates["CIP"] = cip
        comparison = mr.rankings_majority(candidates, criteria, spec.measure)
        weak_order = mr.closest_weak_order(comparison)
        optimal = None  # counted only where the digraph is cyclic, as in the study's reproduction
        if has_cycle(comparison.majority):
            optimal = mr.optimal_order_count(comparison)
        return dict(ms=ms, cycles=cycles, aggregates=aggregates, sorts=sorts, cip=cip,
                    criteria=criteria, candidates=candidates, weak_order=weak_order, optimal=optimal)

    def check(self, results: list, ledger: Ledger, pass_id: int) -> None:
        for index, (spec, out) in enumerate(results):
            op = (pass_id, index)
            ms = out["ms"]
            _check_copeland(ledger, op, ms)
            for sorted_classes in out["sorts"].values():
                _check_partition(ledger, op, sorted_classes.classes, ms.alternatives)
            for method, ranking in out["aggregates"].items():
                ledger.scheme(op, _ranks(ranking), spec.scheme, method)
            ledger.scheme(op, _ranks(out["cip"]), spec.scheme, "cip")
            _check_weak_order(ledger, op, out["weak_order"], out["candidates"])
            if out["optimal"] is not None:
                ledger.check(op, "meta.optimal_orders_positive", out["optimal"] >= 1)
            if len(ms) <= ORACLE_MAX_M:
                self._check_oracles(ledger, op, out)

    def _check_oracles(self, ledger: Ledger, op, out: dict) -> None:
        o = self.oracles
        ms = out["ms"]
        for k, count in out["cycles"].items():
            ledger.check(op, "oracle.cycles", count == o.brute_cycles(ms, k))
        brute = {"UC": o.brute_uncovered, "MES": o.brute_mes_union, "WTC": o.brute_weak_top_cycle}
        for kind, sorted_classes in out["sorts"].items():
            remaining = set(ms.alternatives.items)
            ok = True
            for cls in sorted_classes.classes:
                ok = ok and cls == brute[kind](ms, remaining)
                remaining -= cls
            ledger.check(op, f"oracle.{kind.lower()}_sort", ok)
        for ranking in out["candidates"].values():
            for criterion in out["criteria"]:
                stats = mr.pair_stats(ranking, criterion.ranking)
                fast = (stats.total, stats.concordant, stats.discordant,
                        stats.ties_first, stats.ties_second, stats.ties_both)
                ledger.check(op, "oracle.pair_stats", fast == o.naive_pair_stats(ranking, criterion.ranking))


WORKLOADS = {w.name: w for w in (StudyCli, SyntheticM1000, SmallBatch)}
