"""Tests of the benchmark's own code: generators, trace arithmetic, gates."""

from __future__ import annotations

import json
import math
import signal
from pathlib import Path

import numpy as np

import majorityrank as mr
import generate
import run
import speed
import tracing
import workloads
from tracing import Span


def test_one_seed_reproduces_inputs_and_two_seeds_differ():
    assert generate.digest(generate.synthetic(7)) == generate.digest(generate.synthetic(7))
    assert generate.digest(generate.synthetic(7)) != generate.digest(generate.synthetic(8))
    assert generate.digest(generate.small_batch(7)) == generate.digest(generate.small_batch(7))
    assert generate.digest(generate.small_batch(7)) != generate.digest(generate.small_batch(8))
    assert generate.study_schemes(3) == generate.study_schemes(3)


def test_small_batch_blocks_are_balanced():
    stream = generate.small_batch(5)
    block = stream[:len(generate.SMALL_SIZES)]
    assert sorted(len(p.names) for p in block) == list(generate.SMALL_SIZES)
    assert sum(p.scheme == "competition" for p in block) == len(block) // 2
    assert all(max(max(row) for row in p.values[2:]) <= 1.0 for p in stream)


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 5.0, 6.0, 0, 0),
        Span("a.child", 2.0, 3.0, 1, 0),
    ]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    totals = tracing.layer_totals(spans)[0]
    assert totals["a"] == {"incl": 3.0, "self": 2.0, "calls": 1}


def test_recursive_span_counts_inclusive_time_once():
    spans = [Span("f", 0.0, 4.0, -1, 0), Span("f", 1.0, 2.0, 0, 0)]
    totals = tracing.layer_totals(spans)[0]["f"]
    assert totals["incl"] == 4.0 and totals["self"] == 4.0 and totals["calls"] == 2


def test_cycle_test_on_small_digraphs():
    path = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=bool)
    assert not tracing.has_cycle(path)
    closed = path.copy()
    closed[2, 0] = True
    assert tracing.has_cycle(closed)


def test_clock_rescales_each_lap_by_the_probes_around_it():
    clock = speed.Clock()  # not entered: no timer runs, samples are added by hand
    n = speed.MIN_SAMPLES
    for _ in range(n):
        clock.record(1.0, 0.0)
    clock.start()
    for _ in range(n):  # enough probes inside the lap: only they count
        clock.record(3.0, 0.0)
    clock.lap("long")
    for _ in range(2):  # too few inside a short lap: the last MIN_SAMPLES count
        clock.record(5.0, 0.0)
    clock.lap("short")
    for label in ("long", "short"):
        assert math.isclose(clock.scaled[label], clock.wall[label] * speed.REFERENCE_S / 3.0)
    wall, scaled = clock.totals()
    assert math.isclose(scaled, sum(clock.scaled.values())) and math.isclose(wall, sum(clock.wall.values()))


def test_clock_disarms_its_timer_on_exit():
    before = signal.getsignal(signal.SIGALRM)
    with speed.Clock() as clock:
        assert signal.getitimer(signal.ITIMER_REAL)[1] == speed.SAMPLE_EVERY_S
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
    assert clock.samples >= speed.MIN_SAMPLES


def test_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(list(range(1, 101)), 0.9) == 90
    assert run.tail_percentile(list(range(1, 100)), 0.9) is None
    assert run.tail_percentile([], 0.5) is None


def test_digest_masks_elapsed_time_only():
    body = "PASS  cycle count k=3 expected=638 computed=638 deviation=0\n"
    fast = body + "overall: PASS (28/28 checks, 2.75s)"
    slow = body + "overall: PASS (28/28 checks, 13.02s)"
    changed = body.replace("computed=638", "computed=639") + "overall: PASS (28/28 checks, 2.75s)"
    assert workloads.output_digest(fast, {}) == workloads.output_digest(slow, {})
    assert workloads.output_digest(fast, {}) != workloads.output_digest(changed, {})


def test_order_digest_ignores_labels_but_not_order():
    names = ["a", "b", "c", "d"]
    dense = workloads.order_digest(names, [1, 2, 2, 3])
    assert workloads.order_digest(names, [1, 2, 2, 4]) == dense
    assert workloads.order_digest(names, [1, 3, 2, 4]) != dense


def test_scheme_check_separates_known_mislabel():
    ledger = workloads.Ledger()
    ledger.scheme("op1", [1, 2, 2, 3], "competition", "uc-sort")
    ledger.scheme("op2", [1, 2, 2, 3], "competition", "copeland1")
    ledger.scheme("op3", [1, 2, 2, 4], "competition", "copeland1")
    assert ledger.by_check[workloads.KNOWN_DEFECT] == [1, 1]
    assert ledger.by_check["scheme"] == [2, 1]
    assert ledger.failed_ops == {"op2"}
    assert ledger.known_ops == {"op1"}
    assert len(ledger.unexpected) == 1


def test_rebinding_catches_nested_calls_and_restores():
    rows = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]  # a Condorcet cycle, one league of three
    alternatives = mr.AlternativeSet(("x", "y", "z"))
    criteria = [
        mr.Criterion(f"c{i}", 1, mr.Ranking(alternatives, {a: r + 1 for a, r in zip(alternatives, row)}))
        for i, row in enumerate(rows)
    ]
    structure = mr.build_majority(mr.Profile(alternatives, criteria))
    original = mr.markovian.stationary
    recorder = tracing.Recorder()
    with tracing.rebound(recorder):
        mr.markovian_ranking(structure)
    assert mr.markovian.stationary is original
    names = [span.name for span in recorder.spans]
    assert names.count("markovian.stationary") == 1
    stationary = names.index("markovian.stationary")
    assert recorder.spans[recorder.spans[stationary].parent].name == "markovian.ranking"
    assert recorder.counters[0]["markovian.expected_stationary_calls"] == 1


def test_benchmark_json_names_every_metric():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.per_layer_names()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
