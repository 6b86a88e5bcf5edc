"""majorityrank benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload study-cli --seed 1 --seconds 30 --trace 0

Run from the root of a majorityrank checkout; the package is imported from
its ``src/`` directory and the brute-force oracles from ``tests/``.  With
``--trace 0`` the last stdout line is a JSON object holding the end-to-end
metrics: ``run_s``, the median pass in seconds rescaled to a fixed CPU
speed (see ``speed.py``), ``setup_s`` in wall seconds and ``peak_rss_mb``.
With ``--trace 1`` it holds the per-layer metrics of an outside-in traced
run.  Lines before it report the environment, every check with its base,
``fail_ratio`` and the workload's own latencies.  Its ``failed`` counts
operations with an unexpected fault; the known competition mislabel is
reported beside it, in ``fail_ratio``.  Results and spans go to
``.perfbench/``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_SAMPLES = 5
MIN_BEYOND = 10  # samples that must lie beyond a reported percentile
MIN_PASSES = 3  # untraced passes, so that run_s is always a median over several
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOAD_NAMES = ("study-cli", "synthetic-m1000", "small-batch")

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def cap_threads() -> int:
    """Cap BLAS/OpenMP pools at the CPUs this process may use; call before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        os.environ[var] = str(max(1, min(current, nproc)))
    return nproc


def use_checkout_sources() -> None:
    """Import majorityrank and the oracles from this checkout, never from elsewhere."""
    needed = (ROOT / "src" / "majorityrank" / "__init__.py", ROOT / "tests" / "oracles.py")
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise SystemExit(f"perfbench: {', '.join(missing)} not found; run from a majorityrank checkout")
    sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]


def tail_percentile(samples: list[float], q: float) -> float | None:
    """Nearest-rank q-quantile, or None unless MIN_BEYOND samples lie above it."""
    if not samples:
        return None
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    if len(ordered) - rank < MIN_BEYOND:
        return None
    return ordered[rank - 1]


def git_commit() -> str | None:
    """The checked-out commit, or None outside a git repository."""
    if not (ROOT / ".git").exists():  # never let git search the directories above
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(nproc: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        vendor = "unknown"
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": vendor,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "commit": git_commit(),
        "machine": platform.machine(),
    }


def in_child(workload: str, seed: int, flag: str) -> dict:
    """Run this workload's set-up in a fresh interpreter with ``flag``; return its JSON line."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), flag]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def run(args: argparse.Namespace, nproc: int) -> int:
    started = time.perf_counter()
    import workloads  # numpy and majorityrank load here, inside the set-up time
    from speed import REFERENCE_S, Clock

    workload = workloads.WORKLOADS[args.workload](args.seed, OUT / "work")
    setup_s = time.perf_counter() - started
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.reference:
        print(json.dumps(workload.reference()))
        return 0
    # a fresh interpreter pays the import again; the gate's reference is
    # computed in one too, so that its memory stays out of peak_rss_mb.
    # Set-up stays in wall seconds: it is mostly imports, which the speed
    # probe does not resemble, and rescaling it widened its spread.
    setup_samples = [setup_s] + [in_child(args.workload, args.seed, "--setup-only")["setup_s"]
                                 for _ in range(SETUP_SAMPLES - 1)]
    if hasattr(workload, "reference"):
        workload.expected = in_child(args.workload, args.seed, "--reference")

    from tracing import Recorder, layer_metrics, per_layer_names, rebound

    ledger = workloads.Ledger()
    recorder = Recorder()
    durations: list[float] = []  # rescaled seconds of each pass
    walls: list[float] = []
    laps: list[dict] = []  # rescaled seconds of each operation, per pass
    traced_ids: list[int] = []
    samples: dict[str, list[float]] = defaultdict(list)
    with Clock() as clock:
        loop_start = time.perf_counter()
        pass_id = 0
        while True:
            # every pass runs the same inputs; with tracing, every other pass is traced
            traced = bool(args.trace) and pass_id % 2 == 1
            workload.prepare()
            began = time.perf_counter()
            clock.start()
            if traced:
                recorder.pass_id = pass_id
                traced_ids.append(pass_id)
                with rebound(recorder):
                    outputs = workload.run_pass(clock)
            else:
                outputs = workload.run_pass(clock)
            took = time.perf_counter() - began
            wall, scaled = clock.totals()
            if not traced:
                for key, values in workload.samples(clock.scaled).items():
                    samples[key].extend(values)
            durations.append(scaled)
            walls.append(wall)
            laps.append(clock.scaled)
            workload.check(outputs, ledger, pass_id)
            del outputs  # so that no pass runs while the last one's outputs are still held
            pass_id += 1
            # start another pass only if it is expected to end less than half a pass
            # past the budget, but run at least MIN_PASSES without tracing (a
            # synthetic-m1000 pass can take most of the budget); a traced run ends
            # on a traced pass, closing its pair
            enough = bool(args.trace) or len(durations) >= MIN_PASSES
            if enough and time.perf_counter() - loop_start + took / 2 >= args.seconds and traced == bool(args.trace):
                break

    untraced = [durations[i] for i in range(len(durations)) if i not in traced_ids]
    untraced_wall = [walls[i] for i in range(len(walls)) if i not in traced_ids]
    run_s = statistics.median(untraced)
    if args.trace:
        metrics_raw, mismatches = layer_metrics(recorder, traced_ids)
        for pid in traced_ids:
            wrong = [f"{name}: traced {got}, derived {want}" for p, name, got, want in mismatches if p == pid]
            ledger.check((pid, "trace"), "trace.call_counts", not wrong, "; ".join(wrong))
        metrics_raw["trace.overhead_s"] = statistics.median(durations[i] - durations[i - 1] for i in traced_ids)
        units = per_layer_names()
        metrics = {name: {"value": metrics_raw[name], "unit": unit} for name, unit in units.items()}
    else:
        values = {
            "run_s": run_s,
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    attempted, failed = len(ledger.ops), len(ledger.failed_ops)
    known = len(ledger.known_ops - ledger.failed_ops)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(nproc),
        "reference_probe_s": REFERENCE_S,
        "passes_s": durations,
        "passes_wall_s": walls,
        "laps_s": laps,
        "traced_passes": traced_ids,
        "setup_samples_s": setup_samples,
        "fail_ratio": {"value": (failed + known) / attempted, "failed": failed, "known_defect": known,
                       "attempted": attempted},
        "checks": {name: {"attempted": a, "failed": f} for name, (a, f) in sorted(ledger.by_check.items())},
        "unexpected_failures": ledger.unexpected[:50],
    }
    if samples.get("reproduce_s"):
        report["reproduce_s"] = {"median": statistics.median(samples["reproduce_s"]),
                                 "samples": len(samples["reproduce_s"])}
    if samples.get("profile_ms"):
        latencies = samples["profile_ms"]
        report["profile_ms"] = {"p50": statistics.median(latencies), "p90": tail_percentile(latencies, 0.9),
                                "samples": len(latencies)}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps({**report, "metrics": metrics}, indent=1))
    if args.trace:
        recorder.write(OUT / f"spans-{stem}.json")

    print("environment:", json.dumps(report["environment"]))
    print(f"passes: {len(untraced)} untraced, {len(traced_ids)} traced; run_s {run_s:.4f} "
          f"(median wall time {statistics.median(untraced_wall):.4f})")
    for name, counts in report["checks"].items():
        print(f"check {name}: {counts['failed']} failed of {counts['attempted']}")
    print(f"fail_ratio: {failed + known}/{attempted} operations = {report['fail_ratio']['value']} "
          f"({known} with only the known competition mislabel, {failed} other)")
    for key in ("reproduce_s", "profile_ms"):
        if key in report:
            print(f"{key}:", json.dumps(report[key]))
    for line in ledger.unexpected[:20]:
        print("UNEXPECTED FAILURE:", line)
    print(json.dumps({"correct": not ledger.unexpected, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="measure set-up once and exit")
    parser.add_argument("--reference", action="store_true", help="print the gate's reference outputs and exit")
    args = parser.parse_args(argv)
    nproc = cap_threads()
    use_checkout_sources()
    return run(args, nproc)


if __name__ == "__main__":
    sys.exit(main())
