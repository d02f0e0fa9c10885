#!/usr/bin/env python3
"""Calibration benchmark: end-to-end and per-layer costs of a fixed calibration.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload calib-gdfix --seed 1 --seconds 20 --trace 0

Workloads and metrics are listed in ``BENCHMARK.json`` and described in
``perfbench/README.md``.  The run builds the ground truth it needs into
``perfbench/.cache`` if it is missing, times set-up in fresh processes,
repeats the workload's calibration for ``--seconds``, checks the outputs
and prints one JSON object as its last line: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostclock import NOMINAL_PROBE_S, HostClock, probe_seconds

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
BENCHMARK = HERE.parent / "BENCHMARK.json"
#: printed by a helper process once it is done (set-up: ready to evaluate)
READY = "perfbench-ready"
#: fresh processes timed per run for setup_s
SETUP_REPEATS = 3
#: seconds a set-up process may take before the run fails
SETUP_TIMEOUT = 60.0


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="names the run's fleet store and job fingerprints; "
                             "each workload's calibration is fixed")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long to repeat the workload's calibration")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: a traced run that reports the per-layer metrics")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run_child(args: argparse.Namespace, flag: str, timeout: float) -> tuple[float, float]:
    """Run this script with ``flag`` in a fresh process; returns the
    perf-counter times of its spawn and of its READY line."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), flag]
    start = time.perf_counter()
    child = subprocess.Popen(command, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                             text=True)
    try:
        assert child.stdout is not None
        ready = None
        for line in child.stdout:
            if line.strip() == READY:
                ready = time.perf_counter()
                break
        child.stdout.read()
        code = child.wait(timeout=timeout)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    if ready is None or code != 0:
        raise RuntimeError(f"{flag} process failed (exit code {code})")
    return start, ready


def setup_seconds(args: argparse.Namespace, clock: HostClock) -> tuple[float, float]:
    """One set-up in a fresh process, bracketed by host probes: (raw,
    host-normalised) seconds from spawn to ready."""
    clock.probe()
    start, ready = run_child(args, "--setup-only", SETUP_TIMEOUT)
    clock.probe()
    return ready - start, clock.normalized(start, ready)


def run_rounds(workload, seconds: float) -> list:
    """Whole rounds until the next one would end more than half a round
    past ``seconds``."""
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(workload.run_round(len(rounds)))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(rounds) / 2 >= seconds:
            return rounds


def end_to_end(rounds: list, setup: list[tuple[float, float]]) -> dict[str, float]:
    """The end-to-end metrics.  Rounds repeat identical work, so the time
    metrics take each round's or each point's fastest repeat: the one the
    host's other tenants disturbed least."""
    fastest: dict[tuple, float] = {}
    for one in rounds:
        for call in one.calls:
            key = tuple(sorted(call.values.items()))
            fastest[key] = min(fastest.get(key, float("inf")), call.host_seconds)
    return {
        "setup_s": statistics.median(host for _, host in setup),
        "calibration_s": min(r.host_seconds for r in rounds),
        "eval_ms_p50": statistics.median(fastest.values()) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "best_mre_pct": rounds[0].results[0].best_value,
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir() or not BENCHMARK.is_file():
        print(f"perfbench: run from a source checkout ({SRC} or {BENCHMARK} is missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()

    if args.setup_only:
        workload.setup(args.seed)
        print(READY, flush=True)
        workload.close()
        return 0

    declared = json.loads(BENCHMARK.read_text())
    workloads.prepare_ground_truth()
    probe_before = probe_seconds()
    clock = HostClock()
    setup = [] if args.trace else [setup_seconds(args, clock) for _ in range(SETUP_REPEATS)]
    workload.setup(args.seed)
    recorder = None
    patches = spans.Patches()
    try:
        if args.trace:
            recorder = spans.SpanRecorder()
            spans.instrument_library(recorder, patches)
            workload.instrument(recorder, patches)
        workload.probe_during_simulation(patches)
        rounds = run_rounds(workload, args.seconds)
        patches.undo()
        failures = workload.check(rounds)
    finally:
        workload.close()
    probe_after = probe_seconds()

    print(f"{args.workload}: {len(rounds)} rounds of {workload.algorithm} x "
          f"{workload.budget} evaluations (calibration seed {workload.calibration_seed})")
    print("round seconds, raw: " + " ".join(f"{r.seconds:.3f}" for r in rounds))
    print("round seconds, host-normalised: "
          + " ".join(f"{r.host_seconds:.3f}" for r in rounds))
    if setup:
        print("setup seconds, raw: " + " ".join(f"{raw:.3f}" for raw, _ in setup))
    print(f"host probe: {probe_before * 1e3:.3f} ms before, {probe_after * 1e3:.3f} ms after "
          f"(nominal {NOMINAL_PROBE_S * 1e3:.3f} ms)")
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)

    if recorder is not None:
        calls = [call for one in rounds for call in one.calls]
        busy = sum(c.seconds + c.probe_seconds for c in calls)
        values = spans.layer_metrics(
            recorder.spans,
            len(calls),
            sum(r.seconds for r in rounds) - busy,
            sum(r.evaluations for r in rounds),
            [d for r in rounds for d in r.dispatch_s],
        )
        print("self ms per evaluation: " + " ".join(
            f"{layer}={seconds / len(calls) * 1e3:.3f}"
            for layer, seconds in spans.layer_self_times(recorder.spans).items()))
        recorder.dump(workloads.WORK_DIR / f"spans-{args.workload}-{args.seed}.json")
        section = "per_layer"
    else:
        values = end_to_end(rounds, setup)
        section = "end_to_end"

    print(json.dumps({
        "correct": not failures,
        "attempted": sum(r.evaluations for r in rounds),
        "failed": 0,
        "metrics": {
            metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in declared[section]
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
