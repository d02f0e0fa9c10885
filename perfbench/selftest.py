"""The benchmark's own tests.  Run from the repository root::

    python3 -m pytest perfbench/selftest.py -q

They run small-budget rounds of every workload through the output
checks, show that wrong outputs fail those checks, and show that two
runs repeat the exact counts.  The first run in a checkout generates the
paper-scale ground truth (about two minutes).
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from repro.core.history import CalibrationHistory  # noqa: E402

#: small budgets; calib-gdfix keeps its own, which its check against HUMAN needs
SMALL_BUDGETS = {"calib-gdfix": None, "paper-scsn": 2, "fleet-tiny": 8}

EXACT_COUNTS = (
    "simgrid.solve_calls",
    "simgrid.active_per_solve",
    "simgrid.events",
    "store.peek_per_eval",
    "store.get_per_eval",
    "store.put_per_eval",
    "store.claim_per_eval",
    "store.release_per_eval",
    "store.get_failure_per_eval",
    "fleet.tasks_calls_per_eval",
)


def small_rounds(name: str, rounds: int = 2):
    workload = workloads.WORKLOADS[name]()
    if SMALL_BUDGETS[name] is not None:
        workload.budget = SMALL_BUDGETS[name]
    workload.setup(run_seed=7)
    try:
        return workload, [workload.run_round(i) for i in range(rounds)]
    except BaseException:
        workload.close()
        raise


@pytest.fixture(scope="module", params=sorted(SMALL_BUDGETS))
def finished(request):
    workload, rounds = small_rounds(request.param)
    yield workload, rounds
    workload.close()


def reordered(result):
    history = CalibrationHistory()
    for evaluation in reversed(list(result.history)):
        history.record(evaluation)
    return dataclasses.replace(result, history=history)


def test_small_budget_rounds_pass_their_checks(finished):
    workload, rounds = finished
    assert workload.check(rounds) == []


def test_perturbed_best_value_fails(finished):
    workload, rounds = finished
    first = rounds[0]
    wrong = dataclasses.replace(first.results[0], best_value=first.results[0].best_value * 1.001)
    bad = dataclasses.replace(first, results=[wrong, *first.results[1:]])
    assert any("recomputed MRE" in f for f in workload.check([bad, *rounds[1:]]))


def test_reordered_trajectory_fails(finished):
    workload, rounds = finished
    later = rounds[1]
    bad = dataclasses.replace(later, results=[reordered(r) for r in later.results])
    assert any("trajectory" in f for f in workload.check([rounds[0], bad]))


def test_fleet_warm_history_must_match_cold():
    workload, rounds = small_rounds("fleet-tiny", rounds=1)
    try:
        cold, warm = rounds[0].results
        bad = dataclasses.replace(rounds[0], results=[cold, reordered(warm)])
        assert any("warm history" in f for f in workload.check([bad]))
    finally:
        workload.close()


def run_benchmark(*args: str) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        check=True, capture_output=True, text=True, timeout=170,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def test_two_runs_repeat_exact_counts_and_best_mre():
    common = ("--workload", "fleet-tiny", "--seconds", "1")
    traced = [run_benchmark(*common, "--seed", seed, "--trace", "1") for seed in ("3", "4")]
    for name in EXACT_COUNTS:
        assert traced[0]["metrics"][name] == traced[1]["metrics"][name], name
    plain = [run_benchmark(*common, "--seed", seed, "--trace", "0") for seed in ("3", "4")]
    assert all(result["correct"] for result in traced + plain)
    assert plain[0]["metrics"]["best_mre_pct"] == plain[1]["metrics"]["best_mre_pct"]
