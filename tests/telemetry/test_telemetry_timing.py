"""Per-point evaluation wall-clock in the history (time-to-quality).

The parallel drivers used to stamp a whole batch with the same
timestamps; these tests pin the fixed behaviour — each evaluation's
``finished_at - started_at`` reflects that point's own cost, measured in
the worker, so reports can say *when* quality was reached, not just at
which evaluation index.
"""

import time

import pytest

from repro.core import AsyncCalibrator, EvaluationBudget
from repro.core.parameters import Parameter, ParameterSpace

SLEEP_FAST = 0.02
SLEEP_SLOW = 0.30
#: generous jitter allowance for loaded CI machines
JITTER = 0.15


def _expected_sleep(x: float) -> float:
    # Keyed on the candidate (not call order) so every driver pays the
    # same cost for the same point regardless of scheduling.
    return SLEEP_SLOW if x > 1.5 else SLEEP_FAST


def objective(values):
    time.sleep(_expected_sleep(values["x"]))
    return values["x"]


def _space():
    return ParameterSpace([Parameter("x", 1.0, 2.0, scale="linear")])


def _assert_per_point_durations(history):
    for evaluation in history:
        expected = _expected_sleep(evaluation.values["x"])
        duration = evaluation.finished_at - evaluation.started_at
        # At least its own sleep (time.sleep never wakes early) ...
        assert duration >= expected - 0.01, (evaluation.values, duration, expected)
        # ... and not the batch-wide envelope: a fast point must not
        # inherit a slow batchmate's wall-clock.
        assert duration <= expected + JITTER, (evaluation.values, duration, expected)
        assert evaluation.started_at >= 0.0
        assert evaluation.finished_at >= evaluation.started_at


class TestAsyncDriverTiming:
    @pytest.mark.parametrize("mode", ["thread", "serial"])
    def test_history_records_per_point_wall_clock(self, mode):
        result = AsyncCalibrator(
            _space(), objective, algorithm="random",
            budget=EvaluationBudget(12), seed=5,
            workers=4, mode=mode, cache=False,
        ).run()
        assert result.evaluations == 12
        _assert_per_point_durations(result.history)
