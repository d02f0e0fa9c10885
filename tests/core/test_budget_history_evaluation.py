"""Budgets, evaluation history and the budget-aware objective wrapper."""

import time

import pytest

from repro.core.budget import (
    CombinedBudget,
    EvaluationBudget,
    TimeBudget,
    remaining_evaluations,
)
from repro.core.evaluation import BudgetExhausted, Objective
from repro.core.history import CalibrationHistory, Evaluation
from repro.core.parameters import Parameter, ParameterSpace


def make_space():
    return ParameterSpace([Parameter("x", 1.0, 2.0**10), Parameter("y", 1.0, 2.0**10)])


class TestBudgets:
    def test_evaluation_budget(self):
        budget = EvaluationBudget(3)
        assert not budget.exhausted(0)
        assert not budget.exhausted(2)
        assert budget.exhausted(3)
        assert "3" in budget.describe()
        with pytest.raises(ValueError):
            EvaluationBudget(0)

    def test_time_budget(self):
        budget = TimeBudget(0.05)
        budget.start()
        assert not budget.exhausted(0)
        time.sleep(0.06)
        assert budget.exhausted(0)
        with pytest.raises(ValueError):
            TimeBudget(0.0)

    def test_time_budget_autostarts_on_first_check(self):
        budget = TimeBudget(100.0)
        assert not budget.exhausted(0)
        assert budget.elapsed >= 0.0

    def test_combined_budget(self):
        budget = CombinedBudget([EvaluationBudget(2), TimeBudget(1000.0)])
        budget.start()
        assert not budget.exhausted(1)
        assert budget.exhausted(2)
        assert "and" in budget.describe()
        with pytest.raises(ValueError):
            CombinedBudget([])


class TestRemainingEvaluations:
    def test_plain_budgets(self):
        assert remaining_evaluations(EvaluationBudget(10), 4) == 6
        assert remaining_evaluations(EvaluationBudget(10), 12) == 0
        assert remaining_evaluations(TimeBudget(5.0), 4) is None

    def test_combined_budget_recurses(self):
        combined = CombinedBudget([TimeBudget(100.0), EvaluationBudget(7)])
        assert remaining_evaluations(combined, 3) == 4
        nested = CombinedBudget([combined, EvaluationBudget(5)])
        assert remaining_evaluations(nested, 3) == 2
        assert remaining_evaluations(CombinedBudget([TimeBudget(1.0)]), 3) is None


class TestHistory:
    def make_eval(self, index, value, finished_at=None):
        return Evaluation(
            index=index,
            values={"x": float(index)},
            unit=(0.0, 0.0),
            value=value,
            started_at=float(index),
            finished_at=finished_at if finished_at is not None else float(index) + 0.5,
        )

    def test_best_tracking(self):
        history = CalibrationHistory()
        for i, value in enumerate([10.0, 5.0, 7.0, 3.0, 9.0]):
            history.record(self.make_eval(i, value))
        assert history.best.value == 3.0
        assert len(history) == 5
        assert history.best_so_far() == [10.0, 5.0, 5.0, 3.0, 3.0]
        assert history.value_curve() == [10.0, 5.0, 7.0, 3.0, 9.0]

    def test_best_over_time_and_at_time(self):
        history = CalibrationHistory()
        for i, value in enumerate([10.0, 5.0, 7.0]):
            history.record(self.make_eval(i, value, finished_at=float(i + 1)))
        series = history.best_over_time()
        assert series == [(1.0, 10.0), (2.0, 5.0), (3.0, 5.0)]
        assert history.best_at_time(0.5) is None
        assert history.best_at_time(1.5) == 10.0
        assert history.best_at_time(10.0) == 5.0

    def test_total_evaluation_time(self):
        history = CalibrationHistory()
        history.record(self.make_eval(0, 1.0))
        history.record(self.make_eval(1, 2.0))
        assert history.total_evaluation_time == pytest.approx(1.0)

    def test_empty_history(self):
        history = CalibrationHistory()
        assert history.best is None
        assert history.best_so_far() == []


class TestObjective:
    def test_records_history_and_best(self):
        space = make_space()
        objective = Objective(lambda v: v["x"] + v["y"], space)
        objective.start()
        objective.evaluate({"x": 4.0, "y": 8.0})
        objective.evaluate({"x": 2.0, "y": 2.0})
        assert objective.evaluation_count == 2
        assert objective.best.value == pytest.approx(4.0)
        assert objective.best_values() == {"x": 2.0, "y": 2.0}

    def test_cache_hits_do_not_consume_budget(self):
        space = make_space()
        calls = []

        def fn(values):
            calls.append(values)
            return values["x"]

        objective = Objective(fn, space, budget=EvaluationBudget(2))
        objective.start()
        objective.evaluate({"x": 4.0, "y": 8.0})
        objective.evaluate({"x": 4.0, "y": 8.0})  # cache hit
        assert len(calls) == 1
        objective.evaluate({"x": 2.0, "y": 2.0})
        with pytest.raises(BudgetExhausted):
            objective.evaluate({"x": 8.0, "y": 8.0})
        # Cached points can still be queried after exhaustion.
        assert objective.evaluate({"x": 4.0, "y": 8.0}) == pytest.approx(4.0)

    def test_cache_can_be_disabled(self):
        space = make_space()
        calls = []
        objective = Objective(lambda v: calls.append(1) or 0.0, space, cache=False)
        objective.start()
        objective.evaluate({"x": 4.0, "y": 8.0})
        objective.evaluate({"x": 4.0, "y": 8.0})
        assert len(calls) == 2

    def test_evaluate_unit_clips_and_converts(self):
        space = make_space()
        seen = {}

        def fn(values):
            seen.update(values)
            return 0.0

        objective = Objective(fn, space)
        objective.start()
        objective.evaluate_unit([2.0, -1.0])
        assert seen["x"] == pytest.approx(2.0**10)
        assert seen["y"] == pytest.approx(1.0)

    def test_best_values_before_any_evaluation_raises(self):
        objective = Objective(lambda v: 0.0, make_space())
        with pytest.raises(ValueError):
            objective.best_values()

    def test_evaluation_dataclass_duration(self):
        e = Evaluation(0, {"x": 1.0}, (0.1,), 5.0, 1.0, 3.5)
        assert e.duration == pytest.approx(2.5)
