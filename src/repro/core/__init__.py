"""The calibration framework (the paper's primary contribution).

Given a black-box simulator (any callable mapping parameter values to an
accuracy value), a :class:`~repro.core.parameters.ParameterSpace` with
user-specified ranges (searched in log2 representation by default, as in
Section III.A), an accuracy metric and a budget (wall-clock time bound
and/or maximum number of simulator invocations), a
:class:`~repro.core.calibrator.Calibrator` runs one of the calibration
algorithms of Section III.B — Grid search, Random search, Gradient descent
(fixed or dynamic step) — or one of the extensions the paper lists as
future work (Latin hypercube sampling, simulated annealing, coordinate
descent, Bayesian optimization) and returns the best calibration found
along with the full evaluation history.
"""

from repro.core.algorithms import (
    ALGORITHMS,
    CMAES,
    BayesianOptimization,
    CalibrationAlgorithm,
    CoordinateDescent,
    DifferentialEvolution,
    GradientDescent,
    GridSearch,
    LatinHypercubeSearch,
    NelderMead,
    PatternSearch,
    RandomSearch,
    SimulatedAnnealing,
    SobolSearch,
    TPESearch,
    get_algorithm,
)
from repro.core.budget import (
    Budget,
    CombinedBudget,
    EvaluationBudget,
    TimeBudget,
    remaining_evaluations,
)
from repro.core.calibrator import Calibrator
from repro.core.crossvalidation import (
    CrossValidationResult,
    Fold,
    FoldResult,
    cross_validate,
    k_fold_splits,
    leave_one_out_splits,
    subset_splits,
)
from repro.core.evaluation import (
    BudgetExhausted,
    CacheBackend,
    DictCache,
    Evaluation,
    Objective,
)
from repro.core.faults import (
    CircuitBreaker,
    CircuitOpen,
    EvaluationFailed,
    EvaluationFailure,
    EvaluationTimeout,
    FailurePolicy,
    RetryPolicy,
    TransientEvaluationError,
)
from repro.core.history import CalibrationHistory
from repro.core.metrics import (
    max_relative_error,
    mean_absolute_error,
    mean_relative_error,
    root_mean_squared_error,
)
from repro.core.async_driver import AsyncCalibrator, OrderedTellAdapter
from repro.core.parallel import ParallelEvaluator
from repro.core.parameters import Parameter, ParameterSpace
from repro.core.reporting import calibration_report, convergence_sparkline
from repro.core.result import CalibrationResult
from repro.core.serialization import (
    load_history_jsonl,
    load_result,
    save_history_jsonl,
    save_result,
)
from repro.core.sensitivity import (
    SensitivityResult,
    morris_elementary_effects,
    one_at_a_time,
    rank_parameters,
)
from repro.core.stopping import (
    NoImprovementStopper,
    RelativePlateauStopper,
    StoppingCriterion,
    TargetValueStopper,
)
from repro.core.tradeoff import TradeoffPoint, dominated_fraction, knee_point, pareto_front

__all__ = [
    "ALGORITHMS",
    "AsyncCalibrator",
    "BayesianOptimization",
    "Budget",
    "BudgetExhausted",
    "CMAES",
    "CacheBackend",
    "CalibrationAlgorithm",
    "CalibrationHistory",
    "CalibrationResult",
    "Calibrator",
    "CircuitBreaker",
    "CircuitOpen",
    "CombinedBudget",
    "CoordinateDescent",
    "CrossValidationResult",
    "DictCache",
    "DifferentialEvolution",
    "Evaluation",
    "EvaluationBudget",
    "EvaluationFailed",
    "EvaluationFailure",
    "EvaluationTimeout",
    "FailurePolicy",
    "Fold",
    "FoldResult",
    "GradientDescent",
    "GridSearch",
    "LatinHypercubeSearch",
    "NelderMead",
    "NoImprovementStopper",
    "Objective",
    "OrderedTellAdapter",
    "ParallelEvaluator",
    "Parameter",
    "ParameterSpace",
    "PatternSearch",
    "RandomSearch",
    "RelativePlateauStopper",
    "RetryPolicy",
    "SensitivityResult",
    "SimulatedAnnealing",
    "SobolSearch",
    "StoppingCriterion",
    "TPESearch",
    "TargetValueStopper",
    "TimeBudget",
    "TradeoffPoint",
    "TransientEvaluationError",
    "calibration_report",
    "convergence_sparkline",
    "cross_validate",
    "dominated_fraction",
    "get_algorithm",
    "k_fold_splits",
    "knee_point",
    "leave_one_out_splits",
    "load_history_jsonl",
    "load_result",
    "max_relative_error",
    "mean_absolute_error",
    "mean_relative_error",
    "morris_elementary_effects",
    "one_at_a_time",
    "pareto_front",
    "rank_parameters",
    "remaining_evaluations",
    "root_mean_squared_error",
    "save_history_jsonl",
    "save_result",
    "subset_splits",
]
