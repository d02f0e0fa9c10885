"""The calibrator: a serial ask/tell driver with checkpoint/resume.

A :class:`Calibrator` owns one calibration run: it builds the budget-aware
:class:`~repro.core.evaluation.Objective`, instantiates the algorithm and
drives it through the ask/tell protocol of
:class:`~repro.core.algorithms.CalibrationAlgorithm` — one candidate at a
time, which reproduces the paper's blocking loops exactly (the parallel
counterpart is :class:`~repro.core.async_driver.AsyncCalibrator`).

Typical use (this is what :mod:`repro.hepsim.calibration` does for the
case study):

.. code-block:: python

    space = ParameterSpace([...])
    objective_fn = lambda values: simulate_and_compute_mre(values)
    calibrator = Calibrator(space, objective_fn,
                            algorithm="random",
                            budget=EvaluationBudget(500),
                            seed=0)
    result = calibrator.run()
    result.best_values   # the calibrated parameter values

Because the algorithms expose their full search state via
``state_dict()``, a run can be snapshotted and resumed mid-trajectory:

.. code-block:: python

    snapshots = []
    calibrator.run(checkpoint_every=50, on_checkpoint=snapshots.append)
    # ... the process dies; later, in a fresh process:
    resumed = Calibrator(space, objective_fn, algorithm="random",
                         budget=EvaluationBudget(500), seed=0)
    result = resumed.run(resume=snapshots[-1])   # finishes the trajectory

A checkpoint is a JSON-compatible dictionary bundling the algorithm state,
the driver's rng state and the evaluation history; the resumed run
replays *nothing* — restored evaluations re-enter the history, the cache
and the budget accounting, and the algorithm continues exactly where the
snapshot was taken (the calibration service persists these snapshots with
its job spool so a crashed server finishes jobs instead of re-running
them).
"""

from __future__ import annotations

import contextlib
from collections.abc import Callable
from typing import Any

import numpy as np

from repro.core.algorithms import CalibrationAlgorithm, get_algorithm
from repro.core.budget import Budget, CombinedBudget, EvaluationBudget
from repro.core.evaluation import BudgetExhausted, CacheBackend, Objective
from repro.core.faults import FailurePolicy, RetryPolicy
from repro.core.history import CalibrationHistory
from repro.core.parameters import ParameterSpace
from repro.core.result import CalibrationResult
from repro.core.serialization import evaluation_from_dict, evaluation_to_dict
from repro.core.stopping import StoppingBudget, StoppingCriterion
from repro.telemetry.metrics import registry as _metrics_registry
from repro.telemetry.tracing import current_tracer

_REGISTRY = _metrics_registry()

__all__ = ["Calibrator"]

#: checkpoint layout version (bumped on incompatible changes)
CHECKPOINT_VERSION = 1


class Calibrator:
    """Runs one calibration: an algorithm exploring a parameter space under
    a budget, minimising a simulator-accuracy objective.

    An optional early-stopping criterion (see :mod:`repro.core.stopping`)
    can be supplied; the run then ends at whichever of the budget or the
    criterion triggers first.  ``algorithm_options`` are forwarded to the
    algorithm's constructor, so ``Calibrator(..., algorithm="cmaes",
    algorithm_options={"population_size": 8})`` needs no manual import.

    ``retry_policy``, ``failure_policy`` and ``eval_timeout`` are forwarded
    verbatim to the :class:`~repro.core.evaluation.Objective` (see
    :mod:`repro.core.faults`); all three default to ``None``, which keeps
    every code path byte-identical to a fault-tolerance-unaware run.
    """

    def __init__(
        self,
        space: ParameterSpace,
        objective_function: Callable[[dict[str, float]], float],
        algorithm: str | CalibrationAlgorithm = "random",
        budget: Budget | None = None,
        seed: int = 0,
        cache: bool | CacheBackend = True,
        stopping: StoppingCriterion | None = None,
        record_cache_hits: bool = False,
        count_cache_hits: bool = False,
        algorithm_options: dict[str, Any] | None = None,
        retry_policy: RetryPolicy | None = None,
        failure_policy: FailurePolicy | None = None,
        eval_timeout: float | None = None,
    ) -> None:
        self.space = space
        self.algorithm = get_algorithm(algorithm, **(algorithm_options or {}))
        self.budget = budget if budget is not None else EvaluationBudget(100)
        self.seed = seed
        effective_budget = self.budget
        if stopping is not None:
            stopper = StoppingBudget(stopping)
            effective_budget = CombinedBudget([self.budget, stopper])
            self._stopper: StoppingBudget | None = stopper
        else:
            self._stopper = None
        self.objective = Objective(
            objective_function,
            space,
            budget=effective_budget,
            cache=cache,
            record_cache_hits=record_cache_hits,
            count_cache_hits=count_cache_hits,
            retry_policy=retry_policy,
            failure_policy=failure_policy,
            eval_timeout=eval_timeout,
        )
        if self._stopper is not None:
            self._stopper.bind(self.objective.history)
        self._rng: np.random.Generator | None = None
        self._resume_elapsed = 0.0
        #: serialized history records, memoized across checkpoints —
        #: records are immutable and append-only, so each periodic
        #: checkpoint only serializes the evaluations since the last one
        #: instead of the whole history again
        self._serialized_history: list[dict[str, Any]] = []

    # ------------------------------------------------------------------ #
    # checkpointing
    # ------------------------------------------------------------------ #
    def checkpoint(self) -> dict[str, Any]:
        """A JSON-compatible snapshot of the run (call during/after run).

        Bundles everything :meth:`run` needs to continue the trajectory in
        a fresh process.  Format (``CHECKPOINT_VERSION`` = 1)::

            {"version": 1,
             "algorithm": <registry name>,        # checked on restore
             "seed": <int>,
             "elapsed": <wall-clock seconds spent so far>,
             "rng_state": <numpy bit-generator state>,
             "algorithm_state": <CalibrationAlgorithm.state_dict()>,
             "history": [<evaluation dict>, ...]} # serialization module format

        History serialization is memoized: records are immutable and
        append-only, so each periodic checkpoint only serializes the
        evaluations since the last one (persisting them incrementally too
        is the job spool's append-only sidecar, see
        :meth:`repro.service.spool.JobSpool.write_checkpoint`).

        Thread-safety: a calibrator instance is single-threaded — call
        ``checkpoint()`` only from ``on_checkpoint`` or after :meth:`run`
        returns, never concurrently with it from another thread.
        """
        if self._rng is None:
            raise RuntimeError("checkpoint() is only meaningful once run() has started")
        history = self.objective.history
        for index in range(len(self._serialized_history), len(history)):
            self._serialized_history.append(evaluation_to_dict(history[index]))
        return {
            "version": CHECKPOINT_VERSION,
            "algorithm": self.algorithm.name,
            "seed": self.seed,
            "elapsed": self.objective.elapsed,
            "rng_state": self._rng.bit_generator.state,
            "algorithm_state": self.algorithm.state_dict(),
            "history": list(self._serialized_history),
        }

    def _restore(self, checkpoint: dict[str, Any]) -> None:
        version = checkpoint.get("version")
        if version != CHECKPOINT_VERSION:
            raise ValueError(
                f"unsupported checkpoint version {version!r} "
                f"(this library reads version {CHECKPOINT_VERSION})"
            )
        if not self.algorithm.is_ask_tell:
            raise ValueError(
                f"algorithm {self.algorithm.name!r} does not implement the ask/tell "
                "protocol and cannot be resumed"
            )
        if checkpoint.get("algorithm") != self.algorithm.name:
            raise ValueError(
                f"checkpoint is for algorithm {checkpoint.get('algorithm')!r}, "
                f"not {self.algorithm.name!r}"
            )
        self.algorithm.setup(self.space)
        self.algorithm.load_state_dict(checkpoint["algorithm_state"])
        self._rng.bit_generator.state = checkpoint["rng_state"]
        history = CalibrationHistory()
        for entry in checkpoint.get("history", []):
            history.record(evaluation_from_dict(entry))
        self.objective.preload(history)
        # Continue the interrupted run's wall-clock: timestamps stay
        # monotone after the preloaded records and a time budget only gets
        # its remaining seconds, not a fresh allowance.
        self._resume_elapsed = float(checkpoint.get("elapsed", 0.0))

    # ------------------------------------------------------------------ #
    # running
    # ------------------------------------------------------------------ #
    def run(
        self,
        resume: dict[str, Any] | None = None,
        checkpoint_every: int = 0,
        on_checkpoint: Callable[[dict[str, Any]], None] | None = None,
    ) -> CalibrationResult:
        """Run the calibration until the budget is exhausted (or the
        algorithm decides it is done) and return the best point found.

        Parameters
        ----------
        resume:
            A :meth:`checkpoint` snapshot to continue from.  The restored
            run finishes the interrupted trajectory — same evaluations,
            same best point — without replaying the work already done.
        checkpoint_every:
            Emit a checkpoint to ``on_checkpoint`` every this many
            completed evaluations (0 disables).
        on_checkpoint:
            Callback receiving each snapshot (e.g. to persist it).
        """
        # All algorithms use the same seeded pseudo-random number generator,
        # as in the paper's experimental protocol.
        self._rng = rng = np.random.default_rng(self.seed)
        algorithm = self.algorithm
        self._resume_elapsed = 0.0
        if resume is not None:
            self._restore(resume)
        self.objective.start(self._resume_elapsed)
        tracer = current_tracer()
        with contextlib.suppress(BudgetExhausted):
            with tracer.span(
                "calibration", driver="serial", algorithm=algorithm.name, seed=self.seed
            ):
                if algorithm.is_ask_tell:
                    if resume is None:
                        algorithm.setup(self.space)
                    on_step = None
                    if checkpoint_every > 0 and on_checkpoint is not None:
                        steps = {"n": 0}

                        def on_step() -> None:
                            steps["n"] += 1
                            if steps["n"] % checkpoint_every == 0:
                                on_checkpoint(self.checkpoint())

                    algorithm.serial_drive(self.objective, rng, on_step=on_step)
                else:
                    # Legacy algorithm implementing run() directly: no resume,
                    # no checkpoints, but the blocking loop still works.
                    algorithm.run(self.objective, self.space, rng)
        best = self.objective.best
        if best is None:
            raise RuntimeError(
                "the budget was exhausted before a single evaluation completed; "
                "increase the budget"
            )
        return CalibrationResult(
            algorithm=algorithm.name,
            best_values=dict(best.values),
            best_value=best.value,
            evaluations=self.objective.evaluation_count,
            elapsed=self.objective.elapsed,
            history=self.objective.history,
            budget_description=self.budget.describe(),
            seed=self.seed,
            telemetry=_REGISTRY.snapshot() if _REGISTRY.enabled else None,
        )
