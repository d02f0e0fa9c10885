"""The benchmark's workloads: set-up, one measured round, output checks.

A round is one fixed (algorithm, calibration seed, budget) calibration,
so every round of a workload does the same work and yields the same
trajectory.  ``run.py`` repeats rounds for the run's duration.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections.abc import Callable
from pathlib import Path
from typing import Any

from repro.core import Calibrator, EvaluationBudget
from repro.core.result import CalibrationResult
import repro.simgrid.engine as engine_module
from repro.hepsim import GroundTruthGenerator, Scenario
from repro.hepsim.calibration import CaseStudyProblem
from repro.hepsim.scenario import REDUCED_ICD_VALUES
from repro.service import CalibrationRequest, SqliteStore
from repro.service.fleet import FleetClient, FleetFrontend, FleetServer, FleetWorker

import spans
import verify
from hostclock import HostClock

HERE = Path(__file__).resolve().parent
#: ground truth generated for the benchmark (never the package's data/)
CACHE_DIR = HERE / ".cache"
#: fleet stores and span dumps
WORK_DIR = HERE / ".work"


def prepare_ground_truth() -> None:
    """Load, or generate when missing, every workload's ground truth, so
    that no timed set-up generates any."""
    generator = GroundTruthGenerator(cache_dir=str(CACHE_DIR))
    for cls in WORKLOADS.values():
        for scenario in cls().ground_truth_scenarios():
            generator.get(scenario)


class TimedObjective:
    """The objective callable, timed per call and followed by a host probe.
    In a traced run each call is also a ``hepsim.objective`` span."""

    def __init__(self, objective: Callable[[dict[str, float]], float], clock: HostClock) -> None:
        self.objective = objective
        self.clock = clock
        self.recorder: spans.SpanRecorder | None = None
        #: (values, start, end, probe end) per call, in call order
        self.calls: list[tuple[dict[str, float], float, float, float]] = []
        self._lock = threading.Lock()

    def __call__(self, values: dict[str, float]) -> float:
        if self.recorder is None:
            start = time.perf_counter()
            value = self.objective(values)
            end = time.perf_counter()
        else:
            with self.recorder.span("hepsim.objective") as span:
                value = self.objective(values)
            start, end = span.start, span.end
        self.clock.probe()
        done = time.perf_counter()
        with self._lock:
            self.calls.append((dict(values), start, end, done))
        return value


@dataclasses.dataclass
class Call:
    """One objective call: its point, raw and host-normalised seconds, and
    the seconds of the host probe that followed it."""

    values: dict[str, float]
    seconds: float
    host_seconds: float
    probe_seconds: float


@dataclasses.dataclass
class Round:
    """What one measured round produced."""

    #: calibration wall time, first ask to final result (both jobs on
    #: fleet), raw and host-normalised
    seconds: float
    host_seconds: float
    calls: list[Call]
    #: the calibration results (cold then warm job on fleet)
    results: list[CalibrationResult]
    #: per fleet task: board post to resolve minus the worker's objective time
    dispatch_s: list[float] = dataclasses.field(default_factory=list)

    @property
    def evaluations(self) -> int:
        """Calibrated points, store hits included."""
        return sum(len(result.history) for result in self.results)


def trajectory(result: CalibrationResult) -> list[tuple[tuple[float, ...], float]]:
    return [(tuple(e.unit), e.value) for e in result.history]


class Workload:
    """One benchmark workload.  Subclasses fill in the hooks."""

    name = ""
    algorithm = "random"
    budget = 0
    calibration_seed = 0

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario
        self.clock = HostClock()
        self.problem: CaseStudyProblem | None = None
        self.objective: TimedObjective | None = None

    def ground_truth_scenarios(self) -> list[Scenario]:
        """Every scenario whose ground truth set-up or checks read."""
        return [self.scenario]

    def setup(self, run_seed: int) -> None:
        """Everything before the first evaluation (timed as ``setup_s``)."""
        generator = GroundTruthGenerator(cache_dir=str(CACHE_DIR))
        self.problem = CaseStudyProblem.create(self.scenario, generator=generator)
        self.objective = TimedObjective(self.problem.objective, self.clock)

    def probe_during_simulation(self, patches: spans.Patches) -> None:
        """Probe the host between solver calls when one is due, so a long
        objective call is normalised by probes taken during it."""
        clock = self.clock
        solve = engine_module.solve_max_min

        def probed(*args: Any, **kwargs: Any) -> Any:
            result = solve(*args, **kwargs)
            clock.probe_if_due()
            return result

        # The engine calls the solver through its module global.
        patches.replace(engine_module, "solve_max_min", probed)

    def instrument(self, recorder: spans.SpanRecorder, patches: spans.Patches) -> None:
        """Wrap instance-level entry points for a traced run."""
        assert self.objective is not None
        self.objective.recorder = recorder
        self.clock.span = recorder.span

    def run_round(self, index: int) -> Round:
        """One calibration, bracketed by host probes."""
        assert self.objective is not None
        self.clock.clear()
        self.objective.calls = []
        self.clock.probe()
        intervals, results, dispatch = self.calibrate(index)
        self.clock.probe()
        calls = [
            Call(values, end - start, self.clock.normalized(start, end), done - end)
            for values, start, end, done in self.objective.calls
        ]
        return Round(
            sum(end - start for start, end in intervals),
            sum(self.clock.normalized(start, end) for start, end in intervals),
            calls,
            results,
            dispatch,
        )

    def calibrate(
        self, index: int
    ) -> tuple[list[tuple[float, float]], list[CalibrationResult], list[float]]:
        """Run the round's calibration; returns the timed intervals, the
        results and the fleet dispatch times."""
        raise NotImplementedError

    def check(self, rounds: list[Round]) -> list[str]:
        """Failures found in the rounds' outputs (empty when correct)."""
        assert self.problem is not None
        failures = []
        first = rounds[0].results
        for number, later in enumerate(rounds[1:], start=2):
            if [trajectory(r) for r in later.results] != [trajectory(r) for r in first]:
                failures.append(f"round {number} did not repeat round 1's trajectory")
        for result in first:
            if len(result.history) != self.budget:
                failures.append(
                    f"{len(result.history)} points calibrated, budget {self.budget}"
                )
        failures += verify.check_best_point(self.problem, first[0])
        return failures

    def close(self) -> None:
        pass


class SerialWorkload(Workload):
    """A serial :class:`~repro.core.Calibrator` calibration."""

    def calibrate(self, index: int):
        assert self.problem is not None
        calibrator = Calibrator(
            self.problem.space,
            self.objective,
            algorithm=self.algorithm,
            budget=EvaluationBudget(self.budget),
            seed=self.calibration_seed,
        )
        start = time.perf_counter()
        result = calibrator.run()
        return [(start, time.perf_counter())], [result], []

    def check(self, rounds: list[Round]) -> list[str]:
        failures = super().check(rounds)
        for number, one in enumerate(rounds, start=1):
            if len(one.calls) != self.budget:
                failures.append(
                    f"round {number}: {len(one.calls)} simulator calls, budget {self.budget}"
                )
        return failures


class CalibGdfix(SerialWorkload):
    name = "calib-gdfix"
    algorithm = "gdfix"
    budget = 150
    calibration_seed = 1

    def __init__(self) -> None:
        super().__init__(Scenario.calib("FCSN", icd_values=REDUCED_ICD_VALUES))

    def ground_truth_scenarios(self) -> list[Scenario]:
        # HUMAN's procedure reads the FCFN, FCSN and SCFN ground truth.
        return [self.scenario.with_platform(p) for p in ("FCSN", "FCFN", "SCFN")]

    def check(self, rounds: list[Round]) -> list[str]:
        assert self.problem is not None
        failures = super().check(rounds)
        human = self.problem.evaluate(self.problem.human_values())
        best = rounds[0].results[0].best_value
        if not best < human:
            failures.append(f"best MRE {best:.3f}% does not beat HUMAN's {human:.3f}%")
        return failures


class PaperScsn(SerialWorkload):
    name = "paper-scsn"
    algorithm = "random"
    budget = 4
    calibration_seed = 1

    def __init__(self) -> None:
        super().__init__(Scenario.paper("SCSN"))


class FleetTiny(Workload):
    """The default deployment in one process: fleet server, HTTP front-end
    and one worker thread over a fresh SQLite store.  A round submits one
    cold job, which computes every point, then the identical job again,
    which the warm store answers."""

    name = "fleet-tiny"
    algorithm = "random"
    budget = 50
    calibration_seed = 1
    #: seconds the worker's task fetch long-polls the front-end
    worker_poll = 10.0
    #: seconds to wait for one job before failing the run
    job_timeout = 60.0

    def __init__(self) -> None:
        super().__init__(Scenario.tiny("FCSN", icd_values=(0.0, 1.0)))
        self.run_seed = 0
        self.db_path: Path | None = None
        self.store: SqliteStore | None = None
        self.server: FleetServer | None = None
        self.frontend: FleetFrontend | None = None
        self.worker: FleetWorker | None = None
        self._posts: list[tuple[float, float, dict[str, float]]] | None = None
        self._jobs: list[tuple[str, Any, Any]] = []

    def setup(self, run_seed: int) -> None:
        super().setup(run_seed)
        self.run_seed = run_seed
        WORK_DIR.mkdir(parents=True, exist_ok=True)
        self.db_path = WORK_DIR / f"fleet-{run_seed}.db"
        for stale in WORK_DIR.glob(f"{self.db_path.name}*"):
            stale.unlink()
        self.store = SqliteStore(self.db_path)
        self.server = FleetServer(store=self.store, workers=1, max_pending=1)
        self.frontend = FleetFrontend(self.server, port=0).start()
        client = FleetClient(self.frontend.url)
        objective = self.objective
        self.worker = FleetWorker(
            client, self.store, resolver=lambda spec: objective, poll=self.worker_poll
        )

    def instrument(self, recorder: spans.SpanRecorder, patches: spans.Patches) -> None:
        assert self.server is not None and self.worker is not None
        super().instrument(recorder, patches)
        spans.instrument_store(recorder, self.store, patches)
        spans.instrument_client(recorder, self.worker.client, patches)
        self._posts = []
        spans.instrument_board(self.server.board, patches, self._posts)

    def fingerprint(self, index: int) -> str:
        # Each round calibrates a scenario of its own, so its cold job
        # finds the store empty for it.
        return f"perfbench-fleet-tiny-s{self.run_seed}-r{index}"

    def _submit(self, fingerprint: str) -> tuple[tuple[float, float], CalibrationResult]:
        assert self.problem is not None and self.server is not None
        request = CalibrationRequest(
            space=self.problem.space,
            objective=self.problem.objective,
            fingerprint=fingerprint,
            algorithm=self.algorithm,
            budget=EvaluationBudget(self.budget),
            seed=self.calibration_seed,
        )
        start = time.perf_counter()
        job = self.server.submit(request)
        if not job.wait(self.job_timeout):
            raise RuntimeError(f"fleet job {job.id} still running after {self.job_timeout:g}s")
        end = time.perf_counter()
        if job.result is None:
            raise RuntimeError(f"fleet job {job.id} failed: {job.error}")
        return (start, end), job.result

    def calibrate(self, index: int):
        assert self.worker is not None and self.objective is not None and self.store is not None
        fingerprint = self.fingerprint(index)
        if self._posts is not None:
            self._posts.clear()
        worker = threading.Thread(
            target=self.worker.run,
            kwargs={"max_tasks": self.budget, "max_idle": 1.0},
            name="fleet-worker",
        )
        worker.start()
        cold_interval, cold = self._submit(fingerprint)
        worker.join(self.worker_poll + self.job_timeout)
        if worker.is_alive():
            raise RuntimeError("the fleet worker did not stop after the cold job")
        self.clock.probe()
        cold_calls = len(self.objective.calls)
        warm_interval, warm = self._submit(fingerprint)
        self._jobs.append(
            (
                fingerprint,
                len(self.objective.calls) - cold_calls,
                len(self.store.entries(fingerprint)),
            )
        )
        # The worker runs the objective and a host probe before it stores
        # and publishes; neither is dispatch.
        busy = {
            verify.point_key(values): done - start
            for values, start, _, done in self.objective.calls
        }
        dispatch = [
            resolved - posted - busy[verify.point_key(values)]
            for posted, resolved, values in (self._posts or [])
        ]
        return [cold_interval, warm_interval], [cold, warm], dispatch

    def check(self, rounds: list[Round]) -> list[str]:
        assert self.problem is not None
        failures = super().check(rounds)
        serial = Calibrator(
            self.problem.space,
            self.problem.objective,
            algorithm=self.algorithm,
            budget=EvaluationBudget(self.budget),
            seed=self.calibration_seed,
        ).run()
        for number, (one, (fingerprint, warm_calls, entries)) in enumerate(
            zip(rounds, self._jobs, strict=True), start=1
        ):
            cold, warm = one.results
            points = {verify.point_key(call.values) for call in one.calls}
            if len(one.calls) != self.budget or len(points) != self.budget:
                failures.append(
                    f"round {number}: cold job made {len(one.calls)} simulator calls "
                    f"over {len(points)} distinct points, budget {self.budget}"
                )
            if trajectory(cold) != trajectory(serial):
                failures.append(f"round {number}: cold trajectory differs from the serial run")
            if warm_calls:
                failures.append(f"round {number}: warm job made {warm_calls} simulator calls")
            if trajectory(warm) != trajectory(cold):
                failures.append(f"round {number}: warm history differs from the cold one")
            if entries != self.budget:
                failures.append(
                    f"round {number}: store holds {entries} entries for {fingerprint}, "
                    f"expected {self.budget}"
                )
        return failures

    def close(self) -> None:
        if self.frontend is not None:
            self.frontend.close()
        if self.server is not None:
            self.server.shutdown(wait=True)
        if self.store is not None:
            self.store.close()
        if self.db_path is not None:
            for path in WORK_DIR.glob(f"{self.db_path.name}*"):
                path.unlink()


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (CalibGdfix, PaperScsn, FleetTiny)
}
