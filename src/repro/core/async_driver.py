"""Asynchronous, out-of-order calibration driving.

A lock-step driver, in which every ``k``-wide batch waits for its
slowest evaluation before the next batch is dispatched, leaves most
workers idle under heavy-tailed simulator latencies — the paper's own
speed/accuracy measurements show minutes-scale, highly variable
invocation times.  :class:`AsyncCalibrator` is the package's one parallel
driver, and has no such barrier (batch dispatch is the special case of
asynchronous dispatch with a barrier):

* it **asks speculatively** whenever a worker frees up, keeping up to
  ``max_pending`` candidates in flight at all times;
* it **tells out of order**, feeding each result back the moment its
  future completes instead of waiting for batch-mates;
* cache consultation uses the **non-blocking claim/lease protocol** of
  :class:`~repro.core.evaluation.CacheBackend`, so a point being computed
  by a concurrent driver is simply *deferred* (polled between
  completions) while the pool keeps churning through fresh work.

Algorithms participate at one of two levels:

* **async-native** (``supports_async_tell = True``: random, Sobol, Latin
  hypercube, TPE) consume out-of-order results directly — no barrier
  exists anywhere, the pool never drains;
* **ordered** algorithms (populations, line searches) are wrapped in
  :class:`OrderedTellAdapter`, which buffers completions and releases
  them to ``tell`` in ask order.  Within a generation the pool stays
  saturated; the only barrier left is the algorithm's own generation
  boundary.  Because the adapter restores exact ask order, a seeded
  asynchronous run visits byte-for-byte the serial driver's trajectory,
  whatever order the futures complete in.

All algorithm interaction (ask/tell) happens on the driver thread — the
pool only ever runs the objective function — so algorithms need no
locking.  Process-based execution requires a picklable objective (see
:mod:`repro.core.parallel`).
"""

from __future__ import annotations

import dataclasses
import time
from collections.abc import Callable
from concurrent.futures import FIRST_COMPLETED, Future, wait
from typing import Any

import numpy as np

from repro.core.algorithms import CalibrationAlgorithm, get_algorithm
from repro.core.budget import Budget, EvaluationBudget, remaining_evaluations
from repro.core.calibrator import CHECKPOINT_VERSION
from repro.core.evaluation import (
    CacheBackend,
    CacheKey,
    Claim,
    DictCache,
    Objective,
    lease_deadline,
    unit_cache_key,
)
from repro.core.faults import (
    EVAL_METRIC_HELP,
    CircuitBreaker,
    EvaluationFailed,
    EvaluationFailure,
    FailurePolicy,
    RetryPolicy,
)
from repro.core.history import Evaluation
from repro.core.parallel import ObjectiveFunction, Outcome, ParallelEvaluator
from repro.core.parameters import ParameterSpace
from repro.core.result import CalibrationResult
from repro.core.serialization import evaluation_from_dict, evaluation_to_dict
from repro.telemetry.metrics import registry as _metrics_registry
from repro.telemetry.tracing import Span, current_tracer

_REGISTRY = _metrics_registry()

__all__ = ["AsyncCalibrator", "OrderedTellAdapter"]


class OrderedTellAdapter:
    """Buffers out-of-order completions into ask order for any algorithm.

    The default adapter of :class:`AsyncCalibrator`: candidates are
    numbered as they are asked, completed results are parked until every
    earlier candidate has completed too, and the contiguous prefix is
    released to :meth:`~repro.core.algorithms.CalibrationAlgorithm.tell`
    in exact ask order.  The wrapped algorithm therefore observes the same
    (candidate, value) stream a serial driver would have produced — this
    is what makes asynchronous runs of population algorithms reproduce
    serial trajectories byte for byte.
    """

    def __init__(self, algorithm: CalibrationAlgorithm) -> None:
        self.algorithm = algorithm
        self._next_release = 0
        self._parked: dict[int, tuple[np.ndarray, float]] = {}

    @property
    def buffered(self) -> int:
        """Completed results parked behind a still-running predecessor."""
        return len(self._parked)

    def complete(
        self, seq: int, candidate: np.ndarray, value: float
    ) -> list[tuple[int, np.ndarray, float]]:
        """Record completion ``seq`` and release the ready prefix, telling
        the wrapped algorithm one (candidate, value) at a time in ask
        order.  Returns the released ``(seq, candidate, value)`` triples
        (possibly empty)."""
        self._parked[seq] = (candidate, value)
        released: list[tuple[int, np.ndarray, float]] = []
        while self._next_release in self._parked:
            cand, val = self._parked.pop(self._next_release)
            self.algorithm.tell([cand], [val])
            released.append((self._next_release, cand, val))
            self._next_release += 1
        return released


@dataclasses.dataclass
class _InFlight:
    """One candidate between ask and tell."""

    seq: int
    candidate: np.ndarray  # as asked (told back verbatim)
    unit: np.ndarray       # clipped unit point actually evaluated
    mapping: dict[str, float]
    key: CacheKey
    started_at: float
    future: Future[Outcome] | None = None  # None: deferred (leased elsewhere)
    lease_expires_at: float | None = None
    riders: list[tuple[int, np.ndarray]] = dataclasses.field(default_factory=list)
    span: Span | None = None  # open "evaluation" span (tracing enabled only)
    #: wall-clock at dispatch, for the driver-side hard deadline (None
    #: while deferred behind another driver's lease)
    dispatched_wall: float | None = None


class AsyncCalibrator:
    """Budget-bounded asynchronous calibration of *any* ask/tell algorithm.

    Keeps a :class:`~repro.core.parallel.ParallelEvaluator` pool saturated
    by asking speculatively whenever capacity frees up and telling results
    out of order as futures complete (see the module docstring for the
    native/adapted split).

    Parameters
    ----------
    space, objective_function:
        As for :class:`~repro.core.calibrator.Calibrator`; process-based
        execution needs a picklable objective.
    algorithm, algorithm_options:
        Registry name (with constructor options) or a configured instance;
        must implement the native ask/tell hooks.
    workers, mode:
        Concurrency settings, see :class:`~repro.core.parallel.ParallelEvaluator`.
    max_pending:
        Upper bound on in-flight candidates (dispatched futures plus
        deferred leases); defaults to ``workers``.  Raising it above
        ``workers`` queues extra work inside the executor so a completing
        worker never waits for the driver thread; lowering it to 1
        degenerates to the serial driver.
    budget:
        Evaluation- or time-based budget (or a combination).  Evaluation
        budgets are charged at *dispatch* time, so the run performs
        exactly its cap even though results arrive out of order.
    seed:
        Seed for the algorithm's random number generator.
    cache:
        ``True`` (memoise in a fresh in-memory
        :class:`~repro.core.evaluation.DictCache`), ``False`` (always
        dispatch), or a shared :class:`~repro.core.evaluation.CacheBackend`
        such as the service's store-backed cache.  Candidates answered by
        the cache are not dispatched and, by default, do not consume
        budget — the paper's "cache hits are free" semantics.  Lookups go
        through the non-blocking claim/lease protocol: a candidate another
        driver is currently computing is deferred — polled between
        completions, taken over if the lease expires — instead of blocking
        the pool or being recomputed.  Deferred candidates are charged one
        budget unit like a dispatch (some driver is paying for the work
        now).
    record_cache_hits, count_cache_hits:
        Same semantics as on :class:`~repro.core.evaluation.Objective`:
        when recording, hits enter the history as zero-duration
        ``cached=True`` records; when counting, *first-seen* hits — points
        served from pre-existing shared-store work — charge the budget
        while in-run revisits stay free.  Supply ``count_cache_hits=True``
        whenever an evaluation-budget run uses a warm shared cache,
        otherwise a fully-warm run would never exhaust its budget.
    ordered_tells:
        Force the :class:`OrderedTellAdapter` (``True``), force native
        out-of-order tells (``False`` — rejected if the algorithm cannot),
        or pick automatically from ``supports_async_tell`` (``None``, the
        default).
    evaluator:
        Inject the evaluation transport instead of constructing a local
        :class:`~repro.core.parallel.ParallelEvaluator` pool (in which
        case ``workers``/``mode`` are ignored).  Anything implementing
        the same surface works — ``submit(mapping) -> Future[(value,
        duration)]``, ``history``, ``elapsed``, ``reset_clock()``,
        ``close()`` — notably the distributed fleet's task-board
        evaluator (:class:`repro.service.fleet.FleetEvaluator`), which
        hands candidates to pull-based worker processes instead of a
        local pool.
    retry_policy, failure_policy, eval_timeout:
        The fault-tolerance knobs, with the same semantics as on
        :class:`~repro.core.evaluation.Objective`: retries and
        per-attempt timeouts run inside the pool workers; a failure
        outcome becomes a penalty tell or a raise per ``failure_policy``,
        and is quarantined through the cache backend so this run, resumed
        runs and concurrent drivers skip the point.  All ``None`` (the
        default) leaves every code path that of a fault-unaware run.
    """

    #: deferred-lease poll cadence while futures are also pending / not
    _POLL_WITH_FUTURES = 0.02
    _POLL_DEFERRED_ONLY = 0.005

    def __init__(
        self,
        space: ParameterSpace,
        objective_function: ObjectiveFunction,
        algorithm: str | CalibrationAlgorithm = "random",
        workers: int = 4,
        mode: str = "process",
        max_pending: int | None = None,
        budget: Budget | None = None,
        seed: int = 0,
        cache: bool | CacheBackend = True,
        algorithm_options: dict[str, object] | None = None,
        record_cache_hits: bool = False,
        count_cache_hits: bool = False,
        ordered_tells: bool | None = None,
        evaluator: ParallelEvaluator | None = None,
        retry_policy: RetryPolicy | None = None,
        failure_policy: FailurePolicy | None = None,
        eval_timeout: float | None = None,
    ) -> None:
        self.space = space
        self.algorithm = get_algorithm(algorithm, **(algorithm_options or {}))
        if not self.algorithm.is_ask_tell:
            raise ValueError(
                f"algorithm {self.algorithm.name!r} does not implement the ask/tell "
                "protocol (legacy run()-only algorithms cannot be driven asynchronously)"
            )
        if ordered_tells is None:
            self.ordered_tells = not self.algorithm.supports_async_tell
        else:
            self.ordered_tells = bool(ordered_tells)
            if not self.ordered_tells and not self.algorithm.supports_async_tell:
                raise ValueError(
                    f"algorithm {self.algorithm.name!r} does not support out-of-order "
                    "tells; leave ordered_tells unset (or True) to use the buffering adapter"
                )
        if evaluator is not None:
            self.evaluator = evaluator
        else:
            self.evaluator = ParallelEvaluator(
                objective_function, workers=workers, mode=mode,
                eval_timeout=eval_timeout, retry_policy=retry_policy,
                guard_failures=failure_policy is not None,
            )
        self.retry_policy = retry_policy
        self.failure_policy = failure_policy
        self.eval_timeout = eval_timeout
        self.failures = 0
        self._breaker: CircuitBreaker | None = None
        self.max_pending = int(workers) if max_pending is None else int(max_pending)
        if self.max_pending < 1:
            raise ValueError("max_pending must be at least 1")
        # Driver-side hard deadline: long enough for every in-worker
        # attempt (plus backoff) and for queueing behind pool-mates, so it
        # only fires for hangs the in-worker SIGALRM could not interrupt.
        # Killing a wedged worker needs a killable pool, hence process
        # mode on the local evaluator only.
        self._hard_timeout: float | None = None
        if eval_timeout is not None and getattr(self.evaluator, "mode", "") == "process":
            attempts = retry_policy.max_attempts if retry_policy is not None else 1
            backoff = retry_policy.max_total_backoff() if retry_policy is not None else 0.0
            per_point = eval_timeout * attempts + backoff
            rounds = -(-self.max_pending // max(int(workers), 1))
            self._hard_timeout = per_point * rounds + max(5.0, per_point)
        self.budget = budget if budget is not None else EvaluationBudget(100)
        self.seed = seed
        if isinstance(cache, CacheBackend):
            self._cache: CacheBackend | None = cache
        elif cache:
            self._cache = DictCache()
        else:
            self._cache = None
        self.record_cache_hits = bool(record_cache_hits)
        self.count_cache_hits = bool(count_cache_hits)
        self.cache_hits = 0
        self.deferred_hits = 0  # points resolved from a concurrent driver's lease
        self._rng: np.random.Generator | None = None
        self._resume_elapsed = 0.0
        #: serialized history records, memoized across checkpoints exactly
        #: like the serial calibrator's (records are append-only)
        self._serialized_history: list[dict[str, Any]] = []

    # ------------------------------------------------------------------ #
    # checkpointing
    # ------------------------------------------------------------------ #
    def checkpoint(self) -> dict[str, Any]:
        """A JSON-compatible snapshot of the run, in the exact format of
        :meth:`repro.core.calibrator.Calibrator.checkpoint` (same
        ``CHECKPOINT_VERSION``, same keys), so the job spool persists both
        interchangeably and an async snapshot can even be finished by the
        serial driver.

        The in-flight ledger is snapshotted through the algorithm's own
        ``state_dict()``: candidates asked but not yet told — dispatched
        futures, deferred leases, riders and completions parked in the
        ordered adapter — are exactly the algorithm's asked-but-untold
        ledger, which ``load_state_dict`` re-dispatches on resume.  A
        resumed run therefore redoes precisely the work the interruption
        lost (against a shared store those re-dispatches usually resolve
        as cache hits) and nothing else; the history holds only released
        (told) evaluations, so trajectory and budget accounting line up.

        Only call between events on the driver thread (``on_checkpoint``)
        or after :meth:`run` returns — the driver takes its own snapshots
        at consistent points only.

        With ``count_cache_hits`` on, pair it with ``record_cache_hits``
        (the service does): counted first-seen hits must be visible in the
        snapshot's history or the resumed budget loses their charges.
        """
        if self._rng is None:
            raise RuntimeError("checkpoint() is only meaningful once run() has started")
        history = self.evaluator.history
        for index in range(len(self._serialized_history), len(history)):
            self._serialized_history.append(evaluation_to_dict(history[index]))
        return {
            "version": CHECKPOINT_VERSION,
            "algorithm": self.algorithm.name,
            "seed": self.seed,
            "elapsed": self.evaluator.elapsed,
            "rng_state": self._rng.bit_generator.state,
            "algorithm_state": self.algorithm.state_dict(),
            "history": list(self._serialized_history),
        }

    def _restore(self, checkpoint: dict[str, Any], rng: np.random.Generator) -> None:
        """Rebuild driver state from a snapshot (the async counterpart of
        :meth:`Calibrator._restore` plus :meth:`Objective.preload`)."""
        version = checkpoint.get("version")
        if version != CHECKPOINT_VERSION:
            raise ValueError(
                f"unsupported checkpoint version {version!r} "
                f"(this library reads version {CHECKPOINT_VERSION})"
            )
        if checkpoint.get("algorithm") != self.algorithm.name:
            raise ValueError(
                f"checkpoint is for algorithm {checkpoint.get('algorithm')!r}, "
                f"not {self.algorithm.name!r}"
            )
        self.algorithm.setup(self.space)
        self.algorithm.load_state_dict(checkpoint["algorithm_state"])
        rng.bit_generator.state = checkpoint["rng_state"]
        history = self.evaluator.history
        for entry in checkpoint.get("history", []):
            evaluation = evaluation_from_dict(entry)
            unit = np.asarray(evaluation.unit, dtype=float)
            key = unit_cache_key(unit, Objective.CACHE_DECIMALS)
            if evaluation.cached:
                self.cache_hits += 1
                if self.count_cache_hits and key not in self._seen:
                    self._budget_units += 1
            else:
                self._budget_units += 1
                # A failed record's value is the penalty, not a simulator
                # output: it must not re-enter the cache as a real value
                # (the store-side quarantine already remembers the point).
                if self._cache is not None and not evaluation.failed:
                    self._cache.put(key, dict(evaluation.values), evaluation.value)
            self._seen.add(key)
            history.record(evaluation)
            self._serialized_history.append(dict(entry))
        # Continue the interrupted run's wall-clock so timestamps stay
        # monotone and a time budget only gets its remaining seconds.
        self._resume_elapsed = float(checkpoint.get("elapsed", 0.0))

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def run(
        self,
        resume: dict[str, Any] | None = None,
        checkpoint_every: int = 0,
        on_checkpoint: Callable[[dict[str, Any]], None] | None = None,
    ) -> CalibrationResult:
        """Ask speculatively, evaluate concurrently, tell out of order.

        The run ends when the budget is exhausted or the algorithm says it
        is done; in-flight work is always drained (and told), never
        discarded, so evaluation budgets are met exactly.

        Parameters
        ----------
        resume:
            A :meth:`checkpoint` snapshot to continue from; the restored
            run finishes the interrupted trajectory (re-dispatching the
            work that was in flight when the snapshot was taken) instead
            of replaying it.
        checkpoint_every:
            Emit a snapshot to ``on_checkpoint`` roughly every this many
            recorded evaluations (0 disables).  Snapshots are taken only
            at consistent points — between completions on the driver
            thread, never while the ordered adapter is mid-release.
        on_checkpoint:
            Callback receiving each snapshot (e.g. to persist it).
        """
        self._rng = rng = np.random.default_rng(self.seed)
        self.cache_hits = 0
        self.deferred_hits = 0
        self.failures = 0
        self._breaker = (
            self.failure_policy.breaker() if self.failure_policy is not None else None
        )
        self._seq = 0
        self._budget_units = 0
        self._resume_elapsed = 0.0
        self._serialized_history = []
        self._seen: set[CacheKey] = set()
        self._pending: list[_InFlight] = []
        self._inflight_keys: dict[CacheKey, _InFlight] = {}
        if resume is None:
            self.algorithm.setup(self.space)
        else:
            self._restore(resume, rng)
        self._adapter = OrderedTellAdapter(self.algorithm) if self.ordered_tells else None
        self._checkpoint_every = int(checkpoint_every)
        self._on_checkpoint = on_checkpoint
        self._last_checkpoint_len = len(self.evaluator.history)
        self.budget.start(self._resume_elapsed)
        self.evaluator.reset_clock(self._resume_elapsed)
        #: per-seq record metadata (mapping, started_at, finished_at,
        #: cached, failed), parked alongside the adapter's buffer until
        #: the seq is released
        self._meta: dict[int, tuple[dict[str, float], float, float, bool, bool]] = {}
        self._tracer = current_tracer()
        # Instruments are looked up once per run, only when telemetry is
        # on: the disabled hot path costs one attribute check per use.
        self._reg = _REGISTRY if _REGISTRY.enabled else None
        if self._reg is not None:
            self._m_inflight = self._reg.gauge(
                "repro_async_in_flight",
                "Candidates currently dispatched or deferred.")
            self._m_dispatched = self._reg.counter(
                "repro_driver_dispatches_total",
                "Candidates dispatched to the worker pool.", driver="async")
            self._m_hits = self._reg.counter(
                "repro_driver_cache_hits_total",
                "Candidates answered from the cache instead of dispatched.",
                driver="async")
            self._m_deferred = self._reg.counter(
                "repro_async_deferred_total",
                "Candidates deferred behind a concurrent driver's lease.")
            self._m_riders = self._reg.counter(
                "repro_async_riders_total",
                "In-run revisits served by riding on an in-flight point.")

        self._root = self._tracer.begin(
            "calibration", driver="async", algorithm=self.algorithm.name, seed=self.seed
        )
        try:
            self._drive(rng)
        finally:
            self._tracer.end(self._root)
            if self._reg is not None:
                self._m_inflight.set(0)
            self.evaluator.close()

        history = self.evaluator.history
        best = history.best
        if best is None:
            raise RuntimeError("the budget was exhausted before a single evaluation completed")
        return CalibrationResult(
            algorithm=self.algorithm.name,
            best_values=dict(best.values),
            best_value=best.value,
            evaluations=sum(1 for e in history if not e.cached),
            elapsed=self.evaluator.elapsed,
            history=history,
            budget_description=self.budget.describe(),
            seed=self.seed,
            telemetry=_REGISTRY.snapshot() if _REGISTRY.enabled else None,
        )

    # ------------------------------------------------------------------ #
    # the event loop
    # ------------------------------------------------------------------ #
    def _drive(self, rng: np.random.Generator) -> None:
        while True:
            asked = self._refill(rng)
            self._maybe_checkpoint()
            if not self._pending:
                if asked:
                    continue  # everything asked was answered by the cache
                break  # nothing in flight and nothing left to ask: done
            self._await_completions()
            self._maybe_checkpoint()
        # Budget exhausted (or algorithm done) with work still in flight:
        # drain it — the dispatches were charged, their results belong to
        # the history and the algorithm.
        while self._pending:
            self._await_completions()
            self._maybe_checkpoint()

    def _maybe_checkpoint(self) -> None:
        """Emit a periodic snapshot between completions.

        Called only at consistent points of the event loop: every release
        burst of the ordered adapter has fully landed in the history, so
        the algorithm's told-ledger and the snapshot's history agree —
        checkpointing *inside* a release burst would snapshot an algorithm
        that has been told results the history does not carry yet, and the
        resumed run would lose them.
        """
        if self._checkpoint_every <= 0 or self._on_checkpoint is None:
            return
        recorded = len(self.evaluator.history)
        if recorded - self._last_checkpoint_len >= self._checkpoint_every:
            self._last_checkpoint_len = recorded
            self._on_checkpoint(self.checkpoint())

    def _refill(self, rng: np.random.Generator) -> int:
        """Ask and launch candidates until capacity or budget runs out.

        Returns the number of candidates asked (cache hits resolve
        instantly and never enter ``pending``, so progress is reported
        even when nothing was dispatched).
        """
        asked = 0
        while (
            len(self._pending) < self.max_pending
            and not self.algorithm.done()
            and not self.budget.exhausted(self._budget_units)
        ):
            remaining = remaining_evaluations(self.budget, self._budget_units)
            if remaining is not None and remaining <= 0:
                break
            candidates = self.algorithm.ask(rng, 1)
            if not candidates:
                break  # ordered algorithm awaiting tells (or done)
            candidate = candidates[0]
            asked += 1
            self._launch(candidate)
        return asked

    def _launch(self, candidate: np.ndarray) -> None:
        seq, self._seq = self._seq, self._seq + 1
        unit = self.space.clip_unit(candidate)
        mapping = self.space.from_unit_array(unit)
        # Round-tripped key, exactly like Objective._cache_key, so that
        # non-injective parameters (integers) collapse onto one entry.
        key = unit_cache_key(self.space.to_unit_array(mapping), Objective.CACHE_DECIMALS)

        # An identical point already in flight *within this run*: ride on
        # it instead of claiming or dispatching again (the in-run revisit
        # is free, as the serial cache would have made it).
        if self._cache is not None and key in self._inflight_keys:
            self._inflight_keys[key].riders.append((seq, candidate))
            if self._reg is not None:
                self._m_riders.inc()
            return

        if self._cache is not None:
            claim = self._cache.claim(key, mapping)
        else:
            claim = Claim(Claim.CLAIMED)

        if claim.status == Claim.HIT:
            first_seen = key not in self._seen
            if self.count_cache_hits and first_seen:
                self._budget_units += 1
            self._seen.add(key)
            self.cache_hits += 1
            if self._reg is not None:
                self._m_hits.inc()
            span = self._tracer.begin("evaluation", parent=self._root, driver="async", seq=seq)
            at = self.evaluator.elapsed
            self._resolve(seq, candidate, mapping, claim.value, at, at, cached=True)
            self._tracer.end(span, cached=True, value=claim.value)
            return

        if (
            claim.status == Claim.QUARANTINED
            and claim.failure is not None
            and self.failure_policy is not None
        ):
            # Known poison point: resolve from the recorded failure, one
            # budget charge, no dispatch and no lease wait.  (Without a
            # failure policy the claim falls through to a dispatch — the
            # run re-attempts the point, pre-quarantine behavior.)
            self._skip_quarantined(seq, candidate, mapping, key, claim.failure)
            return

        entry = _InFlight(
            seq=seq, candidate=candidate, unit=unit, mapping=mapping, key=key,
            started_at=self.evaluator.elapsed,
            span=self._tracer.begin(
                "evaluation", parent=self._root, driver="async", seq=seq
            ),
        )
        self._budget_units += 1  # dispatch (or deferred lease) charge
        if claim.status == Claim.LEASED:
            entry.lease_expires_at = lease_deadline(claim.expires_at)
            if self._reg is not None:
                self._m_deferred.inc()
        else:
            entry.future = self.evaluator.submit(mapping)
            entry.dispatched_wall = time.time()
            if self._reg is not None:
                self._m_dispatched.inc()
        self._pending.append(entry)
        if self._reg is not None:
            self._m_inflight.set(len(self._pending))
        if self._cache is not None:
            self._inflight_keys[key] = entry

    def _await_completions(self) -> None:
        """Block until at least one pending entry can be resolved."""
        futures = {e.future: e for e in self._pending if e.future is not None}
        deferred = [e for e in self._pending if e.future is None]
        if futures:
            timeout = self._POLL_WITH_FUTURES if deferred else None
            if self._hard_timeout is not None:
                # Bound the wait by the earliest hard deadline so a wedged
                # worker is noticed even with nothing else to poll.
                deadline = min(
                    e.dispatched_wall + self._hard_timeout
                    for e in futures.values()
                    if e.dispatched_wall is not None
                )
                slack = max(deadline - time.time(), 0.01)
                timeout = slack if timeout is None else min(timeout, slack)
            done, _ = wait(futures, timeout=timeout, return_when=FIRST_COMPLETED)
            for future in done:
                self._complete(futures[future])
            if not done:
                self._reap_stalled()
        elif deferred:
            time.sleep(self._POLL_DEFERRED_ONLY)
        if deferred:
            self._poll_deferred(deferred)

    def _reap_stalled(self) -> None:
        """Driver-side hard-deadline backstop: kill and replace the pool
        when a dispatched evaluation has been running past any possible
        in-worker timeout schedule (a hang the ``SIGALRM`` guard could
        not interrupt), deliver timeout failures for the stalled entries
        and resubmit the innocent in-flight ones on the fresh pool."""
        if self._hard_timeout is None:
            return
        now = time.time()
        stalled = [
            e for e in self._pending
            if e.future is not None and e.dispatched_wall is not None
            and now - e.dispatched_wall >= self._hard_timeout
        ]
        if not stalled:
            return
        replace = getattr(self.evaluator, "replace_pool", None)
        if replace is None:
            return  # transport owns its workers (fleet); its lease TTL recovers
        innocent = [
            e for e in self._pending if e.future is not None and e not in stalled
        ]
        replace()
        for entry in innocent:
            # Their futures died with the killed pool through no fault of
            # their own evaluation: dispatch them again, deadline reset.
            entry.future = self.evaluator.submit(entry.mapping)
            entry.dispatched_wall = time.time()
        for entry in stalled:
            elapsed = now - (entry.dispatched_wall or now)
            self._deliver_failure(
                entry,
                EvaluationFailure(
                    error=(
                        "EvaluationTimeout: evaluation exceeded the "
                        f"{self._hard_timeout:g}s hard deadline; "
                        "its pool worker was killed and replaced"
                    ),
                    kind="timeout",
                    attempts=1,
                    elapsed=elapsed,
                ),
            )

    def _complete(self, entry: _InFlight) -> None:
        try:
            value, duration = entry.future.result()
        except EvaluationFailed as error:
            # The evaluation exhausted its in-worker attempts; the pool
            # itself is healthy.  Quarantine and apply the failure policy.
            self._deliver_failure(entry, error.failure, duration=error.failure.elapsed)
            return
        except BaseException:
            # The objective raised in a worker: release every leadership
            # this run announced (concurrent drivers must not wait on
            # points that will never be published), then propagate.
            self._abandon_claims()
            raise
        finished_at = self.evaluator.elapsed
        # The worker timed its own call; anchor that interval to the
        # driver's clock at completion so the record carries the true
        # per-point evaluation wall-clock (dispatch-to-completion would
        # fold in executor queueing, overstating slow-pool points).
        started_at = max(finished_at - duration, entry.started_at)
        if self._cache is not None:
            self._cache.put(entry.key, entry.mapping, value)
        if self._breaker is not None:
            self._breaker.record(None)
        self._seen.add(entry.key)
        self._remove(entry)
        self._resolve(
            entry.seq, entry.candidate, entry.mapping, value,
            started_at, finished_at, cached=False,
        )
        self._tracer.end(entry.span, cached=False, value=value, duration_in_worker=duration)
        self._resolve_riders(entry, value)

    # ------------------------------------------------------------------ #
    # failure outcomes
    # ------------------------------------------------------------------ #
    def _account_failure(
        self,
        key: CacheKey,
        mapping: dict[str, float],
        failure: EvaluationFailure,
        quarantined: bool,
    ) -> None:
        """Shared failure bookkeeping: metrics, quarantine persistence
        (for fresh failures), circuit-breaker accounting."""
        self.failures += 1
        if self._reg is not None:
            if quarantined:
                self._reg.counter(
                    "repro_eval_quarantined_total",
                    EVAL_METRIC_HELP["repro_eval_quarantined_total"],
                ).inc()
            else:
                self._reg.counter(
                    "repro_eval_failures_total",
                    EVAL_METRIC_HELP["repro_eval_failures_total"],
                ).inc()
                if failure.kind == "timeout":
                    self._reg.counter(
                        "repro_eval_timeouts_total",
                        EVAL_METRIC_HELP["repro_eval_timeouts_total"],
                    ).inc()
        if not quarantined and self._cache is not None:
            if self.failure_policy is not None and self.failure_policy.quarantine:
                self._cache.mark_failed(key, mapping, failure)
            else:
                self._cache.cancel(key, mapping)
        if self._breaker is not None:
            self._breaker.record(failure)

    def _deliver_failure(
        self,
        entry: _InFlight,
        failure: EvaluationFailure,
        duration: float = 0.0,
        quarantined: bool = False,
    ) -> None:
        """Settle an in-flight entry whose evaluation is a failure
        outcome: penalty-tell it (riders included) or abort per policy."""
        self._account_failure(entry.key, entry.mapping, failure, quarantined)
        self._seen.add(entry.key)
        self._remove(entry)
        if self.failure_policy is not None and self.failure_policy.penalize:
            penalty = self.failure_policy.penalty
            finished_at = self.evaluator.elapsed
            started_at = max(finished_at - duration, entry.started_at)
            self._resolve(
                entry.seq, entry.candidate, entry.mapping, penalty,
                started_at, finished_at, cached=False, failed=True,
            )
            self._tracer.end(entry.span, failed=True, value=penalty)
            self._resolve_riders(entry, penalty)
            if self._breaker is not None:
                self._breaker.check()
            return
        self._tracer.end(entry.span, failed=True)
        self._abandon_claims()
        raise EvaluationFailed(failure)

    def _skip_quarantined(
        self,
        seq: int,
        candidate: np.ndarray,
        mapping: dict[str, float],
        key: CacheKey,
        failure: EvaluationFailure,
    ) -> None:
        """Resolve a freshly-asked candidate whose point is already
        quarantined: one budget charge, zero simulator time."""
        self._budget_units += 1
        self._account_failure(key, mapping, failure, quarantined=True)
        self._seen.add(key)
        if self.failure_policy is not None and self.failure_policy.penalize:
            penalty = self.failure_policy.penalty
            span = self._tracer.begin(
                "evaluation", parent=self._root, driver="async", seq=seq
            )
            at = self.evaluator.elapsed
            self._resolve(seq, candidate, mapping, penalty, at, at,
                          cached=False, failed=True)
            self._tracer.end(span, failed=True, quarantined=True, value=penalty)
            if self._breaker is not None:
                self._breaker.check()
            return
        self._abandon_claims()
        raise EvaluationFailed(failure)

    def _poll_deferred(self, deferred: list[_InFlight]) -> None:
        """Resolve leased points that were published, take over expired ones."""
        for entry in deferred:
            value = self._cache.poll(entry.key, entry.mapping)
            if value is not None:
                self._seen.add(entry.key)
                self.cache_hits += 1
                self.deferred_hits += 1
                if self._reg is not None:
                    self._m_hits.inc()
                self._remove(entry)
                at = self.evaluator.elapsed
                self._resolve(entry.seq, entry.candidate, entry.mapping, value,
                              at, at, cached=True)
                self._tracer.end(entry.span, cached=True, leased=True, value=value)
                self._resolve_riders(entry, value)
                continue
            if self.failure_policy is not None:
                # The leader may have quarantined the point instead of
                # publishing: its lease was *released* on failure, so the
                # failure record — not lease expiry — is the signal.
                known = self._cache.get_failure(entry.key, entry.mapping)
                if known is not None:
                    self._deliver_failure(entry, known, quarantined=True)
                    continue
            if entry.lease_expires_at is not None and time.time() >= entry.lease_expires_at:
                claim = self._cache.claim(entry.key, entry.mapping)
                if claim.status == Claim.HIT:
                    continue  # published between poll and claim: next poll gets it
                if claim.status == Claim.QUARANTINED and claim.failure is not None:
                    if self.failure_policy is not None:
                        self._deliver_failure(entry, claim.failure, quarantined=True)
                        continue
                    # No policy: re-attempt the point ourselves (pre-
                    # quarantine behavior) by taking the claim over below.
                    entry.future = self.evaluator.submit(entry.mapping)
                    entry.dispatched_wall = time.time()
                    entry.started_at = self.evaluator.elapsed
                    entry.lease_expires_at = None
                elif claim.status == Claim.CLAIMED:
                    # Lease takeover: the original owner died; compute it
                    # ourselves (the defer already paid the budget charge).
                    entry.future = self.evaluator.submit(entry.mapping)
                    entry.dispatched_wall = time.time()
                    entry.started_at = self.evaluator.elapsed
                    entry.lease_expires_at = None
                else:
                    # A backend that reports no expiry must still allow a
                    # takeover retry, or a dead leader would hang the drain.
                    entry.lease_expires_at = lease_deadline(claim.expires_at)

    def _resolve(
        self,
        seq: int,
        candidate: np.ndarray,
        mapping: dict[str, float],
        value: float,
        started_at: float,
        finished_at: float,
        cached: bool,
        failed: bool = False,
    ) -> None:
        """Tell one completed candidate and record it in the history.

        With the ordered adapter the tell (and the history record) may be
        buffered until every earlier candidate completes, so the history
        lands in ask order — byte-for-byte the serial sequence; native
        tells and their records land immediately, in completion order.
        """
        self._meta[seq] = (mapping, started_at, finished_at, cached, failed)
        if self._adapter is None:
            self.algorithm.tell([candidate], [value])
            self._record(seq, value)
        else:
            for released_seq, _cand, released_value in self._adapter.complete(
                seq, candidate, value
            ):
                self._record(released_seq, released_value)

    def _record(self, seq: int, value: float) -> None:
        mapping, started_at, finished_at, cached, failed = self._meta.pop(seq)
        if cached and not self.record_cache_hits:
            return
        history = self.evaluator.history
        history.record(
            Evaluation(
                index=len(history),
                values=dict(mapping),
                unit=tuple(float(u) for u in self.space.to_unit_array(mapping)),
                value=value,
                started_at=started_at,
                finished_at=finished_at,
                cached=cached,
                failed=failed,
            )
        )

    # ------------------------------------------------------------------ #
    # plumbing
    # ------------------------------------------------------------------ #
    def _remove(self, entry: _InFlight) -> None:
        self._pending.remove(entry)
        if self._reg is not None:
            self._m_inflight.set(len(self._pending))
        if self._cache is not None:
            self._inflight_keys.pop(entry.key, None)

    def _resolve_riders(self, entry: _InFlight, value: float) -> None:
        """In-run revisits of a just-resolved point are served from its
        result (free cache hits, as in the serial driver)."""
        for rider_seq, rider_candidate in entry.riders:
            self.cache_hits += 1
            if self._reg is not None:
                self._m_hits.inc()
            span = self._tracer.begin(
                "evaluation", parent=self._root, driver="async", seq=rider_seq
            )
            at = self.evaluator.elapsed
            self._resolve(rider_seq, rider_candidate, entry.mapping, value, at, at, cached=True)
            self._tracer.end(span, cached=True, rider=True, value=value)
        entry.riders = []

    def _abandon_claims(self) -> None:
        if self._cache is None:
            return
        for entry in self._pending:
            if entry.future is not None:  # ours to cancel; leased points are not
                self._cache.cancel(entry.key, entry.mapping)
