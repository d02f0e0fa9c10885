"""Objective-function wrapper: evaluation records, caching, budget checks.

Algorithms never call the user's simulator directly; they go through an
:class:`Objective`, which

* enforces the calibration budget (raising :class:`BudgetExhausted` when
  it runs out, which the :class:`~repro.core.calibrator.Calibrator`
  catches — this lets the algorithms be written as straightforward loops,
  exactly as described in the paper);
* caches results so that re-visited points (e.g. shared grid corners) do
  not consume budget;
* records every evaluation (parameters, value, wall-clock timestamps) in a
  :class:`~repro.core.history.CalibrationHistory`, from which the Figure 2
  convergence curves are produced.

The cache is pluggable: by default it is a per-objective in-memory
dictionary (:class:`DictCache`), but any object implementing the
:class:`CacheBackend` interface can be supplied — notably the
store-backed cache of :mod:`repro.service`, which shares evaluations
across calibration jobs and across processes.
"""

from __future__ import annotations

import dataclasses
import time
from collections.abc import Callable, Mapping, Sequence

import numpy as np

from repro.core.budget import Budget
from repro.core.faults import (
    EVAL_METRIC_HELP,
    CircuitBreaker,
    EvaluationFailed,
    EvaluationFailure,
    FailurePolicy,
    RetryPolicy,
    run_guarded,
)
from repro.core.history import CalibrationHistory, Evaluation
from repro.core.parameters import ParameterSpace
from repro.telemetry.metrics import registry as _metrics_registry
from repro.telemetry.tracing import current_tracer

_REGISTRY = _metrics_registry()

__all__ = [
    "BudgetExhausted",
    "CacheBackend",
    "Claim",
    "DictCache",
    "Evaluation",
    "LEASE_RETRY_SECONDS",
    "Objective",
    "lease_deadline",
    "unit_cache_key",
]

CacheKey = tuple[float, ...]

#: How long (seconds) a driver waits before re-checking a lease whose
#: backend reported no expiry timestamp.  Short on purpose: a backend
#: that tracks no expiry gives no signal to wait on, so drivers re-poll
#: at this cadence and rely on claim-takeover for crash recovery.
LEASE_RETRY_SECONDS = 1.0


def lease_deadline(expires_at: float | None, ttl: float = LEASE_RETRY_SECONDS) -> float:
    """The wall-clock deadline to treat a lease as settled-or-stale.

    Backends that track leases report ``Claim.expires_at``; backends that
    don't report ``None``, and every driver must fall back to the *same*
    short retry horizon (``now + ttl``) or they disagree on when a lease
    is worth re-polling.  This helper is the single home of that policy —
    write ``lease_deadline(claim.expires_at)`` instead of an inline
    ``claim.expires_at or (time.time() + 1.0)``.
    """
    if expires_at is not None:
        return expires_at
    return time.time() + ttl


def unit_cache_key(unit: np.ndarray, decimals: int) -> CacheKey:
    """The canonical cache key for a unit-cube point.

    Every component that shares a cache (the serial :class:`Objective`,
    the asynchronous driver, the service's store adapter) must build keys
    through this one function, or entries written by one stop matching
    lookups from another.
    """
    return tuple(np.round(unit, decimals))


class BudgetExhausted(Exception):
    """Raised by :meth:`Objective.evaluate` when the budget has run out."""


@dataclasses.dataclass(frozen=True)
class Claim:
    """Outcome of a non-blocking single-flight :meth:`CacheBackend.claim`.

    ``status`` is one of

    ``"hit"``
        The value is already known; ``value`` carries it, nothing to
        compute.
    ``"claimed"``
        The caller now owns the computation of this point and *must*
        finish the claim with :meth:`CacheBackend.put` (on success) or
        :meth:`CacheBackend.cancel` (on failure) — leaking a claim stalls
        every other driver on the point until the lease expires.
    ``"leased"``
        Another owner is computing the point right now.  The caller
        should do other work and re-:meth:`CacheBackend.poll` later;
        ``expires_at`` (a ``time.time()`` timestamp, when the backend
        tracks one) bounds how long the lease can stay unresolved before
        a re-``claim`` takes it over.
    ``"quarantined"``
        The point is recorded as a known failure (a poison point):
        ``failure`` carries the recorded
        :class:`~repro.core.faults.EvaluationFailure`.  The caller must
        not evaluate it — apply the failure policy (penalty or raise)
        instead of waiting out a lease that will never resolve.
    """

    status: str
    value: float | None = None
    expires_at: float | None = None
    failure: EvaluationFailure | None = None

    HIT = "hit"
    CLAIMED = "claimed"
    LEASED = "leased"
    QUARANTINED = "quarantined"


class CacheBackend:
    """Interface for pluggable evaluation caches.

    ``key`` is the objective's canonical unit-cube key (a tuple of rounded
    normalised coordinates); ``values`` is the raw parameter-value mapping.
    Backends are free to key on either representation.

    Contract and concurrency guarantees:

    * ``get``/``put``/``cancel`` is the classic memoisation triple used by
      the serial :class:`Objective`.  ``get`` may block while another
      worker computes the same point (single-flight backends), and
      ``cancel`` is called when an announced computation will not be
      completed (the simulator raised, or the budget ran out), so such
      backends can release their waiters.
    * ``claim``/``poll`` is the *non-blocking* protocol spoken by the
      asynchronous driver, which holds many candidates in
      flight at once and must never sleep inside a cache call: ``claim``
      returns immediately with a :class:`Claim` (hit / claimed / leased)
      and ``poll`` checks, without claiming anything, whether a point
      leased to another owner has been published yet.  The default
      implementations make any plain backend trivially correct: a miss is
      always ``"claimed"`` (no cross-driver leasing) and ``poll``
      delegates to ``get``.

    Thread-safety: backends shared between drivers (the service's
    store-backed cache) must make each method atomic; the per-objective
    :class:`DictCache` is only touched by its owning driver thread.
    """

    def get(self, key: CacheKey, values: Mapping[str, float]) -> float | None:
        raise NotImplementedError  # pragma: no cover - interface

    def put(self, key: CacheKey, values: Mapping[str, float], value: float) -> None:
        raise NotImplementedError  # pragma: no cover - interface

    def cancel(self, key: CacheKey, values: Mapping[str, float]) -> None:
        """Called when a computation announced by ``get`` -> miss (or by a
        ``claim`` -> ``"claimed"``) fails; releases any waiters/leases."""

    def mark_failed(
        self, key: CacheKey, values: Mapping[str, float], failure: EvaluationFailure
    ) -> None:
        """Quarantine a poison point: record that evaluating it failed
        permanently, so this run and any other run sharing the backend
        skip it instead of re-evaluating (or waiting on a lease for) it.
        The default merely releases waiters like :meth:`cancel`; backends
        with persistence (the store-backed cache) record the failure."""
        self.cancel(key, values)

    def get_failure(
        self, key: CacheKey, values: Mapping[str, float]
    ) -> EvaluationFailure | None:
        """The recorded failure for a quarantined point, or ``None``."""
        return None

    def claim(self, key: CacheKey, values: Mapping[str, float]) -> Claim:
        """Non-blocking single-flight lookup (see the class docstring).

        The default implementation never reports ``"leased"``: backends
        without cross-driver visibility simply hand the computation to the
        caller on a miss.  It delegates to :meth:`get` — a backend whose
        ``get`` may block (single-flight waiting) MUST override ``claim``
        with a genuinely non-blocking implementation, or async drivers
        holding several candidates in flight can deadlock against
        each other (:class:`repro.service.cache.StoreBackedCache` is the
        reference implementation).
        """
        value = self.get(key, values)
        if value is not None:
            return Claim(Claim.HIT, value)
        failure = self.get_failure(key, values)
        if failure is not None:
            return Claim(Claim.QUARANTINED, failure=failure)
        return Claim(Claim.CLAIMED)

    def poll(self, key: CacheKey, values: Mapping[str, float]) -> float | None:
        """Check whether a point leased to another owner has been published
        (never blocks, never claims)."""
        return self.get(key, values)


class DictCache(CacheBackend):
    """The default per-objective cache: a plain dictionary on the unit key."""

    def __init__(self) -> None:
        self._data: dict[CacheKey, float] = {}
        self._failures: dict[CacheKey, EvaluationFailure] = {}

    def get(self, key: CacheKey, values: Mapping[str, float]) -> float | None:
        return self._data.get(key)

    def put(self, key: CacheKey, values: Mapping[str, float], value: float) -> None:
        self._data[key] = value
        # A later success un-quarantines the point (e.g. a transient
        # environment problem cleared up and a retry path landed a value).
        self._failures.pop(key, None)

    def mark_failed(
        self, key: CacheKey, values: Mapping[str, float], failure: EvaluationFailure
    ) -> None:
        self._failures[key] = failure

    def get_failure(
        self, key: CacheKey, values: Mapping[str, float]
    ) -> EvaluationFailure | None:
        return self._failures.get(key)

    def __len__(self) -> int:
        return len(self._data)


class Objective:
    """Budget-aware, caching wrapper around a simulator accuracy function.

    Parameters
    ----------
    function:
        Callable mapping a parameter-value dictionary to an accuracy value
        (lower is better; the case study uses the MRE in percent).
    space:
        The parameter space (used to convert between value dictionaries and
        normalised unit-cube coordinates).
    budget:
        Optional budget; when it is exhausted, :meth:`evaluate` raises
        :class:`BudgetExhausted`.
    cache:
        ``True`` (memoise in a fresh :class:`DictCache`), ``False`` (no
        caching), or a :class:`CacheBackend` instance such as the shared
        evaluation store of :mod:`repro.service`.
    record_cache_hits:
        When true, cache hits are appended to the history as
        :class:`Evaluation` records flagged ``cached=True`` (with zero-cost
        timestamps).  This keeps the algorithm's full trajectory — and in
        particular the best point — visible even when every point is served
        from a warm shared store.  Off by default, preserving the paper's
        history semantics (one record per simulator invocation).
    count_cache_hits:
        When true, a cache hit on a point this objective has *not itself
        seen before* (i.e. served from pre-existing shared-store work)
        counts toward the budget, so a run replayed from a warm store
        terminates at exactly the point the cold run did.  Revisits of
        points already seen within the run stay free, preserving the
        paper's "cache hits do not consume budget" semantics — a cold run
        with an empty store therefore behaves identically to a plain
        calibrator even for algorithms that revisit points (grid corners,
        coordinate/pattern stalls).  Off by default.
    retry_policy:
        Optional :class:`~repro.core.faults.RetryPolicy`: transient
        failures (including timeouts) are retried in place with
        deterministic backoff before becoming failure outcomes.
    failure_policy:
        Optional :class:`~repro.core.faults.FailurePolicy`: what happens
        once an evaluation *is* a failure outcome — tell the algorithm a
        penalty value and continue (``"penalty"``), or re-raise
        (``"raise"``).  Also controls poison-point quarantine and arms
        the per-job circuit breaker.  Without a policy, failures abort
        the run exactly as before.
    eval_timeout:
        Optional per-attempt wall-clock timeout in seconds (see
        :func:`~repro.core.faults.call_with_timeout` for where it can
        actually interrupt).

    When none of the three fault-tolerance knobs is set, every code path
    is byte-identical to the pre-fault-tolerance objective.
    """

    #: number of decimals used for the cache key in unit coordinates
    CACHE_DECIMALS = 9

    def __init__(
        self,
        function: Callable[[dict[str, float]], float],
        space: ParameterSpace,
        budget: Budget | None = None,
        cache: bool | CacheBackend = True,
        record_cache_hits: bool = False,
        count_cache_hits: bool = False,
        retry_policy: RetryPolicy | None = None,
        failure_policy: FailurePolicy | None = None,
        eval_timeout: float | None = None,
    ) -> None:
        self.function = function
        self.space = space
        self.budget = budget
        self.history = CalibrationHistory()
        if isinstance(cache, CacheBackend):
            self._cache: CacheBackend | None = cache
        elif cache:
            self._cache = DictCache()
        else:
            self._cache = None
        self.record_cache_hits = bool(record_cache_hits)
        self.count_cache_hits = bool(count_cache_hits)
        self.retry_policy = retry_policy
        self.failure_policy = failure_policy
        self.eval_timeout = eval_timeout
        self._fault_tolerant = (
            retry_policy is not None
            or failure_policy is not None
            or eval_timeout is not None
        )
        self._breaker = failure_policy.breaker() if failure_policy is not None else None
        self.cache_hits = 0
        self.failures = 0
        self.quarantine_skips = 0
        self._invocations = 0
        self._counted_hits = 0
        self._seen_keys: set = set()
        self._start_time = time.perf_counter()
        self._started = False

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self, elapsed_offset: float = 0.0) -> None:
        """Reset the clock (called by the calibrator right before running).

        A resumed run passes the wall-clock its checkpoint had already
        spent: the clock — and any time budget — then continues from there,
        so new history timestamps stay monotone after the preloaded ones
        and an interrupted time-budgeted run gets only its remaining time.
        """
        self._start_time = time.perf_counter() - elapsed_offset
        self._started = True
        if self.budget is not None:
            self.budget.start(elapsed_offset)

    @property
    def elapsed(self) -> float:
        """Wall-clock seconds since the calibration started."""
        return time.perf_counter() - self._start_time

    @property
    def evaluation_count(self) -> int:
        """Number of actual simulator invocations performed (cache misses)."""
        return self._invocations

    @property
    def steps(self) -> int:
        """Simulator invocations plus cache hits (the algorithm's step count)."""
        return self._invocations + self.cache_hits + self.quarantine_skips

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #
    def _cache_key(self, unit: np.ndarray) -> CacheKey:
        return unit_cache_key(unit, self.CACHE_DECIMALS)

    def _budget_units(self) -> int:
        base = self._invocations + self.quarantine_skips
        return base + self._counted_hits if self.count_cache_hits else base

    def _record(self, values: Mapping[str, float], unit: np.ndarray, value: float,
                started_at: float, finished_at: float, cached: bool,
                failed: bool = False) -> None:
        self.history.record(
            Evaluation(
                index=len(self.history),
                values=dict(values),
                unit=tuple(float(u) for u in unit),
                value=value,
                started_at=started_at,
                finished_at=finished_at,
                cached=cached,
                failed=failed,
            )
        )

    def preload(self, history: CalibrationHistory) -> None:
        """Restore a prior partial run's evaluations (checkpoint resume).

        Each record rejoins this objective's history and bookkeeping
        exactly as it was accounted for originally: simulator invocations
        count as invocations (and re-enter the cache, so in-run revisits
        stay free after the resume), recorded cache hits count as hits,
        and every point is marked seen.  The budget therefore picks up
        where the interrupted run stopped instead of starting over.
        """
        if len(self.history) or self._invocations:
            raise RuntimeError("preload() must run before any evaluation")
        for evaluation in history:
            unit = np.asarray(evaluation.unit, dtype=float)
            key = self._cache_key(unit)
            at = evaluation.started_at
            if evaluation.cached:
                self.cache_hits += 1
                if key not in self._seen_keys:
                    self._counted_hits += 1
            else:
                self._invocations += 1
                # A failed record carries the penalty value, not a real
                # simulator output: keep it out of the cache (any
                # quarantine lives in the shared backend already).
                if self._cache is not None and not evaluation.failed:
                    self._cache.put(key, dict(evaluation.values), evaluation.value)
            self._seen_keys.add(key)
            self._record(
                dict(evaluation.values), unit, evaluation.value,
                at, evaluation.finished_at, cached=evaluation.cached,
            )

    def evaluate(self, values: Mapping[str, float]) -> float:
        """Evaluate the objective for a parameter-value dictionary."""
        if not self._started:
            self.start()
        unit = self.space.to_unit_array(values)
        key = self._cache_key(unit)
        if self._cache is not None:
            cached = self._cache.get(key, values)
            if cached is not None:
                # A first-seen hit replays work some earlier run paid for —
                # it was an invocation in the run being replayed, so (when
                # counting is on) the budget is checked before it is served,
                # exactly like the check before an invocation.  In-run
                # revisits were free in the original run too, so they stay
                # free here.
                first_seen = key not in self._seen_keys
                if (
                    self.count_cache_hits
                    and first_seen
                    and self.budget is not None
                    and self.budget.exhausted(self._budget_units())
                ):
                    raise BudgetExhausted(self.budget.describe())
                at = self.elapsed
                self.cache_hits += 1
                if first_seen:
                    self._counted_hits += 1
                    self._seen_keys.add(key)
                if self.record_cache_hits:
                    self._record(values, unit, cached, at, at, cached=True)
                if _REGISTRY.enabled:
                    _REGISTRY.counter(
                        "repro_objective_cache_hits_total",
                        "Evaluations answered from the cache.",
                    ).inc()
                return cached
        if self._fault_tolerant and self._cache is not None:
            known = self._cache.get_failure(key, values)
            if known is not None:
                return self._skip_quarantined(values, unit, key, known)
        tracer = current_tracer()
        try:
            if self.budget is not None and self.budget.exhausted(self._budget_units()):
                raise BudgetExhausted(self.budget.describe())
            started_at = self.elapsed
            sim_span = tracer.begin("simulate")
            if self._fault_tolerant:
                value, retries = run_guarded(
                    self.function, dict(values), self.retry_policy, self.eval_timeout
                )
                if retries:
                    self._note_retries(retries)
            else:
                value = float(self.function(dict(values)))
        except EvaluationFailed as error:
            # The evaluation exhausted its attempts: quarantine (or at
            # least release) the point, then apply the failure policy.
            return self._settle_failure(values, unit, key, error, started_at)
        except BaseException:
            # A blocking backend (single-flight dedup) may have announced
            # this computation to other workers; release them.
            if self._cache is not None:
                self._cache.cancel(key, values)
            raise
        finished_at = self.elapsed
        tracer.end(sim_span, value=value)
        if self._breaker is not None:
            self._breaker.record(None)
        if _REGISTRY.enabled:
            _REGISTRY.counter(
                "repro_objective_evaluations_total",
                "Actual simulator invocations (cache misses).",
            ).inc()
            _REGISTRY.histogram(
                "repro_objective_evaluation_seconds",
                "Wall-clock per simulator invocation.",
            ).observe(finished_at - started_at)
        self._invocations += 1
        self._seen_keys.add(key)
        self._record(values, unit, value, started_at, finished_at, cached=False)
        if self._cache is not None:
            self._cache.put(key, values, value)
        return value

    # ------------------------------------------------------------------ #
    # failure outcomes
    # ------------------------------------------------------------------ #
    def _note_retries(self, retries: int) -> None:
        reg = _REGISTRY if _REGISTRY.enabled else None
        if reg is not None and retries > 0:
            reg.counter(
                "repro_eval_retries_total",
                EVAL_METRIC_HELP["repro_eval_retries_total"],
            ).inc(retries)

    def _settle_failure(
        self,
        values: Mapping[str, float],
        unit: np.ndarray,
        key: CacheKey,
        error: EvaluationFailed,
        started_at: float,
    ) -> float:
        """An evaluation exhausted its attempts: quarantine the point,
        account the failure, then apply the failure policy (penalty tell
        or re-raise).  The failed attempt *is* a budget charge — the
        simulator ran — so penalty runs terminate on schedule."""
        failure = error.failure
        if self._cache is not None:
            if self.failure_policy is not None and self.failure_policy.quarantine:
                self._cache.mark_failed(key, values, failure)
            else:
                self._cache.cancel(key, values)
        self.failures += 1
        self._invocations += 1
        self._seen_keys.add(key)
        self._note_retries(failure.attempts - 1)
        reg = _REGISTRY if _REGISTRY.enabled else None
        if reg is not None:
            reg.counter(
                "repro_eval_failures_total",
                EVAL_METRIC_HELP["repro_eval_failures_total"],
            ).inc()
            if failure.kind == "timeout":
                reg.counter(
                    "repro_eval_timeouts_total",
                    EVAL_METRIC_HELP["repro_eval_timeouts_total"],
                ).inc()
        if self._breaker is not None:
            self._breaker.record(failure)
        if self.failure_policy is not None and self.failure_policy.penalize:
            penalty = self.failure_policy.penalty
            self._record(
                values, unit, penalty, started_at, self.elapsed,
                cached=False, failed=True,
            )
            if self._breaker is not None:
                self._breaker.check()
            return penalty
        raise error

    def _skip_quarantined(
        self,
        values: Mapping[str, float],
        unit: np.ndarray,
        key: CacheKey,
        failure: EvaluationFailure,
    ) -> float:
        """The point is already quarantined (by this run or a peer): no
        simulator call, no lease wait — serve the failure policy.  Each
        skip charges one budget unit so an algorithm stuck proposing a
        poison point still terminates."""
        if self.budget is not None and self.budget.exhausted(self._budget_units()):
            raise BudgetExhausted(self.budget.describe())
        if self._cache is not None:
            # Harmless when no lease is held; releases the claim a racing
            # peer's quarantine may have left us holding.
            self._cache.cancel(key, values)
        reg = _REGISTRY if _REGISTRY.enabled else None
        if reg is not None:
            reg.counter(
                "repro_eval_quarantined_total",
                EVAL_METRIC_HELP["repro_eval_quarantined_total"],
            ).inc()
        at = self.elapsed
        self.quarantine_skips += 1
        self._seen_keys.add(key)
        if self._breaker is not None:
            self._breaker.record(failure)
        if self.failure_policy is not None and self.failure_policy.penalize:
            penalty = self.failure_policy.penalty
            self._record(values, unit, penalty, at, at, cached=False, failed=True)
            if self._breaker is not None:
                self._breaker.check()
            return penalty
        raise EvaluationFailed(failure)

    def evaluate_unit(self, x: Sequence[float]) -> float:
        """Evaluate the objective at normalised unit-cube coordinates."""
        return self.evaluate(self.space.from_unit_array(self.space.clip_unit(x)))

    # ------------------------------------------------------------------ #
    # results
    # ------------------------------------------------------------------ #
    @property
    def best(self) -> Evaluation | None:
        return self.history.best

    def best_values(self) -> dict[str, float]:
        best = self.history.best
        if best is None:
            raise ValueError("no evaluation has been performed yet")
        return dict(best.values)
