"""In-memory span recording for the traced benchmark run.

The traced run wraps public entry points of ``repro.simgrid``,
``repro.hepsim``, ``repro.core`` and ``repro.service`` from this file, so
the program itself is unchanged.  Each wrapped call records one span
(name, start, end, parent, thread, attributes); spans stay in memory and
are written out once, when the run ends.  :func:`layer_metrics` derives
the per-layer metrics and each layer's self time from them.
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import Any

#: spans of this thread are the fleet server's store poller, whose call
#: count follows the wall clock; they are excluded from the exact counts
POLLER_THREAD = "fleet-store-poller"

#: store operations whose latency and count per evaluation are reported
STORE_OPS = ("peek", "get", "put", "claim", "release", "get_failure")

#: span-name prefixes; "host" is the benchmark's own host probe
LAYERS = ("simgrid", "hepsim", "core", "store", "fleet", "host")


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "thread", "attrs")

    def __init__(self, span_id: int, parent: int | None, name: str, thread: str) -> None:
        self.id = span_id
        self.parent = parent
        self.name = name
        self.thread = thread
        self.attrs: dict[str, Any] = {}
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "thread": self.thread,
            **({"attrs": self.attrs} if self.attrs else {}),
        }


class SpanRecorder:
    """Thread-safe span sink; a span's parent is the innermost open span of
    the same thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span = Span(
            next(self._ids),
            stack[-1].id if stack else None,
            name,
            threading.current_thread().name,
        )
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        annotate: Callable[[Span, tuple, Any], None] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` with every call recorded as a span called ``name``;
        ``annotate(span, args, result)`` may attach attributes."""

        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name) as span:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    annotate(span, args, result)
                return result

        return traced

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([s.to_dict() for s in self.spans]))


class Patches:
    """Attribute replacements that :meth:`undo` restores in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object, bool]] = []

    def replace(self, owner: object, attr: str, value: object) -> None:
        had_own = attr in vars(owner)
        self._saved.append((owner, attr, getattr(owner, attr), had_own))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._saved:
            owner, attr, original, had_own = self._saved.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def instrument_library(recorder: SpanRecorder, patches: Patches) -> None:
    """Wrap the simulator, case-study and algorithm entry points."""
    import repro.hepsim.simulator as simulator_module
    import repro.simgrid.engine as engine_module
    from repro.core.algorithms.base import CalibrationAlgorithm
    from repro.hepsim import HEPSimulator

    def note_active(span: Span, args: tuple, result: Any) -> None:
        span.attrs["active"] = len(args[0])

    def note_events(span: Span, args: tuple, result: Any) -> None:
        span.attrs["events"] = result[1]["events"]

    # The engine calls the solver through its module global.
    patches.replace(
        engine_module,
        "solve_max_min",
        recorder.wrap("simgrid.solve", engine_module.solve_max_min, note_active),
    )
    patches.replace(
        simulator_module,
        "build_platform",
        recorder.wrap("hepsim.build_platform", simulator_module.build_platform),
    )
    patches.replace(
        HEPSimulator,
        "simulate",
        recorder.wrap("hepsim.simulate", HEPSimulator.simulate, note_events),
    )
    patches.replace(
        CalibrationAlgorithm, "ask", recorder.wrap("core.ask", CalibrationAlgorithm.ask)
    )
    patches.replace(
        CalibrationAlgorithm, "tell", recorder.wrap("core.tell", CalibrationAlgorithm.tell)
    )


def instrument_store(recorder: SpanRecorder, store: Any, patches: Patches) -> None:
    """Wrap one store instance's public operations."""
    for op in STORE_OPS:
        patches.replace(store, op, recorder.wrap(f"store.{op}", getattr(store, op)))


def instrument_client(recorder: SpanRecorder, client: Any, patches: Patches) -> None:
    """Wrap the worker-side fleet client calls."""
    patches.replace(client, "tasks", recorder.wrap("fleet.tasks", client.tasks))
    patches.replace(client, "publish", recorder.wrap("fleet.publish", client.publish))


def instrument_board(board: Any, patches: Patches, posts: list[tuple[float, float, dict]]) -> None:
    """Record (posted, resolved, values) for every candidate posted to the
    fleet task board that a worker resolved."""
    post = board.post

    def traced_post(job_id: str, fingerprint: str, values: dict, spec: dict) -> Any:
        posted = time.perf_counter()
        future = post(job_id, fingerprint, values, spec)

        def done(fut: Any) -> None:
            if not fut.cancelled() and fut.exception() is None:
                posts.append((posted, time.perf_counter(), dict(values)))

        future.add_done_callback(done)
        return future

    patches.replace(board, "post", traced_post)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def self_times_by_name(spans: list[Span]) -> dict[str, float]:
    """Seconds of self time per span name: duration minus direct children."""
    child_time: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] = child_time.get(span.parent, 0.0) + span.duration
    totals: dict[str, float] = {}
    for span in spans:
        own = span.duration - child_time.get(span.id, 0.0)
        totals[span.name] = totals.get(span.name, 0.0) + own
    return totals


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds of self time per layer (the span name's first component)."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for name, seconds in self_times_by_name(spans).items():
        totals[name.split(".", 1)[0]] += seconds
    return totals


def layer_metrics(
    spans: list[Span],
    evaluations: int,
    driver_seconds: float,
    driver_evaluations: int,
    dispatch_s: list[float],
) -> dict[str, float]:
    """Per-layer metrics over a traced run.

    ``evaluations`` is the number of simulator evaluations (objective
    calls); every ``*_per_eval`` count and per-evaluation time divides by
    it.  ``driver_seconds`` is calibration wall time minus objective and
    host-probe time over ``driver_evaluations`` calibrated points (store
    hits included).  ``dispatch_s`` holds, per fleet task, board post to
    resolve minus the worker's objective and host-probe time.
    """
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def durations(name: str, exclude_poller: bool = False) -> list[float]:
        return [
            s.duration
            for s in by_name.get(name, [])
            if not (exclude_poller and s.thread == POLLER_THREAD)
        ]

    n = max(evaluations, 1)
    solves = by_name.get("simgrid.solve", [])
    simulates = by_name.get("hepsim.simulate", [])
    events = sum(s.attrs["events"] for s in simulates)
    simulate_s = sum(s.duration for s in simulates)
    selfs = self_times_by_name(spans)
    metrics: dict[str, float] = {
        "simgrid.solve_calls": len(solves) / n,
        "simgrid.active_per_solve": (
            sum(s.attrs["active"] for s in solves) / len(solves) if solves else 0.0
        ),
        "simgrid.events": events / n,
        "simgrid.solve_us_p50": _median(durations("simgrid.solve")) * 1e6,
        "simgrid.solve_ms": sum(durations("simgrid.solve")) / n * 1e3,
        "hepsim.simulate_ms_p50": _median(durations("hepsim.simulate")) * 1e3,
        "hepsim.events_per_s": events / simulate_s if simulate_s > 0 else 0.0,
        "hepsim.build_platform_ms": sum(durations("hepsim.build_platform")) / n * 1e3,
        "hepsim.engine_self_ms": selfs.get("hepsim.simulate", 0.0) / n * 1e3,
        "hepsim.metric_ms": selfs.get("hepsim.objective", 0.0) / n * 1e3,
        "core.ask_us_p50": _median(durations("core.ask")) * 1e6,
        "core.tell_us_p50": _median(durations("core.tell")) * 1e6,
        "core.driver_us_per_eval": driver_seconds / max(driver_evaluations, 1) * 1e6,
    }
    for op in STORE_OPS:
        calls = durations(f"store.{op}", exclude_poller=True)
        metrics[f"store.{op}_us_p50"] = _median(calls) * 1e6
        metrics[f"store.{op}_per_eval"] = len(calls) / n
    metrics["fleet.tasks_ms_p50"] = _median(durations("fleet.tasks")) * 1e3
    metrics["fleet.publish_ms_p50"] = _median(durations("fleet.publish")) * 1e3
    metrics["fleet.tasks_calls_per_eval"] = len(durations("fleet.tasks")) / n
    metrics["fleet.dispatch_ms_p50"] = _median(dispatch_s) * 1e3
    return metrics

