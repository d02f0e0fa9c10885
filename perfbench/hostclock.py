"""Wall time normalised for host speed by interleaved probes.

The benchmark shares its host, whose speed wanders by tens of percent
within seconds.  A probe is a fixed pure-Python loop over small objects,
sets and dicts, independent of the program; the benchmark runs one after
every objective call, between solver calls once ``PROBE_INTERVAL_S`` has
passed since the last probe, and around every timed stretch.
Each stretch of wall time between two probes is scaled by
``NOMINAL_PROBE_S`` over the mean of those two probes, so a time reads in
seconds on a host where the probe takes ``NOMINAL_PROBE_S``.  Probe time
itself is left out.  Raw wall times are printed next to the results.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable
from contextlib import AbstractContextManager, nullcontext
from typing import Any

#: the probe's duration on the reference host speed
NOMINAL_PROBE_S = 1e-3
#: seconds after the last probe when the next one is due
PROBE_INTERVAL_S = 0.05


class _Item:
    __slots__ = ("key", "weight")

    def __init__(self, key: int, weight: float) -> None:
        self.key = key
        self.weight = weight


def _probe_once() -> float:
    start = time.perf_counter()
    items = [_Item(i, i * 0.5) for i in range(1500)]
    weights = {item: item.weight for item in items}
    chosen = set(items[::2])
    total = 0.0
    for item in items:
        if item in chosen:
            total += weights[item]
    return time.perf_counter() - start


def probe_seconds() -> float:
    """Best of two probe loops, in seconds."""
    return min(_probe_once(), _probe_once())


class HostClock:
    """Probe marks (start, end, probe seconds) in time order.  Probes of
    one clock never overlap: they follow each other on one thread, or on
    threads that take turns."""

    def __init__(self) -> None:
        self._marks: list[tuple[float, float, float]] = []
        self._lock = threading.Lock()
        #: optional ``name -> context manager`` recording each probe as a
        #: span, so traced layers can leave probe time out
        self.span: Callable[[str], AbstractContextManager[Any]] = lambda name: nullcontext()

    def probe(self) -> float:
        with self.span("host.probe"):
            start = time.perf_counter()
            seconds = probe_seconds()
            end = time.perf_counter()
        with self._lock:
            self._marks.append((start, end, seconds))
        return seconds

    def probe_if_due(self) -> None:
        """Probe when the last probe ended ``PROBE_INTERVAL_S`` ago."""
        with self._lock:
            last = self._marks[-1][1] if self._marks else float("-inf")
        if time.perf_counter() - last >= PROBE_INTERVAL_S:
            self.probe()

    def clear(self) -> None:
        with self._lock:
            self._marks.clear()

    def normalized(self, start: float, end: float) -> float:
        """Seconds in [start, end], probes excluded, each stretch between
        probes scaled to the nominal host speed."""
        with self._lock:
            marks = list(self._marks)
        if not marks:
            raise RuntimeError("no probe marks to normalise by")
        total = 0.0
        cursor = start
        previous = None
        for mark in marks:
            mark_start, mark_end, seconds = mark
            if mark_end <= start:
                previous = mark
                continue
            if mark_start >= end:
                total += self._scaled(cursor, end, previous, mark)
                return total
            total += self._scaled(cursor, mark_start, previous, mark)
            cursor = mark_end
            previous = mark
        return total + self._scaled(cursor, end, previous, None)

    @staticmethod
    def _scaled(
        start: float,
        end: float,
        before: tuple[float, float, float] | None,
        after: tuple[float, float, float] | None,
    ) -> float:
        if end <= start:
            return 0.0
        probes = [mark[2] for mark in (before, after) if mark is not None]
        return (end - start) * NOMINAL_PROBE_S / (sum(probes) / len(probes))
