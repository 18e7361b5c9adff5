"""A minimal discrete-event core: time-ordered event queue.

Events carry an action callback; ties break by insertion order so
simulations are fully deterministic (important: benchmark runs must be
reproducible across processes, and Python's ``heapq`` is not stable on
equal keys by itself).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import SimulationError

__all__ = ["Event", "EventQueue"]


@dataclass(frozen=True)
class Event:
    """A scheduled action at a simulated time."""

    time: float
    action: Callable[[], Any]
    label: str = ""


class EventQueue:
    """Deterministic time-ordered queue with a monotonic clock."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._counter = itertools.count()
        self._now = 0.0
        self._processed = 0

    @property
    def now(self) -> float:
        return self._now

    @property
    def processed(self) -> int:
        return self._processed

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, delay: float, action: Callable[[], Any], label: str = "") -> None:
        """Schedule ``action`` to run ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        event = Event(time=self._now + delay, action=action, label=label)
        heapq.heappush(self._heap, (event.time, next(self._counter), event))

    def run(self, *, until: float | None = None, max_events: int | None = None) -> int:
        """Drain the queue; returns the number of events processed.

        ``until`` stops the clock at a horizon (events beyond it stay
        queued); ``max_events`` bounds runaway simulations.
        """
        processed = 0
        while self._heap:
            if max_events is not None and processed >= max_events:
                break
            time, _, event = self._heap[0]
            if until is not None and time > until:
                break
            heapq.heappop(self._heap)
            if time < self._now:
                raise SimulationError("event queue time went backwards (bug)")
            self._now = time
            event.action()
            processed += 1
        self._processed += processed
        return processed
