"""Event queue of the discrete-event engine.

A classic priority queue of ``(time, sequence, action)``; the sequence
number makes ordering deterministic among simultaneous events (insertion
order wins), which keeps every simulation bit-reproducible.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.errors import SimulationError, ValidationError

Action = Callable[[], None]


@dataclass(frozen=True, order=True)
class ScheduledEvent:
    """An action scheduled at a simulated time."""

    time: float
    sequence: int
    action: Action = field(compare=False)

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValidationError(f"event time must be >= 0, got {self.time}")


class EventQueue:
    """Deterministic min-heap of scheduled events."""

    def __init__(self) -> None:
        self._heap: List[ScheduledEvent] = []
        self._counter = itertools.count()

    def push(self, time: float, action: Action) -> ScheduledEvent:
        event = ScheduledEvent(time, next(self._counter), action)
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> ScheduledEvent:
        if not self._heap:
            raise SimulationError("cannot pop from an empty event queue")
        return heapq.heappop(self._heap)

    def peek_time(self) -> Optional[float]:
        return self._heap[0].time if self._heap else None

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


__all__ = ["Action", "ScheduledEvent", "EventQueue"]
