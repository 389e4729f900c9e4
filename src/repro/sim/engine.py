"""The discrete-event simulation engine.

Minimal but complete: events execute in time order (ties broken by
scheduling order), actions may schedule further events, and the run can be
bounded by a horizon.  Monotonicity is enforced — scheduling into the past
is a :class:`~repro.errors.SimulationError`, which catches protocol bugs
early.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import SimulationError
from repro.sim.events import Action, EventQueue
from repro.utils.profiler import current_profiler
from repro.utils.telemetry import current_sink
from repro.utils.tracing import current_tracer


class Simulator:
    """Drives an :class:`~repro.sim.events.EventQueue` forward in time.

    ``trace_sample_every`` controls event-loop tracing granularity: with
    tracing enabled, one ``sim.progress`` event is emitted every that
    many simulation events (default 1000), so a multi-million-event run
    stays cheap to trace.  The run itself is wrapped in a ``sim.run``
    span.
    """

    def __init__(self, trace_sample_every: int = 1000) -> None:
        if trace_sample_every < 1:
            raise SimulationError(
                f"trace_sample_every must be >= 1, got {trace_sample_every}"
            )
        self._queue = EventQueue()
        self.now = 0.0
        self.events_processed = 0
        self.trace_sample_every = trace_sample_every

    def schedule(self, time: float, action: Action) -> None:
        """Schedule ``action`` at absolute simulated ``time``."""
        if time < self.now - 1e-12:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self.now}"
            )
        self._queue.push(time, action)

    def schedule_in(self, delay: float, action: Action) -> None:
        """Schedule ``action`` after a relative ``delay``."""
        if delay < 0:
            raise SimulationError(f"delay must be >= 0, got {delay}")
        self.schedule(self.now + delay, action)

    def run(self, until: Optional[float] = None) -> None:
        """Process events until the queue drains or ``until`` is reached.

        With a horizon, events scheduled at exactly ``until`` still run
        (closed interval), matching the intuition that a run "until t"
        includes t.
        """
        tracer = current_tracer()
        profiler = current_profiler()
        sink = current_sink()
        sample = self.trace_sample_every
        # Two loop bodies so the uninstrumented hot path carries zero
        # per-event tracing/telemetry/profiling cost (not even a boolean
        # check).
        instrumented = tracer.enabled or profiler.enabled or sink.enabled
        with tracer.span("sim.run", until=until) as span:
            if not instrumented:
                while self._queue:
                    next_time = self._queue.peek_time()
                    assert next_time is not None
                    if until is not None and next_time > until:
                        break
                    event = self._queue.pop()
                    self.now = event.time
                    event.action()
                    self.events_processed += 1
            else:
                while self._queue:
                    next_time = self._queue.peek_time()
                    assert next_time is not None
                    if until is not None and next_time > until:
                        break
                    event = self._queue.pop()
                    self.now = event.time
                    event.action()
                    self.events_processed += 1
                    profiler.tick()
                    if self.events_processed % sample == 0:
                        tracer.event(
                            "sim.progress",
                            sim_time=self.now,
                            processed=self.events_processed,
                            pending=len(self._queue),
                        )
                        sink.set_gauge(
                            "repro_sim_queue_depth", len(self._queue)
                        )
            if until is not None and until > self.now:
                self.now = until
            span.set(processed=self.events_processed, sim_time=self.now)
            if sink.enabled:
                sink.set_gauge(
                    "repro_sim_events_processed", self.events_processed
                )
                sink.set_gauge("repro_sim_queue_depth", len(self._queue))

    def step(self) -> bool:
        """Process a single event; returns False when the queue is empty."""
        if not self._queue:
            return False
        event = self._queue.pop()
        self.now = event.time
        event.action()
        self.events_processed += 1
        return True

    @property
    def pending(self) -> int:
        return len(self._queue)


__all__ = ["Simulator"]
