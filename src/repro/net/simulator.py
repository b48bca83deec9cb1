"""Minimal discrete-event kernel.

Used by the time-driven experiments (churn sessions in E7, anti-entropy
rounds in E9) and by the event-driven query transport
(:class:`~repro.net.scheduler.EventScheduler`), which schedules routed
operations as handler chains so parallel fan-outs interleave in simulated
time.  Events are ``(time, seq, handler, args)`` entries in a heap; an
event fires as ``handler(*args)``, and ``seq`` breaks ties FIFO so runs
are deterministic.  A hot caller schedules a bound method with the values
it needs as ``args`` instead of a closure over them, so an event holds no
cell objects and no function built for it alone.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable


class EventSimulator:
    """A deterministic discrete-event loop."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[tuple[float, int, Callable[..., None], tuple[Any, ...]]] = []
        self._seq = 0

    def schedule(self, delay: float, handler: Callable[..., None], *args: Any) -> None:
        """Run ``handler(*args)`` at ``now + delay`` (delay must be >= 0)."""
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        self.schedule_at(self.now + delay, handler, *args)

    def schedule_at(self, time: float, handler: Callable[..., None], *args: Any) -> None:
        """Run ``handler(*args)`` at absolute ``time`` (must not be in the past)."""
        if time < self.now:
            raise ValueError(f"delay must be >= 0, got {time - self.now}")
        heappush(self._heap, (time, self._seq, handler, args))
        self._seq += 1

    def run(self, until: float | None = None) -> None:
        """Process events in time order, optionally stopping at ``until``.

        When ``until`` is given the clock is advanced to it even if the heap
        drains earlier, so periodic observers see a consistent end time.
        """
        heap = self._heap
        while heap:
            if until is not None and heap[0][0] > until:
                break
            time, _seq, handler, args = heappop(heap)
            self.now = time
            handler(*args)
        if until is not None and self.now < until:
            self.now = until

    def pending(self) -> int:
        """Number of events still queued."""
        return len(self._heap)
