"""Causal execution traces.

A :class:`Trace` records the cost of a (possibly distributed) operation as
observed by its initiator: the number of overlay messages on the causal path,
the number of sequential hops on the *critical path*, and the critical-path
latency.  Traces compose:

* ``a.then(b)`` — b causally follows a (latency and hops add),
* ``Trace.parallel([...])`` — branches fan out concurrently (messages add,
  latency/hops take the slowest branch).

This is the execution model all physical operators report through; the
"query answer time" in the benchmarks is ``trace.latency`` of the root
operator.

Traces additionally carry a ``completion_time``: the absolute simulated-time
instant at which the operation's last event fired when it ran in event-driven
mode (see :mod:`repro.net.scheduler`).  Purely analytic traces leave it at
``0.0``.  Under composition the completion time is the *latest* involved
instant — sequential and parallel composition both take the max, because the
field is an absolute timestamp, not a duration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar


@dataclass(frozen=True)
class Trace:
    """Cost of one operation: total messages, critical-path hops/latency."""

    messages: int = 0
    hops: int = 0
    latency: float = 0.0
    completion_time: float = 0.0

    ZERO: ClassVar["Trace"]  # populated below

    def then(self, other: "Trace") -> "Trace":
        """Sequential composition: ``other`` starts after ``self`` finishes."""
        return Trace(
            messages=self.messages + other.messages,
            hops=self.hops + other.hops,
            latency=self.latency + other.latency,
            completion_time=max(self.completion_time, other.completion_time),
        )

    @staticmethod
    def parallel(branches: "list[Trace] | tuple[Trace, ...]") -> "Trace":
        """Concurrent composition: all branches start at the same instant."""
        branches = list(branches)
        if len(branches) < 2:
            return branches[0] if branches else Trace.ZERO
        return Trace(
            messages=sum(b.messages for b in branches),
            hops=max(b.hops for b in branches),
            latency=max(b.latency for b in branches),
            completion_time=max(b.completion_time for b in branches),
        )

    @staticmethod
    def hop(latency: float, at: float = 0.0) -> "Trace":
        """A single message taking ``latency`` seconds (delivered at ``at``)."""
        return Trace(messages=1, hops=1, latency=latency, completion_time=at)

    def __add__(self, other: "Trace") -> "Trace":
        """``+`` is sequential composition (alias of :meth:`then`)."""
        return self.then(other)


Trace.ZERO = Trace(0, 0, 0.0)
