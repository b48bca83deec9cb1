"""Message and byte accounting.

The paper's evaluation currency is *messages* and *hops* (its guarantees are
"logarithmic" in these) plus wall-clock answer time.  ``NetworkStats`` is the
one ledger attached to a :class:`~repro.net.network.Network`: each delivered
message, admission-control rejection and park round (deferral) updates its
counters once.  A ``StatsFrame`` is a view of the ledger that attributes
traffic to a single query or experiment phase::

    with net.frame() as f:
        store.query(...)
    print(f.messages, f.bytes)

A frame reads the ledger's counts minus those at its opening, and freezes
them when its block ends, so frames nest at no cost per message and read the
same inside and after their block.  :attr:`NetworkStats.total` is the frame
opened when the ledger was created (or last reset).

Per-peer service, waits, rejections and deferrals are the load model's
(:class:`~repro.load.model.NodeQueue`), and the instant a wave completes is
its :attr:`~repro.net.trace.Trace.completion_time`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace


@dataclass(slots=True)
class Counts:
    """Message, byte, per-kind, reject and deferral counts."""

    messages: int = 0
    bytes: int = 0
    by_kind: Counter = field(default_factory=Counter)
    bytes_by_kind: Counter = field(default_factory=Counter)
    rejects: int = 0
    deferrals: int = 0

    def copy(self) -> Counts:
        return replace(self, by_kind=self.by_kind.copy(), bytes_by_kind=self.bytes_by_kind.copy())


class StatsFrame:
    """The ledger's counts since this frame opened, frozen once it closes."""

    def __init__(self, ledger: NetworkStats) -> None:
        self._ledger = ledger
        self._opened = ledger.counts.copy()
        self._closed: Counts | None = None

    def close(self) -> None:
        """Freeze the frame's figures at the ledger's current counts."""
        self._closed = self._ledger.counts.copy()

    def _end(self) -> Counts:
        return self._ledger.counts if self._closed is None else self._closed

    @property
    def messages(self) -> int:
        return self._end().messages - self._opened.messages

    @property
    def bytes(self) -> int:
        return self._end().bytes - self._opened.bytes

    @property
    def by_kind(self) -> Counter:
        """Messages per kind; kinds this frame never saw are left out."""
        return self._end().by_kind - self._opened.by_kind

    @property
    def bytes_by_kind(self) -> Counter:
        """Bytes per kind, for the kinds in :attr:`by_kind`."""
        end, opened = self._end().bytes_by_kind, self._opened.bytes_by_kind
        return Counter({kind: end[kind] - opened[kind] for kind in self.by_kind})

    @property
    def total_rejects(self) -> int:
        """Admission-control rejections across all peers in this frame."""
        return self._end().rejects - self._opened.rejects

    @property
    def total_deferrals(self) -> int:
        """Park rounds (deferrals) across all peers in this frame."""
        return self._end().deferrals - self._opened.deferrals

    def snapshot(self) -> dict:
        """Return a plain-dict summary (stable for logging/tests).

        The shed totals appear only when admission control rejected or
        deferred something in this frame.
        """
        snap = {
            "messages": self.messages,
            "bytes": self.bytes,
            "by_kind": dict(self.by_kind),
        }
        rejects, deferrals = self.total_rejects, self.total_deferrals
        if rejects:
            snap["rejects"] = rejects
        if deferrals:
            snap["deferrals"] = deferrals
        return snap


class NetworkStats:
    """The one ledger of a network; frames are views of it."""

    def __init__(self) -> None:
        self.counts = Counts()
        self.total = StatsFrame(self)

    def record(self, kind: str, size: int) -> None:
        """Account one delivered message."""
        counts = self.counts
        counts.messages += 1
        counts.bytes += size
        counts.by_kind[kind] += 1
        counts.bytes_by_kind[kind] += size

    def record_reject(self) -> None:
        """Account one admission-control rejection."""
        self.counts.rejects += 1

    def record_defer(self) -> None:
        """Account one admission-control deferral (park round)."""
        self.counts.deferrals += 1

    @property
    def messages(self) -> int:
        return self.total.messages

    @property
    def bytes(self) -> int:
        return self.total.bytes

    def reset(self) -> None:
        """Restart :attr:`total` from now (open frames are left untouched)."""
        self.total = StatsFrame(self)
