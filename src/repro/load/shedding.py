"""Load shedding and piggybacked queue-depth hints.

PR 4 made saturated peers *slow*; this module lets them *push back*.  Two
cooperating mechanisms close the load-control loop the paper's
load-balancing sections argue for:

* **Admission control** — every peer may carry a
  :class:`ThresholdAdmission` cap on its queue depth.  The policy is
  consulted on every admission attempt
  (:meth:`~repro.load.model.NodeQueue.offer`, the gate in front of
  :meth:`~repro.load.model.NodeQueue.admit`): a peer with ``max_depth``
  jobs in the system answers ``reject``, and the scheduler NACKs the
  sender, which may retry another replica (bounded).  A rejected job whose
  sender gave no reject handler is *parked* instead: it is re-offered every
  :data:`~repro.net.scheduler.PARK_PENALTY` seconds and force-admitted
  after :data:`~repro.net.scheduler.MAX_PARK_ROUNDS` rounds, so no work is
  ever silently dropped.
  Rejects and park rounds (deferrals) are counted in
  :class:`~repro.net.stats.NetworkStats`.

* **Piggybacked hints** — with a :class:`HintRegistry` attached to the
  network, every delivered message (data, replies, NACKs alike) carries the
  *sender's* advertised queue depth, and the receiver records it in its own
  decaying :class:`HintTable`.  Load-aware decisions — the ``least-busy``
  replica-diffusion policy, the retry-another-replica choice after a
  reject, and routing's choice among equivalent references/detours — then
  rank candidates by these last-seen depths instead of reading simulator
  queue state directly.  The simulator-side oracle remains available as the
  ``least-busy-oracle`` policy, purely as a comparison baseline.

The advertised depth is *conservative*: a peer reports
``min(EWMA of recent depths, instantaneous depth)``, so it may understate a
spike but never overstates its backlog; receiver-side the stored hint only
decays.  Both facts together give the staleness invariant the property
tests pin down: a hint is always ``<=`` the true peak queue depth of its
subject since the piggyback that produced it.

Everything stays deterministic: hint decay is pure arithmetic over
simulated instants, and with ``admission=None`` and no registry attached
every code path collapses to the PR 4 behaviour byte for byte (asserted by
tests).
"""

from __future__ import annotations

import math
import random

#: Admission verdicts.
ACCEPT = "accept"
REJECT = "reject"
DEFER = "defer"


class ThresholdAdmission:
    """Hard queue-depth cap: reject once ``max_depth`` jobs are in the system."""

    def __init__(self, max_depth: int):
        if max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        self.max_depth = max_depth

    def decide(self, depth: int) -> str:
        """Verdict for one job arriving behind ``depth`` queued jobs."""
        return REJECT if depth >= self.max_depth else ACCEPT


class HintTable:
    """One peer's decaying memory of other peers' advertised queue depths.

    ``observe`` records the freshest piggybacked depth per subject;
    ``depth`` returns it decayed exponentially with staleness (half-life
    ``half_life`` seconds), so information that stopped flowing fades
    toward 0 — optimistic, which keeps stale tables from blacklisting a
    peer forever.  Unknown subjects read as 0.0 (never heard from ≈ idle).
    """

    def __init__(self, half_life: float = 0.5):
        if half_life <= 0:
            raise ValueError("half_life must be > 0")
        self.half_life = half_life
        self._entries: dict[str, tuple[float, float]] = {}  # subject -> (depth, at)

    def __len__(self) -> int:
        return len(self._entries)

    def observe(self, subject: str, depth: float, at: float) -> None:
        """Record ``subject`` advertising ``depth`` on a message sent at ``at``."""
        if depth < 0:
            raise ValueError("advertised depth must be >= 0")
        current = self._entries.get(subject)
        if current is None or at >= current[1]:
            self._entries[subject] = (depth, at)

    def depth(self, subject: str, now: float) -> float:
        """Last-seen depth of ``subject``, decayed by staleness (0.0 if unknown)."""
        entry = self._entries.get(subject)
        if entry is None:
            return 0.0
        depth, at = entry
        staleness = max(0.0, now - at)
        return depth * math.pow(0.5, staleness / self.half_life)

    def raw(self, subject: str) -> tuple[float, float] | None:
        """The undecayed ``(depth, at)`` entry for ``subject`` (tests/metrics)."""
        return self._entries.get(subject)


class HintRegistry:
    """All peers' hint tables plus the piggyback entry point.

    One registry serves one overlay: attach it to the network
    (``pnet.event_driven(load=model, hints=True)`` does this) and the event
    scheduler calls :meth:`observe` for every delivered message.  ``clock``
    tracks the latest observation instant so hint consumers that live
    outside the scheduler (routing) have a consistent "now" to decay
    against.
    """

    def __init__(self, half_life: float = 0.5):
        if half_life <= 0:
            raise ValueError("half_life must be > 0")
        self.half_life = half_life
        self.tables: dict[str, HintTable] = {}
        self.clock = 0.0
        self.observations = 0

    def table(self, observer: str) -> HintTable:
        """``observer``'s own hint table (created on first use)."""
        table = self.tables.get(observer)
        if table is None:
            table = self.tables[observer] = HintTable(self.half_life)
        return table

    def observe(self, observer: str, subject: str, depth: float, at: float) -> None:
        """``observer`` received a message from ``subject`` advertising ``depth``."""
        self.clock = max(self.clock, at)
        self.observations += 1
        self.table(observer).observe(subject, depth, at)

    def depth(self, observer: str, subject: str, now: float | None = None) -> float:
        """What ``observer`` currently believes ``subject``'s queue depth is."""
        table = self.tables.get(observer)
        if table is None:
            return 0.0
        return table.depth(subject, self.clock if now is None else now)


def pick_least_hinted(
    candidates: list[str],
    observer: str,
    hints: HintRegistry,
    rng: random.Random,
    now: float | None = None,
) -> str:
    """Pick the candidate ``observer`` believes is least busy.

    Ties (including the common all-unknown case, where every hint reads
    0.0) are broken by ``rng.choice`` over the tied candidates in their
    original order — so with an empty registry this consumes the same
    single RNG draw as plain ``rng.choice(candidates)`` and picks the same
    element, which keeps hint-free runs byte-identical.
    """
    if not candidates:
        raise ValueError("need at least one candidate")
    if len(candidates) == 1:
        return candidates[0]
    depths = [hints.depth(observer, candidate, now) for candidate in candidates]
    best = min(depths)
    tied = [c for c, d in zip(candidates, depths) if d == best]
    return rng.choice(tied)
