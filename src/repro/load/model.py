"""Per-peer service times and FIFO queueing.

The event kernel of PR 3 made fan-out latency a *measured* quantity, but a
peer was still an infinitely fast server: a delivered message completed the
instant it arrived, so load never fed back into latency.  This module models
the missing half.  Every node gets

* a **service-time model** — a :class:`ServiceProfile` mapping message kinds
  to processing cost (seconds per message), scaled by a per-peer **speed
  factor** (heterogeneous hardware, drawn from a configurable distribution
  by :func:`draw_speed_factors`); and
* a **FIFO work queue** — a :class:`NodeQueue` whose single server processes
  admitted messages in arrival order.  A message arriving at ``t`` starts
  service at ``max(t, busy_until)`` and finishes ``service`` seconds later,
  so a delivery's completion becomes *link latency + queueing delay + service
  time* instead of link latency alone.

:class:`LoadModel` bundles profile, speeds and the per-node queues.  The
event scheduler (:mod:`repro.net.scheduler`) calls :meth:`LoadModel.offer`
for every delivered message — the admission gate in front of
:meth:`LoadModel.admit` — and fires the completion callback at the finish
instant; with a zero profile every finish equals its arrival and the event
sequence is byte-identical to running without a load model (asserted by
tests and benchmark E12).

Saturated peers need not accept every job: pass ``admission=`` a
:class:`~repro.load.shedding.ThresholdAdmission` (or a per-peer dict of
them) and :meth:`NodeQueue.offer` consults it before admitting, returning
``reject`` once the peer's queue is at its depth cap (``defer`` for a
parked job offered again).  With ``admission=None`` (the default) every
offer accepts and the behaviour is exactly the PR 4 model.

Everything is deterministic: queues are plain arithmetic over the arrival
order the simulator already fixes, and speed factors come from a seeded RNG.

Each admitted message leaves one :class:`ServiceSample` in
:attr:`LoadModel.samples`, a :class:`~repro.net.records.RecordTable`: the
sample's fields are appended to columns and the record is built when read.

The queues alone count per-peer service; wait and sojourn run from a job's
network arrival, so time parked by admission control counts as waiting.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field

from repro.load.shedding import ACCEPT, DEFER, REJECT, ThresholdAdmission
from repro.net.records import RecordTable


@dataclass(frozen=True)
class ServiceSample:
    """One serviced message: where it queued and how long each phase took."""

    node_id: str
    kind: str
    size: int
    arrival: float
    start: float
    finish: float

    @property
    def wait(self) -> float:
        """Queueing delay from network arrival (park rounds included) to service."""
        return self.start - self.arrival

    @property
    def service(self) -> float:
        """Pure processing time."""
        return self.finish - self.start

    @property
    def sojourn(self) -> float:
        """Total time in the system (wait + service)."""
        return self.finish - self.arrival


class ServiceProfile:
    """Processing cost per message kind, in seconds on a speed-1.0 peer.

    Kinds without an entry cost nothing.
    """

    def __init__(self, costs: dict[str, float] | None = None):
        costs = dict(costs or {})
        for kind, cost in costs.items():
            if cost < 0:
                raise ValueError(f"service cost for {kind!r} must be >= 0, got {cost}")
        self.costs = costs

    def cost(self, kind: str) -> float:
        """Seconds of work one message of ``kind`` demands."""
        return self.costs.get(kind, 0.0)


#: The no-op profile: peers are infinitely fast servers again.
ZERO_PROFILE = ServiceProfile()


def draw_speed_factors(
    node_ids: list[str],
    distribution: str = "lognormal",
    sigma: float = 0.4,
    low: float = 0.5,
    high: float = 2.0,
    seed: int = 0,
) -> dict[str, float]:
    """Heterogeneous per-peer speed factors (service time = cost / speed).

    ``lognormal`` (median 1.0, shape ``sigma``) models the long tail of slow
    machines in deployed P2P populations; ``uniform`` draws from
    ``[low, high]``; ``constant`` gives a homogeneous 1.0 fleet.  Node ids
    are sorted before sampling so the mapping depends only on the membership
    set and the seed, not on insertion order.
    """
    rng = random.Random(seed)
    factors: dict[str, float] = {}
    for node_id in sorted(node_ids):
        if distribution == "constant":
            factors[node_id] = 1.0
        elif distribution == "uniform":
            if not 0 < low <= high:
                raise ValueError("need 0 < low <= high")
            factors[node_id] = rng.uniform(low, high)
        elif distribution == "lognormal":
            factors[node_id] = rng.lognormvariate(0.0, sigma)
        else:
            raise ValueError(f"unknown speed distribution {distribution!r}")
    return factors


@dataclass
class NodeQueue:
    """One peer's FIFO work queue: a single server draining in arrival order.

    The simulator already delivers events in time order (FIFO on ties), so
    the queue reduces to arithmetic: track when the server frees up
    (``busy_until``) and the finish instants of admitted-but-unfinished jobs
    (for the queue-depth metric).  No extra simulator events are needed for
    bookkeeping — completions are scheduled by the caller.
    """

    #: EWMA weight for the advertised (smoothed) queue depth.
    EWMA_ALPHA = 0.5

    #: The peer's speed factor and admission policy, fixed when
    #: :meth:`LoadModel.queue` creates the queue.
    speed: float = 1.0
    policy: ThresholdAdmission | None = None
    busy_until: float = 0.0
    jobs: int = 0
    busy_time: float = 0.0
    total_wait: float = 0.0
    total_sojourn: float = 0.0
    max_depth: int = 0
    rejected: int = 0
    deferred: int = 0
    ewma_depth: float = 0.0
    _finishes: deque = field(default_factory=deque)

    def admit(
        self, at: float, service: float, arrival: float | None = None
    ) -> tuple[float, float, int]:
        """Admit one job at ``at``; return ``(start, finish, depth_on_arrival)``.

        ``depth_on_arrival`` counts the jobs already in the system (queued or
        in service) at ``at`` — the M/G/1-style backlog the new job waits
        behind.  ``arrival`` is the job's network arrival (default ``at``);
        its wait and sojourn are counted from it.
        """
        if service < 0:
            raise ValueError(f"service time must be >= 0, got {service}")
        if arrival is None:
            arrival = at
        while self._finishes and self._finishes[0] <= at:
            self._finishes.popleft()
        depth = len(self._finishes)
        start = max(at, self.busy_until)
        finish = start + service
        self.busy_until = finish
        self._finishes.append(finish)
        self.jobs += 1
        self.busy_time += service
        self.total_wait += start - arrival
        self.total_sojourn += finish - arrival
        self.max_depth = max(self.max_depth, depth + 1)
        self.ewma_depth += self.EWMA_ALPHA * ((depth + 1) - self.ewma_depth)
        return start, finish, depth

    def offer(
        self, at: float, service: float, arrival: float | None = None
    ) -> tuple[str, float, float, int]:
        """The admission gate in front of :meth:`admit`.

        Consults the queue's ``policy`` with the depth the job offered at
        ``at`` would see; on ``accept`` the job is admitted exactly as by
        :meth:`admit` (``arrival`` as there) and ``("accept", start, finish,
        depth)`` is returned.  On ``reject``/``defer`` *nothing is admitted*
        — the queue state is untouched apart from the shed counters — and
        start/finish echo ``at``.  With ``policy=None`` every offer accepts,
        so the admission layer is invisible unless explicitly configured.

        A job offered after its ``arrival`` is a parked job's re-offer: it
        can only wait longer or get in, so any decline is returned (and
        counted) as a deferral — one message therefore counts at most one
        rejection, however many park rounds follow.
        """
        if self.policy is not None:
            depth = self.depth_at(at)
            if self.policy.decide(depth) != ACCEPT:
                if arrival is not None and arrival < at:
                    self.deferred += 1
                    return DEFER, at, at, depth
                self.rejected += 1
                return REJECT, at, at, depth
        start, finish, depth = self.admit(at, service, arrival)
        return ACCEPT, start, finish, depth

    def backlog(self, now: float) -> float:
        """Seconds of admitted work still ahead of a job arriving ``now``."""
        return max(0.0, self.busy_until - now)

    def depth_at(self, now: float) -> int:
        """Jobs in the system (queued or in service) at instant ``now``."""
        while self._finishes and self._finishes[0] <= now:
            self._finishes.popleft()
        return len(self._finishes)

    def advertised_depth(self, now: float) -> float:
        """The depth this peer piggybacks on outgoing messages.

        ``min(EWMA, instantaneous)``: smoothed against one-delivery spikes
        but never *overstating* the current backlog — the conservative half
        of the hint-staleness invariant (a hint is always <= the subject's
        true peak depth since the piggyback).
        """
        return min(self.ewma_depth, float(self.depth_at(now)))


class LoadModel:
    """Service-time model + per-node queues for one overlay.

    Attach to an event scheduler (``EventScheduler(..., load=model)`` or
    ``pnet.event_driven(load=model)``) and every delivered message is routed
    through :meth:`admit`; the scheduler fires downstream callbacks at the
    finish instant, so queueing delay and service time propagate into hop
    chains, fan-outs and full query traces.
    """

    def __init__(
        self,
        profile: ServiceProfile | None = None,
        speeds: dict[str, float] | float = 1.0,
        admission: ThresholdAdmission | dict[str, ThresholdAdmission] | None = None,
    ):
        self.profile = profile or ZERO_PROFILE
        if isinstance(admission, dict):
            self._admission_default: ThresholdAdmission | None = None
            self._admission_by_node = dict(admission)
        else:
            self._admission_default = admission
            self._admission_by_node = {}
        if isinstance(speeds, (int, float)):
            if speeds <= 0:
                raise ValueError("speed factor must be > 0")
            self._default_speed = float(speeds)
            self._speeds: dict[str, float] = {}
        else:
            for node_id, factor in speeds.items():
                if factor <= 0:
                    raise ValueError(f"speed factor for {node_id!r} must be > 0")
            self._default_speed = 1.0
            self._speeds = dict(speeds)
        self.samples = RecordTable(ServiceSample, names=("node_id", "kind"), ints=("size",))
        self._queues: dict[str, NodeQueue] = {}

    def speed(self, node_id: str) -> float:
        return self._speeds.get(node_id, self._default_speed)

    def service_time(self, node_id: str, kind: str) -> float:
        """Seconds ``node_id`` needs to process one ``kind`` message."""
        return self.profile.cost(kind) / self.speed(node_id)

    def queue(self, node_id: str) -> NodeQueue:
        """``node_id``'s work queue, created with its speed and policy on first use."""
        queue = self._queues.get(node_id)
        if queue is None:
            queue = NodeQueue(speed=self.speed(node_id), policy=self.policy(node_id))
            self._queues[node_id] = queue
        return queue

    def backlog(self, node_id: str, now: float) -> float:
        """Seconds of admitted work queued at ``node_id`` (non-mutating:
        peers that never serviced anything stay out of the metrics)."""
        queue = self._queues.get(node_id)
        return queue.backlog(now) if queue is not None else 0.0

    def advertised_depth(self, node_id: str, now: float) -> float:
        """The smoothed depth ``node_id`` piggybacks on outgoing messages."""
        queue = self._queues.get(node_id)
        return queue.advertised_depth(now) if queue is not None else 0.0

    def policy(self, node_id: str) -> ThresholdAdmission | None:
        """The admission policy governing ``node_id`` (None = accept all)."""
        return self._admission_by_node.get(node_id, self._admission_default)

    def offer(
        self, node_id: str, at: float, kind: str, size: int = 1, arrival: float | None = None
    ) -> tuple[str, float, float, int]:
        """Offer one delivered message to ``node_id``'s admission gate at ``at``.

        Returns ``(verdict, start, finish, depth)``; only an ``"accept"``
        verdict mutates the queue and records a sample (see
        :meth:`NodeQueue.offer`: a message offered after its network
        ``arrival``, default ``at``, is a parked job's re-offer).
        """
        if arrival is None:
            arrival = at
        queue = self._queues.get(node_id) or self.queue(node_id)
        service = self.profile.cost(kind) / queue.speed
        verdict, start, finish, depth = queue.offer(at, service, arrival)
        if verdict == ACCEPT:
            self.samples.append(node_id, kind, size, arrival, start, finish)
        return verdict, start, finish, depth

    def admit(
        self, node_id: str, at: float, kind: str, size: int = 1, arrival: float | None = None
    ) -> tuple[float, float, int]:
        """Queue one delivered message at ``at``; return ``(start, finish, depth)``.

        ``arrival`` is its network arrival (default ``at``).
        """
        if arrival is None:
            arrival = at
        queue = self._queues.get(node_id) or self.queue(node_id)
        start, finish, depth = queue.admit(at, self.profile.cost(kind) / queue.speed, arrival)
        self.samples.append(node_id, kind, size, arrival, start, finish)
        return start, finish, depth

    # -- metrics -------------------------------------------------------------

    def busy_by_peer(self) -> dict[str, float]:
        """Total service seconds burned per peer — the query-load currency."""
        return {node_id: queue.busy_time for node_id, queue in self._queues.items()}

    def utilization(self, horizon: float) -> dict[str, float]:
        """Fraction of ``horizon`` each peer spent serving (can exceed 1.0
        when the offered load outruns the peer — the saturation signal)."""
        if horizon <= 0:
            raise ValueError("horizon must be > 0")
        return {
            node_id: queue.busy_time / horizon for node_id, queue in self._queues.items()
        }

    def snapshot(self, horizon: float | None = None) -> dict:
        """Stable per-peer summary (sorted keys; suitable for determinism tests)."""
        out: dict = {}
        for node_id in sorted(self._queues):
            queue = self._queues[node_id]
            stats = {
                "jobs": queue.jobs,
                "busy": round(queue.busy_time, 9),
                "wait": round(queue.total_wait, 9),
                "sojourn": round(queue.total_sojourn, 9),
                "max_depth": queue.max_depth,
            }
            # Shed counters appear only when shedding happened, so runs
            # without an admission policy keep their historical snapshot.
            if queue.rejected:
                stats["rejected"] = queue.rejected
            if queue.deferred:
                stats["deferred"] = queue.deferred
            if horizon:
                stats["utilization"] = round(queue.busy_time / horizon, 9)
            out[node_id] = stats
        return out

    def reset(self) -> None:
        """Drop all queues and samples (speeds and profile are kept)."""
        self.samples.clear()
        self._queues.clear()
