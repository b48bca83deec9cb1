"""Concurrent workload drivers: many in-flight operations, one shared clock.

The data operations on :class:`~repro.pgrid.network.PGridNetwork` drain the
event heap before returning, so back-to-back calls compose *sequentially* in
simulated time.  To study load they must overlap: a driver schedules every
operation's launch as a simulator event and only drains once, so hundreds of
routed lookups are in flight together, contending for the same peer queues.
Every driven operation is a point lookup: it routes to the key's group,
reads there and replies to its initiator.

Two arrival processes:

* :class:`OpenLoopDriver` — Poisson arrivals at a fixed *offered* rate over a
  horizon (open loop: arrivals do not wait for completions, so a saturated
  peer builds a real backlog — the latency knee of benchmark E12);
* :class:`ClosedLoopDriver` — a population of clients that each issue, wait
  for the answer, think, and repeat (closed loop: load self-limits, the
  classic interactive-user model).

Operations route as they launch (hop discovery uses the overlay state *at
launch time*), pick keys Zipf-skewed so popular keys create hot regions, and
optionally spread reads over replica groups
(:func:`~repro.load.diffusion.diffuse_route`).  Each routed leg is one
:class:`~repro.net.scheduler.ChainSpec` started with ``scheduler.chain``:
its hops, then an arrival that reads the store and returns the ``result``
reply chain.  Churn composes: a :class:`~repro.net.churn.ChurnModel`
session trace can be replayed on the same simulator
(``run(churn_trace=...)``).  A leg's ``on_lost`` handler has every hop
checked; a hop lost to churn or to admission control hands the operation
to the leg the handler returns — a re-route from the previous hop, or a
retry at another replica (both bounded) — and a failed route's replay ends
at its first lost hop.  So no in-flight operation is ever silently lost:
every :class:`OpRecord` ends completed or failed, deterministically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from functools import partial

from repro.bench.harness import mean, percentile
from repro.bench.workloads import poisson_arrivals, zipf_cumulative, zipf_rank
from repro.errors import RoutingError
from repro.load.diffusion import diffuse_route, pick_member
from repro.net.churn import ChurnEvent, ChurnModel
from repro.net.scheduler import ChainSpec
from repro.pgrid.network import PGridNetwork
from repro.pgrid.peer import PGridPeer
from repro.pgrid.replication import online_group
from repro.pgrid.routing import point_key, route_hops

#: A flapping overlay could re-route an operation forever; bound it.
MAX_REROUTES = 8

#: Retry budget after admission-control rejects: a rejected operation tries
#: other replica-group members (then fails *reported*, never silently).
MAX_REJECT_RETRIES = 5

#: Message kinds of a driven lookup's routed hops and of its reply.
LOOKUP_KIND = "lookup"
RESULT_KIND = "result"


@dataclass
class OpRecord:
    """One driven operation, from issue to completion (or failure)."""

    index: int
    key: str
    issued: float
    completed: float | None = None
    ok: bool = False
    entries: int = 0
    reroutes: int = 0
    rejections: int = 0
    rejected_by: list[str] = field(default_factory=list)
    error: str | None = None

    @property
    def latency(self) -> float:
        """Issue-to-completion time (the client-observed answer time)."""
        if self.completed is None:
            raise ValueError(f"operation #{self.index} never completed")
        return self.completed - self.issued


def completed_latencies(records: list[OpRecord]) -> list[float]:
    """Latencies of the successfully completed operations."""
    return [r.latency for r in records if r.ok]


def summarize(records: list[OpRecord]) -> dict:
    """Mean/median/p95/p99/max latency plus completion and shed counts."""
    latencies = completed_latencies(records)
    return {
        "ops": len(records),
        "ok": sum(1 for r in records if r.ok),
        "failed": sum(1 for r in records if r.completed is not None and not r.ok),
        "rejections": sum(r.rejections for r in records),
        "mean": mean(latencies),
        "p50": percentile(latencies, 50.0),
        "p95": percentile(latencies, 95.0),
        "p99": percentile(latencies, 99.0),
        "max": max(latencies, default=0.0),
    }


def goodput(records: list[OpRecord], slo: float, horizon: float) -> float:
    """Useful throughput: completed-in-time operations per second.

    Only operations that succeeded *and* answered within ``slo`` seconds
    count — the currency of benchmark E12d, where shedding trades a few
    reported failures for keeping the admitted work fast.
    """
    if slo <= 0 or horizon <= 0:
        raise ValueError("slo and horizon must be > 0")
    good = sum(1 for r in records if r.ok and r.latency <= slo)
    return good / horizon


class _OpEngine:
    """Shared launch/route/arrive machinery behind both drivers."""

    def __init__(
        self,
        pnet: PGridNetwork,
        rng: random.Random,
        diffusion: str = "none",
    ):
        if pnet.scheduler is None:
            raise ValueError("drivers need event-driven execution: use pnet.event_driven()")
        self.pnet = pnet
        self.scheduler = pnet.scheduler
        self.rng = rng
        self.diffusion = diffusion
        self.records: list[OpRecord] = []

    # -- lifecycle -----------------------------------------------------------

    def launch(self, record: OpRecord, start: PGridPeer, on_done=None) -> None:
        """Start one operation now; ``on_done(record)`` fires at completion."""
        self.records.append(record)
        for leg in self._route_leg(record, start, start, self.scheduler.now, on_done):
            self.scheduler.chain(leg)

    def _finish(self, record: OpRecord, time: float, ok: bool, error: str | None, on_done) -> None:
        record.completed = time
        record.ok = ok
        record.error = error
        if on_done is not None:
            on_done(record)

    # -- routing legs --------------------------------------------------------

    def _route_leg(
        self,
        record: OpRecord,
        current: PGridPeer,
        origin: PGridPeer,
        time: float,
        on_done,
    ) -> list[ChainSpec]:
        """Discover (and maybe diffuse) a route from ``current``: its leg."""
        try:
            destination, hops = route_hops(current, point_key(record.key), rng=self.rng)
        except RoutingError as error:
            # The hops travelled before the dead end are replayed so message
            # totals stay honest; the replay ends at its first lost hop.
            replay = ChainSpec(getattr(error, "hops", []), LOOKUP_KIND, on_lost=lambda *_: None)
            self.scheduler.chain(replay, at=time)
            self._finish(record, time, ok=False, error=str(error), on_done=on_done)
            return []
        destination, hops = diffuse_route(
            destination,
            hops,
            policy=self.diffusion,
            rng=self.rng,
            load=self.scheduler.load,
            now=time,
            hints=self.pnet.net.hints,
            observer=origin.node_id,
        )
        return [self._walk(record, destination, hops, origin, on_done)]

    def _walk(
        self,
        record: OpRecord,
        destination: PGridPeer,
        hops: list[tuple[str, str]],
        origin: PGridPeer,
        on_done,
    ) -> ChainSpec:
        """The leg that walks ``hops`` to ``destination`` and reads there."""

        def lost(index: int, rejected: bool, time: float) -> list[ChainSpec]:
            if rejected:
                return self._rejected(record, destination, hops, index, origin, time, on_done)
            # The hop's peer died before serving it: redo from the previous hop.
            return self._reroute(record, hops[index][0], origin, time, on_done)

        def arrived(time: float) -> list[ChainSpec]:
            return self._arrive(record, destination, origin, time, on_done)

        return ChainSpec(hops, LOOKUP_KIND, 1, arrived, on_lost=lost)

    def _rejected(
        self,
        record: OpRecord,
        destination: PGridPeer,
        hops: list[tuple[str, str]],
        index: int,
        origin: PGridPeer,
        time: float,
        on_done,
    ) -> list[ChainSpec]:
        """Hop ``index`` was shed by its destination; the leg that retries.

        A reject at the *final* hop retries another member of the responsible
        replica group (every member holds the data); a reject at a transit
        hop re-routes from the last live peer, where hint-aware reference
        choice steers the new route around the saturated peer.  Both paths
        are bounded by :data:`MAX_REJECT_RETRIES`; exhausting the budget
        fails the operation *reported* (``error="rejected"``), never
        silently.
        """
        src_id, dst_id = hops[index]
        record.rejections += 1
        record.rejected_by.append(dst_id)
        if record.rejections > MAX_REJECT_RETRIES:
            self._finish(
                record, time, ok=False, error="rejected: retry budget exhausted", on_done=on_done
            )
            return []
        src = self.pnet.net.nodes.get(src_id)
        if src is None or not src.online:
            return self._reroute(record, src_id, origin, time, on_done)
        final_hop = index == len(hops) - 1 and dst_id == destination.node_id
        if final_hop:
            alternative = self._alternative_member(record, destination, src_id, time)
            if alternative is not None:
                retry = [(src_id, alternative.node_id)]
                return [self._walk(record, alternative, retry, origin, on_done)]
            self._finish(
                record, time, ok=False, error="rejected: no replica admitted", on_done=on_done
            )
            return []
        # Transit-hop reject: route again from the sender.
        return self._route_leg(record, src, origin, time, on_done)

    def _alternative_member(
        self, record: OpRecord, destination: PGridPeer, chooser_id: str, time: float
    ) -> PGridPeer | None:
        """An untried replica-group member to retry a shed read at ``time``.

        The chooser is the peer that received the reject NACK and sends the
        retry hop; its hint table is ranked when a registry is attached (the
        NACK itself just delivered the rejector's depth to it, and on the
        common cache-hit direct route the chooser *is* the reply-fed
        gateway).  The oracle ranks under the ``least-busy-oracle``
        diffusion policy; otherwise the pick is uniform.
        """
        members = [p for p in online_group(destination) if p.node_id not in record.rejected_by]
        if not members:
            return None
        hints = self.pnet.net.hints
        if self.diffusion == "least-busy-oracle":
            policy = "least-busy-oracle"
        elif hints is not None:
            policy = "least-busy"
        else:
            policy = "random"
        return pick_member(
            members,
            policy,
            rng=self.rng,
            load=self.scheduler.load,
            now=time,
            hints=hints,
            observer=chooser_id,
        )

    def _reroute(
        self, record: OpRecord, from_id: str, origin: PGridPeer, time: float, on_done
    ) -> list[ChainSpec]:
        """The leg that re-routes after a mid-flight failure, from the last live hop."""
        record.reroutes += 1
        if record.reroutes > MAX_REROUTES:
            self._finish(record, time, ok=False, error="too many reroutes", on_done=on_done)
            return []
        peer = self.pnet.net.nodes.get(from_id)
        if peer is None or not peer.online or not isinstance(peer, PGridPeer):
            peer = origin if origin.online else None
        if peer is None:
            self._finish(record, time, ok=False, error="initiator offline", on_done=on_done)
            return []
        return self._route_leg(record, peer, origin, time, on_done)

    # -- destination work ----------------------------------------------------

    def _arrive(
        self, record: OpRecord, destination: PGridPeer, origin: PGridPeer, time: float, on_done
    ) -> list[ChainSpec]:
        """Read the key at ``destination``; the ``result`` reply chain."""
        entries = destination.store.get(record.key)
        record.entries = len(entries)
        if destination is origin:
            self._finish(record, time, ok=True, error=None, on_done=on_done)
            return []
        if not origin.online:
            self._finish(record, time, ok=False, error="initiator offline", on_done=on_done)
            return []
        replied = partial(self._finish, record, ok=True, error=None, on_done=on_done)
        reply = [(destination.node_id, origin.node_id)]
        return [ChainSpec(reply, RESULT_KIND, max(1, len(entries)), replied)]


class _DriverBase:
    """Common setup: key sampling, gateway choice, churn replay."""

    def __init__(
        self,
        pnet: PGridNetwork,
        keys: list[str],
        key_skew: float = 0.0,
        gateways: list[PGridPeer] | None = None,
        diffusion: str = "none",
        seed: int = 0,
    ):
        if not keys:
            raise ValueError("need at least one key to drive")
        self.pnet = pnet
        self.keys = list(keys)
        self.key_skew = key_skew
        self.gateways = list(gateways) if gateways else None
        self.diffusion = diffusion
        self.rng = random.Random(seed)
        self._key_cumulative = zipf_cumulative(len(self.keys), key_skew)

    def _pick_key(self) -> str:
        return self.keys[zipf_rank(self._key_cumulative, self.rng.random())]

    def _pick_gateway(self) -> PGridPeer:
        if self.gateways:
            candidates = [p for p in self.gateways if p.online]
            if candidates:
                return self.rng.choice(candidates)
        return self.pnet.random_online_peer(self.rng)

    def _engine(self) -> _OpEngine:
        return _OpEngine(self.pnet, self.rng, diffusion=self.diffusion)

    def _apply_churn(self, engine: _OpEngine, churn_trace: list[ChurnEvent] | None) -> None:
        """Replay a churn session trace on the driver's shared simulator.

        Event times are relative to the run start (the scheduler clock is
        monotone across operations, so they are shifted onto it).
        """
        if not churn_trace:
            return
        offset = engine.scheduler.now
        shifted = [replace(event, time=event.time + offset) for event in churn_trace]
        ChurnModel(list(self.pnet.peers), seed=0).apply_trace(engine.scheduler.sim, shifted)


class OpenLoopDriver(_DriverBase):
    """Poisson arrivals at ``rate`` ops/s for ``horizon`` simulated seconds.

    Open loop: the arrival process never waits, so offered load is exact and
    overload shows up as queueing delay (and, past saturation, as a backlog
    that keeps draining after the last arrival).
    """

    def __init__(
        self,
        pnet: PGridNetwork,
        keys: list[str],
        rate: float,
        horizon: float,
        **kwargs,
    ):
        super().__init__(pnet, keys, **kwargs)
        if rate <= 0 or horizon <= 0:
            raise ValueError("rate and horizon must be > 0")
        self.rate = rate
        self.horizon = horizon

    def run(self, churn_trace: list[ChurnEvent] | None = None) -> list[OpRecord]:
        engine = self._engine()
        scheduler = engine.scheduler
        self._apply_churn(engine, churn_trace)
        start_time = scheduler.now
        for index, offset in enumerate(poisson_arrivals(self.rng, self.rate, self.horizon)):
            t = start_time + offset
            record = OpRecord(index=index, key=self._pick_key(), issued=t)

            def fire(record: OpRecord = record) -> None:
                engine.launch(record, self._pick_gateway())

            scheduler.sim.schedule_at(t, fire)
        scheduler.run()
        return engine.records


class ClosedLoopDriver(_DriverBase):
    """``clients`` users issuing ``ops_per_client`` ops with think time.

    Closed loop: each client waits for its answer (plus ``think_time``)
    before issuing again, so in-flight operations are bounded by the client
    population and load self-limits near saturation.
    """

    def __init__(
        self,
        pnet: PGridNetwork,
        keys: list[str],
        clients: int = 8,
        ops_per_client: int = 10,
        think_time: float = 0.0,
        **kwargs,
    ):
        super().__init__(pnet, keys, **kwargs)
        if clients < 1 or ops_per_client < 1:
            raise ValueError("need at least one client and one op per client")
        if think_time < 0:
            raise ValueError("think time must be >= 0")
        self.clients = clients
        self.ops_per_client = ops_per_client
        self.think_time = think_time

    def run(self, churn_trace: list[ChurnEvent] | None = None) -> list[OpRecord]:
        engine = self._engine()
        scheduler = engine.scheduler
        self._apply_churn(engine, churn_trace)
        counter = [0]

        def issue(remaining: int) -> None:
            record = OpRecord(index=counter[0], key=self._pick_key(), issued=scheduler.now)
            counter[0] += 1

            def done(_record: OpRecord) -> None:
                if remaining > 1:
                    scheduler.sim.schedule(self.think_time, lambda: issue(remaining - 1))

            engine.launch(record, self._pick_gateway(), on_done=done)

        start_time = scheduler.now
        for _client in range(self.clients):
            # Stagger client starts slightly so launch order is not degenerate.
            scheduler.sim.schedule_at(
                start_time + self.rng.uniform(0.0, 1e-3),
                lambda: issue(self.ops_per_client),
            )
        scheduler.run()
        return engine.records
