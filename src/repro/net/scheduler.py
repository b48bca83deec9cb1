"""Event-driven message transport: routed operations in simulated time.

The causal-trace model (:mod:`repro.net.trace`) composes fan-out latency
*analytically* — ``Trace.parallel`` takes the max over branches without ever
interleaving them.  :class:`EventScheduler` is the execution engine for the
alternative model: messages become events on a shared
:class:`~repro.net.simulator.EventSimulator` heap, hop chains are callback
chains (each delivery schedules the next hop), and concurrent fan-outs
genuinely interleave on one simulated clock.  A fan-out over k
destinations therefore *completes at the max* of its per-destination chains
because that is when its last event fires — the paper's parallel-lookup
latency argument, reproduced mechanically instead of assumed.

An event is a handler and its arguments: :meth:`EventScheduler.send_at`
schedules the bound ``_deliver`` with the message's fields, and a service
completion, a NACK fallback or a park retry is scheduled the same way, so
a message builds no closure.

The routed operations of :mod:`repro.pgrid` reach the scheduler through
:meth:`EventScheduler.run_chains`, which runs the one :class:`ChainSpec`
form (nested follow-up chains and replies, as the shower range query's tree
edges use them) that :meth:`Network.run_chains
<repro.net.network.Network.run_chains>` interprets analytically.  The load
drivers start theirs with :meth:`EventScheduler.chain`, which neither
drains nor measures.  One hop stepper walks every chain of several hops;
with an ``on_lost`` handler it checks each hop, and a *lost* hop (see
:class:`ChainSpec`) hands over to the chains the handler returns.

Determinism: the simulator breaks time ties FIFO, every latency sample comes
from the network's seeded RNGs, and deliveries are appended to
:attr:`EventScheduler.log` in firing order — so the same seed replays the
identical event sequence (asserted by the scheduler tests).  The log is a
:class:`~repro.net.records.RecordTable`: a delivery appends its field
values to columns, and a :class:`Delivery` is built only when the log is
read, so a long run keeps no object per message.

The scheduler shares the network's validation, latency sampling and stats
ledger: a message scheduled here is accounted exactly like one sent through
:meth:`Network.send`, at its simulated delivery instant.

With a :class:`~repro.load.model.LoadModel` attached, delivery is no longer
completion: an arrived message enters the destination's FIFO work queue and
its ``on_delivered`` callback fires at the *finish* of service, so queueing
delay and service time flow into every downstream hop and completion time
(latency = link + queue + service).  With no load model — or a zero-cost
profile — finish equals arrival and the event sequence is byte-identical to
the load-free scheduler.

Two opt-in load-control layers ride on top (:mod:`repro.load.shedding`):

* **admission control** — when the destination's
  :class:`~repro.load.shedding.ThresholdAdmission` *rejects* a delivered
  message, a NACK message of kind ``"reject"`` travels back to the sender —
  accounted like any other message — and the caller's ``on_rejected``
  callback (a chain's ``on_lost``) fires at its arrival, typically to retry
  another replica.  A
  reject with no ``on_rejected`` handler is parked instead (re-offered
  every :data:`PARK_PENALTY` seconds, force-admitted after
  :data:`MAX_PARK_ROUNDS` rounds), so plain data operations stay lossless.
  Rejects and park rounds (deferrals) are counted once in
  :class:`~repro.net.stats.NetworkStats`, and per peer in the
  destination's :class:`~repro.load.model.NodeQueue`, which counts a
  parked job's wait from its network arrival.
* **hint piggybacking** — with a
  :class:`~repro.load.shedding.HintRegistry` attached, every message
  (data, reply and NACK alike) is stamped with the sender's advertised
  queue depth at departure, and the receiver records it in its hint table
  at arrival.  Observation is passive — no extra events, messages or RNG
  draws — so attaching a registry leaves the event sequence untouched
  until some policy *consults* the hints.

With ``admission=None`` and no registry both layers vanish and the event
sequence is byte-identical to PR 4's scheduler (asserted by tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, NamedTuple, Protocol

from repro.errors import NodeUnreachableError
from repro.net.records import RecordTable
from repro.net.simulator import EventSimulator
from repro.net.trace import Trace

if TYPE_CHECKING:
    from repro.load.model import LoadModel
    from repro.load.shedding import HintRegistry
    from repro.net.network import Network

#: Message kind of the admission-control NACK sent back to a rejected sender.
REJECT_KIND = "reject"

#: Seconds a parked job waits before it is offered again.  A reject with no
#: ``on_rejected`` handler has nobody to tell, so the job is parked at the
#: rejecting peer instead of being dropped.
PARK_PENALTY = 0.01

#: Park rounds after which a parked job is force-admitted, so admission
#: control degrades a saturated peer's latency instead of losing work.
MAX_PARK_ROUNDS = 8

#: Callback invoked with the delivery instant of a message or chain.
Completion = Callable[[float], None]

#: ``(src, dst, kind, size)`` messages, as accepted by :func:`then_send`.
Sends = list[tuple[str, str, str, int]]

#: A discovered route: ``(src_id, dst_id)`` pairs, sent in order.
Hops = list[tuple[str, str]]


class ChainSpec(NamedTuple):
    """One chain of a routed wave; see :meth:`EventScheduler.run_chains`.

    ``hops`` are sent in order; at the destination ``on_arrival(time)`` does
    the destination-side work and returns the follow-up chains (or nothing),
    which depart together.  Once they have all completed, ``reply`` (if any)
    departs, and the chain completes when the reply does.

    ``on_lost(index, rejected, time)`` makes the event interpreter check
    every hop: hop ``index`` is *lost* when its destination is offline at
    departure, goes offline before its delivery is serviced, or rejects it
    (``rejected``, at the NACK's arrival).  The chains ``on_lost`` returns
    take over like follow-ups.  Without it an offline destination raises
    :class:`NodeUnreachableError` and a rejected hop is parked.  The
    analytic interpreter loses no hops.
    """

    hops: Hops
    kind: str
    size: int = 1
    on_arrival: Callable[[float], "list[ChainSpec] | tuple | None"] = lambda _time: ()
    reply: "ChainSpec | None" = None
    on_lost: "Callable[[int, bool, float], list[ChainSpec] | tuple | None] | None" = None


#: A chain whose route failed: its partial ``(hops, kind, size)`` are sent
#: and accounted, but the wave does not wait for it.
PartialChain = tuple[Hops, str, int]


def message(src: str, dst: str, kind: str, size: int = 1) -> ChainSpec:
    """One message as a chain: a single hop, no follow-ups, no reply."""
    return ChainSpec([(src, dst)], kind, size)


class ChainRunner(Protocol):
    """An interpreter of routed waves: :meth:`Network.run_chains
    <repro.net.network.Network.run_chains>` (causal trace) or
    :meth:`EventScheduler.run_chains` (simulated time)."""

    def run_chains(
        self, chains: list[ChainSpec], untracked: list[PartialChain] | tuple = ()
    ) -> Trace: ...


def then_send(sends: Sends | tuple) -> Callable[[float], list[ChainSpec]]:
    """An ``on_arrival`` whose follow-up messages are fixed when the wave is built."""
    follow_ups = [message(*send) for send in sends]
    return lambda _time: follow_ups


@dataclass(frozen=True)
class Delivery:
    """One delivered message, as recorded in the scheduler's event log.

    ``hint`` is the piggybacked queue-depth metadata: the sender's
    advertised depth at departure, or ``None`` when no hint registry is
    attached — so hint-free logs compare equal to their historical shape.
    """

    time: float
    src: str
    dst: str
    kind: str
    size: int
    hint: float | None = None


class EventScheduler:
    """Schedules overlay messages as discrete events over a network.

    One scheduler wraps one :class:`~repro.net.network.Network` plus one
    :class:`EventSimulator`.  Operations schedule their message graphs
    (:meth:`send_at`, :meth:`chain`, :meth:`run_chains`) and then :meth:`run`
    drains the heap; the clock is monotone across operations, so back-to-back
    calls compose sequentially in simulated time while everything scheduled
    before a drain overlaps.
    """

    def __init__(
        self,
        network: "Network",
        simulator: EventSimulator | None = None,
        load: "LoadModel | None" = None,
    ):
        self.net = network
        self.sim = simulator or EventSimulator()
        self.load = load
        self.log = RecordTable(Delivery, names=("src", "dst", "kind"), ints=("size",))

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.sim.now

    def send_at(
        self,
        time: float,
        src: str,
        dst: str,
        kind: str,
        size: int = 1,
        on_delivered: Completion | None = None,
        on_rejected: Completion | None = None,
    ) -> float:
        """Schedule one message departing ``src`` at ``time``; return arrival.

        Validation and latency sampling happen at scheduling time (identical
        to :meth:`Network.send`); accounting and the ``on_delivered`` callback
        happen when the delivery event fires.  A local send (``src == dst``)
        is free and unlogged, like its synchronous counterpart, but the
        callback still goes through the simulator so completion ordering is
        uniform.

        With a load model attached, the arrived message is offered to the
        destination's work queue and ``on_delivered`` fires at its service
        *finish* instant rather than at arrival (local sends stay free — no
        message is processed).  The returned value remains the network
        arrival: queueing happens after it.

        If the destination's admission policy *rejects* the message and
        ``on_rejected`` is given, a NACK travels back to ``src`` and
        ``on_rejected`` fires with its arrival instant (the caller retries
        elsewhere); without a handler the rejected job is parked and
        re-offered until it is admitted, so it is never lost.  With a hint
        registry attached, the message departs stamped with ``src``'s
        advertised queue depth, observed by ``dst`` on arrival.
        """
        if src == dst:
            if on_delivered is not None:
                self.sim.schedule_at(time, on_delivered, time)
            return time
        dst_node = self.net.nodes.get(dst)
        if dst_node is None:
            raise NodeUnreachableError(dst, "unknown node")
        if not dst_node.online:
            raise NodeUnreachableError(dst, "node offline")
        latency = self.net.link_latency(src, dst)
        latency += self.net.latency_model.sample_jitter(self.net.rng)
        arrival = time + latency
        # Piggybacked metadata is stamped at departure: the hint describes
        # the sender's queue as the message leaves, not as it lands.  The
        # registry is the network's (``Network.hints``), so the scheduler
        # and routing, which only sees the network, always agree.
        hints = self.net.hints
        hint: float | None = None
        if hints is not None and self.load is not None:
            hint = self.load.advertised_depth(src, time)
        self.sim.schedule_at(
            arrival,
            self._deliver,
            src,
            dst,
            kind,
            size,
            arrival,
            hint,
            hints,
            on_delivered,
            on_rejected,
        )
        return arrival

    def _deliver(
        self,
        src: str,
        dst: str,
        kind: str,
        size: int,
        arrival: float,
        hint: float | None,
        hints: "HintRegistry | None",
        on_delivered: Completion | None,
        on_rejected: Completion | None,
    ) -> None:
        """The delivery event of a message :meth:`send_at` scheduled.

        ``hint`` is the depth stamped at departure and ``hints`` the
        registry that was attached then, which observes it.
        """
        self.net.stats.record(kind, size)
        self.log.append(arrival, src, dst, kind, size, hint)
        if hint is not None:
            hints.observe(dst, src, hint, arrival)
        if self.load is None:
            if on_delivered is not None:
                on_delivered(arrival)
            return
        self._offer(src, dst, arrival, kind, size, arrival, on_delivered, on_rejected, 0)

    def _offer(
        self,
        src: str,
        dst: str,
        at: float,
        kind: str,
        size: int,
        arrival: float,
        on_delivered: Completion | None,
        on_rejected: Completion | None,
        defers: int,
    ) -> None:
        """Offer a delivered message to ``dst``'s admission gate at ``at``.

        ``arrival`` is the original network arrival (the queue counts the
        job's wait from it, so park time stays visible); ``at`` advances
        past it on each park round, ``defers`` counting the rounds so far.
        A parked job is force-admitted once it has been parked
        :data:`MAX_PARK_ROUNDS` times.
        """
        load = self.load
        assert load is not None
        if defers >= MAX_PARK_ROUNDS:
            # Parked often enough: force-admit so parked work always drains.
            start, finish, _depth = load.admit(dst, at, kind, size, arrival)
            verdict = "accept"
        else:
            verdict, start, finish, _depth = load.offer(dst, at, kind, size, arrival)
        if verdict == "accept":
            if on_delivered is None:
                return
            if finish <= arrival:
                # Zero-cost service on an idle queue: complete inline, so the
                # event sequence matches the load-free scheduler exactly.
                on_delivered(arrival)
            else:
                self.sim.schedule_at(finish, on_delivered, finish)
            return
        if verdict == "reject":  # only possible on the first, unparked offer
            self.net.stats.record_reject()
            if on_rejected is not None:
                try:
                    # The NACK is a real, accounted message (it carries the
                    # rejector's depth hint back to the sender).
                    self.send_at(at, dst, src, REJECT_KIND, 1, on_delivered=on_rejected)
                except NodeUnreachableError:
                    # Sender churned away; fire the callback directly so the
                    # operation's bookkeeping still completes.
                    self.sim.schedule_at(at, on_rejected, at)
                return
            # Nobody to tell: park the job so it is not lost.
        else:
            self.net.stats.record_defer()
        retry = at + PARK_PENALTY
        self.sim.schedule_at(
            retry,
            self._offer,
            src,
            dst,
            retry,
            kind,
            size,
            arrival,
            on_delivered,
            on_rejected,
            defers + 1,
        )

    def chain(self, spec: ChainSpec, at: float | None = None) -> None:
        """Start ``spec`` at ``at`` (default: now); nothing drains or waits.

        Its follow-up chains start the same way.  As nothing waits for them,
        ``spec`` names no ``reply``.  A chain with no hops arrives inline.
        """
        if spec.reply is not None:
            raise ValueError("a fire-and-forget chain has no reply: use run_chains")
        _Walk(self, spec, None).step(self.now if at is None else at)

    def fanout(self, sends: Sends) -> Trace:
        """Run ``(src, dst, kind, size)`` messages as one wave from ``now``.

        No ``src/`` code calls it (``PGridNetwork.ship_many`` sends the same
        one-hop chains); it stays because ``perfbench/tracing.py`` wraps it.
        """
        return self.run_chains([message(*send) for send in sends])

    def run_chains(
        self, chains: list[ChainSpec], untracked: list[PartialChain] | tuple = ()
    ) -> Trace:
        """Run a routed wave concurrently from ``now`` and measure it.

        This is the event interpreter of the one chain form every routed
        P-Grid operation emits; :meth:`Network.run_chains
        <repro.net.network.Network.run_chains>` is its analytic twin, with
        the same arguments and the same accounting.  Each chain's hops depart
        as a callback chain; at the destination ``on_arrival`` runs with the
        arrival instant and returns follow-up chains (replica pushes, a
        reply, a forward, a shower's sub-ranges), which depart together and
        nest the same way.  Once the last of them completes, the chain's
        ``reply`` departs; a chain completes when its reply does, or else at
        its last follow-up's completion (at arrival when there is none).
        The wave completes at the max over all chains.  ``untracked`` chains
        are scheduled and accounted but never complete — the partial hops of
        failed routes.

        Each interpreter draws latency jitter in its own order: here in
        firing order on the simulated clock, in the analytic twin depth
        first, chain by chain.  Message and hop counts always agree.
        """
        start_time = self.now
        wave = {"messages": 0, "hops": 0, "finish": start_time}

        def done(time: float, hops: int) -> None:
            wave["finish"] = max(wave["finish"], time)
            wave["hops"] = max(wave["hops"], hops)

        for chain in chains:
            self._run_chain(chain, start_time, wave, done)
        for hops, kind, size in untracked:
            self.chain(ChainSpec(hops, kind, size), at=start_time)
        self.run()
        return Trace(
            messages=wave["messages"],
            hops=wave["hops"],
            latency=wave["finish"] - start_time,
            completion_time=wave["finish"],
        )

    def _run_chain(
        self, chain: ChainSpec, at: float, wave: dict, on_done: Callable[[float, int], None]
    ) -> None:
        """Schedule ``chain`` from ``at``; ``on_done(time, hops)`` fires when it
        completes, with its critical-path hop count.  Messages are counted
        into ``wave`` as they are scheduled."""
        hops, kind, size, on_arrival, reply, on_lost = chain
        sent = sum(src != dst for src, dst in hops)
        wave["messages"] += sent

        def settled(time: float, depth: int) -> None:
            if reply is None:
                on_done(time, sent + depth)
            else:
                self._run_chain(reply, time, wave, lambda t, h: on_done(t, sent + depth + h))

        def arrived(time: float, lost: tuple[int, bool] | None = None) -> None:
            follow_ups = on_arrival(time) if lost is None else on_lost(*lost, time)
            if not follow_ups:
                settled(time, 0)
                return
            pending = {"count": len(follow_ups), "finish": time, "hops": 0}

            def merged(end: float, hops: int) -> None:
                pending["count"] -= 1
                pending["finish"] = max(pending["finish"], end)
                pending["hops"] = max(pending["hops"], hops)
                if pending["count"] == 0:
                    settled(pending["finish"], pending["hops"])

            for follow_up in follow_ups:
                self._run_chain(follow_up, time, wave, merged)

        if len(hops) == 1 and on_lost is None:  # one message: no stepper
            self.send_at(at, *hops[0], kind, size, on_delivered=arrived)
        elif hops:
            _Walk(self, chain, arrived).step(at)
        else:
            # A wave's zero-hop chain arrives through the simulator, so its
            # destination work runs after the whole wave has departed.
            self.sim.schedule_at(at, _Walk(self, chain, arrived).step, at)

    def run(self, until: float | None = None) -> None:
        """Drain scheduled events (up to ``until``), advancing the clock."""
        self.sim.run(until)

    def pending(self) -> int:
        """Number of events still queued on the simulator."""
        return self.sim.pending()


class _Walk:
    """One chain stepping through its hops: the scheduler's one hop stepper.

    Each delivery steps the next hop, so chains interleave hop by hop.  The
    walk ends with ``arrived(time, lost)``, ``lost = (index, rejected)``
    for a lost hop; a fire-and-forget walk (no ``arrived``) runs the
    chain's ``on_arrival`` or ``on_lost`` and starts the chains they
    return.  Its callbacks are bound methods: no event holds a cycle.
    """

    __slots__ = ("scheduler", "chain", "arrived", "index")

    def __init__(self, scheduler: EventScheduler, chain: ChainSpec, arrived: Callable | None):
        self.scheduler, self.chain, self.arrived, self.index = scheduler, chain, arrived, 0

    def step(self, time: float) -> None:
        """Hop ``index`` departs at ``time``, when its predecessor arrived."""
        chain, index = self.chain, self.index
        hops, checked = chain.hops, chain.on_lost is not None
        nodes = self.scheduler.net.nodes
        if checked and index and not nodes[hops[index - 1][1]].online:
            self.end(time, (index - 1, False))  # died before it served the hop
            return
        if index == len(hops):
            self.end(time)
            return
        src, dst = hops[index]
        if checked:
            node = nodes.get(dst)
            if node is None or not node.online:
                self.end(time, (index, False))
                return
        self.index = index + 1
        rejected = self.rejected if checked else None
        self.scheduler.send_at(time, src, dst, chain.kind, chain.size, self.step, rejected)

    def rejected(self, time: float) -> None:
        """The NACK of the hop in flight arrived: that hop is lost."""
        self.end(time, (self.index - 1, True))

    def end(self, time: float, lost: tuple[int, bool] | None = None) -> None:
        """The chain arrived at ``time``, or lost hop ``lost``."""
        if self.arrived is not None:
            self.arrived(time, lost)
            return
        chain = self.chain
        follow_ups = chain.on_arrival(time) if lost is None else chain.on_lost(*lost, time)
        for follow_up in follow_ups or ():
            self.scheduler.chain(follow_up, time)
