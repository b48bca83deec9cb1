"""Event-driven message transport: routed operations in simulated time.

The causal-trace model (:mod:`repro.net.trace`) composes fan-out latency
*analytically* — ``Trace.parallel`` takes the max over branches without ever
interleaving them.  :class:`EventScheduler` is the execution engine for the
alternative model: messages become events on a shared
:class:`~repro.net.simulator.EventSimulator` heap, hop chains are callback
chains (each delivery schedules the next hop), and concurrent fan-outs
genuinely interleave on one simulated clock.  A fan-out over k destinations
therefore *completes at the max* of its per-destination chains because that
is when its last event fires — the paper's parallel-lookup latency argument,
reproduced mechanically instead of assumed.

Determinism: the simulator breaks time ties FIFO, every latency sample comes
from the network's seeded RNGs, and deliveries are appended to
:attr:`EventScheduler.log` in firing order — so the same seed replays the
identical event sequence (asserted by the scheduler tests).

The scheduler shares the network's validation, latency sampling and stats
ledger: a message scheduled here is accounted exactly like one sent through
:meth:`Network.send`, just timestamped with its simulated delivery instant.

With a :class:`~repro.load.model.LoadModel` attached, delivery is no longer
completion: an arrived message enters the destination's FIFO work queue and
its ``on_delivered`` callback fires at the *finish* of service, so queueing
delay and service time flow into every downstream hop and completion time
(latency = link + queue + service).  With no load model — or a zero-cost
profile — finish equals arrival and the event sequence is byte-identical to
the load-free scheduler.

Two opt-in load-control layers ride on top (:mod:`repro.load.shedding`):

* **admission control** — when the destination's
  :class:`~repro.load.shedding.AdmissionPolicy` declines a delivered
  message, the scheduler either *defers* it (re-offered after a penalty;
  force-admitted after ``max_defers``, so deferred work is never lost) or
  *rejects* it: a NACK message of kind ``"reject"`` travels back to the
  sender — accounted like any other message — and the caller's
  ``on_rejected`` callback fires at its arrival, typically to retry another
  replica.  A reject with no ``on_rejected`` handler is parked (deferred)
  instead, so plain data operations stay lossless.  Rejects and deferrals
  are counted in :class:`~repro.net.stats.NetworkStats`.
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
from typing import TYPE_CHECKING, Callable, Protocol

from repro.errors import NodeUnreachableError
from repro.net.simulator import EventSimulator
from repro.net.trace import Trace

if TYPE_CHECKING:
    from repro.load.model import LoadModel
    from repro.load.shedding import HintRegistry
    from repro.net.network import Network

#: Message kind of the admission-control NACK sent back to a rejected sender.
REJECT_KIND = "reject"

#: Callback invoked with the delivery instant of a message or chain.
Completion = Callable[[float], None]

#: ``(src, dst, kind, size)`` messages, as accepted by :meth:`EventScheduler.fanout`.
Sends = list[tuple[str, str, str, int]]

#: A discovered route: ``(src_id, dst_id)`` pairs, sent in order.
Hops = list[tuple[str, str]]

#: One chain of a routed wave: ``(hops, kind, size, on_arrival)``, where
#: ``on_arrival(time)`` does the destination-side work and returns the
#: follow-up sends; see :meth:`EventScheduler.run_chains`.
ChainSpec = tuple[Hops, str, int, Callable[[float], Sends]]

#: A chain whose route failed: its partial ``(hops, kind, size)`` are sent
#: and accounted, but the wave does not wait for it.
PartialChain = tuple[Hops, str, int]


class ChainRunner(Protocol):
    """An interpreter of routed waves: :meth:`Network.run_chains
    <repro.net.network.Network.run_chains>` (causal trace) or
    :meth:`EventScheduler.run_chains` (simulated time)."""

    def run_chains(
        self, chains: list[ChainSpec], untracked: list[PartialChain] | tuple = ()
    ) -> Trace: ...


def then_send(sends: Sends | tuple = ()) -> Callable[[float], Sends | tuple]:
    """An ``on_arrival`` whose follow-up sends are fixed when the wave is built."""
    return lambda _time: sends


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
    (:meth:`send_at`, :meth:`chain`, :meth:`fanout`) and then :meth:`run`
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
        self.log: list[Delivery] = []

    @property
    def hints(self) -> "HintRegistry | None":
        """The network-attached hint registry (single source of truth, so the
        scheduler and routing — which only sees the network — always agree).
        Attach one via ``pnet.event_driven(..., hints=True)`` or by setting
        ``network.hints`` directly."""
        return getattr(self.net, "hints", None)

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
        re-offered like a deferral, so it is never lost.  With a hint
        registry attached, the message departs stamped with ``src``'s
        advertised queue depth, observed by ``dst`` on arrival.
        """
        if src == dst:
            if on_delivered is not None:
                self.sim.schedule_at(time, lambda: on_delivered(time))
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
        # the sender's queue as the message leaves, not as it lands.
        hint: float | None = None
        if self.hints is not None and self.load is not None:
            hint = self.load.advertised_depth(src, time)

        def deliver() -> None:
            self.net.stats.record(kind, size, at=arrival)
            self.log.append(Delivery(arrival, src, dst, kind, size, hint))
            if self.hints is not None and hint is not None:
                self.hints.observe(dst, src, hint, arrival)
            if self.load is None:
                if on_delivered is not None:
                    on_delivered(arrival)
                return
            self._offer(src, dst, arrival, kind, size, arrival, on_delivered, on_rejected, 0)

        self.sim.schedule_at(arrival, deliver)
        return arrival

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

        ``arrival`` is the original network arrival (service stats measure
        queueing delay from it, so park time stays visible); ``at`` advances
        past it on each deferral, ``defers`` counting the park rounds so far.
        The policy is always consulted on the first offer; a *parked* job is
        force-admitted once its park rounds reach ``max(max_defers, 1)``, so
        even ``max_defers=0`` sheds on first contact but can never strand a
        job that had nowhere to bounce.
        """
        load = self.load
        assert load is not None
        policy = load.policy(dst)
        if policy is not None and defers >= max(policy.max_defers, 1):
            # Parked often enough: force-admit so parked work always drains.
            start, finish, depth = load.admit(dst, at, kind, size)
            verdict = "accept"
        else:
            verdict, start, finish, depth = load.offer(dst, at, kind, size, parked=defers > 0)
        if verdict == "accept":
            self.net.stats.record_service(dst, start - arrival, finish - start, depth)
            if on_delivered is None:
                return
            if finish <= arrival:
                # Zero-cost service on an idle queue: complete inline, so the
                # event sequence matches the load-free scheduler exactly.
                on_delivered(arrival)
            else:
                self.sim.schedule_at(finish, lambda: on_delivered(finish))
            return
        if verdict == "reject":  # only possible on the first, unparked offer
            self.net.stats.record_reject(dst)
            if on_rejected is not None:
                try:
                    # The NACK is a real, accounted message (it carries the
                    # rejector's depth hint back to the sender).
                    self.send_at(at, dst, src, REJECT_KIND, 1, on_delivered=on_rejected)
                except NodeUnreachableError:
                    # Sender churned away; fire the callback directly so the
                    # operation's bookkeeping still completes.
                    self.sim.schedule_at(at, lambda: on_rejected(at))
                return
            # Nobody to tell: park the job like a deferral so it is not lost.
        else:
            self.net.stats.record_defer(dst)
        retry = at + policy.defer_penalty
        self.sim.schedule_at(
            retry,
            lambda: self._offer(
                src, dst, retry, kind, size, arrival, on_delivered, on_rejected, defers + 1
            ),
        )

    def chain(
        self,
        hops: list[tuple[str, str]],
        kind: str,
        size: int = 1,
        at: float | None = None,
        on_done: Completion | None = None,
    ) -> None:
        """Schedule a hop sequence as a callback chain starting at ``at``.

        Each delivery schedules the next hop, so independent chains
        interleave hop-by-hop on the shared clock.  ``on_done`` fires with
        the arrival instant of the last hop (or with the start instant for
        an empty chain — still via the simulator, to keep ordering uniform).
        """
        start = self.now if at is None else at

        def step(index: int, time: float) -> None:
            if index == len(hops):
                if on_done is not None:
                    on_done(time)
                return
            src, dst = hops[index]
            self.send_at(
                time,
                src,
                dst,
                kind,
                size,
                on_delivered=lambda arrival: step(index + 1, arrival),
            )

        if not hops:
            if on_done is not None:
                self.sim.schedule_at(start, lambda: on_done(start))
            return
        step(0, start)

    def fanout(
        self,
        sends: list[tuple[str, str, str, int]],
        at: float | None = None,
    ) -> Trace:
        """Schedule ``(src, dst, kind, size)`` messages concurrently and drain.

        All messages depart at the same instant; the returned trace completes
        at the max arrival — the event-driven counterpart of
        ``Trace.parallel`` over single hops.
        """
        start = self.now if at is None else at
        completions: list[float] = []
        accounted = 0
        for src, dst, kind, size in sends:
            if src != dst:
                accounted += 1
            self.send_at(start, src, dst, kind, size, on_delivered=completions.append)
        self.run()
        finish = max(completions, default=start)
        return Trace(
            messages=accounted,
            hops=1 if accounted else 0,
            latency=finish - start,
            completion_time=finish,
        )

    def run_chains(
        self, chains: list[ChainSpec], untracked: list[PartialChain] | tuple = ()
    ) -> Trace:
        """Run a routed wave concurrently from ``now`` and measure it.

        This is the event interpreter of the one chain form every routed
        P-Grid operation emits; :meth:`Network.run_chains
        <repro.net.network.Network.run_chains>` is its analytic twin, with
        the same arguments and the same accounting.  Each chain's hops depart
        as a callback chain; at the destination ``on_arrival`` runs with the
        arrival instant and returns follow-up sends (replica pushes, a
        reply, a forward), which depart together.  A chain completes when
        its last follow-up is delivered (or at arrival when there is none);
        the wave completes at the max over all chains.  ``untracked`` chains
        are scheduled and accounted but never complete — the partial hops of
        failed routes.

        Each interpreter draws latency jitter in its own order: here in
        firing order on the simulated clock, in the analytic twin depth
        first, chain by chain.  Message and hop counts always agree.
        """
        start_time = self.now
        completions: list[float] = []
        totals = {"messages": 0, "critical": 0}
        for hops, kind, size, on_arrival in chains:
            sent = sum(src != dst for src, dst in hops)
            totals["messages"] += sent
            totals["critical"] = max(totals["critical"], sent)

            def arrived(time: float, sent: int = sent, on_arrival: Callable = on_arrival) -> None:
                sends = on_arrival(time)
                if not sends:
                    completions.append(time)
                    return
                replies = sum(src != dst for src, dst, _kind, _size in sends)
                totals["messages"] += replies
                totals["critical"] = max(totals["critical"], sent + min(replies, 1))
                for src, dst, send_kind, send_size in sends:
                    self.send_at(
                        time,
                        src,
                        dst,
                        send_kind,
                        send_size,
                        on_delivered=completions.append,
                    )

            self.chain(hops, kind, size, at=start_time, on_done=arrived)
        for hops, kind, size in untracked:
            self.chain(hops, kind, size, at=start_time)
        self.run()
        finish = max(completions, default=start_time)
        return Trace(
            messages=totals["messages"],
            hops=totals["critical"],
            latency=finish - start_time,
            completion_time=finish,
        )

    def run(self, until: float | None = None) -> None:
        """Drain scheduled events (up to ``until``), advancing the clock."""
        self.sim.run(until)

    def pending(self) -> int:
        """Number of events still queued on the simulator."""
        return self.sim.pending()
