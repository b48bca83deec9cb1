"""The simulated network: registration, delivery, latency, accounting.

``Network`` is deliberately synchronous: ``send`` validates that source and
destination are online, samples the link latency, accounts the message, and
returns a single-hop :class:`~repro.net.trace.Trace`.  Protocol logic (what
the destination *does* with the message) stays in the overlay code, which
composes the returned traces into causal execution trees.  This keeps
thousand-peer simulations fast while preserving exactly the quantities the
paper reports: message counts, hop counts and critical-path answer time.

For genuinely concurrent fan-outs there is an event-driven sibling,
:class:`~repro.net.scheduler.EventScheduler`, which schedules messages as
discrete events over the same network (same validation, same latency
sampling, same stats ledger) and measures completion times on a simulated
clock instead of composing them analytically.  The scheduler optionally
carries a per-peer queueing layer (:mod:`repro.load.model`): with a load
model attached, a delivery completes at link latency + queueing delay +
service time, so hot peers become genuine latency bottlenecks.

Every routed P-Grid operation describes its messages in one form, a list of
:class:`~repro.net.scheduler.ChainSpec` chains (hops, then the follow-up
chains an arrival action returns, then an optional reply once those
completed; a plain message is a one-hop chain), and both models interpret
that form with one signature: :meth:`Network.run_chains` composes ``send``
traces analytically, :meth:`EventScheduler.run_chains
<repro.net.scheduler.EventScheduler.run_chains>` runs the chains on the
simulated clock.  Each interpreter keeps its own
jitter order (depth first here, firing order there), so neither model's
figures depend on the other.

``Network`` also carries the optional queue-depth hint registry that
routing consults via ``peer.network`` (:attr:`Network.hints`).
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

from repro.errors import NodeUnreachableError
from repro.net.latency import ConstantLatency, LatencyModel
from repro.net.node import Node
from repro.net.stats import NetworkStats, StatsFrame
from repro.net.trace import Trace

if TYPE_CHECKING:
    from repro.net.scheduler import ChainSpec, Hops, PartialChain


class Network:
    """A set of registered nodes plus a latency model and a stats ledger."""

    def __init__(self, latency_model: LatencyModel | None = None, seed: int = 0):
        self.latency_model = latency_model or ConstantLatency(0.05)
        self.rng = random.Random(seed)
        self.stats = NetworkStats()
        self.nodes: dict[str, Node] = {}
        #: Moves whenever a node registers, fails or recovers, so a cached
        #: view of who is online knows when to rebuild.
        self.membership = 0
        self._link_latency: dict[tuple[str, str], float] = {}
        #: Optional :class:`~repro.load.shedding.HintRegistry`.  When set,
        #: event-scheduled messages piggyback the sender's queue depth and
        #: hint-aware choices (diffusion, routing ties, reject retries) read
        #: from it.  ``pnet.event_driven(..., hints=True)`` manages this.
        self.hints = None

    # -- membership ---------------------------------------------------------

    def register(self, node: Node) -> None:
        if node.node_id in self.nodes:
            raise ValueError(f"duplicate node id {node.node_id!r}")
        self.nodes[node.node_id] = node
        self.membership += 1

    def node(self, node_id: str) -> Node:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise NodeUnreachableError(node_id, "unknown node") from None

    def __len__(self) -> int:
        return len(self.nodes)

    # -- latency ------------------------------------------------------------

    def link_latency(self, src: str, dst: str) -> float:
        """Base latency of the directed link, sampled once then memoized."""
        if src == dst:
            return 0.0
        key = (src, dst)
        base = self._link_latency.get(key)
        if base is None:
            base = self.latency_model.sample_base(self.rng)
            self._link_latency[key] = base
        return base

    def set_link_latency(self, src: str, dst: str, seconds: float, symmetric: bool = True) -> None:
        """Pin the base latency of a link (tests/benchmarks with known delays)."""
        if seconds < 0:
            raise ValueError("latency must be >= 0")
        self._link_latency[(src, dst)] = seconds
        if symmetric:
            self._link_latency[(dst, src)] = seconds

    # -- delivery -----------------------------------------------------------

    def send(self, src: str, dst: str, kind: str, size: int = 1) -> Trace:
        """Deliver one message; return its single-hop trace.

        Raises :class:`NodeUnreachableError` if the destination is offline or
        unknown.  A local "send" (``src == dst``) is free and unaccounted —
        operators use it when the initiating peer is itself responsible for
        a key.
        """
        if src == dst:
            return Trace.ZERO
        dst_node = self.nodes.get(dst)
        if dst_node is None:
            raise NodeUnreachableError(dst, "unknown node")
        if not dst_node.online:
            raise NodeUnreachableError(dst, "node offline")
        latency = self.link_latency(src, dst) + self.latency_model.sample_jitter(self.rng)
        self.stats.record(kind, size)
        return Trace.hop(latency)

    def _send_hops(self, hops: Hops, kind: str, size: int) -> Trace:
        if len(hops) == 1:  # a message: its hop is the trace (as ZERO.then(hop))
            return self.send(*hops[0], kind, size)
        trace = Trace.ZERO
        for src, dst in hops:
            trace = trace.then(self.send(src, dst, kind, size))
        return trace

    def run_chains(
        self, chains: list[ChainSpec], untracked: list[PartialChain] | tuple = ()
    ) -> Trace:
        """Analytic interpreter of a routed wave.

        The causal-trace twin of :meth:`EventScheduler.run_chains
        <repro.net.scheduler.EventScheduler.run_chains>`, with the same
        arguments and accounting.  Per chain, its hops are sent in order,
        then ``on_arrival`` runs (given the latency so far) and its follow-up
        chains run the same way, then the ``reply``; sibling chains compose
        with ``Trace.parallel``.  ``untracked`` chains are sent last and stay
        out of the returned trace.  Jitter is drawn depth first, chain by chain.
        """
        trace = Trace.parallel([self._run_chain(chain, 0.0) for chain in chains])
        for hops, kind, size in untracked:
            self._send_hops(hops, kind, size)
        return trace

    def _run_chain(self, chain: ChainSpec, at: float) -> Trace:
        hops, kind, size, on_arrival, reply, _on_lost = chain
        trace = self._send_hops(hops, kind, size)
        arrival = at + trace.latency
        follow_ups = on_arrival(arrival)
        if follow_ups:
            trace = trace.then(Trace.parallel([self._run_chain(c, arrival) for c in follow_ups]))
        if reply is not None:
            trace = trace.then(self._run_chain(reply, at + trace.latency))
        return trace

    # -- accounting ---------------------------------------------------------

    @contextmanager
    def frame(self) -> Iterator[StatsFrame]:
        """Scope a stats frame: all messages sent inside are attributed to it."""
        frame = StatsFrame(self.stats)
        try:
            yield frame
        finally:
            frame.close()
