"""The P-Grid overlay facade.

``PGridNetwork`` bundles the simulated :class:`~repro.net.network.Network`
with the set of P-Grid peers and exposes the DHT operations the upper layers
use: routed writes and ``lookup``, plus global-view inspection helpers (used
only by tests, benchmarks and the oracle builder — never by the distributed
algorithms themselves).

Every routed write is one **write wave** (:meth:`PGridNetwork.write`) of puts
and removals, grouped by responsible region: every region is routed before
any store changes, so a routing failure changes nothing.  Each region is one
message sized by its puts plus removals; its destination and **all online
replicas** apply the removals, then the puts, and each replica costs one
equally sized push.  Reads are served by whichever replica routing lands on;
:meth:`PGridNetwork.lookup_many` routes and replies once per region.  This
mirrors P-Grid's replication model, where updates are pushed best-effort and
replicas converge through anti-entropy (:mod:`repro.pgrid.updates`).

Every data operation runs in one of two execution models:

* **causal trace** (default) — messages are accounted synchronously and
  latency is composed analytically (``Trace.parallel`` takes the max);
* **event-driven** — inside :meth:`PGridNetwork.event_driven`, hop chains
  become callback chains on a shared discrete-event clock
  (:class:`~repro.net.scheduler.EventScheduler`): region fan-outs and
  replica pushes genuinely interleave, and an operation completes at the
  *measured* max arrival across its regions.  Routing decisions and message
  accounting are identical in both models; only how latency arises differs.

Routed operations describe their messages once, as
:class:`~repro.net.scheduler.ChainSpec` chains — per region its hops, the
destination-side work, and the follow-up chains that work returns (a
shower's tree edges nest this way and name a reply) — and hand them to
:meth:`PGridNetwork.run_chains`, the one place that picks the interpreter
(:meth:`PGridNetwork.ship` / :meth:`PGridNetwork.ship_many` send one-hop
chains through it too): :meth:`Network.run_chains <repro.net.network.Network.run_chains>`
or :meth:`EventScheduler.run_chains
<repro.net.scheduler.EventScheduler.run_chains>`.  Each interpreter draws
latency jitter in its own order (depth first, or firing order).
"""

from __future__ import annotations

import random
from collections import defaultdict
from collections.abc import Sequence
from contextlib import contextmanager
from typing import Iterator

from repro.errors import RoutingError
from repro.net.network import Network
from repro.net.scheduler import ChainSpec, EventScheduler, PartialChain, Sends, message, then_send
from repro.net.simulator import EventSimulator
from repro.net.trace import Trace
from repro.pgrid.datastore import Entry, newest
from repro.pgrid.keys import KeyRange, is_complete_partition, responsible
from repro.pgrid.peer import PGridPeer
from repro.pgrid.routing import point_key, route_hops


class PGridNetwork:
    """A P-Grid overlay over a simulated network."""

    def __init__(self, network: Network | None = None, fanout: int = 4, seed: int = 0):
        # Note: Network defines __len__, so an empty network is falsy —
        # an `or` default here would silently discard it.
        self.net = network if network is not None else Network(seed=seed)
        self.fanout = fanout
        self.rng = random.Random(seed ^ 0x5EED)
        self.peers: list[PGridPeer] = []
        #: ``online_peers()`` as of ``net.membership == _online_at``.
        self._online: list[PGridPeer] = []
        self._online_at = -1
        self._clock = 0  # Lamport-style version counter for updates
        self.scheduler: EventScheduler | None = None
        #: Default replica-diffusion policy for reads ("none" | "random" |
        #: "least-busy"); see :mod:`repro.load.diffusion`.
        self.replica_diffusion = "none"

    # -- execution model -----------------------------------------------------

    def attach_scheduler(
        self, simulator: EventSimulator | None = None, load=None, hints=False
    ) -> EventScheduler:
        """Switch data operations to event-driven (simulated-time) execution.

        ``load`` (a :class:`~repro.load.model.LoadModel`) adds per-peer
        service times and FIFO queueing on top of link latency; give it an
        ``admission=`` policy and saturated peers shed work.  ``hints``
        turns on queue-depth piggybacking: pass ``True`` for a fresh
        :class:`~repro.load.shedding.HintRegistry` (or pass a configured
        registry), attached to the network so routing, diffusion and reject
        retries can consult it.  Returns the attached scheduler.
        """
        if hints:
            from repro.load.shedding import HintRegistry  # deferred: load imports pgrid

            self.net.hints = hints if isinstance(hints, HintRegistry) else HintRegistry()
        self.scheduler = EventScheduler(self.net, simulator, load=load)
        return self.scheduler

    def detach_scheduler(self) -> None:
        """Return to causal-trace execution (any pending events are dropped).

        Also detaches the hint registry installed by :meth:`attach_scheduler`,
        so trace-mode routing goes back to the historical uniform choice.
        """
        self.scheduler = None
        self.net.hints = None

    @contextmanager
    def event_driven(
        self, simulator: EventSimulator | None = None, load=None, hints=False
    ) -> Iterator[EventScheduler]:
        """Scope event-driven execution::

            with pnet.event_driven() as sched:
                results, trace = pnet.lookup_many(keys)
            # trace.latency was measured on sched's clock

        With ``load=LoadModel(...)`` deliveries additionally queue for
        service at their destination peers, so the measured latency is
        link + queueing + service.  ``LoadModel(..., admission=policy)``
        lets saturated peers reject work, and ``hints=True``
        attaches a queue-depth hint registry (see :meth:`attach_scheduler`).
        """
        scheduler = self.attach_scheduler(simulator, load=load, hints=hints)
        try:
            yield scheduler
        finally:
            if self.scheduler is scheduler:
                self.detach_scheduler()

    def run_chains(
        self, chains: list[ChainSpec], untracked: list[PartialChain] | tuple = ()
    ) -> Trace:
        """Interpret a routed wave in the active execution model."""
        runner = self.net if self.scheduler is None else self.scheduler
        return runner.run_chains(chains, untracked)

    def ship(self, src_id: str, dst_id: str, kind: str, size: int = 1) -> Trace:
        """One accounted message in the active execution model (a local one is
        free: ``Trace.ZERO``, which an event-mode wave would stamp with a time)."""
        if src_id == dst_id:
            return Trace.ZERO
        return self.run_chains([message(src_id, dst_id, kind, size)])

    def ship_many(self, sends: Sends) -> Trace:
        """Concurrent ``(src, dst, kind, size)`` messages; completes at the max."""
        if not sends:
            return Trace.ZERO
        return self.run_chains([message(*send) for send in sends])

    # -- membership ----------------------------------------------------------

    def add_peer(self, node_id: str, path: str = "") -> PGridPeer:
        """Create, register and return a new peer at trie position ``path``."""
        peer = PGridPeer(node_id, self.net, path=path, fanout=self.fanout)
        self.peers.append(peer)
        return peer

    def peer(self, node_id: str) -> PGridPeer:
        """The registered peer with ``node_id`` (raises if unknown or not a peer)."""
        node = self.net.node(node_id)
        if not isinstance(node, PGridPeer):
            raise TypeError(f"{node_id!r} is not a P-Grid peer")
        return node

    def online_peers(self) -> list[PGridPeer]:
        """All currently online peers, in membership order."""
        return [p for p in self.peers if p.online]

    def random_online_peer(self, rng: random.Random | None = None) -> PGridPeer:
        """A uniformly chosen online peer (the default gateway for operations).

        It draws from a cached ``online_peers()`` list, rebuilt only when a
        node has registered, failed or recovered since, so every draw sees
        the list ``online_peers()`` would return.
        """
        if self._online_at != self.net.membership:
            self._online, self._online_at = self.online_peers(), self.net.membership
        online = self._online
        if not online:
            raise RoutingError("no online peers in the overlay")
        return (rng or self.rng).choice(online)

    def __len__(self) -> int:
        return len(self.peers)

    # -- versioning ----------------------------------------------------------

    def next_version(self) -> int:
        """Monotone version for updates (models the update protocol's clock)."""
        self._clock += 1
        return self._clock

    # -- data operations (message-accounted) ----------------------------------

    def insert(
        self,
        key: str,
        value: object,
        item_id: str | None = None,
        start: PGridPeer | None = None,
        version: int | None = None,
        kind: str = "insert",
    ) -> Trace:
        """Route an item to its responsible group and store it on all online
        replicas (a write wave of one put; ``version=None`` takes the next)."""
        start = start or self.random_online_peer()
        if item_id is None:
            item_id = f"item-{self._clock}-{self.rng.getrandbits(32):08x}"
        return self.write([(key, item_id, value, version)], start=start, kind=kind)[1]

    def lookup(
        self, key: str, start: PGridPeer | None = None, kind: str = "lookup"
    ) -> tuple[list[Entry], Trace]:
        """Route to the responsible group and return the entries stored under ``key``.

        One extra hop models the answer being shipped back to the initiator.
        """
        start = start or self.random_online_peer()
        entries, trace, destination = self.lookup_at(key, start=start, kind=kind)
        if destination is not start:
            reply = self.ship(destination.node_id, start.node_id, kind, size=max(1, len(entries)))
            trace = trace.then(reply)
        return entries, trace

    def lookup_at(
        self,
        key: str,
        start: PGridPeer | None = None,
        kind: str = "lookup",
        diffusion: str | None = None,
    ) -> tuple[list[Entry], Trace, PGridPeer]:
        """Like :meth:`lookup`, but the result *stays at the destination peer*.

        Returns ``(entries, trace, destination)`` without the reply hop; the
        physical operators use this provenance-aware form to model different
        data flows (ship-to-coordinator vs. re-hash to rendezvous peers).

        ``diffusion`` (default: :attr:`replica_diffusion`) spreads the read
        over the responsible replica group by redirecting the last hop to a
        chosen member — hop count is unchanged, but a hot destination stops
        being the only peer that serves its key.
        """
        start = start or self.random_online_peer()
        try:
            destination, hops = route_hops(start, point_key(key))
        except RoutingError as error:
            error.trace = self.run_chains([ChainSpec(error.hops, kind)])
            raise
        policy = self.replica_diffusion if diffusion is None else diffusion
        destination, hops = self._diffuse(destination, hops, policy, observer=start.node_id)
        trace = self.run_chains([ChainSpec(hops, kind)])
        return destination.store.get(key), trace, destination

    # -- bulk data operations (destination-grouped, message-accounted) ---------

    def _route_regions(
        self, keys, start: PGridPeer, kind: str, rng: random.Random | None = None
    ) -> list[tuple[PGridPeer, list[str], list[tuple[str, str]]]]:
        """Group distinct ``keys`` by responsible region, routing once each.

        Routes are *discovered* only (no messages yet — callers charge the
        returned hop lists at the batch's real size).  Returns
        ``(destination, region_keys, hops)`` per region.  A routing failure
        propagates as :class:`RoutingError` with the partial trace charged
        in the active execution model under the operation's ``kind`` at
        size 1.
        """
        pending = sorted(set(keys))
        regions: list[tuple[PGridPeer, list[str], list[tuple[str, str]]]] = []
        while pending:
            representative = pending[0]
            try:
                destination, hops = route_hops(
                    start, point_key(representative), rng=rng or self.rng
                )
            except RoutingError as error:
                error.trace = self.run_chains([ChainSpec(error.hops, kind)])
                raise
            # Point semantics (zero-padded comparison), matching the route
            # above: a key is covered iff this leaf holds its point.
            covered = [k for k in pending if responsible(destination.path, k)]
            covered_set = set(covered)
            pending = [k for k in pending if k not in covered_set]
            regions.append((destination, covered, hops))
        return regions

    def _diffuse(
        self, destination: PGridPeer, hops: list[tuple[str, str]], policy: str, observer: str
    ) -> tuple[PGridPeer, list[tuple[str, str]]]:
        """Apply a read-diffusion policy to a discovered route's last hop.

        Reads only: writes must keep landing on the routed destination (its
        replica pushes cover the group).  A "none" policy is the identity.
        ``observer`` (the initiating peer) supplies the hint table a
        ``least-busy`` policy ranks members by.
        """
        if policy == "none":
            return destination, hops
        from repro.load.diffusion import diffuse_route  # deferred: load imports pgrid

        return diffuse_route(
            destination,
            hops,
            policy=policy,
            rng=self.rng,
            load=self.scheduler.load if self.scheduler else None,
            now=self.scheduler.now if self.scheduler else 0.0,
            hints=self.net.hints,
            observer=observer,
        )

    def write(
        self,
        puts: Sequence[tuple[str, str, object, int | None]] = (),
        removals: Sequence[tuple[str, str]] = (),
        start: PGridPeer | None = None,
        kind: str = "insert",
    ) -> tuple[bool, Trace]:
        """The one routed write: ``puts`` of ``(key, item_id, value, version)``
        (``None`` takes the next version) and ``removals`` of ``(key, item_id)``.

        Every responsible region is routed from ``start`` before any store
        changes, so a :class:`RoutingError` leaves every store as it was.
        Regions fan out in parallel (in event-driven mode as interleaved
        events; the call completes at the measured max).  Returns whether any
        store changed, and the trace.
        """
        if not puts and not removals:
            return False, Trace.ZERO
        start = start or self.random_online_peer()
        by_key: dict[str, tuple[list, list]] = defaultdict(lambda: ([], []))
        for key, item_id, value, version in puts:
            by_key[key][0].append((item_id, value, version))
        for removal in removals:
            by_key[removal[0]][1].append(removal)
        changed = False
        chains: list[ChainSpec] = []
        for destination, region_keys, hops in self._route_regions(by_key, start, kind):
            entries = [
                Entry(key, item_id, value, self.next_version() if version is None else version)
                for key in region_keys
                for item_id, value, version in by_key[key][0]
            ]
            gone = [removal for key in region_keys for removal in by_key[key][1]]
            region_changed, pushes = self._write_group(destination, kind, entries, gone)
            changed |= region_changed
            chains.append(ChainSpec(hops, kind, len(entries) + len(gone), then_send(pushes)))
        return changed, self.run_chains(chains)

    def _write_group(
        self,
        destination: PGridPeer,
        kind: str,
        entries: list[Entry],
        removals: list[tuple[str, str]],
    ) -> tuple[bool, Sends]:
        """Apply ``removals`` (``(key, item_id)`` pairs), then merge ``entries``,
        on ``destination`` and its online replicas.  Returns whether any store
        changed, and one push per replica sized by the entries plus removals."""
        members = [destination, *(self.net.nodes[rid] for rid in destination.online_replicas())]
        changed = False
        for member in members:
            for key, item_id in removals:
                changed = member.store.delete(key, item_id) or changed
            changed = member.store.merge(entries) > 0 or changed
        size = len(entries) + len(removals)
        return changed, [(destination.node_id, m.node_id, kind, size) for m in members[1:]]

    def insert_many(
        self,
        items: list[tuple[str, str, object]],
        start: PGridPeer | None = None,
        kind: str = "insert",
    ) -> Trace:
        """Bulk insert of ``(key, item_id, value)`` items: one write wave, so
        each responsible region is routed once."""
        puts = [(key, item_id, value, None) for key, item_id, value in items]
        return self.write(puts, start=start, kind=kind)[1]

    def lookup_many(
        self, keys, start: PGridPeer | None = None, kind: str = "lookup"
    ) -> tuple[dict[str, list[Entry]], Trace]:
        """Bulk lookup: route once per responsible region, reply once per region.

        Returns ``(entries_by_key, trace)`` — every requested key maps to the
        (possibly empty) entry list its destination holds.  The reply message
        per region is sized by the region's total result, mirroring
        :meth:`lookup`'s answer shipping.

        In event-driven mode the per-region chains interleave on the
        simulated clock (each destination reads its store at its arrival
        instant) and the call completes when the last region's reply lands —
        the max, not the sum, of the chain latencies.

        With :attr:`replica_diffusion` enabled each region's last hop is
        redirected across the responsible replica group, so the batched read
        hot path (joins, MQP probes, ``by_oids``) spreads query load too —
        same entries, same hop count, different serving member.
        """
        start = start or self.random_online_peer()
        unique = set(keys)
        if not unique:
            return {}, Trace.ZERO
        results: dict[str, list[Entry]] = {}
        chains: list[ChainSpec] = []
        for destination, region_keys, hops in self._route_regions(unique, start, kind):
            destination, hops = self._diffuse(
                destination, hops, self.replica_diffusion, observer=start.node_id
            )

            def arrived(
                _time: float,
                destination: PGridPeer = destination,
                region_keys: list[str] = region_keys,
            ) -> list[ChainSpec]:
                found = 0
                for key in region_keys:
                    entries = destination.store.get(key)
                    results[key] = entries
                    found += len(entries)
                if destination is start:
                    return []
                return [message(destination.node_id, start.node_id, kind, max(1, found))]

            chains.append(ChainSpec(hops, kind, len(region_keys), arrived))
        return results, self.run_chains(chains)

    def delete(self, key: str, item_id: str, start: PGridPeer | None = None) -> tuple[bool, Trace]:
        """Remove an identity from the responsible group's online replicas (a
        write wave of one removal); returns ``(removed, trace)``.

        Offline replicas keep their copy until anti-entropy with a tombstone
        would reconcile them; this simulation propagates deletions to online
        replicas only (a documented simplification of ref. [4]).
        """
        return self.write(removals=[(key, item_id)], start=start, kind="delete")

    def update(
        self,
        key: str,
        item_id: str,
        value: object,
        start: PGridPeer | None = None,
    ) -> tuple[int, Trace]:
        """Write a new version of an existing identity (paper ref. [4] push phase).

        Returns ``(version, trace)``.  Offline replicas miss the push and
        stay stale until anti-entropy reconciles them.
        """
        version = self.next_version()
        puts = [(key, item_id, value, version)]
        return version, self.write(puts, start=start, kind="update")[1]

    # -- global-view helpers (no messages; tests / oracle only) ---------------

    def leaf_groups(self) -> dict[str, list[PGridPeer]]:
        """Peers grouped by their current path."""
        groups: dict[str, list[PGridPeer]] = defaultdict(list)
        for peer in self.peers:
            groups[peer.path].append(peer)
        return dict(groups)

    def trie_paths(self) -> list[str]:
        """Sorted distinct leaf paths of the current trie."""
        return sorted(self.leaf_groups())

    def is_complete(self) -> bool:
        """True when the peers' paths tile the whole key space."""
        return is_complete_partition(self.trie_paths())

    def responsible_group(self, key: str) -> list[PGridPeer]:
        """All peers responsible for ``key`` (global view)."""
        return [p for p in self.peers if responsible(p.path, key)]

    def peers_with_prefix(self, prefix: str) -> list[PGridPeer]:
        """All peers whose path starts with ``prefix`` (global view)."""
        return [p for p in self.peers if p.path.startswith(prefix)]

    def all_entries(self, key_range: KeyRange | None = None) -> list[Entry]:
        """Every entry in the overlay, or in ``key_range``, deduplicated across
        replicas: the newest version of each identity, in first-seen order.

        With a range, each peer contributes only its sorted slice of it
        (:meth:`DataStore.scan`), so the cost follows the range, not the store.
        """
        return newest(
            peer.store if key_range is None else peer.store.scan(key_range) for peer in self.peers
        )
