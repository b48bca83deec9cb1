"""Greedy prefix routing (paper §2: "prefix-based query routing").

At each step the current peer compares the target key with its own path; the
first differing bit determines the routing level, and the message is forwarded
to a reference covering the complementary subtree at that level.  Every hop
extends the matched prefix by at least one bit, giving the logarithmic hop
bound the paper's cost model builds on (O(log |Π|) w.h.p. for balanced tries).

Fault tolerance: offline/stale references are skipped; when *all* references
at the needed level are unusable the router detours through an online replica
of the current peer (replicas sample their references independently), and
fails with :class:`RoutingError` only when no progress is possible at all.

Three refinements over plain hop-by-hop routing support the batched data
operations in :mod:`repro.pgrid.network`:

* **route caching** — every peer keeps a :class:`RouteCache` mapping
  key-space prefixes (the paths of previously reached destinations) to the
  destination's address.  A cache hit turns an O(log N) route into one
  direct message.  Entries are validated at use time and evicted when the
  cached peer churned away (went offline, changed path, disappeared); a
  routing dead-end (offline detour) invalidates the covering entry too.

* **hint-aware reference choice** (opt-in: attach a
  :class:`~repro.load.shedding.HintRegistry` to the network, e.g. via
  ``pnet.event_driven(load=..., hints=True)``) — when several references
  (or replica detours) make equal routing progress, the current peer
  prefers the candidate it has heard the smallest piggybacked queue-depth
  hint from, steering traffic away from saturated peers using only
  information a real peer possesses.  With no registry attached — or no
  hints heard yet — the choice is the historical uniform ``rng.choice``,
  consuming the same RNG draws: hint-free runs stay byte-identical.

* **deferred accounting** — :func:`route_hops` discovers the hop sequence
  without sending anything, so bulk operations can group keys by destination
  first and then charge each route *once per region* with the region's real
  batch size.  Every routed operation, the shower range query included,
  hands its routes to one interpreter as
  :class:`~repro.net.scheduler.ChainSpec` chains (hops, then the follow-up
  chains an arrival action returns, then an optional reply):
  :meth:`Network.run_chains
  <repro.net.network.Network.run_chains>` composes the traces analytically,
  :meth:`EventScheduler.run_chains
  <repro.net.scheduler.EventScheduler.run_chains>` runs them as interleaved
  callback chains on the simulated clock.  Each interpreter draws latency
  jitter in its own order (depth first, or firing order).
"""

from __future__ import annotations

import random
from collections import OrderedDict

from repro.errors import RoutingError
from repro.net.scheduler import ChainRunner, ChainSpec
from repro.net.trace import Trace
from repro.pgrid.keys import common_prefix_length, responsible
from repro.pgrid.peer import PGridPeer

#: Hard bound on route length; ordinary routes are O(log N) so hitting this
#: indicates a broken overlay rather than a long route.
MAX_HOPS = 256

#: Zero-padding depth for :func:`point_key`; deeper than any realistic trie
#: (the oracle builder caps paths at 48 bits).
POINT_PAD_DEPTH = 64


def point_key(key: str, depth: int = POINT_PAD_DEPTH) -> str:
    """Zero-pad ``key`` so routing lands on the leaf covering its *point*.

    A bare key routed through :func:`route` may stop at any peer inside the
    key's subtree (the acceptable entry points for prefix queries).  Data
    operations need the exact leaf responsible for the key as a point in
    ``[0, 1)`` — the leftmost leaf under the key — which the zero-padded key
    routes to even when the trie is split deeper than the key is long.
    """
    return key + "0" * depth


class RouteCache:
    """Per-peer memory of last-known destinations, keyed by destination path.

    A successful route towards ``key`` learns that the peer whose path ``π``
    prefixes ``key`` currently answers for that region; the next route to any
    key under ``π`` tries that peer with a single direct message (the
    underlying network is point-to-point — P-Grid peers may contact any
    address they know).  Entries are *validated at use*: the cached peer must
    still exist, be online, and still sit at the cached path, otherwise the
    entry is evicted.  Bounded LRU.
    """

    def __init__(self, capacity: int = 512):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._dest_by_prefix: OrderedDict[str, str] = OrderedDict()
        self._max_prefix = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._dest_by_prefix)

    def get(self, key: str) -> tuple[str, str] | None:
        """Longest cached ``(prefix, peer_id)`` whose prefix covers ``key``."""
        for length in range(min(len(key), self._max_prefix), -1, -1):
            prefix = key[:length]
            peer_id = self._dest_by_prefix.get(prefix)
            if peer_id is not None:
                self._dest_by_prefix.move_to_end(prefix)
                return prefix, peer_id
        return None

    def put(self, prefix: str, peer_id: str) -> None:
        self._dest_by_prefix[prefix] = peer_id
        self._dest_by_prefix.move_to_end(prefix)
        self._max_prefix = max(self._max_prefix, len(prefix))
        while len(self._dest_by_prefix) > self.capacity:
            self._dest_by_prefix.popitem(last=False)

    def invalidate(self, prefix: str) -> None:
        """Drop the entry stored under exactly ``prefix`` (if any)."""
        if self._dest_by_prefix.pop(prefix, None) is not None:
            self.evictions += 1

    def invalidate_key(self, key: str) -> None:
        """Drop every cached entry whose prefix covers ``key``."""
        for prefix in [p for p in self._dest_by_prefix if key.startswith(p)]:
            self.invalidate(prefix)

    def clear(self) -> None:
        self._dest_by_prefix.clear()
        self._max_prefix = 0


def is_destination(peer: PGridPeer, key: str) -> bool:
    """True when routing may stop at ``peer`` for ``key``.

    Either the peer is responsible for the key (path is a prefix of the
    key), or the key itself is a prefix of the peer's path — the latter
    happens for short prefix-query keys, where any peer inside the key's
    subtree is an acceptable entry point.
    """
    return responsible(peer.path, key) or peer.path.startswith(key)


def _cached_destination(start: PGridPeer, key: str) -> PGridPeer | None:
    """Consult ``start``'s route cache; evict entries invalidated by churn."""
    cache = start.route_cache
    hit = cache.get(key)
    if hit is None:
        cache.misses += 1
        return None
    prefix, peer_id = hit
    peer = start.network.nodes.get(peer_id)
    if (
        isinstance(peer, PGridPeer)
        and peer.online
        and peer.path == prefix
        and is_destination(peer, key)
    ):
        cache.hits += 1
        return peer
    cache.invalidate(prefix)
    cache.misses += 1
    return None


def _pick_ref(current: PGridPeer, candidates: list[str], rng: random.Random) -> str:
    """Choose among references (or detours) that make equal progress.

    With a hint registry on the network the current peer prefers the
    candidate with the smallest last-heard queue-depth hint; otherwise (and
    on all-unknown ties, where every hint reads 0.0) this is exactly the
    historical ``rng.choice(candidates)`` — same draw, same pick.
    """
    registry = getattr(current.network, "hints", None)
    if registry is None or len(candidates) == 1:
        return rng.choice(candidates)
    from repro.load.shedding import pick_least_hinted  # deferred: load imports pgrid

    return pick_least_hinted(candidates, current.node_id, registry, rng)


def route_hops(
    start: PGridPeer,
    key: str,
    rng: random.Random | None = None,
) -> tuple[PGridPeer, list[tuple[str, str]]]:
    """Discover the route from ``start`` towards ``key`` without sending.

    Returns ``(destination, hops)`` where hops are ``(src_id, dst_id)``
    pairs; callers charge them through a ``run_chains`` interpreter at
    whatever message size the operation carries.  On failure raises
    :class:`RoutingError` with the partial hop list attached as ``.hops``.
    """
    rng = rng or start.network.rng
    cached = _cached_destination(start, key)
    if cached is not None:
        hops = [] if cached is start else [(start.node_id, cached.node_id)]
        return cached, hops

    current = start
    hops: list[tuple[str, str]] = []
    visited_detours: set[str] = set()

    for _hop in range(MAX_HOPS):
        if is_destination(current, key):
            if current.path:
                start.route_cache.put(current.path, current.node_id)
            return current, hops

        level = common_prefix_length(current.path, key)
        candidates = current.valid_refs(level)
        if candidates:
            next_id = _pick_ref(current, candidates, rng)
            hops.append((current.node_id, next_id))
            current = current.network.nodes[next_id]
            continue

        # Dead end at this level: detour through a replica whose independent
        # reference sample may still cover the needed subtree.  A detour is
        # churn evidence, so drop any cached destination for this region.
        start.route_cache.invalidate_key(key)
        visited_detours.add(current.node_id)
        detours = [r for r in current.online_replicas() if r not in visited_detours]
        if not detours:
            error = RoutingError(
                f"no route from {current.node_id!r} (path {current.path!r}) "
                f"towards key {key[:24]!r}... at level {level}"
            )
            error.hops = hops
            raise error
        next_id = _pick_ref(current, detours, rng)
        hops.append((current.node_id, next_id))
        current = current.network.nodes[next_id]

    error = RoutingError(f"route exceeded {MAX_HOPS} hops towards {key[:24]!r}")
    error.hops = hops
    raise error


def route(
    start: PGridPeer,
    key: str,
    kind: str = "route",
    size: int = 1,
    rng: random.Random | None = None,
    runner: ChainRunner | None = None,
) -> tuple[PGridPeer, Trace]:
    """Route a message from ``start`` towards ``key``.

    Returns the destination peer and the accumulated causal trace.  Raises
    :class:`RoutingError` (with the partial trace attached as ``.trace``)
    when the route dead-ends, e.g. because every peer covering the key's
    region is offline.

    ``runner`` interprets the route (default: the network itself, i.e. the
    causal-trace model); a :class:`~repro.pgrid.network.PGridNetwork` picks
    its active execution model.  In event-driven mode the clock advances to
    the destination's arrival instant and the returned trace carries it as
    ``completion_time``.  Message accounting is identical either way.
    """
    runner = start.network if runner is None else runner
    try:
        destination, hops = route_hops(start, key, rng=rng)
    except RoutingError as error:
        error.trace = runner.run_chains([ChainSpec(error.hops, kind, size)])
        raise
    return destination, runner.run_chains([ChainSpec(hops, kind, size)])
