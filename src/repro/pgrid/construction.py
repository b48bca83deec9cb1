"""Building a P-Grid overlay.

Two construction paths, mirroring how the real system is deployed vs. how it
is specified:

* :func:`build_network` — the **oracle builder** used by benchmarks: given a
  peer count (and optionally a sample of data keys), it lays out a complete
  trie partition, assigns peers (with replication), wires routing tables by
  sampling references from complementary subtrees, and bulk-loads data.  With
  ``split_by="data"`` the trie is split where the data is dense — the steady
  state P-Grid's load balancing (paper ref. [2]) converges to; with
  ``split_by="population"`` the trie is balanced by peer count regardless of
  skew, which is the strawman E3 compares against.

* :func:`bootstrap_exchange` — the **decentralized protocol** (paper ref.
  [1]): peers start with an empty path and refine the trie through random
  pairwise encounters, splitting paths and exchanging references/data without
  any global knowledge.  Used by tests to show the trie emerges correctly;
  too slow for thousand-peer benchmark setup.
"""

from __future__ import annotations

import heapq
import random
from bisect import bisect_left
from collections import deque
from operator import attrgetter

from repro.net.latency import LatencyModel
from repro.net.network import Network
from repro.pgrid.datastore import Entry
from repro.pgrid.keys import canonical, common_prefix_length, flip, increment_path
from repro.pgrid.network import PGridNetwork
from repro.pgrid.peer import PGridPeer
from repro.pgrid.updates import sync_pair

#: Trie depth cap for the oracle builder; deep enough for any realistic
#: partition (2^48 leaves) while bounding pathological splits of equal keys.
MAX_DEPTH = 48


# ---------------------------------------------------------------------------
# Trie layout
# ---------------------------------------------------------------------------


def balanced_paths(num_groups: int) -> list[str]:
    """A complete partition with ``num_groups`` leaves, balanced by count.

    Builds the full trie of depth ``floor(log2 n)`` and splits leaves
    left-to-right until the leaf count is exact, so any group count (not
    just powers of two) yields a valid partition.
    """
    if num_groups < 1:
        raise ValueError("need at least one group")
    # Split the shallowest, leftmost leaf — keeps the trie near-balanced.
    # Splitting from the front of a FIFO queue keeps it in (len, path) order.
    paths = deque([""])
    while len(paths) < num_groups:
        victim = paths.popleft()
        paths.extend((victim + "0", victim + "1"))
    return sorted(paths)


def data_split_paths(keys: list[str], num_groups: int, max_depth: int = MAX_DEPTH) -> list[str]:
    """A complete partition with ``num_groups`` leaves, split where data is dense.

    Greedy: repeatedly split the leaf holding the most keys.  This is the
    partition P-Grid's storage-threshold load balancing converges to, so the
    oracle builder can start networks in the balanced steady state.
    """
    if num_groups < 1:
        raise ValueError("need at least one group")
    if not keys:
        return balanced_paths(num_groups)
    # Heap of (-count, depth, path, keys); ties broken towards shallow paths.
    heap: list[tuple[int, int, str, list[str]]] = [(-len(keys), 0, "", list(keys))]
    leaves: list[str] = []
    while heap and len(heap) + len(leaves) < num_groups:
        neg_count, depth, path, bucket = heapq.heappop(heap)
        if depth >= max_depth or neg_count == 0:
            leaves.append(path)  # cannot or need not split further
            continue
        zeros = [k for k in bucket if len(k) > depth and k[depth] == "0"]
        ones = [k for k in bucket if len(k) > depth and k[depth] == "1"]
        # Keys shorter than the split depth are points on the left edge.
        shorts = len(bucket) - len(zeros) - len(ones)
        heapq.heappush(heap, (-(len(zeros) + shorts), depth + 1, path + "0", zeros))
        heapq.heappush(heap, (-len(ones), depth + 1, path + "1", ones))
    leaves.extend(path for _, _, path, _ in heap)
    return sorted(leaves)


# ---------------------------------------------------------------------------
# Oracle builder
# ---------------------------------------------------------------------------


def wire_routing_tables(pnet: PGridNetwork, rng: random.Random | None = None) -> None:
    """(Re)build every peer's routing table by global sampling.

    For each peer and level, samples up to ``fanout`` peers whose paths carry
    the required complementary prefix.  Also rebuilds replica lists.  This is
    the steady state the decentralized exchange protocol converges to.
    """
    rng = rng or pnet.rng
    ordered = sorted(pnet.peers, key=lambda p: p.path)
    paths = [p.path for p in ordered]
    groups = pnet.leaf_groups()
    for peer in pnet.peers:
        peer.routing = type(peer.routing)(fanout=pnet.fanout)
        for level in range(len(peer.path)):
            # The complementary subtree: a slice of ``ordered``, never ``peer``.
            prefix = peer.required_prefix(level)
            lo = bisect_left(paths, prefix)
            upper = increment_path(prefix)
            hi = bisect_left(paths, upper) if upper is not None else len(paths)
            candidates = range(lo, hi)
            if lo == hi:
                # Peers whose path is a strict prefix of `prefix` also cover it.
                candidates = [i for i, path in enumerate(paths) if prefix.startswith(path)]
            # Sampling indices draws exactly as sampling the peers would.
            for i in rng.sample(candidates, min(pnet.fanout, len(candidates))):
                peer.routing.add(level, ordered[i].node_id)
        peer.replicas = [p.node_id for p in groups.get(peer.path, []) if p is not peer]


def build_network(
    num_peers: int,
    data_keys: list[str] | None = None,
    *,
    latency_model: LatencyModel | None = None,
    seed: int = 0,
    fanout: int = 4,
    replication: int = 1,
    split_by: str = "data",
    max_depth: int = MAX_DEPTH,
) -> PGridNetwork:
    """Build a ready-to-use overlay of ``num_peers`` peers.

    ``replication`` is the *target* replica-group size; the trie gets
    ``num_peers // replication`` leaves and surplus peers thicken groups
    round-robin.  ``data_keys`` (if given with ``split_by="data"``) shapes
    the trie to the data distribution; the keys themselves are *not* loaded —
    callers insert entries afterwards (bulk or routed).
    """
    if num_peers < 1:
        raise ValueError("need at least one peer")
    if replication < 1:
        raise ValueError("replication must be >= 1")
    if split_by not in ("data", "population"):
        raise ValueError(f"split_by must be 'data' or 'population', got {split_by!r}")

    net = Network(latency_model=latency_model, seed=seed)
    pnet = PGridNetwork(net, fanout=fanout, seed=seed)
    num_groups = max(1, num_peers // replication)
    if split_by == "data" and data_keys:
        paths = data_split_paths(data_keys, num_groups, max_depth=max_depth)
    else:
        paths = balanced_paths(num_groups)

    rng = random.Random(seed ^ 0xB007)
    order = list(range(num_peers))
    rng.shuffle(order)
    for index, peer_number in enumerate(order):
        path = paths[index % len(paths)]
        pnet.add_peer(f"peer-{peer_number:04d}", path=path)

    wire_routing_tables(pnet, rng)
    return pnet


def bulk_load(pnet: PGridNetwork, items: list[tuple[str, str, object]]) -> None:
    """Oracle data placement: store each ``(key, item_id, value)`` on every
    replica of its responsible group, without routing messages.

    Benchmark setup uses this so that measured traffic reflects queries only.
    Versions follow item order.  The entries are sorted by key once (stably,
    so equal keys keep item order); a group's entries are then the one slice
    between the canonical bounds of its path, found with two bisects (see
    :mod:`repro.pgrid.keys`).  Raises :class:`LookupError` unless the groups'
    slices cover every entry exactly once: a key outside every group, or two
    groups whose paths overlap.
    """
    entries = [
        Entry(key=key, item_id=item_id, value=value, version=pnet.next_version())
        for key, item_id, value in items
    ]
    entries.sort(key=attrgetter("key"))
    keys = [entry.key for entry in entries]
    placed = 0  # entries[:placed] are stored; the next slice must start here
    for path, peers in sorted(pnet.leaf_groups().items()):
        start = bisect_left(keys, canonical(path))
        upper = increment_path(path)
        stop = bisect_left(keys, upper, start) if upper is not None else len(keys)
        if start == stop:
            continue
        if start != placed:
            key = keys[min(start, placed)]
            problem = "lies in two groups" if start < placed else "has no responsible group"
            raise LookupError(f"key {key[:24]!r} {problem}")
        for peer in peers:
            peer.store.merge(entries[start:stop])
        placed = stop
    if placed != len(keys):
        raise LookupError(f"key {keys[placed][:24]!r} has no responsible group")


# ---------------------------------------------------------------------------
# Decentralized bootstrap (paper ref. [1])
# ---------------------------------------------------------------------------


def exchange(
    pnet: PGridNetwork,
    p: PGridPeer,
    q: PGridPeer,
    capacity: int,
    max_depth: int = 16,
    _depth: int = 0,
) -> None:
    """One pairwise P-Grid exchange between ``pnet``'s peers ``p`` and ``q``.

    Implements the three cases of Aberer's construction algorithm:

    1. equal paths → split (if combined load exceeds ``capacity``) or become
       replicas and synchronise data;
    2. one path a prefix of the other → the shorter peer specializes into
       the complementary subtree, both learn references;
    3. diverging paths → exchange references at the divergence level and
       recursively continue with a reference from the other's table.
    """
    cpl = common_prefix_length(p.path, q.path)

    if p.path == q.path:
        combined = p.load + q.load
        if combined > capacity and len(p.path) < max_depth:
            _split_pair(pnet, p, q)
        else:
            _sync_replicas(pnet, p, q)
        return

    if cpl == min(len(p.path), len(q.path)):
        shorter, longer = (p, q) if len(p.path) < len(q.path) else (q, p)
        level = len(shorter.path)
        # The shorter peer covers the longer one's whole subtree; it keeps
        # its data for the complementary side and specializes there.
        shorter.set_path(shorter.path + flip(longer.path[level]))
        shorter.routing.add(level, longer.node_id)
        longer.routing.add(level, shorter.node_id)
        _shed_misplaced(pnet, shorter, longer)
        _shed_misplaced(pnet, longer, shorter)
        return

    # Diverging paths: mutual references at the divergence level.
    p.routing.add(cpl, q.node_id)
    q.routing.add(cpl, p.node_id)
    _shed_misplaced(pnet, p, q)
    _shed_misplaced(pnet, q, p)
    if _depth < 2:
        # Continue construction deeper, as the protocol prescribes: each peer
        # meets a reference of the other from the divergence level.
        for a, b in ((p, q), (q, p)):
            refs = b.valid_refs(cpl) if cpl < len(b.path) else []
            candidates = [r for r in refs if r != a.node_id]
            if candidates:
                partner = a.network.nodes[candidates[0]]
                if isinstance(partner, PGridPeer) and partner.online:
                    pnet.ship(a.node_id, partner.node_id, "exchange", 1)
                    exchange(pnet, a, partner, capacity, max_depth, _depth + 1)


def _split_pair(pnet: PGridNetwork, p: PGridPeer, q: PGridPeer) -> None:
    """Equal-path peers split: p takes '0', q takes '1', exchanging data/refs."""
    base = p.path
    level = len(base)
    p.set_path(base + "0")
    q.set_path(base + "1")
    p.routing.add(level, q.node_id)
    q.routing.add(level, p.node_id)
    # They are no longer replicas of each other.
    p.remove_replica(q.node_id)
    q.remove_replica(p.node_id)
    # Swap the halves that now belong to the other side.
    p_give = p.store.retain(p.path)
    q_give = q.store.retain(p.path, inside=False)
    p.store.merge(q_give)
    q.store.merge(p_give)
    if p_give or q_give:
        pnet.ship(p.node_id, q.node_id, "exchange", max(1, len(p_give)))
        pnet.ship(q.node_id, p.node_id, "exchange", max(1, len(q_give)))


def _sync_replicas(pnet: PGridNetwork, p: PGridPeer, q: PGridPeer) -> None:
    """Equal-path peers below capacity become replicas and synchronise."""
    p.add_replica(q.node_id)
    q.add_replica(p.node_id)
    transferred = sync_pair(p, q)
    p.adopt_refs(q)
    q.adopt_refs(p)
    if transferred:
        pnet.ship(p.node_id, q.node_id, "exchange", transferred)


def _shed_misplaced(pnet: PGridNetwork, giver: PGridPeer, taker: PGridPeer) -> None:
    """Move the entries ``taker`` covers from ``giver`` (their paths diverge)."""
    moved = giver.store.retain(taker.path, inside=False)
    if not moved:
        return
    taker.store.merge(moved)
    pnet.ship(giver.node_id, taker.node_id, "exchange", len(moved))


def bootstrap_exchange(
    pnet: PGridNetwork,
    rounds: int,
    capacity: int = 8,
    rng: random.Random | None = None,
    max_depth: int = 16,
) -> None:
    """Run ``rounds`` of random pairwise encounters over the whole overlay.

    Each round pairs the online peers randomly and runs one exchange per
    pair.  With enough rounds the path set converges to a complete partition
    and every peer's load approaches ``capacity``.
    """
    rng = rng or pnet.rng
    for _round in range(rounds):
        peers = pnet.online_peers()
        rng.shuffle(peers)
        for left, right in zip(peers[0::2], peers[1::2]):
            pnet.ship(left.node_id, right.node_id, "exchange", 1)
            exchange(pnet, left, right, capacity, max_depth=max_depth)
