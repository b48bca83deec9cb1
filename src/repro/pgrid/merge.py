"""Joining peers and merging overlays (paper §2: P-Grid "enables the merging
of two, formerly independent, overlays").

* :func:`join_peer` — a single newcomer joins a running overlay: it routes a
  join request to a random point of the key space, becomes a replica of the
  landing group (cloning data + references, as a migrating peer does), and
  later load balancing may deepen the trie around it.

* :func:`merge_overlays` — every peer of overlay ``b`` joins overlay ``a``
  and re-publishes the entries it was responsible for as one write wave.
  Both overlays must share the same simulated
  :class:`~repro.net.network.Network` (two partitions of one physical
  network, as when two P-Grids discover each other).  Returns the merged
  overlay (``a``, mutated).
"""

from __future__ import annotations

import random

from repro.net.trace import Trace
from repro.pgrid.load_balancing import copy_replica, rebalance
from repro.pgrid.network import PGridNetwork
from repro.pgrid.peer import PGridPeer
from repro.pgrid.routing import route


def join_peer(
    pnet: PGridNetwork,
    node_id: str,
    rng: random.Random | None = None,
) -> tuple[PGridPeer, Trace]:
    """Add a brand-new peer to a running overlay.

    The newcomer contacts a random online peer (its bootstrap contact),
    routes towards a random key, and joins the landing group as a replica:
    copies its data, adopts its references, registers in the replica lists.
    Every message is charged in ``pnet``'s active execution model.
    """
    rng = rng or pnet.rng
    contact = pnet.random_online_peer(rng)  # drawn before the newcomer is online
    newcomer = pnet.add_peer(node_id, path="")
    target_key = "".join(rng.choice("01") for _ in range(24))
    hop = pnet.ship(newcomer.node_id, contact.node_id, "join", size=1)
    host, trace = route(contact, target_key, kind="join", rng=rng, runner=pnet)
    trace = hop.then(trace)

    members = [host, *map(pnet.peer, host.online_replicas())]
    trace = trace.then(copy_replica(pnet, newcomer, host, members, "join"))
    return newcomer, trace


def merge_overlays(
    a: PGridNetwork,
    b: PGridNetwork,
    capacity: int | None = None,
    rng: random.Random | None = None,
) -> PGridNetwork:
    """Merge overlay ``b`` into overlay ``a`` (shared physical network).

    Every ``b`` peer joins ``a`` via the join protocol, then re-publishes the
    entries it held in ``b`` as one write wave that keeps their versions, so
    data from both former overlays becomes queryable in the merged trie.
    When ``capacity`` is given, a rebalance pass deepens overloaded groups
    afterwards.
    """
    if a.net is not b.net:
        raise ValueError("overlays must share one simulated network to merge")
    rng = rng or a.rng

    for old_peer in list(b.peers):
        # Drain the peer's data, then re-create it inside `a`.
        entries = list(old_peer.store)
        old_peer.store.clear()
        old_peer.fail()  # the old incarnation leaves overlay b
        newcomer, _trace = join_peer(a, f"{old_peer.node_id}-merged", rng=rng)
        puts = [(entry.key, entry.item_id, entry.value, entry.version) for entry in entries]
        a.write(puts, start=newcomer)
    if capacity is not None:
        rebalance(a, capacity=capacity)
    return a
