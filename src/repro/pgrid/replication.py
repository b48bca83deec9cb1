"""Structural replication helpers.

In P-Grid, replication is *structural*: several peers share the same trie
path and therefore the same data ("replica groups").  The oracle builder
creates groups directly; this module provides the runtime-side operations —
inspecting groups, thickening them to a target factor, and measuring how much
redundancy survives failures (the knob experiment E7 sweeps).
"""

from __future__ import annotations

from repro.pgrid.load_balancing import migrate_peer
from repro.pgrid.network import PGridNetwork
from repro.pgrid.peer import PGridPeer


def online_group(peer: PGridPeer) -> list[PGridPeer]:
    """``peer`` plus its online replicas, sorted by node id.

    Every member holds the group's data and can serve its reads — the target
    set for replica-based query-load diffusion
    (:mod:`repro.load.diffusion`).  Uses only the peer's own replica list
    (validated at use), not the global view.
    """
    members = [peer]
    for replica_id in peer.online_replicas():
        replica = peer.network.nodes.get(replica_id)
        if isinstance(replica, PGridPeer):
            members.append(replica)
    members.sort(key=lambda p: p.node_id)
    return members


def replication_factor(pnet: PGridNetwork) -> float:
    """Mean replica-group size."""
    groups = pnet.leaf_groups()
    if not groups:
        return 0.0
    return len(pnet.peers) / len(groups)


def min_replication(pnet: PGridNetwork) -> int:
    """Size of the thinnest replica group — the overlay's weakest point."""
    groups = pnet.leaf_groups()
    return min((len(peers) for peers in groups.values()), default=0)


def ensure_replication(pnet: PGridNetwork, factor: int) -> int:
    """Thicken every replica group to at least ``factor`` peers.

    Donors are drawn from the largest groups (which can spare members).
    Returns the number of migrations performed; stops early when no donor
    group has more than ``factor`` members left.
    """
    if factor < 1:
        raise ValueError("replication factor must be >= 1")
    migrations = 0
    while True:
        groups = pnet.leaf_groups()
        thin = sorted(
            (path for path, peers in groups.items() if len(peers) < factor),
            key=lambda path: len(groups[path]),
        )
        if not thin:
            return migrations
        donors = sorted(
            (path for path, peers in groups.items() if len(peers) > factor),
            key=lambda path: -len(groups[path]),
        )
        if not donors:
            return migrations
        donor_peer = groups[donors[0]][-1]
        migrate_peer(pnet, donor_peer, thin[0])
        migrations += 1


def online_coverage(pnet: PGridNetwork) -> float:
    """Share of the key space currently served by at least one online peer.

    Weighted by interval size (``2^-len(path)``): a dead group covering a
    shallow path loses more of the space than a deep one.
    """
    groups = pnet.leaf_groups()
    covered = 0.0
    for path, peers in groups.items():
        if any(p.online for p in peers):
            covered += 2.0 ** -len(path)
    return covered
