"""Update propagation with loose consistency (paper §2, ref. [4]).

Datta et al.'s update protocol for highly unreliable replicated P2P systems
has two phases:

* **push** — the updater routes the new version to the responsible group and
  floods it to the replicas that are currently online (this is what
  :meth:`PGridNetwork.update` does);
* **pull** — replicas that were offline reconcile later by anti-entropy:
  periodically each peer contacts a random replica and the pair exchange
  entry versions, adopting whatever is newer.

The guarantees are probabilistic ("lose consistency" in the paper's words):
:func:`staleness` quantifies convergence, and experiment E9 shows it decaying
towards zero with successive anti-entropy rounds.
"""

from __future__ import annotations

import random

from repro.errors import NodeUnreachableError
from repro.pgrid.network import PGridNetwork
from repro.pgrid.peer import PGridPeer


def anti_entropy_round(pnet: PGridNetwork, rng: random.Random | None = None) -> int:
    """One gossip round: every online peer syncs with one random online replica.

    Returns the number of entries transferred (in either direction).  Each
    pairwise sync costs two messages (digest + delta), as in the protocol's
    pull phase, charged in ``pnet``'s active execution model.
    """
    rng = rng or pnet.rng
    transferred = 0
    for peer in pnet.online_peers():
        partners = peer.online_replicas()
        if not partners:
            continue
        partner_id = rng.choice(partners)
        partner = pnet.net.nodes[partner_id]
        assert isinstance(partner, PGridPeer)
        try:
            pnet.ship(peer.node_id, partner_id, "anti-entropy", size=1)
            moved = sync_pair(peer, partner)
            pnet.ship(partner_id, peer.node_id, "anti-entropy", size=max(1, moved))
            transferred += moved
        except NodeUnreachableError:  # partner failed mid-round
            continue
    return transferred


def sync_pair(a: PGridPeer, b: PGridPeer) -> int:
    """Bidirectional reconciliation of two replicas; returns entries copied."""
    moved = 0
    for entry in list(a.store):
        if b.store.put(entry):
            moved += 1
    for entry in list(b.store):
        if a.store.put(entry):
            moved += 1
    return moved


def staleness(pnet: PGridNetwork, sample_keys: list[str]) -> float:
    """Share of replica copies that are *not* at the latest version.

    For every sampled key, the latest version present anywhere in the
    overlay is the reference; each responsible peer (online or not) holding
    an older or missing copy counts as stale.  Returns 0.0 when every copy
    is current — the converged state E9 drives towards.
    """
    stale = 0
    copies = 0
    for key in sample_keys:
        group = pnet.responsible_group(key)
        if not group:
            continue
        latest: dict[str, int] = {}
        for peer in group:
            for entry in peer.store.get(key):
                latest[entry.item_id] = max(latest.get(entry.item_id, -1), entry.version)
        for item_id, newest in latest.items():
            for peer in group:
                copies += 1
                local = peer.store.get_entry(key, item_id)
                if local is None or local.version < newest:
                    stale += 1
    return stale / copies if copies else 0.0
