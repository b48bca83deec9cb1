"""Update propagation with loose consistency (paper §2, ref. [4]).

Datta et al.'s update protocol for highly unreliable replicated P2P systems
has two phases:

* **push** — the updater routes the new version to the responsible group and
  floods it to the replicas that are currently online (this is what
  :meth:`PGridNetwork.update` does);
* **pull** — replicas that were offline reconcile later by anti-entropy:
  periodically each peer contacts a random replica and the pair exchange
  entry versions, adopting whatever is newer.

Both phases move entries through ``DataStore.merge`` (newest version wins).
A round's pairs run as one routed wave: one round trip of simulated time.

The pull phase is "digest + delta".  Each store keeps a fingerprint of its
``(key, item_id, version)`` set (:meth:`DataStore.digest`), so a pair whose
fingerprints and entry counts match already agrees and skips the merge:
merging it would have moved nothing.  Only the wall time changes; messages
are charged as before (the digest as size 1, the reply as ``max(1, moved)``).
The fingerprint is salted per process by ``PYTHONHASHSEED`` and decides only
skip or merge, never a simulated figure.

The guarantees are probabilistic ("lose consistency" in the paper's words):
:func:`staleness` quantifies convergence, and experiment E9 shows it decaying
towards zero with successive anti-entropy rounds.
"""

from __future__ import annotations

import random
from functools import partial

from repro.net.scheduler import Sends
from repro.pgrid.datastore import newest
from repro.pgrid.network import PGridNetwork
from repro.pgrid.peer import PGridPeer


def anti_entropy_round(pnet: PGridNetwork, rng: random.Random | None = None) -> int:
    """One gossip round: every online peer syncs with one random online replica.

    Returns the number of entries transferred (in either direction).  Each
    pairwise sync costs two messages (digest + delta), as in the protocol's
    pull phase.  Partners are drawn first, then all pairs run as one wave in
    ``pnet``'s active execution model; a pair with a peer that went offline
    meanwhile (event mode) is skipped.
    """
    rng = rng or pnet.rng
    transferred = 0

    def reconcile(peer: PGridPeer, partner: PGridPeer, _time: float) -> Sends:
        nonlocal transferred
        if not (peer.online and partner.online):
            return []
        moved = sync_pair(peer, partner)
        transferred += moved
        return [(partner.node_id, peer.node_id, "anti-entropy", max(1, moved))]

    chains = []
    for peer in pnet.online_peers():
        partners = peer.online_replicas()
        if partners:
            partner = pnet.peer(rng.choice(partners))
            digest = [(peer.node_id, partner.node_id)]
            chains.append((digest, "anti-entropy", 1, partial(reconcile, peer, partner)))
    pnet.run_chains(chains)
    return transferred


def sync_pair(a: PGridPeer, b: PGridPeer) -> int:
    """Bidirectional reconciliation of two replicas; returns entries copied.

    Replicas with equal entry counts and digests hold the same versioned
    identities, so they return 0 without reading either store.
    """
    if len(a.store) == len(b.store) and a.store.digest() == b.store.digest():
        return 0
    return b.store.merge(a.store) + a.store.merge(b.store)


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
        for latest in newest(peer.store.get(key) for peer in group):
            for peer in group:
                copies += 1
                local = peer.store.get_entry(key, latest.item_id)
                if local is None or local.version < latest.version:
                    stale += 1
    return stale / copies if copies else 0.0
