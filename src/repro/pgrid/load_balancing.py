"""Storage load balancing (paper §2, ref. [2]).

P-Grid handles "nearly arbitrary data skews" by decoupling the trie shape
from the key distribution: where data is dense, replica groups *split* their
path one bit deeper (halving the data each side holds); where data is sparse,
groups stay shallow and surplus peers *migrate* to overloaded regions to
enable further splits.  This module implements that dynamic as an iterative
protocol over an existing overlay:

* :func:`split_group` — one split of a replica group with >= 2 peers;
* :func:`rebalance` — repeat splits (recruiting donors from underloaded
  groups when an overloaded group has no partner) until every group's data
  fits the storage threshold or no move can help.

Message accounting: data handed over during splits/migrations is sent as
``balance`` messages in the overlay's active execution model, so E3 can
also report the balancing traffic.
"""

from __future__ import annotations

import random

from repro.pgrid.network import PGridNetwork
from repro.pgrid.peer import PGridPeer


def group_load(peers: list[PGridPeer]) -> int:
    """Data volume of a replica group (replicas hold copies; take the max)."""
    return max((p.load for p in peers), default=0)


def split_group(pnet: PGridNetwork, path: str) -> bool:
    """Split the replica group at ``path`` one level deeper.

    Requires at least two peers in the group (each side needs an owner).
    Peers are divided between ``path+'0'`` and ``path+'1'``; each side keeps
    the entries its new path covers and hands the rest to the other side.
    Returns False when the group cannot split.
    """
    group = [p for p in pnet.peers if p.path == path]
    if len(group) < 2:
        return False
    group.sort(key=lambda p: p.node_id)
    half = len(group) // 2
    zeros, ones = group[:half], group[half:]
    level = len(path)

    for side, bit in ((zeros, "0"), (ones, "1")):
        for peer in side:
            peer.set_path(path + bit)
    for peer in zeros + ones:
        keep, give = peer.store.partition(path + "0")
        wanted = keep if peer.path[level] == "0" else give
        unwanted = give if wanted is keep else keep
        peer.store.clear()
        for entry in wanted:
            peer.store.put(entry)
        # Hand entries of the other side to one peer there; replication
        # inside the receiving side is restored by replica sync below.
        if unwanted:
            target = ones[0] if peer in zeros else zeros[0]
            pnet.ship(peer.node_id, target.node_id, "balance", len(unwanted))
            for entry in unwanted:
                target.store.put(entry)

    # Rebuild replica lists and cross-side routing references.
    for side, other in ((zeros, ones), (ones, zeros)):
        for peer in side:
            peer.replicas = [p.node_id for p in side if p is not peer]
            for ref in other:
                peer.routing.add(level, ref.node_id)
    # Synchronise data within each side (cheap local copies between replicas).
    for side in (zeros, ones):
        merged = {}
        for peer in side:
            for entry in peer.store:
                identity = (entry.key, entry.item_id)
                current = merged.get(identity)
                if current is None or entry.version > current.version:
                    merged[identity] = entry
        for peer in side:
            for entry in merged.values():
                peer.store.put(entry)
    return True


def migrate_peer(pnet: PGridNetwork, donor: PGridPeer, target_path: str) -> None:
    """Move ``donor`` into the replica group at ``target_path``.

    The donor abandons its current group (which must retain at least one
    peer), copies the target group's data and adopts a member's references.
    """
    group = [p for p in pnet.peers if p.path == target_path and p is not donor]
    if not group:
        raise ValueError(f"no peers at path {target_path!r} to join")
    host = group[0]
    for former in pnet.peers:
        if former is not donor and former.path == donor.path:
            former.remove_replica(donor.node_id)
    donor.set_path(target_path)
    donor.store.clear()
    transferred = 0
    for entry in host.store:
        donor.store.put(entry)
        transferred += 1
    pnet.ship(host.node_id, donor.node_id, "balance", max(1, transferred))
    donor.routing = type(donor.routing)(fanout=pnet.fanout)
    donor.adopt_refs(host)
    donor.replicas = []
    for member in group:
        member.add_replica(donor.node_id)
        donor.add_replica(member.node_id)


def rebalance(
    pnet: PGridNetwork,
    capacity: int,
    max_rounds: int = 64,
    rng: random.Random | None = None,
) -> int:
    """Split/migrate until every group's load is <= ``capacity`` (or stuck).

    Returns the number of splits performed.  ``capacity`` is the storage
    threshold of ref. [2]: the number of entries a single peer is willing to
    hold.
    """
    rng = rng or pnet.rng
    splits = 0
    for _round in range(max_rounds):
        groups = pnet.leaf_groups()
        overloaded = sorted(
            (path for path, peers in groups.items() if group_load(peers) > capacity),
            key=lambda path: -group_load(groups[path]),
        )
        if not overloaded:
            break
        progressed = False
        for path in overloaded:
            peers = groups[path]
            if len(peers) >= 2:
                if split_group(pnet, path):
                    splits += 1
                    progressed = True
                continue
            donor = _find_donor(pnet, capacity, exclude_path=path)
            if donor is not None:
                migrate_peer(pnet, donor, path)
                if split_group(pnet, path):
                    splits += 1
                progressed = True
        if not progressed:
            break
    return splits


def _find_donor(pnet: PGridNetwork, capacity: int, exclude_path: str) -> PGridPeer | None:
    """An online peer from the least-loaded group that can spare a member."""
    groups = pnet.leaf_groups()
    candidates = [
        (group_load(peers), path, peers)
        for path, peers in groups.items()
        if path != exclude_path and len(peers) >= 2
    ]
    if not candidates:
        return None
    candidates.sort(key=lambda item: (item[0], item[1]))
    load, _path, peers = candidates[0]
    if load > capacity:
        return None  # nobody has slack
    donors = [p for p in peers if p.online]
    return donors[0] if donors else None


def imbalance_stats(values: list[float]) -> dict[str, float]:
    """Max / mean / max-over-mean / Gini over a list of per-peer loads."""
    loads = sorted(values)
    if not loads or sum(loads) == 0:
        return {"max": 0.0, "mean": 0.0, "max_over_mean": 0.0, "gini": 0.0}
    total = sum(loads)
    n = len(loads)
    mean = total / n
    # Gini coefficient over the sorted loads.
    weighted = 0.0
    for index, load in enumerate(loads, start=1):
        weighted += index * load
    gini = (2 * weighted) / (n * total) - (n + 1) / n
    return {
        "max": float(loads[-1]),
        "mean": mean,
        "max_over_mean": loads[-1] / mean if mean else 0.0,
        "gini": gini,
    }


def load_imbalance(pnet: PGridNetwork) -> dict[str, float]:
    """Summary statistics of per-peer storage load (metric of exp. E3)."""
    return imbalance_stats([float(p.load) for p in pnet.peers])


def query_load_imbalance(
    busy_by_peer: dict[str, float], population: list[str] | None = None
) -> dict[str, float]:
    """E3's imbalance metric applied to *query* load (service seconds).

    Takes the per-peer busy-time map of a
    :class:`~repro.load.model.LoadModel` (``load.busy_by_peer()``) — the
    runtime counterpart of storage load: how unevenly the processing work of
    a driven workload landed on the peers.  Benchmark E12 reports it before
    and after replica diffusion.

    ``population`` pins the peer set the statistic is computed over: peers
    in it that serviced nothing count as 0.0 load (a load map alone only
    lists peers that received messages, which would make a single hot peer
    look perfectly balanced).
    """
    if population is None:
        loads = list(busy_by_peer.values())
    else:
        loads = [busy_by_peer.get(node_id, 0.0) for node_id in population]
    return imbalance_stats(loads)
