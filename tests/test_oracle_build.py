"""The oracle builder's linear layout and wiring against the quadratic ones.

``balanced_paths`` splits leaves from a FIFO queue and ``wire_routing_tables``
samples indices into the sorted peer list.  Both must give exactly what the
re-sorting layout and the per-level subtree copies gave: the same leaves,
routing tables, replica lists and RNG state.
"""

import random
from bisect import bisect_left

import pytest

from repro.pgrid import balanced_paths, build_network, wire_routing_tables
from repro.pgrid.keys import increment_path


def reference_balanced_paths(num_groups):
    """The layout that re-sorted every leaf before each split."""
    paths = [""]
    while len(paths) < num_groups:
        paths.sort(key=lambda p: (len(p), p))
        victim = paths.pop(0)
        paths.extend([victim + "0", victim + "1"])
    return sorted(paths)


def reference_wire_routing_tables(pnet, rng):
    """The wiring that copied each complementary subtree per peer and level."""
    ordered = sorted(pnet.peers, key=lambda p: p.path)
    paths = [p.path for p in ordered]

    def peers_with_prefix(prefix):
        lo = bisect_left(paths, prefix)
        upper = increment_path(prefix)
        hi = bisect_left(paths, upper) if upper is not None else len(paths)
        result = ordered[lo:hi]
        if not result:
            result = [p for p in ordered if prefix.startswith(p.path)]
        return result

    groups = pnet.leaf_groups()
    for peer in pnet.peers:
        peer.routing = type(peer.routing)(fanout=pnet.fanout)
        for level in range(len(peer.path)):
            prefix = peer.required_prefix(level)
            candidates = [p for p in peers_with_prefix(prefix) if p is not peer]
            if not candidates:
                continue
            sample = rng.sample(candidates, min(pnet.fanout, len(candidates)))
            for ref in sample:
                peer.routing.add(level, ref.node_id)
        peer.replicas = [p.node_id for p in groups.get(peer.path, []) if p is not peer]


def _wiring(pnet):
    return [
        (
            peer.node_id,
            peer.path,
            [(level, peer.routing.refs(level)) for level in peer.routing.levels()],
            list(peer.replicas),
        )
        for peer in pnet.peers
    ]


def test_small_layouts_match():
    for num_groups in range(1, 130):
        assert balanced_paths(num_groups) == reference_balanced_paths(num_groups)


@pytest.mark.parametrize(
    "num_peers, split_by", [(1000, "population"), (4000, "population"), (1000, "data")]
)
def test_wiring_matches_the_subtree_copies(num_peers, split_by):
    if split_by == "population":
        assert balanced_paths(num_peers // 2) == reference_balanced_paths(num_peers // 2)
    keys_rng = random.Random(5)
    # Skewed keys give the data-split trie leaves of very different depths.
    keys = [format(int(keys_rng.paretovariate(1.2) * 997) % 2**20, "020b") for _ in range(3000)]
    wirings = []
    for wire in (reference_wire_routing_tables, wire_routing_tables):
        pnet = build_network(num_peers, keys, replication=2, seed=7, split_by=split_by)
        rng = random.Random(11)
        wire(pnet, rng)
        wirings.append((_wiring(pnet), rng.getstate()))
    assert wirings[1] == wirings[0]
