"""Load balancing (ref. [2]) and loosely-consistent updates (ref. [4])."""


import random

import pytest

from repro.bench import skewed_strings
from repro.pgrid import (
    anti_entropy_round,
    build_network,
    bulk_load,
    encode_string,
    ensure_replication,
    join_peer,
    load_imbalance,
    merge_overlays,
    min_replication,
    online_coverage,
    rebalance,
    replication_factor,
    split_group,
    staleness,
    sync_pair,
)
from repro.pgrid.load_balancing import migrate_peer
from repro.pgrid.network import PGridNetwork


def _load_words(pnet, words):
    bulk_load(pnet, [(encode_string(w), w, w) for w in words])


class TestSplitGroup:
    def test_split_preserves_and_partitions_data(self):
        pnet = build_network(8, replication=2, seed=3, split_by="population")
        words = [f"w{i:03d}" for i in range(60)]
        _load_words(pnet, words)
        groups = pnet.leaf_groups()
        path = max(groups, key=lambda p: max(x.load for x in groups[p]))
        before = {e.item_id for e in pnet.all_entries()}
        assert split_group(pnet, path)
        after = {e.item_id for e in pnet.all_entries()}
        assert before == after
        # The two halves hold disjoint keys matching their deeper paths.
        for peer in pnet.peers:
            if peer.path.startswith(path):
                for entry in peer.store:
                    assert entry.key.startswith(peer.path)

    def test_split_requires_two_peers(self):
        pnet = build_network(4, replication=1, seed=3, split_by="population")
        path = pnet.peers[0].path
        assert not split_group(pnet, path)

    def test_split_keeps_partition_complete(self):
        pnet = build_network(8, replication=2, seed=5, split_by="population")
        path = pnet.peers[0].path
        split_group(pnet, path)
        assert pnet.is_complete()

    def test_split_refused_while_a_member_is_offline(self):
        pnet = build_network(16, replication=2, seed=4, split_by="population")
        _load_words(pnet, [f"w{i:03d}" for i in range(200)])
        path = max(pnet.peers, key=lambda p: (p.load, p.node_id)).path
        group = sorted(pnet.leaf_groups()[path], key=lambda p: p.node_id)
        group[1].fail()  # the '1' side's member, which the '0' side hands off to

        def state():
            return [(p.path, list(p.replicas), list(p.store)) for p in group]

        before = state()
        assert not split_group(pnet, path)
        assert state() == before
        group[1].recover()
        assert split_group(pnet, path)


class TestRebalance:
    def test_rebalance_bounds_skewed_load(self):
        words = skewed_strings(400, s=1.2, seed=8)
        pnet = build_network(32, replication=2, seed=8, split_by="population")
        _load_words(pnet, words)
        before = load_imbalance(pnet)
        rebalance(pnet, capacity=40)
        after = load_imbalance(pnet)
        assert after["max"] <= before["max"]
        assert pnet.is_complete()
        # Every group now fits the threshold (or could not be helped).
        overloaded = [
            path
            for path, peers in pnet.leaf_groups().items()
            if max(p.load for p in peers) > 40 and len(peers) >= 2
        ]
        assert not overloaded

    def test_rebalance_preserves_data(self):
        words = skewed_strings(200, s=1.0, seed=9)
        pnet = build_network(16, replication=2, seed=9, split_by="population")
        _load_words(pnet, words)
        before = {e.item_id for e in pnet.all_entries()}
        rebalance(pnet, capacity=30)
        assert {e.item_id for e in pnet.all_entries()} == before

    def test_rebalance_noop_when_balanced(self):
        pnet = build_network(16, replication=2, seed=10, split_by="population")
        _load_words(pnet, [f"w{i}" for i in range(16)])
        assert rebalance(pnet, capacity=100) == 0

    def test_lookups_still_work_after_rebalance(self):
        words = skewed_strings(150, s=1.1, seed=11)
        pnet = build_network(16, replication=2, seed=11, split_by="population")
        _load_words(pnet, words)
        rebalance(pnet, capacity=30)
        for word in words[:40]:
            entries, _trace = pnet.lookup(encode_string(word))
            assert any(e.value == word for e in entries)

    def test_imbalance_metrics(self):
        pnet = build_network(8, replication=1, seed=12, split_by="population")
        metrics = load_imbalance(pnet)
        assert metrics["max"] == 0.0 and metrics["gini"] == 0.0
        _load_words(pnet, [f"w{i}" for i in range(32)])
        metrics = load_imbalance(pnet)
        assert metrics["max"] >= metrics["mean"] > 0
        assert 0 <= metrics["gini"] <= 1


class TestReplicationHelpers:
    def test_factor_and_min(self):
        pnet = build_network(32, replication=4, seed=13, split_by="population")
        assert replication_factor(pnet) == pytest.approx(4.0)
        assert min_replication(pnet) == 4

    def test_ensure_replication_thickens_thin_groups(self):
        pnet = build_network(24, replication=2, seed=14, split_by="population")
        # Artificially thin one group by migrating a peer away.
        groups = pnet.leaf_groups()
        some_path = sorted(groups)[0]
        donor = groups[some_path][0]
        other_path = sorted(groups)[1]
        migrate_peer(pnet, donor, other_path)
        assert min_replication(pnet) == 1
        ensure_replication(pnet, 2)
        assert min_replication(pnet) >= 2

    def test_migration_copies_from_an_online_member(self):
        pnet = build_network(16, replication=2, seed=4)
        _load_words(pnet, [f"w{i:03d}" for i in range(60)])
        path = max(pnet.peers, key=lambda p: (p.load, p.node_id)).path
        first, second = [p for p in pnet.peers if p.path == path]
        entry = next(iter(first.store))
        first.fail()
        version, _trace = pnet.update(entry.key, entry.item_id, "newer", start=second)
        donor = next(p for p in pnet.peers if p.path != path)
        with pnet.net.frame() as frame:
            migrate_peer(pnet, donor, path)
        assert donor.store.get_entry(entry.key, entry.item_id).version == version
        assert frame.messages == 1
        second.fail()
        donor.fail()
        other = next(p for p in pnet.peers if p.path != path and p.online)
        with pytest.raises(ValueError, match="online"):
            migrate_peer(pnet, other, path)

    def test_online_coverage(self):
        pnet = build_network(8, replication=1, seed=15, split_by="population")
        assert online_coverage(pnet) == pytest.approx(1.0)
        pnet.peers[0].fail()
        assert online_coverage(pnet) == pytest.approx(1.0 - 2.0 ** -len(pnet.peers[0].path))


class TestUpdates:
    def test_update_creates_new_version_on_online_replicas(self):
        pnet = build_network(8, replication=2, seed=16, split_by="population")
        key = encode_string("fact")
        pnet.insert(key, "v1", item_id="fact")
        version, _trace = pnet.update(key, "fact", "v2")
        for peer in pnet.responsible_group(key):
            entry = peer.store.get_entry(key, "fact")
            assert entry.value == "v2" and entry.version == version

    def test_offline_replica_stays_stale(self):
        pnet = build_network(8, replication=2, seed=17, split_by="population")
        key = encode_string("fact")
        pnet.insert(key, "v1", item_id="fact")
        group = pnet.responsible_group(key)
        group[0].fail()
        pnet.update(key, "fact", "v2")
        assert group[0].store.get_entry(key, "fact").value == "v1"
        assert staleness(pnet, [key]) > 0

    def test_anti_entropy_reconciles_after_recovery(self):
        pnet = build_network(8, replication=2, seed=18, split_by="population")
        key = encode_string("fact")
        pnet.insert(key, "fact", item_id="fact")
        group = pnet.responsible_group(key)
        group[0].fail()
        pnet.update(key, "fact", "v2")
        group[0].recover()
        rounds = 0
        while staleness(pnet, [key]) > 0 and rounds < 10:
            anti_entropy_round(pnet)
            rounds += 1
        assert staleness(pnet, [key]) == 0.0
        assert group[0].store.get_entry(key, "fact").value == "v2"

    def test_sync_pair_is_bidirectional(self):
        pnet = build_network(4, replication=2, seed=19, split_by="population")
        a, b = pnet.leaf_groups()[pnet.peers[0].path][:2]
        from repro.pgrid.datastore import Entry

        a.store.put(Entry(a.path + "0" * 8, "only-a", "A", 1))
        b.store.put(Entry(b.path + "1" * 8, "only-b", "B", 1))
        moved = sync_pair(a, b)
        assert moved == 2
        assert a.store.get_entry(b.path + "1" * 8, "only-b")
        assert b.store.get_entry(a.path + "0" * 8, "only-a")

    def test_delete_propagates_to_online_replicas(self):
        pnet = build_network(8, replication=2, seed=20, split_by="population")
        key = encode_string("gone")
        pnet.insert(key, "x", item_id="gone")
        removed, _trace = pnet.delete(key, "gone")
        assert removed
        for peer in pnet.responsible_group(key):
            assert peer.store.get(key) == []


class TestJoinAndMerge:
    def test_join_peer_becomes_replica(self):
        pnet = build_network(8, replication=2, seed=21, split_by="population")
        _load_words(pnet, [f"w{i}" for i in range(40)])
        newcomer, trace = join_peer(pnet, "latecomer")
        assert newcomer.path  # adopted a real position
        host_group = [p for p in pnet.peers if p.path == newcomer.path and p is not newcomer]
        assert host_group
        assert newcomer.load == host_group[0].load
        assert trace.messages > 0

    def test_newcomer_is_never_its_own_bootstrap_contact(self):
        # With the newcomer online before the draw, this seed picked it as
        # its own contact: it stayed at path '' with a 0-message trace.
        pnet = build_network(3, replication=1, seed=0, split_by="population")
        newcomer, trace = join_peer(pnet, "newcomer-3", rng=random.Random(0))
        assert newcomer.path != ""
        assert pnet.trie_paths() == ["00", "01", "1"]
        assert pnet.is_complete()
        assert trace.messages > 0

    def test_merge_overlays_unions_data(self):
        from repro.net.network import Network

        shared = Network(seed=22)
        a = PGridNetwork(shared, seed=22)
        b = PGridNetwork(shared, seed=23)
        for index in range(8):
            a.add_peer(f"a-{index}")
        for index in range(4):
            b.add_peer(f"b-{index}")
        from repro.pgrid.construction import wire_routing_tables, balanced_paths

        for pnet in (a, b):
            paths = balanced_paths(len(pnet.peers) // 2)
            for i, peer in enumerate(pnet.peers):
                peer.set_path(paths[i % len(paths)])
            wire_routing_tables(pnet)
        bulk_load(a, [(encode_string(f"a{i}"), f"a{i}", f"a{i}") for i in range(10)])
        bulk_load(b, [(encode_string(f"b{i}"), f"b{i}", f"b{i}") for i in range(10)])

        merged = merge_overlays(a, b, capacity=50)
        stored = {e.item_id for e in merged.all_entries()}
        assert {f"a{i}" for i in range(10)} <= stored
        assert {f"b{i}" for i in range(10)} <= stored
        # All data is queryable through normal lookups.
        for i in range(10):
            entries, _trace = merged.lookup(encode_string(f"b{i}"))
            assert any(e.value == f"b{i}" for e in entries)
