"""P-Grid overlay: construction, routing, inserts/lookups, fault tolerance."""

import math
import random
import string

import pytest

from repro.errors import RoutingError
from repro.pgrid import (
    PGridNetwork,
    balanced_paths,
    bootstrap_exchange,
    build_network,
    bulk_load,
    data_split_paths,
    encode_string,
    is_complete_partition,
    route,
)
from repro.pgrid.peer import RoutingTable


def _random_words(count, seed, length=6):
    rng = random.Random(seed)
    return ["".join(rng.choice(string.ascii_lowercase) for _ in range(length))
            for _ in range(count)]


class TestPathLayouts:
    def test_balanced_paths_power_of_two(self):
        paths = balanced_paths(8)
        assert len(paths) == 8
        assert all(len(p) == 3 for p in paths)
        assert is_complete_partition(paths)

    def test_balanced_paths_odd_count(self):
        paths = balanced_paths(5)
        assert len(paths) == 5
        assert is_complete_partition(paths)

    def test_balanced_paths_single(self):
        assert balanced_paths(1) == [""]

    def test_balanced_paths_rejects_zero(self):
        with pytest.raises(ValueError):
            balanced_paths(0)

    def test_data_split_follows_density(self):
        # All keys start with '0' -> the '0' side must be split deeper.
        keys = [encode_string(w) for w in _random_words(200, 3)]
        keys = ["0" + k[1:] for k in keys]
        paths = data_split_paths(keys, 8)
        assert is_complete_partition(paths)
        zero_side = [p for p in paths if p.startswith("0")]
        one_side = [p for p in paths if p.startswith("1")]
        assert len(zero_side) > len(one_side)

    def test_data_split_no_keys_falls_back(self):
        assert data_split_paths([], 4) == balanced_paths(4)


class TestOracleConstruction:
    def test_complete_partition(self):
        pnet = build_network(24, replication=2, seed=5)
        assert pnet.is_complete()

    def test_replication_target(self):
        pnet = build_network(32, replication=4, seed=5, split_by="population")
        groups = pnet.leaf_groups()
        assert len(groups) == 8
        assert all(len(peers) == 4 for peers in groups.values())

    def test_routing_tables_have_required_prefixes(self):
        pnet = build_network(32, replication=2, seed=6, split_by="population")
        for peer in pnet.peers:
            for level in range(len(peer.path)):
                refs = peer.valid_refs(level)
                assert refs, f"{peer.node_id} missing level {level}"
                prefix = peer.required_prefix(level)
                for ref_id in refs:
                    assert pnet.peer(ref_id).path.startswith(prefix)

    def test_replica_lists_symmetric(self):
        pnet = build_network(16, replication=2, seed=7, split_by="population")
        for peer in pnet.peers:
            for replica_id in peer.replicas:
                replica = pnet.peer(replica_id)
                assert replica.path == peer.path
                assert peer.node_id in replica.replicas

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            build_network(0)
        with pytest.raises(ValueError):
            build_network(4, replication=0)
        with pytest.raises(ValueError):
            build_network(4, split_by="magic")


class TestRoutingAndLookup:
    def test_every_key_reaches_owner(self):
        words = _random_words(100, seed=11)
        keys = [encode_string(w) for w in words]
        pnet = build_network(64, data_keys=keys, replication=2, seed=11)
        items = [(k, f"i{i}", w) for i, (k, w) in enumerate(zip(keys, words))]
        bulk_load(pnet, items)
        for word, key in zip(words, keys):
            entries, _trace = pnet.lookup(key)
            assert any(e.value == word for e in entries)

    def test_hops_are_logarithmic(self):
        words = _random_words(50, seed=13)
        keys = [encode_string(w) for w in words]
        pnet = build_network(128, replication=1, seed=13, split_by="population")
        hop_counts = []
        for key in keys:
            _entries, trace = pnet.lookup(key)
            hop_counts.append(trace.hops)
        # 128 groups -> log2 = 7; allow detours and reply hop.
        assert max(hop_counts) <= 2 * math.log2(128) + 2

    def test_route_from_every_peer(self):
        pnet = build_network(16, replication=1, seed=15, split_by="population")
        key = encode_string("hello")
        owners = {p.node_id for p in pnet.responsible_group(key)}
        for start in pnet.peers:
            destination, _trace = route(start, key)
            assert destination.node_id in owners

    def test_insert_reaches_all_replicas(self):
        pnet = build_network(16, replication=2, seed=17, split_by="population")
        key = encode_string("item")
        pnet.insert(key, "payload", item_id="a")
        group = pnet.responsible_group(key)
        assert len(group) == 2
        for peer in group:
            assert any(e.value == "payload" for e in peer.store.get(key))

    def test_lookup_fails_when_whole_group_dead(self):
        pnet = build_network(16, replication=2, seed=19, split_by="population")
        key = encode_string("doomed")
        pnet.insert(key, "x", item_id="a")
        for peer in pnet.responsible_group(key):
            peer.fail()
        alive = [p for p in pnet.peers if p.online]
        with pytest.raises(RoutingError):
            # Enough retries to rule out lucky detours.
            for start in alive:
                pnet.lookup(key, start=start)

    def test_lookup_survives_partial_group_failure(self):
        pnet = build_network(32, replication=4, seed=21, split_by="population")
        key = encode_string("resilient")
        pnet.insert(key, "x", item_id="a")
        group = pnet.responsible_group(key)
        for peer in group[:2]:  # kill half the replicas
            peer.fail()
        entries, _trace = pnet.lookup(key)
        assert any(e.value == "x" for e in entries)

    def test_stale_refs_pruned_on_use(self):
        pnet = build_network(8, replication=1, seed=23, split_by="population")
        peer = pnet.peers[0]
        level = 0
        refs_before = peer.routing.refs(level)
        assert refs_before
        # Corrupt one ref by pointing it at a peer from the wrong subtree.
        wrong = next(
            p for p in pnet.peers
            if not p.path.startswith(peer.required_prefix(level))
        )
        peer.routing.add(level, wrong.node_id)
        valid = peer.valid_refs(level)
        assert wrong.node_id not in valid
        assert wrong.node_id not in peer.routing.refs(level)  # pruned


class TestRoutingTable:
    def test_fanout_cap(self):
        table = RoutingTable(fanout=2)
        for index in range(5):
            table.add(0, f"p{index}")
        assert len(table.refs(0)) == 2

    def test_no_duplicates(self):
        table = RoutingTable()
        table.add(0, "p")
        table.add(0, "p")
        assert table.refs(0) == ["p"]

    def test_truncate(self):
        table = RoutingTable()
        table.add(0, "a")
        table.add(1, "b")
        table.add(2, "c")
        table.truncate(1)
        assert table.levels() == [0]

    def test_invalid_fanout(self):
        with pytest.raises(ValueError):
            RoutingTable(fanout=0)


class TestDecentralizedBootstrap:
    def test_exchange_converges_to_partition(self):
        pnet = PGridNetwork(seed=31)
        for index in range(16):
            pnet.add_peer(f"boot-{index:02d}")
        # Give every peer some data so splits are justified.
        words = _random_words(96, seed=31)
        rng = random.Random(31)
        for word in words:
            peer = rng.choice(pnet.peers)
            from repro.pgrid.datastore import Entry

            peer.store.put(Entry(encode_string(word), word, word, 0))
        bootstrap_exchange(pnet, rounds=60, capacity=12, rng=rng)
        paths = set(pnet.trie_paths())
        assert len(paths) > 1, "network never specialized"
        assert is_complete_partition(list(paths))

    def test_exchange_preserves_all_data(self):
        pnet = PGridNetwork(seed=37)
        for index in range(8):
            pnet.add_peer(f"boot-{index}")
        words = _random_words(40, seed=37)
        rng = random.Random(37)
        from repro.pgrid.datastore import Entry

        for word in words:
            rng.choice(pnet.peers).store.put(
                Entry(encode_string(word), word, word, 0)
            )
        bootstrap_exchange(pnet, rounds=40, capacity=8, rng=rng)
        stored = {e.item_id for e in pnet.all_entries()}
        assert stored == set(words)

    def test_peers_end_up_responsible_for_their_data(self):
        from repro.pgrid.keys import responsible

        pnet = PGridNetwork(seed=41)
        for index in range(8):
            pnet.add_peer(f"boot-{index}")
        words = _random_words(48, seed=41)
        rng = random.Random(41)
        from repro.pgrid.datastore import Entry

        for word in words:
            rng.choice(pnet.peers).store.put(
                Entry(encode_string(word), word, word, 0)
            )
        bootstrap_exchange(pnet, rounds=80, capacity=8, rng=rng)
        misplaced = 0
        for peer in pnet.peers:
            for entry in peer.store:
                if not responsible(peer.path, entry.key):
                    misplaced += 1
        total = sum(p.load for p in pnet.peers)
        assert misplaced / max(1, total) < 0.25  # most data homed correctly


class TestGatewayDraw:
    """``random_online_peer`` draws from a cached online-peer list; every draw
    must equal ``rng.choice(online_peers())`` with the same RNG state."""

    def test_cached_pick_matches_a_fresh_list(self):
        from repro.pgrid.load_balancing import migrate_peer
        from repro.pgrid.merge import join_peer

        pnet = build_network(24, replication=2, seed=23, split_by="population")
        rng, reference = random.Random(5), random.Random(5)

        def draws(count=40):
            for _ in range(count):
                expected = reference.choice(pnet.online_peers())
                assert pnet.random_online_peer(rng) is expected
                assert rng.getstate() == reference.getstate()

        draws()
        victims = pnet.peers[3:9]
        for peer in victims:
            peer.fail()
        draws()
        victims[2].recover()
        draws()
        join_peer(pnet, "newcomer-0", rng=random.Random(1))
        draws()
        groups = pnet.leaf_groups()
        first, second = sorted(groups)[:2]
        migrate_peer(pnet, groups[first][0], second)
        draws()
        for peer in victims:
            peer.recover()
        pnet.peers[0].fail()
        draws()
