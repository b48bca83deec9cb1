"""Per-peer route caching: shortcut hits, validation-at-use, invalidation;
only the initiator of a route learns its destination."""

import random

import pytest

from repro.pgrid import build_network, encode_string
from repro.pgrid.keys import responsible
from repro.pgrid.routing import RouteCache, point_key, route, route_hops


def _key(word: str) -> str:
    return encode_string(word)


class TestRouteCacheUnit:
    def test_longest_covering_prefix_wins(self):
        cache = RouteCache()
        cache.put("0", "shallow")
        cache.put("00", "deep")
        assert cache.get("001")[1] == "deep"
        assert cache.get("010")[1] == "shallow"
        assert cache.get("110") is None

    def test_lru_eviction_at_capacity(self):
        cache = RouteCache(capacity=2)
        cache.put("00", "a")
        cache.put("01", "b")
        cache.get("000")  # touch "00" so "01" becomes the LRU victim
        cache.put("10", "c")
        assert len(cache) == 2
        assert cache.get("010") is None
        assert cache.get("000")[1] == "a"

    def test_invalidate_key_drops_covering_entries(self):
        cache = RouteCache()
        cache.put("0", "a")
        cache.put("00", "b")
        cache.put("11", "c")
        cache.invalidate_key("001")
        assert cache.get("001") is None
        assert cache.get("110")[1] == "c"

    def test_rejects_silly_capacity(self):
        with pytest.raises(ValueError):
            RouteCache(capacity=0)


class TestRoutingWithCache:
    def test_repeat_route_shortcuts_to_one_direct_hop(self):
        pnet = build_network(64, replication=2, seed=3, split_by="population")
        start = pnet.peers[0]
        key = _key("repeatable")
        first_dest, first_trace = route(start, key)
        second_dest, second_trace = route(start, key)
        assert second_dest is first_dest
        assert second_trace.messages <= 1  # cached: direct hop (0 when local)
        assert second_trace.messages <= first_trace.messages
        assert start.route_cache.hits >= 1

    def test_offline_destination_is_evicted_and_rerouted(self):
        pnet = build_network(32, replication=2, seed=5, split_by="population")
        key = _key("failover")
        # Start somewhere not responsible for the key, so routing really moves.
        start = next(p for p in pnet.peers if not responsible(p.path, key))
        cached_dest, _ = route(start, key)
        cached_dest.fail()
        new_dest, trace = route(start, key)
        assert new_dest is not cached_dest
        assert new_dest.online and responsible(new_dest.path, key)
        assert start.route_cache.evictions >= 1
        # The replacement destination is cached for the next round trip.
        assert start.route_cache.get(key)[1] == new_dest.node_id

    def test_stale_entry_pointing_at_moved_peer_falls_back(self):
        pnet = build_network(32, replication=2, seed=6, split_by="population")
        key = _key("stale-entry")
        start = next(p for p in pnet.peers if not responsible(p.path, key))
        real_dest, _ = route(start, key)
        # Poison the cache with a peer that does not cover the key's region.
        wrong = next(p for p in pnet.peers if not responsible(p.path, key))
        start.route_cache.clear()
        start.route_cache.put(real_dest.path, wrong.node_id)
        dest, _trace = route(start, key)
        assert responsible(dest.path, key)
        assert start.route_cache.evictions >= 1

    def test_route_warming_is_off_by_default(self):
        """Transit peers forward a route without learning its destination."""
        pnet = build_network(128, replication=2, seed=21, split_by="population")
        key = point_key(encode_string("wander"))
        _dest, hops = route_hops(pnet.peers[0], key, rng=random.Random(1))
        for src_id, _dst_id in hops[1:]:
            assert len(pnet.net.nodes[src_id].route_cache) == 0

    def test_cache_does_not_change_results_under_churn(self):
        """Routed lookups keep returning the stored value across fail/recover."""
        pnet = build_network(32, replication=2, seed=9, split_by="population")
        key = _key("durable")
        pnet.insert(key, "payload", item_id="item-durable")
        start = pnet.peers[0]
        for round_no in range(6):
            entries, _trace = pnet.lookup(key, start=start)
            assert [e.value for e in entries] == ["payload"], round_no
            group = pnet.responsible_group(key)
            victim = group[round_no % len(group)]
            online_rest = [p for p in group if p is not victim and p.online]
            if online_rest:  # keep the region reachable
                victim.fail()
                entries, _trace = pnet.lookup(key, start=start)
                assert [e.value for e in entries] == ["payload"]
                victim.recover()
