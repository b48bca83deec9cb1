"""Range queries: shower and sequential, vs global ground truth."""

import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pgrid import (
    KeyRange,
    build_network,
    bulk_load,
    encode_string,
    range_query_sequential,
    range_query_shower,
)
from repro.pgrid import range_query
from repro.pgrid.range_query import (
    range_query_sequential_groups,
    range_query_shower_groups,
)
from repro.pgrid.routing import route


def _loaded_network(num_peers=32, num_words=200, seed=7, replication=2):
    rng = random.Random(seed)
    words = sorted(
        {"".join(rng.choice(string.ascii_lowercase) for _ in range(5)) for _ in range(num_words)}
    )
    keys = [encode_string(w) for w in words]
    pnet = build_network(num_peers, data_keys=keys, replication=replication, seed=seed)
    bulk_load(pnet, [(k, w, w) for k, w in zip(keys, words)])
    return pnet, words


@pytest.fixture(scope="module")
def loaded():
    return _loaded_network()


class TestShower:
    def test_prefix_subtree(self, loaded):
        pnet, words = loaded
        expected = sorted(w for w in words if w.startswith("a"))
        entries, _trace, complete = range_query_shower(pnet, KeyRange.subtree(encode_string("a")))
        assert complete
        assert sorted(e.value for e in entries) == expected

    def test_no_duplicates_despite_replication(self, loaded):
        pnet, words = loaded
        entries, _trace, _complete = range_query_shower(pnet, KeyRange.subtree(encode_string("b")))
        values = [e.value for e in entries]
        assert len(values) == len(set(values))

    def test_whole_space(self, loaded):
        pnet, words = loaded
        entries, _trace, complete = range_query_shower(pnet, KeyRange.everything())
        assert complete
        assert sorted(e.value for e in entries) == words

    def test_empty_range(self, loaded):
        pnet, _words = loaded
        # Digits sort below letters; no word matches.
        entries, _trace, complete = range_query_shower(pnet, KeyRange.subtree(encode_string("3")))
        assert complete and entries == []

    def test_interval_between_words(self, loaded):
        pnet, words = loaded
        lo, hi = encode_string("f"), encode_string("m")
        expected = sorted(w for w in words if "f" <= w < "m")
        entries, _trace, _complete = range_query_shower(pnet, KeyRange(lo, hi))
        assert sorted(e.value for e in entries) == expected

    def test_incomplete_when_subtree_dead(self):
        pnet, words = _loaded_network(num_peers=16, num_words=120, seed=9,
                                      replication=1)
        target = sorted(w for w in words if w.startswith("a"))
        if not target:
            pytest.skip("no words under 'a' for this seed")
        for peer in pnet.responsible_group(encode_string(target[0])):
            peer.fail()
        start = next(p for p in pnet.peers if p.online)
        entries, _trace, complete = range_query_shower(
            pnet, KeyRange.subtree(encode_string("a")), start=start
        )
        assert not complete
        assert len(entries) < len(target) or not entries


class TestSequential:
    def test_matches_shower(self, loaded):
        pnet, words = loaded
        key_range = KeyRange(encode_string("c"), encode_string("g"))
        shower_entries, _t1, _c1 = range_query_shower(pnet, key_range)
        seq_entries, _t2, _c2 = range_query_sequential(pnet, key_range)
        assert sorted(e.value for e in seq_entries) == sorted(e.value for e in shower_entries)

    def test_latency_worse_than_shower_for_wide_ranges(self, loaded):
        pnet, _words = loaded
        key_range = KeyRange.everything()
        _e1, shower_trace, _c1 = range_query_shower(pnet, key_range)
        _e2, seq_trace, _c2 = range_query_sequential(pnet, key_range)
        # The sequential walk's critical path includes every leaf.
        assert seq_trace.hops > shower_trace.hops

    def test_single_leaf_range(self, loaded):
        pnet, words = loaded
        word = words[0]
        key_range = KeyRange.subtree(encode_string(word))
        entries, _trace, complete = range_query_sequential(pnet, key_range)
        assert complete
        assert [e.value for e in entries] == [word]

    def test_leaf_bound_stops_the_walk_incomplete(self, monkeypatch):
        pnet, _words = _loaded_network(num_peers=16)
        assert len(pnet.trie_paths()) > 2
        routes = []

        def counting_route(*args, **kwargs):
            destination, trace = route(*args, **kwargs)
            routes.append(destination.path)
            return destination, trace

        monkeypatch.setattr(range_query, "MAX_SEQUENTIAL_LEAVES", 2)
        monkeypatch.setattr(range_query, "route", counting_route)
        groups, _trace, complete = range_query_sequential_groups(
            pnet, KeyRange.everything(), start=pnet.peers[0]
        )
        assert not complete
        # The route to the first leaf, then one step to the second; no route
        # to a third leaf the bound never lets the walk scan.
        assert len(routes) == 2
        assert {pnet.peer(peer_id).path for peer_id, _ in groups} <= set(routes)


class TestGroupsMode:
    def test_groups_cover_same_entries(self, loaded):
        pnet, words = loaded
        key_range = KeyRange.subtree(encode_string("a"))
        flat, _trace, _c = range_query_shower(pnet, key_range)
        groups, _gtrace, _gc = range_query_shower_groups(pnet, key_range)
        grouped = sorted(e.value for _peer, entries in groups for e in entries)
        assert grouped == sorted(e.value for e in flat)

    def test_groups_attribute_correct_peers(self, loaded):
        pnet, _words = loaded
        key_range = KeyRange.subtree(encode_string("a"))
        groups, _trace, _c = range_query_shower_groups(pnet, key_range)
        for peer_id, entries in groups:
            peer = pnet.peer(peer_id)
            for entry in entries:
                assert entry.key.startswith(peer.path)

    def test_groups_trace_cheaper_than_collect(self, loaded):
        pnet, _words = loaded
        key_range = KeyRange.everything()
        _flat, collect_trace, _c1 = range_query_shower(pnet, key_range)
        _groups, produce_trace, _c2 = range_query_shower_groups(pnet, key_range)
        assert produce_trace.messages < collect_trace.messages

    def test_sequential_groups_match(self, loaded):
        pnet, _words = loaded
        key_range = KeyRange(encode_string("a"), encode_string("d"))
        flat, _t, _c = range_query_sequential(pnet, key_range)
        groups, _gt, _gc = range_query_sequential_groups(pnet, key_range)
        grouped = sorted(e.value for _peer, entries in groups for e in entries)
        assert grouped == sorted(e.value for e in flat)


class TestRangePropertyBased:
    @given(
        lo=st.text(alphabet="abcdefgh", min_size=1, max_size=3),
        hi=st.text(alphabet="abcdefgh", min_size=1, max_size=3),
    )
    @settings(max_examples=20, deadline=None)
    def test_arbitrary_ranges_match_ground_truth(self, lo, hi):
        pnet, words = _loaded_network(num_peers=16, num_words=80, seed=21)
        if lo > hi:
            lo, hi = hi, lo
        key_range = KeyRange(encode_string(lo), encode_string(hi))
        expected = sorted(w for w in words if lo <= w < hi)
        entries, _trace, complete = range_query_shower(pnet, key_range)
        assert complete
        assert sorted(e.value for e in entries) == expected
