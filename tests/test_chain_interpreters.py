"""The two interpreters of a routed wave, and the shower's two interpreters.

Every routed P-Grid operation emits one form — ``ChainSpec`` chains of hops
plus follow-up sends — and ``Network.run_chains`` (causal trace) and
``EventScheduler.run_chains`` (simulated time) interpret it.  These tests
drive random chain lists through both and hold them to the same accounting.

The shower expands its fan-out tree once and then interprets it.  Its trace
interpreter is held to a copy of the depth-first visitor it replaced, which
sent each edge as it chose it: same trace to the last float bit, same entry
and group order, same stats, and the same RNG state afterwards.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.net import ConstantLatency, EventScheduler, PlanetLabLatency
from repro.net.scheduler import then_send
from repro.net.trace import Trace
from repro.pgrid import build_network, bulk_load
from repro.pgrid.datastore import Entry
from repro.pgrid.keys import KeyRange
from repro.pgrid.network import PGridNetwork
from repro.pgrid.peer import PGridPeer
from repro.pgrid.range_query import range_query_shower, range_query_shower_groups

SLOW = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])

NODES = [f"n{i}" for i in range(6)]
PAIRS = st.tuples(st.sampled_from(NODES), st.sampled_from(NODES))
KINDS = st.sampled_from(["lookup", "insert", "join-rehash"])
SENDS = st.lists(st.tuples(PAIRS, KINDS, st.integers(1, 5)), max_size=3)
CHAINS = st.lists(
    st.tuples(st.lists(PAIRS, max_size=4), KINDS, st.integers(1, 5), SENDS), max_size=5
)
PARTIALS = st.lists(st.tuples(st.lists(PAIRS, max_size=3), KINDS, st.integers(1, 5)), max_size=2)


def _wave(net, runner, chains, partials):
    """Run one wave through ``runner``; return its trace, stats and arrivals."""
    arrivals: list[float] = []

    def on_arrival(sends):
        def arrived(time):
            arrivals.append(time)
            return [(src, dst, kind, size) for (src, dst), kind, size in sends]

        return arrived

    specs = [(hops, kind, size, on_arrival(sends)) for hops, kind, size, sends in chains]
    with net.frame() as frame:
        trace = runner.run_chains(specs, untracked=[tuple(p) for p in partials])
    return trace, (dict(frame.by_kind), dict(frame.bytes_by_kind)), sorted(arrivals)


def _twins(latency_model):
    return [build_network(len(NODES), seed=3, latency_model=latency_model).net for _ in range(2)]


def _rename(chains, partials, net):
    """Map the abstract node names onto the twin overlay's peer ids."""
    ids = dict(zip(NODES, sorted(net.nodes)))
    chains = [
        (
            [(ids[a], ids[b]) for a, b in hops],
            kind,
            size,
            [((ids[a], ids[b]), k, s) for (a, b), k, s in sends],
        )
        for hops, kind, size, sends in chains
    ]
    partials = [([(ids[a], ids[b]) for a, b in hops], kind, size) for hops, kind, size in partials]
    return chains, partials


class TestRunChainsInterpretersAgree:
    @SLOW
    @given(chains=CHAINS, partials=PARTIALS)
    def test_constant_latency(self, chains, partials):
        trace_net, event_net = _twins(ConstantLatency(0.05))
        chains, partials = _rename(chains, partials, trace_net)
        trace_t, stats_t, arrivals_t = _wave(trace_net, trace_net, chains, partials)
        trace_e, stats_e, arrivals_e = _wave(event_net, EventScheduler(event_net), chains, partials)
        assert (trace_t.messages, trace_t.hops) == (trace_e.messages, trace_e.hops)
        assert trace_t.latency == pytest.approx(trace_e.latency)
        assert trace_e.completion_time == pytest.approx(trace_e.latency)
        assert stats_t == stats_e
        assert arrivals_t == pytest.approx(arrivals_e)

    @SLOW
    @given(chains=CHAINS, partials=PARTIALS)
    def test_planetlab_latency(self, chains, partials):
        trace_net, event_net = _twins(PlanetLabLatency())
        chains, partials = _rename(chains, partials, trace_net)
        trace_t, stats_t, _ = _wave(trace_net, trace_net, chains, partials)
        trace_e, stats_e, _ = _wave(event_net, EventScheduler(event_net), chains, partials)
        assert (trace_t.messages, trace_t.hops) == (trace_e.messages, trace_e.hops)
        assert stats_t == stats_e

    def test_follow_ups_run_in_parallel_after_the_hops(self):
        net = build_network(3, seed=1, latency_model=ConstantLatency(0.1)).net
        a, b, c = sorted(net.nodes)
        pushes = [(b, a, "insert", 2), (b, c, "insert", 2)]
        chains = [([(a, b)], "insert", 2, then_send(pushes)), ([], "insert", 1, then_send())]
        assert net.run_chains(chains) == Trace(messages=3, hops=2, latency=pytest.approx(0.2))


# -- the shower's trace interpreter ----------------------------------------------


def reference_shower_visit(
    pnet: PGridNetwork,
    peer: PGridPeer,
    key_range: KeyRange,
    cover: str,
    rng: random.Random,
    kind: str,
    collect: bool,
    groups: list[tuple[str, list[Entry]]] | None,
) -> tuple[list[Entry], Trace, bool]:
    """The depth-first shower visitor the tree interpreter replaced."""
    local = peer.store.scan(key_range)
    if groups is not None and local:
        groups.append((peer.node_id, local))
    complete = True
    branches: list[Trace] = []

    for level in range(len(cover), len(peer.path)):
        subtree = peer.required_prefix(level)
        if not key_range.intersects_path(subtree):
            continue
        refs = peer.valid_refs(level)
        if not refs:
            complete = False
            continue
        ref_id = rng.choice(refs)
        hop = pnet.net.send(peer.node_id, ref_id, kind, size=1)
        child = pnet.net.nodes[ref_id]
        sub_entries, sub_trace, sub_complete = reference_shower_visit(
            pnet,
            child,
            key_range,
            cover=subtree,
            rng=rng,
            kind=kind,
            collect=collect,
            groups=groups,
        )
        branch = hop.then(sub_trace)
        if collect:
            back = pnet.net.send(ref_id, peer.node_id, kind, size=max(1, len(sub_entries)))
            branch = branch.then(back)
            local.extend(sub_entries)
        branches.append(branch)
        complete = complete and sub_complete

    trace = Trace.parallel(branches) if branches else Trace.ZERO
    return local, trace, complete


BITS = st.text(alphabet="01", min_size=1, max_size=10)


def _overlay(num_peers, replication, keys, failed, seed):
    pnet = build_network(
        num_peers,
        replication=replication,
        seed=seed,
        split_by="population",
        latency_model=PlanetLabLatency(),
    )
    bulk_load(pnet, [(key, f"id{i}", i) for i, key in enumerate(keys)])
    for index in failed:
        pnet.peers[index % num_peers].fail()
    return pnet


def _identities(entries):
    return [(e.key, e.item_id, e.version) for e in entries]


SHOWER_CASES = dict(
    num_peers=st.integers(16, 128),
    replication=st.integers(1, 3),
    keys=st.lists(BITS, min_size=1, max_size=60),
    bounds=st.tuples(BITS, BITS),
    failed=st.lists(st.integers(0, 127), max_size=6),
    seed=st.integers(0, 2**16),
)


class TestShowerTraceInterpreter:
    @SLOW
    @given(collect=st.booleans(), **SHOWER_CASES)
    def test_matches_the_depth_first_visitor(
        self, collect, num_peers, replication, keys, bounds, failed, seed
    ):
        reference, subject = (
            _overlay(num_peers, replication, keys, failed, seed) for _ in range(2)
        )
        key_range = KeyRange(min(bounds), max(bounds))
        start_index = seed % num_peers
        if not reference.peers[start_index].online:
            return
        with reference.net.frame() as frame_r:
            groups_r = None if collect else []
            entries_r, trace_r, complete_r = reference_shower_visit(
                reference,
                reference.peers[start_index],
                key_range,
                cover="",
                rng=reference.rng,
                kind="range",
                collect=collect,
                groups=groups_r,
            )
        with subject.net.frame() as frame_s:
            start = subject.peers[start_index]
            if collect:
                entries_s, trace_s, complete_s = range_query_shower(subject, key_range, start=start)
            else:
                groups_s, trace_s, complete_s = range_query_shower_groups(
                    subject, key_range, start=start
                )
        assert trace_s == trace_r  # exact floats
        if collect:
            assert _identities(entries_s) == _identities(entries_r)
        else:
            assert [(p, _identities(g)) for p, g in groups_s] == [
                (p, _identities(g)) for p, g in groups_r
            ]
        assert complete_s == complete_r
        assert frame_s.by_kind == frame_r.by_kind
        assert frame_s.bytes_by_kind == frame_r.bytes_by_kind
        assert subject.net.rng.getstate() == reference.net.rng.getstate()
        assert subject.rng.getstate() == reference.rng.getstate()

    @SLOW
    @given(collect=st.booleans(), **SHOWER_CASES)
    def test_event_interpreter_counts_the_same_tree(
        self, collect, num_peers, replication, keys, bounds, failed, seed
    ):
        trace_net, event_net = (
            _overlay(num_peers, replication, keys, failed, seed) for _ in range(2)
        )
        key_range = KeyRange(min(bounds), max(bounds))
        start_index = seed % num_peers
        if not trace_net.peers[start_index].online:
            return
        query = range_query_shower if collect else range_query_shower_groups
        result_t, trace_t, complete_t = query(
            trace_net, key_range, start=trace_net.peers[start_index]
        )
        with event_net.event_driven():
            result_e, trace_e, complete_e = query(
                event_net, key_range, start=event_net.peers[start_index]
            )
        assert (trace_e.messages, trace_e.hops) == (trace_t.messages, trace_t.hops)
        assert complete_e == complete_t
        if collect:
            assert sorted(_identities(result_e)) == sorted(_identities(result_t))
        else:
            assert sorted(p for p, _ in result_e) == sorted(p for p, _ in result_t)
