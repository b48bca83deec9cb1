"""Event-driven (simulated-time) execution of routed operations.

Covers the scheduler layer end to end, per the PR's checklist:

* a fan-out over k regions with known per-hop latencies completes at the
  *max*, not the sum, of its chain latencies;
* deterministic replay — the same seed yields the identical delivery log and
  ``completion_time``;
* the event-driven and causal-trace models agree on message counts (and on
  results), from bulk primitives all the way up to full VQL queries.
"""

import random

import pytest

from repro import UniStore
from repro.bench import ConferenceWorkload
from repro.errors import NodeUnreachableError, RoutingError
from repro.net import ConstantLatency, EventScheduler, Network, PlanetLabLatency, ZeroLatency
from repro.net.trace import Trace
from repro.pgrid import bootstrap_exchange, build_network, bulk_load, encode_string
from repro.pgrid.datastore import Entry
from repro.pgrid.network import PGridNetwork
from repro.pgrid.range_query import range_query_shower
from repro.pgrid.keys import KeyRange
from repro.pgrid.load_balancing import migrate_peer, split_group
from repro.pgrid.merge import join_peer
from repro.pgrid.updates import anti_entropy_round

WORDS = [f"word{i:03d}" for i in range(40)]
ITEMS = [(encode_string(w), f"id-{w}", f"val-{w}") for w in WORDS]
KEYS = [key for key, _id, _value in ITEMS]


def _overlay(seed, latency_model=None, replication=2):
    pnet = build_network(
        32, replication=replication, seed=seed, split_by="population", latency_model=latency_model
    )
    return pnet


def _loaded(seed, latency_model=None):
    pnet = _overlay(seed, latency_model=latency_model)
    bulk_load(pnet, ITEMS)
    return pnet


def _entry_sets(results):
    return {key: {(e.item_id, e.value) for e in entries} for key, entries in results.items()}


class TestKnownLatencyFanout:
    """A hand-built 3-peer trie with pinned link latencies."""

    def _tiny_overlay(self):
        pnet = PGridNetwork(Network(latency_model=ZeroLatency(), seed=0))
        a = pnet.add_peer("a", "00")
        b = pnet.add_peer("b", "01")
        c = pnet.add_peer("c", "1")
        a.routing.add(0, "c")
        a.routing.add(1, "b")
        b.routing.add(0, "c")
        b.routing.add(1, "a")
        c.routing.add(0, "a")
        pnet.net.set_link_latency("a", "b", 0.2)
        pnet.net.set_link_latency("a", "c", 0.5)
        b.store.put(Entry(key="011", item_id="x", value="vb", version=1))
        c.store.put(Entry(key="10", item_id="y", value="vc", version=1))
        return pnet, a

    def test_two_region_lookup_completes_at_max_of_chains(self):
        pnet, a = self._tiny_overlay()
        with pnet.event_driven() as sched:
            results, trace = pnet.lookup_many(["011", "10"], start=a)
        # Chains: a->b + reply (0.2 + 0.2) and a->c + reply (0.5 + 0.5).
        # Overlapped completion is the max (1.0), not the sum (1.4).
        assert trace.latency == pytest.approx(1.0)
        assert trace.completion_time == pytest.approx(1.0)
        assert trace.messages == 4 and trace.hops == 2
        assert {(e.item_id, e.value) for e in results["011"]} == {("x", "vb")}
        assert {(e.item_id, e.value) for e in results["10"]} == {("y", "vc")}
        # The delivery log shows the chains genuinely interleaved in time.
        assert [(d.src, d.dst, d.time) for d in sched.log] == [
            ("a", "b", pytest.approx(0.2)),
            ("b", "a", pytest.approx(0.4)),
            ("a", "c", pytest.approx(0.5)),
            ("c", "a", pytest.approx(1.0)),
        ]
        assert sched.pending() == 0

    def test_causal_trace_mode_agrees_on_the_max(self):
        pnet, a = self._tiny_overlay()
        _results, trace = pnet.lookup_many(["011", "10"], start=a)
        assert trace.latency == pytest.approx(1.0)  # analytic parallel max
        assert trace.completion_time == 0.0  # never on a simulated clock

    def test_scheduler_refuses_offline_destination(self):
        pnet, a = self._tiny_overlay()
        pnet.peer("c").fail()
        scheduler = EventScheduler(pnet.net)
        with pytest.raises(NodeUnreachableError):
            scheduler.send_at(0.0, "a", "c", "test")


class TestFailedBulkRoutes:
    """A bulk route that dead-ends is charged in the active model, like a
    single-key route: its partial hops run on the simulated clock."""

    def _dead_end_overlay(self):
        # a("0") -> d("10") -> e("11"), and e is down: routes to "11..." stop at d.
        pnet = PGridNetwork(Network(latency_model=ConstantLatency(0.1), seed=0))
        a = pnet.add_peer("a", "0")
        d = pnet.add_peer("d", "10")
        e = pnet.add_peer("e", "11")
        a.routing.add(0, "d")
        d.routing.add(0, "a")
        d.routing.add(1, "e")
        e.routing.add(0, "a")
        e.routing.add(1, "d")
        e.fail()
        return pnet, a

    @pytest.mark.parametrize(
        "operation, kind",
        [
            (lambda pnet, a: pnet.lookup_many(["111"], start=a), "lookup"),
            (lambda pnet, a: pnet.insert_many([("111", "x", 1)], start=a), "insert"),
            (lambda pnet, a: pnet.lookup_at("111", start=a), "lookup"),
            (lambda pnet, a: pnet.insert("111", 1, item_id="x", start=a), "insert"),
        ],
        ids=["lookup_many", "insert_many", "lookup_at", "insert"],
    )
    def test_partial_hops_are_scheduled(self, operation, kind):
        pnet, a = self._dead_end_overlay()
        with pnet.event_driven() as sched:
            with pytest.raises(RoutingError) as raised:
                operation(pnet, a)
        assert [(d.src, d.dst, d.kind, d.time) for d in sched.log] == [
            ("a", "d", kind, pytest.approx(0.1))
        ]
        trace = raised.value.trace
        assert (trace.messages, trace.hops) == (1, 1)
        assert trace.latency == pytest.approx(0.1)
        assert trace.completion_time == pytest.approx(0.1)


class TestDeterministicReplay:
    def _run(self, seed=404):
        pnet = _loaded(seed, latency_model=PlanetLabLatency())
        with pnet.event_driven() as sched:
            _results, lookup_trace = pnet.lookup_many(KEYS, start=pnet.peers[0])
            insert_trace = pnet.insert_many(
                [(encode_string(f"new{i}"), f"nid{i}", i) for i in range(10)],
                start=pnet.peers[1],
            )
        return list(sched.log), lookup_trace, insert_trace

    def test_same_seed_same_event_order_and_completion(self):
        log_a, lookup_a, insert_a = self._run()
        log_b, lookup_b, insert_b = self._run()
        assert log_a == log_b  # identical deliveries, identical instants
        assert lookup_a == lookup_b
        assert insert_a == insert_b
        assert insert_a.completion_time >= lookup_a.completion_time  # monotone clock

    def test_different_seed_differs(self):
        log_a, _lookup_a, _insert_a = self._run(404)
        log_b, _lookup_b, _insert_b = self._run(405)
        assert log_a != log_b


class TestModeAgreement:
    """Same seeds, twin overlays: trace mode vs event mode."""

    def test_lookup_many_messages_results_and_max_latency(self):
        trace_net = _loaded(77, latency_model=ConstantLatency(0.05))
        event_net = _loaded(77, latency_model=ConstantLatency(0.05))
        results_t, trace_t = trace_net.lookup_many(KEYS, start=trace_net.peers[0])
        with event_net.net.frame() as frame, event_net.event_driven():
            results_e, trace_e = event_net.lookup_many(KEYS, start=event_net.peers[0])
        assert _entry_sets(results_t) == _entry_sets(results_e)
        assert trace_t.messages == trace_e.messages == frame.messages
        # With constant per-link latency the measured max equals the analytic max.
        assert trace_e.latency == pytest.approx(trace_t.latency)
        assert frame.completion_time == pytest.approx(trace_e.completion_time)

    def test_insert_many_messages_and_replica_placement(self):
        trace_net = _overlay(78, latency_model=ConstantLatency(0.05))
        event_net = _overlay(78, latency_model=ConstantLatency(0.05))
        trace_t = trace_net.insert_many(ITEMS, start=trace_net.peers[0])
        with event_net.event_driven():
            trace_e = event_net.insert_many(ITEMS, start=event_net.peers[0])
        assert trace_t.messages == trace_e.messages
        assert trace_t.hops == trace_e.hops
        assert trace_e.latency == pytest.approx(trace_t.latency)

        def stored(pnet):
            return {(e.key, e.item_id, e.value) for e in pnet.all_entries()}

        assert stored(trace_net) == stored(event_net)
        for key, item_id, value in ITEMS:
            for peer in event_net.responsible_group(key):
                entry = peer.store.get_entry(key, item_id)
                assert entry is not None and entry.value == value

    def test_shower_fanout_same_tree_measured_max(self):
        trace_net = _loaded(79, latency_model=ConstantLatency(0.05))
        event_net = _loaded(79, latency_model=ConstantLatency(0.05))
        key_range = KeyRange(encode_string("word000"), encode_string("word030"))
        entries_t, trace_t, complete_t = range_query_shower(
            trace_net, key_range, start=trace_net.peers[0]
        )
        with event_net.event_driven():
            entries_e, trace_e, complete_e = range_query_shower(
                event_net, key_range, start=event_net.peers[0]
            )
        assert complete_t and complete_e
        assert {(e.key, e.item_id) for e in entries_t} == {(e.key, e.item_id) for e in entries_e}
        assert trace_t.messages == trace_e.messages
        assert trace_t.hops == trace_e.hops
        assert trace_e.latency == pytest.approx(trace_t.latency)

    def test_full_queries_agree_end_to_end(self):
        def build(seed=4242):
            store = UniStore.build(
                num_peers=32,
                replication=2,
                seed=seed,
                latency_model=ConstantLatency(0.05),
                enable_qgram_index=True,
            )
            workload = ConferenceWorkload(
                num_authors=20, num_publications=40, num_conferences=8, seed=seed
            )
            workload.load_into(store)
            return store, workload

        trace_store, workload = build()
        event_store, _workload = build()
        for name, vql in workload.query_mix().items():
            result_t = trace_store.execute(vql)
            with event_store.event_driven():
                result_e = event_store.execute(vql)
            assert result_t.sorted_rows() == result_e.sorted_rows(), name
            assert result_t.messages == result_e.messages, name
            assert result_e.trace.completion_time > 0.0, name

    def test_mqp_mode_runs_in_simulated_time(self):
        def build(seed=4243):
            store = UniStore.build(
                num_peers=32,
                replication=2,
                seed=seed,
                latency_model=ConstantLatency(0.05),
            )
            workload = ConferenceWorkload(
                num_authors=20, num_publications=40, num_conferences=8, seed=seed
            )
            workload.load_into(store)
            return store, workload

        trace_store, workload = build()
        event_store, _workload = build()
        join_query = workload.query_mix()["join"]
        result_t = trace_store.execute(join_query, mode="mqp")
        with event_store.event_driven():
            result_e = event_store.execute(join_query, mode="mqp")
        assert result_t.sorted_rows() == result_e.sorted_rows()
        assert result_t.messages == result_e.messages
        assert result_e.trace.completion_time > 0.0


class TestSingleOps:
    def test_single_lookup_and_insert_round_trip(self):
        pnet = _loaded(91, latency_model=ConstantLatency(0.05))
        with pnet.event_driven() as sched:
            entries, lookup_trace = pnet.lookup(KEYS[3], start=pnet.peers[2])
            insert_trace = pnet.insert(
                encode_string("fresh"), "fv", item_id="fid", start=pnet.peers[2]
            )
            removed, delete_trace = pnet.delete(encode_string("fresh"), "fid")
        assert entries and lookup_trace.completion_time > 0.0
        assert insert_trace.completion_time >= lookup_trace.completion_time
        assert removed and delete_trace.completion_time >= insert_trace.completion_time
        assert sched.pending() == 0

    def test_detach_restores_causal_trace_mode(self):
        pnet = _loaded(92)
        with pnet.event_driven():
            assert pnet.scheduler is not None
        assert pnet.scheduler is None
        _entries, trace = pnet.lookup(KEYS[0], start=pnet.peers[0])
        assert trace.completion_time == 0.0


class TestTraceCompletionTime:
    def test_composition_takes_latest_instant(self):
        a = Trace(1, 1, 0.1, completion_time=0.4)
        b = Trace(1, 1, 0.2, completion_time=0.3)
        assert a.then(b).completion_time == 0.4
        assert Trace.parallel([a, b]).completion_time == 0.4
        assert a.then(Trace.ZERO) == a
        assert Trace.hop(0.1, at=1.5).completion_time == 1.5


class TestMaintenanceInEventMode:
    """Joins, anti-entropy and load balancing are charged on the simulated
    clock inside ``event_driven()``, like every data operation."""

    def _overlay(self):
        pnet = build_network(
            16, replication=2, seed=4, split_by="population", latency_model=ConstantLatency(0.1)
        )
        bulk_load(pnet, ITEMS)
        return pnet

    def test_join_is_scheduled(self):
        pnet = self._overlay()
        with pnet.event_driven() as sched:
            _newcomer, trace = join_peer(pnet, "newcomer", rng=random.Random(1))
        joins = [d for d in sched.log if d.kind == "join"]
        assert len(joins) == trace.messages >= 2
        assert trace.completion_time == pytest.approx(joins[-1].time)
        assert trace.completion_time > 0.0

    def test_anti_entropy_is_scheduled(self):
        pnet = self._overlay()
        with pnet.event_driven() as sched:
            anti_entropy_round(pnet, rng=random.Random(2))
        syncs = [d for d in sched.log if d.kind == "anti-entropy"]
        paired = sum(1 for peer in pnet.online_peers() if peer.online_replicas())
        assert len(syncs) == 2 * paired > 0
        # All pairs gossip concurrently: one digest + reply round trip, not
        # one round trip per pair.
        assert sched.now == pytest.approx(0.2)

    def test_bootstrap_exchange_is_scheduled(self):
        pnet = PGridNetwork(Network(latency_model=ConstantLatency(0.1)), seed=6)
        for index in range(16):
            pnet.add_peer(f"boot-{index:02d}")
        for index, (key, item_id, value) in enumerate(ITEMS):
            pnet.peers[index % 16].store.merge([Entry(key, item_id, value, 0)])
        with pnet.net.frame() as frame, pnet.event_driven() as sched:
            bootstrap_exchange(pnet, rounds=3, capacity=4, rng=random.Random(6))
        exchanges = [d for d in sched.log if d.kind == "exchange"]
        assert len(exchanges) == frame.by_kind["exchange"] > 16
        # Each exchange message is its own one-hop wave, sent in turn.
        assert sched.now == pytest.approx(0.1 * len(exchanges))

    def test_anti_entropy_skips_a_peer_that_fails_mid_round(self):
        pnet = self._overlay()
        victim = pnet.peers[0]
        with pnet.event_driven() as sched:
            sched.sim.schedule_at(0.05, victim.fail)  # after the digests depart
            anti_entropy_round(pnet, rng=random.Random(2))
        replies = [d for d in sched.log if d.kind == "anti-entropy" and d.time > 0.15]
        assert replies
        assert all(victim.node_id not in (d.src, d.dst) for d in replies)

    def test_split_and_migration_are_scheduled(self):
        pnet = self._overlay()
        path = max(pnet.peers, key=lambda p: (p.load, p.node_id)).path
        donor = next(p for p in pnet.peers if p.path != path)
        with pnet.event_driven() as sched:
            assert split_group(pnet, path)
            split = len(sched.log)
            migrate_peer(pnet, donor, path + "0")
        assert split > 0 and len(sched.log) == split + 1
        assert {d.kind for d in sched.log} == {"balance"}
        assert sched.now > 0.0
