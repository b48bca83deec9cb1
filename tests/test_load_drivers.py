"""Concurrent workload drivers, replica diffusion, churn under load.

* open-loop and closed-loop drivers keep many operations in flight on one
  clock and are deterministic per seed (identical delivery log, utilization
  snapshot and latency percentiles across runs);
* replica-based query-load diffusion spreads a hot key's work over its
  replica group (lower peak busy time, same answers);
* a peer failing mid-queue has its in-flight work re-routed: every issued
  operation ends completed or failed, the heap drains, and the outcome is
  deterministic (the churn regression of this PR).
"""

import random

import pytest

from repro.bench import percentile
from repro.load import (
    ClosedLoopDriver,
    LoadModel,
    OpenLoopDriver,
    ServiceProfile,
    choose_replica,
    completed_latencies,
    summarize,
)
from repro.net import ConstantLatency, Network
from repro.net.churn import ChurnEvent, generate_session_trace
from repro.pgrid import build_network, bulk_load, encode_string
from repro.pgrid.load_balancing import query_load_imbalance
from repro.pgrid.network import PGridNetwork

_WORD_RNG = random.Random(4096)
WORDS = sorted(
    {
        "".join(_WORD_RNG.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(7))
        for _ in range(40)
    }
)
ITEMS = [(encode_string(w), f"id-{w}", f"val-{w}") for w in WORDS]
KEYS = [key for key, _id, _value in ITEMS]
PROFILE = {"lookup": 0.002, "result": 0.0002}


def _overlay(seed=31, replication=3, num_peers=48):
    pnet = build_network(
        num_peers,
        replication=replication,
        seed=seed,
        split_by="population",
        latency_model=ConstantLatency(0.01),
    )
    bulk_load(pnet, ITEMS)
    return pnet


class TestOpenLoopDriver:
    def _run(self, seed=5, diffusion="none"):
        pnet = _overlay()
        model = LoadModel(ServiceProfile(PROFILE))
        with pnet.event_driven(load=model) as sched:
            driver = OpenLoopDriver(
                pnet, KEYS, rate=150, horizon=1.0, key_skew=0.9, seed=seed, diffusion=diffusion
            )
            records = driver.run()
            pending = sched.pending()
        return records, model, list(sched.log), pending

    def test_all_ops_complete_and_heap_drains(self):
        records, model, log, pending = self._run()
        assert pending == 0
        assert records and all(r.completed is not None for r in records)
        assert all(r.ok for r in records)
        # Every lookup found its bulk-loaded entry.
        assert all(r.entries == 1 for r in records)
        stats = summarize(records)
        assert stats["ok"] == stats["ops"] and stats["failed"] == 0
        assert stats["p95"] >= stats["p50"] > 0.0

    def test_same_seed_identical_log_utilization_and_percentiles(self):
        a_records, a_model, a_log, _ = self._run(seed=5)
        b_records, b_model, b_log, _ = self._run(seed=5)
        assert a_log == b_log
        assert a_model.snapshot(horizon=1.0) == b_model.snapshot(horizon=1.0)
        a_lat, b_lat = completed_latencies(a_records), completed_latencies(b_records)
        for p in (50.0, 90.0, 95.0, 99.0):
            assert percentile(a_lat, p) == percentile(b_lat, p)

    def test_different_seed_differs(self):
        _, _, a_log, _ = self._run(seed=5)
        _, _, b_log, _ = self._run(seed=6)
        assert a_log != b_log

    def test_offered_load_raises_latency(self):
        """More offered load on the same overlay => worse tail latency."""

        def p95_at(rate):
            pnet = _overlay()
            model = LoadModel(ServiceProfile({"lookup": 0.004, "result": 0.0005}))
            with pnet.event_driven(load=model):
                driver = OpenLoopDriver(
                    pnet,
                    KEYS,
                    rate=rate,
                    horizon=1.0,
                    key_skew=1.2,
                    gateways=[pnet.peers[0]],
                    seed=7,
                )
                records = driver.run()
            return summarize(records)["p95"], max(model.utilization(1.0).values())

        low, low_util = p95_at(50)
        high, high_util = p95_at(800)
        assert high_util > low_util
        assert high > low


class TestClosedLoopDriver:
    def test_every_client_completes_its_ops(self):
        pnet = _overlay()
        model = LoadModel(ServiceProfile(PROFILE))
        with pnet.event_driven(load=model) as sched:
            driver = ClosedLoopDriver(
                pnet, KEYS, clients=5, ops_per_client=8, think_time=0.005, seed=3
            )
            records = driver.run()
            assert sched.pending() == 0
        assert len(records) == 5 * 8
        assert all(r.ok for r in records)

    def test_closed_loop_is_deterministic(self):
        def run():
            pnet = _overlay()
            model = LoadModel(ServiceProfile(PROFILE))
            with pnet.event_driven(load=model) as sched:
                ClosedLoopDriver(pnet, KEYS, clients=4, ops_per_client=6, seed=9).run()
                return list(sched.log)

        assert run() == run()


class TestReplicaDiffusion:
    def _hot_run(self, diffusion):
        """One gateway hammering one hot key: the diffusion stress case."""
        pnet = _overlay(seed=77, replication=4, num_peers=48)
        model = LoadModel(ServiceProfile({"lookup": 0.004, "result": 0.0001}))
        with pnet.event_driven(load=model):
            driver = OpenLoopDriver(
                pnet,
                [KEYS[8]],
                rate=300,
                horizon=1.0,
                gateways=[pnet.peers[0]],
                diffusion=diffusion,
                seed=13,
            )
            records = driver.run()
        return records, model, pnet

    @pytest.mark.parametrize("policy", ["random", "least-busy"])
    def test_diffusion_spreads_hot_key_load(self, policy):
        plain_records, plain_model, plain_net = self._hot_run("none")
        spread_records, spread_model, pnet = self._hot_run(policy)
        assert all(r.ok for r in plain_records) and all(r.ok for r in spread_records)
        population = [p.node_id for p in plain_net.peers]
        plain_imbalance = query_load_imbalance(plain_model.busy_by_peer(), population)
        spread_imbalance = query_load_imbalance(spread_model.busy_by_peer(), population)
        # Same total work, far less of it concentrated on the hottest peer.
        assert spread_imbalance["max"] < plain_imbalance["max"] / 1.5
        group = [p for p in pnet.responsible_group(KEYS[8]) if p.online]
        served = [p for p in group if spread_model.busy_by_peer().get(p.node_id, 0.0) > 0]
        assert len(served) > 1, "diffusion should hit more than one replica"
        # And the latency tail improves because queueing delay shrinks.
        assert summarize(spread_records)["p95"] < summarize(plain_records)["p95"]

    def test_least_busy_picks_the_idle_member(self):
        pnet = _overlay(seed=77, replication=3)
        model = LoadModel(ServiceProfile({"lookup": 1.0}))
        destination = pnet.responsible_group(KEYS[0])[0]
        members = sorted(
            [destination] + [pnet.net.nodes[r] for r in destination.online_replicas()],
            key=lambda p: p.node_id,
        )
        assert len(members) >= 2
        # Pile synthetic backlog on everyone except one member.
        idle = members[-1]
        for peer in members:
            if peer is not idle:
                model.queue(peer.node_id).admit(0.0, 5.0)
        chosen = choose_replica(
            destination, policy="least-busy", rng=random.Random(0), load=model, now=0.0
        )
        assert chosen is idle

    def test_pnet_lookup_diffusion_returns_same_entries(self):
        pnet = _overlay(seed=31, replication=3)
        pnet.replica_diffusion = "random"
        destinations = set()
        for _ in range(12):
            entries, _trace, destination = pnet.lookup_at(KEYS[3], start=pnet.peers[0])
            assert {(e.item_id, e.value) for e in entries} == {
                (f"id-{WORDS[3]}", f"val-{WORDS[3]}")
            }
            destinations.add(destination.node_id)
        assert len(destinations) > 1  # reads actually spread over the group
        pnet.replica_diffusion = "none"
        _entries, _trace, pinned = pnet.lookup_at(KEYS[3], start=pnet.peers[0])
        _entries, _trace, again = pnet.lookup_at(KEYS[3], start=pnet.peers[0])
        assert pinned is again  # route cache pins without diffusion

    def test_lookup_many_diffuses_the_batched_read_path(self):
        """The bulk read path (joins, MQP probes) must spread reads too."""

        def serving_peers(policy):
            pnet = _overlay(seed=31, replication=3)
            pnet.replica_diffusion = policy
            group_ids = {p.node_id for p in pnet.responsible_group(KEYS[3])}
            served = set()
            with pnet.event_driven() as sched:
                for _ in range(12):
                    results, _trace = pnet.lookup_many([KEYS[3]], start=pnet.peers[0])
                    assert {(e.item_id, e.value) for e in results[KEYS[3]]} == {
                        (f"id-{WORDS[3]}", f"val-{WORDS[3]}")
                    }
                served = {d.dst for d in sched.log if d.dst in group_ids}
            return served

        assert len(serving_peers("random")) > 1
        assert len(serving_peers("none")) == 1  # pinned without diffusion

    def test_load_model_backlog_read_does_not_create_queues(self):
        model = LoadModel(ServiceProfile({"op": 1.0}))
        assert model.backlog("ghost", now=0.0) == 0.0
        assert model.busy_by_peer() == {}  # the read left no phantom peer
        model.admit("real", 0.0, "op")
        assert model.backlog("real", now=0.5) == pytest.approx(0.5)
        assert set(model.busy_by_peer()) == {"real"}


class TestChurnUnderLoad:
    def test_partial_route_accounting_survives_dead_hops(self):
        """A failed route's partial-hop replay must stop at a dead hop, not
        raise NodeUnreachableError inside the simulator (driver-crash bug)."""
        # a(0) -> b(10) -> c(110) -> d(111, offline): a lookup of d's key from
        # a dead-ends at c, and c dies before the replay's second hop departs.
        pnet = PGridNetwork(Network(latency_model=ConstantLatency(0.01)))
        a, b, c, d = (pnet.add_peer(n, path) for n, path in zip("abcd", ["0", "10", "110", "111"]))
        a.routing.add(0, "b")
        b.routing.add(1, "c")
        c.routing.add(2, "d")
        d.fail()
        churn = [ChurnEvent(time=0.005, node_id="c", online=False)]
        with pnet.event_driven() as sched:
            driver = ClosedLoopDriver(pnet, ["111"], clients=1, ops_per_client=1, gateways=[a])
            (record,) = driver.run(churn_trace=churn)  # must not raise
            assert [(x.src, x.dst) for x in sched.log] == [("a", "b")]
            assert sched.pending() == 0
        assert record.completed is not None and not record.ok

    def test_mid_queue_failure_redirects_queued_work(self):
        """A destination dies while requests are queued on it: the affected
        operations re-route to a replica and still answer."""
        pnet = _overlay(seed=31, replication=3)
        hot_key = KEYS[5]
        gateway = next(p for p in pnet.peers if p not in pnet.responsible_group(hot_key))
        # Discover the peer the gateway's lookups will pin to.
        entries, _trace, victim = pnet.lookup_at(hot_key, start=gateway)
        assert entries
        model = LoadModel(ServiceProfile({"lookup": 0.05, "result": 0.0}))
        churn = [ChurnEvent(time=0.08, node_id=victim.node_id, online=False)]
        with pnet.event_driven(load=model) as sched:
            driver = OpenLoopDriver(
                pnet, [hot_key], rate=120, horizon=0.3, gateways=[gateway], seed=17
            )
            records = driver.run(churn_trace=churn)
            assert sched.pending() == 0
        assert records
        assert all(r.completed is not None for r in records)  # nothing lost
        rerouted = [r for r in records if r.reroutes > 0]
        assert rerouted, "the mid-queue failure must force re-routes"
        assert all(r.ok and r.entries == 1 for r in rerouted)
        assert all(r.ok for r in records)

    def test_session_trace_churn_is_deterministic_and_lossless(self):
        def run():
            pnet = _overlay(seed=31, replication=3)
            model = LoadModel(ServiceProfile(PROFILE))
            trace = generate_session_trace(
                [p.node_id for p in pnet.peers],
                horizon=1.5,
                mean_session=0.8,
                mean_downtime=0.2,
                rng=random.Random(42),
            )
            with pnet.event_driven(load=model) as sched:
                driver = OpenLoopDriver(pnet, KEYS, rate=150, horizon=1.5, key_skew=0.8, seed=23)
                records = driver.run(churn_trace=trace)
                pending = sched.pending()
            outcome = [(r.index, r.ok, r.reroutes, round(r.completed, 9)) for r in records]
            return outcome, list(sched.log), model.snapshot(), pending

        a = run()
        b = run()
        assert a == b  # identical outcomes, event log, utilization
        outcome, _log, _snap, pending = a
        assert pending == 0, "no scheduler deadlock"
        assert outcome and all(completed is not None for *_rest, completed in outcome)
        assert any(ok for _i, ok, _r, _c in outcome)
