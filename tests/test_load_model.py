"""The peer load model: service times, FIFO queueing, stats threading.

Covers the load subsystem from the queue arithmetic up through the event
scheduler:

* service profiles and heterogeneous speed factors;
* FIFO queue mechanics (wait = backlog, depth, utilization);
* delivery completion = link latency + queueing delay + service time, with
  exact hand-computed instants on a pinned tiny overlay;
* the zero-profile identity: a zero-cost load model reproduces the plain
  event scheduler byte for byte (messages, hops, completion times, event
  log) — the acceptance criterion that ties E12 back to PR 3;
* ``StatsFrame.snapshot()`` gains queueing fields only when a load model is
  active, and stays byte-for-byte identical for trace-mode runs;
* a hypothesis property: sojourn >= service >= 0 for every admitted job.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.load import (
    ZERO_PROFILE,
    LoadModel,
    NodeQueue,
    ServiceProfile,
    draw_speed_factors,
)
from repro.net import ConstantLatency, Network, ZeroLatency
from repro.pgrid import build_network, bulk_load, encode_string
from repro.pgrid.datastore import Entry
from repro.pgrid.network import PGridNetwork

_WORD_RNG = random.Random(202)
WORDS = sorted(
    {
        "".join(_WORD_RNG.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(7))
        for _ in range(30)
    }
)
ITEMS = [(encode_string(w), f"id-{w}", f"val-{w}") for w in WORDS]
KEYS = [key for key, _id, _value in ITEMS]


class TestServiceProfile:
    def test_cost_per_kind(self):
        profile = ServiceProfile({"lookup": 0.004})
        assert profile.cost("lookup") == pytest.approx(0.004)
        assert profile.cost("unknown") == 0.0
        assert ZERO_PROFILE.cost("anything") == 0.0

    def test_rejects_negative_costs(self):
        with pytest.raises(ValueError):
            ServiceProfile({"lookup": -0.1})


class TestSpeedFactors:
    def test_constant_uniform_lognormal(self):
        ids = [f"peer-{i}" for i in range(50)]
        constant = draw_speed_factors(ids, distribution="constant")
        assert set(constant.values()) == {1.0}
        uniform = draw_speed_factors(ids, distribution="uniform", low=0.5, high=2.0, seed=1)
        assert all(0.5 <= f <= 2.0 for f in uniform.values())
        lognormal = draw_speed_factors(ids, distribution="lognormal", sigma=0.6, seed=1)
        assert all(f > 0 for f in lognormal.values())
        assert len(set(lognormal.values())) > 1  # genuinely heterogeneous

    def test_deterministic_and_order_independent(self):
        ids = [f"p{i}" for i in range(20)]
        a = draw_speed_factors(ids, seed=7)
        b = draw_speed_factors(list(reversed(ids)), seed=7)
        assert a == b

    def test_rejects_unknown_distribution_and_bad_speeds(self):
        with pytest.raises(ValueError):
            draw_speed_factors(["a"], distribution="gaussian")
        with pytest.raises(ValueError):
            LoadModel(speeds=0.0)
        with pytest.raises(ValueError):
            LoadModel(speeds={"a": -1.0})


class TestNodeQueue:
    def test_fifo_backlog_arithmetic(self):
        queue = NodeQueue()
        # Idle server: no wait.
        start, finish, depth = queue.admit(1.0, 0.5)
        assert (start, finish, depth) == (1.0, 1.5, 0)
        # Arrives while busy: waits for the backlog.
        start, finish, depth = queue.admit(1.2, 0.5)
        assert (start, finish, depth) == (1.5, 2.0, 1)
        # Third job queues behind both.
        start, finish, depth = queue.admit(1.3, 1.0)
        assert (start, finish, depth) == (2.0, 3.0, 2)
        assert queue.backlog(2.5) == pytest.approx(0.5)
        assert queue.backlog(10.0) == 0.0
        # After the backlog drains the server is idle again.
        start, finish, depth = queue.admit(5.0, 0.1)
        assert (start, finish, depth) == (5.0, 5.1, 0)
        assert queue.jobs == 4
        assert queue.busy_time == pytest.approx(2.1)
        assert queue.total_wait == pytest.approx(0.3 + 0.7)
        assert queue.total_sojourn == pytest.approx(queue.total_wait + queue.busy_time)
        assert queue.max_depth == 3

    def test_rejects_negative_service(self):
        with pytest.raises(ValueError):
            NodeQueue().admit(0.0, -1e-9)

    def test_speed_scales_service_time(self):
        model = LoadModel(ServiceProfile({"op": 0.01}), speeds={"fast": 2.0, "slow": 0.5})
        assert model.service_time("fast", "op") == pytest.approx(0.005)
        assert model.service_time("slow", "op") == pytest.approx(0.02)
        assert model.service_time("other", "op") == pytest.approx(0.01)


def _tiny_overlay():
    """Hand-built 3-peer trie with pinned links (same shape as PR 3's tests)."""
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


class TestQueueingOnTheScheduler:
    def test_completion_is_link_plus_queue_plus_service(self):
        pnet, a = _tiny_overlay()
        # Every lookup costs 0.3 s at the server; replies are free.
        model = LoadModel(ServiceProfile({"lookup": 0.3}))
        with pnet.event_driven(load=model):
            results, trace = pnet.lookup_many(["011", "10"], start=a)
        # Chain to b: link 0.2, service 0.3 -> request done 0.5; reply (size
        # message, also kind "lookup") arrives 0.7 and is serviced at a by
        # 1.0.  Chain to c: link 0.5 + 0.3 = 0.8; reply arrives 1.3, but a's
        # server is free (its earlier job finished at 1.0), done 1.6.
        assert trace.latency == pytest.approx(1.6)
        assert trace.messages == 4 and trace.hops == 2
        assert {(e.item_id, e.value) for e in results["011"]} == {("x", "vb")}
        queue_a = model.queue("a")
        assert queue_a.jobs == 2 and queue_a.busy_time == pytest.approx(0.6)
        assert queue_a.total_wait == 0.0  # replies never overlapped at a

    def test_queueing_delay_when_two_jobs_collide(self):
        pnet, a = _tiny_overlay()
        model = LoadModel(ServiceProfile({"ping": 1.0}))
        with pnet.event_driven(load=model) as sched:
            done = []
            # Two messages arrive at c at t=0.5 (same link, same instant):
            # the second waits a full service time.
            sched.send_at(0.0, "a", "c", "ping", on_delivered=done.append)
            sched.send_at(0.0, "a", "c", "ping", on_delivered=done.append)
            sched.run()
        assert done == [pytest.approx(1.5), pytest.approx(2.5)]
        assert model.queue("c").total_wait == pytest.approx(1.0)
        assert model.queue("c").max_depth == 2
        samples = model.samples
        assert [s.wait for s in samples] == [pytest.approx(0.0), pytest.approx(1.0)]
        assert all(s.sojourn >= s.service >= 0.0 for s in samples)

    def test_heterogeneous_speeds_make_slow_peers_bottlenecks(self):
        pnet, a = _tiny_overlay()
        model = LoadModel(ServiceProfile({"ping": 0.2}), speeds={"b": 2.0, "c": 0.5})
        with pnet.event_driven(load=model) as sched:
            done = {}
            sched.send_at(0.0, "a", "b", "ping", on_delivered=lambda t: done.update(b=t))
            sched.send_at(0.0, "a", "c", "ping", on_delivered=lambda t: done.update(c=t))
            sched.run()
        assert done["b"] == pytest.approx(0.2 + 0.1)  # fast peer: half the cost
        assert done["c"] == pytest.approx(0.5 + 0.4)  # slow peer: double

    def test_utilization_and_snapshot(self):
        pnet, a = _tiny_overlay()
        model = LoadModel(ServiceProfile({"lookup": 0.3}))
        with pnet.event_driven(load=model):
            pnet.lookup_many(["011", "10"], start=a)
        util = model.utilization(2.0)
        assert util["b"] == pytest.approx(0.15)
        snap = model.snapshot(horizon=2.0)
        assert snap["b"]["jobs"] == 1
        assert snap["b"]["utilization"] == pytest.approx(0.15)
        assert list(snap) == sorted(snap)
        model.reset()
        assert model.snapshot() == {} and model.samples == []


class TestZeroProfileIdentity:
    """A zero-cost load model must reproduce PR 3's event mode exactly."""

    def _run(self, load):
        pnet = build_network(
            32, replication=2, seed=55, split_by="population", latency_model=ConstantLatency(0.05)
        )
        bulk_load(pnet, ITEMS)
        with pnet.event_driven(load=load) as sched:
            results, lookup_trace = pnet.lookup_many(KEYS, start=pnet.peers[0])
            insert_trace = pnet.insert_many(
                [(encode_string(f"fresh{i}"), f"fid{i}", i) for i in range(8)],
                start=pnet.peers[1],
            )
        found = {key: {(e.item_id, e.value) for e in entries} for key, entries in results.items()}
        return list(sched.log), lookup_trace, insert_trace, found

    def test_messages_hops_completions_and_log_identical(self):
        plain = self._run(load=None)
        zeroed = self._run(load=LoadModel(ZERO_PROFILE))
        assert plain[0] == zeroed[0]  # identical delivery log, instant for instant
        assert plain[1] == zeroed[1]  # lookup trace: messages, hops, latency, completion
        assert plain[2] == zeroed[2]  # insert trace
        assert plain[3] == zeroed[3]  # results

    def test_zero_model_still_counts_jobs(self):
        model = LoadModel(ZERO_PROFILE)
        self_run = self._run(load=model)
        assert self_run[0]  # messages flowed
        assert sum(q.jobs for q in model._queues.values()) == len(self_run[0])
        assert all(s.sojourn == 0.0 for s in model.samples)


class TestStatsFrameGating:
    def _trace_mode_snapshot(self):
        pnet = build_network(24, replication=2, seed=66, split_by="population")
        bulk_load(pnet, ITEMS)
        with pnet.net.frame() as frame:
            pnet.lookup_many(KEYS[:10], start=pnet.peers[0])
        return frame.snapshot()

    def test_trace_mode_snapshot_is_unchanged_byte_for_byte(self):
        snap = self._trace_mode_snapshot()
        # The historical shape: exactly these keys, no queueing section.
        assert list(snap) == ["messages", "bytes", "by_kind"]
        rebuilt = {
            "messages": snap["messages"],
            "bytes": snap["bytes"],
            "by_kind": dict(snap["by_kind"]),
        }
        assert json.dumps(snap, sort_keys=True) == json.dumps(rebuilt, sort_keys=True)
        # Two identical runs serialize identically (stable for E1-E11 tables).
        assert json.dumps(snap, sort_keys=True) == json.dumps(
            self._trace_mode_snapshot(), sort_keys=True
        )

    def test_event_mode_without_load_is_also_unchanged(self):
        pnet = build_network(24, replication=2, seed=66, split_by="population")
        bulk_load(pnet, ITEMS)
        with pnet.net.frame() as frame, pnet.event_driven():
            pnet.lookup_many(KEYS[:10], start=pnet.peers[0])
        assert "queueing" not in frame.snapshot()

    def test_load_model_adds_queueing_fields(self):
        pnet = build_network(24, replication=2, seed=66, split_by="population")
        bulk_load(pnet, ITEMS)
        model = LoadModel(ServiceProfile({"lookup": 0.01}))
        with pnet.net.frame() as frame, pnet.event_driven(load=model):
            pnet.lookup_many(KEYS[:10], start=pnet.peers[0])
        snap = frame.snapshot()
        assert "queueing" in snap
        totals = snap["queueing"]
        assert sum(stats["jobs"] for stats in totals.values()) == frame.messages
        assert all(stats["sojourn"] >= stats["busy"] >= 0.0 for stats in totals.values())
        # The global ledger saw the same service totals.
        assert pnet.net.stats.total.snapshot()["queueing"] == totals


@given(
    costs=st.lists(st.floats(0.0, 5.0, allow_nan=False), min_size=1, max_size=40),
    gaps=st.lists(st.floats(0.0, 3.0, allow_nan=False), min_size=1, max_size=40),
    speed=st.floats(0.1, 10.0, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_property_sojourn_geq_service_geq_zero(costs, gaps, speed):
    """Every admitted job: sojourn >= service >= 0, and FIFO never reorders."""
    model = LoadModel(ServiceProfile({"op": 1.0}), speeds={"n": speed})
    arrival = 0.0
    previous_finish = 0.0
    for cost, gap in zip(costs, gaps):
        arrival += gap
        model.profile.costs["op"] = cost
        start, finish, depth = model.admit("n", arrival, "op")
        assert finish >= start >= arrival >= 0.0
        assert depth >= 0
        assert finish >= previous_finish  # FIFO: completions are monotone
        previous_finish = finish
    for sample in model.samples:
        assert sample.sojourn >= sample.service >= 0.0
        assert sample.wait >= 0.0
        assert sample.sojourn == pytest.approx(sample.wait + sample.service)
