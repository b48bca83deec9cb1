"""Network substrate: traces, delivery, stats frames, latency models, DES."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import NodeUnreachableError
from repro.net import (
    ChurnModel,
    ConstantLatency,
    EventSimulator,
    Network,
    Node,
    PlanetLabLatency,
    Trace,
    UniformLatency,
    ZeroLatency,
    generate_session_trace,
)


class TestTrace:
    def test_zero_identity(self):
        t = Trace(3, 2, 0.5)
        assert t.then(Trace.ZERO) == t
        assert Trace.ZERO.then(t) == t

    def test_sequential_adds_everything(self):
        combined = Trace(1, 1, 0.1).then(Trace(2, 3, 0.4))
        assert combined == Trace(3, 4, 0.5)

    def test_parallel_takes_max_latency(self):
        combined = Trace.parallel([Trace(1, 1, 0.1), Trace(1, 5, 0.9)])
        assert combined.messages == 2
        assert combined.hops == 5
        assert combined.latency == 0.9

    def test_parallel_empty(self):
        assert Trace.parallel([]) == Trace.ZERO

    def test_hop_constructor(self):
        assert Trace.hop(0.2) == Trace(1, 1, 0.2)

    def test_plus_operator_is_sequential(self):
        assert Trace(1, 1, 0.1) + Trace(1, 1, 0.1) == Trace(2, 2, 0.2)

    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5), st.floats(0, 1, allow_nan=False)),
            min_size=1,
            max_size=5,
        )
    )
    def test_parallel_bounded_by_sequential(self, parts):
        traces = [Trace(*p) for p in parts]
        par = Trace.parallel(traces)
        seq = Trace.ZERO
        for t in traces:
            seq = seq.then(t)
        assert par.latency <= seq.latency + 1e-9
        assert par.messages == seq.messages


class TestNetworkDelivery:
    def test_send_and_count(self):
        net = Network(latency_model=ConstantLatency(0.01), seed=1)
        Node("a", net)
        Node("b", net)
        trace = net.send("a", "b", "test", size=3)
        assert trace.hops == 1 and trace.latency == pytest.approx(0.01)
        assert net.stats.messages == 1
        assert net.stats.bytes == 3

    def test_self_send_is_free(self):
        net = Network(seed=1)
        Node("a", net)
        assert net.send("a", "a", "test") == Trace.ZERO
        assert net.stats.messages == 0

    def test_offline_destination_raises(self):
        net = Network(seed=1)
        Node("a", net)
        b = Node("b", net)
        b.fail()
        with pytest.raises(NodeUnreachableError):
            net.send("a", "b", "test")
        b.recover()
        assert net.send("a", "b", "test").hops == 1

    def test_unknown_destination_raises(self):
        net = Network(seed=1)
        Node("a", net)
        with pytest.raises(NodeUnreachableError):
            net.send("a", "ghost", "test")

    def test_duplicate_node_id_rejected(self):
        net = Network(seed=1)
        Node("a", net)
        with pytest.raises(ValueError):
            Node("a", net)

    def test_link_latency_memoized(self):
        net = Network(latency_model=UniformLatency(0.01, 0.5), seed=3)
        Node("a", net)
        Node("b", net)
        assert net.link_latency("a", "b") == net.link_latency("a", "b")

    def test_stats_frames_scope_traffic(self):
        net = Network(seed=1)
        Node("a", net)
        Node("b", net)
        net.send("a", "b", "warmup")
        with net.frame() as frame:
            net.send("a", "b", "scoped", size=2)
        assert frame.messages == 1
        assert frame.bytes == 2
        assert frame.by_kind["scoped"] == 1
        assert net.stats.messages == 2  # global ledger sees both

    def test_nested_frames(self):
        net = Network(seed=1)
        Node("a", net)
        Node("b", net)
        with net.frame() as outer:
            net.send("a", "b", "x")
            with net.frame() as inner:
                net.send("a", "b", "y")
        assert outer.messages == 2
        assert inner.messages == 1


class TestLatencyModels:
    def test_zero(self):
        assert ZeroLatency().sample_base(random.Random(0)) == 0.0

    def test_constant(self):
        assert ConstantLatency(0.07).sample_base(random.Random(0)) == 0.07

    def test_constant_rejects_negative(self):
        with pytest.raises(ValueError):
            ConstantLatency(-1)

    def test_uniform_in_range(self):
        model = UniformLatency(0.01, 0.02)
        rng = random.Random(5)
        for _ in range(100):
            assert 0.01 <= model.sample_base(rng) <= 0.02

    def test_uniform_validates_bounds(self):
        with pytest.raises(ValueError):
            UniformLatency(0.5, 0.1)

    def test_planetlab_is_heavy_tailed(self):
        model = PlanetLabLatency(median=0.04)
        rng = random.Random(7)
        samples = sorted(model.sample_base(rng) for _ in range(2000))
        med = samples[len(samples) // 2]
        p95 = samples[int(len(samples) * 0.95)]
        assert 0.03 < med < 0.05  # median near configured value
        assert p95 > 3 * med  # heavy tail

    def test_planetlab_rejects_bad_median(self):
        with pytest.raises(ValueError):
            PlanetLabLatency(median=0)


class TestEventSimulator:
    def test_runs_in_time_order(self):
        sim = EventSimulator()
        order = []
        sim.schedule(2.0, lambda: order.append("late"))
        sim.schedule(1.0, lambda: order.append("early"))
        sim.run()
        assert order == ["early", "late"]

    def test_fifo_for_ties(self):
        sim = EventSimulator()
        order = []
        sim.schedule(1.0, lambda: order.append(1))
        sim.schedule(1.0, lambda: order.append(2))
        sim.run()
        assert order == [1, 2]

    def test_until_stops_and_advances_clock(self):
        sim = EventSimulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append(True))
        sim.run(until=2.0)
        assert not fired and sim.now == 2.0
        sim.run()
        assert fired

    def test_negative_delay_rejected(self):
        sim = EventSimulator()
        with pytest.raises(ValueError):
            sim.schedule(-1, lambda: None)

    def test_events_can_schedule_events(self):
        sim = EventSimulator()
        seen = []
        sim.schedule(1.0, lambda: sim.schedule(1.0, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [2.0]

    def test_handler_receives_its_args(self):
        sim = EventSimulator()
        seen = []
        sim.schedule(1.0, seen.append, "one")
        sim.schedule_at(2.0, lambda *args: seen.append(args), "a", 2, None)
        sim.schedule_at(3.0, seen.extend, ())
        sim.run()
        assert seen == ["one", ("a", 2, None)]

    def test_fifo_for_ties_with_and_without_args(self):
        sim = EventSimulator()
        order = []
        sim.schedule(1.0, order.append, 1)
        sim.schedule_at(1.0, lambda: order.append(2))
        sim.schedule_at(1.0, order.append, 3)
        sim.schedule(0.5, lambda: sim.schedule(0.5, order.append, 5))  # later seq
        sim.schedule(1.0, lambda: order.append(4))
        sim.run()
        assert order == [1, 2, 3, 4, 5]

    @pytest.mark.parametrize("args", [(), ("x", 1)], ids=["no-args", "args"])
    def test_negative_delay_rejected_with_and_without_args(self, args):
        sim = EventSimulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule(-1e-9, print, *args)
        with pytest.raises(ValueError):
            sim.schedule_at(0.5, print, *args)
        assert sim.pending() == 0

    def test_schedule_at_fires_at_exactly_the_given_time(self):
        now, time = 1.1351641848733607e-10, 1.2561817712792702
        assert now + (time - now) != time  # a rounding tie: one ulp off
        sim = EventSimulator()
        sim.run(until=now)
        seen = []
        sim.schedule_at(time, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [time]

    def test_until_leaves_later_events_with_args_pending(self):
        sim = EventSimulator()
        seen = []
        sim.schedule(1.0, seen.append, "early")
        sim.schedule(5.0, seen.append, "late")
        sim.run(until=2.0)
        assert seen == ["early"] and sim.now == 2.0 and sim.pending() == 1
        sim.run()
        assert seen == ["early", "late"] and sim.now == 5.0


class TestChurn:
    def _make_nodes(self, count):
        net = Network(seed=1)
        return [Node(f"n{i}", net) for i in range(count)]

    def test_fail_fraction(self):
        nodes = self._make_nodes(20)
        model = ChurnModel(nodes, seed=2)
        victims = model.fail_fraction(0.25)
        assert len(victims) == 5
        assert sum(1 for n in nodes if not n.online) == 5

    def test_fail_fraction_validates(self):
        model = ChurnModel(self._make_nodes(4), seed=2)
        with pytest.raises(ValueError):
            model.fail_fraction(1.5)

    def test_recover_all(self):
        nodes = self._make_nodes(10)
        model = ChurnModel(nodes, seed=2)
        model.fail_fraction(0.5)
        model.recover_all()
        assert all(n.online for n in nodes)

    def test_session_trace_alternates(self):
        rng = random.Random(3)
        events = generate_session_trace(["a"], horizon=100.0, mean_session=10.0,
                                        mean_downtime=2.0, rng=rng)
        states = [e.online for e in events]
        # First flip takes the node down; states must alternate.
        assert states[0] is False
        assert all(x != y for x, y in zip(states, states[1:]))

    def test_session_trace_applied_through_simulator(self):
        nodes = self._make_nodes(3)
        model = ChurnModel(nodes, seed=4)
        rng = random.Random(4)
        events = generate_session_trace(
            [n.node_id for n in nodes], horizon=50.0, mean_session=5.0, mean_downtime=5.0, rng=rng
        )
        sim = EventSimulator()
        model.apply_trace(sim, events)
        sim.run(until=50.0)
        # The final state matches the last event per node.
        last_state = {}
        for event in events:
            if event.time <= 50.0:
                last_state[event.node_id] = event.online
        for node in nodes:
            if node.node_id in last_state:
                assert node.online == last_state[node.node_id]
