"""The two interpreters of a routed wave, and the shower's references.

Every routed P-Grid operation emits one form — ``ChainSpec`` chains of hops
whose arrival returns nested follow-up chains, plus an optional reply that
departs once those completed — and ``Network.run_chains`` (causal trace)
and ``EventScheduler.run_chains`` (simulated time) interpret it.  These
tests drive random nested chain lists through both and hold them to the
same accounting.

The shower expands its fan-out tree once and runs it as one chain per edge.
It is held to copies of the two interpreters it replaced: the depth-first
visitor that sent each edge as it chose it (same trace to the last float
bit, same entry and group order, same stats, and the same RNG state
afterwards), and the event-mode tree interpreter (the identical scheduler
log, trace, entry and group order, stats and RNG states, with and without a
load model, admission control and hints).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.load import LoadModel, ServiceProfile, ThresholdAdmission, draw_speed_factors
from repro.net import ConstantLatency, EventScheduler, PlanetLabLatency
from repro.net.scheduler import ChainSpec, then_send
from repro.net.trace import Trace
from repro.pgrid import build_network, bulk_load
from repro.pgrid.datastore import Entry
from repro.pgrid.keys import KeyRange
from repro.pgrid.network import PGridNetwork
from repro.pgrid.peer import PGridPeer
from repro.pgrid.range_query import (
    _expand_shower,
    _ShowerNode,
    range_query_shower,
    range_query_shower_groups,
)

SLOW = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])

NODES = [f"n{i}" for i in range(6)]
PAIRS = st.tuples(st.sampled_from(NODES), st.sampled_from(NODES))
KINDS = st.sampled_from(["lookup", "insert", "join-rehash"])


def _chain_tree(depth: int):
    """``(hops, kind, size, follow_ups, reply)``; follow-ups and replies nest
    ``depth`` levels further."""
    if depth == 0:
        follow_ups, reply = st.just([]), st.none()
    else:
        inner = _chain_tree(depth - 1)
        follow_ups, reply = st.lists(inner, max_size=3), st.none() | inner
    return st.tuples(st.lists(PAIRS, max_size=3), KINDS, st.integers(1, 5), follow_ups, reply)


#: Top-level chains whose follow-ups and replies nest to depth 3.
CHAINS = st.lists(_chain_tree(2), max_size=4)
PARTIALS = st.lists(st.tuples(st.lists(PAIRS, max_size=3), KINDS, st.integers(1, 5)), max_size=2)


def _spec(chain, arrivals: list[float]) -> ChainSpec:
    hops, kind, size, follow_ups, reply = chain

    def arrived(time):
        arrivals.append(time)
        return [_spec(follow_up, arrivals) for follow_up in follow_ups]

    return ChainSpec(hops, kind, size, arrived, None if reply is None else _spec(reply, arrivals))


def _wave(net, runner, chains, partials):
    """Run one wave through ``runner``; return its trace, stats and arrivals."""
    arrivals: list[float] = []
    specs = [_spec(chain, arrivals) for chain in chains]
    with net.frame() as frame:
        trace = runner.run_chains(specs, untracked=[tuple(p) for p in partials])
    return trace, (dict(frame.by_kind), dict(frame.bytes_by_kind)), sorted(arrivals)


def _twins(latency_model):
    return [build_network(len(NODES), seed=3, latency_model=latency_model).net for _ in range(2)]


def _rename(chains, partials, net):
    """Map the abstract node names onto the twin overlay's peer ids."""
    ids = dict(zip(NODES, sorted(net.nodes)))

    def chain(spec):
        hops, kind, size, follow_ups, reply = spec
        return (
            [(ids[a], ids[b]) for a, b in hops],
            kind,
            size,
            [chain(follow_up) for follow_up in follow_ups],
            None if reply is None else chain(reply),
        )

    partials = [([(ids[a], ids[b]) for a, b in hops], kind, size) for hops, kind, size in partials]
    return [chain(spec) for spec in chains], partials


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
        trace_t, stats_t, arrivals_t = _wave(trace_net, trace_net, chains, partials)
        trace_e, stats_e, arrivals_e = _wave(event_net, EventScheduler(event_net), chains, partials)
        assert (trace_t.messages, trace_t.hops) == (trace_e.messages, trace_e.hops)
        assert stats_t == stats_e
        assert len(arrivals_t) == len(arrivals_e)

    def test_follow_ups_run_in_parallel_after_the_hops(self):
        net = build_network(3, seed=1, latency_model=ConstantLatency(0.1)).net
        a, b, c = sorted(net.nodes)
        pushes = [(b, a, "insert", 2), (b, c, "insert", 2)]
        chains = [ChainSpec([(a, b)], "insert", 2, then_send(pushes)), ChainSpec([], "insert")]
        assert net.run_chains(chains) == Trace(messages=3, hops=2, latency=pytest.approx(0.2))

    def test_a_reply_departs_after_the_follow_ups(self):
        net = build_network(3, seed=1, latency_model=ConstantLatency(0.1)).net
        a, b, c = sorted(net.nodes)
        forward = then_send([(b, c, "range", 1)])
        chains = [ChainSpec([(a, b)], "range", 1, forward, ChainSpec([(b, a)], "range", 3))]
        expected = Trace(messages=3, hops=3, latency=pytest.approx(0.3))
        assert net.run_chains(chains) == expected
        scheduler = EventScheduler(net)
        assert scheduler.run_chains(chains) == Trace(
            messages=3, hops=3, latency=pytest.approx(0.3), completion_time=pytest.approx(0.3)
        )
        assert [(d.src, d.dst, d.size) for d in scheduler.log] == [(a, b, 1), (b, c, 1), (b, a, 3)]

    def test_a_zero_hop_chain_arrives_after_the_wave_departed(self):
        """In a wave, a chain with no hops arrives through the simulator; a
        chain started alone with ``chain`` arrives inline."""
        net = build_network(3, seed=1, latency_model=ConstantLatency(0.1)).net
        a, b, c = sorted(net.nodes)
        local = ChainSpec([], "local", 1, then_send([(a, c, "follow", 1)]))
        scheduler = EventScheduler(net)
        scheduler.run_chains([local, ChainSpec([(a, b)], "hop")])
        assert [d.kind for d in scheduler.log] == ["hop", "follow"]
        scheduler = EventScheduler(net)
        scheduler.chain(local)
        scheduler.chain(ChainSpec([(a, b)], "hop"))
        scheduler.run()
        assert [d.kind for d in scheduler.log] == ["follow", "hop"]

    def test_a_fire_and_forget_chain_names_no_reply(self):
        net = build_network(3, seed=1, latency_model=ConstantLatency(0.1)).net
        a, b, _c = sorted(net.nodes)
        scheduler = EventScheduler(net)
        with pytest.raises(ValueError):
            scheduler.chain(ChainSpec([(a, b)], "range", reply=ChainSpec([(b, a)], "range")))
        assert scheduler.pending() == 0


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


# -- the shower's event interpreter ----------------------------------------------


def reference_event_shower(
    scheduler: EventScheduler,
    tree: _ShowerNode,
    kind: str,
    collect: bool,
    groups: list[tuple[str, list[Entry]]] | None,
) -> tuple[list[Entry], Trace]:
    """The event-mode tree interpreter the shower's edge chains replaced."""
    start_time = scheduler.now
    outcome: dict = {"messages": 0}

    def finished(entries: list[Entry], time: float, hops: int) -> None:
        outcome.update(entries=entries, time=time, hops=hops)

    reference_schedule_node(scheduler, tree, start_time, kind, collect, groups, outcome, finished)
    scheduler.run()
    completion = outcome["time"]
    trace = Trace(
        messages=outcome["messages"],
        hops=outcome["hops"],
        latency=completion - start_time,
        completion_time=completion,
    )
    return outcome["entries"], trace


def reference_schedule_node(
    scheduler: EventScheduler,
    node: _ShowerNode,
    at: float,
    kind: str,
    collect: bool,
    groups: list[tuple[str, list[Entry]]] | None,
    outcome: dict,
    on_done,
) -> None:
    """Serve ``node`` at instant ``at``; call ``on_done(entries, time, hops)``."""
    if groups is not None and node.local:
        groups.append((node.peer.node_id, node.local))
    entries = list(node.local) if collect else []
    if not node.children:
        on_done(entries, at, 0)
        return
    pending = {"count": len(node.children), "finish": at, "hops": 0}

    def merged(child_entries: list[Entry], time: float, hops: int) -> None:
        if collect:
            entries.extend(child_entries)
        pending["count"] -= 1
        pending["finish"] = max(pending["finish"], time)
        pending["hops"] = max(pending["hops"], hops)
        if pending["count"] == 0:
            on_done(entries, pending["finish"], pending["hops"])

    def child_done(child: _ShowerNode, child_entries: list[Entry], time: float, hops: int) -> None:
        if collect:
            outcome["messages"] += 1
            scheduler.send_at(
                time,
                child.peer.node_id,
                node.peer.node_id,
                kind,
                max(1, len(child_entries)),
                on_delivered=lambda arrival: merged(child_entries, arrival, hops + 2),
            )
        else:
            merged(child_entries, time, hops + 1)

    for child in node.children:

        def arrived(time: float, child: _ShowerNode = child) -> None:
            reference_schedule_node(
                scheduler,
                child,
                time,
                kind,
                collect,
                groups,
                outcome,
                lambda child_entries, done_time, hops, child=child: child_done(
                    child, child_entries, done_time, hops
                ),
            )

        outcome["messages"] += 1
        scheduler.send_at(at, node.peer.node_id, child.peer.node_id, kind, 1, on_delivered=arrived)


def _reference_event_run(pnet, start, key_range, collect):
    tree = _expand_shower(pnet, start, key_range, cover="", rng=pnet.rng)
    groups = None if collect else []
    entries, trace = reference_event_shower(pnet.scheduler, tree, "range", collect, groups)
    return entries if collect else groups, trace, tree.complete


def _subject_run(pnet, start, key_range, collect):
    query = range_query_shower if collect else range_query_shower_groups
    return query(pnet, key_range, start=start)


def _execution(load: str, peer_ids: list[str]) -> dict:
    """``event_driven`` arguments: no load model, a service profile on
    heterogeneous peers, or that profile behind admission control + hints."""
    if load == "none":
        return {}
    speeds = draw_speed_factors(peer_ids, seed=1)
    if load == "profile":
        return {"load": LoadModel(ServiceProfile({"range": 0.004}), speeds=speeds)}
    profile = ServiceProfile({"range": 0.02})
    model = LoadModel(profile, speeds=speeds, admission=ThresholdAdmission(1))
    return {"load": model, "hints": True}


class TestShowerEventInterpreter:
    @SLOW
    @given(
        collect=st.booleans(),
        load=st.sampled_from(["none", "profile", "admission+hints"]),
        **SHOWER_CASES,
    )
    def test_matches_the_event_tree_interpreter(
        self, collect, load, num_peers, replication, keys, bounds, failed, seed
    ):
        key_range = KeyRange(min(bounds), max(bounds))
        start_index = seed % num_peers
        runs = []
        for run in (_reference_event_run, _subject_run):
            pnet = _overlay(num_peers, replication, keys, failed, seed)
            start = pnet.peers[start_index]
            if not start.online:
                return
            execution = _execution(load, [p.node_id for p in pnet.peers])
            with pnet.net.frame() as frame, pnet.event_driven(**execution) as sched:
                result, trace, complete = run(pnet, start, key_range, collect)
            if collect:
                result = _identities(result)
            else:
                result = [(peer_id, _identities(group)) for peer_id, group in result]
            runs.append(
                (
                    sched.log,
                    trace,
                    result,
                    complete,
                    frame,
                    pnet.net.rng.getstate(),
                    pnet.rng.getstate(),
                )
            )
        assert runs[1] == runs[0]
